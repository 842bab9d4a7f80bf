import json
import math
import subprocess
import sys

import pytest

from treelab.checks import (
    TOLERANCES, ConfigError, SuiteConfig, report_from_json, run_check_suite,
)
from treelab.cli import main
from treelab.operators import NAMED_OPERATORS, materialize, matrix_to_csv
from treelab.trees import make_random, make_star, root_at, serialize_tree


def run_cli(*args):
    return main(list(args))


class TestKernelCommand:
    def test_distance_golden(self, tmp_path, capsys):
        assert run_cli("kernel", "--tree", "path:3", "--kind", "distance",
                       "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "0,1,2\n1,0,1\n2,1,0\n"
        assert (tmp_path / "kernel_distance.csv").read_text() == "0,1,2\n1,0,1\n2,1,0\n"

    def test_exp_golden(self, tmp_path, capsys):
        assert run_cli("kernel", "--tree", "path:2", "--kind", "exp",
                       "--t", "0.5", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "1,0.5\n0.5,1\n"

    def test_gram_matches_exp(self, tmp_path, capsys):
        assert run_cli("kernel", "--tree", "path:3", "--kind", "gram",
                       "--t", "0.5", "--out", str(tmp_path)) == 0
        gram_rows = capsys.readouterr().out.strip().splitlines()
        assert run_cli("kernel", "--tree", "path:3", "--kind", "exp",
                       "--t", "0.5", "--out", str(tmp_path)) == 0
        exp_rows = capsys.readouterr().out.strip().splitlines()
        for g_row, e_row in zip(gram_rows, exp_rows):
            for g_val, e_val in zip(g_row.split(","), e_row.split(",")):
                assert float(g_val) == pytest.approx(float(e_val), abs=1e-12)

    def test_exp_requires_t(self, tmp_path, capsys):
        assert run_cli("kernel", "--tree", "path:2", "--kind", "exp",
                       "--out", str(tmp_path)) == 2


class TestOperatorCommand:
    def test_adjacency_golden(self, tmp_path, capsys):
        assert run_cli("operator", "--tree", "path:3", "--name", "S",
                       "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "0,1,0\n1,0,1\n0,1,0\n"
        assert (tmp_path / "operator_S.csv").exists()

    def test_shift_and_adjoint(self, tmp_path, capsys):
        assert run_cli("operator", "--tree", "path:3", "--name", "P",
                       "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "0,1,0\n0,0,1\n0,0,0\n"
        assert run_cli("operator", "--tree", "path:3", "--name", "Pstar",
                       "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "0,0,0\n1,0,0\n0,1,0\n"

    def test_resolvent_at_one(self, tmp_path, capsys):
        assert run_cli("operator", "--tree", "path:2", "--name", "resolvent",
                       "--z", "1", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out == "1,1\n0,1\n"

    def test_deformation_needs_t(self, tmp_path):
        assert run_cli("operator", "--tree", "path:2", "--name", "T",
                       "--out", str(tmp_path)) == 2
        assert run_cli("operator", "--tree", "path:2", "--name", "Tinv",
                       "--t", "0.5", "--out", str(tmp_path)) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_resolvent_is_written_as_inf(self, tmp_path, capsys):
        # z^2 overflows on path:3; the entry is written, not a traceback
        assert run_cli("operator", "--tree", "path:3", "--name", "resolvent",
                       "--z", "1e200", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.splitlines()[0] == "1,1e+200,inf"

    def test_non_finite_z_is_refused(self, tmp_path, capsys):
        assert run_cli("operator", "--tree", "path:3", "--name", "resolvent",
                       "--z", "1e400", "--out", str(tmp_path)) == 2
        assert "'1e400'" in capsys.readouterr().err
        assert run_cli("check", "--tree", "path:3", "--z", "1e400",
                       "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("name", [*NAMED_OPERATORS, "Pstar", "Fstar"])
    def test_each_name_writes_its_table_entry(self, name, tmp_path, capsys):
        t = 0.7 if name in ("T", "Tinv") else None
        z = 0.3 + 0.4j if name == "resolvent" else None
        argv = ["operator", "--tree", "random:9,2", "--name", name,
                "--out", str(tmp_path)]
        argv += ["--t", "0.7"] * (t is not None) + ["--z", "0.3+0.4i"] * (z is not None)
        assert run_cli(*argv) == 0
        base = {"Pstar": "P", "Fstar": "F"}.get(name, name)
        op = NAMED_OPERATORS[base](root_at(make_random(9, 2), 0), t, z)
        expected = matrix_to_csv(materialize(op.adjoint() if base != name else op))
        assert capsys.readouterr().out == expected
        assert (tmp_path / f"operator_{name}.csv").read_text() == expected


class TestCocycleCommand:
    def test_golden_output(self, capsys):
        assert run_cli("cocycle", "--tree", "path:3", "--x", "0", "--y", "2") == 0
        assert capsys.readouterr().out == "+ 0-1\n+ 1-2\n"

    def test_reverse_direction_flips_signs(self, capsys):
        assert run_cli("cocycle", "--tree", "path:3", "--x", "2", "--y", "0") == 0
        assert capsys.readouterr().out == "- 1-2\n- 0-1\n"

    def test_bad_vertex(self, capsys):
        assert run_cli("cocycle", "--tree", "path:3", "--x", "0", "--y", "9") == 2
        assert "vertex id 9 out of range" in capsys.readouterr().err


class TestCurveCommand:
    def test_p2_closed_form(self, tmp_path, capsys):
        assert run_cli("curve", "--tree", "path:2", "--group", "auto", "--g", "1",
                       "--t", "0.9,0.99,0.999", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "curve_1.csv").read_text().strip().splitlines()
        assert rows[0] == "t,dist_to_limit,dist_to_pi0"
        for row in rows[1:]:
            t, dist, _ = (float(v) for v in row.split(","))
            assert dist == pytest.approx(math.sqrt(2 * (1 - t)), abs=1e-10)

    def test_identity_element_curve_is_zero(self, tmp_path):
        assert run_cli("curve", "--tree", "path:2", "--group", "auto", "--g", "0",
                       "--t", "0.5,1.0", "--out", str(tmp_path)) == 0
        rows = (tmp_path / "curve_0.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            _, dist_limit, dist_pi0 = (float(v) for v in row.split(","))
            assert dist_limit <= 1e-12 and dist_pi0 <= 1e-12

    def test_missing_g_index(self, tmp_path, capsys):
        assert run_cli("curve", "--tree", "path:2", "--group", "auto", "--g", "7",
                       "--out", str(tmp_path)) == 2
        assert "out of range" in capsys.readouterr().err


class TestCheckCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        code = run_cli("check", "--tree", "path:3", "--group", "auto",
                       "--t", "0,0.5,0.9", "--z", "0.5", "--out", str(tmp_path))
        assert code == 0
        assert "pass" in capsys.readouterr().out
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["aggregate_pass"] is True
        assert payload["schema"] == 1
        assert all(r["passed"] for r in payload["records"])

    def test_trivial_group_checks_equivariance_on_no_generators(self, tmp_path):
        # the groups of path:1 and of the corpus's random:7,2 are the identity
        # alone, closed from no generators: no Schreier relation, so the law
        # measures no pair
        for spec, origins in [("path:1", [0]), ("random:7,2", [0, 6])]:
            assert run_cli("check", "--tree", spec, "--out", str(tmp_path)) == 0
            payload = report_from_json((tmp_path / "report.json").read_text())
            assert payload["config"]["group_order"] == 1
            records = payload["records"]
            cocycle = [r for r in records if r["check"] == "cocycle-equivariance"]
            assert [(r["measured"], r["passed"]) for r in cocycle] == [(0.0, True)]
            law = [r for r in records if r["check"] == "homomorphism"]
            assert [(r["origin"], r["measured"], r["passed"]) for r in law] == [
                (o, 0.0, True) for o in origins]

    def test_uniform_bound_reads_the_modulus_of_z(self, tmp_path):
        # 1 + 2|z|/(1 - |z|) plus the slack, at |0.3+0.4i| = 0.5
        assert run_cli("check", "--tree", "star:4", "--t", "0.5", "--z", "0.3+0.4i",
                       "--out", str(tmp_path)) == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        bounds = [r["bound"] for r in payload["records"] if r["check"] == "uniform-bound"]
        assert bounds == [1 + 2 * 0.5 / (1 - 0.5) + 1e-8] * 2

    def test_impossible_tolerance_fails_with_exit_one(self, tmp_path, capsys):
        code = run_cli("check", "--tree", "star:4", "--group", "auto",
                       "--t", "0.9", "--z", "0.5",
                       "--tol.unitarity=1e-18", "--out", str(tmp_path))
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["aggregate_pass"] is False

    def test_rejects_t_equal_one(self, tmp_path, capsys):
        assert run_cli("check", "--tree", "path:2", "--group", "auto",
                       "--t", "1.0", "--out", str(tmp_path)) == 2
        assert "open interval" in capsys.readouterr().err

    def test_rejects_a_repeated_t(self, tmp_path, capsys):
        # a zero-width grid step has no Lipschitz ratio
        assert run_cli("check", "--tree", "path:3", "--t", "0,0.5,0.5",
                       "--out", str(tmp_path)) == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("z,message", [("0.5,0.5", "distinct"), ("1", "|z| < 1")])
    def test_rejects_a_bad_z_grid(self, tmp_path, capsys, z, message):
        assert run_cli("check", "--tree", "star:4", "--z", z,
                       "--out", str(tmp_path)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_rejects_a_negative_seed(self, tmp_path, capsys):
        # the seed drives the sampled checks; it is refused before any runs
        assert run_cli("check", "--tree", "path:5", "--seed", "-1",
                       "--out", str(tmp_path)) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_auto_group_of_a_large_tree(self, tmp_path):
        assert run_cli("check", "--tree", "random:50,7", "--group", "auto",
                       "--t", "0,0.5", "--out", str(tmp_path)) == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["config"]["group_order"] == 8

    def test_auto_group_order_cap(self, tmp_path, capsys):
        # check counts star:13's 12! automorphisms by their stabilizer chain
        # and runs; only curve, which lists the group, keeps the cap
        assert run_cli("check", "--tree", "star:13", "--group", "auto",
                       "--out", str(tmp_path)) == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["config"]["group_order"] == 479001600
        assert payload["config"]["group_complete"] is True
        assert run_cli("curve", "--tree", "star:13", "--group", "auto", "--g", "0",
                       "--out", str(tmp_path)) == 2
        assert "479001600" in capsys.readouterr().err
        assert not (tmp_path / "curve_0.csv").exists()

    @pytest.mark.parametrize("spec,order", [("star:9", 40320),
                                            ("regular:2,4", 12582912)])
    def test_auto_groups_above_20000_elements_run(self, tmp_path, spec, order):
        # the chain gives the order and each origin's transversal; no element
        # list is built, so the size of the group does not refuse a tree
        assert run_cli("check", "--tree", spec, "--group", "auto",
                       "--out", str(tmp_path)) == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["config"]["group_order"] == order
        assert len(payload["records"]) == 138

    def test_generator_file_over_the_cap(self, tmp_path, capsys):
        # a transposition and an 8-cycle of the leaves generate all 40320
        # leaf permutations of star:9, twice curve's cap; check takes them
        group_file = tmp_path / "gens.txt"
        group_file.write_text("0 2 1 3 4 5 6 7 8\n0 2 3 4 5 6 7 8 1\n")
        assert run_cli("check", "--tree", "star:9", "--group", str(group_file),
                       "--out", str(tmp_path)) == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["config"]["group_order"] == 40320
        assert run_cli("curve", "--tree", "star:9", "--group", str(group_file),
                       "--g", "0", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "exceeds" in err and "20000" in err

    def test_unknown_tolerance_name(self, tmp_path, capsys):
        assert run_cli("check", "--tree", "path:2", "--group", "auto",
                       "--tol.bogus=1e-9", "--out", str(tmp_path)) == 2
        assert "--tol.bogus" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_unknown_tolerance_name_in_the_library(self):
        config = SuiteConfig("path:2", tolerances={"bogus": 1e-9})
        with pytest.raises(ConfigError, match="unknown tolerance"):
            config.validate()

    @pytest.mark.parametrize("grid", ["t_grid", "z_grid"])
    def test_empty_grid_in_the_library(self, grid):
        # an empty t grid would leave out unitarity, deformation and
        # conjugation records and still pass
        with pytest.raises(ConfigError, match=f"empty {grid[0]} grid"):
            run_check_suite(SuiteConfig("star:4", **{grid: ()}))

    def test_nan_z_in_the_library(self):
        # abs(nan) >= 1 is False, so the rule is written as not abs(z) < 1
        config = SuiteConfig("path:2", z_grid=(complex("nan"),))
        with pytest.raises(ConfigError, match=r"\|z\| < 1"):
            run_check_suite(config)

    def test_tolerance_flags_are_not_abbreviated(self, tmp_path, capsys):
        # a prefix must not silently set --tol.identity
        assert run_cli("check", "--tree", "path:2", "--tol.ident=1e-30",
                       "--out", str(tmp_path)) == 2
        assert "--tol.ident=1e-30" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_help_lists_every_tolerance(self, capsys):
        assert run_cli("check", "--help") == 0
        help_text = " ".join(capsys.readouterr().out.split())
        for name, value in TOLERANCES.items():
            line = f"--tol.{name} TOL override the tolerance (default {value:g})"
            assert line in help_text

    def test_infinite_tolerance_rejected(self, tmp_path, capsys):
        assert run_cli("check", "--tree", "path:3", "--group", "auto",
                       "--tol.identity=inf", "--out", str(tmp_path)) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_missing_tree_file(self, tmp_path, capsys):
        assert run_cli("check", "--tree", str(tmp_path / "nope.tree"),
                       "--out", str(tmp_path)) == 2

    def test_generator_string_with_bad_parameter(self, tmp_path, capsys):
        assert run_cli("check", "--tree", "path:0", "--out", str(tmp_path)) == 2
        assert "vertex count" in capsys.readouterr().err

    def test_tree_and_group_files(self, tmp_path):
        tree = make_star(4)
        tree_file = tmp_path / "star.tree"
        tree_file.write_text(serialize_tree(tree))
        group_file = tmp_path / "gens.txt"
        group_file.write_text("# leaf swaps\n0 2 1 3\n0 1 3 2\n")
        code = run_cli("check", "--tree", str(tree_file), "--group", str(group_file),
                       "--t", "0,0.5", "--z", "0.25", "--out", str(tmp_path))
        assert code == 0
        payload = report_from_json((tmp_path / "report.json").read_text())
        assert payload["config"]["group_order"] == 6

    def test_bad_group_file_line_numbered(self, tmp_path, capsys):
        tree_file = tmp_path / "p3.tree"
        tree_file.write_text("tree v=3\n0 1\n1 2\n")
        group_file = tmp_path / "gens.txt"
        group_file.write_text("2 1 0\n1 0 2\n")
        assert run_cli("check", "--tree", str(tree_file),
                       "--group", str(group_file), "--out", str(tmp_path)) == 2
        assert "line 2" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli("check", "--tree", "star:4", "--group", "auto",
                           "--t", "0,0.5,0.9", "--z", "0.5,0.3+0.4i",
                           "--seed", "7", "--out", str(tmp_path / sub))
            assert code == 0
        payloads = []
        for sub in ("a", "b"):
            payload = json.loads((tmp_path / sub / "report.json").read_text())
            payload.pop("timings")
            payloads.append(json.dumps(payload, indent=2))
        assert payloads[0] == payloads[1]


class TestReportCommand:
    def test_summarize_passing_report(self, tmp_path, capsys):
        run_cli("check", "--tree", "path:2", "--group", "auto",
                "--t", "0,0.5", "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "report.json")) == 0
        assert "pass" in capsys.readouterr().out

    def test_summarize_failing_report(self, tmp_path, capsys):
        run_cli("check", "--tree", "star:4", "--group", "auto", "--t", "0.9",
                "--tol.unitarity=1e-18", "--out", str(tmp_path))
        capsys.readouterr()
        assert run_cli("report", str(tmp_path / "report.json")) == 1

    def test_missing_report(self, tmp_path):
        assert run_cli("report", str(tmp_path / "none.json")) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"schema": 1},
            [],
            {"schema": 1, "config": {"tree": "path:2", "group_order": 2},
             "aggregate_pass": False, "records": [{"check": "c"}]},
            {"schema": 1, "config": {"tree": "path:2", "group_order": 2},
             "aggregate_pass": False,
             "records": [{"check": "c", "tree": "path:2", "origin": 0, "g": "e",
                          "parameter": "", "measured": None, "bound": None,
                          "passed": False}]},
        ],
    )
    def test_malformed_report(self, tmp_path, capsys, payload):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        assert run_cli("report", str(path)) == 2  # not an uncaught exception
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "field,value",
        [("passed", False), ("aggregate_pass", "no"), ("passed", "false")],
    )
    def test_report_whose_verdicts_disagree_is_refused(
        self, tmp_path, capsys, field, value
    ):
        # aggregate_pass must be the JSON boolean all(passed), and each
        # passed a JSON boolean, or the summary could print pass on a failure
        assert run_cli("check", "--tree", "path:3", "--out", str(tmp_path)) == 0
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        target = payload["records"][0] if field == "passed" else payload
        target[field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("report", str(path)) == 2
        assert capsys.readouterr().err.startswith("error: report ")

    @pytest.mark.parametrize("measured", [1.0, None])
    def test_report_whose_passed_breaks_the_record_rule_is_refused(
        self, tmp_path, capsys, measured
    ):
        # record 0 (shift-product, bound 1e-12) keeps passed: true beside a
        # measured value above its bound, or a null (non-finite) one
        assert run_cli("check", "--tree", "path:3", "--out", str(tmp_path)) == 0
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        record = payload["records"][0]
        assert record["check"] == "shift-product" and record["passed"] is True
        record["measured"] = measured
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("report", str(path)) == 2
        assert capsys.readouterr().err == (
            "error: report record 0 passed disagrees with its rule\n"
        )

    @pytest.mark.parametrize(
        "field,value,error",
        [("schema", True, "not a schema-1 report object"),
         ("schema", 1.0, "not a schema-1 report object"),
         ("group_order", True, "report lacks aggregate_pass, records or config")],
    )
    def test_report_with_a_non_integer_schema_or_group_order_is_refused(
        self, tmp_path, capsys, field, value, error
    ):
        # true and 1.0 both equal 1, and a true group order printed as
        # "group order True"; each field must be a JSON integer
        assert run_cli("check", "--tree", "path:3", "--out", str(tmp_path)) == 0
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        (payload if field == "schema" else payload["config"])[field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("report", str(path)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("field", ["measured", "bound"])
    def test_report_with_a_boolean_for_a_number_is_refused(
        self, tmp_path, capsys, field
    ):
        # Python's bool is an int, so true read as 1 kept grid-lipschitz
        # (bound 1.0) passing; a JSON boolean is not a number
        assert run_cli("check", "--tree", "path:3", "--out", str(tmp_path)) == 0
        path = tmp_path / "report.json"
        payload = json.loads(path.read_text())
        i = [r["check"] for r in payload["records"]].index("grid-lipschitz")
        assert payload["records"][i]["bound"] == 1.0
        payload["records"][i][field] = True
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli("report", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: report record {i} lacks a key, a number or a bool\n"
        )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["curve", "--tree", "path:3", "--g", "1", "--seed", "-5", "--out", "{out}"],
         "--seed"),
        (["cocycle", "--tree", "path:3", "--x", "0", "--y", "2",
          "--group", "nofile", "--out", "{out}"], "--group"),
        (["kernel", "--tree", "path:3", "--kind", "distance", "--group", "nofile",
          "--t", "0.5", "--out", "{out}"], "--group"),
        (["kernel", "--tree", "path:3", "--kind", "distance", "--t", "0.5",
          "--out", "{out}"], "--t"),
        (["report", "{report}", "--tol.identity=-1"], "--tol.identity"),
        (["--tol.identity=1e-3", "kernel", "--tree", "path:3", "--kind", "distance",
          "--out", "{out}"], "--tol.identity"),
        (["operator", "--tree", "path:3", "--name", "S", "--t", "0.5", "--z", "9",
          "--out", "{out}"], "--t"),
        (["operator", "--tree", "path:3", "--name", "T", "--t", "0.5", "--z", "9",
          "--out", "{out}"], "--z"),
        (["operator", "--tree", "path:3", "--name", "resolvent", "--t", "0.5",
          "--z", "0.5", "--out", "{out}"], "--t"),
    ],
)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, argv, flag):
    report = tmp_path / "ref" / "report.json"
    assert run_cli("check", "--tree", "path:2", "--t", "0.5",
                   "--out", str(report.parent)) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*(a.format(out=out, report=report) for a in argv)) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "treelab", "kernel", "--tree", "path:2",
         "--kind", "distance", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "0,1\n1,0\n"


def test_help_exits_zero():
    assert run_cli("--help") == 0
