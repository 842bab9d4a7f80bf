"""tools/compare_reports.py, the refactor gate, on synthetic results: how
it reports two checkouts' differences and which arguments it refuses. No
config is run here."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(check, measured):
    return {"check": check, "tree": "star:4", "origin": 0, "g": "-",
            "parameter": "-", "measured": measured, "bound": 1e-12,
            "passed": measured <= 1e-12}


def result():
    """One config's result as a checkout's run prints it."""
    return {
        "tree": "star:4", "group": "auto", "exit": 0, "stdout": "all passed\n",
        "report": {
            "schema": 1, "config": {"tree": "star:4", "group_order": 6},
            "records": [record("shift-product", 0.0), record("cocycle-identities", 0.0)],
            "aggregate_pass": True,
        },
        "report exit": 0, "report stdout": "all passed\n",
    }


def lines(changes):
    return [line for *_, printed in changes for line in printed]


def test_one_differing_record_stdout_and_exit_code(compare):
    parent, change = result(), result()
    change["exit"], change["stdout"] = 1, "FAIL cocycle-identities\n"
    change["report"]["records"][1] = record("cocycle-identities", 1.0)
    changes = compare._changes(parent, change)
    assert [kind for kind, *_ in changes] == ["other"] * 3
    assert lines(changes) == [
        "  exit: 0 -> 1",
        "  stdout: 'all passed\\n' -> 'FAIL cocycle-identities\\n'",
        "  record 1:",
        "    - " + json.dumps(parent["report"]["records"][1]),
        "    + " + json.dumps(change["report"]["records"][1]),
    ]


def test_equal_results_have_no_differences(compare):
    parent = result()
    assert compare._changes(parent, copy.deepcopy(parent)) == []


def test_a_measured_move_of_rounding_size_is_class_a(compare):
    parent, change = result(), result()
    parent["report"]["records"][0] = record("shift-product", 0.25)
    change["report"]["records"][0] = record("shift-product", 0.25 + 2**-54)
    change["report"]["records"][1] = record("cocycle-identities", 1e-14)
    (kind, delta, _), (kind2, delta2, _) = compare._changes(parent, change)
    assert (kind, delta) == ("rounding", 2**-54)
    assert (kind2, delta2) == ("rounding", 1e-14)
    assert compare._summary([(kind, delta), (kind2, delta2)]) == (
        "(a) 2 rounding-level measured moves, largest |delta| 1e-14; "
        "(b) 0 witness changes; (c) 0 other differences")


def test_a_changed_witness_is_class_b(compare):
    parent, change = result(), result()
    change["report"]["records"][1]["g"] = "[1, 0, 2, 3]"
    [(kind, delta, printed)] = compare._changes(parent, change)
    assert (kind, delta, printed[0]) == ("witness", 0.0, "  record 1:")
    assert compare._summary([(kind, delta)]) == (
        "(a) 0 rounding-level measured moves, largest |delta| 0; "
        "(b) 1 witness changes; (c) 0 other differences")


@pytest.mark.parametrize("field,value", [
    # a larger move, a move to or from a non-finite value, a key, a bound and a verdict
    ("measured", 2e-14), ("measured", None), ("origin", 3), ("bound", 1e-11),
    ("passed", False),
])
def test_anything_else_is_class_c(compare, field, value):
    parent, change = result(), result()
    change["report"]["records"][0][field] = value
    [(kind, delta, _)] = compare._changes(parent, change)
    assert (kind, delta) == ("other", 0.0)
    reverse = compare._changes(change, parent)
    assert [kind for kind, *_ in reverse] == ["other"]


@pytest.mark.parametrize("argv", [[], ["parent"], ["parent", "change", "extra"]])
def test_a_bad_argument_count_exits_two(compare, argv, capsys):
    assert compare.main(argv) == 2
    assert "usage:" in capsys.readouterr().err


def test_an_existing_work_directory_exits_two(compare, tmp_path, capsys):
    # refused before either checkout runs
    parent, change = tmp_path / "parent", tmp_path / "change"
    (change / compare.WORK_DIR).mkdir(parents=True)
    parent.mkdir()
    assert compare.main([str(parent), str(change)]) == 2
    assert f"{change / compare.WORK_DIR} exists" in capsys.readouterr().err
