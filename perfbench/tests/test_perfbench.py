"""Tests of the benchmark itself: its inputs, its work manifest, its
tracing, and the determinism its byte-comparison of reports relies on.

    python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest
from treelab import checks, cli, operators, reps
from treelab.groups import full_automorphism_group
from treelab.trees import tree_from_spec

import tracing
import workloads

BENCHMARK = workloads.ROOT / "BENCHMARK.json"


def _check(spec, group, out):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--tree", spec, "--group", str(group), "--out", str(out)])
    return code, json.loads((out / "report.json").read_text(encoding="utf-8"))


def read_generators(path):
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(tuple(int(tok) for tok in line.split()))
    return out


def closure_order(n: int, generators) -> int:
    """Order of the permutation group the generators close to."""
    found = {tuple(range(n))}
    frontier = list(found)
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                gh = tuple(g[y] for y in h)
                if gh not in found:
                    found.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return len(found)


def is_automorphism(edges, images) -> bool:
    canonical = {(min(u, v), max(u, v)) for u, v in edges}
    mapped = {(min(images[u], images[v]), max(images[u], images[v])) for u, v in edges}
    return sorted(images) == list(range(len(images))) and mapped == canonical


def _without_timings(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["timings"]
    return json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "spec, gens, order",
    [
        ("regular:2,3", workloads.ROOT / workloads.REGULAR_GENERATORS, 1024),
        ("path:200", workloads.ROOT / workloads.PATH_GENERATORS, 2),
    ],
)
def test_generator_file_closes_to_stated_order(spec, gens, order):
    n, edges = workloads.tree_edges(spec)
    generators = read_generators(gens)
    assert all(is_automorphism(edges, g) for g in generators)
    assert closure_order(n, generators) == order
    assert len(generators) == (10 if spec == "regular:2,3" else 1)


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_sibling_leaf_swap_is_an_involution_of_the_large_tree(seed):
    configs = workloads.build("large", seed)
    spec, gens = configs[1]["tree"], workloads.ROOT / configs[1]["group"]
    n, edges = workloads.tree_edges(spec)
    (swap,) = read_generators(gens)
    assert is_automorphism(edges, swap)
    assert closure_order(n, [swap]) == 2 == configs[1]["group_order"]


@pytest.mark.parametrize(
    "spec",
    ["path:1", "path:2", "path:7", "star:6", "regular:1,3", "regular:2,2", "regular:3,1"]
    + [f"random:{n},{s}" for n in (5, 9, 12) for s in (1, 3, 50)],
)
def test_automorphism_order_agrees_with_the_search(spec):
    tree = tree_from_spec(spec)
    assert workloads.automorphism_order(tree.n, tree.edges) == len(full_automorphism_group(tree))


def test_automorphism_order_of_the_symmetric_trees():
    assert workloads.automorphism_order(*workloads.tree_edges("star:7")) == 720
    assert workloads.automorphism_order(*workloads.tree_edges("regular:2,3")) == 3072


def test_default_seed_reproduces_the_manifest():
    manifest = workloads.load_manifest()
    assert manifest["default_seed"] == workloads.DEFAULT_SEED
    template = {tuple(k) for k in manifest["record_template"]}
    assert len(template) == len(manifest["record_template"]) == manifest["records_per_config"] == 138
    for name in workloads.WORKLOADS:
        assert workloads.build(name, workloads.DEFAULT_SEED) == manifest["configs"][name]
    assert [len(manifest["configs"][w]) for w in ("symmetric", "large", "corpus")] == [2, 2, 90]


def test_work_check_refuses_less_work(tmp_path):
    template = workloads.load_manifest()["record_template"]
    config = workloads.build("corpus", workloads.DEFAULT_SEED)[0]
    code, report = _check(config["tree"], config["group"], tmp_path)
    assert workloads.check_report(report, code, config, template) == []
    assert workloads.check_report(report, 1 - code, config, template)
    assert workloads.check_report(report, code, {**config, "group_order": 99}, template)
    fewer = {**report, "records": report["records"][:-1]}
    assert workloads.check_report(fewer, code, config, template)


def test_reports_are_deterministic_and_tracing_changes_no_result(tmp_path):
    n, edges = workloads.tree_edges("random:40,5")
    gens = tmp_path / "swap.gens"
    gens.write_text(" ".join(map(str, workloads.sibling_leaf_swap(n, edges))) + "\n")
    # path:12 carries the known grid-lipschitz failure; the swap is a file group
    configs = [{"tree": "path:12", "group": "auto"}, {"tree": "random:40,5", "group": gens}]
    recorder = tracing.SpanRecorder()
    for i, config in enumerate(configs):
        runs = []
        for traced in (False, False, True):
            out = tmp_path / f"{i}-{len(runs)}"
            if traced:
                recorder.install()
            try:
                _check(config["tree"], config["group"], out)
            finally:
                recorder.uninstall()
            runs.append(_without_timings(out / "report.json"))
        assert runs[0] == runs[1] == runs[2]
    spans = tmp_path / "spans.npz"
    recorder.save(spans)
    table = tracing.layer_table(spans)
    assert table["cli.main"][0] == len(configs)
    assert table["checks.limit-family"][0] == len(configs)
    assert table["operators.materialize"][0] > 0
    assert all(self_s >= 0 for _, self_s in table.values())


def test_tracing_wraps_every_binding_and_restores_it():
    originals = (operators.materialize, operators.operator_norm, checks.resolve_group)
    registry = list(checks._CHECKS)
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        assert checks.materialize is operators.materialize is reps.materialize
        assert operators.materialize is not originals[0]
        assert reps.operator_norm is operators.operator_norm is not originals[1]
        assert cli.resolve_group is checks.resolve_group is not originals[2]
        assert all(fn is not orig for (_, fn), (_, orig) in zip(checks._CHECKS, registry))
    finally:
        recorder.uninstall()
    assert (operators.materialize, operators.operator_norm, checks.resolve_group) == originals
    assert checks.materialize is reps.materialize is originals[0]
    assert checks._CHECKS == registry


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == ["symmetric", "large"]
    assert all(w["why"] == workloads.WORKLOADS[w["name"]] for w in spec["workloads"])
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb", "pass_share"}
    assert [name for name, _ in checks._CHECKS] == list(tracing.CHECKS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
