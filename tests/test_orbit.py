"""The orbit path: deformation-commutant and the three family checks walk
one representative per point of the origin's orbit, r_x, the first closure
row that moves the origin to x, behind an exact stabilizer guard. A guard
that fails is a defect: it fails the family's check with one error record.
The orbit path and the brute-force reference, which walks every closure
row, give the same verdicts, and their measurements agree to rounding.
grid-lipschitz takes its step bounds only where a step moves, once per
orbit of origins."""

import importlib.util
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from treelab import checks, reps
from treelab.cli import main
from treelab.groups import full_automorphism_group
from treelab.operators import (
    one_minus_shift,
    operator_norm,
    parent_edge_operator,
    resolvent_operator,
    worst_of,
)
from treelab.trees import make_regular, make_star, root_at, tree_from_spec

from conftest import force_fallback, transversal

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spy_guard(monkeypatch) -> list:
    """The (origin, rows) of every guard the suite takes."""
    seen = []

    def spy(ctx, rooted, keys):
        rows = original(ctx, rooted, keys)
        seen.append((rooted.origin, rows))
        return rows

    original = checks._orbit_rows
    monkeypatch.setattr(checks, "_orbit_rows", spy)
    return seen


def _benchmark_configs(tmp_path):
    """The symmetric and large workloads at seed 1, as (tree, group) specs;
    the large random tree's generator file is written under tmp_path."""
    workloads = _workloads()
    s = 1
    while (swap := workloads.sibling_leaf_swap(
            *workloads.tree_edges(f"random:200,{s}"))) is None:
        s += 1
    gens = tmp_path / "swap.gens"
    gens.write_text(" ".join(map(str, swap)) + "\n", encoding="utf-8")
    return [
        ("star:7", "auto", [1, 6]),
        ("regular:2,3", str(ROOT / workloads.REGULAR_GENERATORS), [1, 4]),
        ("path:200", str(ROOT / workloads.PATH_GENERATORS), [2, 2]),
        (f"random:200,{s}", str(gens), [1, 1]),
    ]


def test_the_guard_takes_the_orbit_path_on_every_benchmark_origin(
    monkeypatch, tmp_path
):
    # one guard for deformation-commutant, one per z for bounded-family and
    # one for the unitary walk that limit-family reads
    configs = _benchmark_configs(tmp_path)
    seen = _spy_guard(monkeypatch)
    per_origin = 1 + len(checks.DEFAULT_Z_GRID) + 1
    for tree, group, orbits in configs:
        seen.clear()
        report = checks.run_check_suite(checks.SuiteConfig(tree, group))
        assert report.aggregate_pass
        last = tree_from_spec(tree).n - 1
        assert len(seen) == 2 * per_origin
        walked = {o: rows.tolist() for o, rows in seen}
        assert {o: len(rows) for o, rows in walked.items()} == dict(zip((0, last), orbits))
        # a witness names a closure row: its origin's representative
        for r in report.records:
            if r.g != "-":
                assert int(r.g.removeprefix("max@")) in walked[r.origin], r


def test_the_transversal_is_the_first_row_per_orbit_point():
    tree = make_star(4)
    images = full_automorphism_group(tree).images
    ctx = SimpleNamespace(closure=full_automorphism_group(tree), tree=tree)
    rows = checks._orbit_rows(ctx, root_at(tree, 3), [])
    assert rows.tolist() == [0, 1, 3] == transversal(images, 3).tolist()
    assert images[rows, 3].tolist() == [3, 2, 1]
    assert checks._orbit_rows(ctx, root_at(tree, 0), []).tolist() == [0]


@pytest.mark.parametrize("make,entry,raises", [
    # the guard reads the stored 1 - tP and R(t), not T_t and T_t^-1, which
    # differ from them only in the origin's column and row: leaf 1 is a child
    # of the centre 0 at the leaf origin 4; the stabilizer of 4 swaps leaves
    # 1 and 2, so it moves the entry (1, 0) elsewhere
    (one_minus_shift, (1, 0), True),
    # it fixes the origin, so it maps the origin's diagonal entry to itself
    (one_minus_shift, (4, 4), False),
    # F, with the edge action on the left: edge {0, 1} against vertex 1
    (parent_edge_operator, (0, 1), True),
    # R(t)'s (1, 0) is 0, since 1 is no ancestor of 0, and so is its image (2, 0)
    (resolvent_operator, (1, 0), True),
])
def test_an_entry_off_by_1e9_fails_the_guard(
    make, entry, raises
):
    tree = make_star(5)
    rooted = root_at(tree, 4)
    ctx = SimpleNamespace(closure=full_automorphism_group(tree), tree=tree)
    key = (make,) if make is parent_edge_operator else (make, 0.5)
    assert len(checks._orbit_rows(ctx, rooted, [key])) == 4
    matrix = reps._dense_context(rooted, *key).copy()
    matrix[entry] += 1e-9
    reps._dense_context.memos[rooted][key] = matrix
    if raises:
        message = re.escape(f"Stab(4) moves {make.__name__}{key[1:]}")
        with pytest.raises(np.linalg.LinAlgError, match=message):
            checks._orbit_rows(ctx, rooted, [key])
    else:
        assert len(checks._orbit_rows(ctx, rooted, [key])) == 4


@pytest.mark.parametrize("key,entry,broken", [
    # the commutant's 1 - tP, which the unitary walk reads at the same grid t
    ((one_minus_shift, 0.5), (1, 0),
     ["deformation-identity", "unitary-family", "limit-family"]),
    # R(z), at a z off the t grid, which bounded-family alone reads
    ((resolvent_operator, 0.45), (1, 0), ["bounded-family"]),
    # F, which limit-family walks again where unitary-family broke
    ((parent_edge_operator,), (0, 1), ["unitary-family", "limit-family"]),
])
def test_a_guard_failure_fails_its_family_with_one_error_record(
    monkeypatch, tmp_path, capsys, key, entry, broken
):
    # the entry is planted after the sweep of the leaf origin 4, whose
    # stabilizer moves it (as above); origin 0's records ran clean, and each
    # broken check keeps one record, at the first origin, for both
    def sweep(rooted, values):
        original(rooted, values)
        if rooted.origin == 4:
            matrix = reps._dense_context(rooted, *key).copy()
            matrix[entry] += 1e-9
            reps._dense_context.memos[rooted][key] = matrix

    original = reps._dense_context.sweep
    monkeypatch.setattr(reps._dense_context, "sweep", sweep)
    argv = ["check", "--tree", "star:5", "--z", "0.45", "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads((tmp_path / "report.json").read_text())["records"]
    failed = [r for r in records if not r["passed"]]
    assert [r["check"] for r in failed] == broken
    for r in failed:
        assert r["parameter"].startswith(f"error=Stab(4) moves {key[0].__name__}("), r
        assert r["origin"] == 0 and r["measured"] is None


def _keyed(report):
    return {(r.check, r.origin, r.parameter): r for r in report.records}


@pytest.mark.parametrize("spec", ["star:7", "regular:2,2"])
def test_the_fallback_gives_the_same_verdicts_and_measurements(monkeypatch, spec):
    # against the brute-force reference, whose homomorphism takes all of G x G
    orbit = checks.run_check_suite(checks.SuiteConfig(spec))
    force_fallback(monkeypatch)
    reference = checks.run_check_suite(checks.SuiteConfig(spec))
    assert list(_keyed(orbit)) == list(_keyed(reference))
    for key, a in _keyed(orbit).items():
        b = _keyed(reference)[key]
        assert (a.bound, a.passed) == (b.bound, b.passed)
        assert abs(a.measured - b.measured) <= 1e-14, key


@pytest.mark.parametrize("tree", [make_star(5), make_regular(2, 2)])
def test_the_orbit_pairs_give_the_homomorphism_of_g_times_g(tree):
    # the record takes the |G.o|^2 pairs of representatives; brute force
    # takes every pair of G x G
    spec = "star:5" if tree.n == 5 else "regular:2,2"
    report = checks.run_check_suite(checks.SuiteConfig(spec))
    images = full_automorphism_group(tree).images
    g, h = np.divmod(np.arange(len(images) ** 2), len(images))
    for origin in (0, tree.n - 1):
        rooted = root_at(tree, origin)
        brute = max(reps.homomorphism_residual(
            lambda block: reps.dense_unitary_rep(rooted, block, 0.7),
            images[g[b]], images[h[b]],
        ).max() for b in reps.element_blocks(len(g), tree.n))
        record, = [r for r in report.records
                   if r.check == "homomorphism" and r.origin == origin]
        assert record.measured == brute
        assert len(transversal(images, origin)) < len(images)


def test_a_product_against_another_coset_fails_the_law():
    # homomorphism_residual measures rep(g) rep(h) against rep(z) pi0(z^-1 g h):
    # z must be the representative of g h's coset, not any other row
    tree = make_star(4)
    rooted = root_at(tree, 3)
    images = full_automorphism_group(tree).images
    rows = transversal(images, 3)

    def rep(block):
        return reps.dense_unitary_rep(rooted, block, 0.7)

    g, h = images[rows[[1]]], images[rows[[2]]]
    gh = np.take_along_axis(g, h, axis=1)
    z = [row for row in images[rows] if row[3] == gh[0, 3]]
    other = [row for row in images[rows] if row[3] != gh[0, 3]]
    assert reps.homomorphism_residual(rep, g, h, np.array(z)).max() <= 1e-15
    assert reps.homomorphism_residual(rep, g, h, np.array(other[:1])).max() > 0.1


def _count_step_bounds(monkeypatch) -> list:
    """The (origin, a, b) of every reps.unitary_step_bound call."""
    calls = []

    def counting(rooted, a, b, *args):
        calls.append((rooted.origin, a, b))
        return original(rooted, a, b, *args)

    original = reps.unitary_step_bound
    monkeypatch.setattr(reps, "unitary_step_bound", counting)
    return calls


def test_a_walk_on_the_identity_alone_takes_no_step_bound(monkeypatch):
    # every element of random:5,3 fixes both origins: each step reads exactly
    # 0, over any positive bound
    calls = _count_step_bounds(monkeypatch)
    report = checks.run_check_suite(checks.SuiteConfig("random:5,3"))
    assert calls == []
    lipschitz = [r for r in report.records if r.check == "grid-lipschitz"]
    assert [(r.origin, r.measured, r.passed) for r in lipschitz] == [
        (0, 0.0, True), (4, 0.0, True)]


@pytest.mark.parametrize("spec,origin", [
    # the reflection maps origin 0 to 11: one orbit, one set of bounds
    ("path:12", 0),
    # the group fixes the centre 0 and moves the leaf origin 6
    ("star:7", 6),
])
def test_one_set_of_step_bounds_per_orbit_of_origins(monkeypatch, spec, origin):
    calls = _count_step_bounds(monkeypatch)
    grid = checks.DEFAULT_T_GRID
    checks.run_check_suite(checks.SuiteConfig(spec))
    assert calls == [(origin, a, b) for a, b in zip(grid, grid[1:])]


def _eager_lipschitz(spec: str) -> dict[int, float]:
    """grid-lipschitz per origin as computed before the walk kept raw steps:
    every step bound at every origin, taken first from that origin's own
    matrices, and each step divided before it is reduced. The members are
    built on the transversal, in the walk's blocks."""
    tree = tree_from_spec(spec)
    images = full_automorphism_group(tree).images
    member_norm = 1.0 + checks.TOLERANCES["unitarity"]
    grid, out = checks.DEFAULT_T_GRID, {}
    for origin in (0, tree.n - 1):
        rooted = root_at(tree, origin)
        bounds = [reps.unitary_step_bound(rooted, a, b, member_norm)
                  for a, b in zip(grid, grid[1:])]
        rows = images[transversal(images, origin)]
        ratios = []
        for block in reps.element_blocks(len(rows), tree.n):
            members = [reps.dense_unitary_rep(rooted, rows[block], t) for t in grid]
            ratios += [operator_norm(b - a) / bound
                       for a, b, bound in zip(members, members[1:], bounds)]
        out[origin] = worst_of(np.concatenate(ratios))[0]
    return out


@pytest.mark.parametrize("spec", ["star:7", "regular:2,2", "path:12", "random:12,3"])
def test_grid_lipschitz_equals_the_eager_bounds(spec):
    # bit for bit at every origin that takes its own bounds; where the group
    # maps origin 0 to the last one (path:12), the last reads origin 0's
    # bounds, taken on a permutation conjugate of its own matrices
    eager = _eager_lipschitz(spec)
    assert 0.0 < max(eager.values()) <= 1.0
    report = checks.run_check_suite(checks.SuiteConfig(spec))
    records = [r for r in report.records if r.check == "grid-lipschitz"]
    assert [r.origin for r in records] == list(eager)
    images = full_automorphism_group(tree_from_spec(spec)).images
    shared = records[-1].origin in images[:, 0]
    for r in records:
        if r.origin == 0 or not shared:
            assert r.measured == eager[r.origin]
        else:
            assert abs(r.measured - eager[r.origin]) <= 1e-15


def test_two_orbits_of_origins_share_no_step_bound(monkeypatch):
    # random:4,2's swap maps 0 to 2 and 3 to 1, so every step moves at both
    # origins, and they lie in two orbits: each bounds its own steps
    calls = _count_step_bounds(monkeypatch)
    grid = checks.DEFAULT_T_GRID
    report = checks.run_check_suite(checks.SuiteConfig("random:4,2"))
    assert calls == [(o, a, b) for o in (0, 3) for a, b in zip(grid, grid[1:])]
    lipschitz = {r.origin: r.measured for r in report.records
                 if r.check == "grid-lipschitz"}
    assert lipschitz == _eager_lipschitz("random:4,2")
