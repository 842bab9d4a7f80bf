"""The orbit path: deformation-commutant and the three family checks walk
one representative per point of the origin's orbit, r_x, the first closure
row that moves the origin to x, when an exact stabilizer guard holds, and
every closure row when it does not. Both paths give the same verdicts, and
their measurements agree to rounding. grid-lipschitz takes its step bounds
only where a step moves, once per orbit of origins."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from treelab import checks, reps
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
    """The (origin, rows, orbit) of every guard the suite takes."""
    seen = []

    def spy(ctx, rooted, keys):
        rows, orbit = original(ctx, rooted, keys)
        seen.append((rooted.origin, rows, orbit))
        return rows, orbit

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
        assert all(orbit for _, _, orbit in seen), tree
        walked = {o: rows.tolist() for o, rows, _ in seen}
        assert {o: len(rows) for o, rows in walked.items()} == dict(zip((0, last), orbits))
        # a witness names a closure row: its origin's representative
        for r in report.records:
            if r.g != "-":
                assert int(r.g.removeprefix("max@")) in walked[r.origin], r


def test_the_transversal_is_the_first_row_per_orbit_point():
    tree = make_star(4)
    images = full_automorphism_group(tree).images
    ctx = SimpleNamespace(closure=full_automorphism_group(tree), tree=tree)
    rows, orbit = checks._orbit_rows(ctx, root_at(tree, 3), [])
    assert orbit and rows.tolist() == [0, 1, 3] == transversal(images, 3).tolist()
    assert images[rows, 3].tolist() == [3, 2, 1]
    rows, orbit = checks._orbit_rows(ctx, root_at(tree, 0), [])
    assert orbit and rows.tolist() == [0]


@pytest.mark.parametrize("make,entry,falls_back", [
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
def test_an_entry_off_by_1e9_makes_the_guard_fall_back(make, entry, falls_back):
    tree = make_star(5)
    rooted = root_at(tree, 4)
    closure = full_automorphism_group(tree)
    ctx = SimpleNamespace(closure=closure, tree=tree)
    key = (make,) if make is parent_edge_operator else (make, 0.5)
    rows, orbit = checks._orbit_rows(ctx, rooted, [key])
    assert orbit and len(rows) == 4
    matrix = reps._dense_context(rooted, *key).copy()
    matrix[entry] += 1e-9
    reps._dense_context.memos[rooted][key] = matrix
    rows, orbit = checks._orbit_rows(ctx, rooted, [key])
    if falls_back:
        assert not orbit and rows.tolist() == list(range(len(closure)))
    else:
        assert orbit and len(rows) == 4


def _keyed(report):
    return {(r.check, r.origin, r.parameter): r for r in report.records}


@pytest.mark.parametrize("spec", ["star:7", "regular:2,2"])
def test_the_fallback_gives_the_same_verdicts_and_measurements(monkeypatch, spec):
    orbit = checks.run_check_suite(checks.SuiteConfig(spec))
    force_fallback(monkeypatch)
    fallback = checks.run_check_suite(checks.SuiteConfig(spec))
    assert list(_keyed(orbit)) == list(_keyed(fallback))
    for key, a in _keyed(orbit).items():
        b = _keyed(fallback)[key]
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
    every step bound at every origin, taken first, with the root-free norms
    shared from origin 0, and each step divided before it is reduced. The
    members are built on the transversal, in the walk's blocks."""
    tree = tree_from_spec(spec)
    images = full_automorphism_group(tree).images
    member_norm = 1.0 + checks.TOLERANCES["unitarity"]
    grid, shared, out = checks.DEFAULT_T_GRID, {}, {}
    for origin in (0, tree.n - 1):
        rooted = root_at(tree, origin)
        bounds = [reps.unitary_step_bound(rooted, a, b, member_norm, shared)
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
    # bit for bit at origin 0, which takes the bounds first where it needs
    # any; at the last origin the root-free norms, or the whole bound, may
    # come from the other origin, which is a permutation conjugate of it
    eager = _eager_lipschitz(spec)
    assert 0.0 < max(eager.values()) <= 1.0
    report = checks.run_check_suite(checks.SuiteConfig(spec))
    records = [r for r in report.records if r.check == "grid-lipschitz"]
    assert [r.origin for r in records] == list(eager)
    for r in records:
        if r.origin == 0:
            assert r.measured == eager[0]
        else:
            assert abs(r.measured - eager[r.origin]) <= 1e-15
