"""A configuration's dense matrices live exactly as long as its rooted
trees, and the suite runs origin-major: every rooted check of origin 0,
then the drop of that origin's matrices, then origin N-1, so the memo never
holds two origins' matrices and a finished suite leaves none behind. The
regrouping keeps the report's registry order, the unitary and bounded
walks build each member once, and every real resolvent of an origin comes
from one level sweep."""

import gc
import json
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treelab import checks, kernels, operators, reps
from treelab.cli import main
from treelab.groups import full_automorphism_group
from treelab.operators import (
    deformation_inverse,
    deformation_operator,
    one_minus_shift,
    resolvent_operator,
)
from treelab.trees import make_path, make_star, root_at

from conftest import transversal


def _run_suite(monkeypatch, spec):
    """Run the suite on spec with the cycle collector off; whether each of
    its tree and rooted trees is still alive when it returns, and the
    memo's counters then."""
    refs = []

    def resolve_tree(text):
        tree = original(text)
        refs.append(weakref.ref(tree))
        return tree

    def rooting(tree, origin):
        r = root_at(tree, origin)
        refs.append(weakref.ref(r))
        return r

    original = checks.resolve_tree
    monkeypatch.setattr(checks, "resolve_tree", resolve_tree)
    monkeypatch.setattr(checks, "root_at", rooting)
    gc.disable()
    try:
        checks.run_check_suite(checks.SuiteConfig(spec))
        # freed by reference counting alone: no cycle keeps a tree alive
        alive = [ref() is not None for ref in refs]
        return alive, reps._dense_context.cache_info()
    finally:
        gc.enable()


def test_the_memo_dies_with_its_rooted_trees(monkeypatch):
    before = reps._dense_context.cache_info()
    alive, middle = _run_suite(monkeypatch, "star:4")
    assert alive == [False] * 3  # the tree and its two rooted trees
    assert middle.currsize == 0

    alive, after = _run_suite(monkeypatch, "star:4")
    assert alive == [False] * 3 and after.currsize == 0
    # running totals only grow, and a second run builds every matrix anew
    assert before.hits < middle.hits < after.hits
    assert after.misses - middle.misses == middle.misses - before.misses > 0


def test_the_memo_holds_a_tree_s_matrices_while_it_lives():
    rooted = root_at(make_path(3), 0)
    held = reps._dense_context.cache_info().currsize
    # T_t is read off the stored 1 - tP anew on each read: equal, not the same
    first = reps._dense_context(rooted, deformation_operator, 0.5)
    again = reps._dense_context(rooted, deformation_operator, 0.5)
    assert again is not first and again.tobytes() == first.tobytes()
    assert not first.flags.writeable and first.dtype.kind == "f"
    shift = reps._dense_context(rooted, one_minus_shift, 0.5)
    assert reps._dense_context(rooted, one_minus_shift, 0.5) is shift
    resolvent = reps._dense_context(rooted, resolvent_operator, 0.5)
    assert resolvent.dtype == np.float64
    resolvent = reps._dense_context(rooted, resolvent_operator, 0.3 + 0.4j)
    assert resolvent.dtype == np.complex128
    # 1 - tP and R at 0.5, R at 0.3+0.4i; T_0.5's column is no matrix
    assert reps._dense_context.cache_info().currsize == held + 3
    del rooted
    assert reps._dense_context.cache_info().currsize == held


def test_the_suite_frees_its_matrices_after_the_last_dense_check(monkeypatch):
    # kernels and cocycles run after both origins, whose matrices the suite
    # has freed by then, and read no memoized matrix
    held = reps._dense_context.cache_info().currsize
    seen = []

    def cnd_check(*args, **kwargs):
        seen.append(reps._dense_context.cache_info().currsize)
        return original(*args, **kwargs)

    original = checks.kernels_mod.cnd_check
    monkeypatch.setattr(checks.kernels_mod, "cnd_check", cnd_check)
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    assert report.aggregate_pass and seen == [held]


def test_the_kernels_checks_build_each_origin_free_matrix_once(monkeypatch):
    # the decay kernel depends on the tree and t alone: one per t, read by
    # decay-psd and by both origins' gram-identity; cocycle-equivariance
    # measures the whole element block in one call
    calls = Counter()

    def counted(name, original):
        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in ("exp_kernel", "cocycle_equivariance_residual"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    assert checks.run_check_suite(checks.SuiteConfig("star:4")).aggregate_pass
    assert calls == {"exp_kernel": 3, "cocycle_equivariance_residual": 1}


@pytest.mark.parametrize("spec,last", [("star:4", 3), ("path:12", 11)])
def test_the_memo_never_holds_two_origins_at_once(monkeypatch, spec, last):
    # after each memo lookup, the origins of the suite's tree that hold
    # matrices: one at a time, all of origin 0's lookups before origin N-1's
    held = []

    def lookup(self, rooted, make, *args):
        matrix = original(self, rooted, make, *args)
        held.append(sorted(r.origin for r, memo in self.memos.items()
                           if memo and r.tree is rooted.tree))
        return matrix

    original = reps._TreeMemo.__call__
    monkeypatch.setattr(reps._TreeMemo, "__call__", lookup)
    checks.run_check_suite(checks.SuiteConfig(spec))
    first = held.index([last])
    assert held == [[0]] * first + [[last]] * (len(held) - first)
    assert first > 0


def test_the_report_keeps_the_registry_order():
    # the (check, origin, parameter) keys that perfbench's work check expects,
    # in order: the rooted checks' records of both origins stay grouped by check
    manifest = Path(__file__).resolve().parents[1] / "perfbench" / "manifest.json"
    template = json.loads(manifest.read_text(encoding="utf-8"))["record_template"]
    role = {0: "first", 3: "last"}
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    assert [[r.check, role[r.origin], r.parameter] for r in report.records] == template


def _orbit_blocks():
    """Per origin of star:4, the element blocks of the rows that the orbit
    path walks there, as bytes: the transversals of 1 and 3 rows."""
    images = full_automorphism_group(make_star(4)).images
    out = []
    for o in (0, 3):
        rows = images[transversal(images, o)]
        out.append((o, [rows[b].tobytes() for b in reps.element_blocks(len(rows), 4)]))
    return out


def test_the_walk_builds_each_unitary_member_once(monkeypatch):
    # outside the homomorphism pairs at t = 0.7, each origin and t is built
    # once per element block: the grid, then the extra monotone value
    builds, in_pairs = [], []

    def dense_unitary_rep(rooted, images, t):
        if not in_pairs:
            builds.append((rooted.origin, t, images.tobytes()))
        return original(rooted, images, t)

    def homomorphism_residual(*args):
        in_pairs.append(True)
        try:
            return original_pairs(*args)
        finally:
            in_pairs.pop()

    original, original_pairs = reps.dense_unitary_rep, reps.homomorphism_residual
    monkeypatch.setattr(reps, "dense_unitary_rep", dense_unitary_rep)
    monkeypatch.setattr(reps, "homomorphism_residual", homomorphism_residual)
    assert checks.run_check_suite(checks.SuiteConfig("star:4")).aggregate_pass

    ts = {*checks.DEFAULT_T_GRID, *checks.MONOTONE_T_VALUES}
    assert len(ts) == len(checks.DEFAULT_T_GRID) + 1
    expected = [(o, t, b) for o, blocks in _orbit_blocks() for t in ts for b in blocks]
    assert sorted(builds) == sorted(expected)


def test_the_walk_builds_each_bounded_member_once(monkeypatch):
    # outside conjugation-equivalence, which reads the bounded member at
    # z = t, bounded-family builds each origin, z and element block once:
    # its defect records and uniform-bound read the same member
    builds, in_equivalence = [], []

    def dense_bounded_rep(rooted, images, z):
        if not in_equivalence:
            builds.append((rooted.origin, z, images.tobytes()))
        return original(rooted, images, z)

    def conjugation_equivalence_residual(*args):
        in_equivalence.append(True)
        try:
            return original_equivalence(*args)
        finally:
            in_equivalence.pop()

    original = reps.dense_bounded_rep
    original_equivalence = reps.conjugation_equivalence_residual
    monkeypatch.setattr(reps, "dense_bounded_rep", dense_bounded_rep)
    monkeypatch.setattr(
        reps, "conjugation_equivalence_residual", conjugation_equivalence_residual
    )
    monkeypatch.setattr(reps, "STACK_BYTES", 2 * 16 * 4 * 4)  # two elements a block
    assert checks.run_check_suite(checks.SuiteConfig("star:4")).aggregate_pass

    origins = _orbit_blocks()
    assert [len(blocks) for _, blocks in origins] == [1, 2]
    zs = checks.DEFAULT_Z_GRID
    expected = [(o, z, b) for o, blocks in origins for z in zs for b in blocks]
    assert sorted(builds) == sorted(expected)


def test_the_rooted_pass_sweeps_the_resolvent_once_per_origin(monkeypatch):
    # every real R of an origin, at the grid and extra t and at each real z,
    # comes from one sweep of a stacked identity block, which T_t^-1,
    # conjugation-equivalence and the bounded members read; resolvent-series
    # makes its own sweep at each z, against its series oracle
    sweeps = Counter()

    def level_sweep(rooted, z, block):
        n = rooted.n
        if block.shape[1] % n == 0 and np.array_equal(
                block, np.tile(np.eye(n), block.shape[1] // n)):
            factors = z[::n] if isinstance(z, np.ndarray) else [z]
            sweeps[rooted.origin, frozenset(map(complex, factors))] += 1
        return original(rooted, z, block)

    original = operators.level_sweep
    for module in (operators, reps):
        monkeypatch.setattr(module, "level_sweep", level_sweep)
    monkeypatch.setattr(checks, "_CHECKS", checks._CHECKS[:checks._ROOTED_CHECKS])
    assert checks.run_check_suite(checks.SuiteConfig("path:12")).aggregate_pass

    real = {*checks.DEFAULT_T_GRID, *checks.MONOTONE_T_VALUES, *checks.DEFAULT_Z_GRID}
    expected = Counter({(o, frozenset(map(complex, real))): 1 for o in (0, 11)})
    expected.update((o, frozenset([complex(z)]))
                    for o in (0, 11) for z in checks.DEFAULT_Z_GRID)
    assert sweeps == expected


def test_the_memo_holds_no_deformation_matrix_after_the_unitary_walk(monkeypatch):
    # per origin and t, the memo stores 1 - tP and R(t), and of T_t and
    # T_t^-1 only the column and row in which they differ from them
    held = []

    def unitary_walk(ctx, rooted):
        walk = original(ctx, rooted)
        held.append(dict(reps._dense_context.memos[rooted]))
        return walk

    original = checks._unitary_walk
    monkeypatch.setattr(checks, "_unitary_walk", unitary_walk)
    monkeypatch.setattr(checks, "_CHECKS", checks._CHECKS[:checks._ROOTED_CHECKS])
    checks.run_check_suite(checks.SuiteConfig("path:40"))

    ts = {*checks.DEFAULT_T_GRID, *checks.MONOTONE_T_VALUES}
    assert len(held) == 2
    for memo in held:
        derived = {key: a for key, a in memo.items()
                   if key[0] in (deformation_operator, deformation_inverse)}
        assert {key[1] for key in derived} == ts
        assert all(a.shape == (40,) for a in derived.values())
        for make in (one_minus_shift, resolvent_operator):
            assert {key[1] for key in memo if key[0] is make} == ts
            assert all(a.shape == (40, 40) for key, a in memo.items() if key[0] is make)


def test_a_complex_z_sweeps_its_own_complex_resolvent(monkeypatch, tmp_path):
    # --z 0.3+0.4i: the bounded family reads a complex R, built lazily, while
    # the R that the unitary family reads stay float64 views of one sweep
    resolvents = []

    def unitary_walk(ctx, rooted):
        walk = original(ctx, rooted)
        memo = reps._dense_context.memos[rooted]
        resolvents.append({key[1]: a for key, a in memo.items()
                           if key[0] is resolvent_operator})
        return walk

    original = checks._unitary_walk
    monkeypatch.setattr(checks, "_unitary_walk", unitary_walk)
    assert main(["check", "--tree", "star:4", "--z", "0.3+0.4i",
                 "--out", str(tmp_path)]) == 0
    ts = {*checks.DEFAULT_T_GRID, *checks.MONOTONE_T_VALUES}
    assert len(resolvents) == 2
    for held in resolvents:
        assert set(held) == ts | {0.3 + 0.4j}
        assert held.pop(0.3 + 0.4j).dtype == np.complex128
        assert {a.dtype for a in held.values()} == {np.dtype(np.float64)}
        # views of one swept block
        assert len({id(a.base) for a in held.values()}) == 1
        assert all(a.base is not None for a in held.values())
