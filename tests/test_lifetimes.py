"""A configuration's dense matrices live exactly as long as its rooted
trees, each origin's unitary walk frees them, so a finished check suite
leaves none of them behind, and the walk builds each unitary member once."""

import gc
import weakref

import numpy as np

from treelab import checks, reps
from treelab.groups import full_automorphism_group
from treelab.operators import deformation_operator, resolvent_operator
from treelab.trees import make_path, make_star, root_at


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
    first = reps._dense_context(rooted, deformation_operator, 0.5)
    assert reps._dense_context(rooted, deformation_operator, 0.5) is first
    assert not first.flags.writeable and first.dtype.kind == "f"
    resolvent = reps._dense_context(rooted, resolvent_operator, 0.5)
    assert resolvent.dtype == np.float64
    resolvent = reps._dense_context(rooted, resolvent_operator, 0.3 + 0.4j)
    assert resolvent.dtype == np.complex128
    assert reps._dense_context.cache_info().currsize == held + 3
    del rooted
    assert reps._dense_context.cache_info().currsize == held


def test_the_suite_frees_its_matrices_after_the_last_dense_check(monkeypatch):
    # kernels and cocycles run after the unitary walks, which free each
    # origin's matrices, and read no memoized matrix
    held = reps._dense_context.cache_info().currsize
    seen = []

    def cnd_check(*args, **kwargs):
        seen.append(reps._dense_context.cache_info().currsize)
        return original(*args, **kwargs)

    original = checks.kernels_mod.cnd_check
    monkeypatch.setattr(checks.kernels_mod, "cnd_check", cnd_check)
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    assert report.aggregate_pass and seen == [held]


def test_each_walk_frees_its_origin_s_matrices(monkeypatch):
    # when origin N-1's walk starts, the memo holds no matrix of origin 0;
    # limit-family reads the kept walks and walks nothing again
    held = []

    def walk(ctx, rooted):
        first = ctx.rooted_list[0]
        held.append((rooted.origin, len(reps._dense_context.memos.get(first, {}))))
        return original(ctx, rooted)

    original = checks._unitary_walk
    monkeypatch.setattr(checks, "_unitary_walk", walk)
    assert checks.run_check_suite(checks.SuiteConfig("star:4")).aggregate_pass
    assert [origin for origin, _ in held] == [0, 3]
    assert held[0][1] > 0 and held[1][1] == 0


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

    images = full_automorphism_group(make_star(4)).images
    blocks = [images[b].tobytes() for b in reps.element_blocks(len(images), 4)]
    ts = {*checks.DEFAULT_T_GRID, *checks.MONOTONE_T_VALUES}
    assert len(ts) == len(checks.DEFAULT_T_GRID) + 1
    expected = [(o, t, b) for o in (0, 3) for t in ts for b in blocks]
    assert sorted(builds) == sorted(expected)
