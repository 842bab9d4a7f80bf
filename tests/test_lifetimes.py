"""A configuration's dense matrices live exactly as long as its rooted
trees, and a finished check suite leaves none of them behind."""

import gc
import weakref

import numpy as np

from treelab import checks, reps
from treelab.operators import deformation_operator, resolvent_operator
from treelab.trees import make_path, root_at


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
