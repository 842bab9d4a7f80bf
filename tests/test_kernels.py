import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treelab.groups import full_automorphism_group, verify_automorphism
from treelab.kernels import (
    chasles_residual,
    cnd_check,
    cocycle_equivariance_residual,
    cocycle_report,
    distance_kernel,
    exp_kernel,
    geodesic_cocycle,
    gram_identity_check,
    gram_kernel,
    psd_check,
)
from treelab.operators import deformation_operator, materialize
from treelab.trees import Tree, make_path, make_random, make_star, root_at


def quadratic_form(matrix, xi):
    """Oracle: the explicit double sum."""
    n = len(xi)
    return sum(xi[x] * xi[y] * matrix[x, y] for x in range(n) for y in range(n))


class TestDistanceKernel:
    def test_examples(self):
        assert distance_kernel(make_path(2)).dtype == np.float64
        assert np.array_equal(distance_kernel(make_path(2)), [[0, 1], [1, 0]])
        assert np.array_equal(
            distance_kernel(make_path(3)),
            [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        )
        assert np.array_equal(distance_kernel(Tree(1, [])), [[0]])

    def test_checks_refuse_a_non_square_or_asymmetric_matrix(self):
        for check in (cnd_check, psd_check):
            with pytest.raises(ValueError, match="square"):
                check(np.zeros((2, 3)))
            with pytest.raises(ValueError, match="square"):
                check(np.zeros(4))
            with pytest.raises(ValueError, match="symmetric"):
                check(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestConditionalNegativity:
    def test_p2_hand_value(self):
        k = distance_kernel(make_path(2))
        assert quadratic_form(k, [1, -1]) == -2

    def test_p3_hand_value(self):
        k = distance_kernel(make_path(3))
        assert quadratic_form(k, [1, -2, 1]) == -4

    def test_zero_vector(self):
        k = distance_kernel(make_path(3))
        assert quadratic_form(k, [0, 0, 0]) == 0

    def test_reports(self):
        for tree in (make_path(5), make_star(6), make_random(40, seed=2)):
            report = cnd_check(distance_kernel(tree))
            assert report.max_form <= 1e-10
            # the basis forms are exactly -2 * d(i, 0)
            assert report.max_basis_form == -2.0

    def test_single_vertex(self):
        assert cnd_check(distance_kernel(Tree(1, []))).max_form <= 1e-10

    def test_seed_reproducible(self):
        k = distance_kernel(make_random(20, seed=5))
        a = cnd_check(k, seed=123)
        b = cnd_check(k, seed=123)
        assert a.max_random_form == b.max_random_form


class TestDecayKernel:
    def test_p2_closed_form(self):
        kernel = exp_kernel(make_path(2), 0.5)
        assert np.array_equal(kernel, [[1.0, 0.5], [0.5, 1.0]])
        eigs = np.linalg.eigvalsh(kernel)
        assert eigs == pytest.approx([0.5, 1.5])

    def test_unit_diagonal(self):
        kernel = exp_kernel(make_random(30, seed=1), 0.7)
        assert np.array_equal(np.diag(kernel), np.ones(30))

    def test_exponential_parameterization(self):
        tree = make_path(4)
        d = tree.distance_matrix()
        kernel = exp_kernel(tree, math.exp(-1.0))
        assert np.abs(kernel - np.exp(-d)).max() <= 1e-15

    def test_parameter_range(self):
        for t in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                exp_kernel(make_path(2), t)

    def test_psd_on_corpus(self):
        for tree in (make_path(20), make_star(15), make_random(60, seed=8)):
            for t in (0.1, 0.5, 0.9):
                assert psd_check(exp_kernel(tree, t)) >= -1e-10

    def test_schoenberg_consistency(self):
        # negativity of the distance form and positivity of the decay
        # kernel are verified independently on the same trees
        for seed in range(4):
            tree = make_random(25, seed=seed)
            assert cnd_check(distance_kernel(tree)).max_form <= 1e-10
            for t in (0.1, 0.5, 0.9):
                assert psd_check(exp_kernel(tree, t)) >= -1e-10


class TestGramIdentity:
    def test_p2_against_dense_inversion_oracle(self):
        rooted = root_at(make_path(2), 0)
        t = 0.5
        prod = materialize(deformation_operator(rooted, t))
        prod = prod @ prod.conj().T
        oracle = (1 - t * t) * np.linalg.inv(prod).real
        assert np.abs(oracle - exp_kernel(rooted.tree, t)).max() <= 1e-14
        assert np.abs(gram_kernel(rooted, t) - oracle).max() <= 1e-14

    def test_p3_product_oracle(self):
        tree = make_path(3)
        t = 0.5
        k = exp_kernel(tree, t)
        s = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        q = np.diag([0.0, 1.0, 0.0])
        product = (np.eye(3) - t * s + t * t * q) @ k
        assert np.abs(product - (1 - t * t) * np.eye(3)).max() <= 1e-15

    def test_reports_on_corpus(self):
        for seed in range(4):
            tree = make_random(50, seed=seed)
            rooted = root_at(tree, seed % tree.n)
            for t in (0.1, 0.5, 0.9):
                report = gram_identity_check(rooted, t)
                assert report.algebraic_residual <= 1e-10
                assert report.gram_residual <= 1e-10

    def test_origin_independence(self):
        tree = make_random(20, seed=9)
        a = gram_kernel(root_at(tree, 0), 0.6)
        b = gram_kernel(root_at(tree, 13), 0.6)
        assert np.abs(a - b).max() <= 1e-12

    def test_small_t_approaches_identity(self):
        tree = make_path(4)
        t = 1e-8
        assert np.abs(exp_kernel(tree, t) - np.eye(4)).max() <= 2 * t
        assert np.abs(gram_kernel(root_at(tree, 0), t) - np.eye(4)).max() <= 2 * t

    def test_leaves_absorbed(self):
        # heavy-leaf trees exercise the boundary term in the identity
        star = make_star(30)
        report = gram_identity_check(root_at(star, 0), 0.9)
        assert report.algebraic_residual <= 1e-10
        assert report.gram_residual <= 1e-10


def cocycle_column(tree, x, y):
    """Oracle: Tree.path's climb, one signed canonical edge per step."""
    column = np.zeros(tree.edge_count)
    walk = tree.path(x, y)
    for u, v in zip(walk, walk[1:]):
        column[tree.edge_index[min(u, v), max(u, v)]] = 1.0 if u < v else -1.0
    return column


class TestCocycle:
    def test_p3_example(self):
        tree = make_path(3)
        assert np.array_equal(cocycle_column(tree, 0, 2), [1.0, 1.0])
        block = geodesic_cocycle(tree, [(0, 2), (2, 0)])
        assert np.array_equal(block, [[1.0, -1.0], [1.0, -1.0]])

    def test_trivial_cocycle(self):
        tree = make_path(3)
        assert np.array_equal(cocycle_column(tree, 1, 1), np.zeros(2))
        assert np.array_equal(geodesic_cocycle(tree, [(1, 1)]), np.zeros((2, 1)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 1000),
        raw=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=30),
    )
    @example(n=1, seed=0, raw=[])
    @example(n=2, seed=0, raw=[(0, 1), (1, 0)])
    def test_block_matches_per_pair_cocycles(self, n, seed, raw):
        # the block read off the distance matrix against Tree.path's climb,
        # one pair at a time, including x == y, whose column is zero
        tree = make_random(n, seed)
        pairs = [(x % n, y % n) for x, y in raw] + [(0, 0), (n - 1, n - 1)]
        block = geodesic_cocycle(tree, pairs)
        assert block.shape == (tree.edge_count, len(pairs))
        for column, (x, y) in zip(block.T, pairs):
            assert np.array_equal(column, cocycle_column(tree, x, y))

    def test_antisymmetry(self):
        tree = make_random(20, seed=4)
        for x, y in [(0, 19), (3, 17), (5, 5)]:
            fwd = cocycle_column(tree, x, y)
            bwd = cocycle_column(tree, y, x)
            assert np.array_equal(fwd + bwd, np.zeros(tree.edge_count))

    def test_report_all_pairs_small_tree(self):
        tree = make_random(12, seed=7)
        rooted = root_at(tree, 2)
        pairs = [(x, y) for x in range(tree.n) for y in range(tree.n)]
        report = cocycle_report(rooted, pairs)
        assert report.pairs == tuple(pairs)
        assert list(report.squared_norm) == [tree.distance(x, y) for x, y in pairs]
        assert report.coboundary_residual.max() == 0.0
        assert report.antisymmetry_residual.max() == 0.0
        assert report.closed_form_residual.max() <= 1e-12

    def test_chasles_through_a_path_vertex(self):
        tree = make_random(25, seed=11)
        x, z = 0, 24
        for y in tree.path(x, z):
            assert chasles_residual(tree, x, y, z) == 0.0
        rooted, g = root_at(tree, 0), verify_automorphism(tree, list(range(tree.n)))
        for y in (-1, tree.n):
            with pytest.raises(ValueError, match="out of range"):
                chasles_residual(tree, x, y, z)
            with pytest.raises(ValueError, match="out of range"):
                cocycle_report(rooted, [(y, x)])
            with pytest.raises(ValueError, match="out of range"):
                cocycle_equivariance_residual(tree, g, [(x, y)])

    def test_equivariance(self):
        tree = make_star(5)
        pairs = [(x, y) for x in range(5) for y in range(5)]
        for g in full_automorphism_group(tree).images:
            assert (cocycle_equivariance_residual(tree, g, pairs) == 0.0).all()

    def test_equivariance_on_path_reversal(self):
        tree = make_path(6)
        g = verify_automorphism(tree, [5, 4, 3, 2, 1, 0])
        assert cocycle_equivariance_residual(tree, g, [(0, 3)]).tolist() == [0.0]
