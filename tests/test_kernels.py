import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treelab import kernels
from treelab.groups import full_automorphism_group, verify_automorphism
from treelab.kernels import (
    cnd_check,
    cocycle_equivariance_residual,
    cocycle_report,
    deformation_kernel,
    dense_s_q,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 2), (0, 2), (1, 2)])
    def test_checks_read_nan_on_a_non_finite_kernel(self, bad, entry):
        # on or off the diagonal, whether the eigensolve would raise or
        # return finite values
        kernel = distance_kernel(make_path(3))
        kernel[entry] = kernel[entry[::-1]] = bad
        for check in (cnd_check, psd_check):
            assert math.isnan(check(kernel))
        kernel[entry] = 0.5  # no longer symmetric, whatever the other entry holds
        if entry[0] != entry[1]:
            for check in (cnd_check, psd_check):
                with pytest.raises(ValueError, match="symmetric"):
                    check(kernel)


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
            # J D J is negative semidefinite, and J's kernel, the constants,
            # makes its largest eigenvalue zero up to rounding
            assert abs(cnd_check(distance_kernel(tree))) <= 1e-10

    def test_single_vertex(self):
        value = cnd_check(distance_kernel(Tree(1, [])))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0  # not -0.0

    def test_non_cnd_kernels_read_positive(self):
        assert cnd_check(np.eye(4)) == 1.0  # J I J = J
        assert cnd_check(-distance_kernel(make_path(5))) > 1.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 8),
        entries=st.lists(st.floats(-10, 10), min_size=64, max_size=64),
        raw=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    )
    def test_bounds_every_mean_zero_form(self, n, entries, raw):
        # x^T K x <= cnd_check(K) |x|^2 for every symmetric K and mean-zero x
        k = np.reshape(entries, (8, 8))[:n, :n]
        k = k + k.T
        x = np.array(raw[:n]) - np.mean(raw[:n])
        slack = 1e-12 * (1.0 + np.abs(k).sum()) * (1.0 + x @ x)
        assert quadratic_form(k, x) <= cnd_check(k) * (x @ x) + slack


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
            assert cnd_check(distance_kernel(tree)) <= 1e-10
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

    def test_deformation_kernel_is_t_t_star(self):
        rooted = root_at(make_random(12, seed=5), 7)
        s_q = dense_s_q(rooted.tree)
        for t in (0.0, 0.3, 0.99):
            tmat = materialize(deformation_operator(rooted, t))
            assert np.abs(tmat @ tmat.T - deformation_kernel(s_q, t)).max() <= 1e-15

    def test_reports_on_corpus(self):
        for seed in range(4):
            tree = make_random(50, seed=seed)
            rooted = root_at(tree, seed % tree.n)
            s_q = dense_s_q(tree)
            for t in (0.1, 0.5, 0.9):
                k = exp_kernel(tree, t)
                algebraic = deformation_kernel(s_q, t) @ k - (1 - t * t) * np.eye(tree.n)
                assert np.abs(algebraic).max() <= 1e-10
                assert gram_identity_check(rooted, t, k) <= 1e-10

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
        star, t = make_star(30), 0.9
        k = exp_kernel(star, t)
        algebraic = deformation_kernel(dense_s_q(star), t) @ k - (1 - t * t) * np.eye(30)
        assert np.abs(algebraic).max() <= 1e-10
        assert gram_identity_check(root_at(star, 0), t, k) <= 1e-10


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
        # c(x, z) = c(o, z) - c(o, x) for every base point o, on the path
        # from x to z or off it
        tree = make_random(25, seed=11)
        x, z = 0, 24
        assert len(tree.path(x, z)) < tree.n  # some base points lie off it
        for o in range(tree.n):
            report = cocycle_report(root_at(tree, o), [(x, z), (z, x), (o, x)])
            assert report.chasles_residual.tolist() == [0.0, 0.0, 0.0]
        rooted, g = root_at(tree, 0), verify_automorphism(tree, list(range(tree.n)))
        for y in (-1, tree.n):
            with pytest.raises(ValueError, match="out of range"):
                cocycle_report(rooted, [(y, x)])
            with pytest.raises(ValueError, match="out of range"):
                cocycle_equivariance_residual(tree, [g], [(x, y)])

    def test_chasles_reads_the_origin_cocycles(self, monkeypatch):
        # with c(o, y) doubled wherever the base point o is a pair's first
        # vertex, Chasles at o reads the largest entry of |c(x, y)|: 1 on
        # every pair with x != y
        original = kernels.geodesic_cocycle

        def doubled_from_origin(tree, pairs):
            block = original(tree, pairs)
            xs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)[:, 0]
            return np.where(xs == 3, 2.0, 1.0) * block

        monkeypatch.setattr(kernels, "geodesic_cocycle", doubled_from_origin)
        tree = make_path(5)
        report = cocycle_report(root_at(tree, 3), [(0, 4), (1, 1), (4, 2)])
        assert report.chasles_residual.tolist() == [1.0, 0.0, 1.0]

    def test_equivariance(self):
        tree = make_star(5)
        pairs = [(x, y) for x in range(5) for y in range(5)]
        images = full_automorphism_group(tree)
        gaps = cocycle_equivariance_residual(tree, images, pairs)
        assert gaps.shape == (len(images), len(pairs)) and (gaps == 0.0).all()

    def test_equivariance_reads_the_cocycles_it_is_given(self):
        # the report's block of c(o, y) is the cocycles of the pairs (o, y):
        # passed in, it gives the same gaps; a wrong block shows in them
        tree = make_star(5)
        rooted = root_at(tree, 4)
        base = [(4, y) for y in range(tree.n)]
        from_origin = cocycle_report(rooted, [(0, 1)]).from_origin
        assert np.array_equal(from_origin, geodesic_cocycle(tree, base))
        images = full_automorphism_group(tree)
        gaps = cocycle_equivariance_residual(tree, images, base, from_origin)
        assert np.array_equal(gaps, cocycle_equivariance_residual(tree, images, base))
        wrong = cocycle_equivariance_residual(tree, images, base, 2.0 * from_origin)
        assert (wrong.max(axis=1) == 1.0).all()

    def test_equivariance_on_no_rows_or_no_pairs(self):
        # a trivial group has no generators: its block has no rows
        tree = make_star(5)
        images = full_automorphism_group(tree)
        none = np.empty((0, tree.n), dtype=np.intp)
        assert cocycle_equivariance_residual(tree, none, [(0, 1), (2, 3)]).shape == (0, 2)
        assert cocycle_equivariance_residual(tree, images, []).shape == (len(images), 0)
        assert cocycle_equivariance_residual(tree, [], []).shape == (0, 0)
        with pytest.raises(ValueError):
            cocycle_equivariance_residual(tree, [[0, 1, 2, 3, 0]], [])

    def test_equivariance_on_path_reversal(self):
        tree = make_path(6)
        g = verify_automorphism(tree, [5, 4, 3, 2, 1, 0])
        assert cocycle_equivariance_residual(tree, [g], [(0, 3)]).tolist() == [[0.0]]

    def test_equivariance_block_joins_its_rows(self, monkeypatch):
        # with the identity's edge action in place of g's, the gaps are
        # |c(x, y) - c(g x, g y)|: nonzero, and different per row and pair
        original = kernels.pi1_operator
        monkeypatch.setattr(
            kernels, "pi1_operator", lambda tree, g: original(tree, range(tree.n))
        )
        tree = make_star(5)
        pairs = [(0, 1), (1, 2), (3, 3), (4, 0), (2, 4)]
        images = full_automorphism_group(tree)
        rows = [cocycle_equivariance_residual(tree, g[None], pairs) for g in images]
        block = cocycle_equivariance_residual(tree, images, pairs)
        assert np.array_equal(block, np.concatenate(rows))
        assert set(block.ravel()) == {0.0, 1.0, 2.0}
