import math

import numpy as np
import pytest

from treelab.groups import (
    full_automorphism_group,
    identity_automorphism,
    verify_automorphism,
)
from treelab.operators import materialize, parent_shift_operator
from treelab.reps import (
    bounded_rep_operator,
    conjugation_equivalence_residual,
    curve_to_csv,
    dense_bounded_rep,
    dense_limit_rep,
    dense_pi0,
    dense_unitary_rep,
    displacement,
    finite_rank_defect,
    homomorphism_residual,
    homotopy_curve,
    limit_rep_operator,
    origin_sphere_residual,
    uniform_bound_certificate,
    unitary_rep_operator,
)
from treelab.spaces import VertexVector, delta_vertex
from treelab.trees import make_path, make_random, make_star, root_at

T_GRID = (0.0, 0.3, 0.6, 0.9, 0.99)


@pytest.fixture(scope="module")
def star4_leaf_rooted():
    tree = make_star(4)
    return root_at(tree, 1), full_automorphism_group(tree)


def oracle_bounded(rooted, g, z):
    """Independent oracle: generic matrix inversion, no path formulas."""
    n = rooted.n
    one_minus = np.eye(n) - z * materialize(parent_shift_operator(rooted))
    pi0 = dense_pi0(n, g)
    return np.linalg.inv(one_minus) @ pi0 @ one_minus


def oracle_unitary(rooted, g, t):
    """Independent oracle: the deformation written out, inverted generically."""
    n = rooted.n
    shift = np.zeros((n, n))
    for x, p in enumerate(rooted.parent):
        if p is not None:
            shift[p, x] = 1.0
    p0 = np.zeros((n, n))
    p0[rooted.origin, rooted.origin] = 1.0
    alpha = math.sqrt(1.0 - t * t) - 1.0
    deform = np.eye(n) - t * shift + alpha * p0
    return np.linalg.inv(deform) @ dense_pi0(n, g) @ deform


def oracle_limit(rooted, g):
    """Independent oracle: F* (signed edge permutation) F + p0, written out."""
    tree = rooted.tree
    n, m = tree.n, tree.edge_count
    f = np.zeros((m, n))
    for x, p in enumerate(rooted.parent):
        if p is not None:
            f[tree.edge_index[(min(x, p), max(x, p))], x] = 1.0 if x < p else -1.0
    pi1 = np.zeros((m, m))
    for idx, (u, v) in enumerate(tree.edges):
        gu, gv = g(u), g(v)
        pi1[tree.edge_index[(min(gu, gv), max(gu, gv))], idx] = 1.0 if gu < gv else -1.0
    p0 = np.zeros((n, n))
    p0[rooted.origin, rooted.origin] = 1.0
    return f.T @ pi1 @ f + p0


@pytest.fixture(scope="module")
def random14_rooted():
    tree = make_random(14, seed=4)
    return root_at(tree, 9), full_automorphism_group(tree, max_vertices=14)


class TestBoundedFamily:
    def test_z_zero_is_plain_action(self):
        rooted = root_at(make_path(3), 0)
        g = verify_automorphism(rooted.tree, [2, 1, 0])
        assert np.abs(dense_bounded_rep(rooted, g, 0.0) - dense_pi0(3, g)).max() == 0.0

    def test_identity_element(self):
        rooted = root_at(make_star(4), 1)
        e = identity_automorphism(4)
        for z in (0.2, 0.5j, -0.7):
            assert np.abs(dense_bounded_rep(rooted, e, z) - np.eye(4)).max() <= 1e-15

    def test_frozen_p3_value(self):
        # value pinned by the dense-inversion oracle
        rooted = root_at(make_path(3), 0)
        g = verify_automorphism(rooted.tree, [2, 1, 0])
        out = bounded_rep_operator(rooted, g, 0.5).apply(delta_vertex(rooted.tree, 1))
        assert out == VertexVector(3, {0: 0.375, 1: 0.75, 2: -0.5})
        oracle = oracle_bounded(rooted, g, 0.5)
        assert np.abs(oracle[:, 1] - np.array([0.375, 0.75, -0.5])).max() <= 1e-15

    def test_dense_and_applier_match_oracle(self):
        rooted = root_at(make_random(14, seed=3), 5)
        group = full_automorphism_group(rooted.tree, max_vertices=14)
        for g in group:
            for z in (0.5, 0.3 + 0.4j):
                oracle = oracle_bounded(rooted, g, z)
                assert np.abs(dense_bounded_rep(rooted, g, z) - oracle).max() <= 1e-12
                assert np.abs(
                    materialize(bounded_rep_operator(rooted, g, z)) - oracle
                ).max() <= 1e-12

    def test_rejects_large_z(self):
        rooted = root_at(make_path(2), 0)
        g = identity_automorphism(2)
        for z in (1.0, -1.0, 0.8 + 0.7j):
            with pytest.raises(ValueError, match=r"\|z\| < 1"):
                bounded_rep_operator(rooted, g, z)

    def test_homomorphism_in_g(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            for h in group:
                assert homomorphism_residual(rooted, g, h, "bounded", 0.4) <= 1e-12


class TestUnitaryFamily:
    def test_p2_closed_form(self):
        rooted = root_at(make_path(2), 0)
        g = verify_automorphism(rooted.tree, [1, 0])
        for t in (0.25, 0.5, 0.9):
            s = math.sqrt(1 - t * t)
            out0 = unitary_rep_operator(rooted, g, t).apply(delta_vertex(rooted.tree, 0))
            assert abs(out0.coeff(0) - t) <= 1e-15
            assert abs(out0.coeff(1) - s) <= 1e-15
            out1 = unitary_rep_operator(rooted, g, t).apply(delta_vertex(rooted.tree, 1))
            assert abs(out1.coeff(0) - s) <= 1e-15
            assert abs(out1.coeff(1) + t) <= 1e-15

    def test_unitary_on_grid(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            for t in T_GRID:
                rep = dense_unitary_rep(rooted, g, t)
                assert np.abs(rep.conj().T @ rep - np.eye(4)).max() <= 1e-11

    def test_dense_and_applier_match_oracle(self, random14_rooted):
        rooted, group = random14_rooted
        assert [displacement(rooted, g) > 0 for g in group] == [False, False, True, True]
        for g in group:
            for t in (0.0, 0.5, 0.9):
                oracle = oracle_unitary(rooted, g, t)
                assert np.abs(dense_unitary_rep(rooted, g, t) - oracle).max() <= 1e-12
                assert np.abs(
                    materialize(unitary_rep_operator(rooted, g, t)) - oracle
                ).max() <= 1e-12

    def test_dense_matches_applier(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            dense = dense_unitary_rep(rooted, g, 0.7)
            sparse = materialize(unitary_rep_operator(rooted, g, 0.7))
            assert np.abs(dense - sparse).max() <= 1e-13

    def test_parameter_range(self):
        rooted = root_at(make_path(2), 0)
        g = identity_automorphism(2)
        for t in (1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                unitary_rep_operator(rooted, g, t)

    def test_conjugation_equivalence(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        assert conjugation_equivalence_residual(rooted, group[1], 0.0) == 0.0
        for g in group:
            for t in (0.3, 0.5, 0.9):
                assert conjugation_equivalence_residual(rooted, g, t) <= 1e-12

    def test_homomorphism_in_g(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            for h in group:
                assert homomorphism_residual(rooted, g, h, "unitary", 0.7) <= 1e-11


class TestLimitRep:
    def test_p2_swap_is_diagonal(self):
        rooted = root_at(make_path(2), 0)
        g = verify_automorphism(rooted.tree, [1, 0])
        assert np.abs(dense_limit_rep(rooted, g) - np.diag([1.0, -1.0])).max() == 0.0

    def test_identity_element(self):
        rooted = root_at(make_star(5), 2)
        e = identity_automorphism(5)
        assert np.abs(dense_limit_rep(rooted, e) - np.eye(5)).max() == 0.0

    def test_origin_always_fixed(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        d_origin = delta_vertex(rooted.tree, rooted.origin)
        for g in group:
            op = limit_rep_operator(rooted, g)
            assert op.apply(d_origin) == d_origin

    def test_unitary_and_homomorphism(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            rep = dense_limit_rep(rooted, g)
            assert np.abs(rep.conj().T @ rep - np.eye(4)).max() <= 1e-14
            for h in group:
                assert homomorphism_residual(rooted, g, h, "limit", None) <= 1e-14

    def test_dense_and_applier_match_oracle(self, random14_rooted):
        rooted, group = random14_rooted
        for g in group:
            oracle = oracle_limit(rooted, g)
            assert np.abs(dense_limit_rep(rooted, g) - oracle).max() == 0.0
            assert np.abs(materialize(limit_rep_operator(rooted, g)) - oracle).max() == 0.0

    def test_dense_matches_applier(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            dense = dense_limit_rep(rooted, g)
            sparse = materialize(limit_rep_operator(rooted, g))
            assert np.abs(dense - sparse).max() == 0.0


class TestDefect:
    def test_identity_has_no_defect(self):
        rooted = root_at(make_path(4), 0)
        rep = finite_rank_defect(rooted, identity_automorphism(4), "bounded", 0.5)
        assert rep.rank == 0
        assert rep.support == ()
        assert rep.defect_norm == 0.0

    def test_p3_end_swap(self):
        rooted = root_at(make_path(3), 0)
        g = verify_automorphism(rooted.tree, [2, 1, 0])
        rep = finite_rank_defect(rooted, g, "bounded", 0.5)
        assert rep.displacement == 2
        assert set(rep.support) <= {0, 1, 2}
        assert rep.rank <= 3
        assert rep.defect_norm <= 2 * 0.5 / (1 - 0.5) + 1e-10
        assert rep.cross_check_residual <= 1e-12

    def test_locality_off_the_segment(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            for kind, param in (("bounded", 0.5), ("unitary", 0.9), ("limit", None)):
                rep = finite_rank_defect(rooted, g, kind, param)
                assert rep.outside_residual <= 1e-12
                assert set(rep.support) <= set(rep.segment)
                assert rep.rank <= len(rep.support)
                assert rep.rank <= rep.displacement + 1

    def test_stabilizer_elements_are_defect_free(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            if g(rooted.origin) != rooted.origin:
                continue
            rep = finite_rank_defect(rooted, g, "bounded", 0.9)
            assert rep.rank == 0
            assert rep.defect_norm <= 1e-12

    def test_norm_bound_from_series(self):
        rooted = root_at(make_path(8), 0)
        g = verify_automorphism(rooted.tree, list(reversed(range(8))))
        for z in (0.25, 0.5, 0.9):
            rep = finite_rank_defect(rooted, g, "bounded", z)
            assert rep.defect_norm <= 2 * z / (1 - z) + 1e-9
            assert rep.cross_check_residual <= 1e-11


class TestUniformBound:
    def test_z_zero(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        cert = uniform_bound_certificate(rooted, group, 0.0)
        assert cert.bound == 1.0
        assert cert.max_norm == pytest.approx(1.0, abs=1e-10)
        assert cert.max_norm <= cert.bound + 1e-8

    def test_z_half_bound_three(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        cert = uniform_bound_certificate(rooted, group, 0.5)
        assert cert.bound == pytest.approx(3.0)
        assert cert.max_norm <= 3.0 + 1e-8
        assert cert.max_norm <= cert.bound + 1e-8

    def test_norms_grow_with_displacement(self):
        rooted = root_at(make_path(6), 0)
        group = full_automorphism_group(rooted.tree)
        cert = uniform_bound_certificate(rooted, group, 0.9)
        assert cert.max_norm <= cert.bound + 1e-8
        assert cert.max_norm > 1.5  # the reversal genuinely deforms the action
        assert displacement(rooted, group[cert.argmax_index]) == 5

    def test_capped_word_sample_on_radius_four_tree(self):
        # the radius-4 trivalent tree's full group is astronomically large;
        # a capped closure is exactly the set of short generator words, and
        # the bound must hold over that sample too
        from treelab.groups import close_group
        from treelab.trees import make_regular

        tree = make_regular(2, 4)
        rooted = root_at(tree, 0)

        def subtree_swap(a, b):
            # pair the subtrees below siblings a and b by child order
            images = list(range(tree.n))
            stack = [(a, b)]
            while stack:
                x, y = stack.pop()
                images[x], images[y] = y, x
                kids_x = [w for w in tree.adjacency[x] if rooted.depth[w] > rooted.depth[x]]
                kids_y = [w for w in tree.adjacency[y] if rooted.depth[w] > rooted.depth[y]]
                stack.extend(zip(kids_x, kids_y))
            return images

        # swaps at every depth generate an astronomically large group
        generators = [
            subtree_swap(1, 2),
            subtree_swap(2, 3),
            subtree_swap(4, 5),
            subtree_swap(10, 11),
            subtree_swap(22, 23),
        ]
        closure = close_group(tree, generators, cap=512)
        assert not closure.complete
        assert len(closure) == 512
        leaf_rooted = root_at(tree, tree.n - 1)
        cert = uniform_bound_certificate(leaf_rooted, closure, 0.9)
        assert cert.bound == pytest.approx(19.0)
        assert cert.max_norm <= cert.bound + 1e-8


class TestHomotopy:
    def test_p2_closed_form_curve(self):
        rooted = root_at(make_path(2), 0)
        g = verify_automorphism(rooted.tree, [1, 0])
        points = homotopy_curve(rooted, g, (0.9, 0.99, 0.999))
        for p in points:
            assert p.dist_to_limit == pytest.approx(
                math.sqrt(2 * (1 - p.t)), abs=1e-10
            )

    def test_t_zero_row(self):
        rooted = root_at(make_path(4), 0)
        g = verify_automorphism(rooted.tree, [3, 2, 1, 0])
        (point,) = homotopy_curve(rooted, g, (0.0,))
        assert point.dist_to_pi0 <= 1e-15

    def test_identity_curve_is_zero(self):
        rooted = root_at(make_star(4), 1)
        points = homotopy_curve(rooted, identity_automorphism(4), (0.0, 0.5, 0.9, 1.0))
        for p in points:
            assert p.dist_to_limit <= 1e-14
            assert p.dist_to_pi0 <= 1e-14

    def test_grid_value_one_means_limit(self):
        rooted = root_at(make_path(3), 0)
        g = verify_automorphism(rooted.tree, [2, 1, 0])
        (point,) = homotopy_curve(rooted, g, (1.0,))
        assert point.dist_to_limit == 0.0

    def test_monotone_approach(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            values = [
                p.dist_to_limit for p in homotopy_curve(rooted, g, (0.9, 0.99, 0.999))
            ]
            if displacement(rooted, g) == 0:
                assert max(values) <= 1e-12
            else:
                assert values[0] > values[1] > values[2]

    def test_csv_format(self):
        rooted = root_at(make_path(2), 0)
        g = verify_automorphism(rooted.tree, [1, 0])
        text = curve_to_csv(homotopy_curve(rooted, g, (0.9,)))
        lines = text.splitlines()
        assert lines[0] == "t,dist_to_limit,dist_to_pi0"
        t, dist, _ = lines[1].split(",")
        assert float(t) == 0.9
        assert float(dist) == pytest.approx(math.sqrt(0.2), abs=1e-12)


class TestOriginSphere:
    def test_unit_norm_preserved(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            for t in T_GRID + (0.999,):
                assert origin_sphere_residual(rooted, g, t) <= 1e-13

    def test_closed_form_of_origin_image_norm(self):
        # norm^2 = t^(2d) + (1-t^2) * sum_k t^(2k) telescopes to one
        rooted = root_at(make_path(5), 0)
        g = verify_automorphism(rooted.tree, [4, 3, 2, 1, 0])
        d = displacement(rooted, g)
        for t in (0.3, 0.9, 0.99):
            v = unitary_rep_operator(rooted, g, t).apply(delta_vertex(rooted.tree, 0))
            norm_sq = sum(abs(c) ** 2 for _, c in v.items())
            closed = t ** (2 * d) + (1 - t * t) * sum(
                t ** (2 * k) for k in range(d)
            )
            assert norm_sq == pytest.approx(closed, abs=1e-14)
            assert closed == pytest.approx(1.0, abs=1e-14)


class TestEndpoints:
    def test_start_endpoint_exact(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            gap = dense_unitary_rep(rooted, g, 0.0) - dense_pi0(4, g)
            assert np.abs(gap).max() == 0.0
            sparse = materialize(unitary_rep_operator(rooted, g, 0.0))
            assert np.abs(sparse - dense_pi0(4, g)).max() == 0.0

    def test_limit_endpoint_agrees_between_routes(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for g in group:
            dense = dense_limit_rep(rooted, g)
            sparse = materialize(limit_rep_operator(rooted, g))
            assert np.abs(dense - sparse).max() <= 1e-14
