import json
import math

import numpy as np
import pytest

from treelab import reps
from treelab.checks import DEFAULT_T_GRID, TOLERANCES, SuiteConfig, report_to_json
from treelab.checks import run_check_suite
from treelab.groups import (
    close_group,
    full_automorphism_group,
    verify_automorphism,
)
from treelab.operators import (
    deformation_inverse,
    deformation_operator,
    materialize,
    operator_norm,
    parent_shift_operator,
    resolvent_operator,
)
from treelab.reps import (
    bounded_rep_operator,
    conjugation_equivalence_residual,
    curve_to_csv,
    defect_identity_residual,
    dense_bounded_rep,
    dense_limit_rep,
    dense_pi0,
    dense_unitary_rep,
    displacement,
    element_blocks,
    finite_rank_defect,
    homomorphism_residual,
    homotopy_curve,
    limit_rep_operator,
    multiplicative_defect,
    origin_sphere_residual,
    uniform_bound_certificate,
    unitary_rep_operator,
    unitary_step_bound,
)
from treelab.trees import make_path, make_random, make_star, root_at, tree_from_spec

from conftest import origin_pair

T_GRID = (0.0, 0.3, 0.6, 0.9, 0.99)


def block(*rows):
    """The (k, n) image block of the given image rows."""
    return np.array(rows, dtype=np.intp)


@pytest.fixture(scope="module")
def star4_leaf_rooted():
    tree = make_star(4)
    return root_at(tree, 1), full_automorphism_group(tree)


def oracle_bounded(rooted, g, z):
    """Independent oracle: generic matrix inversion, no path formulas."""
    n = rooted.n
    one_minus = np.eye(n) - z * materialize(parent_shift_operator(rooted))
    return np.linalg.inv(one_minus) @ oracle_pi0(g) @ one_minus


def oracle_pi0(g):
    """Independent oracle: column x is the basis vector at g(x)."""
    return np.eye(len(g))[:, list(g)]


def oracle_deformation(rooted, t):
    """Independent oracle: the deformation written out."""
    n = rooted.n
    shift = np.zeros((n, n))
    for x, p in enumerate(rooted.parent):
        if p is not None:
            shift[p, x] = 1.0
    p0 = np.zeros((n, n))
    p0[rooted.origin, rooted.origin] = 1.0
    alpha = math.sqrt(1.0 - t * t) - 1.0
    return np.eye(n) - t * shift + alpha * p0


def oracle_unitary(rooted, g, t):
    """Independent oracle: the deformation inverted generically."""
    deform = oracle_deformation(rooted, t)
    return np.linalg.inv(deform) @ oracle_pi0(g) @ deform


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
        gu, gv = g[u], g[v]
        pi1[tree.edge_index[(min(gu, gv), max(gu, gv))], idx] = 1.0 if gu < gv else -1.0
    p0 = np.zeros((n, n))
    p0[rooted.origin, rooted.origin] = 1.0
    return f.T @ pi1 @ f + p0


def all_pairs(group):
    """The image blocks of g and of h over every pair (g, h), g-major."""
    g, h = np.divmod(np.arange(len(group) ** 2), len(group))
    return group.images[g], group.images[h]


@pytest.fixture(scope="module")
def random14_rooted():
    tree = make_random(14, seed=4)
    return root_at(tree, 9), full_automorphism_group(tree)


class TestStacks:
    @pytest.mark.parametrize("corpus", ["random14_rooted", "star4_leaf_rooted"])
    def test_every_member_matches_its_oracle(self, corpus, request):
        rooted, group = request.getfixturevalue(corpus)
        images = group.images
        for z in (0.5, 0.3 + 0.4j):
            for dense, g in zip(dense_bounded_rep(rooted, images, z), images):
                assert np.abs(dense - oracle_bounded(rooted, g, z)).max() <= 1e-12
        for t in (0.0, 0.5, 0.9):
            for dense, g in zip(dense_unitary_rep(rooted, images, t), images):
                assert np.abs(dense - oracle_unitary(rooted, g, t)).max() <= 1e-12
        for dense, g in zip(dense_limit_rep(rooted, images), images):
            assert np.abs(dense - oracle_limit(rooted, g)).max() == 0.0

    def test_element_blocks_cover_the_elements_in_order(self, monkeypatch):
        per_block = reps.STACK_BYTES // (16 * 22 * 22)
        blocks = element_blocks(1024, 22)
        sizes = [b.stop - b.start for b in blocks]
        assert sizes[:-1] == [per_block] * (len(blocks) - 1)
        assert np.concatenate([np.arange(1024)[b] for b in blocks]).tolist() == list(
            range(1024)
        )
        monkeypatch.setattr(reps, "STACK_BYTES", 1)
        assert element_blocks(3, 200) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    @pytest.mark.parametrize("spec", ["star:5", "random:12,3"])
    def test_block_size_changes_no_report(self, spec, monkeypatch):
        def report():
            payload = json.loads(report_to_json(run_check_suite(SuiteConfig(spec))))
            payload.pop("timings")
            return json.dumps(payload, indent=2)

        default = report()
        # one element, or one pair, per block
        monkeypatch.setattr(reps, "STACK_BYTES", 1)
        assert report() == default


class TestBoundedFamily:
    def test_z_zero_is_plain_action(self):
        rooted = root_at(make_path(3), 0)
        g = block(verify_automorphism(rooted.tree, [2, 1, 0]))
        assert np.abs(dense_bounded_rep(rooted, g, 0.0) - dense_pi0(3, g)).max() == 0.0

    def test_identity_element(self):
        rooted = root_at(make_star(4), 1)
        e = block(tuple(range(4)))
        for z in (0.2, 0.5j, -0.7):
            assert np.abs(dense_bounded_rep(rooted, e, z) - np.eye(4)).max() <= 1e-15

    def test_frozen_p3_value(self):
        # value pinned by the dense-inversion oracle
        rooted = root_at(make_path(3), 0)
        g = verify_automorphism(rooted.tree, [2, 1, 0])
        out = bounded_rep_operator(rooted, g, 0.5) @ np.eye(3)[:, [1]]
        assert np.array_equal(out, [[0.375], [0.75], [-0.5]])
        oracle = oracle_bounded(rooted, g, 0.5)
        assert np.abs(oracle[:, 1] - np.array([0.375, 0.75, -0.5])).max() <= 1e-15

    def test_dense_and_applier_match_oracle(self):
        rooted = root_at(make_random(14, seed=3), 5)
        group = full_automorphism_group(rooted.tree)
        for z in (0.5, 0.3 + 0.4j):
            stack = dense_bounded_rep(rooted, group.images, z)
            for dense, g in zip(stack, group.images):
                oracle = oracle_bounded(rooted, g, z)
                assert np.abs(dense - oracle).max() <= 1e-12
                assert np.abs(
                    materialize(bounded_rep_operator(rooted, g, z)) - oracle
                ).max() <= 1e-12

    def test_rejects_large_z(self):
        rooted = root_at(make_path(2), 0)
        g = tuple(range(2))
        for z in (1.0, -1.0, 0.8 + 0.7j):
            with pytest.raises(ValueError, match=r"\|z\| < 1"):
                bounded_rep_operator(rooted, g, z)

    def test_homomorphism_in_g(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        g, h = all_pairs(group)
        rep = lambda images: dense_bounded_rep(rooted, images, 0.4)
        assert homomorphism_residual(rep, g, h).max() <= 1e-12


class TestUnitaryFamily:
    def test_p2_closed_form(self):
        rooted = root_at(make_path(2), 0)
        g = verify_automorphism(rooted.tree, [1, 0])
        for t in (0.25, 0.5, 0.9):
            s = math.sqrt(1 - t * t)
            out0 = unitary_rep_operator(rooted, g, t) @ np.eye(2)[:, [0]]
            assert abs(out0[0, 0] - t) <= 1e-15
            assert abs(out0[1, 0] - s) <= 1e-15
            out1 = unitary_rep_operator(rooted, g, t) @ np.eye(2)[:, [1]]
            assert abs(out1[0, 0] - s) <= 1e-15
            assert abs(out1[1, 0] + t) <= 1e-15

    def test_unitary_on_grid(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for t in T_GRID:
            for rep in dense_unitary_rep(rooted, group.images, t):
                assert np.abs(rep.conj().T @ rep - np.eye(4)).max() <= 1e-11

    def test_dense_and_applier_match_oracle(self, random14_rooted):
        rooted, group = random14_rooted
        moved = displacement(rooted, group.images) > 0
        assert moved.tolist() == [False, False, True, True]
        for t in (0.0, 0.5, 0.9):
            stack = dense_unitary_rep(rooted, group.images, t)
            for dense, g in zip(stack, group.images):
                oracle = oracle_unitary(rooted, g, t)
                assert np.abs(dense - oracle).max() <= 1e-12
                assert np.abs(
                    materialize(unitary_rep_operator(rooted, g, t)) - oracle
                ).max() <= 1e-12

    def test_dense_matches_applier(self, star4_leaf_rooted):
        # up to t = 0.999: origin_sphere_residual reads the dense members only,
        # so they stand in for the applier there
        rooted, images = star4_leaf_rooted[0], star4_leaf_rooted[1].images
        for t in T_GRID + (0.7, 0.999):
            for dense, g in zip(dense_unitary_rep(rooted, images, t), images):
                sparse = materialize(unitary_rep_operator(rooted, g, t))
                assert np.abs(dense - sparse).max() <= 1e-13

    def test_parameter_range(self):
        rooted = root_at(make_path(2), 0)
        g = tuple(range(2))
        for t in (1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                unitary_rep_operator(rooted, g, t)

    @pytest.mark.parametrize(
        "spec, origin",
        [("star:4", 0), ("star:4", 1), ("random:5,3", 0), ("random:5,3", 4),
         ("random:14,4", 9)],
    )
    def test_member_equals_pi0_off_the_geodesic_columns(self, spec, origin):
        # member - pi0(g) is exactly 0 in every column j whose image g(j)
        # is off the geodesic from the origin o to g(o); when g fixes o the
        # member is pi0(g) bit for bit
        tree = tree_from_spec(spec)
        rooted, images = root_at(tree, origin), full_automorphism_group(tree).images
        dist = tree.distance_matrix()
        for t in T_GRID + (0.999,):
            stack = dense_unitary_rep(rooted, images, t)
            for member, pi0, g in zip(stack, dense_pi0(tree.n, images), images):
                if g[origin] == origin:
                    assert member.dtype == pi0.dtype
                    assert member.tobytes() == pi0.tobytes()
                on_geodesic = dist[origin, g] + dist[g, g[origin]] == dist[origin, g[origin]]
                assert not (member - pi0)[:, ~on_geodesic].any()

    def test_conjugation_equivalence(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        swap = group.images[1:2]
        member = dense_unitary_rep(rooted, swap, 0.0)
        assert conjugation_equivalence_residual(rooted, swap, 0.0, member) == 0.0
        for t in (0.3, 0.5, 0.9):
            member = dense_unitary_rep(rooted, group.images, t)
            gaps = conjugation_equivalence_residual(rooted, group.images, t, member)
            assert gaps.max() <= 1e-12
            # the member is compared as given: a wrong one shows
            wrong = conjugation_equivalence_residual(rooted, group.images, t, -member)
            assert (wrong > 1.0).all()

    def test_homomorphism_in_g(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        g, h = all_pairs(group)
        rep = lambda images: dense_unitary_rep(rooted, images, 0.7)
        assert homomorphism_residual(rep, g, h).max() <= 1e-11


class TestLimitRep:
    def test_p2_swap_is_diagonal(self):
        rooted = root_at(make_path(2), 0)
        g = block(verify_automorphism(rooted.tree, [1, 0]))
        assert np.abs(dense_limit_rep(rooted, g) - np.diag([1.0, -1.0])).max() == 0.0

    def test_identity_element(self):
        rooted = root_at(make_star(5), 2)
        e = block(tuple(range(5)))
        assert np.abs(dense_limit_rep(rooted, e) - np.eye(5)).max() == 0.0

    def test_origin_always_fixed(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        d_origin = np.eye(rooted.n)[:, [rooted.origin]]
        for g in group.images:
            op = limit_rep_operator(rooted, g)
            assert np.array_equal(op @ d_origin, d_origin)

    def test_unitary_and_homomorphism(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for rep in dense_limit_rep(rooted, group.images):
            assert np.abs(rep.conj().T @ rep - np.eye(4)).max() <= 1e-14
        g, h = all_pairs(group)
        rep = lambda images: dense_limit_rep(rooted, images)
        assert homomorphism_residual(rep, g, h).max() <= 1e-14

    def test_dense_and_applier_match_oracle(self, random14_rooted):
        rooted, group = random14_rooted
        for dense, g in zip(dense_limit_rep(rooted, group.images), group.images):
            oracle = oracle_limit(rooted, g)
            assert np.abs(dense - oracle).max() == 0.0
            assert np.abs(materialize(limit_rep_operator(rooted, g)) - oracle).max() == 0.0

    def test_dense_matches_applier(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for dense, g in zip(dense_limit_rep(rooted, group.images), group.images):
            sparse = materialize(limit_rep_operator(rooted, g))
            assert np.abs(dense - sparse).max() == 0.0


def bounded_defect(rooted, images, z):
    """finite_rank_defect and defect_identity_residual on the multiplicative
    defect of the block's bounded members at z, built and formed once."""
    defect = multiplicative_defect(images, dense_bounded_rep(rooted, images, z))
    return (
        finite_rank_defect(rooted, images, defect),
        defect_identity_residual(rooted, images, z, defect),
    )


def defect_norm(rooted, images, z):
    """Per element, the spectral norm of the multiplicative defect of the
    block's bounded members at z."""
    defect = multiplicative_defect(images, dense_bounded_rep(rooted, images, z))
    return np.linalg.norm(defect, 2, axis=(1, 2))


class TestDefect:
    def test_identity_has_no_defect(self):
        rooted = root_at(make_path(4), 0)
        e = block(tuple(range(4)))
        rep, identity = bounded_defect(rooted, e, 0.5)
        assert rep.rank.tolist() == [0]
        assert rooted.tree.segment([0], e[:, 0]).tolist() == [[True, False, False, False]]
        assert defect_norm(rooted, e, 0.5).tolist() == [0.0]
        assert identity.tolist() == [0.0]

    def test_p3_end_swap(self):
        rooted = root_at(make_path(3), 0)
        g = block(verify_automorphism(rooted.tree, [2, 1, 0]))
        rep, identity = bounded_defect(rooted, g, 0.5)
        assert rep.displacement.tolist() == [2]
        assert rooted.tree.segment([0], g[:, 0]).tolist() == [[True, True, True]]
        assert rep.rank[0] <= 3
        assert defect_norm(rooted, g, 0.5)[0] <= 2 * 0.5 / (1 - 0.5) + 1e-10
        assert identity[0] <= 1e-12

    def test_multiplicative_defect_moves_column_x_to_g_x(self):
        rooted = root_at(make_path(3), 0)
        g = block(verify_automorphism(rooted.tree, [2, 1, 0]))
        member = dense_bounded_rep(rooted, g, 0.5)
        defect = multiplicative_defect(g, member)
        inverse = dense_pi0(3, g).swapaxes(1, 2)
        assert np.array_equal(defect, member @ inverse - np.eye(3))

    def test_locality_off_the_segment(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        images = group.images
        for member in (
            dense_bounded_rep(rooted, images, 0.5),
            dense_unitary_rep(rooted, images, 0.9),
            dense_limit_rep(rooted, images),
        ):
            defect = multiplicative_defect(images, member)
            rep = finite_rank_defect(rooted, images, defect)
            assert (rep.outside_residual <= 1e-12).all()
            segment = rooted.tree.segment([rooted.origin], images[:, rooted.origin])
            assert (rep.rank <= segment.sum(axis=1)).all()
            assert (rep.rank <= rep.displacement + 1).all()

    @pytest.mark.parametrize(
        "spec", ["star:7", "regular:2,3", "random:30,4", "path:12"]
    )
    def test_locality_never_exceeds_the_identity_gap(self, spec):
        # the predicted defect z R(z) (P - P') is exactly 0 off segment x
        # segment, so the identity's gap there is the defect itself
        tree = tree_from_spec(spec)
        images = full_automorphism_group(tree).images
        for rooted in (root_at(tree, 0), root_at(tree, tree.n - 1)):
            for z in (0.5, 0.3 + 0.4j, 0.9):
                for part in element_blocks(len(images), tree.n):
                    rep, identity = bounded_defect(rooted, images[part], z)
                    assert (rep.outside_residual <= identity).all()

    def test_stabilizer_elements_are_defect_free(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        stabilizer = group.images[group.images[:, rooted.origin] == rooted.origin]
        assert len(stabilizer) == 2
        rep, _ = bounded_defect(rooted, stabilizer, 0.9)
        assert (rep.rank == 0).all()
        assert (defect_norm(rooted, stabilizer, 0.9) <= 1e-12).all()

    def test_norm_bound_from_series(self):
        rooted = root_at(make_path(8), 0)
        g = block(verify_automorphism(rooted.tree, list(reversed(range(8)))))
        for z in (0.25, 0.5, 0.9):
            _, identity = bounded_defect(rooted, g, z)
            assert defect_norm(rooted, g, z)[0] <= 2 * z / (1 - z) + 1e-9
            assert identity[0] <= 1e-11

    def test_defect_identity_measures_the_member_given(self, star4_leaf_rooted):
        # a wrong member shows in the identity's gap
        rooted, group = star4_leaf_rooted
        images = group.images
        member = dense_bounded_rep(rooted, images, 0.5)
        right = multiplicative_defect(images, member)
        wrong = multiplicative_defect(images, -member)
        assert (defect_identity_residual(rooted, images, 0.5, right) <= 1e-12).all()
        assert (defect_identity_residual(rooted, images, 0.5, wrong) > 1.0).all()


def bound_certificate(rooted, images, z):
    """The bound 1 + 2|z|/(1 - |z|) and the per-element norms of the bounded
    members of the image rows at z, each element block built once."""
    norms = [
        uniform_bound_certificate(z, dense_bounded_rep(rooted, images[part], z))
        for part in element_blocks(len(images), rooted.n)
    ]
    return 1 + 2 * abs(z) / (1 - abs(z)), np.concatenate(norms)


class TestUniformBound:
    def test_z_zero(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        bound, norms = bound_certificate(rooted, group.images, 0.0)
        assert bound == 1.0
        assert norms.max() == pytest.approx(1.0, abs=1e-10)
        assert norms.max() <= bound + 1e-8

    def test_z_half_bound_three(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        bound, norms = bound_certificate(rooted, group.images, 0.5)
        assert bound == pytest.approx(3.0)
        assert norms.max() <= 3.0 + 1e-8
        assert norms.max() <= bound + 1e-8

    def test_norms_grow_with_displacement(self):
        rooted = root_at(make_path(6), 0)
        group = full_automorphism_group(rooted.tree)
        bound, norms = bound_certificate(rooted, group.images, 0.9)
        assert norms.max() <= bound + 1e-8
        assert norms.max() > 1.5  # the reversal genuinely deforms the action
        assert displacement(rooted, group.images)[norms.argmax()] == 5

    def test_one_norm_per_member_of_the_stack_given(self, star4_leaf_rooted):
        # the certificate reads the stack the caller built and builds none
        rooted, group = star4_leaf_rooted
        member = dense_bounded_rep(rooted, group.images, 0.3 + 0.4j)
        norms = uniform_bound_certificate(0.3 + 0.4j, member)
        assert np.array_equal(norms, operator_norm(member))
        assert norms.shape == (len(group),)
        with pytest.raises(ValueError, match=r"\|z\| < 1"):
            uniform_bound_certificate(1.0, member)

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
        bound, norms = bound_certificate(leaf_rooted, closure.images, 0.9)
        assert bound == pytest.approx(19.0)
        assert norms.max() <= bound + 1e-8


class TestHomotopy:
    def test_p2_closed_form_curve(self):
        rooted = root_at(make_path(2), 0)
        g = block(verify_automorphism(rooted.tree, [1, 0]))
        grid = (0.9, 0.99, 0.999)
        to_limit = homotopy_curve(rooted, g, grid)[0, 0]
        for t, dist in zip(grid, to_limit):
            assert dist == pytest.approx(math.sqrt(2 * (1 - t)), abs=1e-10)

    def test_t_zero_row(self):
        rooted = root_at(make_path(4), 0)
        g = block(verify_automorphism(rooted.tree, [3, 2, 1, 0]))
        (to_pi0,) = homotopy_curve(rooted, g, (0.0,))[1, 0]
        assert to_pi0 <= 1e-15

    def test_identity_curve_is_zero(self):
        rooted = root_at(make_star(4), 1)
        e = block(tuple(range(4)))
        curve = homotopy_curve(rooted, e, (0.0, 0.5, 0.9, 1.0))
        assert curve.shape == (2, 1, 4)
        assert (curve <= 1e-14).all()

    def test_grid_value_one_means_limit(self):
        rooted = root_at(make_path(3), 0)
        g = block(verify_automorphism(rooted.tree, [2, 1, 0]))
        (to_limit,) = homotopy_curve(rooted, g, (1.0,))[0, 0]
        assert to_limit == 0.0

    def test_monotone_approach(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        curves = homotopy_curve(rooted, group.images, (0.9, 0.99, 0.999))[0]
        for values, d in zip(curves, displacement(rooted, group.images)):
            if d == 0:
                assert max(values) <= 1e-12
            else:
                assert values[0] > values[1] > values[2]

    def test_csv_format(self):
        rooted = root_at(make_path(2), 0)
        g = block(verify_automorphism(rooted.tree, [1, 0]))
        text = curve_to_csv((0.9,), homotopy_curve(rooted, g, (0.9,))[:, 0])
        lines = text.splitlines()
        assert lines[0] == "t,dist_to_limit,dist_to_pi0"
        t, dist, _ = lines[1].split(",")
        assert float(t) == 0.9
        assert float(dist) == pytest.approx(math.sqrt(0.2), abs=1e-12)


class TestOriginSphere:
    def test_unit_norm_preserved(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for t in T_GRID + (0.999,):
            member = dense_unitary_rep(rooted, group.images, t)
            residual = origin_sphere_residual(rooted, member)
            assert residual.shape == (len(group),)
            assert (residual <= 1e-13).all()

    def test_closed_form_of_origin_image_norm(self):
        # norm^2 = t^(2d) + (1-t^2) * sum_k t^(2k) telescopes to one
        rooted = root_at(make_path(5), 0)
        g = verify_automorphism(rooted.tree, [4, 3, 2, 1, 0])
        (d,) = displacement(rooted, block(g))
        for t in (0.3, 0.9, 0.99):
            v = unitary_rep_operator(rooted, g, t) @ np.eye(rooted.n)[:, [0]]
            norm_sq = np.vdot(v, v).real
            closed = t ** (2 * d) + (1 - t * t) * sum(
                t ** (2 * k) for k in range(d)
            )
            assert norm_sq == pytest.approx(closed, abs=1e-14)
            assert closed == pytest.approx(1.0, abs=1e-14)


class TestEndpoints:
    def test_start_endpoint_exact(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        pi0 = dense_pi0(4, group.images)
        gap = dense_unitary_rep(rooted, group.images, 0.0) - pi0
        assert np.abs(gap).max() == 0.0
        for action, g in zip(pi0, group.images):
            sparse = materialize(unitary_rep_operator(rooted, g, 0.0))
            assert np.abs(sparse - action).max() == 0.0

    def test_limit_endpoint_agrees_between_routes(self, star4_leaf_rooted):
        rooted, group = star4_leaf_rooted
        for dense, g in zip(dense_limit_rep(rooted, group.images), group.images):
            sparse = materialize(limit_rep_operator(rooted, g))
            assert np.abs(dense - sparse).max() <= 1e-14


class TestGridSteps:
    @pytest.mark.parametrize("n", [12, 16, 40])
    def test_steps_stay_within_the_derived_bound(self, n):
        # the worst ratio grows with the path toward 0.9 but stays below 1;
        # a fixed Lipschitz constant of 10 is exceeded already on path:12
        tree = make_path(n)
        reflection = verify_automorphism(tree, list(range(n))[::-1])
        member_norm = 1.0 + TOLERANCES["unitarity"]
        worst = 0.0
        for rooted in (root_at(tree, 0), root_at(tree, n - 1)):
            bounds = [
                unitary_step_bound(rooted, a, b, member_norm)
                for a, b in zip(DEFAULT_T_GRID, DEFAULT_T_GRID[1:])
            ]
            assert all(0.0 < bound <= 2.0 * member_norm for bound in bounds)
            images = close_group(tree, [reflection]).images
            members = [dense_unitary_rep(rooted, images, t) for t in DEFAULT_T_GRID]
            for i, bound in enumerate(bounds):
                steps = np.linalg.norm(members[i + 1] - members[i], 2, axis=(1, 2))
                worst = max(worst, steps.max() / bound)
        assert 0.85 < worst <= 1.0

    def test_bound_matches_its_formula(self):
        rooted = root_at(make_random(12, 3), 5)
        member_norm = 1.0 + TOLERANCES["unitarity"]
        eye = np.eye(rooted.n)
        for a, b in ((0.0, 0.1), (0.4, 0.5), (0.9, 0.99), (0.5, 0.2)):
            t_a, t_b = oracle_deformation(rooted, a), oracle_deformation(rooted, b)
            u, u_inv = np.linalg.solve(t_a, t_b), np.linalg.solve(t_b, t_a)
            norm = lambda m: np.linalg.norm(m, 2)
            expected = 2 * member_norm * min(
                norm(u_inv) * norm(u - eye), norm(u) * norm(u_inv - eye), 1.0
            )
            bound = unitary_step_bound(rooted, a, b, member_norm)
            assert bound == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("spec", ["random:30,4", "path:40", "regular:2,3"])
    def test_the_norms_of_u_and_its_inverse_do_not_depend_on_the_origin(self, spec):
        # ||U||^2 and ||U^-1||^2, U = T_a^-1 T_b, are the top eigenvalues of
        # K_a^-1 K_b and K_b^-1 K_a, with K_t = T_t T_t* = 1 - tS + t^2 Q the
        # tree's alone; equal only to rounding, so each origin takes its own
        tree = tree_from_spec(spec)
        steps = list(zip(DEFAULT_T_GRID, DEFAULT_T_GRID[1:]))
        norms = []
        for origin in (0, tree.n // 2, tree.n - 1):
            rooted = root_at(tree, origin)
            norms.append([[operator_norm(deformation_inverse(rooted, x).compose(
                deformation_operator(rooted, y))) for x, y in ((a, b), (b, a))]
                for a, b in steps])
        assert np.allclose(norms[1:], norms[0], rtol=1e-14, atol=0.0)

    def test_each_origin_computes_the_four_norm_bound_on_its_own_matrices(self):
        tree = make_random(30, 4)
        member_norm = 1.0 + TOLERANCES["unitarity"]
        eye = np.eye(tree.n)
        for origin in origin_pair(tree):
            rooted = root_at(tree, origin)
            for a, b in zip(DEFAULT_T_GRID, DEFAULT_T_GRID[1:]):
                memo = lambda make, t: reps._dense_context(rooted, make, t)
                u = memo(deformation_inverse, a) @ memo(deformation_operator, b)
                u_inv = memo(deformation_inverse, b) @ memo(deformation_operator, a)
                expected = 2.0 * member_norm * min(
                    operator_norm(u - eye) * operator_norm(u_inv),
                    operator_norm(u) * operator_norm(u_inv - eye),
                    1.0,
                )
                assert unitary_step_bound(rooted, a, b, member_norm) == expected


@pytest.mark.parametrize("spec", [
    "path:1", "path:2", "path:12", "path:200", "star:7", "regular:2,3",
    "random:30,4", "random:100,4", "random:200,1",
])
def test_the_memoized_inverse_is_materialize_s_bit_for_bit(spec):
    # built on the memoized R(t) with the factor applied after it; the bytes
    # compare every entry, the sign of each zero included
    tree = tree_from_spec(spec)
    for origin in origin_pair(tree):
        rooted = root_at(tree, origin)
        for t in (*DEFAULT_T_GRID, 0.999):
            memo = reps._dense_context(rooted, deformation_inverse, t)
            direct = materialize(deformation_inverse(rooted, t))
            assert memo.dtype == direct.dtype and memo.tobytes() == direct.tobytes()


@pytest.mark.parametrize("spec", ["path:12", "star:5", "random:30,4", "regular:2,2"])
def test_the_swept_and_derived_matrices_are_materialize_s_bit_for_bit(spec):
    # R(t) at every t from one sweep of a stacked identity block, T_t and
    # T_t^-1 read off 1 - tP and R(t) with the origin's column and row
    tree = tree_from_spec(spec)
    ts = (*DEFAULT_T_GRID, 0.999)
    for origin in origin_pair(tree):
        rooted = root_at(tree, origin)
        reps._dense_context.sweep(rooted, ts)
        for t in ts:
            for make in (resolvent_operator, deformation_operator, deformation_inverse):
                memo = reps._dense_context(rooted, make, t)
                direct = materialize(make(rooted, t))
                assert memo.dtype == direct.dtype == np.float64
                assert memo.tobytes() == direct.tobytes(), (origin, t, make)
                assert not memo.flags.writeable
