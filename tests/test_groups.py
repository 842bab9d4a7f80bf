import itertools
import time

import numpy as np
import pytest

from treelab.groups import (
    Automorphism,
    _centre_generators,
    close_group,
    full_automorphism_group,
    identity_automorphism,
    parse_automorphisms,
    pi0_operator,
    pi1_operator,
    serialize_automorphisms,
    verify_automorphism,
)
from treelab.operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    materialize,
    parent_edge_operator,
)
from treelab.trees import (
    make_path,
    make_random,
    make_regular,
    make_star,
    root_at,
    tree_from_spec,
)


def brute_force_group(tree):
    """Oracle: filter all permutations for edge preservation."""
    out = []
    for images in itertools.permutations(range(tree.n)):
        if all(tree.has_edge(images[u], images[v]) for u, v in tree.edges):
            out.append(images)
    return sorted(out)


class TestVerify:
    def test_path_end_swap(self):
        g = verify_automorphism(make_path(3), [2, 1, 0])
        assert g(0) == 2

    def test_identity(self):
        verify_automorphism(make_path(3), [0, 1, 2])

    def test_edge_violation_named(self):
        with pytest.raises(ValueError, match=r"\{1, 2\} maps to \{0, 2\}"):
            verify_automorphism(make_path(3), [1, 0, 2])

    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            verify_automorphism(make_path(3), [0, 0, 1])

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 images"):
            verify_automorphism(make_path(3), [0, 1])


class TestAutomorphismAlgebra:
    def test_compose_and_inverse(self):
        g = Automorphism((1, 2, 3, 0))
        h = Automorphism((0, 2, 1, 3))
        gh = g.compose(h)
        assert gh.images == tuple(g(h(x)) for x in range(4))
        assert g.compose(g.inverse()) == identity_automorphism(4)
        assert g.inverse().compose(g) == identity_automorphism(4)

    def test_identity_flag(self):
        assert identity_automorphism(3).is_identity
        assert not Automorphism((1, 0, 2)).is_identity


class TestClosure:
    def test_path_reflection(self):
        tree = make_path(3)
        closure = close_group(tree, [[2, 1, 0]])
        assert len(closure) == 2
        assert closure.complete

    def test_star_transpositions_generate_symmetric_group(self):
        tree = make_star(4)
        closure = close_group(tree, [[0, 2, 1, 3], [0, 1, 3, 2]])
        assert len(closure) == 6
        assert {g.images for g in closure} == set(brute_force_group(tree))

    def test_empty_generators(self):
        closure = close_group(make_path(3), [])
        assert len(closure) == 1
        assert closure[0].is_identity

    def test_cap_flags_incomplete(self):
        closure = close_group(make_star(4), [[0, 2, 1, 3], [0, 1, 3, 2]], cap=3)
        assert not closure.complete
        assert len(closure) == 3

    def test_cap_keeps_the_discovery_order(self):
        # a capped closure holds the first cap elements that a one-product-
        # at-a-time breadth-first search finds, taking products g h in
        # (frontier element g, generator h) order
        tree = make_star(5)
        gens = [Automorphism((0, 2, 1, 3, 4)), Automorphism((0, 2, 3, 4, 1))]
        found = frontier = [identity_automorphism(5)]
        while frontier:
            fresh = []
            for gh in (g.compose(h) for g in frontier for h in gens):
                if gh not in found and gh not in fresh:
                    fresh.append(gh)
            found, frontier = found + fresh, fresh
        assert len(found) == 24
        for cap in range(1, 26):
            closure = close_group(tree, gens, cap=cap)
            assert closure.complete == (cap >= 24)
            assert set(closure) == set(found[:cap])

    def test_sorted_with_identity_first(self):
        closure = close_group(make_star(4), [[0, 2, 3, 1]])
        assert closure[0].is_identity
        assert list(closure.elements) == sorted(closure.elements, key=lambda g: g.images)
        # the same elements as one read-only block of image arrays
        assert closure.images.tolist() == [list(g.images) for g in closure]
        assert not closure.images.flags.writeable

    def test_generator_indices(self):
        gen = [0, 2, 3, 1]
        closure = close_group(make_star(4), [gen])
        for i in closure.generator_indices:
            assert closure[i].images == tuple(gen)

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError):
            close_group(make_path(3), [[1, 0, 2]])


class TestFullGroup:
    @pytest.mark.parametrize(
        "tree,expected",
        [
            (make_path(2), 2),
            (make_path(3), 2),
            (make_star(4), 6),
            (make_regular(2, 2), 48),
            (make_regular(2, 3), 3072),
        ],
    )
    def test_known_orders(self, tree, expected):
        assert len(full_automorphism_group(tree)) == expected

    def test_against_brute_force_oracle(self):
        trees = [make_path(4), make_star(5), make_random(6, seed=0),
                 make_random(7, seed=4)]
        for tree in trees:
            found = [g.images for g in full_automorphism_group(tree)]
            assert found == brute_force_group(tree)

    @pytest.mark.parametrize(
        "spec",
        [f"{family}:{n}" for family in ("path", "star") for n in range(1, 9)]
        + [f"random:{n},{s}" for n in range(2, 9) for s in range(1, 31)],
    )
    def test_equals_the_oracle_and_the_counted_order(self, spec):
        # the even paths are bicentral with equal halves; random trees add
        # bicentral ones with unequal halves
        tree = tree_from_spec(spec)
        group = full_automorphism_group(tree)
        assert [g.images for g in group] == brute_force_group(tree)
        assert len(group) == _centre_generators(tree)[1]

    def test_refused_before_enumerating(self):
        # star:13 has 12! automorphisms; the order is counted, not searched
        start = time.perf_counter()
        with pytest.raises(ValueError, match="479001600 elements, which exceeds"):
            full_automorphism_group(make_star(13))
        assert time.perf_counter() - start < 1.0

    def test_deep_path(self):
        assert len(full_automorphism_group(make_path(1200))) == 2

    def test_group_size_cap(self):
        # star:9 has 8! = 40320 automorphisms, over the default cap
        with pytest.raises(ValueError, match="exceeds"):
            full_automorphism_group(make_star(9))

    def test_closed_under_composition(self):
        group = full_automorphism_group(make_star(4))
        elements = set(group.elements)
        for g in group:
            assert g.inverse() in elements
            for h in group:
                assert g.compose(h) in elements


class TestAutomorphismFiles:
    def test_round_trip(self):
        tree = make_star(4)
        autos = list(full_automorphism_group(tree))
        text = serialize_automorphisms(autos)
        assert parse_automorphisms(tree, text) == autos

    def test_comments_and_errors(self):
        tree = make_path(3)
        assert parse_automorphisms(tree, "# nothing\n2 1 0\n") == [
            Automorphism((2, 1, 0))
        ]
        with pytest.raises(ValueError, match="line 2"):
            parse_automorphisms(tree, "2 1 0\n1 0 2\n")


class TestVertexAction:
    def test_swap_on_p2(self):
        tree = make_path(2)
        g = verify_automorphism(tree, [1, 0])
        image = pi0_operator(tree, g) @ np.eye(2)[:, [0]]
        assert np.array_equal(image, np.eye(2)[:, [1]])

    def test_identity_action(self):
        tree = make_path(3)
        v = np.array([[1j], [0], [-2]])
        assert np.array_equal(pi0_operator(tree, identity_automorphism(3)) @ v, v)

    def test_norm_preserved(self):
        tree = make_star(4)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        for g in full_automorphism_group(tree):
            image = pi0_operator(tree, g) @ v
            assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(v), rel=1e-15)

    def test_unitary_and_homomorphism_dense(self):
        tree = make_star(4)
        group = full_automorphism_group(tree)
        mats = {g: materialize(pi0_operator(tree, g)) for g in group}
        for g in group:
            assert np.abs(mats[g].conj().T @ mats[g] - np.eye(4)).max() == 0.0
            for h in group:
                assert np.abs(mats[g.compose(h)] - mats[g] @ mats[h]).max() == 0.0


def signed_edge(tree, x, y):
    """The signed class of the oriented edge (x, y) as an edge column: +1
    at the edge's index when x < y (its canonical orientation), else -1."""
    column = np.zeros((tree.edge_count, 1))
    column[tree.edge_index[min(x, y), max(x, y)]] = 1.0 if x < y else -1.0
    return column


class TestEdgeAction:
    def test_swap_on_p2_picks_up_sign(self):
        tree = make_path(2)
        g = verify_automorphism(tree, [1, 0])
        out = pi1_operator(tree, g) @ np.array([[1.0]])
        assert np.array_equal(out, [[-1.0]])

    def test_identity(self):
        tree = make_path(3)
        w = np.array([[1j], [2]])
        assert np.array_equal(pi1_operator(tree, identity_automorphism(3)) @ w, w)

    def test_matches_delta_edge_transport(self):
        tree = make_random(12, seed=6)
        for g in full_automorphism_group(tree):
            for u, v in tree.edges:
                image = pi1_operator(tree, g) @ signed_edge(tree, u, v)
                assert np.array_equal(image, signed_edge(tree, g(u), g(v)))

    def test_unitary_and_homomorphism_dense(self):
        tree = make_star(5)
        group = full_automorphism_group(tree)
        m = tree.edge_count
        mats = {g: materialize(pi1_operator(tree, g)) for g in group}
        for g in group:
            assert np.abs(mats[g].conj().T @ mats[g] - np.eye(m)).max() == 0.0
        for g in list(group)[:6]:
            for h in list(group)[:6]:
                assert np.abs(mats[g.compose(h)] - mats[g] @ mats[h]).max() == 0.0


class TestIntertwining:
    def test_coboundary_equivariance(self):
        tree = make_random(10, seed=12)
        b = materialize(coboundary_operator(tree))
        for g in full_automorphism_group(tree):
            pi0 = materialize(pi0_operator(tree, g))
            pi1 = materialize(pi1_operator(tree, g))
            assert np.abs(b @ pi1 - pi0 @ b).max() == 0.0

    def test_tree_operators_commute_with_vertex_action(self):
        tree = make_star(5)
        s = materialize(adjacency_operator(tree))
        q = materialize(branching_operator(tree))
        for g in full_automorphism_group(tree):
            pi0 = materialize(pi0_operator(tree, g))
            assert np.abs(s @ pi0 - pi0 @ s).max() == 0.0
            assert np.abs(q @ pi0 - pi0 @ q).max() == 0.0

    def test_parent_edge_map_is_not_equivariant(self):
        # the vertex-to-edge map depends on the origin, so it must not
        # intertwine the two actions; guard against a false simplification
        tree = make_path(2)
        rooted = root_at(tree, 0)
        g = verify_automorphism(tree, [1, 0])
        f = materialize(parent_edge_operator(rooted))
        pi0 = materialize(pi0_operator(tree, g))
        pi1 = materialize(pi1_operator(tree, g))
        assert np.abs(f @ pi0 - pi1 @ f).max() > 0.5
