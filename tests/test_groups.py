import itertools
import math
import time

import numpy as np
import pytest

from treelab import groups
from treelab.groups import (
    Automorphism,
    automorphism_generators,
    close_group,
    full_automorphism_group,
    orbit_transversal,
    parse_automorphisms,
    pi0_operator,
    pi1_operator,
    stabilizer,
    stabilizer_chain,
    verify_automorphism,
)
from treelab.kernels import cocycle_equivariance_residual
from treelab.operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    materialize,
    parent_edge_operator,
)
from treelab.reps import unitary_rep_operator
from treelab.trees import (
    make_path,
    make_random,
    make_regular,
    make_star,
    root_at,
    tree_from_spec,
)

from conftest import perfbench_workloads


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
        assert g == (2, 1, 0) and all(type(x) is int for x in g)

    def test_numpy_integer_row(self):
        g = verify_automorphism(make_path(3), np.array([2, 1, 0], dtype=np.int32))
        assert g == (2, 1, 0) and all(type(x) is int for x in g)

    def test_non_integer_images_refused(self):
        # a float row would truncate to the reflection (3, 2, 1, 0)
        with pytest.raises(ValueError, match="not integers"):
            verify_automorphism(make_path(4), [3.9, 2.2, 1.7, 0.5])
        with pytest.raises(ValueError, match="not integers"):
            close_group(make_path(4), [[3.9, 2.2, 1.7, 0.5]])

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
        assert gh.images == tuple(g.images[h.images[x]] for x in range(4))
        assert g.compose(g.inverse()) == Automorphism((0, 1, 2, 3))
        assert g.inverse().compose(g) == Automorphism((0, 1, 2, 3))


class TestClosure:
    def test_path_reflection(self):
        tree = make_path(3)
        assert close_group(tree, [[2, 1, 0]]).tolist() == [[0, 1, 2], [2, 1, 0]]

    def test_star_transpositions_generate_symmetric_group(self):
        tree = make_star(4)
        closure = close_group(tree, [[0, 2, 1, 3], [0, 1, 3, 2]])
        assert len(closure) == 6
        assert sorted(map(tuple, closure.tolist())) == brute_force_group(tree)

    def test_empty_generators(self):
        closure = close_group(make_path(3), [])
        assert closure.tolist() == [[0, 1, 2]]

    def test_cap_refuses_a_larger_group(self, monkeypatch):
        # the chain counts the group before any element is built; the cap is
        # read at call time
        gens = [[0, 2, 1, 3], [0, 1, 3, 2]]
        monkeypatch.setattr(groups, "DEFAULT_GROUP_CAP", 5)
        with pytest.raises(ValueError, match="group has 6 elements, which exceeds "
                                             "the cap of 5"):
            close_group(make_star(4), gens)
        monkeypatch.setattr(groups, "DEFAULT_GROUP_CAP", 6)
        assert len(close_group(make_star(4), gens)) == 6

    def test_sorted_with_identity_first(self):
        closure = close_group(make_star(4), [[0, 2, 3, 1]])
        assert closure.tolist() == [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
        assert closure.dtype == np.intp
        assert not closure.flags.writeable

    def test_invalid_generator_rejected(self):
        with pytest.raises(ValueError):
            close_group(make_path(3), [[1, 0, 2]])


def plain_closure(generators, n):
    """Oracle: the set of image tuples that the generators reach from the
    identity, one product at a time (inverses are positive powers)."""
    found, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        fresh = {tuple(g[x] for x in h) for g in frontier for h in generators} - found
        found |= fresh
        frontier = list(fresh)
    return found


class TestStabilizerChain:
    @pytest.mark.parametrize("spec", ["star:6", "regular:2,2", "random:30,4"])
    def test_orders_of_generator_subsets_equal_a_plain_closure(self, spec):
        # seeded subsets of the full group's elements, as generators: the
        # chain's order and close_group's block against a set of tuples
        tree = tree_from_spec(spec)
        group = full_automorphism_group(tree)
        rng = np.random.default_rng(7)
        for size in (1, 1, 2, 2, 3):
            generators = group[rng.choice(len(group), size=size)]
            closed = plain_closure(generators.tolist(), tree.n)
            chain = stabilizer_chain(generators)
            assert math.prod(map(len, chain)) == len(closed)
            assert close_group(tree, generators).tolist() == sorted(map(list, closed))

    @pytest.mark.parametrize("spec", ["regular:2,4", "regular:3,3", "random:300,1",
                                      "star:13"])
    def test_orders_equal_the_counted_canonical_forms(self, spec):
        # perfbench counts Aut(T) by canonical forms, independently of treelab
        tree = tree_from_spec(spec)
        chain = stabilizer_chain(automorphism_generators(tree))
        order = perfbench_workloads().automorphism_order(tree.n, tree.edges)
        assert math.prod(map(len, chain)) == order > 20000

    def test_each_level_fixes_the_earlier_base_points(self):
        # the base points rise, and every row of a transversal fixes the
        # points below its base, so the products are distinct elements
        chain = stabilizer_chain(automorphism_generators(make_regular(2, 3)))
        bases = [int(np.flatnonzero((rows != np.arange(22)).any(axis=0))[0])
                 for rows in chain]
        assert bases == sorted(set(bases))
        for base, rows in zip(bases, chain):
            assert (rows[:, :base] == np.arange(base)).all()
            assert rows[0].tolist() == list(range(22))

    def test_schreier_generators_fix_the_point(self):
        # stabilizer's rows: regular:2,3's centre, an inner vertex and a leaf,
        # and regular:2,5's leaf 93, whose 2016 Schreier rows filter to 42
        for spec, o in [("regular:2,3", 0), ("regular:2,3", 5), ("regular:2,3", 21),
                        ("regular:2,5", 93)]:
            tree = tree_from_spec(spec)
            generators = automorphism_generators(tree)
            rows, w = stabilizer(generators, o)
            assert np.array_equal(rows, orbit_transversal(generators, o))
            assert len(w) and (w[:, o] == o).all()
            moved = w != np.arange(tree.n)
            assert moved.any(axis=1).all()
            # Sims's filter keeps at most one row per (first moved point, image)
            first = moved.argmax(axis=1)
            pairs = set(zip(first.tolist(), w[np.arange(len(w)), first].tolist()))
            assert len(pairs) == len(w)
            # they generate Stab(o): |G| = |G o| |Stab(o)|, |G| counted by perfbench
            order = perfbench_workloads().automorphism_order(tree.n, tree.edges)
            assert math.prod(map(len, stabilizer_chain(w))) * len(rows) == order

    def test_a_stabilizer_without_generators_is_an_intp_block(self):
        # path:200's reflection moves 0 to 199 and back: Stab(0) is trivial
        generators = automorphism_generators(make_path(200))
        rows, w = stabilizer(generators, 0)
        assert rows[:, 0].tolist() == [0, 199]
        assert w.shape == (0, 200) and w.dtype == np.intp


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
            found = full_automorphism_group(tree).tolist()
            assert found == [list(g) for g in brute_force_group(tree)]

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
        oracle = brute_force_group(tree)
        assert group.tolist() == [list(g) for g in oracle]
        chain = stabilizer_chain(automorphism_generators(tree))
        assert math.prod(map(len, chain)) == len(oracle)

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
        elements = set(map(tuple, group.tolist()))
        for g in group:
            assert tuple(np.argsort(g).tolist()) in elements
            for h in group:
                assert tuple(g[h].tolist()) in elements


class TestAutomorphismFiles:
    def test_round_trip(self):
        tree = make_star(4)
        images = full_automorphism_group(tree)
        text = "\n".join(" ".join(map(str, row)) for row in images.tolist()) + "\n"
        parsed = parse_automorphisms(tree, text)
        assert parsed.dtype == np.intp and np.array_equal(parsed, images)

    def test_comments_and_errors(self):
        tree = make_path(3)
        assert parse_automorphisms(tree, "# nothing\n2 1 0\n").tolist() == [[2, 1, 0]]
        assert parse_automorphisms(tree, "# nothing\n").shape == (0, 3)
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
        assert np.array_equal(pi0_operator(tree, [0, 1, 2]) @ v, v)

    def test_norm_preserved(self):
        tree = make_star(4)
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        for g in full_automorphism_group(tree):
            image = pi0_operator(tree, g) @ v
            assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(v), rel=1e-15)

    def test_unitary_and_homomorphism_dense(self):
        tree = make_star(4)
        images = full_automorphism_group(tree)
        mats = {tuple(g): materialize(pi0_operator(tree, g)) for g in images.tolist()}
        for g in images:
            mg = mats[tuple(g.tolist())]
            assert np.abs(mg.conj().T @ mg - np.eye(4)).max() == 0.0
            for h in images:
                gh = mats[tuple(g[h].tolist())]
                assert np.abs(gh - mg @ mats[tuple(h.tolist())]).max() == 0.0


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
        assert np.array_equal(pi1_operator(tree, [0, 1, 2]) @ w, w)

    def test_matches_delta_edge_transport(self):
        tree = make_random(12, seed=6)
        for g in full_automorphism_group(tree):
            for u, v in tree.edges:
                image = pi1_operator(tree, g) @ signed_edge(tree, u, v)
                assert np.array_equal(image, signed_edge(tree, g[u], g[v]))

    def test_unitary_and_homomorphism_dense(self):
        # pi1(gh) = pi1(g) pi1(h) on every pair of G x G: the premise that
        # carries cocycle-equivariance from the generators to the group
        for tree in (make_star(5), make_regular(2, 2)):
            images = full_automorphism_group(tree)
            position = {row: i for i, row in enumerate(map(tuple, images.tolist()))}
            mats = np.array([materialize(pi1_operator(tree, g)) for g in images])
            eye = np.eye(tree.edge_count)
            assert (np.abs(mats.swapaxes(1, 2) @ mats - eye) == 0.0).all()
            # products[i, j] is images[i] after images[j]
            products = images[:, images].tolist()
            gh = np.array([[position[tuple(row)] for row in rows] for rows in products])
            assert np.array_equal(mats[:, None] @ mats[None], mats[gh])


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


@pytest.mark.parametrize("row", [[0, 0, 1, 2], [1, 0, 2, 3]],
                         ids=["not-a-permutation", "not-an-automorphism"])
@pytest.mark.parametrize("build", [
    pi0_operator,
    pi1_operator,
    lambda tree, g: unitary_rep_operator(root_at(tree, 0), g, 0.5),
    lambda tree, g: cocycle_equivariance_residual(tree, [g], [(0, 3), (1, 2)]),
    # a bad row between two automorphisms of the block
    lambda tree, g: cocycle_equivariance_residual(
        tree, [[0, 1, 2, 3], g, [3, 2, 1, 0]], [(0, 3), (1, 2)]),
], ids=["pi0", "pi1", "unitary-rep", "cocycle-equivariance",
        "cocycle-equivariance-mid-block"])
def test_operator_route_refuses_a_row_that_is_not_an_automorphism(build, row):
    # a scatter along a non-permutation would leave rows of its output unwritten
    tree = make_path(4)
    with pytest.raises(ValueError) as rule:
        verify_automorphism(tree, row)
    with pytest.raises(ValueError) as refused:
        build(tree, row)
    assert str(refused.value) == str(rule.value)
