import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treelab.trees import (
    Tree,
    TreeFormatError,
    make_path,
    make_random,
    make_regular,
    make_star,
    parse_tree,
    root_at,
    serialize_tree,
    tree_from_spec,
)


class TestParse:
    def test_smallest_tree(self):
        tree = parse_tree("tree v=2\n0 1")
        assert tree.n == 2
        assert tree.edges == ((0, 1),)

    def test_path3(self):
        tree = parse_tree("tree v=3\n0 1\n1 2")
        assert tree.n == 3
        assert tree.edges == ((0, 1), (1, 2))

    def test_comments_and_blank_lines(self):
        tree = parse_tree("# a comment\n\ntree v=2  # header\n0 1\n")
        assert tree.n == 2

    def test_cycle_detected_with_line_number(self):
        with pytest.raises(TreeFormatError, match="line 4.*cycle"):
            parse_tree("tree v=3\n0 1\n0 2\n1 2")

    def test_bad_header(self):
        with pytest.raises(TreeFormatError, match="line 1.*header"):
            parse_tree("graph v=3\n0 1")

    def test_malformed_edge_line(self):
        with pytest.raises(TreeFormatError, match="line 2"):
            parse_tree("tree v=3\n0 1 2\n1 2")

    def test_non_integer_id(self):
        with pytest.raises(TreeFormatError, match="line 3.*non-integer"):
            parse_tree("tree v=3\n0 1\na 2")

    def test_id_out_of_range(self):
        with pytest.raises(TreeFormatError, match="line 3.*out of range"):
            parse_tree("tree v=3\n0 1\n1 3")

    def test_self_loop(self):
        with pytest.raises(TreeFormatError, match="line 2.*self-loop"):
            parse_tree("tree v=3\n1 1\n1 2")

    def test_duplicate_edge(self):
        with pytest.raises(TreeFormatError, match="line 3.*duplicate"):
            parse_tree("tree v=3\n0 1\n1 0")

    def test_disconnected(self):
        with pytest.raises(TreeFormatError, match="disconnected"):
            parse_tree("tree v=3\n0 1")

    def test_round_trip(self):
        tree = make_random(40, seed=3)
        again = parse_tree(serialize_tree(tree))
        assert again.n == tree.n
        assert again.edges == tree.edges

    def test_serializer_sorted(self):
        tree = Tree(4, [(3, 2), (1, 0), (1, 2)])
        assert serialize_tree(tree) == "tree v=4\n0 1\n1 2\n2 3\n"


class TestRooting:
    def test_path3_rooted_at_0(self):
        rooted = root_at(make_path(3), 0)
        assert rooted.parent == (None, 0, 1)
        assert rooted.depth == (0, 1, 2)

    def test_path3_rooted_at_1(self):
        rooted = root_at(make_path(3), 1)
        assert rooted.parent == (1, None, 1)
        assert rooted.depth == (1, 0, 1)

    def test_star_rooted_at_leaf(self):
        rooted = root_at(make_star(4), 1)
        assert rooted.parent == (1, None, 0, 0)
        assert rooted.depth == (1, 0, 2, 2)

    def test_origin_out_of_range(self):
        with pytest.raises(ValueError):
            root_at(make_path(3), 3)

    def test_parent_is_second_to_last_on_path(self):
        # cross-route: the parent map against the path query
        tree = make_random(60, seed=11)
        rooted = root_at(tree, 7)
        for x in range(tree.n):
            if x == 7:
                continue
            walk = tree.path(7, x)
            assert rooted.parent[x] == walk[-2]
            assert rooted.depth[x] == len(walk) - 1

    def test_path_to_origin(self):
        tree = make_path(4)
        assert tree.path(3, 0) == [3, 2, 1, 0]
        assert tree.path(0, 0) == [0]


class TestQueries:
    def test_path_examples(self):
        tree = make_path(3)
        assert tree.path(0, 2) == [0, 1, 2]
        assert tree.path(1, 1) == [1]
        star = make_star(4)
        assert star.path(1, 2) == [1, 0, 2]

    def test_distance_examples(self):
        tree = make_path(3)
        assert tree.distance(0, 2) == 2
        assert tree.distance(2, 2) == 0
        assert make_star(4).distance(1, 3) == 2

    def test_degree_and_q(self):
        tree = make_path(3)
        assert tree.degree(1) == 2 and tree.q(1) == 1
        star = make_star(4)
        assert star.q(0) == 2
        assert star.q(3) == 0

    def test_distance_additive_along_path(self):
        tree = make_random(50, seed=5)
        for x, y in [(0, 49), (3, 31), (17, 17)]:
            walk = tree.path(x, y)
            for z in walk:
                assert tree.distance(x, y) == tree.distance(x, z) + tree.distance(z, y)

    def test_distance_matrix_matches_paths(self):
        tree = make_random(25, seed=9)
        d = tree.distance_matrix()
        for x in range(tree.n):
            for y in range(tree.n):
                assert d[x, y] == tree.distance(x, y)

    def test_distance_matrix_is_computed_once_and_read_only(self):
        tree = make_random(25, seed=9)
        d = tree.distance_matrix()
        assert tree.distance_matrix() is d
        with pytest.raises(ValueError, match="read-only"):
            d[0, 1] = 0


class TestGenerators:
    def test_path(self):
        tree = make_path(5)
        assert tree.n == 5
        assert all(tree.degree(x) == 2 for x in range(1, 4))
        assert tree.degree(0) == tree.degree(4) == 1

    def test_star(self):
        tree = make_star(6)
        assert tree.degree(0) == 5
        assert all(tree.degree(x) == 1 for x in range(1, 6))

    def test_regular_sizes(self):
        assert make_regular(2, 2).n == 10
        assert make_regular(2, 3).n == 22
        assert make_regular(3, 3).n == 53
        assert make_regular(2, 0).n == 1

    def test_regular_degree_profile(self):
        tree = make_regular(2, 3)
        rooted = root_at(tree, 0)
        for x in range(tree.n):
            expected = 1 if rooted.depth[x] == 3 else 3
            assert tree.degree(x) == expected

    def test_regular_branching_one_is_a_path(self):
        tree = make_regular(1, 3)
        assert tree.n == 7
        assert sorted(tree.degree(x) for x in range(7)) == [1, 1, 2, 2, 2, 2, 2]

    def test_random_deterministic(self):
        assert make_random(30, seed=4).edges == make_random(30, seed=4).edges
        assert make_random(30, seed=4).edges != make_random(30, seed=5).edges

    def test_random_bfs_depth_equals_distance(self):
        for seed in range(5):
            tree = make_random(200, seed=seed)
            rooted = root_at(tree, 0)
            for x in range(0, tree.n, 17):
                assert rooted.depth[x] == tree.distance(0, x)

    def test_spec_strings(self):
        assert tree_from_spec("path:4").n == 4
        assert tree_from_spec("star:4").n == 4
        assert tree_from_spec("regular:2,2").n == 10
        assert tree_from_spec("random:12,3").n == 12

    def test_spec_errors(self):
        for bad in ("ring:4", "path:", "regular:2", "random:5", "path:3,4"):
            with pytest.raises(ValueError):
                tree_from_spec(bad)


class TestConstructorValidation:
    def test_cycle(self):
        with pytest.raises(TreeFormatError, match="cycle"):
            Tree(3, [(0, 1), (1, 2), (2, 0)])

    def test_too_few_edges(self):
        with pytest.raises(TreeFormatError, match="disconnected"):
            Tree(4, [(0, 1), (2, 3)])

    def test_single_vertex(self):
        tree = Tree(1, [])
        assert tree.n == 1 and tree.edges == ()
        assert tree.q(0) == -1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), seed=st.integers(0, 2**31 - 1))
def test_random_tree_file_round_trip(n, seed):
    tree = make_random(n, seed)
    assert tree.edge_count == n - 1
    again = parse_tree(serialize_tree(tree))
    assert again.edges == tree.edges


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), seed=st.integers(0, 2**31 - 1))
def test_random_tree_paths_walk_edges(n, seed):
    tree = make_random(n, seed)
    walk = tree.path(0, n - 1)
    assert walk[0] == 0 and walk[-1] == n - 1
    for u, v in zip(walk, walk[1:]):
        assert tree.has_edge(u, v)
    assert len(set(walk)) == len(walk)


def _bfs_oracle(tree, source):
    """Predecessor and distance maps of a plain BFS from source."""
    prev, dist = {source: source}, {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in tree.adjacency[v]:
                if w not in prev:
                    prev[w], dist[w] = v, dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return prev, dist


_trees = st.one_of(
    st.integers(1, 24).map(make_path),
    st.integers(1, 24).map(make_star),
    st.builds(make_random, st.integers(1, 40), st.integers(0, 2**31 - 1)),
)


@settings(max_examples=60, deadline=None)
@given(tree=_trees)
@example(tree=Tree(1, []))
@example(tree=Tree(2, [(0, 1)]))
@example(tree=Tree(5, [(2, 0), (2, 1), (2, 3), (3, 4)]))
def test_queries_match_plain_bfs(tree):
    d = tree.distance_matrix()
    assert d.shape == (tree.n, tree.n) and d.dtype == np.int64
    for x in range(tree.n):
        prev, dist = _bfs_oracle(tree, x)
        assert root_at(tree, x).children == tuple(
            tuple(y for y in range(tree.n) if y != x and prev[y] == v)
            for v in range(tree.n)
        )
        for y in range(tree.n):
            walk = [y]
            while walk[-1] != x:
                walk.append(prev[walk[-1]])
            assert tree.path(x, y) == walk[::-1]
            assert tree.distance(x, y) == dist[y] == d[x, y]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    tree=_trees,
    raw=st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)), max_size=20),
)
@example(tree=Tree(1, []), raw=[])
def test_segment_is_the_path_vertex_set(tree, raw):
    # the segment read off d against Tree.path's climb, x == y included
    n = tree.n
    pairs = [(x % n, y % n) for x, y in raw] + [(0, 0), (n - 1, n - 1), (0, n - 1)]
    xs, ys = np.array(pairs).T
    mask = tree.segment(xs, ys)
    assert mask.shape == (len(pairs), n) and mask.dtype == bool
    for row, (x, y) in zip(mask, pairs):
        assert set(np.flatnonzero(row)) == set(tree.path(x, y))
    # an id of -1 or n at either end is refused with check_vertex's message
    for out in (-1, n):
        for bad_xs, bad_ys in ((np.append(xs, out), np.append(ys, 0)),
                               (np.append(xs, 0), np.append(ys, out))):
            with pytest.raises(ValueError, match=rf"vertex id {out} out of range"):
                tree.segment(bad_xs, bad_ys)
