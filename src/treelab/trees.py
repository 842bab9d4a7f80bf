"""Finite trees: construction, validation, rooting, path queries, and file I/O.

A tree is stored with dense vertex ids 0..N-1. Every edge has a canonical
orientation (min id, max id); the canonical edge list is sorted
lexicographically and indexed, and every sign convention downstream refers
to that orientation. Trees and rooted trees are not changed after
construction. Each caches, on first use and without a lock, the index
arrays that the operator appliers gather and scatter along; evaluation is
single-threaded, so share a tree within one thread only.
"""

from __future__ import annotations

import heapq
import re
import weakref
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

__all__ = [
    "Tree",
    "RootedTree",
    "Fanin",
    "TreeFormatError",
    "parse_tree",
    "serialize_tree",
    "root_at",
    "tree_from_spec",
    "is_tree_spec",
    "make_path",
    "make_star",
    "make_regular",
    "make_random",
]


class TreeFormatError(ValueError):
    """Raised for malformed tree files or structurally invalid edge lists.

    Carries the 1-based line number when the error is tied to a file line,
    and the 0-based position of the offending edge in the input edge list
    when one edge is to blame.
    """

    def __init__(
        self, message: str, line: Optional[int] = None, edge: Optional[int] = None
    ):
        self.line = line
        self.edge = edge
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Fanin(NamedTuple):
    """A scatter-add plan for np.add.reduceat: group j sums the rows
    sources[starts[j]:starts[j + 1]] into row heads[j]."""

    sources: np.ndarray
    starts: np.ndarray
    heads: np.ndarray


def _fanin(sources, targets) -> Fanin:
    """Group sources[i] under targets[i]; the heads are distinct."""
    order = np.argsort(targets, kind="stable")
    targets = np.asarray(targets, dtype=np.intp)[order]
    starts = np.flatnonzero(np.diff(targets, prepend=-1))
    return Fanin(np.asarray(sources, dtype=np.intp)[order], starts, targets[starts])


class Tree:
    """A finite unrooted tree on vertices 0..n-1.

    Attributes:
        n: number of vertices.
        adjacency: per-vertex sorted tuple of neighbour ids.
        edges: canonical edge list, each (u, v) with u < v, sorted
            lexicographically; the position of an edge in this list is its
            canonical edge id.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise TreeFormatError(f"vertex count must be >= 1, got {n}")
        canonical = []
        seen = set()
        parent = list(range(n))  # union-find for cycle detection

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise TreeFormatError(
                    f"vertex id out of range in edge ({u}, {v})", edge=i
                )
            if u == v:
                raise TreeFormatError(f"self-loop at vertex {u}", edge=i)
            e = (min(u, v), max(u, v))
            if e in seen:
                raise TreeFormatError(f"duplicate edge {e}", edge=i)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise TreeFormatError(f"cycle detected at edge {e}", edge=i)
            parent[ru] = rv
            seen.add(e)
            canonical.append(e)
        if len(canonical) != n - 1:
            # More than n-1 acyclic edges is impossible, so a count mismatch
            # here always means too few edges, i.e. a disconnected graph.
            raise TreeFormatError(
                f"disconnected graph: {n} vertices need {n - 1} edges, "
                f"got {len(canonical)}"
            )

        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            adj[u].append(v)
            adj[v].append(u)
        self.n: int = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in adj
        )
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Canonical edge (u, v) with u < v -> canonical edge id."""
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Low and high endpoint of each canonical edge, indexed by edge id."""
        ends = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    @cached_property
    def edge_fanins(self) -> tuple[Fanin, Fanin]:
        """Edge ids grouped by their low endpoint and by their high one."""
        ids = np.arange(self.edge_count)
        return _fanin(ids, self.edge_ends[0]), _fanin(ids, self.edge_ends[1])

    def has_edge(self, x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in self.edge_index

    def degree(self, x: int) -> int:
        self.check_vertex(x)
        return len(self.adjacency[x])

    def q(self, x: int) -> int:
        """Degree minus one (the branching number; -1 for an isolated vertex)."""
        return self.degree(x) - 1

    def check_vertex(self, x: int) -> None:
        if not (0 <= x < self.n):
            raise ValueError(f"vertex id {x} out of range 0..{self.n - 1}")

    @cached_property
    def _rooting(self) -> "RootedTree":
        """The rooting at vertex 0 that every traversal query derives from.

        It holds the tree through a weak proxy: with no reference cycle, a
        tree and its cached arrays are freed as soon as it is dropped.
        """
        return root_at(weakref.proxy(self), 0)

    def path(self, x: int, y: int) -> list[int]:
        """The unique vertex sequence from x to y, consecutive entries adjacent.

        Both ends climb toward vertex 0, deeper end first, until they meet.
        """
        self.check_vertex(x)
        self.check_vertex(y)
        parent, depth = self._rooting.parent, self._rooting.depth
        up, down = [x], [y]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return up + down[-2::-1]

    def distance(self, x: int, y: int) -> int:
        return len(self.path(x, y)) - 1

    def distance_matrix(self) -> np.ndarray:
        """All-pairs edge distances, computed once per tree; read-only."""
        return self._distances

    def segment(self, xs, ys) -> np.ndarray:
        """Row i masks the segment [xs[i], ys[i]]: the vertices z with
        d(x, z) + d(z, y) = d(x, y), which on a tree are those on the path
        from x to y. xs and ys broadcast; the rows are read off
        distance_matrix, so the first call builds it."""
        xs, ys = np.asarray(xs, dtype=np.intp), np.asarray(ys, dtype=np.intp)
        ends = np.concatenate((xs.ravel(), ys.ravel()))
        bad = ends[(ends < 0) | (ends >= self.n)]
        if bad.size:
            self.check_vertex(int(bad[0]))
        d = self.distance_matrix()
        return d[xs] + d[ys] == d[xs, ys][..., None]

    @cached_property
    def _distances(self) -> np.ndarray:
        """distance_matrix, filled row by row in BFS order from 0.

        Every vertex listed before x lies outside x's subtree, so its path
        to x runs through parent(x), whose row is already complete there.
        """
        rooted = self._rooting
        pos = {v: i for i, v in enumerate(rooted.order)}
        d = np.zeros((self.n, self.n), dtype=np.int64)  # indexed by BFS position
        for i, x in enumerate(rooted.order[1:], start=1):
            d[i, :i] = d[pos[rooted.parent[x]], :i] + 1
            d[:i, i] = d[i, :i]
        order = np.array(rooted.order)
        out = np.empty_like(d)
        out[np.ix_(order, order)] = d
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={len(self.edges)})"


class RootedTree:
    """A tree with a chosen origin, plus parent-toward-origin and depth maps.

    parent[origin] is None; for any other vertex it is the unique neighbour
    one step closer to the origin; children[x] lists, in ascending order,
    the neighbours whose parent is x. order lists the vertices in
    breadth-first order from the origin, so every parent precedes its
    children. This is the package's only tree traversal; every other one
    derives from it.
    """

    def __init__(self, tree: Tree, origin: int):
        tree.check_vertex(origin)
        n = tree.n
        parent: list[Optional[int]] = [None] * n
        depth = [0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        seen = [False] * n
        seen[origin] = True
        order = [origin]
        for v in order:
            for w in tree.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    children[v].append(w)
                    order.append(w)
        self.tree = tree
        self.origin = origin
        self.order: tuple[int, ...] = tuple(order)
        self.parent: tuple[Optional[int], ...] = tuple(parent)
        self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        self.depth: tuple[int, ...] = tuple(depth)
        self.max_depth: int = max(depth)

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def parent_array(self) -> np.ndarray:
        """parent as an index array; -1 at the origin."""
        return np.array([-1 if p is None else p for p in self.parent], dtype=np.intp)

    @cached_property
    def parent_fanin(self) -> Fanin:
        """Every vertex but the origin, grouped under its parent."""
        kids = np.array(self.order[1:], dtype=np.intp)
        return _fanin(kids, self.parent_array[kids])

    @cached_property
    def level_fanins(self) -> tuple[Fanin, ...]:
        """parent_fanin split by depth: entry d - 1 holds depth d."""
        order = np.array(self.order, dtype=np.intp)
        depth = np.array(self.depth)[order]
        cuts = np.searchsorted(depth, range(1, self.max_depth + 2))
        return tuple(
            _fanin(order[a:b], self.parent_array[order[a:b]])
            for a, b in zip(cuts, cuts[1:])
        )

    @cached_property
    def edge_child_sign(self) -> tuple[np.ndarray, np.ndarray]:
        """Per canonical edge id, its endpoint farther from the origin, and
        +1.0 when that endpoint is the low one, else -1.0."""
        low, high = self.tree.edge_ends
        low_is_child = self.parent_array[low] == high
        return np.where(low_is_child, low, high), np.where(low_is_child, 1.0, -1.0)

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, origin={self.origin})"


def root_at(tree: Tree, origin: int) -> RootedTree:
    return RootedTree(tree, origin)


# ----------------------------------------------------------------------
# Tree file format:
#   first non-comment line: "tree v=N"
#   then exactly N-1 lines "u v"; '#' starts a comment; whitespace-separated.
# ----------------------------------------------------------------------

_HEADER_RE = re.compile(r"^tree\s+v=(\d+)$")


def parse_tree(text: str) -> Tree:
    """Parse the tree file format, reporting errors with 1-based line numbers."""
    n: Optional[int] = None
    n_line = 0
    entries: list[tuple[int, int, int]] = []  # (u, v, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            m = _HEADER_RE.match(line)
            if not m:
                raise TreeFormatError(
                    f"expected header 'tree v=N', got {line!r}", lineno
                )
            n = int(m.group(1))
            n_line = lineno
            if n < 1:
                raise TreeFormatError("vertex count must be >= 1", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TreeFormatError(f"expected edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise TreeFormatError(f"non-integer vertex id in {line!r}", lineno)
        entries.append((u, v, lineno))
    if n is None:
        raise TreeFormatError("missing header 'tree v=N'")

    try:
        return Tree(n, [(u, v) for u, v, _ in entries])
    except TreeFormatError as exc:
        line = n_line if exc.edge is None else entries[exc.edge][2]
        raise TreeFormatError(str(exc), line) from None


def serialize_tree(tree: Tree) -> str:
    lines = [f"tree v={tree.n}"]
    lines.extend(f"{u} {v}" for u, v in tree.edges)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Built-in generator families, addressable by spec string.
# ----------------------------------------------------------------------


def make_path(n: int) -> Tree:
    """Path on n vertices: 0 - 1 - ... - (n-1)."""
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def make_star(n: int) -> Tree:
    """Star on n vertices: center 0, leaves 1..n-1."""
    return Tree(n, [(0, i) for i in range(1, n)])


def make_regular(q: int, r: int) -> Tree:
    """Truncated (q+1)-regular tree of radius r, centered at vertex 0.

    Every vertex within distance r-1 of the center has degree q+1; the
    vertices at distance r are leaves. Vertex ids follow breadth-first
    order from the center: the center's children are 1..q+1, and every
    later vertex c has parent (c - 2) // q.
    """
    if q < 1:
        raise ValueError(f"branching number must be >= 1, got {q}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    n = 1 + (q + 1) * sum(q**k for k in range(r))
    return Tree(n, [(0 if c <= q + 1 else (c - 2) // q, c) for c in range(1, n)])


def make_random(n: int, seed: int) -> Tree:
    """Uniformly random labelled tree on n vertices from a seeded generator.

    Decodes a uniform sequence of n-2 vertex ids, so all n^(n-2) labelled
    trees are equally likely.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if n == 1:
        return Tree(1, [])
    if n == 2:
        return Tree(2, [(0, 1)])
    rng = np.random.default_rng(seed)
    code = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in code:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Tree(n, edges)


_SPEC_RE = re.compile(r"^(path|star|regular|random):([0-9,]+)$")


def is_tree_spec(text: str) -> bool:
    """Whether the string uses the generator grammar (vs a file path)."""
    return bool(_SPEC_RE.match(text.strip()))


def tree_from_spec(spec: str) -> Tree:
    """Build a tree from a generator string.

    Accepted forms: ``path:N``, ``star:N``, ``regular:q,r``, ``random:N,seed``.
    """
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise ValueError(
            f"unrecognized tree spec {spec!r}; expected "
            "path:N, star:N, regular:q,r, or random:N,seed"
        )
    family, args_text = m.groups()
    args = [int(a) for a in args_text.split(",") if a != ""]
    if family == "path":
        if len(args) != 1:
            raise ValueError("path takes one parameter: path:N")
        return make_path(args[0])
    if family == "star":
        if len(args) != 1:
            raise ValueError("star takes one parameter: star:N")
        return make_star(args[0])
    if family == "regular":
        if len(args) != 2:
            raise ValueError("regular takes two parameters: regular:q,r")
        return make_regular(args[0], args[1])
    if len(args) != 2:
        raise ValueError("random takes two parameters: random:N,seed")
    return make_random(args[0], args[1])
