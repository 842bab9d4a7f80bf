"""Tree automorphisms, group closure, and the two permutation representations.

A group element is a vertex permutation that preserves the edge set. The
vertex representation permutes vertex basis vectors; the edge
representation permutes signed edge classes, picking up a sign whenever
the image of a canonical orientation is reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .operators import LinearOperator, edge_space, vertex_space
from .spaces import EdgeVector, VertexVector
from .trees import Tree, root_at

__all__ = [
    "Automorphism",
    "GroupClosure",
    "identity_automorphism",
    "verify_automorphism",
    "close_group",
    "full_automorphism_group",
    "parse_automorphisms",
    "serialize_automorphisms",
    "pi0_apply",
    "pi1_apply",
    "pi0_operator",
    "pi1_operator",
]

FULL_SEARCH_VERTEX_LIMIT = 12
DEFAULT_GROUP_CAP = 20000


@dataclass(frozen=True)
class Automorphism:
    """A vertex permutation; images[x] is where x goes."""

    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: x -> self(other(x))."""
        return Automorphism(tuple(self.images[y] for y in other.images))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Automorphism(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Automorphism({list(self.images)})"


def identity_automorphism(n: int) -> Automorphism:
    return Automorphism(tuple(range(n)))


def verify_automorphism(tree: Tree, images: Sequence[int]) -> Automorphism:
    """Validate a candidate permutation; errors name the first violation."""
    images = tuple(int(i) for i in images)
    if len(images) != tree.n:
        raise ValueError(f"expected {tree.n} images, got {len(images)}")
    if sorted(images) != list(range(tree.n)):
        raise ValueError("images are not a permutation of 0..N-1")
    for u, v in tree.edges:
        gu, gv = images[u], images[v]
        if not tree.has_edge(gu, gv):
            raise ValueError(
                f"edge {{{u}, {v}}} maps to {{{gu}, {gv}}}, which is not an edge"
            )
    return Automorphism(images)


@dataclass(frozen=True)
class GroupClosure:
    """A deduplicated list of automorphisms, sorted by image tuple.

    When complete is True the list is closed under composition and inverses
    and contains the identity (which sorts first). generator_indices locate
    the generating elements inside elements.
    """

    elements: tuple[Automorphism, ...]
    generator_indices: tuple[int, ...]
    complete: bool

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Automorphism]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> Automorphism:
        return self.elements[i]

    def index(self, g: Automorphism) -> int:
        try:
            return self.elements.index(g)
        except ValueError:
            raise KeyError(f"{g} is not in the closure") from None


def _sorted_closure(
    found: Iterable[Automorphism], generators: Sequence[Automorphism], complete: bool
) -> GroupClosure:
    elements = tuple(sorted(found, key=lambda g: g.images))
    gen_indices = tuple(elements.index(g) for g in generators if g in elements)
    return GroupClosure(elements, gen_indices, complete)


def close_group(
    tree: Tree,
    generators: Sequence[Automorphism | Sequence[int]],
    cap: int = DEFAULT_GROUP_CAP,
) -> GroupClosure:
    """Breadth-first closure of the generators under composition.

    Every generator is validated against the tree first. The identity is
    always included. In a finite group inverses are positive powers, so
    closing under composition alone is enough. If more than cap elements
    appear the search stops and the result is flagged incomplete.
    """
    gens = [
        verify_automorphism(tree, g.images if isinstance(g, Automorphism) else g)
        for g in generators
    ]
    ident = identity_automorphism(tree.n)
    found = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                gh = g.compose(h)
                if gh not in found:
                    if len(found) >= cap:
                        return _sorted_closure(found, gens, complete=False)
                    found.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return _sorted_closure(found, gens, complete=True)


def full_automorphism_group(
    tree: Tree,
    max_vertices: int = FULL_SEARCH_VERTEX_LIMIT,
    cap: int = DEFAULT_GROUP_CAP,
) -> GroupClosure:
    """All edge-preserving permutations, by breadth-first backtracking.

    Vertices are assigned in a breadth-first order from vertex 0, so each
    new vertex already has a mapped neighbour (its search parent) and the
    candidate images are confined to the neighbours of that parent's
    image. Intended for small trees; pass a larger max_vertices explicitly
    to search bigger ones. Raises if the group would exceed cap elements.
    """
    n = tree.n
    if n > max_vertices:
        raise ValueError(
            f"full group search limited to N <= {max_vertices} vertices, got {n}; "
            "supply a generator file instead"
        )
    rooted = root_at(tree, 0)
    order, search_parent = rooted.order, rooted.parent
    degree = [tree.degree(x) for x in range(n)]
    image: list[int] = [-1] * n
    used = [False] * n
    results: list[Automorphism] = []

    def assign(pos: int) -> None:
        if pos == n:
            if len(results) >= cap:
                raise ValueError(
                    f"automorphism group exceeds {cap} elements; "
                    "use generators and close_group instead"
                )
            results.append(Automorphism(tuple(image)))
            return
        x = order[pos]
        p = search_parent[x]
        candidates = range(n) if p is None else tree.adjacency[image[p]]
        for y in candidates:
            if used[y] or degree[y] != degree[x]:
                continue
            image[x] = y
            used[y] = True
            assign(pos + 1)
            used[y] = False
        image[x] = -1

    assign(0)
    return _sorted_closure(results, [], complete=True)


# ----------------------------------------------------------------------
# Automorphism file: one permutation per line, N space-separated images,
# '#' starts a comment.
# ----------------------------------------------------------------------


def parse_automorphisms(tree: Tree, text: str) -> list[Automorphism]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            images = [int(tok) for tok in line.split()]
            out.append(verify_automorphism(tree, images))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out


def serialize_automorphisms(autos: Iterable[Automorphism]) -> str:
    return "\n".join(" ".join(str(i) for i in g.images) for g in autos) + "\n"


# ----------------------------------------------------------------------
# Permutation representations.
# ----------------------------------------------------------------------


def pi0_apply(g: Automorphism, v: VertexVector) -> VertexVector:
    """Permute vertex coefficients along g."""
    return VertexVector(v.dim, {g(x): c for x, c in v.items()})


def pi1_apply(tree: Tree, g: Automorphism, w: EdgeVector) -> EdgeVector:
    """Permute signed edge classes along g.

    The image class keeps sign +1 exactly when g maps the canonical
    orientation to a canonical orientation.
    """
    out: dict[int, complex] = {}
    for idx, c in w.items():
        u, v = tree.edges[idx]
        gu, gv = g(u), g(v)
        if gu < gv:
            out[tree.edge_index[(gu, gv)]] = c
        else:
            out[tree.edge_index[(gv, gu)]] = -c
    return EdgeVector(w.dim, out)


def pi0_operator(tree: Tree, g: Automorphism) -> LinearOperator:
    sp = vertex_space(tree)
    ginv = g.inverse()
    return LinearOperator(
        sp,
        sp,
        lambda v: pi0_apply(g, v),
        lambda v: pi0_apply(ginv, v),
        name=f"pi0[{list(g.images)}]",
    )


def pi1_operator(tree: Tree, g: Automorphism) -> LinearOperator:
    sp = edge_space(tree)
    ginv = g.inverse()
    return LinearOperator(
        sp,
        sp,
        lambda w: pi1_apply(tree, g, w),
        lambda w: pi1_apply(tree, ginv, w),
        name=f"pi1[{list(g.images)}]",
    )
