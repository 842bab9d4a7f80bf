"""Tree automorphisms, group closure, and the two permutation representations.

A group element is a vertex permutation that preserves the edge set. The
vertex representation permutes vertex basis vectors; the edge
representation permutes signed edge classes, picking up a sign whenever
the image of a canonical orientation is reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .operators import LinearOperator, edge_space, vertex_space
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
    "pi0_operator",
    "pi1_operator",
    "edge_images",
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
    the generating elements inside elements; images holds their image
    arrays as one (len, n) block, the form the representation stacks take.
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

    @cached_property
    def images(self) -> np.ndarray:
        """Row i is the image array of element i; read-only."""
        images = np.array([g.images for g in self.elements], dtype=np.intp)
        images.flags.writeable = False
        return images


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

    Each frontier, a block of image arrays, is composed with every
    generator in one gather; the products are taken in (g, h) order.
    """
    gens = [
        verify_automorphism(tree, g.images if isinstance(g, Automorphism) else g)
        for g in generators
    ]
    gen_block = np.array([g.images for g in gens], dtype=np.intp).reshape(-1, tree.n)
    frontier = np.arange(tree.n)[None, :]
    found = {tuple(range(tree.n))}  # image tuples
    complete = True
    while len(frontier) and complete:
        fresh = []
        # row (g, h) of the products is g after h: x -> g(h(x))
        for gh in frontier[:, gen_block].reshape(-1, tree.n):
            images = tuple(gh.tolist())
            if images not in found:
                if len(found) >= cap:
                    complete = False
                    break
                found.add(images)
                fresh.append(gh)
        frontier = np.array(fresh, dtype=np.intp).reshape(-1, tree.n)
    return _sorted_closure(map(Automorphism, found), gens, complete)


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


def pi0_operator(tree: Tree, g: Automorphism) -> LinearOperator:
    """A scatter along the images of g; the adjoint gathers along them."""
    sp, images = vertex_space(tree), np.array(g.images, dtype=np.intp)

    def apply(b: np.ndarray) -> np.ndarray:
        out = np.empty_like(b)
        out[images] = b
        return out

    return LinearOperator(
        sp, sp, apply, lambda b: b[images], name=f"pi0[{list(g.images)}]"
    )


def edge_images(tree: Tree, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The signed edge action of an image block (or array): edge j goes to
    edge target[..., j] with sign[..., j], +1.0 exactly when g maps the
    canonical orientation (low endpoint to high) to a canonical one."""
    low, high = tree.edge_ends
    a, b = images[..., low], images[..., high]
    keys = low * tree.n + high  # ascending, as tree.edges is sorted
    target = np.searchsorted(keys, np.minimum(a, b) * tree.n + np.maximum(a, b))
    return target, np.where(a < b, 1.0, -1.0)


def pi1_operator(tree: Tree, g: Automorphism) -> LinearOperator:
    """Permute signed edge classes along g: a signed scatter onto the
    image edges (edge_images), whose adjoint is the matching signed gather.
    """
    sp, (target, sign) = edge_space(tree), edge_images(tree, np.array(g.images))
    sign = sign.reshape(-1, 1)

    def apply(w: np.ndarray) -> np.ndarray:
        out = np.empty_like(w)
        out[target] = sign * w
        return out

    return LinearOperator(
        sp, sp, apply, lambda w: sign * w[target], name=f"pi1[{list(g.images)}]"
    )
