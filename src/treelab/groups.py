"""Tree automorphisms, group closure, and the two permutation representations.

A group element is a vertex permutation that preserves the edge set. The
vertex representation permutes vertex basis vectors; the edge
representation permutes signed edge classes, picking up a sign whenever
the image of a canonical orientation is reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import factorial
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

    Each frontier row is composed with every generator in one gather, a
    row at a time; the products are taken in (g, h) order.
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
        # in (g, h) order, one frontier row g at a time: gh is x -> g(h(x))
        for images in (tuple(gh) for g in frontier for gh in g[gen_block].tolist()):
            if images not in found:
                if len(found) >= cap:
                    complete = False
                    break
                found.add(images)
                fresh.append(images)
        frontier = np.array(fresh, dtype=np.intp).reshape(-1, tree.n)
    elements = tuple(map(Automorphism, sorted(found)))
    gen_indices = tuple(elements.index(g) for g in gens if g in elements)
    return GroupClosure(elements, gen_indices, complete)


def _centre_generators(tree: Tree) -> tuple[list[list[int]], int]:
    """Generators of the full group, and its order, from the centre.

    Every automorphism fixes the centre of a longest path. Rooted there,
    subtrees get AHU labels bottom-up, equal exactly when isomorphic. Each
    class of m isomorphic siblings gets a cycle and (m > 2) a swap, which
    move whole subtrees, pairing children in label order.
    """
    far = root_at(tree, root_at(tree, 0).order[-1])
    path = far.path_to_origin(far.order[-1])
    centre, other = path[(len(path) - 1) // 2], path[len(path) // 2]
    rooted = root_at(tree, centre)
    # a bicentral tree is cut at its central edge; the halves are siblings
    kids = [[w for w in c if w != other] for c in rooted.children]
    label, ids = [0] * tree.n, {}
    for v in reversed(rooted.order):
        kids[v].sort(key=label.__getitem__)
        label[v] = ids.setdefault(tuple(label[w] for w in kids[v]), len(ids))

    def moved(pairs: list[tuple[int, int]]) -> list[int]:
        images = list(range(tree.n))
        while pairs:
            x, y = pairs.pop()
            images[x] = y
            pairs.extend(zip(kids[x], kids[y]))
        return images

    generators, order = [], 1
    for siblings in [sorted({centre, other})] + kids:
        for _, run in groupby(siblings, key=label.__getitem__):
            run = list(run)
            order *= factorial(len(run))
            if len(run) > 1:
                generators.append(moved(list(zip(run, run[1:] + run[:1]))))
            if len(run) > 2:
                generators.append(moved([(run[0], run[1]), (run[1], run[0])]))
    return generators, order


def full_automorphism_group(tree: Tree) -> GroupClosure:
    """All edge-preserving permutations, closed from _centre_generators; a
    group over DEFAULT_GROUP_CAP elements is refused before any is built."""
    generators, order = _centre_generators(tree)
    if order > DEFAULT_GROUP_CAP:
        raise ValueError(f"automorphism group has {order} elements, which exceeds "
                         f"the cap of {DEFAULT_GROUP_CAP}; supply a generator file")
    return close_group(tree, generators, DEFAULT_GROUP_CAP)


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
