"""Tree automorphisms, group closure, and the two permutation representations.

A group element is its image row (images[x] is where x goes), a vertex
permutation that preserves the edge set. The vertex representation
permutes vertex basis vectors; the edge representation permutes signed
edge classes, picking up a sign whenever the image of a canonical
orientation is reversed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import groupby
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .operators import LinearOperator
from .trees import Tree, root_at

__all__ = [
    "GroupClosure",
    "verify_automorphism",
    "close_group",
    "full_automorphism_group",
    "parse_automorphisms",
    "pi0_operator",
    "pi1_operator",
    "edge_images",
]

DEFAULT_GROUP_CAP = 20000


@dataclass(frozen=True)
class Automorphism:
    """Nothing in treelab uses this: rows compose by gathers (g[h] is g
    after h). perfbench's tracer wraps compose and inverse by name."""

    images: tuple[int, ...]

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: x -> self(other(x))."""
        return Automorphism(tuple(self.images[y] for y in other.images))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Automorphism(tuple(inv))


def verify_automorphism(tree: Tree, images: Sequence[int]) -> tuple[int, ...]:
    """The image row as a tuple of ints; errors name the first violation."""
    try:
        images = tuple(map(operator.index, images))
    except TypeError:
        raise ValueError("images are not integers") from None
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
    return images


@dataclass(frozen=True, eq=False)
class GroupClosure:
    """Deduplicated automorphisms: images is the read-only, sorted (len, n)
    block of their image rows, the form the representation stacks take.
    When complete is True the rows are closed under composition and
    inverses and include the identity (which sorts first).
    generator_indices locate the generating rows inside images."""

    images: np.ndarray
    generator_indices: tuple[int, ...]
    complete: bool

    def __len__(self) -> int:
        return len(self.images)


def close_group(
    tree: Tree,
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_GROUP_CAP,
) -> GroupClosure:
    """Breadth-first closure of the generator rows under composition.

    Every generator is validated against the tree first. The identity is
    always included. In a finite group inverses are positive powers, so
    closing under composition alone is enough. If more than cap elements
    appear the search stops and the result is flagged incomplete.

    Each frontier row is composed with every generator in one gather, a
    row at a time; the products are taken in (g, h) order.
    """
    gens = [verify_automorphism(tree, g) for g in generators]
    gen_block = np.array(gens, dtype=np.intp).reshape(-1, tree.n)
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
    rows = sorted(found)
    position = {row: i for i, row in enumerate(rows)}
    gen_indices = tuple(position[g] for g in gens if g in position)
    images = np.array(rows, dtype=np.intp)
    images.flags.writeable = False
    return GroupClosure(images, gen_indices, complete)


def _centre_generators(tree: Tree) -> tuple[list[list[int]], int]:
    """Generators of the full group, and its order, from the centre.

    Every automorphism fixes the centre of a longest path. Rooted there,
    subtrees get AHU labels bottom-up, equal exactly when isomorphic. Each
    class of m isomorphic siblings gets a cycle and (m > 2) a swap, which
    move whole subtrees, pairing children in label order.
    """
    far = root_at(tree, root_at(tree, 0).order[-1])
    path = tree.path(far.order[-1], far.origin)
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


def parse_automorphisms(tree: Tree, text: str) -> np.ndarray:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            images = [int(tok) for tok in line.split()]
            rows.append(verify_automorphism(tree, images))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return np.array(rows, dtype=np.intp).reshape(-1, tree.n)


# ----------------------------------------------------------------------
# Permutation representations.
# ----------------------------------------------------------------------


def pi0_operator(tree: Tree, g: Sequence[int]) -> LinearOperator:
    """Move entry x to g[x] along the verified image row g: a gather along
    the inverse row; the adjoint gathers along g."""
    images = np.array(verify_automorphism(tree, g), dtype=np.intp)
    inverse = np.argsort(images)
    return LinearOperator((tree.n, tree.n), lambda b: b[inverse], lambda b: b[images])


def edge_images(tree: Tree, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The signed edge action of an image block (or array): edge j goes to
    edge target[..., j] with sign[..., j], +1.0 exactly when g maps the
    canonical orientation (low endpoint to high) to a canonical one."""
    low, high = tree.edge_ends
    a, b = images[..., low], images[..., high]
    keys = low * tree.n + high  # ascending, as tree.edges is sorted
    target = np.searchsorted(keys, np.minimum(a, b) * tree.n + np.maximum(a, b))
    return target, np.where(a < b, 1.0, -1.0)


def pi1_operator(tree: Tree, g: Sequence[int]) -> LinearOperator:
    """Permute signed edge classes along the verified image row g: a signed
    gather that takes edge j to edge target[j] with its sign (edge_images);
    the adjoint is the signed gather along target."""
    target, sign = edge_images(tree, np.array(verify_automorphism(tree, g)))
    sign, source = sign.reshape(-1, 1), np.argsort(target)
    return LinearOperator(
        (tree.edge_count,) * 2, lambda w: (sign * w)[source], lambda w: sign * w[target]
    )
