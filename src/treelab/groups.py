"""Tree automorphisms, stabilizer chains, and the two permutation representations.

A group element is its image row (images[x] is where x goes), a vertex
permutation that preserves the edge set. The vertex representation
permutes vertex basis vectors; the edge representation permutes signed
edge classes, picking up a sign whenever the image of a canonical
orientation is reversed.

A group is held as its generator rows; Sims's stabilizer chain gives its
order and, for a small group, every element.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import groupby
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .operators import LinearOperator
from .trees import Tree, root_at

__all__ = [
    "verify_automorphism",
    "orbit_transversal",
    "stabilizer",
    "stabilizer_chain",
    "close_group",
    "automorphism_generators",
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


def orbit_transversal(generators: np.ndarray, o: int) -> np.ndarray:
    """Rows r_x, x in o's orbit, from a breadth-first search under the (k, n)
    generator rows: r_o = 1, and r_(s x) = s r_x for the first s to reach s x."""
    rows, seen = [np.arange(generators.shape[1])], {o}
    for r in rows:  # grows as it goes
        for s in generators:
            if s[r[o]] not in seen:
                seen.add(s[r[o]])
                rows.append(s[r])
    return np.array(rows)


def _sims_filter(candidates: np.ndarray) -> np.ndarray:
    """Rows generating the candidates' group, at most one per (first moved
    point i, its image) (Sims's filter): a g meeting a kept h there becomes
    h^-1 g."""
    kept, identity = {}, np.arange(candidates.shape[1])
    for g in candidates:
        while (moved := np.flatnonzero(g != identity)).size:
            if (h := kept.setdefault((moved[0], g[moved[0]]), g)) is g:
                break
            g = np.argsort(h)[g]  # h^-1 g
    return np.array([*kept.values()], dtype=np.intp).reshape(-1, len(identity))


def stabilizer(generators: np.ndarray, o: int) -> tuple[np.ndarray, np.ndarray]:
    """o's orbit_transversal rows r_x and generators of Stab(o): Schreier's
    r_(s x)^-1 s r_x per generator s and row r_x, through Sims's filter."""
    rows = orbit_transversal(generators, o)
    count, n = rows.shape
    at = np.zeros(n, int)
    at[rows[:, o]] = np.arange(count)  # x -> r_x's row
    moved = generators[:, rows].reshape(-1, n)  # s r_x
    w = np.take_along_axis(np.argsort(rows, axis=1)[at[moved[:, o]]], moved, axis=1)
    return rows, _sims_filter(w)


def stabilizer_chain(generators: np.ndarray) -> list[np.ndarray]:
    """Sims's stabilizer chain (Seress, Permutation Group Algorithms, ch. 4):
    a fold of stabilizer over the base points, each the least point the
    filtered generators move; each element is one product u_0 u_1 ... of
    transversal rows."""
    chain, generators = [], _sims_filter(generators)
    while len(generators):
        base = int((generators != np.arange(generators.shape[1])).any(axis=0).argmax())
        rows, generators = stabilizer(generators, base)
        chain.append(rows)
    return chain


def close_group(tree: Tree, generators: Iterable[Sequence[int]]) -> np.ndarray:
    """The read-only, sorted (|G|, n) block of the group of the verified
    generator rows, its chain's transversal products; a group over
    DEFAULT_GROUP_CAP elements is refused before any is built."""
    gens = [verify_automorphism(tree, g) for g in generators]
    chain = stabilizer_chain(np.array(gens, dtype=np.intp).reshape(-1, tree.n))
    if (order := prod(map(len, chain))) > DEFAULT_GROUP_CAP:
        raise ValueError(f"group has {order} elements, which exceeds "
                         f"the cap of {DEFAULT_GROUP_CAP}")
    images = np.arange(tree.n)[None, :]
    for rows in reversed(chain):
        images = rows[:, images].reshape(-1, tree.n)  # u after each product
    images = images[np.lexsort(images.T[::-1])]
    images.flags.writeable = False
    return images


def automorphism_generators(tree: Tree) -> np.ndarray:
    """The (k, n) generator rows of the full group, from the centre.

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

    generators = []
    for siblings in [sorted({centre, other})] + kids:
        for _, run in groupby(siblings, key=label.__getitem__):
            run = list(run)
            if len(run) > 1:
                generators.append(moved(list(zip(run, run[1:] + run[:1]))))
            if len(run) > 2:
                generators.append(moved([(run[0], run[1]), (run[1], run[0])]))
    return np.array(generators, dtype=np.intp).reshape(-1, tree.n)


def full_automorphism_group(tree: Tree) -> np.ndarray:
    """Every automorphism: close_group of automorphism_generators."""
    return close_group(tree, automorphism_generators(tree))


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
