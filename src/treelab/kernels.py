"""Distance and decay kernels on a tree, and the geodesic edge cocycle.

The distance kernel is conditionally negative: its quadratic form is
non-positive on mean-zero vectors. Equivalently (Schoenberg), the decay
kernel t^d(x,y) = exp(-lambda d(x,y)) with t = exp(-lambda) is positive
semidefinite for 0 < t < 1. Each direction is measured by one eigenvalue:
cnd_check the largest of the centred kernel, psd_check the smallest of the
decay kernel. The functions here carry measurements only, and the checks
module judges them.

The deformation at parameter t ties the two pictures together: the Gram
matrix of the inverse-deformed vertex basis equals t^d(x,y) / (1 - t^2),
so K_t [t^d(x,y)] = (1 - t^2) Id on every finite tree, where
K_t = T_t T_t* = 1 - t*S + t^2*Q (deformation_kernel, the same at every
root). The 1/(1 - t^2) factor is forced by direct computation (already on
the two-vertex tree the diagonal Gram entry is 1/(1 - t^2)), so the
identity is measured in factored form. The decay kernel depends on the
tree and t alone: gram_identity_check takes it from its caller, who also
reads its sign and K_t's side of the identity from that one matrix.

A kernel is a float (n, n) array. cnd_check and psd_check refuse one that
is not square and symmetric, and read NaN, as operator_norm does, on one
that holds a NaN or an inf; they judge nothing else about it.

The geodesic cocycle attaches to a vertex pair the signed sum of edge
classes along their path; its squared norm is exactly the distance, and
its coboundary telescopes to the difference of the endpoint vectors. The
cocycles of k pairs are the columns of an (edge_count, k) block, read off
the tree's distance matrix through Tree.segment: every function here that
takes vertex pairs builds that O(n^2) matrix on a tree that lacks it.
Equivariance takes a (k, n) block of image rows, as the reps measurements
do, and builds the cocycles it compares once for the whole block.
cocycle_report measures Chasles at the rooted tree's origin o,
c(x, y) = c(o, y) - c(o, x), which holds for every pair since the cocycle
is linear in delta_x - delta_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import pi1_operator
from .operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    deformation_inverse,
    materialize,
    parent_edge_operator,
    resolvent_operator,
)
from .trees import RootedTree, Tree

__all__ = [
    "distance_kernel",
    "exp_kernel",
    "gram_kernel",
    "cnd_check",
    "psd_check",
    "dense_s_q",
    "deformation_kernel",
    "gram_identity_check",
    "geodesic_cocycle",
    "CocycleReport",
    "cocycle_report",
    "cocycle_equivariance_residual",
]


def distance_kernel(tree: Tree) -> np.ndarray:
    """Entries d(x,y) as floats; conditionally negative."""
    return tree.distance_matrix().astype(np.float64)


def _check_decay(t: float) -> float:
    if not 0.0 < t < 1.0:
        raise ValueError(f"decay parameter must lie in (0, 1), got {t}")
    return float(t)


def exp_kernel(tree: Tree, t: float) -> np.ndarray:
    """Entries t^d(x,y); positive semidefinite for 0 < t < 1."""
    return _check_decay(t) ** tree.distance_matrix().astype(np.float64)


def gram_kernel(rooted: RootedTree, t: float) -> np.ndarray:
    """(1 - t^2) times the Gram matrix of the inverse-deformed vertex basis.

    Computed through the inverse-deformation applier: an independent route
    to exp_kernel's matrix, left unvalidated so that a wrong inverse reaches
    the check that measures it. Origin choice does not affect the result.
    """
    t = _check_decay(t)
    inv = materialize(deformation_inverse(rooted, t))
    gram = (1.0 - t * t) * (inv.T @ inv)
    # symmetrize away the last-bit asymmetry of the matrix product
    return (gram + gram.T) / 2.0


def _symmetric(matrix) -> np.ndarray | None:
    """matrix as an array, or None when it holds a NaN or an inf; a
    ValueError unless it is square and symmetric, a NaN matching a NaN."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"kernel matrix must be square, got {m.shape}")
    if not np.array_equal(m, m.T, equal_nan=True):
        raise ValueError("kernel matrix must be symmetric")
    return m if np.isfinite(m).all() else None


def cnd_check(matrix) -> float:
    """Largest eigenvalue of J K J, with J = 1 - 11*/n the centring
    projection. For a mean-zero x, x^T K x <= it * |x|^2, with equality at
    its eigenvector, so conditional negativity means it is at most zero up
    to rounding."""
    k = _symmetric(matrix)
    if k is None:
        return math.nan
    n = k.shape[0]
    center = np.eye(n) - np.full((n, n), 1.0 / n)
    return float(np.linalg.eigvalsh(center @ k @ center).max())


def psd_check(matrix) -> float:
    """Smallest eigenvalue, from the dense symmetric eigensolver; positive
    semidefiniteness means it is at least zero up to rounding."""
    k = _symmetric(matrix)
    return math.nan if k is None else float(np.linalg.eigvalsh(k).min())


def dense_s_q(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Dense adjacency S and diagonal branching Q = diag(deg - 1)."""
    return (
        materialize(adjacency_operator(tree)),
        materialize(branching_operator(tree)),
    )


def deformation_kernel(s_q: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """K_t = T_t T_t* = 1 - t S + t^2 Q from the tree's dense_s_q; it does
    not depend on the root."""
    s, q = s_q
    return np.eye(len(s)) - t * s + t * t * q


def gram_identity_check(rooted: RootedTree, t: float, k_exp: np.ndarray) -> float:
    """Max entry of gram_kernel(rooted, t) - k_exp, where k_exp is the
    caller's exp_kernel(rooted.tree, t)."""
    return float(np.abs(gram_kernel(rooted, t) - k_exp).max())


# ----------------------------------------------------------------------
# Geodesic cocycle.
# ----------------------------------------------------------------------


def geodesic_cocycle(tree: Tree, pairs) -> np.ndarray:
    """The geodesic cocycles c(x, y) of the vertex pairs, as the columns of
    an (edge_count, k) block; a ValueError for a vertex id outside 0..n-1.

    An edge is on the path when both its ends lie in the segment [x, y],
    and its sign is d(x, high) - d(x, low): +1 when the path crosses it in
    its canonical orientation. Both are read off Tree.distance_matrix, so
    the first call on a tree builds that n x n matrix.
    """
    xs, ys = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    on_path = tree.segment(xs, ys).T
    from_x = tree.distance_matrix()[xs].T
    low, high = tree.edge_ends
    return np.where(on_path[low] & on_path[high], from_x[high] - from_x[low], 0.0)


def _gaps(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Per column, the largest entry of |lhs - rhs|; lhs is overwritten."""
    lhs -= rhs
    return np.abs(lhs, out=lhs).max(axis=0, initial=0.0)


@dataclass(frozen=True)
class CocycleReport:
    """The geodesic cocycle's identities measured on a block of vertex
    pairs; each array holds one entry per pair, in the order given."""

    pairs: tuple[tuple[int, int], ...]
    distance: np.ndarray
    squared_norm: np.ndarray
    coboundary_residual: np.ndarray
    closed_form_residual: np.ndarray
    antisymmetry_residual: np.ndarray
    chasles_residual: np.ndarray
    from_origin: np.ndarray  # (edge_count, n): c(o, y) for every vertex y


def cocycle_report(rooted: RootedTree, pairs) -> CocycleReport:
    """Measure the defining identities of the geodesic cocycle c(x, y) for
    every pair (x, y) at once.

    Reports the squared norm beside the distance it must equal, and the
    residuals of the telescoping coboundary b c(x,y) = delta_x - delta_y,
    of antisymmetry, of the closed form
    c(x,y) = F (1 - P)^(-1) (delta_x - delta_y) through the resolvent at 1,
    and of Chasles at the origin o, c(x,y) = c(o,y) - c(o,x). Each
    operator is built once and applied to the whole pair block.
    """
    tree = rooted.tree
    pairs = tuple((int(x), int(y)) for x, y in pairs)
    xs, ys = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    cocycles = geodesic_cocycle(tree, pairs)
    deltas = np.zeros((tree.n, len(pairs)))  # delta_x - delta_y per column
    deltas[xs, np.arange(len(pairs))] = 1.0
    deltas[ys, np.arange(len(pairs))] -= 1.0
    resolved = resolvent_operator(rooted, 1.0) @ deltas
    from_origin = geodesic_cocycle(tree, [(rooted.origin, v) for v in range(tree.n)])
    return CocycleReport(
        pairs=pairs,
        distance=tree.distance_matrix()[xs, ys],
        squared_norm=(cocycles * cocycles).sum(axis=0),
        coboundary_residual=_gaps(coboundary_operator(tree) @ cocycles, deltas),
        closed_form_residual=_gaps(parent_edge_operator(rooted) @ resolved, cocycles),
        antisymmetry_residual=_gaps(
            geodesic_cocycle(tree, [(y, x) for x, y in pairs]), -cocycles
        ),
        chasles_residual=_gaps(from_origin[:, ys] - from_origin[:, xs], cocycles),
        from_origin=from_origin,
    )


def cocycle_equivariance_residual(tree: Tree, images, pairs, cocycles=None) -> np.ndarray:
    """Per image row g of the (k, n) block and vertex pair (x, y), the gap
    between c(g x, g y) and the edge action of g applied to c(x, y): a
    (k, len(pairs)) array, (0, len(pairs)) for no rows and (k, 0) for no
    pairs. Every row is checked by pi1_operator before any vertex is moved
    along it. The cocycles are built once: those of the pairs, unless the
    caller passes their geodesic_cocycle block as cocycles, and those of
    the distinct pairs that the rows move them to, at most n^2."""
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    cocycles = geodesic_cocycle(tree, pairs) if cocycles is None else cocycles
    actions = [pi1_operator(tree, g) for g in images]
    moved = np.asarray(images, dtype=np.intp).reshape(len(actions), tree.n)[:, pairs]
    keys, where = np.unique(moved[..., 0] * tree.n + moved[..., 1], return_inverse=True)
    targets = geodesic_cocycle(tree, np.stack(np.divmod(keys, tree.n), axis=1))
    gaps = np.zeros(moved.shape[:2])
    for row, action, at in zip(gaps, actions, where.reshape(gaps.shape)):
        row[:] = _gaps(action @ cocycles, targets[:, at])
    return gaps
