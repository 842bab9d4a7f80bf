"""Distance and decay kernels on a tree, and the geodesic edge cocycle.

The distance kernel is conditionally negative: its quadratic form is
non-positive on mean-zero vectors. Equivalently (Schoenberg), the decay
kernel t^d(x,y) = exp(-lambda d(x,y)) with t = exp(-lambda) is positive
semidefinite for 0 < t < 1. Both directions are measured numerically; the
reports here carry measurements only, and the checks module judges them.

The deformation at parameter t ties the two pictures together: the Gram
matrix of the inverse-deformed vertex basis equals t^d(x,y) / (1 - t^2),
so (1 - t*S + t^2*Q) [t^d(x,y)] = (1 - t^2) Id on every finite tree. The
1/(1 - t^2) factor is forced by direct computation (already on the
two-vertex tree the diagonal Gram entry is 1/(1 - t^2)) and the residuals
here measure the factored identity.

The geodesic cocycle attaches to a vertex pair the signed sum of edge
classes along their path; its squared norm is exactly the distance, and
its coboundary telescopes to the difference of the endpoint vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    worst_of,
)
from .trees import RootedTree, Tree

__all__ = [
    "KernelMatrix",
    "distance_kernel",
    "exp_kernel",
    "gram_kernel",
    "CndReport",
    "cnd_check",
    "psd_check",
    "GramIdentityReport",
    "dense_s_q",
    "gram_identity_check",
    "Cocycle",
    "geodesic_cocycle",
    "CocycleReport",
    "cocycle_report",
    "cocycle_equivariance_residual",
    "chasles_residual",
    "CND_SEED",
]

CND_SEED = 0xA11CE
CND_SAMPLES = 1000  # random mean-zero vectors per conditional-negativity check


@dataclass(frozen=True)
class KernelMatrix:
    """A real symmetric kernel on the vertex set, tagged by kind."""

    kind: str  # "distance" | "exp" | "gram"
    matrix: np.ndarray
    t: Optional[float] = None

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("kernel matrix must be symmetric")
        diag = np.diag(m)
        if self.kind == "distance" and np.any(diag != 0):
            raise ValueError("distance kernel must have zero diagonal")
        if self.kind in ("exp", "gram") and np.abs(diag - 1.0).max() > 1e-12:
            raise ValueError(f"{self.kind} kernel must have unit diagonal")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def distance_kernel(tree: Tree) -> KernelMatrix:
    return KernelMatrix("distance", tree.distance_matrix().astype(np.float64))


def _check_decay(t: float) -> float:
    if not 0.0 < t < 1.0:
        raise ValueError(f"decay parameter must lie in (0, 1), got {t}")
    return float(t)


def exp_kernel(tree: Tree, t: float) -> KernelMatrix:
    """Entries t^d(x,y); positive semidefinite for 0 < t < 1."""
    t = _check_decay(t)
    return KernelMatrix("exp", t ** tree.distance_matrix().astype(np.float64), t=t)


def _scaled_gram(rooted: RootedTree, t: float) -> np.ndarray:
    """(1 - t^2) times the Gram matrix of the inverse-deformed vertex basis,
    unvalidated, so a wrong inverse reaches the check that measures it."""
    inv = materialize(deformation_inverse(rooted, t))
    gram = (1.0 - t * t) * (inv.T @ inv)
    # symmetrize away the last-bit asymmetry of the matrix product
    return (gram + gram.T) / 2.0


def gram_kernel(rooted: RootedTree, t: float) -> KernelMatrix:
    """(1 - t^2) times the Gram matrix of the inverse-deformed vertex basis.

    Computed through the inverse-deformation applier: an independent route
    to exp_kernel's matrix. The scaling makes the diagonal one up to rounding
    (within KernelMatrix's 1e-12); origin choice does not affect the result.
    """
    t = _check_decay(t)
    return KernelMatrix("gram", _scaled_gram(rooted, t), t=t)


@dataclass(frozen=True)
class CndReport:
    """Conditional-negativity measurements for a symmetric kernel.

    max_form is the largest quadratic form value seen over the
    deterministic mean-zero basis (e_i - e_0), the seeded random mean-zero
    sample, and the doubly-centered spectrum; conditional negativity means
    it is at most zero up to rounding.
    """

    max_basis_form: float
    max_random_form: float
    max_centered_eigenvalue: float
    seed: int

    @property
    def max_form(self) -> float:
        # not floored at zero: a conditionally negative form stays negative
        return float(np.max(
            [self.max_basis_form, self.max_random_form, self.max_centered_eigenvalue]
        ))


def cnd_check(kernel: KernelMatrix, seed: int = CND_SEED) -> CndReport:
    k = kernel.matrix
    n = kernel.n
    if n == 1:
        return CndReport(0.0, 0.0, 0.0, seed)

    # deterministic basis of mean-zero vectors: e_i - e_0
    max_basis = float((k.diagonal()[1:] + k[0, 0] - k[1:, 0] - k[0, 1:]).max())

    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((CND_SAMPLES, n))
    xi -= xi.mean(axis=1, keepdims=True)
    max_random = float(((xi @ k) * xi).sum(axis=1).max())

    center = np.eye(n) - np.full((n, n), 1.0 / n)
    max_eig = float(np.linalg.eigvalsh(center @ k @ center).max())

    return CndReport(
        max_basis_form=max_basis,
        max_random_form=max_random,
        max_centered_eigenvalue=max_eig,
        seed=seed,
    )


def psd_check(kernel: KernelMatrix) -> float:
    """Smallest eigenvalue, from the dense symmetric eigensolver; positive
    semidefiniteness means it is at least zero up to rounding."""
    return float(np.linalg.eigvalsh(kernel.matrix).min())


@dataclass(frozen=True)
class GramIdentityReport:
    """Residuals tying the decay kernel to the deformation.

    algebraic_residual: max entry of (1 - t*S + t^2*Q) K_exp - (1-t^2) Id.
    gram_residual: max entry of (scaled Gram) - K_exp.
    """

    t: float
    algebraic_residual: float
    gram_residual: float


def dense_s_q(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Dense adjacency S and diagonal branching Q = diag(deg - 1)."""
    return (
        materialize(adjacency_operator(tree)),
        materialize(branching_operator(tree)),
    )


def gram_identity_check(rooted: RootedTree, t: float) -> GramIdentityReport:
    t = _check_decay(t)
    tree = rooted.tree
    n = tree.n
    k_exp = exp_kernel(tree, t).matrix
    s, q = dense_s_q(tree)
    algebraic = float(
        np.abs((np.eye(n) - t * s + t * t * q) @ k_exp - (1 - t * t) * np.eye(n)).max()
    )
    gram = float(np.abs(_scaled_gram(rooted, t) - k_exp).max())
    return GramIdentityReport(t=t, algebraic_residual=algebraic, gram_residual=gram)


# ----------------------------------------------------------------------
# Geodesic cocycle.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Cocycle:
    """Signed sum of edge classes along the geodesic from source to target.

    steps lists (sign, canonical_edge) in path order, where sign is +1
    when the path traverses the edge in its canonical orientation.
    """

    source: int
    target: int
    steps: tuple[tuple[int, tuple[int, int]], ...]

    @property
    def squared_norm(self) -> int:
        # path edges are distinct and carry coefficient +/-1
        return len(self.steps)


def geodesic_cocycle(tree: Tree, x: int, y: int) -> Cocycle:
    walk = tree.path(x, y)
    steps = tuple(
        (1 if u < v else -1, (min(u, v), max(u, v))) for u, v in zip(walk, walk[1:])
    )
    return Cocycle(source=x, target=y, steps=steps)


def _cocycle_block(tree: Tree, pairs) -> np.ndarray:
    """The geodesic cocycles of the vertex pairs, as the columns of a real
    edge block; a ValueError for a vertex id outside 0..n-1.

    Tree.path's walk on every pair at once: both ends climb toward vertex 0,
    deeper end first, until they meet. A step up from v crosses the edge
    to v's parent, with its canonical sign on the first end's climb and
    the opposite sign on the second's.
    """
    rooting = tree._rooting
    parent, depth = rooting.parent_array, np.asarray(rooting.depth)
    child, sign = rooting.edge_child_sign
    up_edge = np.zeros(tree.n, dtype=np.intp)
    up_edge[child] = np.arange(tree.edge_count)
    up_sign = np.zeros(tree.n)
    up_sign[child] = sign
    ends = np.array(pairs, dtype=np.intp).reshape(-1, 2).T.copy()
    bad = ends[(ends < 0) | (ends >= tree.n)]
    if bad.size:
        tree.check_vertex(int(bad[0]))
    block = np.zeros((tree.edge_count, ends.shape[1]))
    while True:
        (cols,) = np.nonzero(ends[0] != ends[1])
        if not len(cols):
            return block
        side = (depth[ends[0, cols]] < depth[ends[1, cols]]).astype(np.intp)
        v = ends[side, cols]
        block[up_edge[v], cols] = np.where(side == 0, up_sign[v], -up_sign[v])
        ends[side, cols] = parent[v]


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


def cocycle_report(rooted: RootedTree, pairs) -> CocycleReport:
    """Measure the defining identities of the geodesic cocycle c(x, y) for
    every pair (x, y) at once.

    Reports the squared norm beside the distance it must equal, and the
    residuals of the telescoping coboundary b c(x,y) = delta_x - delta_y,
    of antisymmetry, and of the closed form
    c(x,y) = F (1 - P)^(-1) (delta_x - delta_y) through the resolvent at 1.
    Each operator is built once and applied to the whole pair block.
    """
    tree = rooted.tree
    pairs = tuple((int(x), int(y)) for x, y in pairs)
    xs, ys = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    cocycles = _cocycle_block(tree, pairs)
    deltas = np.zeros((tree.n, len(pairs)))  # delta_x - delta_y per column
    deltas[xs, np.arange(len(pairs))] = 1.0
    deltas[ys, np.arange(len(pairs))] -= 1.0
    resolved = resolvent_operator(rooted, 1.0) @ deltas
    return CocycleReport(
        pairs=pairs,
        distance=tree.distance_matrix()[xs, ys],
        squared_norm=(cocycles * cocycles).sum(axis=0),
        coboundary_residual=_gaps(coboundary_operator(tree) @ cocycles, deltas),
        closed_form_residual=_gaps(parent_edge_operator(rooted) @ resolved, cocycles),
        antisymmetry_residual=_gaps(
            _cocycle_block(tree, [(y, x) for x, y in pairs]), -cocycles
        ),
    )


def cocycle_equivariance_residual(tree: Tree, g: Sequence[int], pairs) -> np.ndarray:
    """Per vertex pair (x, y), the gap between c(g x, g y) and the edge
    action of the image row g (checked by pi1_operator) applied to c(x, y)."""
    return _gaps(
        pi1_operator(tree, g) @ _cocycle_block(tree, pairs),
        _cocycle_block(tree, np.asarray(g)[np.asarray(pairs, dtype=np.intp)]),
    )


def chasles_residual(tree: Tree, x: int, y: int, z: int) -> float:
    """Gap in c(x, z) = c(x, y) + c(y, z); exact when y lies on path(x, z)."""
    xz, xy, yz = _cocycle_block(tree, [(x, z), (x, y), (y, z)]).T
    return worst_of(np.abs(xz - (xy + yz)))[0]
