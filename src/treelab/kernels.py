"""Distance and decay kernels on a tree, and the geodesic edge cocycle.

The distance kernel is conditionally negative: its quadratic form is
non-positive on mean-zero vectors. Equivalently (Schoenberg), the decay
kernel t^d(x,y) = exp(-lambda d(x,y)) with t = exp(-lambda) is positive
semidefinite for 0 < t < 1. Both directions are certified numerically.

The deformation at parameter t ties the two pictures together: the Gram
matrix of the inverse-deformed vertex basis equals t^d(x,y) / (1 - t^2),
so (1 - t*S + t^2*Q) [t^d(x,y)] = (1 - t^2) Id on every finite tree. The
1/(1 - t^2) factor is forced by direct computation (already on the
two-vertex tree the diagonal Gram entry is 1/(1 - t^2)) and the checks
here verify the factored identity.

The geodesic cocycle attaches to a vertex pair the signed sum of edge
classes along their path; its squared norm is exactly the distance, and
its coboundary telescopes to the difference of the endpoint vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import Automorphism, pi1_apply
from .operators import (
    coboundary_operator,
    deformation_inverse,
    materialize,
    parent_edge_operator,
    resolvent_apply,
)
from .spaces import EdgeVector, VertexVector
from .trees import RootedTree, Tree

__all__ = [
    "KernelMatrix",
    "distance_kernel",
    "exp_kernel",
    "gram_kernel",
    "CndReport",
    "cnd_check",
    "PsdReport",
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
    "max_abs",
    "CND_SEED",
]

CND_SEED = 0xA11CE
KERNEL_TOLERANCE = 1e-10


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


def gram_kernel(rooted: RootedTree, t: float) -> KernelMatrix:
    """(1 - t^2) times the Gram matrix of the inverse-deformed vertex basis.

    Computed through the sparse inverse-deformation applier, so it is an
    independent route to the same matrix as exp_kernel; the scaling makes
    the diagonal exactly one. Origin choice does not affect the result.
    """
    t = _check_decay(t)
    inv = materialize(deformation_inverse(rooted, t))
    gram = (1.0 - t * t) * (inv.conj().T @ inv).real
    # symmetrize away the last-bit asymmetry of the matrix product
    gram = (gram + gram.T) / 2.0
    return KernelMatrix("gram", gram, t=t)


@dataclass(frozen=True)
class CndReport:
    """Conditional-negativity certificate for a symmetric kernel.

    max_form is the largest quadratic form value seen over the
    deterministic mean-zero basis (e_i - e_0), the seeded random mean-zero
    sample, and the doubly-centered spectrum; conditional negativity means
    it stays below tolerance.
    """

    max_basis_form: float
    max_random_form: float
    max_centered_eigenvalue: float
    n_random: int
    seed: int
    tolerance: float
    passed: bool

    @property
    def max_form(self) -> float:
        return max(
            self.max_basis_form, self.max_random_form, self.max_centered_eigenvalue
        )


def cnd_check(
    kernel: KernelMatrix,
    n_random: int = 1000,
    seed: int = CND_SEED,
    tolerance: float = KERNEL_TOLERANCE,
) -> CndReport:
    k = kernel.matrix
    n = kernel.n
    if n == 1:
        return CndReport(0.0, 0.0, 0.0, n_random, seed, tolerance, True)

    # deterministic basis of mean-zero vectors: e_i - e_0
    basis_forms = [
        k[i, i] + k[0, 0] - k[i, 0] - k[0, i] for i in range(1, n)
    ]
    max_basis = float(max(basis_forms))

    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_random, n))
    xi -= xi.mean(axis=1, keepdims=True)
    max_random = float(np.einsum("ki,ij,kj->k", xi, k, xi).max())

    center = np.eye(n) - np.full((n, n), 1.0 / n)
    max_eig = float(np.linalg.eigvalsh(center @ k @ center).max())

    return CndReport(
        max_basis_form=max_basis,
        max_random_form=max_random,
        max_centered_eigenvalue=max_eig,
        n_random=n_random,
        seed=seed,
        tolerance=tolerance,
        passed=max(max_basis, max_random, max_eig) <= tolerance,
    )


@dataclass(frozen=True)
class PsdReport:
    min_eigenvalue: float
    tolerance: float
    passed: bool


def psd_check(kernel: KernelMatrix, tolerance: float = KERNEL_TOLERANCE) -> PsdReport:
    """Positive semidefiniteness via the dense symmetric eigensolver."""
    min_eig = float(np.linalg.eigvalsh(kernel.matrix).min())
    return PsdReport(min_eig, tolerance, min_eig >= -tolerance)


@dataclass(frozen=True)
class GramIdentityReport:
    """Residuals tying the decay kernel to the deformation.

    algebraic_residual: max entry of (1 - t*S + t^2*Q) K_exp - (1-t^2) Id.
    gram_residual: max entry of (scaled Gram) - K_exp.
    """

    t: float
    algebraic_residual: float
    gram_residual: float
    tolerance: float
    passed: bool


def dense_s_q(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Dense adjacency S and diagonal branching Q = diag(deg - 1)."""
    n = tree.n
    s = np.zeros((n, n))
    for u, v in tree.edges:
        s[u, v] = 1.0
        s[v, u] = 1.0
    q = np.diag([float(tree.q(x)) for x in range(n)])
    return s, q


def gram_identity_check(
    rooted: RootedTree, t: float, tolerance: float = KERNEL_TOLERANCE
) -> GramIdentityReport:
    t = _check_decay(t)
    tree = rooted.tree
    n = tree.n
    k_exp = exp_kernel(tree, t).matrix
    s, q = dense_s_q(tree)
    algebraic = float(
        np.abs((np.eye(n) - t * s + t * t * q) @ k_exp - (1 - t * t) * np.eye(n)).max()
    )
    gram = float(np.abs(gram_kernel(rooted, t).matrix - k_exp).max())
    return GramIdentityReport(
        t=t,
        algebraic_residual=algebraic,
        gram_residual=gram,
        tolerance=tolerance,
        passed=max(algebraic, gram) <= tolerance,
    )


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
    vector: EdgeVector

    @property
    def squared_norm(self) -> int:
        # path edges are distinct and carry coefficient +/-1
        return len(self.steps)


def geodesic_cocycle(tree: Tree, x: int, y: int) -> Cocycle:
    walk = tree.path(x, y)
    steps = tuple(
        (1 if u < v else -1, (min(u, v), max(u, v))) for u, v in zip(walk, walk[1:])
    )
    # path edges are distinct, so each basis vector is set once
    vector = EdgeVector(
        tree.edge_count, {tree.edge_index[e]: sign for sign, e in steps}
    )
    return Cocycle(source=x, target=y, steps=steps, vector=vector)


def max_abs(v) -> float:
    """Largest coefficient modulus of a sparse vector; 0.0 when empty."""
    return max((abs(c) for _, c in v.items()), default=0.0)


@dataclass(frozen=True)
class CocycleReport:
    source: int
    target: int
    distance: int
    squared_norm: int
    coboundary_residual: float
    closed_form_residual: float
    antisymmetry_residual: float
    passed: bool


def cocycle_report(
    rooted: RootedTree, x: int, y: int, tolerance: float = 1e-12
) -> CocycleReport:
    """Verify the defining identities of the geodesic cocycle at one pair.

    Checks the exact squared norm, the telescoping coboundary
    b c(x,y) = delta_x - delta_y, antisymmetry, and the closed form
    c(x,y) = F (1 - P)^(-1) (delta_x - delta_y) through the resolvent at 1.
    """
    tree = rooted.tree
    c = geodesic_cocycle(tree, x, y)
    d = tree.distance(x, y)

    target_diff = VertexVector(tree.n, {x: 1}).sub(VertexVector(tree.n, {y: 1}))
    cob = coboundary_operator(tree).apply(c.vector).sub(target_diff)
    closed = (
        parent_edge_operator(rooted)
        .apply(resolvent_apply(rooted, 1.0, target_diff))
        .sub(c.vector)
    )
    anti = geodesic_cocycle(tree, y, x).vector.add(c.vector)

    ok = (
        c.squared_norm == d
        and max_abs(cob) <= tolerance
        and max_abs(closed) <= tolerance
        and max_abs(anti) == 0.0
    )
    return CocycleReport(
        source=x,
        target=y,
        distance=d,
        squared_norm=c.squared_norm,
        coboundary_residual=max_abs(cob),
        closed_form_residual=max_abs(closed),
        antisymmetry_residual=max_abs(anti),
        passed=ok,
    )


def cocycle_equivariance_residual(
    tree: Tree, g: Automorphism, x: int, y: int
) -> float:
    """Gap between c(g x, g y) and the edge action of g applied to c(x, y)."""
    lhs = geodesic_cocycle(tree, g(x), g(y)).vector
    rhs = pi1_apply(tree, g, geodesic_cocycle(tree, x, y).vector)
    return max_abs(lhs.sub(rhs))


def chasles_residual(tree: Tree, x: int, y: int, z: int) -> float:
    """Gap in c(x, z) = c(x, y) + c(y, z); exact when y lies on path(x, z)."""
    lhs = geodesic_cocycle(tree, x, z).vector
    rhs = geodesic_cocycle(tree, x, y).vector.add(geodesic_cocycle(tree, y, z).vector)
    return max_abs(lhs.sub(rhs))
