"""Deformed representations on the vertex space of a rooted tree.

Two families are built by conjugating the vertex permutation action:

* the bounded family, conjugated by the resolvent of the parent shift at
  a complex parameter z with |z| < 1; its members differ from the plain
  permutation action by finite-rank operators supported near the geodesic
  from the origin to its image, and their norms admit the uniform bound
  1 + 2|z|/(1-|z|) independent of the group element;
* the unitary family, conjugated by the invertible deformation at a real
  parameter t in [0, 1); it is equivalent to the bounded family at z = t
  via a rank-one scaling at the origin, and as t -> 1 it converges to the
  limit representation built from the edge action: F* (edge action) F
  plus the origin projection.

Each member is built once, as a composition of the operator module's
sparse appliers. The dense matrices used by the bulk suites are those
operators materialized (memoized per rooted tree and parameter) and
combined by one matrix product; nothing here restates an operator in
closed form. The test-suite checks both against oracles of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .groups import Automorphism, GroupClosure, pi0_operator, pi1_operator
from .operators import (
    LinearOperator,
    deformation_inverse,
    deformation_operator,
    identity_operator,
    materialize,
    operator_norm,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_operator,
    vertex_space,
)
from .spaces import VertexVector
from .trees import RootedTree, root_at

__all__ = [
    "displacement",
    "bounded_rep_operator",
    "unitary_rep_operator",
    "limit_rep_operator",
    "dense_pi0",
    "dense_bounded_rep",
    "dense_unitary_rep",
    "dense_limit_rep",
    "DefectReport",
    "finite_rank_defect",
    "BoundCertificate",
    "uniform_bound_certificate",
    "conjugation_equivalence_residual",
    "homomorphism_residual",
    "CurvePoint",
    "homotopy_curve",
    "curve_to_csv",
    "origin_sphere_residual",
]

RANK_THRESHOLD = 1e-9
SUPPORT_TOLERANCE = 1e-11


def displacement(rooted: RootedTree, g: Automorphism) -> int:
    """Distance from the origin to its image under g."""
    return rooted.depth[g(rooted.origin)]


def _check_z(z: complex) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"bounded family needs |z| < 1, got |{z}| = {abs(z)}")
    return z


def _check_t(t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise ValueError(f"unitary family needs t in [0, 1), got {t}")
    return float(t)


def _one_minus_shift(rooted: RootedTree, z: complex) -> LinearOperator:
    sp = vertex_space(rooted.tree)
    op = identity_operator(sp) + parent_shift_operator(rooted).scale(-z)
    op.name = f"1-{z}P"
    return op


def bounded_rep_operator(
    rooted: RootedTree, g: Automorphism, z: complex
) -> LinearOperator:
    """resolvent(z) o (vertex action of g) o (1 - z * shift)."""
    z = _check_z(z)
    op = resolvent_operator(rooted, z).compose(
        pi0_operator(rooted.tree, g).compose(_one_minus_shift(rooted, z))
    )
    op.name = f"rho[z={z}]"
    return op


def unitary_rep_operator(
    rooted: RootedTree, g: Automorphism, t: float
) -> LinearOperator:
    """deformation_inverse(t) o (vertex action of g) o deformation(t)."""
    t = _check_t(t)
    op = deformation_inverse(rooted, t).compose(
        pi0_operator(rooted.tree, g).compose(deformation_operator(rooted, t))
    )
    op.name = f"rho~[t={t}]"
    return op


def limit_rep_operator(rooted: RootedTree, g: Automorphism) -> LinearOperator:
    """F* o (edge action of g) o F + origin projection; the t -> 1 limit."""
    f = parent_edge_operator(rooted)
    core = f.adjoint().compose(pi1_operator(rooted.tree, g).compose(f))
    op = core + origin_projection(rooted)
    op.name = "rho~[t=1]"
    return op


# ----------------------------------------------------------------------
# Dense fast path. Every dense matrix is a sparse operator materialized
# (memoized per rooted tree, constructor and parameters); a member of a
# family is then one matrix product with a row gather.
# ----------------------------------------------------------------------


@lru_cache(maxsize=128)
def _dense_context(rooted: RootedTree, make, *args) -> np.ndarray:
    """materialize(make(rooted, *args)), shared and therefore read-only.

    Stored as float64 when its imaginary part is exactly zero. perfbench
    reads cache_info() under this name.
    """
    mat = materialize(make(rooted, *args))
    if not mat.imag.any():
        mat = mat.real.copy()
    mat.flags.writeable = False
    return mat


def dense_pi0(n: int, g: Automorphism) -> np.ndarray:
    mat = np.zeros((n, n))
    for x in range(n):
        mat[g(x), x] = 1.0
    return mat


def _row_permuted(mat: np.ndarray, g: Automorphism) -> np.ndarray:
    """(vertex action of g) @ mat, via row gather by the inverse images."""
    return mat[list(g.inverse().images), :]


def dense_bounded_rep(rooted: RootedTree, g: Automorphism, z: complex) -> np.ndarray:
    z = _check_z(z)
    return _dense_context(rooted, resolvent_operator, z) @ _row_permuted(
        _dense_context(rooted, _one_minus_shift, z), g
    )


def dense_unitary_rep(rooted: RootedTree, g: Automorphism, t: float) -> np.ndarray:
    t = _check_t(t)
    return _dense_context(rooted, deformation_inverse, t) @ _row_permuted(
        _dense_context(rooted, deformation_operator, t), g
    )


def dense_limit_rep(rooted: RootedTree, g: Automorphism) -> np.ndarray:
    f = _dense_context(rooted, parent_edge_operator)
    pi1 = materialize(pi1_operator(rooted.tree, g)).real
    return f.T @ pi1 @ f + _dense_context(rooted, origin_projection)


def _dense_rep(rooted: RootedTree, g: Automorphism, kind: str, parameter) -> np.ndarray:
    if kind == "bounded":
        return dense_bounded_rep(rooted, g, parameter)
    if kind == "unitary":
        return dense_unitary_rep(rooted, g, parameter)
    if kind == "limit":
        return dense_limit_rep(rooted, g)
    raise ValueError(f"unknown representation kind {kind!r}")


# ----------------------------------------------------------------------
# Finite-rank defect analysis.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Locality and rank analysis of rep(g) against the permutation action.

    The multiplicative defect rep(g) o (action of g)^(-1) - 1 vanishes, in
    rows and columns, outside the geodesic segment from the origin to its
    image; the additive difference rep(g) - action(g) has its range inside
    that segment's span and the same rank and norm.
    """

    g: Automorphism
    kind: str
    parameter: complex | float | None
    displacement: int
    segment: tuple[int, ...]
    support: tuple[int, ...]
    rank: int
    defect_norm: float
    rep_norm: float
    outside_residual: float
    range_residual: float
    cross_check_residual: Optional[float]


def finite_rank_defect(
    rooted: RootedTree,
    g: Automorphism,
    kind: str,
    parameter=None,
    rank_threshold: float = RANK_THRESHOLD,
    support_tol: float = SUPPORT_TOLERANCE,
) -> DefectReport:
    """Measure the defect of a deformed representation at one group element.

    For the bounded family the report also carries the residual of the
    structural identity
        rep(g) (action g)^(-1) - 1 = z * resolvent(z) (shift - shift'),
    where shift' is the parent shift rooted at the image of the origin.
    """
    tree = rooted.tree
    n = tree.n
    rho = _dense_rep(rooted, g, kind, parameter)

    # rho @ (action of g^{-1}) gathers column g^{-1}(j) of rho into column j.
    ginv = g.inverse()
    mult_defect = rho[:, list(ginv.images)] - np.eye(n)

    segment = tuple(tree.path(rooted.origin, g(rooted.origin)))
    inside = np.zeros(n, dtype=bool)
    inside[list(segment)] = True

    outside_residual = 0.0
    if not inside.all():
        out_rows = float(np.abs(mult_defect[~inside, :]).max())
        out_cols = float(np.abs(mult_defect[:, ~inside]).max())
        outside_residual = max(out_rows, out_cols)

    additive = rho - dense_pi0(n, g)
    range_residual = (
        float(np.abs(additive[~inside, :]).max()) if not inside.all() else 0.0
    )

    row_peaks = np.abs(mult_defect).max(axis=1, initial=0.0)
    col_peaks = np.abs(mult_defect).max(axis=0, initial=0.0)
    support = tuple(
        int(i) for i in range(n) if max(row_peaks[i], col_peaks[i]) > support_tol
    )

    singular = np.linalg.svd(mult_defect, compute_uv=False)
    rank = int(np.count_nonzero(singular > rank_threshold))
    defect_norm = float(singular[0]) if singular.size else 0.0

    cross = None
    if kind == "bounded":
        z = complex(parameter)
        shift = _dense_context(rooted, parent_shift_operator)
        image_root = root_at(tree, g(rooted.origin))
        image_shift = materialize(parent_shift_operator(image_root)).real
        predicted = z * (
            _dense_context(rooted, resolvent_operator, z) @ (shift - image_shift)
        )
        cross = float(np.abs(mult_defect - predicted).max())

    return DefectReport(
        g=g,
        kind=kind,
        parameter=parameter,
        displacement=displacement(rooted, g),
        segment=segment,
        support=support,
        rank=rank,
        defect_norm=defect_norm,
        rep_norm=float(np.linalg.norm(rho, 2)),
        outside_residual=outside_residual,
        range_residual=range_residual,
        cross_check_residual=cross,
    )


# ----------------------------------------------------------------------
# Uniform boundedness.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCertificate:
    z: complex
    bound: float
    max_norm: float
    argmax_index: int
    element_count: int
    passed: bool


def uniform_bound_certificate(
    rooted: RootedTree,
    closure: GroupClosure,
    z: complex,
    slack: float = 1e-8,
) -> BoundCertificate:
    """Max norm over the closure, checked against 1 + 2|z|/(1-|z|) + slack."""
    z = _check_z(z)
    bound = 1.0 + 2.0 * abs(z) / (1.0 - abs(z))
    max_norm = 0.0
    argmax = 0
    for i, g in enumerate(closure):
        norm = operator_norm(dense_bounded_rep(rooted, g, z))
        if norm > max_norm:
            max_norm = norm
            argmax = i
    return BoundCertificate(
        z=z,
        bound=bound,
        max_norm=max_norm,
        argmax_index=argmax,
        element_count=len(closure),
        passed=max_norm <= bound + slack,
    )


# ----------------------------------------------------------------------
# Equivalence, homomorphism law, homotopy curve.
# ----------------------------------------------------------------------


def conjugation_equivalence_residual(
    rooted: RootedTree, g: Automorphism, t: float
) -> float:
    """Entrywise gap between the unitary member at t and the rank-one
    conjugation of the bounded member at z = t.

    The conjugator is the identity off the origin and scales the origin
    coordinate by sqrt(1 - t^2).
    """
    t = _check_t(t)
    n = rooted.n
    u = np.eye(n)
    u[rooted.origin, rooted.origin] = math.sqrt(1.0 - t * t)
    u_inv = np.eye(n)
    u_inv[rooted.origin, rooted.origin] = 1.0 / math.sqrt(1.0 - t * t)
    lhs = dense_unitary_rep(rooted, g, t)
    rhs = u_inv @ dense_bounded_rep(rooted, g, t) @ u
    return float(np.abs(lhs - rhs).max())


def homomorphism_residual(
    rooted: RootedTree, g: Automorphism, h: Automorphism, kind: str, parameter
) -> float:
    """Entrywise gap between rep(g h) and rep(g) rep(h)."""
    gh = g.compose(h)
    lhs = _dense_rep(rooted, gh, kind, parameter)
    rhs = _dense_rep(rooted, g, kind, parameter) @ _dense_rep(
        rooted, h, kind, parameter
    )
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class CurvePoint:
    t: float
    dist_to_limit: float
    dist_to_pi0: float


def homotopy_curve(
    rooted: RootedTree, g: Automorphism, t_grid: Sequence[float]
) -> list[CurvePoint]:
    """Spectral-norm distances from the unitary member at each grid t to
    the limit representation and to the plain permutation action.

    On a finite tree vector-wise and norm convergence coincide, so the
    first column decreasing to zero certifies the approach to the limit.
    A grid value of exactly 1.0 refers to the limit representation itself.
    """
    limit = dense_limit_rep(rooted, g)
    pi0 = dense_pi0(rooted.n, g)
    points = []
    for t in t_grid:
        rep = limit if t == 1.0 else dense_unitary_rep(rooted, g, t)
        points.append(
            CurvePoint(
                t=float(t),
                dist_to_limit=float(np.linalg.norm(rep - limit, 2)),
                dist_to_pi0=float(np.linalg.norm(rep - pi0, 2)),
            )
        )
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    lines = ["t,dist_to_limit,dist_to_pi0"]
    for p in points:
        lines.append(f"{p.t:.17g},{p.dist_to_limit:.17g},{p.dist_to_pi0:.17g}")
    return "\n".join(lines) + "\n"


def origin_sphere_residual(rooted: RootedTree, g: Automorphism, t: float) -> float:
    """|norm(rep_t(g) delta_origin) - 1|; the unitary family preserves it."""
    v = VertexVector(rooted.n, {rooted.origin: 1})
    image = unitary_rep_operator(rooted, g, t).apply(v)
    return abs(image.norm() - 1.0)
