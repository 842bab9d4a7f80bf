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

One member is built as a composition of the operator module's block
appliers, from an image row that verify_automorphism checks. The dense
route maps a block of elements, (k, n) image rows of a closure such as
GroupClosure.images, to the (k, n, n) stack of its members: the operators
materialized, gathers and one matrix product (a unitary member is pi0(g)
plus T^-1 times the difference of two gathers of T); nothing here
restates an operator in closed form, and every dense measurement returns
one value per element. The dense functions (dense_*, displacement,
finite_rank_defect, homomorphism_residual, homotopy_curve, and
groups.edge_images) take their rows unchecked, since a check per call
costs over half a member's build. The materialized operators
are memoized per rooted tree, and each tree's memo dies with it: a
configuration's matrices are freed with its rooted trees. The test-suite
checks both routes against oracles of its own.

The reports here carry measurements only; the checks module compares
them with its tolerances.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import GroupClosure, edge_images, pi0_operator, pi1_operator
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
    worst_of,
)
from .trees import RootedTree

__all__ = [
    "displacement",
    "element_blocks",
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
    "homotopy_curve",
    "curve_to_csv",
    "unitary_step_bound",
    "origin_sphere_residual",
]

RANK_THRESHOLD = 1e-9
SUPPORT_TOLERANCE = 1e-11


def displacement(rooted: RootedTree, images: np.ndarray) -> np.ndarray:
    """Per element of the block, the distance from the origin to its image."""
    return np.asarray(rooted.depth)[images[:, rooted.origin]]


def _check_z(z: complex) -> complex:
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"bounded family needs |z| < 1, got |{z}| = {abs(z)}")
    return z


def _check_t(t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise ValueError(
            f"unitary family needs t in the half-open interval [0, 1) "
            f"(t = 1 is its limit), got {t}"
        )
    return float(t)


def _one_minus_shift(rooted: RootedTree, z: complex) -> LinearOperator:
    return identity_operator(rooted.n) + parent_shift_operator(rooted).scale(-z)


def bounded_rep_operator(
    rooted: RootedTree, g: Sequence[int], z: complex
) -> LinearOperator:
    """resolvent(z) o (vertex action of g) o (1 - z * shift)."""
    z = _check_z(z)
    return resolvent_operator(rooted, z).compose(
        pi0_operator(rooted.tree, g).compose(_one_minus_shift(rooted, z))
    )


def unitary_rep_operator(
    rooted: RootedTree, g: Sequence[int], t: float
) -> LinearOperator:
    """deformation_inverse(t) o (vertex action of g) o deformation(t)."""
    t = _check_t(t)
    return deformation_inverse(rooted, t).compose(
        pi0_operator(rooted.tree, g).compose(deformation_operator(rooted, t))
    )


def limit_rep_operator(rooted: RootedTree, g: Sequence[int]) -> LinearOperator:
    """F* o (edge action of g) o F + origin projection; the t -> 1 limit."""
    f = parent_edge_operator(rooted)
    core = f.adjoint().compose(pi1_operator(rooted.tree, g).compose(f))
    return core + origin_projection(rooted)


# ----------------------------------------------------------------------
# Dense stacks. A block of group elements is a (k, n) int array of vertex
# images, one row per element; GroupClosure.images is the block of a whole
# closure. Every dense matrix is an operator materialized (memoized per
# rooted tree, constructor and parameters); a family maps a block to its
# (k, n, n) stack of members by gathers and one matrix product.
# ----------------------------------------------------------------------

STACK_BYTES = 1 << 17  # the byte budget of one (k, n, n) complex stack


def element_blocks(count: int, n: int) -> list[slice]:
    """Consecutive slices covering count elements (or pairs), each as long
    as one complex (k, n, n) stack fits in STACK_BYTES, and at least 1."""
    size = max(1, STACK_BYTES // (16 * n * n))
    return [slice(i, i + size) for i in range(0, count, size)]


_CacheInfo = namedtuple("_CacheInfo", "hits misses currsize")


class _TreeMemo:
    """_dense_context(rooted, make, *args): materialize(make(rooted, *args)),
    shared and therefore read-only.

    The memo is one dict per rooted tree, held by a weak reference to the
    tree, so it dies with the tree: a finished configuration keeps no
    matrices. cache_info() counts the hits and misses of the process's
    lifetime and the matrices held now; perfbench reads it under the name
    _dense_context.
    """

    def __init__(self):
        self.memos = weakref.WeakKeyDictionary()  # rooted tree -> {key: matrix}
        self.hits = self.misses = 0

    def __call__(self, rooted: RootedTree, make, *args) -> np.ndarray:
        memo, key = self.memos.setdefault(rooted, {}), (make, *args)
        if key in memo:
            self.hits += 1
            return memo[key]
        self.misses += 1
        mat = materialize(make(rooted, *args))
        mat.flags.writeable = False
        memo[key] = mat
        return mat

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, sum(map(len, self.memos.values())))


_dense_context = _TreeMemo()


def _gathered(mat: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The stack (vertex action of g) @ mat: row x of mat moves to row g(x)."""
    return mat.take(np.argsort(images, axis=1), axis=0)


def dense_pi0(n: int, images: np.ndarray) -> np.ndarray:
    return _gathered(np.eye(n), images)


def dense_bounded_rep(rooted: RootedTree, images: np.ndarray, z: complex) -> np.ndarray:
    z = _check_z(z)
    return _dense_context(rooted, resolvent_operator, z) @ _gathered(
        _dense_context(rooted, _one_minus_shift, z), images
    )


def dense_unitary_rep(rooted: RootedTree, images: np.ndarray, t: float) -> np.ndarray:
    """pi0(g) + T^-1 (pi0(g) T - T pi0(g)) at T = T_t: the difference of two
    gathers of T is exactly 0 in the columns that the defect leaves alone."""
    t = _check_t(t)
    tmat = _dense_context(rooted, deformation_operator, t)
    defect = _gathered(tmat, images)
    defect -= np.take(tmat, images, axis=1).swapaxes(0, 1)
    member = _dense_context(rooted, deformation_inverse, t) @ defect
    member[np.arange(len(images))[:, None], images, np.arange(rooted.n)] += 1.0
    return member


def dense_limit_rep(rooted: RootedTree, images: np.ndarray) -> np.ndarray:
    """F* (edge action) F + p0, with (edge action) F gathered from F's rows."""
    f = _dense_context(rooted, parent_edge_operator)
    target, sign = edge_images(rooted.tree, images)
    source = np.argsort(target, axis=1)
    moved = np.take_along_axis(sign, source, axis=1)[..., None] * f[source]
    return f.T @ moved + _dense_context(rooted, origin_projection)


def _dense_rep(rooted: RootedTree, images, kind: str, parameter) -> np.ndarray:
    if kind == "bounded":
        return dense_bounded_rep(rooted, images, parameter)
    if kind == "unitary":
        return dense_unitary_rep(rooted, images, parameter)
    if kind == "limit":
        return dense_limit_rep(rooted, images)
    raise ValueError(f"unknown representation kind {kind!r}")


# ----------------------------------------------------------------------
# Finite-rank defect analysis.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Locality and rank analysis of rep(g) against the permutation action,
    one entry (or one row) per element of the block.

    The multiplicative defect rep(g) o (action of g)^(-1) - 1 vanishes, in
    rows and columns, outside the geodesic segment from the origin to its
    image. Its entry (i, g(j)) is entry (i, j) of the additive difference
    rep(g) - action(g), so the rows bound that difference's range as well.
    segment and support are (k, n) vertex masks. rank is NaN where a
    singular value is not finite.
    """

    displacement: np.ndarray
    segment: np.ndarray
    support: np.ndarray
    rank: np.ndarray
    defect_norm: np.ndarray
    outside_residual: np.ndarray
    cross_check_residual: Optional[np.ndarray]


def finite_rank_defect(
    rooted: RootedTree,
    images: np.ndarray,
    kind: str,
    parameter=None,
    rank_threshold: float = RANK_THRESHOLD,
) -> DefectReport:
    """Measure the defect of a deformed representation on a block of
    group elements.

    For the bounded family the report also carries the residual of the
    structural identity
        rep(g) (action g)^(-1) - 1 = z * resolvent(z) (shift - shift'),
    where shift' is the parent shift rooted at the image of the origin,
    that is (action g) shift (action g)^(-1).
    """
    inv = np.argsort(images, axis=1)

    def moved_columns(stack: np.ndarray) -> np.ndarray:
        # stack @ (action of g)^(-1): column x becomes column g(x)
        return np.take_along_axis(stack, inv[:, None, :], axis=2)

    rep = _dense_rep(rooted, images, kind, parameter)
    mult_defect = moved_columns(rep) - np.eye(rooted.n)

    shift_of_origin = displacement(rooted, images)
    segment = rooted.tree.segment(rooted.origin, images[:, rooted.origin])

    size = np.abs(mult_defect)
    off_segment = ~(segment[:, :, None] & segment[:, None, :])
    outside_residual = np.where(off_segment, size, 0.0).max(axis=(1, 2))
    support = np.maximum(size.max(axis=2), size.max(axis=1)) > SUPPORT_TOLERANCE

    singular = np.linalg.svd(mult_defect, compute_uv=False)
    rank = np.count_nonzero(singular > rank_threshold, axis=1)
    rank = np.where(np.isfinite(singular).all(axis=1), rank, np.nan)

    cross = None
    if kind == "bounded":
        z = complex(parameter)
        shift = _dense_context(rooted, parent_shift_operator)
        image_shift = shift.take(inv[:, :, None] * rooted.n + inv[:, None, :])
        resolvent = _dense_context(rooted, resolvent_operator, z)
        predicted = z * (resolvent @ (shift - image_shift))
        cross = np.abs(mult_defect - predicted).max(axis=(1, 2))

    return DefectReport(
        displacement=shift_of_origin,
        segment=segment,
        support=support,
        rank=rank,
        defect_norm=singular[:, 0],
        outside_residual=outside_residual,
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


def uniform_bound_certificate(
    rooted: RootedTree, closure: GroupClosure, z: complex
) -> BoundCertificate:
    """Max norm over the closure, beside the bound 1 + 2|z|/(1-|z|)."""
    z = _check_z(z)
    bound = 1.0 + 2.0 * abs(z) / (1.0 - abs(z))
    images = closure.images
    max_norm, argmax = worst_of(np.concatenate([
        operator_norm(dense_bounded_rep(rooted, images[block], z))
        for block in element_blocks(len(images), rooted.n)
    ]))
    return BoundCertificate(
        z=z,
        bound=bound,
        max_norm=max_norm,
        argmax_index=argmax,
        element_count=len(closure),
    )


# ----------------------------------------------------------------------
# Equivalence, homomorphism law, homotopy curve.
# ----------------------------------------------------------------------


def conjugation_equivalence_residual(
    rooted: RootedTree, images: np.ndarray, t: float, member: np.ndarray
) -> np.ndarray:
    """Per element of the block, the entrywise gap between member, the
    block's unitary stack at t (dense_unitary_rep, which the caller has
    built), and the rank-one conjugation of the bounded member at z = t.

    The conjugator is the identity off the origin and scales the origin
    coordinate by sqrt(1 - t^2).
    """
    t = _check_t(t)
    scale = math.sqrt(1.0 - t * t)
    rhs = dense_bounded_rep(rooted, images, t)
    rhs[:, rooted.origin, :] *= 1.0 / scale
    rhs[:, :, rooted.origin] *= scale
    return np.abs(member - rhs).max(axis=(1, 2))


def homomorphism_residual(
    rooted: RootedTree, g_images: np.ndarray, h_images: np.ndarray, kind: str, parameter
) -> np.ndarray:
    """Per pair (g, h) of rows of the two blocks, the entrywise gap between
    rep(g h) and rep(g) rep(h)."""
    gh = np.take_along_axis(g_images, h_images, axis=1)  # g(h(x))
    lhs = _dense_rep(rooted, gh, kind, parameter)
    rhs = _dense_rep(rooted, g_images, kind, parameter) @ _dense_rep(
        rooted, h_images, kind, parameter
    )
    return np.abs(lhs - rhs).max(axis=(1, 2))


def homotopy_curve(
    rooted: RootedTree, images: np.ndarray, t_grid: Sequence[float]
) -> np.ndarray:
    """Spectral-norm distances from the unitary member at each grid t to
    the limit representation (row 0) and to the plain permutation action
    (row 1) of the (2, k, len(t_grid)) result.

    On a finite tree vector-wise and norm convergence coincide, so the
    first row decreasing to zero certifies the approach to the limit.
    A grid value of exactly 1.0 refers to the limit representation itself.
    """
    limit, pi0 = dense_limit_rep(rooted, images), dense_pi0(rooted.n, images)
    curve = np.empty((2, len(images), len(t_grid)))
    for i, t in enumerate(t_grid):
        rep = limit if t == 1.0 else dense_unitary_rep(rooted, images, t)
        curve[:, :, i] = operator_norm(rep - limit), operator_norm(rep - pi0)
    return curve


def curve_to_csv(t_grid: Sequence[float], curve: np.ndarray) -> str:
    """One element's curve, a (2, len(t_grid)) slice of homotopy_curve."""
    lines = ["t,dist_to_limit,dist_to_pi0"]
    for t, to_limit, to_pi0 in zip(t_grid, *curve):
        lines.append(f"{float(t):.17g},{to_limit:.17g},{to_pi0:.17g}")
    return "\n".join(lines) + "\n"


def unitary_step_bound(
    rooted: RootedTree, a: float, b: float, member_norm: float
) -> float:
    """A bound on ||rho_b(g) - rho_a(g)|| for every element g, given that
    no member of the unitary family has norm above member_norm.

    With U = T_a^-1 T_b, pi0(g) = T_a rho_a(g) T_a^-1 gives
    rho_b(g) = T_b^-1 pi0(g) T_b = U^-1 rho_a(g) U, so
    rho_b - rho_a = U^-1 [rho_a, U - 1], of norm at most
    2 ||rho_a|| ||U^-1|| ||U - 1||. Exchanging a and b gives
    2 ||rho_b|| ||U|| ||U^-1 - 1||, and ||rho_a|| + ||rho_b|| caps both.
    The four norms are operator_norm's, with U^-1 = T_b^-1 T_a formed
    directly. A member_norm above 1 keeps the bound from assuming the exact
    unitarity that the unitarity record tests; near t = 1 the cap governs.
    """
    a, b = _check_t(a), _check_t(b)
    u = _dense_context(rooted, deformation_inverse, a) @ _dense_context(
        rooted, deformation_operator, b
    )
    u_inv = _dense_context(rooted, deformation_inverse, b) @ _dense_context(
        rooted, deformation_operator, a
    )
    eye = np.eye(rooted.n)
    return 2.0 * member_norm * min(
        operator_norm(u - eye) * operator_norm(u_inv),
        operator_norm(u) * operator_norm(u_inv - eye),
        1.0,
    )


def origin_sphere_residual(rooted: RootedTree, member: np.ndarray) -> np.ndarray:
    """Per element, |norm(member delta_origin) - 1| on a block's unitary stack.
    The origin column is copied contiguous, so it rounds as in np.linalg.norm."""
    column = member[:, :, rooted.origin].copy()
    return abs(np.sqrt(np.vecdot(column, column)) - 1.0)
