"""Deformed representations on the vertex space of a rooted tree.

Two families are built by conjugating the vertex permutation action:

* the bounded family, conjugated by the resolvent R(z) of the parent shift
  at a complex z with |z| < 1 (the rule check_z); its members differ from
  the permutation action by finite-rank operators supported near the
  geodesic from the origin to its image, and their norms admit the uniform
  bound 1 + 2|z|/(1-|z|) independent of the group element;
* the unitary family, conjugated by the invertible deformation T_t at a
  real t in [0, 1) (the rule operators.check_t); it is equivalent to the
  bounded family at z = t via a rank-one scaling at the origin, and as
  t -> 1 it converges to the limit representation: F* (edge action) F + p0.

Every operator, 1 - zP (operators.one_minus_shift) among them, is the
operator module's; a member is a composition of its block appliers, from
an image row that verify_automorphism checks. The dense route maps a
block of elements, (k, n) image rows such as an orbit transversal, to the
(k, n, n) stack of its members: the operators materialized, gathers and
one matrix product (a unitary member is pi0(g) plus T^-1 times the
difference of two gathers of T); nothing here
restates an operator in closed form. Every dense measurement returns one
value per element, and a measurement of members takes the stack that the
caller built: uniform_bound_certificate reads its norms, and the two
defect measurements take the multiplicative defect that the caller formed
from it once. The dense functions (dense_*, displacement,
multiplicative_defect, finite_rank_defect, defect_identity_residual,
homomorphism_residual, homotopy_curve, and groups.edge_images) take their
rows unchecked, since a check per call costs over half a member's build.
The dense operators are memoized per rooted tree and die with it
(_TreeMemo): 1 - tP and R(t) are stored, and T_t and T_t^-1 are read off
them with the one column or row in which they differ, so each pair costs
one dense matrix per t; the real R of an origin come from one level sweep.
The test-suite checks both routes against oracles of its own.

The reports here carry measurements only; the checks module compares
them with its tolerances.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .groups import edge_images, pi0_operator, pi1_operator
from .operators import (
    LinearOperator,
    check_t,
    deformation_inverse,
    deformation_operator,
    inverse_rescale,
    level_sweep,
    materialize,
    one_minus_shift,
    operator_norm,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_operator,
)
from .trees import RootedTree

__all__ = [
    "check_z",
    "displacement",
    "element_blocks",
    "bounded_rep_operator",
    "unitary_rep_operator",
    "limit_rep_operator",
    "dense_pi0",
    "dense_bounded_rep",
    "dense_unitary_rep",
    "dense_limit_rep",
    "multiplicative_defect",
    "DefectReport",
    "finite_rank_defect",
    "uniform_bound_certificate",
    "conjugation_equivalence_residual",
    "defect_identity_residual",
    "homomorphism_residual",
    "homotopy_curve",
    "curve_to_csv",
    "unitary_step_bound",
    "origin_sphere_residual",
]

RANK_THRESHOLD = 1e-9


def displacement(rooted: RootedTree, images: np.ndarray) -> np.ndarray:
    """Per element of the block, the distance from the origin to its image."""
    return np.asarray(rooted.depth)[images[:, rooted.origin]]


def check_z(z: complex) -> complex:
    """z as a complex, if |z| < 1, where the bounded family is defined."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"bounded family needs |z| < 1, got |{z}| = {abs(z)}")
    return z


def bounded_rep_operator(
    rooted: RootedTree, g: Sequence[int], z: complex
) -> LinearOperator:
    """resolvent(z) o (vertex action of g) o (1 - z * shift)."""
    z = check_z(z)
    return resolvent_operator(rooted, z).compose(
        pi0_operator(rooted.tree, g).compose(one_minus_shift(rooted, z))
    )


def unitary_rep_operator(
    rooted: RootedTree, g: Sequence[int], t: float
) -> LinearOperator:
    """deformation_inverse(t) o (vertex action of g) o deformation(t)."""
    t = check_t(t)
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
# images, one row per element. Every dense matrix is an operator's,
# memoized per rooted tree, constructor and parameters; a family maps a
# block to its (k, n, n) stack of members by gathers and one matrix product.
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

    Of T_t and 1 - tP, and of T_t^-1 and R(t), it stores the second. P
    kills the origin o, so T_t = (1 - tP)(1 + alpha p0) differs from 1 - tP
    only in column o, and T_t^-1 = (1 + beta p0) R(t) from R(t) only in row
    o: a read of T_t or T_t^-1 copies its partner and writes in that line,
    stored once per t as deformation_operator(rooted, t) @ e_o and as row o
    of inverse_rescale applied to R(t). The appliers act column by column,
    so each read is materialize's matrix bit for bit. sweep() stores R at
    several real t as views of one level sweep; any other R, a complex z's
    among them, takes its own sweep on first read.

    The memo is one dict per rooted tree, held by a weak reference to the
    tree, so it dies with the tree: a finished configuration keeps no
    matrices. cache_info() counts the hits and misses of the process's
    lifetime (a read of T_t or T_t^-1 looks up its line and its partner)
    and the matrices held now; perfbench reads it as _dense_context.
    """

    def __init__(self):
        self.memos = weakref.WeakKeyDictionary()  # rooted tree -> {key: array}
        self.hits = self.misses = 0

    def __call__(self, rooted: RootedTree, make, *args) -> np.ndarray:
        memo, key = self.memos.setdefault(rooted, {}), (make, *args)
        if key in memo:
            self.hits += 1
        else:
            self.misses += 1
            memo[key] = self._build(rooted, make, *args)
        if make is deformation_operator:
            mat = self(rooted, one_minus_shift, *args).copy()
            mat[:, rooted.origin] = memo[key]
        elif make is deformation_inverse:
            mat = self(rooted, resolvent_operator, *args).copy()
            mat[rooted.origin] = memo[key]
        else:
            return memo[key]
        mat.flags.writeable = False
        return mat

    def _build(self, rooted: RootedTree, make, *args) -> np.ndarray:
        """A key's stored array: its matrix, or the line of T_t or T_t^-1."""
        if make is deformation_operator:
            unit = np.zeros((rooted.n, 1))
            unit[rooted.origin] = 1.0
            line = np.add((make(rooted, *args) @ unit)[:, 0], 0.0)
        elif make is deformation_inverse:
            resolvent = self(rooted, resolvent_operator, *args)
            rescaled = inverse_rescale(rooted, *args) @ resolvent
            line = np.add(rescaled[rooted.origin], 0.0)
        else:
            line = materialize(make(rooted, *args))
        line.flags.writeable = False
        return line

    def sweep(self, rooted: RootedTree, values) -> None:
        """Store R(t) at each real t of values that the memo lacks, from one
        level sweep of a stacked identity block with a factor t per column."""
        memo, n = self.memos.setdefault(rooted, {}), rooted.n
        ts = [t for t in dict.fromkeys(map(float, values))
              if (resolvent_operator, t) not in memo]
        if not ts:
            return
        block = level_sweep(rooted, np.repeat(ts, n), np.tile(np.eye(n), len(ts)))
        np.add(block, 0.0, out=block)
        block.flags.writeable = False
        for i, t in enumerate(ts):
            memo[resolvent_operator, t] = block[:, i * n:(i + 1) * n]
        self.misses += len(ts)

    def cache_info(self) -> _CacheInfo:
        held = sum(a.ndim == 2 for memo in self.memos.values() for a in memo.values())
        return _CacheInfo(self.hits, self.misses, held)


_dense_context = _TreeMemo()


def _gathered(mat: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The stack (vertex action of g) @ mat: row x of mat moves to row g(x)."""
    return mat.take(np.argsort(images, axis=1), axis=0)


def dense_pi0(n: int, images: np.ndarray) -> np.ndarray:
    return _gathered(np.eye(n), images)


def dense_bounded_rep(rooted: RootedTree, images: np.ndarray, z: complex) -> np.ndarray:
    z = check_z(z)
    return _dense_context(rooted, resolvent_operator, z) @ _gathered(
        _dense_context(rooted, one_minus_shift, z), images
    )


def dense_unitary_rep(rooted: RootedTree, images: np.ndarray, t: float) -> np.ndarray:
    """pi0(g) + T^-1 (pi0(g) T - T pi0(g)) at T = T_t: the difference of two
    gathers of T is exactly 0 in the columns that the defect leaves alone.
    Where the whole block's defect is 0 and T^-1 is finite, the product is
    exactly 0 and is skipped; a NaN or inf in T^-1 still reaches the member."""
    t = check_t(t)
    tmat = _dense_context(rooted, deformation_operator, t)
    defect = _gathered(tmat, images)
    defect -= np.take(tmat, images, axis=1).swapaxes(0, 1)
    inverse = _dense_context(rooted, deformation_inverse, t)
    member = defect
    if defect.any() or not np.isfinite(inverse).all():
        member = inverse @ defect
    member[np.arange(len(images))[:, None], images, np.arange(rooted.n)] += 1.0
    return member


def dense_limit_rep(rooted: RootedTree, images: np.ndarray) -> np.ndarray:
    """F* (edge action) F + p0, with (edge action) F gathered from F's rows."""
    f = _dense_context(rooted, parent_edge_operator)
    target, sign = edge_images(rooted.tree, images)
    source = np.argsort(target, axis=1)
    moved = np.take_along_axis(sign, source, axis=1)[..., None] * f[source]
    return f.T @ moved + _dense_context(rooted, origin_projection)


# ----------------------------------------------------------------------
# Finite-rank defect analysis.
# ----------------------------------------------------------------------


def multiplicative_defect(images: np.ndarray, member: np.ndarray) -> np.ndarray:
    """member @ (action of g)^(-1) - 1 per element of the block, from the
    (k, n, n) stack that the caller built: column x becomes column g(x)."""
    inv = np.argsort(images, axis=1)[:, None, :]
    return np.take_along_axis(member, inv, axis=2) - np.eye(member.shape[-1])


@dataclass(frozen=True)
class DefectReport:
    """Locality and rank analysis of a block's members against the
    permutation action, one entry (or one row) per element of the block.

    The multiplicative defect rep(g) o (action of g)^(-1) - 1 vanishes, in
    rows and columns, outside the geodesic segment from the origin to its
    image. Its entry (i, g(j)) is entry (i, j) of the additive difference
    rep(g) - action(g), so the rows bound that difference's range as well.
    rank is NaN where a singular value is not finite.
    """

    displacement: np.ndarray
    rank: np.ndarray
    outside_residual: np.ndarray


def finite_rank_defect(
    rooted: RootedTree,
    images: np.ndarray,
    defect: np.ndarray,
    rank_threshold: float = RANK_THRESHOLD,
) -> DefectReport:
    """Measure defect, the block's multiplicative defect (multiplicative_defect
    of a stack of any family: dense_bounded_rep, dense_unitary_rep,
    dense_limit_rep), which the caller has formed."""
    segment = rooted.tree.segment(rooted.origin, images[:, rooted.origin])
    off_segment = ~(segment[:, :, None] & segment[:, None, :])
    outside = np.where(off_segment, np.abs(defect), 0.0).max(axis=(1, 2))
    singular = np.linalg.svd(defect, compute_uv=False)
    rank = np.count_nonzero(singular > rank_threshold, axis=1)
    return DefectReport(
        displacement=displacement(rooted, images),
        rank=np.where(np.isfinite(singular).all(axis=1), rank, np.nan),
        outside_residual=outside,
    )


# ----------------------------------------------------------------------
# Uniform boundedness.
# ----------------------------------------------------------------------


def uniform_bound_certificate(z: complex, member: np.ndarray) -> np.ndarray:
    """Per element, the norm of member, the block's bounded stack at z
    (dense_bounded_rep, which the caller has built); each must be at most
    1 + 2|z|/(1-|z|), which the caller takes once per z. A ValueError
    unless |z| < 1."""
    check_z(z)
    return operator_norm(member)


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
    t = check_t(t)
    scale = math.sqrt(1.0 - t * t)
    rhs = dense_bounded_rep(rooted, images, t)
    rhs[:, rooted.origin, :] *= 1.0 / scale
    rhs[:, :, rooted.origin] *= scale
    return np.abs(member - rhs).max(axis=(1, 2))


def defect_identity_residual(
    rooted: RootedTree, images: np.ndarray, z: complex, defect: np.ndarray
) -> np.ndarray:
    """Per element of the block, the entrywise gap in the structural identity
        member (action g)^(-1) - 1 = z * resolvent(z) (shift - shift'),
    where the left side is defect, the multiplicative_defect of the block's
    bounded stack at z (dense_bounded_rep), which the caller has formed, and
    shift' is the parent shift rooted at the image of the origin, that is
    (action g) shift (action g)^(-1).
    """
    z = check_z(z)
    inv = np.argsort(images, axis=1)
    shift = _dense_context(rooted, parent_shift_operator)
    image_shift = shift.take(inv[:, :, None] * rooted.n + inv[:, None, :])
    resolvent = _dense_context(rooted, resolvent_operator, z)
    predicted = z * (resolvent @ (shift - image_shift))
    return np.abs(defect - predicted).max(axis=(1, 2))


def homomorphism_residual(
    rep, g_images: np.ndarray, h_images: np.ndarray, z_images: np.ndarray | None = None
) -> np.ndarray:
    """Per pair (g, h) of rows of the two blocks, the entrywise gap between
    rep(g) rep(h) and rep(z) pi0(z^-1 g h), where rep maps a (k, n) image
    block to the (k, n, n) stack of its members: dense_unitary_rep at one
    rooted tree and t, say. check passes as z, a row of z_images, the
    representative of g h's coset of Stab(o), whose elements s have
    rep(s) = pi0(s); z is g h itself by default, for direct callers."""
    gh = np.take_along_axis(g_images, h_images, axis=1)  # g(h(x))
    z = gh if z_images is None else z_images
    s = np.take_along_axis(np.argsort(z, axis=1), gh, axis=1)  # z^-1 g h
    product = np.take_along_axis(rep(z), s[:, None, :], axis=2)
    return np.abs(product - rep(g_images) @ rep(h_images)).max(axis=(1, 2))


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
    rooted: RootedTree, a: float, b: float, member_norm: float,
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
    All four norms are taken on this origin's memoized T_a, T_b and their
    inverses.
    """
    a, b = check_t(a), check_t(b)
    memo = partial(_dense_context, rooted)  # each read a copy, freed after its product
    u = memo(deformation_inverse, a) @ memo(deformation_operator, b)
    u_inv = memo(deformation_inverse, b) @ memo(deformation_operator, a)
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
