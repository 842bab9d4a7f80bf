"""Registered invariant checks and the machine-readable suite report.

One table of default tolerances feeds every check; each entry can be
overridden from the command line. The library reports carry measurements
only: every verdict here is one record's rule, a finite measured value at
most its bound. A suite run produces a versioned JSON report whose
content is a pure function of the configuration (timings are kept in a
separate field so reports stay byte-comparable).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.linalg import matrix_power

from . import kernels as kernels_mod
from . import reps as reps_mod
from .groups import (
    DEFAULT_GROUP_CAP,
    GroupClosure,
    close_group,
    edge_images,
    full_automorphism_group,
    parse_automorphisms,
)
from .operators import (
    NAMED_OPERATORS,
    check_t,
    coboundary_operator,
    deformation_inverse,
    deformation_operator,
    format_complex,
    identity_operator,
    materialize,
    one_minus_shift,
    operator_norm,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_operator,
    worst_of,
)
from .trees import RootedTree, Tree, is_tree_spec, parse_tree, root_at, tree_from_spec

__all__ = [
    "TOLERANCES",
    "DEFAULT_SEED",
    "DEFAULT_T_GRID",
    "DEFAULT_Z_GRID",
    "MONOTONE_T_VALUES",
    "SuiteConfig",
    "CheckRecord",
    "SuiteReport",
    "ConfigError",
    "resolve_tree",
    "resolve_group",
    "run_check_suite",
    "report_to_json",
    "report_from_json",
]

# Single auditable source for every tolerance used by the suite.
TOLERANCES: dict[str, float] = {
    "identity": 1e-12,       # exact operator identities, entrywise
    "unitarity": 1e-11,
    "homomorphism": 1e-11,
    "rank": reps_mod.RANK_THRESHOLD,  # numerical-rank threshold on singular values
    "kernel": 1e-10,
    "resolvent": 1e-13,      # path-sum vs series oracle
    "bound_slack": 1e-8,     # additive slack on the uniform norm bound
}

DEFAULT_SEED = 0xA11CE  # the cocycle pair sample and the adjoint vectors
DEFAULT_T_GRID: tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
)
DEFAULT_Z_GRID: tuple[complex, ...] = (0.5,)
MONOTONE_T_VALUES: tuple[float, ...] = (0.9, 0.99, 0.999)
COCYCLE_PAIR_CAP = 400


class ConfigError(ValueError):
    """Unusable configuration: bad spec string, missing file, bad grid."""


@dataclass(frozen=True)
class SuiteConfig:
    tree_spec: str
    group_spec: str = "auto"
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    z_grid: tuple[complex, ...] = DEFAULT_Z_GRID
    seed: int = DEFAULT_SEED
    tolerances: dict[str, float] = field(default_factory=dict)

    def tolerance_table(self) -> dict[str, float]:
        table = dict(TOLERANCES)
        for name, value in self.tolerances.items():
            if name not in table:
                raise ConfigError(
                    f"unknown tolerance {name!r}; known: {sorted(table)}"
                )
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(
                    f"tolerance {name} must be positive and finite, got {value}"
                )
            table[name] = float(value)
        return table

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        try:
            for t in self.t_grid:
                check_t(t)
            for z in self.z_grid:
                reps_mod.check_z(z)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, grid in (("t", self.t_grid), ("z", self.z_grid)):
            if not grid:
                raise ConfigError(f"empty {name} grid")
            if len(set(grid)) != len(grid):
                raise ConfigError(f"{name} grid values must be distinct: {list(grid)}")
        self.tolerance_table()


@dataclass(frozen=True)
class CheckRecord:
    check: str
    tree: str
    origin: int
    g: str
    parameter: str
    measured: float
    bound: float
    passed: bool

    def to_dict(self) -> dict:
        """JSON-ready: a non-finite measured value is written as None."""
        return {
            "check": self.check,
            "tree": self.tree,
            "origin": self.origin,
            "g": self.g,
            "parameter": self.parameter,
            "measured": self.measured if math.isfinite(self.measured) else None,
            "bound": self.bound,
            "passed": self.passed,
        }


@dataclass
class SuiteReport:
    schema: int
    config: dict
    records: list[CheckRecord]
    aggregate_pass: bool
    timings: dict[str, float]


def resolve_tree(spec: str) -> Tree:
    """A generator string, one of trees.TREE_SPEC_FORMS, or a tree-file path."""
    if is_tree_spec(spec):
        try:
            return tree_from_spec(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(
            f"tree spec {spec!r} is neither a generator string nor a file"
        )
    return parse_tree(path.read_text(encoding="utf-8"))


def resolve_group(tree: Tree, spec: str) -> GroupClosure:
    """'auto' or an automorphism file whose lines are taken as generators
    and closed under composition; either is refused above DEFAULT_GROUP_CAP
    elements."""
    if spec == "auto":
        try:
            return full_automorphism_group(tree)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(f"group spec {spec!r} is neither 'auto' nor a file")
    try:
        generators = parse_automorphisms(tree, path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    closure = close_group(tree, generators, DEFAULT_GROUP_CAP)
    if not closure.complete:
        raise ConfigError(f"{path}: the generated group exceeds the cap of "
                          f"{DEFAULT_GROUP_CAP} elements")
    return closure


# ----------------------------------------------------------------------
# Check context and registry.
# ----------------------------------------------------------------------


@dataclass
class _Context:
    config: SuiteConfig
    tree: Tree
    closure: GroupClosure
    rooted_list: list[RootedTree]
    tol: dict[str, float]
    adjoint_rng: np.random.Generator  # one stream for both origins, in order
    # origin -> unitary-family's walk there, which limit-family reads
    walks: dict[int, dict] = field(default_factory=dict)
    # (orbit of the origin, by its least vertex, a, b) -> the step's bound,
    # taken on the matrices of the orbit's first origin that needs it
    step_bounds: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.config.tree_spec


def _passes(measured, bound) -> bool:
    """The record rule: measured is a finite number (not None, as a
    report.json writes a non-finite one) and at most bound."""
    return measured is not None and math.isfinite(measured) and measured <= bound


def _record(
    ctx: _Context,
    check: str,
    origin: int,
    measured: float,
    bound: float,
    g: str = "-",
    parameter: str = "-",
) -> CheckRecord:
    measured, bound = float(measured), float(bound)
    return CheckRecord(
        check=check,
        tree=ctx.label,
        origin=origin,
        g=g,
        parameter=parameter,
        measured=measured,
        bound=bound,
        passed=_passes(measured, bound),
    )


def _max_entry(matrix: np.ndarray):
    """The largest entry modulus of a matrix, or of each matrix of a stack."""
    return np.abs(matrix).max(axis=(-2, -1), initial=0.0)


def _per_element(ctx: _Context, measure, rows: np.ndarray) -> np.ndarray:
    """measure(block) over blocks of rows (image rows, or index pairs),
    joined along the last axis: one value, or column, per row."""
    return np.concatenate([
        measure(rows[block]) for block in reps_mod.element_blocks(len(rows), ctx.tree.n)
    ], axis=-1)


def _orbit_rows(ctx: _Context, rooted: RootedTree, keys) -> np.ndarray:
    """o's transversal, the rows a family walks at the origin o: r_x, the
    first closure row with r_x o = x, per orbit point x, in closure order.
    Each Schreier generator w = r_(s x)^-1 s r_x of Stab(o), s a generator,
    gathers each memoized matrix M of the family (one per key make, *args)
    onto itself bit for bit, NaN onto NaN, or a LinAlgError names M: pi0(w) M
    pi0(w)^-1 == M, pi1(w) on F's left; so r_x s's member is r_x's times pi0(s)."""
    images, o, n = ctx.closure.images, rooted.origin, ctx.tree.n
    points, first = np.unique(images[:, o], return_index=True)
    moved = images[list(ctx.closure.generator_indices)][:, images[first]].reshape(-1, n)
    back = np.argsort(images[first], axis=1)[np.searchsorted(points, moved[:, o])]
    schreier = np.take_along_axis(back, moved, axis=1)
    schreier = schreier[(schreier != np.arange(n)).any(axis=1)]
    for block in reps_mod.element_blocks(len(schreier), n):
        w = schreier[block]
        edge, sign = edge_images(ctx.tree, w)  # pi1(w): edge j to edge[j], by sign[j]
        for make, *args in keys:  # one gather at a time, to keep the peak low
            m = reps_mod._dense_context(rooted, make, *args)
            left = edge if make is parent_edge_operator else w
            gathered = m.take(left[:, :, None] * n + w[:, None, :])
            if make is parent_edge_operator:
                gathered *= sign[..., None]
            same = gathered == m  # NaNs are looked at only on a miss
            if not (same.all() or (same | np.isnan(gathered) & np.isnan(m)).all()):
                raise np.linalg.LinAlgError(
                    f"Stab({o}) moves {make.__name__}{tuple(args)}")
    # argsort, as elsewhere: np.sort's own SIMD code would add resident pages
    return first[np.argsort(first)]


def _check_shift_factorization(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """Parent shift against adjacency: P P* = Q + p0 and P + P* = S."""
    tol = ctx.tol["identity"]
    s, q = kernels_mod.dense_s_q(ctx.tree)
    p = materialize(parent_shift_operator(rooted))
    p0 = materialize(origin_projection(rooted))
    return [
        _record(ctx, "shift-product", rooted.origin,
                _max_entry(p @ p.conj().T - (q + p0)), tol),
        _record(ctx, "shift-sum", rooted.origin, _max_entry(p + p.conj().T - s), tol),
    ]


def _check_deformation_identity(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """T T* = 1 - t S + t^2 Q and T T^-1 = 1 (the sparse T on the members'
    dense T^-1), and T T* commutes with the vertex action. The first implies
    the last: S and Q are integer matrices that every automorphism gathers
    onto themselves, so it gathers K_t = 1 - t S + t^2 Q onto itself bit for
    bit, and an entry of the commutant, T T*[g x, g y] - T T*[x, y], is a
    difference of two entries of T T* - K_t: at most twice the product gap,
    up to the rounding of that difference. The commutant walks _orbit_rows,
    guarded by 1 - tP at every grid t, with one gather index for every t."""
    tol = ctx.tol["identity"]
    s_q = kernels_mod.dense_s_q(ctx.tree)
    n, grid = ctx.tree.n, ctx.config.t_grid
    rows = _orbit_rows(ctx, rooted, [(one_minus_shift, t) for t in grid])
    images = ctx.closure.images[rows]
    index = images[:, :, None] * n + images[:, None, :]  # (g x, g y) per row
    out = []
    for t in grid:
        tmat = reps_mod._dense_context(rooted, deformation_operator, t)
        prod = tmat @ tmat.T
        target = kernels_mod.deformation_kernel(s_q, t)
        inverse = reps_mod._dense_context(rooted, deformation_inverse, t)
        gap = np.maximum(_max_entry(prod - target), _max_entry(
            deformation_operator(rooted, t) @ inverse - np.eye(n)
        ))
        out.append(_record(ctx, "deformation-product", rooted.origin, gap, tol,
                           parameter=f"t={t:g}"))
        # [prod, pi0(g)] holds the entries prod[g x, g y] - prod[x, y]
        worst, worst_g = worst_of(_per_element(
            ctx, lambda block: _max_entry(prod.take(block) - prod), index))
        out.append(_record(ctx, "deformation-commutant", rooted.origin, worst, tol,
                           g=f"max@{rows[worst_g]}", parameter=f"t={t:g}"))
    return out


def _geometric_series(x: np.ndarray, terms: int) -> np.ndarray:
    """sum_{k < terms} x^k by binary doubling over the bits of terms, high
    bit first: S_2m = S_m + x^m S_m and S_m+1 = 1 + x S_m, with x^m kept
    beside S_m. About 2 log2(terms) matrix products."""
    eye = np.eye(len(x))
    series, power = eye, x  # S_1 and x^1
    for bit in bin(terms)[3:]:
        series, power = series + power @ series, power @ power
        if bit == "1":
            series, power = eye + x @ series, x @ power
    return series


def _check_resolvent_series(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """Path-sum resolvent against the truncated geometric series of the
    sparse zP, applied once to the identity block; the series stops at
    the max depth, beyond which the shift's powers vanish."""
    tol = ctx.tol["resolvent"]
    eye = np.eye(ctx.tree.n)
    out = []
    for z in ctx.config.z_grid:
        step = parent_shift_operator(rooted).scale(z) @ eye
        series = _geometric_series(step, rooted.max_depth + 1)
        gap = _max_entry(resolvent_operator(rooted, z) @ eye - series)
        out.append(_record(ctx, "resolvent-series", rooted.origin, gap, tol,
                           parameter=f"z={format_complex(z)}"))
    return out


def _check_nilpotency(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """shift^(max depth + 1) = 0 exactly, measured as the largest column
    norm: the sparse shift applied once to the identity block, then raised
    by square-and-multiply. Its powers hold 0/1 entries, so no rounding."""
    shift = parent_shift_operator(rooted) @ np.eye(ctx.tree.n)
    norms = np.linalg.norm(matrix_power(shift, rooted.max_depth + 1), axis=0)
    return [_record(ctx, "shift-nilpotency", rooted.origin, worst_of(norms)[0], 0.0)]


def _check_edge_factorization(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """The vertex-to-edge map against the coboundary and the shift."""
    tol = ctx.tol["identity"]
    tree = ctx.tree
    p = materialize(parent_shift_operator(rooted))
    p0 = materialize(origin_projection(rooted))
    f = materialize(parent_edge_operator(rooted))
    b = materialize(coboundary_operator(tree))
    eye_v = np.eye(tree.n)
    # reduced as they are formed, so no two residual matrices coexist
    gaps = {
        "edge-split": _max_entry((eye_v - p) - (b @ f + p0)),
        "edge-cob": _max_entry((eye_v - p) @ f.conj().T - b),
        "edge-isometry": _max_entry(f.conj().T @ f - (eye_v - p0)),
        "edge-coisometry": _max_entry(f @ f.conj().T - np.eye(tree.edge_count)),
    }
    out = [_record(ctx, name, rooted.origin, gap, tol) for name, gap in gaps.items()]
    # (1 - shift)^(-1) coboundary = adjoint of the vertex-to-edge map,
    # on every edge basis vector through the z = 1 resolvent
    eye_e = np.eye(tree.edge_count)
    lhs = resolvent_operator(rooted, 1.0) @ b
    gap = _max_entry(lhs - parent_edge_operator(rooted).adjoint() @ eye_e)
    out.append(_record(ctx, "edge-resolvent-adjoint", rooted.origin, gap, tol))
    return out


def _check_adjoint_consistency(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """<A* u, v> = <u, A v> on seeded random vectors for every entry of
    operators.NAMED_OPERATORS, in its order, at t = 0.7 and z = 0.3+0.4i,
    then for the identity: three pairs each, applied as blocks of three
    columns. The vectors come from one stream per configuration, seeded
    once, that origin 0 draws from first and origin N-1 next."""
    ops = [build(rooted, 0.7, 0.3 + 0.4j) for build in NAMED_OPERATORS.values()]
    gaps = []
    for op in ops + [identity_operator(rooted.n)]:
        m, n = op.shape
        # per pair: the real and imaginary parts of u, then those of v
        draws = ctx.adjoint_rng.standard_normal((3, 2 * (m + n)))
        u_re, u_im, v_re, v_im = np.split(draws, [m, 2 * m, 2 * m + n], axis=1)
        u, v = (u_re + 1j * u_im).T, (v_re + 1j * v_im).T
        lhs = (np.conj(op.adjoint() @ u) * v).sum(axis=0)
        gaps.append(np.abs(lhs - (np.conj(u) * (op @ v)).sum(axis=0)))
    return [_record(ctx, "adjoint-consistency", rooted.origin,
                    worst_of(np.concatenate(gaps))[0], ctx.tol["identity"] * rooted.n)]


def _check_bounded_family(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """Finite-rank locality, rank bound, structural defect identity and
    uniform norm bound of the bounded family, from one walk that builds each
    member once per element block and z and forms its multiplicative defect
    once. defect-locality never exceeds defect-identity on one element with
    the same bound, since the predicted defect z R(z) (P - P') is exactly 0
    off segment x segment (P - P' has nonzero columns only on the segment,
    and R(z) moves a vertex only to its ancestors, which lie on it); only
    defect-locality checks Tree.segment, read off D, against the shift.
    The walk runs on _orbit_rows."""
    tol_loc, tol_rank = ctx.tol["unitarity"], ctx.tol["rank"]
    out = []
    for z in ctx.config.z_grid:
        ptxt = f"z={format_complex(z)}"
        rows = _orbit_rows(ctx, rooted, [
            (resolvent_operator, z), (one_minus_shift, z), (parent_shift_operator,)])

        def measure(images):
            member = reps_mod.dense_bounded_rep(rooted, images, z)
            norms = reps_mod.uniform_bound_certificate(z, member)
            defect = reps_mod.multiplicative_defect(images, member)
            del member  # the defect measurements, where the walk peaks, need none
            rep = reps_mod.finite_rank_defect(rooted, images, defect, tol_rank)
            # the rank excess is NaN where a singular value is not finite
            excess = rep.rank - (rep.displacement + 1)
            cross = reps_mod.defect_identity_residual(rooted, images, z, defect)
            return rep.outside_residual, excess, cross, norms

        *defects, norms = _per_element(ctx, measure, ctx.closure.images[rows])
        names = ("defect-locality", "defect-rank", "defect-identity")
        for name, row, bound in zip(names, defects, (tol_loc, 0.0, tol_loc)):
            out.append(_record(ctx, name, rooted.origin, worst_of(row)[0], bound,
                               parameter=ptxt))
        max_norm, argmax = worst_of(norms)
        r = abs(z)
        bound = 1.0 + 2.0 * r / (1.0 - r) + ctx.tol["bound_slack"]
        out.append(_record(ctx, "uniform-bound", rooted.origin, max_norm, bound,
                           g=f"max@{rows[argmax]}", parameter=ptxt))
    return out


def _pair_sample(size: int, cap: int, seed: int) -> np.ndarray:
    """Index pairs (i, j) in range(size), one per row: all of them in
    row-major order when there are at most cap, else cap seeded draws."""
    if size ** 2 <= cap:
        return np.stack(np.divmod(np.arange(size * size), size), axis=1)
    return np.random.default_rng(seed).integers(0, size, size=(cap, 2))


def _approaches_limit(
    rooted: RootedTree, images: np.ndarray, values: np.ndarray, tol: float
) -> np.ndarray:
    """Per element of the block, whether its distances to the limit at
    MONOTONE_T_VALUES (one row per element) follow the rule for its origin
    displacement d: within tol of zero when d = 0, else falling at every
    step. Distances between unitaries saturate near 2 for very deep
    displacements, so strictness is only demanded where the curve is
    guaranteed to separate (d <= 6); beyond that a step may not rise by
    more than 1e-9. A NaN distance breaks the rule."""
    d = reps_mod.displacement(rooted, images)
    drops = np.diff(values, axis=1)
    falling = np.where(d <= 6, (drops < 0).all(axis=1), (drops <= 1e-9).all(axis=1))
    return np.where(d == 0, (values <= tol).all(axis=1), falling)


def _extra_ts(grid) -> list[float]:
    """The t beyond the grid at which endpoint-start and limit-monotone read
    the unitary members."""
    return [t for t in (0.0, *MONOTONE_T_VALUES) if t not in grid]


def _unitary_walk(ctx: _Context, rooted: RootedTree) -> dict:
    """Every measurement of the unitary family at one origin, from one walk
    over _orbit_rows that builds each member once per element block and t:
    the grid values, then the extras that endpoint-start and limit-monotone
    need. Each block is reduced by worst_of as it ends, and homomorphism's
    pairs come last. Each grid step's worst norm is divided by its bound
    after the walk, exact for a positive bound. A step of exactly 0 needs no
    bound; an orbit of origins, whose T_t are permutation conjugates, shares
    one set. Each record name maps to its worst value
    (unitarity and conjugation-equivalence to one per grid t; limit-monotone
    to the number of broken curves, each counted |G|/len(rows) times). The
    origin's memoized matrices outlive the walk, until run_check_suite
    drops them."""
    tol_u = ctx.tol["unitarity"]
    grid, n = ctx.config.t_grid, ctx.tree.n
    extra = _extra_ts(grid)
    keys = [(make, t) for make in (one_minus_shift, resolvent_operator)
            for t in (*grid, *extra)]
    rows = _orbit_rows(ctx, rooted, [
        *keys, (origin_projection,), (parent_edge_operator,)])

    def measure(images):
        limit = reps_mod.dense_limit_rep(rooted, images)
        unitary, equiv, steps, to_limit, previous = [], [], [], {}, None
        sphere = np.zeros(len(images))
        for t in (*grid, *extra):
            member = reps_mod.dense_unitary_rep(rooted, images, t)
            if t == 0.0:
                start = _max_entry(member - reps_mod.dense_pi0(n, images))
            if t in MONOTONE_T_VALUES:
                to_limit[t] = operator_norm(member - limit)
            if t in extra:
                continue
            if previous is not None:
                steps.append(operator_norm(member - previous))
            previous = member  # the only stack kept beside the next build
            unitary.append(
                _max_entry(member.conj().swapaxes(1, 2) @ member - np.eye(n)))
            equiv.append(
                reps_mod.conjugation_equivalence_residual(rooted, images, t, member))
            sphere = np.maximum(sphere, reps_mod.origin_sphere_residual(rooted, member))
        values = np.stack([to_limit[t] for t in MONOTONE_T_VALUES], axis=1)
        broken = ~_approaches_limit(rooted, images, values, tol_u)
        per_row = (*unitary, *equiv, start, sphere, *steps)
        return np.array([[worst_of(row)[0] for row in per_row] + [broken.sum()]]).T

    images, k, o = ctx.closure.images, len(grid), rooted.origin
    blocks = _per_element(ctx, measure, images[rows])
    worst = [worst_of(row)[0] for row in blocks[:-1]]
    # the transversal's every pair: r_x r_y = r_z s with s in Stab(o), so A_x A_y
    # against A_z pi0(s), A = rho_0.7, covers G x G
    pairs = np.stack(np.divmod(np.arange(len(rows) ** 2), len(rows)), axis=1)
    representative = np.zeros(n, dtype=np.intp)
    representative[images[rows, o]] = rows  # r_x's closure row, per orbit point x

    def law(pair):
        g, h = images[rows[pair.T]]
        gho = np.take_along_axis(g, h[:, [o]], axis=1)[:, 0]  # g h o
        return reps_mod.homomorphism_residual(
            lambda block: reps_mod.dense_unitary_rep(rooted, block, 0.7), g, h,
            images[representative[gho]])

    hom = _per_element(ctx, law, pairs)
    lipschitz = []
    for step, a, b in zip(worst[2 * k + 2:], grid, grid[1:]):
        key = (images[:, o].min(), a, b)  # one set of bounds per orbit of origins
        if step != 0.0 and key not in ctx.step_bounds:
            ctx.step_bounds[key] = reps_mod.unitary_step_bound(
                rooted, a, b, 1.0 + tol_u)
        lipschitz.append(step and step / ctx.step_bounds[key])  # 0 needs none
    return {
        "unitarity": worst[:k],
        "conjugation-equivalence": worst[k:2 * k],
        "homomorphism": worst_of(hom)[0],
        "endpoint-start": worst[2 * k],
        "origin-sphere": worst[2 * k + 1],
        "limit-monotone": blocks[-1].sum() * (len(images) // len(rows)),
        "grid-lipschitz": worst_of(lipschitz)[0],
    }


def _check_unitary_family(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """Unitarity, the rank-one conjugation equivalence, and the homomorphism
    law for the unitary family, from the origin's walk, kept for
    limit-family."""
    walk = ctx.walks[rooted.origin] = _unitary_walk(ctx, rooted)
    out = []
    for i, t in enumerate(ctx.config.t_grid):
        for name in ("unitarity", "conjugation-equivalence"):
            out.append(_record(ctx, name, rooted.origin, walk[name][i],
                               ctx.tol["unitarity"], parameter=f"t={t:g}"))
    out.append(_record(ctx, "homomorphism", rooted.origin, walk["homomorphism"],
                       ctx.tol["homomorphism"], parameter="t=0.7"))
    return out


def _check_limit_family(ctx: _Context, rooted: RootedTree) -> list[CheckRecord]:
    """Endpoints, monotone approach to the limit (measured as the number of
    elements whose curve breaks the rule), the origin unit sphere, and the
    grid Lipschitz certificate: each step of each curve over its derived
    bound (reps.unitary_step_bound), so the record's bound is 1. It reads
    unitary-family's walk at the same origin, which ran just before it, and
    walks again where that check broke down; the origin's matrices are
    still memoized then."""
    bounds = {"endpoint-start": 0.0, "origin-sphere": ctx.tol["identity"],
              "limit-monotone": 0.0, "grid-lipschitz": 1.0}
    walk = ctx.walks.get(rooted.origin) or _unitary_walk(ctx, rooted)
    return [_record(ctx, name, rooted.origin, walk[name], bound)
            for name, bound in bounds.items()]


def _check_kernels(ctx: _Context) -> list[CheckRecord]:
    """distance-cnd and decay-psd judge only the sign of the kernel they
    are given, so a wrong D that keeps it passes both; gram-identity here,
    cocycle-identities and defect-locality compare D's entries. The decay
    kernel and the algebraic side of gram-identity,
    K_t [t^d] = (1 - t^2) Id, depend on the tree and t alone, so each is
    taken once per t; only the Gram side is measured at each origin."""
    tol = ctx.tol["kernel"]
    tree = ctx.tree
    out = []
    rooted = ctx.rooted_list[0]
    cnd = kernels_mod.cnd_check(kernels_mod.distance_kernel(tree))
    out.append(_record(ctx, "distance-cnd", rooted.origin, cnd, tol))
    s_q = kernels_mod.dense_s_q(tree)
    for t in (0.1, 0.5, 0.9):
        ptxt = f"t={t:g}"
        k_exp = kernels_mod.exp_kernel(tree, t)
        min_eig = kernels_mod.psd_check(k_exp)
        out.append(
            _record(ctx, "decay-psd", rooted.origin, -min_eig, tol, parameter=ptxt)
        )
        k_t = kernels_mod.deformation_kernel(s_q, t)
        algebraic = _max_entry(k_t @ k_exp - (1 - t * t) * np.eye(tree.n))
        for r in ctx.rooted_list:
            gram = kernels_mod.gram_identity_check(r, t, k_exp)
            residual = worst_of((algebraic, gram))[0]
            out.append(
                _record(ctx, "gram-identity", r.origin, residual, tol, parameter=ptxt)
            )
    return out


def _check_cocycles(ctx: _Context) -> list[CheckRecord]:
    """cocycle-identities on the seeded pair sample, Chasles at the origin
    o, c(x, y) = c(o, y) - c(o, x), among them; cocycle-equivariance on the
    group's generators and the pairs (o, y), whose cocycles cocycle_report
    has built. Chasles carries equivariance from those pairs to every pair,
    and the edge action, a homomorphism, from the generators to every
    element."""
    tol = ctx.tol["identity"]
    tree = ctx.tree
    rooted = ctx.rooted_list[0]
    pairs = _pair_sample(tree.n, COCYCLE_PAIR_CAP, ctx.config.seed)
    rep = kernels_mod.cocycle_report(rooted, pairs)
    gaps = np.concatenate((
        rep.coboundary_residual,
        rep.closed_form_residual,
        rep.antisymmetry_residual,
        np.abs(rep.squared_norm - rep.distance),
        rep.chasles_residual,
    ))
    out = [_record(ctx, "cocycle-identities", rooted.origin, worst_of(gaps)[0], tol)]

    generators = ctx.closure.images[list(ctx.closure.generator_indices)]
    base = [(rooted.origin, y) for y in range(tree.n)]
    gaps = kernels_mod.cocycle_equivariance_residual(tree, generators, base,
                                                     rep.from_origin)
    out.append(
        _record(ctx, "cocycle-equivariance", rooted.origin, worst_of(gaps)[0], tol)
    )
    return out


def _each_origin(check: Callable[[_Context, RootedTree], list[CheckRecord]]):
    """A rooted check as registered: called once per configuration, it
    hands out the check's run at each origin, in origin order."""
    return lambda ctx: [partial(check, ctx, rooted) for rooted in ctx.rooted_list]


# Every registered check is called once per configuration with ctx, as
# perfbench's checks.<name> spans count them. The first _ROOTED_CHECKS
# return their per-origin runs; the rest return their records and run
# after both origins.
_ROOTED_CHECKS = 9
_CHECKS: list[tuple[str, Callable[[_Context], list]]] = [
    ("shift-factorization", _each_origin(_check_shift_factorization)),
    ("deformation-identity", _each_origin(_check_deformation_identity)),
    ("resolvent-series", _each_origin(_check_resolvent_series)),
    ("shift-nilpotency", _each_origin(_check_nilpotency)),
    ("edge-factorization", _each_origin(_check_edge_factorization)),
    ("adjoint-consistency", _each_origin(_check_adjoint_consistency)),
    ("bounded-family", _each_origin(_check_bounded_family)),
    ("unitary-family", _each_origin(_check_unitary_family)),
    ("limit-family", _each_origin(_check_limit_family)),
    ("kernels", _check_kernels),
    ("cocycles", _check_cocycles),
]


def run_check_suite(config: SuiteConfig) -> SuiteReport:
    config.validate()
    tree = resolve_tree(config.tree_spec)
    closure = resolve_group(tree, config.group_spec)
    origins = [0] if tree.n == 1 else [0, tree.n - 1]
    ctx = _Context(
        config=config,
        tree=tree,
        closure=closure,
        rooted_list=[root_at(tree, o) for o in origins],
        tol=config.tolerance_table(),
        adjoint_rng=np.random.default_rng(config.seed),
    )
    results: dict[str, list[CheckRecord]] = {name: [] for name, _ in _CHECKS}
    timings = dict.fromkeys(results, 0.0)
    broken: set[str] = set()

    def run(name, fn):
        if name in broken:
            return
        start = time.perf_counter()
        try:
            results[name].extend(fn())
        except np.linalg.LinAlgError as exc:
            # a numerical breakdown fails its check, at every origin, with
            # one record; the other checks still run
            broken.add(name)
            results[name] = [
                _record(ctx, name, origins[0], math.nan, 0.0, parameter=f"error={exc}")
            ]
        timings[name] += time.perf_counter() - start

    total_start = time.perf_counter()
    runs = [(name, fn(ctx)) for name, fn in _CHECKS[:_ROOTED_CHECKS]]
    # every real R that the rooted checks read: at the grid and extra t, and z
    real = [*config.t_grid, *_extra_ts(config.t_grid),
            *(complex(z).real for z in config.z_grid if not complex(z).imag)]
    # origin-major: every rooted check of one origin, then free its matrices,
    # so no two origins' matrices are ever held at once
    for i, rooted in enumerate(ctx.rooted_list):
        reps_mod._dense_context.sweep(rooted, real)  # one level sweep
        for name, per_origin in runs:
            run(name, per_origin[i])
        reps_mod._dense_context.memos.pop(rooted, None)
    for name, fn in _CHECKS[_ROOTED_CHECKS:]:
        run(name, partial(fn, ctx))
    timings["total"] = time.perf_counter() - total_start
    records = [r for name in results for r in results[name]]
    return SuiteReport(
        schema=1,
        config={
            "tree": config.tree_spec,
            "group": config.group_spec,
            "t_grid": list(config.t_grid),
            "z_grid": [format_complex(z) for z in config.z_grid],
            "seed": config.seed,
            "tolerances": ctx.tol,
            "group_order": len(closure),
            "group_complete": closure.complete,
        },
        records=records,
        aggregate_pass=all(r.passed for r in records),
        timings=timings,
    )


def report_to_json(report: SuiteReport) -> str:
    payload = {
        "schema": report.schema,
        "config": report.config,
        "records": [r.to_dict() for r in report.records],
        "aggregate_pass": report.aggregate_pass,
        "timings": report.timings,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def report_from_json(text: str) -> dict:
    """A parsed report.json; a ValueError unless it is a schema-1 object
    whose config and records carry every key a summary reads."""
    payload = json.loads(text)
    # type() is int: a bool, or a float, equal to 1 is not the integer 1
    if not (isinstance(payload, dict) and type(payload.get("schema")) is int
            and payload["schema"] == 1):
        raise ValueError("not a schema-1 report object")
    config, records = payload.get("config"), payload.get("records")
    if not (isinstance(config, dict) and {"tree", "group_order"} <= config.keys()
            and type(config["group_order"]) is int
            and isinstance(records, list) and "aggregate_pass" in payload):
        raise ValueError("report lacks aggregate_pass, records or config")
    keys = CheckRecord.__dataclass_fields__.keys()
    for i, r in enumerate(records):
        if not (isinstance(r, dict) and keys <= r.keys()
                and type(r["bound"]) in (int, float)  # not a bool, a subclass of int
                and type(r["measured"]) in (int, float, type(None))
                and isinstance(r["passed"], bool)):
            raise ValueError(f"report record {i} lacks a key, a number or a bool")
        if r["passed"] is not _passes(r["measured"], r["bound"]):
            raise ValueError(f"report record {i} passed disagrees with its rule")
    if payload["aggregate_pass"] is not all(r["passed"] for r in records):
        raise ValueError("report aggregate_pass disagrees with its records")
    return payload
