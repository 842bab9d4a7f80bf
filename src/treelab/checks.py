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
    full_automorphism_group,
    parse_automorphisms,
)
from .operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    deformation_inverse,
    deformation_operator,
    format_complex,
    identity_operator,
    materialize,
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

DEFAULT_SEED = 0xA11CE  # pair samples, adjoint vectors, equivariance picks
DEFAULT_T_GRID: tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
)
DEFAULT_Z_GRID: tuple[complex, ...] = (0.5,)
MONOTONE_T_VALUES: tuple[float, ...] = (0.9, 0.99, 0.999)
HOMOMORPHISM_PAIR_CAP = 4096
COCYCLE_PAIR_CAP = 400
EQUIVARIANCE_ELEMENT_CAP = 64


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
                reps_mod._check_t(t)
            for z in self.z_grid:
                reps_mod._check_z(z)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for name, grid in (("t", self.t_grid), ("z", self.z_grid)):
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
    """A generator string (path:N, star:N, regular:q,r, random:N,seed) or
    a tree-file path."""
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
    walks: dict[int, dict] = field(default_factory=dict)  # origin -> _unitary_walk

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


def _per_element(ctx: _Context, measure, rows=None) -> np.ndarray:
    """measure(block) over blocks of rows (by default the closure's image
    arrays), joined along the last axis: one value, or column, per row."""
    rows = ctx.closure.images if rows is None else rows
    return np.concatenate([
        measure(rows[block]) for block in reps_mod.element_blocks(len(rows), ctx.tree.n)
    ], axis=-1)


def _check_shift_factorization(ctx: _Context) -> list[CheckRecord]:
    """Parent shift against adjacency: P P* = Q + p0 and P + P* = S."""
    tol = ctx.tol["identity"]
    s, q = kernels_mod.dense_s_q(ctx.tree)
    out = []
    for rooted in ctx.rooted_list:
        p = materialize(parent_shift_operator(rooted))
        p0 = materialize(origin_projection(rooted))
        out.append(
            _record(
                ctx, "shift-product", rooted.origin,
                _max_entry(p @ p.conj().T - (q + p0)), tol,
            )
        )
        out.append(
            _record(
                ctx, "shift-sum", rooted.origin,
                _max_entry(p + p.conj().T - s), tol,
            )
        )
    return out


def _check_deformation_identity(ctx: _Context) -> list[CheckRecord]:
    """T T* = 1 - t S + t^2 Q and T T^-1 = 1 (the sparse T on the members'
    dense T^-1), and T T* commutes with the vertex action."""
    tol = ctx.tol["identity"]
    s, q = kernels_mod.dense_s_q(ctx.tree)
    n = ctx.tree.n
    out = []
    for rooted in ctx.rooted_list:
        for t in ctx.config.t_grid:
            tmat = reps_mod._dense_context(rooted, deformation_operator, t)
            prod = tmat @ tmat.T
            target = np.eye(n) - t * s + t * t * q
            inverse = reps_mod._dense_context(rooted, deformation_inverse, t)
            gap = np.maximum(_max_entry(prod - target), _max_entry(
                deformation_operator(rooted, t) @ inverse - np.eye(n)
            ))
            out.append(
                _record(
                    ctx, "deformation-product", rooted.origin, gap, tol,
                    parameter=f"t={t:g}",
                )
            )
            # [prod, pi0(g)] holds the entries prod[g x, g y] - prod[x, y]
            worst, worst_g = worst_of(_per_element(ctx, lambda images: _max_entry(
                prod.take(images[:, :, None] * n + images[:, None, :]) - prod
            )))
            out.append(
                _record(
                    ctx, "deformation-commutant", rooted.origin,
                    worst, tol, g=f"max@{worst_g}", parameter=f"t={t:g}",
                )
            )
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


def _check_resolvent_series(ctx: _Context) -> list[CheckRecord]:
    """Path-sum resolvent against the truncated geometric series of the
    sparse zP, applied once to the identity block; the series stops at
    the max depth, beyond which the shift's powers vanish."""
    tol = ctx.tol["resolvent"]
    eye = np.eye(ctx.tree.n)
    out = []
    for rooted in ctx.rooted_list:
        for z in ctx.config.z_grid:
            step = parent_shift_operator(rooted).scale(z) @ eye
            series = _geometric_series(step, rooted.max_depth + 1)
            gap = _max_entry(resolvent_operator(rooted, z) @ eye - series)
            out.append(
                _record(
                    ctx, "resolvent-series", rooted.origin, gap, tol,
                    parameter=f"z={format_complex(z)}",
                )
            )
    return out


def _check_nilpotency(ctx: _Context) -> list[CheckRecord]:
    """shift^(max depth + 1) = 0 exactly, measured as the largest column
    norm: the sparse shift applied once to the identity block, then raised
    by square-and-multiply. Its powers hold 0/1 entries, so no rounding."""
    eye = np.eye(ctx.tree.n)
    out = []
    for rooted in ctx.rooted_list:
        shift = parent_shift_operator(rooted) @ eye
        power = matrix_power(shift, rooted.max_depth + 1)
        norms = np.linalg.norm(power, axis=0)
        out.append(
            _record(ctx, "shift-nilpotency", rooted.origin, worst_of(norms)[0], 0.0)
        )
    return out


def _check_edge_factorization(ctx: _Context) -> list[CheckRecord]:
    """The vertex-to-edge map against the coboundary and the shift."""
    tol = ctx.tol["identity"]
    tree = ctx.tree
    n = tree.n
    out = []
    for rooted in ctx.rooted_list:
        p = materialize(parent_shift_operator(rooted))
        p0 = materialize(origin_projection(rooted))
        f = materialize(parent_edge_operator(rooted))
        b = materialize(coboundary_operator(tree))
        eye_v = np.eye(n)
        # reduced as they are formed, so no two residual matrices coexist
        gaps = {
            "edge-split": _max_entry((eye_v - p) - (b @ f + p0)),
            "edge-cob": _max_entry((eye_v - p) @ f.conj().T - b),
            "edge-isometry": _max_entry(f.conj().T @ f - (eye_v - p0)),
            "edge-coisometry": _max_entry(f @ f.conj().T - np.eye(tree.edge_count)),
        }
        for name, gap in gaps.items():
            out.append(_record(ctx, name, rooted.origin, gap, tol))
        # (1 - shift)^(-1) coboundary = adjoint of the vertex-to-edge map,
        # on every edge basis vector through the z = 1 resolvent
        eye_e = np.eye(tree.edge_count)
        lhs = resolvent_operator(rooted, 1.0) @ (coboundary_operator(tree) @ eye_e)
        gap = _max_entry(lhs - parent_edge_operator(rooted).adjoint() @ eye_e)
        out.append(_record(ctx, "edge-resolvent-adjoint", rooted.origin, gap, tol))
    return out


def _check_adjoint_consistency(ctx: _Context) -> list[CheckRecord]:
    """<A* u, v> = <u, A v> on seeded random vectors for every named
    operator: three pairs each, applied as blocks of three columns."""
    tol = ctx.tol["identity"]
    tree = ctx.tree
    rng = np.random.default_rng(ctx.config.seed)
    out = []
    for rooted in ctx.rooted_list:
        ops = [
            adjacency_operator(tree),
            branching_operator(tree),
            parent_shift_operator(rooted),
            origin_projection(rooted),
            deformation_operator(rooted, 0.7),
            deformation_inverse(rooted, 0.7),
            resolvent_operator(rooted, 0.3 + 0.4j),
            parent_edge_operator(rooted),
            coboundary_operator(tree),
            identity_operator(tree.n),
        ]
        gaps = []
        for op in ops:
            m, n = op.shape
            # per pair: the real and imaginary parts of u, then those of v
            draws = rng.standard_normal((3, 2 * (m + n)))
            u_re, u_im, v_re, v_im = np.split(draws, [m, 2 * m, 2 * m + n], axis=1)
            u, v = (u_re + 1j * u_im).T, (v_re + 1j * v_im).T
            lhs = (np.conj(op.adjoint() @ u) * v).sum(axis=0)
            gaps.append(np.abs(lhs - (np.conj(u) * (op @ v)).sum(axis=0)))
        out.append(
            _record(ctx, "adjoint-consistency", rooted.origin,
                    worst_of(np.concatenate(gaps))[0], tol * tree.n)
        )
    return out


def _check_bounded_family(ctx: _Context) -> list[CheckRecord]:
    """Finite-rank locality, rank bound, norm bound, and the structural
    defect identity for the bounded family, on members built once a block."""
    tol_loc = ctx.tol["unitarity"]
    tol_rank = ctx.tol["rank"]
    slack = ctx.tol["bound_slack"]
    out = []
    for rooted in ctx.rooted_list:
        for z in ctx.config.z_grid:
            ptxt = f"z={format_complex(z)}"

            def measure(images):
                member = reps_mod.dense_bounded_rep(rooted, images, z)
                rep = reps_mod.finite_rank_defect(rooted, images, member, tol_rank)
                # the rank excess is NaN where a singular value is not finite
                excess = rep.rank - (rep.displacement + 1)
                cross = reps_mod.defect_identity_residual(rooted, images, z, member)
                return rep.outside_residual, excess, cross

            local, excess, cross = _per_element(ctx, measure)
            out.append(
                _record(ctx, "defect-locality", rooted.origin, worst_of(local)[0],
                        tol_loc, parameter=ptxt)
            )
            out.append(
                _record(ctx, "defect-rank", rooted.origin, worst_of(excess)[0], 0.0,
                        parameter=ptxt)
            )
            out.append(
                _record(ctx, "defect-identity", rooted.origin, worst_of(cross)[0],
                        tol_loc, parameter=ptxt)
            )
            cert = reps_mod.uniform_bound_certificate(rooted, ctx.closure.images, z)
            out.append(
                _record(
                    ctx, "uniform-bound", rooted.origin, cert.max_norm,
                    cert.bound + slack, g=f"max@{cert.argmax_index}",
                    parameter=ptxt,
                )
            )
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


def _unitary_walk(ctx: _Context, rooted: RootedTree) -> dict:
    """Every measurement of the unitary family at one origin, from one walk
    that builds each member once per element block and t: the grid values,
    then the extras that endpoint-start and limit-monotone need. The grid
    steps are divided by bounds taken first, and each block is reduced by
    worst_of as it ends, so no per-element row outlives it; homomorphism's
    pairs come last. Each record name maps to its worst value (unitarity
    and conjugation-equivalence to one per grid t; limit-monotone to the
    number of broken curves). The walk is the last reader of the origin's
    memoized matrices and frees them."""
    tol_u = ctx.tol["unitarity"]
    grid, n = ctx.config.t_grid, ctx.tree.n
    extra = [t for t in (0.0, *MONOTONE_T_VALUES) if t not in grid]
    bounds = np.reshape([reps_mod.unitary_step_bound(rooted, a, b, 1.0 + tol_u)
                         for a, b in zip(grid, grid[1:])], (-1, 1))

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
        rows = (*unitary, *equiv, start, sphere, np.divide(steps, bounds))
        return np.array([[worst_of(row)[0] for row in rows] + [broken.sum()]]).T

    blocks, k, images = _per_element(ctx, measure), len(grid), ctx.closure.images
    worst = [worst_of(row)[0] for row in blocks[:-1]]
    pairs = _pair_sample(len(images), HOMOMORPHISM_PAIR_CAP, ctx.config.seed)
    hom = _per_element(ctx, lambda pair: reps_mod.homomorphism_residual(
        lambda block: reps_mod.dense_unitary_rep(rooted, block, 0.7),
        images[pair[:, 0]], images[pair[:, 1]],
    ), pairs)
    reps_mod._dense_context.memos.pop(rooted, None)
    return {
        "unitarity": worst[:k],
        "conjugation-equivalence": worst[k:2 * k],
        "homomorphism": worst_of(hom)[0],
        "endpoint-start": worst[2 * k],
        "origin-sphere": worst[2 * k + 1],
        "limit-monotone": blocks[-1].sum(),
        "grid-lipschitz": worst[2 * k + 2],
    }


def _check_unitary_family(ctx: _Context) -> list[CheckRecord]:
    """Unitarity, the rank-one conjugation equivalence, and the homomorphism
    law for the unitary family, from each origin's walk, kept for
    limit-family."""
    out = []
    for rooted in ctx.rooted_list:
        walk = ctx.walks[rooted.origin] = _unitary_walk(ctx, rooted)
        for i, t in enumerate(ctx.config.t_grid):
            for name in ("unitarity", "conjugation-equivalence"):
                out.append(_record(ctx, name, rooted.origin, walk[name][i],
                                   ctx.tol["unitarity"], parameter=f"t={t:g}"))
        out.append(_record(ctx, "homomorphism", rooted.origin, walk["homomorphism"],
                           ctx.tol["homomorphism"], parameter="t=0.7"))
    return out


def _check_limit_family(ctx: _Context) -> list[CheckRecord]:
    """Endpoints, monotone approach to the limit (measured as the number of
    elements whose curve breaks the rule), the origin unit sphere, and the
    grid Lipschitz certificate: each step of each curve over its derived
    bound (reps.unitary_step_bound), so the record's bound is 1. It reads
    unitary-family's walks, and walks again an origin that check lacks."""
    bounds = {"endpoint-start": 0.0, "origin-sphere": ctx.tol["identity"],
              "limit-monotone": 0.0, "grid-lipschitz": 1.0}
    out = []
    for rooted in ctx.rooted_list:
        walk = ctx.walks.get(rooted.origin) or _unitary_walk(ctx, rooted)
        for name, bound in bounds.items():
            out.append(_record(ctx, name, rooted.origin, walk[name], bound))
    return out


def _check_kernels(ctx: _Context) -> list[CheckRecord]:
    """distance-cnd and decay-psd judge only the sign of the kernel they
    are given, so a wrong D that keeps it passes both; gram-identity here,
    cocycle-identities, cocycle-equivariance and defect-locality compare
    D's entries."""
    tol = ctx.tol["kernel"]
    tree = ctx.tree
    out = []
    rooted = ctx.rooted_list[0]
    cnd = kernels_mod.cnd_check(kernels_mod.distance_kernel(tree))
    out.append(_record(ctx, "distance-cnd", rooted.origin, cnd, tol))
    for t in (0.1, 0.5, 0.9):
        ptxt = f"t={t:g}"
        min_eig = kernels_mod.psd_check(kernels_mod.exp_kernel(tree, t))
        out.append(
            _record(ctx, "decay-psd", rooted.origin, -min_eig, tol, parameter=ptxt)
        )
        for r in ctx.rooted_list:
            gram = kernels_mod.gram_identity_check(r, t)
            residual = worst_of((gram.algebraic_residual, gram.gram_residual))[0]
            out.append(
                _record(ctx, "gram-identity", r.origin, residual, tol, parameter=ptxt)
            )
    return out


def _check_cocycles(ctx: _Context) -> list[CheckRecord]:
    tol = ctx.tol["identity"]
    tree = ctx.tree
    rooted = ctx.rooted_list[0]
    vertex_pairs = [
        (int(x), int(y))
        for x, y in _pair_sample(tree.n, COCYCLE_PAIR_CAP, ctx.config.seed)
    ]

    rep = kernels_mod.cocycle_report(rooted, vertex_pairs)
    gaps = np.concatenate((
        rep.coboundary_residual,
        rep.closed_form_residual,
        rep.antisymmetry_residual,
        np.abs(rep.squared_norm - rep.distance),
    ))
    out = [_record(ctx, "cocycle-identities", rooted.origin, worst_of(gaps)[0], tol)]

    images = ctx.closure.images
    if len(images) > EQUIVARIANCE_ELEMENT_CAP:
        rng = np.random.default_rng(ctx.config.seed + 1)
        images = images[rng.integers(0, len(images), size=EQUIVARIANCE_ELEMENT_CAP)]
    gaps = np.concatenate([
        kernels_mod.cocycle_equivariance_residual(tree, g, vertex_pairs[:50])
        for g in images
    ])
    out.append(
        _record(ctx, "cocycle-equivariance", rooted.origin, worst_of(gaps)[0], tol)
    )
    return out


_CHECKS: list[tuple[str, Callable[[_Context], list[CheckRecord]]]] = [
    ("shift-factorization", _check_shift_factorization),
    ("deformation-identity", _check_deformation_identity),
    ("resolvent-series", _check_resolvent_series),
    ("shift-nilpotency", _check_nilpotency),
    ("edge-factorization", _check_edge_factorization),
    ("adjoint-consistency", _check_adjoint_consistency),
    ("bounded-family", _check_bounded_family),
    ("unitary-family", _check_unitary_family),
    ("limit-family", _check_limit_family),
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
    )
    records: list[CheckRecord] = []
    timings: dict[str, float] = {}
    total_start = time.perf_counter()
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            records.extend(fn(ctx))
        except np.linalg.LinAlgError as exc:
            # a numerical breakdown fails its check; the others still run
            records.append(
                _record(ctx, name, origins[0], math.nan, 0.0, parameter=f"error={exc}")
            )
        timings[name] = time.perf_counter() - start
    timings["total"] = time.perf_counter() - total_start
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
    if not isinstance(payload, dict) or payload.get("schema") != 1:
        raise ValueError("not a schema-1 report object")
    config, records = payload.get("config"), payload.get("records")
    if not (isinstance(config, dict) and {"tree", "group_order"} <= config.keys()
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
