"""Registered invariant checks and the machine-readable suite report.

One table of default tolerances feeds every check; each entry can be
overridden from the command line. A suite run produces a versioned JSON
report whose content is a pure function of the configuration (timings are
kept in a separate field so reports stay byte-comparable).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import kernels as kernels_mod
from . import reps as reps_mod
from .groups import (
    Automorphism,
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
    identity_operator,
    materialize,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_apply,
    resolvent_operator,
    vertex_space,
)
from .spaces import VertexVector, format_complex
from .trees import RootedTree, Tree, is_tree_spec, parse_tree, root_at, tree_from_spec

__all__ = [
    "TOLERANCES",
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
    "rank": 1e-9,            # numerical-rank threshold on singular values
    "kernel": 1e-10,
    "resolvent": 1e-13,      # path-sum vs series oracle
    "bound_slack": 1e-8,     # additive slack on the uniform norm bound
}

DEFAULT_T_GRID: tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99,
)
DEFAULT_Z_GRID: tuple[complex, ...] = (0.5,)
MONOTONE_T_VALUES: tuple[float, ...] = (0.9, 0.99, 0.999)
LIPSCHITZ_FACTOR = 10.0
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
    seed: int = kernels_mod.CND_SEED
    tolerances: dict[str, float] = field(default_factory=dict)
    out_dir: str = "."

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
        for t in self.t_grid:
            if not 0.0 <= t < 1.0:
                raise ConfigError(
                    f"t grid values must lie in [0, 1) for the unitary family; "
                    f"got {t} (t = 1 is only meaningful as the limit itself)"
                )
        for z in self.z_grid:
            if abs(z) >= 1.0:
                raise ConfigError(f"z grid values need |z| < 1, got {z}")
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
        return {
            "check": self.check,
            "tree": self.tree,
            "origin": self.origin,
            "g": self.g,
            "parameter": self.parameter,
            "measured": self.measured,
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
    """'auto' (full group, small trees only) or an automorphism file whose
    lines are taken as generators and closed under composition."""
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
    return close_group(tree, generators)


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

    @property
    def label(self) -> str:
        return self.config.tree_spec


def _record(
    ctx: _Context,
    check: str,
    origin: int,
    measured: float,
    bound: float,
    g: str = "-",
    parameter: str = "-",
    passed: Optional[bool] = None,
) -> CheckRecord:
    return CheckRecord(
        check=check,
        tree=ctx.label,
        origin=origin,
        g=g,
        parameter=parameter,
        measured=float(measured),
        bound=float(bound),
        passed=bool(measured <= bound) if passed is None else passed,
    )


def _max_entry(matrix: np.ndarray) -> float:
    return float(np.abs(matrix).max()) if matrix.size else 0.0


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
    """T T* = 1 - t S + t^2 Q, and T T* commutes with the vertex action."""
    tol = ctx.tol["identity"]
    s, q = kernels_mod.dense_s_q(ctx.tree)
    n = ctx.tree.n
    out = []
    for rooted in ctx.rooted_list:
        for t in ctx.config.t_grid:
            tmat = materialize(deformation_operator(rooted, t))
            prod = (tmat @ tmat.conj().T).real
            target = np.eye(n) - t * s + t * t * q
            out.append(
                _record(
                    ctx, "deformation-product", rooted.origin,
                    _max_entry(prod - target), tol, parameter=f"t={t:g}",
                )
            )
            worst = 0.0
            worst_g = 0
            for i, g in enumerate(ctx.closure):
                ginv = list(g.inverse().images)
                gim = list(g.images)
                # [prod, pi0(g)] via row/column gathers
                comm = prod[ginv, :] - prod[:, gim]
                r = _max_entry(comm)
                if r > worst:
                    worst, worst_g = r, i
            out.append(
                _record(
                    ctx, "deformation-commutant", rooted.origin,
                    worst, tol, g=f"max@{worst_g}", parameter=f"t={t:g}",
                )
            )
    return out


def _check_resolvent_series(ctx: _Context) -> list[CheckRecord]:
    """Path-sum resolvent against the truncated geometric series."""
    tol = ctx.tol["resolvent"]
    out = []
    for rooted in ctx.rooted_list:
        shift = parent_shift_operator(rooted)
        for z in ctx.config.z_grid:
            worst = 0.0
            for x in range(ctx.tree.n):
                e = VertexVector(ctx.tree.n, {x: 1})
                series = e
                term = e
                for _ in range(rooted.max_depth):
                    term = shift.apply(term).scale(z)
                    if len(term) == 0:
                        break
                    series = series.add(term)
                diff = resolvent_apply(rooted, z, e).sub(series)
                worst = max(worst, kernels_mod.max_abs(diff))
            out.append(
                _record(
                    ctx, "resolvent-series", rooted.origin, worst, tol,
                    parameter=f"z={format_complex(z)}",
                )
            )
    return out


def _check_nilpotency(ctx: _Context) -> list[CheckRecord]:
    """shift^(max depth + 1) = 0 exactly."""
    out = []
    for rooted in ctx.rooted_list:
        shift = parent_shift_operator(rooted)
        worst = 0.0
        for x in range(ctx.tree.n):
            v = VertexVector(ctx.tree.n, {x: 1})
            for _ in range(rooted.max_depth + 1):
                v = shift.apply(v)
                if len(v) == 0:
                    break
            worst = max(worst, v.norm())
        out.append(
            _record(ctx, "shift-nilpotency", rooted.origin, worst, 0.0,
                    passed=worst == 0.0)
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
        checks = {
            "edge-split": (eye_v - p) - (b @ f + p0),
            "edge-cob": (eye_v - p) @ f.conj().T - b,
            "edge-isometry": f.conj().T @ f - (eye_v - p0),
            "edge-coisometry": f @ f.conj().T - np.eye(tree.edge_count),
        }
        for name, residual in checks.items():
            out.append(_record(ctx, name, rooted.origin, _max_entry(residual), tol))
        # (1 - shift)^(-1) coboundary = adjoint of the vertex-to-edge map,
        # column by column through the z = 1 resolvent.
        fstar = parent_edge_operator(rooted).adjoint()
        worst = 0.0
        cob = coboundary_operator(tree)
        for j in range(tree.edge_count):
            e = cob.domain.basis_vector(j)
            lhs = resolvent_apply(rooted, 1.0, cob.apply(e))
            diff = lhs.sub(fstar.apply(e))
            worst = max(worst, kernels_mod.max_abs(diff))
        out.append(_record(ctx, "edge-resolvent-adjoint", rooted.origin, worst, tol))
    return out


def _check_adjoint_consistency(ctx: _Context) -> list[CheckRecord]:
    """<A* u, v> = <u, A v> on seeded random vectors for every named operator."""
    tol = ctx.tol["identity"]
    tree = ctx.tree
    rng = np.random.default_rng(ctx.config.seed)

    def random_vec(space):
        re = rng.standard_normal(space.dim)
        im = rng.standard_normal(space.dim)
        cls = type(space.zero())
        return cls(space.dim, {i: complex(re[i], im[i]) for i in range(space.dim)})

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
            identity_operator(vertex_space(tree)),
        ]
        worst = 0.0
        for op in ops:
            for _ in range(3):
                u = random_vec(op.codomain)
                v = random_vec(op.domain)
                lhs = op.adjoint_apply(u).inner(v)
                rhs = u.inner(op.apply(v))
                worst = max(worst, abs(lhs - rhs))
        scale = max(1.0, float(tree.n))
        out.append(
            _record(ctx, "adjoint-consistency", rooted.origin, worst, tol * scale)
        )
    return out


def _check_bounded_family(ctx: _Context) -> list[CheckRecord]:
    """Finite-rank locality, rank bound, norm bound, and the structural
    defect identity for the bounded family."""
    tol_loc = ctx.tol["unitarity"]
    tol_rank = ctx.tol["rank"]
    slack = ctx.tol["bound_slack"]
    out = []
    for rooted in ctx.rooted_list:
        for z in ctx.config.z_grid:
            ptxt = f"z={format_complex(z)}"
            worst_out = 0.0
            worst_rank = 0
            worst_cross = 0.0
            rank_ok = True
            for g in ctx.closure:
                rep = reps_mod.finite_rank_defect(
                    rooted, g, "bounded", z, rank_threshold=tol_rank
                )
                worst_out = max(worst_out, rep.outside_residual, rep.range_residual)
                worst_cross = max(worst_cross, rep.cross_check_residual or 0.0)
                excess = rep.rank - (rep.displacement + 1)
                worst_rank = max(worst_rank, excess)
                rank_ok = rank_ok and excess <= 0
            out.append(
                _record(ctx, "defect-locality", rooted.origin, worst_out, tol_loc,
                        parameter=ptxt)
            )
            out.append(
                _record(ctx, "defect-rank", rooted.origin, float(worst_rank), 0.0,
                        parameter=ptxt, passed=rank_ok)
            )
            out.append(
                _record(ctx, "defect-identity", rooted.origin, worst_cross, tol_loc,
                        parameter=ptxt)
            )
            cert = reps_mod.uniform_bound_certificate(
                rooted, ctx.closure, z, slack=slack
            )
            out.append(
                _record(
                    ctx, "uniform-bound", rooted.origin, cert.max_norm,
                    cert.bound + slack, g=f"max@{cert.argmax_index}",
                    parameter=ptxt, passed=cert.passed,
                )
            )
    return out


def _pair_sample(ctx: _Context) -> list[tuple[Automorphism, Automorphism]]:
    elements = list(ctx.closure)
    if len(elements) ** 2 <= HOMOMORPHISM_PAIR_CAP:
        return [(g, h) for g in elements for h in elements]
    rng = np.random.default_rng(ctx.config.seed)
    idx = rng.integers(0, len(elements), size=(HOMOMORPHISM_PAIR_CAP, 2))
    return [(elements[i], elements[j]) for i, j in idx]


def _check_unitary_family(ctx: _Context) -> list[CheckRecord]:
    """Unitarity, the rank-one conjugation equivalence, and the
    homomorphism law for the unitary family."""
    tol_u = ctx.tol["unitarity"]
    tol_h = ctx.tol["homomorphism"]
    n = ctx.tree.n
    pairs = _pair_sample(ctx)
    out = []
    for rooted in ctx.rooted_list:
        for t in ctx.config.t_grid:
            ptxt = f"t={t:g}"
            worst_unitary = 0.0
            worst_equiv = 0.0
            for g in ctx.closure:
                rep = reps_mod.dense_unitary_rep(rooted, g, t)
                worst_unitary = max(
                    worst_unitary,
                    _max_entry(rep.conj().T @ rep - np.eye(n)),
                )
                worst_equiv = max(
                    worst_equiv,
                    reps_mod.conjugation_equivalence_residual(rooted, g, t),
                )
            out.append(
                _record(ctx, "unitarity", rooted.origin, worst_unitary, tol_u,
                        parameter=ptxt)
            )
            out.append(
                _record(ctx, "conjugation-equivalence", rooted.origin,
                        worst_equiv, tol_u, parameter=ptxt)
            )
        worst_hom = 0.0
        for g, h in pairs:
            worst_hom = max(
                worst_hom,
                reps_mod.homomorphism_residual(rooted, g, h, "unitary", 0.7),
            )
        out.append(
            _record(ctx, "homomorphism", rooted.origin, worst_hom, tol_h,
                    parameter="t=0.7")
        )
    return out


def _check_limit_family(ctx: _Context) -> list[CheckRecord]:
    """Endpoints, monotone approach to the limit, the origin unit sphere,
    and the grid Lipschitz certificate."""
    tol_id = ctx.tol["identity"]
    tol_u = ctx.tol["unitarity"]
    grid = ctx.config.t_grid
    out = []
    for rooted in ctx.rooted_list:
        worst_t0 = 0.0
        worst_sphere = 0.0
        worst_step_ratio = 0.0
        monotone_ok = True
        worst_monotone = 0.0
        for g in ctx.closure:
            pi0 = reps_mod.dense_pi0(ctx.tree.n, g)
            worst_t0 = max(
                worst_t0, _max_entry(reps_mod.dense_unitary_rep(rooted, g, 0.0) - pi0)
            )
            for t in grid:
                worst_sphere = max(
                    worst_sphere, reps_mod.origin_sphere_residual(rooted, g, t)
                )
            reps = [reps_mod.dense_unitary_rep(rooted, g, t) for t in grid]
            for i in range(len(grid) - 1):
                step = grid[i + 1] - grid[i]
                dist = float(np.linalg.norm(reps[i + 1] - reps[i], 2))
                worst_step_ratio = max(
                    worst_step_ratio, dist / (LIPSCHITZ_FACTOR * step)
                )
            mono = reps_mod.homotopy_curve(rooted, g, MONOTONE_T_VALUES)
            values = [p.dist_to_limit for p in mono]
            d = reps_mod.displacement(rooted, g)
            if d == 0:
                worst_monotone = max(worst_monotone, max(values))
                monotone_ok = monotone_ok and max(values) <= tol_u
            else:
                # distances between unitaries saturate near 2 for very deep
                # displacements, so strictness is only demanded where the
                # curve is guaranteed to separate
                drops = [b - a for a, b in zip(values, values[1:])]
                if d <= 6:
                    monotone_ok = monotone_ok and all(step < 0 for step in drops)
                else:
                    monotone_ok = monotone_ok and all(step <= 1e-9 for step in drops)
                worst_monotone = max(worst_monotone, max(drops))
        out.append(
            _record(ctx, "endpoint-start", rooted.origin, worst_t0, 0.0,
                    passed=worst_t0 == 0.0)
        )
        out.append(
            _record(ctx, "origin-sphere", rooted.origin, worst_sphere, tol_id)
        )
        out.append(
            _record(ctx, "limit-monotone", rooted.origin, worst_monotone, 0.0,
                    passed=monotone_ok)
        )
        out.append(
            _record(ctx, "grid-lipschitz", rooted.origin, worst_step_ratio, 1.0)
        )
    return out


def _check_kernels(ctx: _Context) -> list[CheckRecord]:
    tol = ctx.tol["kernel"]
    tree = ctx.tree
    out = []
    rooted = ctx.rooted_list[0]
    cnd = kernels_mod.cnd_check(
        kernels_mod.distance_kernel(tree), seed=ctx.config.seed, tolerance=tol
    )
    out.append(
        _record(ctx, "distance-cnd", rooted.origin, cnd.max_form, tol,
                passed=cnd.passed)
    )
    for t in (0.1, 0.5, 0.9):
        ptxt = f"t={t:g}"
        psd = kernels_mod.psd_check(kernels_mod.exp_kernel(tree, t), tolerance=tol)
        out.append(
            _record(ctx, "decay-psd", rooted.origin, -psd.min_eigenvalue, tol,
                    parameter=ptxt, passed=psd.passed)
        )
        for r in ctx.rooted_list:
            gram = kernels_mod.gram_identity_check(r, t, tolerance=tol)
            out.append(
                _record(ctx, "gram-identity", r.origin,
                        max(gram.algebraic_residual, gram.gram_residual), tol,
                        parameter=ptxt, passed=gram.passed)
            )
    return out


def _check_cocycles(ctx: _Context) -> list[CheckRecord]:
    tol = ctx.tol["identity"]
    tree = ctx.tree
    n = tree.n
    rooted = ctx.rooted_list[0]
    if n * n <= COCYCLE_PAIR_CAP:
        vertex_pairs = [(x, y) for x in range(n) for y in range(n)]
    else:
        rng = np.random.default_rng(ctx.config.seed)
        idx = rng.integers(0, n, size=(COCYCLE_PAIR_CAP, 2))
        vertex_pairs = [(int(x), int(y)) for x, y in idx]

    worst = 0.0
    norm_ok = True
    for x, y in vertex_pairs:
        rep = kernels_mod.cocycle_report(rooted, x, y, tolerance=tol)
        norm_ok = norm_ok and rep.squared_norm == rep.distance
        worst = max(
            worst,
            rep.coboundary_residual,
            rep.closed_form_residual,
            rep.antisymmetry_residual,
        )
    out = [
        _record(ctx, "cocycle-identities", rooted.origin, worst, tol,
                passed=norm_ok and worst <= tol)
    ]

    elements = list(ctx.closure)
    if len(elements) > EQUIVARIANCE_ELEMENT_CAP:
        rng = np.random.default_rng(ctx.config.seed + 1)
        picks = rng.integers(0, len(elements), size=EQUIVARIANCE_ELEMENT_CAP)
        elements = [elements[int(i)] for i in picks]
    worst_eq = 0.0
    for g in elements:
        for x, y in vertex_pairs[: min(len(vertex_pairs), 50)]:
            worst_eq = max(
                worst_eq, kernels_mod.cocycle_equivariance_residual(tree, g, x, y)
            )
    out.append(
        _record(ctx, "cocycle-equivariance", rooted.origin, worst_eq, tol)
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
        records.extend(fn(ctx))
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
    return json.dumps(payload, indent=2) + "\n"


def report_from_json(text: str) -> dict:
    payload = json.loads(text)
    if payload.get("schema") != 1:
        raise ValueError(f"unsupported report schema {payload.get('schema')!r}")
    return payload
