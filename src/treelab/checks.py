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
    worst_of,
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
) -> CheckRecord:
    """A record passes exactly when measured is finite and at most bound."""
    measured = float(measured)
    return CheckRecord(
        check=check,
        tree=ctx.label,
        origin=origin,
        g=g,
        parameter=parameter,
        measured=measured,
        bound=float(bound),
        passed=math.isfinite(measured) and measured <= bound,
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
            # [prod, pi0(g)]: rows moved by g against columns gathered by g
            worst, worst_g = worst_of(np.fromiter((
                _max_entry(reps_mod._row_permuted(prod, g) - prod[:, list(g.images)])
                for g in ctx.closure
            ), float))
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
            gaps = []
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
                gaps.append(kernels_mod.max_abs(diff))
            out.append(
                _record(
                    ctx, "resolvent-series", rooted.origin, worst_of(gaps)[0], tol,
                    parameter=f"z={format_complex(z)}",
                )
            )
    return out


def _check_nilpotency(ctx: _Context) -> list[CheckRecord]:
    """shift^(max depth + 1) = 0 exactly."""
    out = []
    for rooted in ctx.rooted_list:
        shift = parent_shift_operator(rooted)
        norms = []
        for x in range(ctx.tree.n):
            v = VertexVector(ctx.tree.n, {x: 1})
            for _ in range(rooted.max_depth + 1):
                v = shift.apply(v)
                if len(v) == 0:
                    break
            norms.append(v.norm())
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
        cob = coboundary_operator(tree)
        gaps = []
        for j in range(tree.edge_count):
            e = cob.domain.basis_vector(j)
            lhs = resolvent_apply(rooted, 1.0, cob.apply(e))
            gaps.append(kernels_mod.max_abs(lhs.sub(fstar.apply(e))))
        out.append(
            _record(ctx, "edge-resolvent-adjoint", rooted.origin, worst_of(gaps)[0],
                    tol)
        )
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
        gaps = []
        for op in ops:
            for _ in range(3):
                u = random_vec(op.codomain)
                v = random_vec(op.domain)
                gaps.append(abs(op.adjoint_apply(u).inner(v) - u.inner(op.apply(v))))
        out.append(
            _record(ctx, "adjoint-consistency", rooted.origin, worst_of(gaps)[0],
                    tol * tree.n)
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
            # per-element values go in arrays: a DefectReport or a Python
            # float kept per element raises peak memory with |G|
            size = len(ctx.closure)
            local, excess, cross = (np.empty(size) for _ in range(3))
            for i, g in enumerate(ctx.closure):
                rep = reps_mod.finite_rank_defect(
                    rooted, g, "bounded", z, rank_threshold=tol_rank
                )
                local[i] = rep.outside_residual
                # NaN when the defect has a non-finite singular value
                excess[i] = rep.rank - (rep.displacement + 1)
                cross[i] = rep.cross_check_residual
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
            cert = reps_mod.uniform_bound_certificate(rooted, ctx.closure, z)
            out.append(
                _record(
                    ctx, "uniform-bound", rooted.origin, cert.max_norm,
                    cert.bound + slack, g=f"max@{cert.argmax_index}",
                    parameter=ptxt,
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
            unitary, equiv = np.empty(len(ctx.closure)), np.empty(len(ctx.closure))
            for i, g in enumerate(ctx.closure):
                rep = reps_mod.dense_unitary_rep(rooted, g, t)
                unitary[i] = _max_entry(rep.conj().T @ rep - np.eye(n))
                equiv[i] = reps_mod.conjugation_equivalence_residual(rooted, g, t)
            out.append(
                _record(ctx, "unitarity", rooted.origin, worst_of(unitary)[0], tol_u,
                        parameter=ptxt)
            )
            out.append(
                _record(ctx, "conjugation-equivalence", rooted.origin,
                        worst_of(equiv)[0], tol_u, parameter=ptxt)
            )
        hom = np.fromiter((
            reps_mod.homomorphism_residual(rooted, g, h, "unitary", 0.7)
            for g, h in pairs
        ), float)
        out.append(
            _record(ctx, "homomorphism", rooted.origin, worst_of(hom)[0], tol_h,
                    parameter="t=0.7")
        )
    return out


def _approaches_limit(values: list[float], d: int, tol: float) -> bool:
    """Whether the distances to the limit at MONOTONE_T_VALUES follow the
    rule for origin displacement d: within tol of zero when d = 0, else
    falling at every step. Distances between unitaries saturate near 2 for
    very deep displacements, so strictness is only demanded where the curve
    is guaranteed to separate (d <= 6); beyond that a step may not rise by
    more than 1e-9. A NaN distance breaks the rule."""
    if d == 0:
        return all(v <= tol for v in values)
    drops = [b - a for a, b in zip(values, values[1:])]
    if d <= 6:
        return all(step < 0 for step in drops)
    return all(step <= 1e-9 for step in drops)


def _check_limit_family(ctx: _Context) -> list[CheckRecord]:
    """Endpoints, monotone approach to the limit (measured as the number of
    elements whose curve breaks the rule), the origin unit sphere, and the
    grid Lipschitz certificate."""
    tol_id = ctx.tol["identity"]
    tol_u = ctx.tol["unitarity"]
    grid = ctx.config.t_grid
    out = []
    for rooted in ctx.rooted_list:
        # one value per element, in arrays, as in the bounded family
        start, sphere, ratios = (np.empty(len(ctx.closure)) for _ in range(3))
        broken = 0
        for j, g in enumerate(ctx.closure):
            pi0 = reps_mod.dense_pi0(ctx.tree.n, g)
            start[j] = _max_entry(reps_mod.dense_unitary_rep(rooted, g, 0.0) - pi0)
            sphere[j] = np.max(
                [reps_mod.origin_sphere_residual(rooted, g, t) for t in grid]
            )
            reps = [reps_mod.dense_unitary_rep(rooted, g, t) for t in grid]
            ratios[j] = np.max([
                float(np.linalg.norm(reps[i + 1] - reps[i], 2))
                / (LIPSCHITZ_FACTOR * (grid[i + 1] - grid[i]))
                for i in range(len(grid) - 1)
            ], initial=0.0)
            values = [
                p.dist_to_limit
                for p in reps_mod.homotopy_curve(rooted, g, MONOTONE_T_VALUES)
            ]
            broken += not _approaches_limit(
                values, reps_mod.displacement(rooted, g), tol_u
            )
        out.append(
            _record(ctx, "endpoint-start", rooted.origin, worst_of(start)[0], 0.0)
        )
        out.append(
            _record(ctx, "origin-sphere", rooted.origin, worst_of(sphere)[0], tol_id)
        )
        out.append(_record(ctx, "limit-monotone", rooted.origin, broken, 0.0))
        out.append(
            _record(ctx, "grid-lipschitz", rooted.origin, worst_of(ratios)[0], 1.0)
        )
    return out


def _check_kernels(ctx: _Context) -> list[CheckRecord]:
    tol = ctx.tol["kernel"]
    tree = ctx.tree
    out = []
    rooted = ctx.rooted_list[0]
    cnd = kernels_mod.cnd_check(kernels_mod.distance_kernel(tree), seed=ctx.config.seed)
    out.append(_record(ctx, "distance-cnd", rooted.origin, cnd.max_form, tol))
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
    n = tree.n
    rooted = ctx.rooted_list[0]
    if n * n <= COCYCLE_PAIR_CAP:
        vertex_pairs = [(x, y) for x in range(n) for y in range(n)]
    else:
        rng = np.random.default_rng(ctx.config.seed)
        idx = rng.integers(0, n, size=(COCYCLE_PAIR_CAP, 2))
        vertex_pairs = [(int(x), int(y)) for x, y in idx]

    gaps = []
    for x, y in vertex_pairs:
        rep = kernels_mod.cocycle_report(rooted, x, y)
        gaps.extend((
            rep.coboundary_residual,
            rep.closed_form_residual,
            rep.antisymmetry_residual,
            abs(rep.squared_norm - rep.distance),
        ))
    out = [_record(ctx, "cocycle-identities", rooted.origin, worst_of(gaps)[0], tol)]

    elements = list(ctx.closure)
    if len(elements) > EQUIVARIANCE_ELEMENT_CAP:
        rng = np.random.default_rng(ctx.config.seed + 1)
        picks = rng.integers(0, len(elements), size=EQUIVARIANCE_ELEMENT_CAP)
        elements = [elements[int(i)] for i in picks]
    gaps = np.fromiter((
        kernels_mod.cocycle_equivariance_residual(tree, g, x, y)
        for g in elements
        for x, y in vertex_pairs[:50]
    ), float)
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
    payload = json.loads(text)
    if payload.get("schema") != 1:
        raise ValueError(f"unsupported report schema {payload.get('schema')!r}")
    return payload
