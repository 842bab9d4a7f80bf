"""Command-line harness: check suites, homotopy curves, kernels, cocycles.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checks import (
    DEFAULT_T_GRID,
    DEFAULT_Z_GRID,
    ConfigError,
    SuiteConfig,
    report_from_json,
    report_to_json,
    resolve_group,
    resolve_tree,
    run_check_suite,
)
from .kernels import distance_kernel, exp_kernel, geodesic_cocycle, gram_kernel
from .operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    deformation_inverse,
    deformation_operator,
    materialize,
    matrix_to_csv,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_operator,
)
from .reps import curve_to_csv, homotopy_curve
from .spaces import parse_complex
from .trees import root_at

__all__ = ["main"]


def _split_tolerance_flags(argv: list[str]) -> tuple[list[str], dict[str, float]]:
    """Pull out --tol.<name> flags, which argparse cannot declare generically."""
    rest: list[str] = []
    tols: dict[str, float] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            name, eq, value = arg[6:].partition("=")
            if not eq:
                if i + 1 >= len(argv):
                    raise ConfigError(f"flag --tol.{name} needs a value")
                value = argv[i + 1]
                i += 1
            try:
                tols[name] = float(value)
            except ValueError:
                raise ConfigError(f"--tol.{name}: not a number: {value!r}")
        else:
            rest.append(arg)
        i += 1
    return rest, tols


def _parse_grid(text: str, name: str, parse) -> tuple:
    """The comma-separated values of a grid, each parsed and checked in turn."""
    values = tuple(parse(tok.strip()) for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError(f"empty {name} grid")
    return values


def _parse_t_grid(text: str, allow_limit: bool) -> tuple[float, ...]:
    def parse(tok: str) -> float:
        t = float(tok)
        if t == 1.0 and not allow_limit:
            raise ConfigError(
                "t = 1.0 is outside the unitary family's open interval; "
                "it is accepted only where the limit representation is compared"
            )
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"t values must lie in [0, 1], got {t}")
        return t

    return _parse_grid(text, "t", parse)


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail_line(r: dict) -> str:
    """One failed record, as a CheckRecord.to_dict() or a report.json entry
    (where a non-finite measured value is null)."""
    measured = math.nan if r["measured"] is None else r["measured"]
    return (
        f"FAIL {r['check']} tree={r['tree']} origin={r['origin']} "
        f"g={r['g']} param={r['parameter']} "
        f"measured={measured:.3e} bound={r['bound']:.3e}"
    )


def _cmd_check(args, tolerances) -> int:
    config = SuiteConfig(
        tree_spec=args.tree,
        group_spec=args.group,
        t_grid=_parse_t_grid(args.t, allow_limit=False),
        z_grid=_parse_grid(args.z, "z", parse_complex),
        seed=args.seed,
        tolerances=tolerances,
    )
    report = run_check_suite(config)
    out = _out_dir(args.out) / "report.json"
    out.write_text(report_to_json(report), encoding="utf-8")
    failures = [r for r in report.records if not r.passed]
    for r in failures:
        print(_fail_line(r.to_dict()))
    status = "pass" if report.aggregate_pass else "FAIL"
    print(
        f"{status}: {len(report.records) - len(failures)}/{len(report.records)} "
        f"checks passed; report written to {out}"
    )
    return 0 if report.aggregate_pass else 1


def _cmd_curve(args, tolerances) -> int:
    tree = resolve_tree(args.tree)
    closure = resolve_group(tree, args.group)
    if not 0 <= args.g < len(closure):
        raise ConfigError(
            f"group element index {args.g} out of range 0..{len(closure) - 1}"
        )
    rooted = root_at(tree, 0)
    grid = _parse_t_grid(args.t, allow_limit=True)
    curve = homotopy_curve(rooted, closure.images[args.g : args.g + 1], grid)
    out = _out_dir(args.out) / f"curve_{args.g}.csv"
    csv_text = curve_to_csv(grid, curve[:, 0])
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    print(f"curve written to {out}", file=sys.stderr)
    return 0


def _cmd_kernel(args, tolerances) -> int:
    tree = resolve_tree(args.tree)
    if args.kind == "distance":
        kernel = distance_kernel(tree)
    else:
        if args.t is None:
            raise ConfigError(f"kernel kind {args.kind!r} needs --t")
        t_values = _parse_t_grid(args.t, allow_limit=False)
        if len(t_values) != 1:
            raise ConfigError("kernel emission takes exactly one t value")
        if args.kind == "exp":
            kernel = exp_kernel(tree, t_values[0])
        else:
            kernel = gram_kernel(root_at(tree, 0), t_values[0])
    csv_text = matrix_to_csv(kernel.matrix)
    out = _out_dir(args.out) / f"kernel_{args.kind}.csv"
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


OPERATOR_NAMES = (
    "S", "Q", "P", "Pstar", "p0", "T", "Tinv", "F", "Fstar", "b", "resolvent",
)


def _build_named_operator(name: str, rooted, t_text, z_text):
    tree = rooted.tree
    if name == "S":
        return adjacency_operator(tree)
    if name == "Q":
        return branching_operator(tree)
    if name == "P":
        return parent_shift_operator(rooted)
    if name == "Pstar":
        return parent_shift_operator(rooted).adjoint()
    if name == "p0":
        return origin_projection(rooted)
    if name == "F":
        return parent_edge_operator(rooted)
    if name == "Fstar":
        return parent_edge_operator(rooted).adjoint()
    if name == "b":
        return coboundary_operator(tree)
    if name == "resolvent":
        # any complex z is legal for the resolvent on a finite tree
        if z_text is None or "," in z_text:
            raise ConfigError("operator 'resolvent' needs exactly one --z value")
        return resolvent_operator(rooted, parse_complex(z_text))
    if t_text is None:
        raise ConfigError(f"operator {name!r} needs --t")
    t_values = _parse_t_grid(t_text, allow_limit=(name == "T"))
    if len(t_values) != 1:
        raise ConfigError("operator export takes exactly one t value")
    if name == "T":
        return deformation_operator(rooted, t_values[0])
    return deformation_inverse(rooted, t_values[0])


def _cmd_operator(args, tolerances) -> int:
    rooted = root_at(resolve_tree(args.tree), 0)
    op = _build_named_operator(args.name, rooted, args.t, args.z)
    csv_text = matrix_to_csv(materialize(op))
    out = _out_dir(args.out) / f"operator_{args.name}.csv"
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_cocycle(args, tolerances) -> int:
    tree = resolve_tree(args.tree)
    tree.check_vertex(args.x)
    tree.check_vertex(args.y)
    cocycle = geodesic_cocycle(tree, args.x, args.y)
    for sign, (u, v) in cocycle.steps:
        print(f"{'+' if sign > 0 else '-'} {u}-{v}")
    return 0


def _cmd_report(args, tolerances) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise ConfigError(f"no report at {path}")
    payload = report_from_json(path.read_text(encoding="utf-8"))
    records = payload["records"]
    failures = [r for r in records if not r["passed"]]
    for r in failures:
        print(_fail_line(r))
    print(
        f"{'pass' if payload['aggregate_pass'] else 'FAIL'}: "
        f"{len(records) - len(failures)}/{len(records)} checks passed "
        f"(tree={payload['config']['tree']}, group order "
        f"{payload['config']['group_order']})"
    )
    return 0 if payload["aggregate_pass"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Verify operator, representation, and kernel identities "
        "on finite trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tree", required=True,
                       help="generator string (path:N, star:N, regular:q,r, "
                            "random:N,seed) or a tree file")
        p.add_argument("--group", default="auto",
                       help="'auto' for the full automorphism group "
                            "(at most 20000 elements) or a generator file")
        p.add_argument("--seed", type=int, default=0xA11CE)
        p.add_argument("--out", default=".", help="output directory")

    p_check = sub.add_parser("check", help="run the full invariant suite")
    common(p_check)
    p_check.add_argument("--t", default=",".join(f"{t:g}" for t in DEFAULT_T_GRID))
    p_check.add_argument(
        "--z", default=",".join(str(z.real) for z in DEFAULT_Z_GRID)
    )
    p_check.set_defaults(fn=_cmd_check)

    p_curve = sub.add_parser(
        "curve", help="distance-to-limit curve for one group element"
    )
    common(p_curve)
    p_curve.add_argument("--g", type=int, required=True,
                         help="element index in the sorted closure")
    p_curve.add_argument(
        "--t",
        default=",".join(f"{t:g}" for t in DEFAULT_T_GRID) + ",0.999",
        help="grid for the limit comparison (1.0 denotes the limit itself)",
    )
    p_curve.set_defaults(fn=_cmd_curve)

    p_kernel = sub.add_parser("kernel", help="emit a kernel matrix as CSV")
    common(p_kernel)
    p_kernel.add_argument("--kind", choices=("distance", "exp", "gram"),
                          required=True)
    p_kernel.add_argument("--t", default=None)
    p_kernel.set_defaults(fn=_cmd_kernel)

    p_op = sub.add_parser("operator", help="materialize a named operator as CSV")
    common(p_op)
    p_op.add_argument("--name", choices=OPERATOR_NAMES, required=True)
    p_op.add_argument("--t", default=None,
                      help="deformation parameter for T / Tinv")
    p_op.add_argument("--z", default=None,
                      help="resolvent parameter")
    p_op.set_defaults(fn=_cmd_operator)

    p_coc = sub.add_parser("cocycle", help="print the signed geodesic edge list")
    common(p_coc)
    p_coc.add_argument("--x", type=int, required=True)
    p_coc.add_argument("--y", type=int, required=True)
    p_coc.set_defaults(fn=_cmd_cocycle)

    p_rep = sub.add_parser("report", help="summarize an existing report.json")
    p_rep.add_argument("path")
    p_rep.set_defaults(fn=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, tolerances = _split_tolerance_flags(argv)
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help
            return int(exc.code or 0)
        return args.fn(args, tolerances)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
