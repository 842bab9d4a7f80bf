"""Command-line harness: check suites, homotopy curves, kernels, cocycles.

Each subcommand declares exactly the flags it reads, and none may be
abbreviated. Only `check` takes `--seed` and the `--tol.<name>` overrides
of `checks.TOLERANCES`, which `treelab check --help` lists.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checks import (
    DEFAULT_SEED,
    DEFAULT_T_GRID,
    DEFAULT_Z_GRID,
    MONOTONE_T_VALUES,
    TOLERANCES,
    ConfigError,
    SuiteConfig,
    report_from_json,
    report_to_json,
    resolve_group,
    resolve_tree,
    run_check_suite,
)
from .groups import close_group
from .kernels import distance_kernel, exp_kernel, gram_kernel
from .operators import NAMED_OPERATORS, materialize, matrix_to_csv, parse_complex
from .reps import curve_to_csv, homotopy_curve
from .trees import TREE_SPEC_FORMS, root_at

__all__ = ["main"]


def _parse_grid(text: str, name: str, parse) -> tuple:
    """The comma-separated values of a grid; the code that uses it checks them."""
    values = tuple(parse(tok.strip()) for tok in text.split(",") if tok.strip())
    if not values:
        raise ConfigError(f"empty {name} grid")
    return values


def _grid_text(values) -> str:
    """A grid as the comma-separated text that _parse_grid reads back."""
    return ",".join(f"{t:g}" for t in values)


def _parameter(owner: str, flag: str, value, read: bool) -> None:
    """Refuse a parameter that owner does not read, or lacks one it does."""
    if read and value is None:
        raise ConfigError(f"{owner} needs --{flag}")
    if not read and value is not None:
        raise ConfigError(f"{owner} takes no --{flag}")


def _out_dir(path_text: str) -> Path:
    out = Path(path_text)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summarize(payload: dict, where: str) -> int:
    """Print a report payload's failed records (a non-finite measured value
    is null there) and its pass|FAIL tally, ending with where; return the
    exit code it calls for."""
    records = payload["records"]
    failures = [r for r in records if not r["passed"]]
    for r in failures:
        measured = math.nan if r["measured"] is None else r["measured"]
        print(
            f"FAIL {r['check']} tree={r['tree']} origin={r['origin']} "
            f"g={r['g']} param={r['parameter']} "
            f"measured={measured:.3e} bound={r['bound']:.3e}"
        )
    print(
        f"{'pass' if payload['aggregate_pass'] else 'FAIL'}: "
        f"{len(records) - len(failures)}/{len(records)} checks passed{where}"
    )
    return 0 if payload["aggregate_pass"] else 1


def _cmd_check(args) -> int:
    config = SuiteConfig(
        tree_spec=args.tree,
        group_spec=args.group,
        t_grid=_parse_grid(args.t, "t", float),
        z_grid=_parse_grid(args.z, "z", parse_complex),
        seed=args.seed,
        tolerances={
            k[len("tol."):]: v for k, v in vars(args).items()
            if k.startswith("tol.") and v is not None
        },
    )
    text = report_to_json(run_check_suite(config))
    out = _out_dir(args.out) / "report.json"
    out.write_text(text, encoding="utf-8")
    return _summarize(report_from_json(text), f"; report written to {out}")


def _cmd_curve(args) -> int:
    tree = resolve_tree(args.tree)
    images = close_group(tree, resolve_group(tree, args.group))
    if not 0 <= args.g < len(images):
        raise ConfigError(
            f"group element index {args.g} out of range 0..{len(images) - 1}"
        )
    rooted = root_at(tree, 0)
    grid = _parse_grid(args.t, "t", float)
    curve = homotopy_curve(rooted, images[args.g : args.g + 1], grid)
    out = _out_dir(args.out) / f"curve_{args.g}.csv"
    csv_text = curve_to_csv(grid, curve[:, 0])
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    print(f"curve written to {out}", file=sys.stderr)
    return 0


def _cmd_kernel(args) -> int:
    _parameter(f"kernel kind {args.kind!r}", "t", args.t, args.kind != "distance")
    tree = resolve_tree(args.tree)
    if args.kind == "distance":
        kernel = distance_kernel(tree)
    elif args.kind == "exp":
        kernel = exp_kernel(tree, args.t)
    else:
        kernel = gram_kernel(root_at(tree, 0), args.t)
    csv_text = matrix_to_csv(kernel)
    out = _out_dir(args.out) / f"kernel_{args.kind}.csv"
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_operator(args) -> int:
    rooted = root_at(resolve_tree(args.tree), 0)
    _parameter(f"operator {args.name!r}", "t", args.t, args.name in ("T", "Tinv"))
    _parameter(f"operator {args.name!r}", "z", args.z, args.name == "resolvent")
    # Pstar and Fstar are the adjoints of the table's P and F
    op = NAMED_OPERATORS[args.name.removesuffix("star")](rooted, args.t, args.z)
    if args.name.endswith("star"):
        op = op.adjoint()
    csv_text = matrix_to_csv(materialize(op))
    out = _out_dir(args.out) / f"operator_{args.name}.csv"
    out.write_text(csv_text, encoding="utf-8")
    sys.stdout.write(csv_text)
    return 0


def _cmd_cocycle(args) -> int:
    walk = resolve_tree(args.tree).path(args.x, args.y)
    for u, v in zip(walk, walk[1:]):
        print(f"{'+' if u < v else '-'} {min(u, v)}-{max(u, v)}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise ConfigError(f"no report at {path}")
    payload = report_from_json(path.read_text(encoding="utf-8"))
    config = payload["config"]
    return _summarize(
        payload, f" (tree={config['tree']}, group order {config['group_order']})"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelab",
        description="Verify operator, representation, and kernel identities "
        "on finite trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--tree": dict(required=True,
                       help=f"generator string ({', '.join(TREE_SPEC_FORMS)}) "
                            "or a tree file"),
        "--group": dict(default="auto",
                        help="'auto' for the full automorphism group or a "
                             "generator file (curve: at most 20000 elements)"),
        "--out": dict(default=".", help="output directory"),
    }

    def command(name, fn, help, *flags):
        # allow_abbrev=False: --tol.ident must not stand for --tol.identity
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        return p

    p_check = command("check", _cmd_check, "run the full invariant suite",
                      "--tree", "--group", "--out")
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--t", default=_grid_text(DEFAULT_T_GRID))
    p_check.add_argument(
        "--z", default=",".join(str(z.real) for z in DEFAULT_Z_GRID)
    )
    for name, value in TOLERANCES.items():
        p_check.add_argument(f"--tol.{name}", type=float, metavar="TOL",
                             help=f"override the tolerance (default {value:g})")

    p_curve = command("curve", _cmd_curve,
                      "distance-to-limit curve for one group element",
                      "--tree", "--group", "--out")
    p_curve.add_argument("--g", type=int, required=True,
                         help="element index in the sorted closure")
    p_curve.add_argument(
        "--t",
        default=_grid_text((*DEFAULT_T_GRID, MONOTONE_T_VALUES[-1])),
        help="grid for the limit comparison (1.0 denotes the limit itself)",
    )

    p_kernel = command("kernel", _cmd_kernel, "emit a kernel matrix as CSV",
                       "--tree", "--out")
    p_kernel.add_argument("--kind", choices=("distance", "exp", "gram"),
                          required=True)
    p_kernel.add_argument("--t", type=float, help="decay parameter for exp / gram")

    p_op = command("operator", _cmd_operator, "materialize a named operator as CSV",
                   "--tree", "--out")
    p_op.add_argument("--name", choices=(*NAMED_OPERATORS, "Pstar", "Fstar"),
                      required=True)
    p_op.add_argument("--t", type=float,
                      help="deformation parameter for T / Tinv")
    p_op.add_argument("--z", type=parse_complex, help="resolvent parameter")

    p_coc = command("cocycle", _cmd_cocycle, "print the signed geodesic edge list",
                    "--tree")
    p_coc.add_argument("--x", type=int, required=True)
    p_coc.add_argument("--y", type=int, required=True)

    p_rep = command("report", _cmd_report, "summarize an existing report.json")
    p_rep.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
