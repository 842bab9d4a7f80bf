"""Compare what `treelab check` and `treelab report` write in two
checkouts: the refactor gate.

    python3 tools/compare_reports.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. In each, with that
checkout's own sources, it runs `treelab check` on the configs of the
`symmetric`, `large` and `corpus` workloads at seed 1, which it takes from
the checkout's own perfbench/workloads.py, then on path:12, random:12,3,
path:1, path:2, star:2 and path:5. Per config it compares report.json
without its `timings`, the stdout and the exit code, then runs
`treelab report` on that report.json and compares its stdout and exit
code too. It prints every difference, each differing record as a pair of
JSON lines, and exits 1 on any difference, 0 when there is none.

Each checkout runs in one child process, in that checkout's directory,
with one BLAS thread. Its reports and the generator file of the `large`
workload go to a `.compare_reports` directory at the checkout's root,
which is removed afterwards; nothing under perfbench/ is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORK_DIR = ".compare_reports"
EXTRA_TREES = ("path:12", "random:12,3", "path:1", "path:2", "star:2", "path:5")


def _configs(workloads) -> list[tuple[str, str]]:
    """(tree, group) per config: the three workloads at seed 1, then the
    extra trees with --group auto."""
    gen_dir = workloads.ROOT / WORK_DIR
    configs = [
        *workloads.build("symmetric", 1),
        *workloads.build("large", 1, gen_dir),
        *workloads.build("corpus", 1),
    ]
    return [(c["tree"], c["group"]) for c in configs] + [
        (tree, "auto") for tree in EXTRA_TREES
    ]


def _run_checkout() -> None:
    """In the current directory, a checkout's root: run every config and
    print one JSON list of results."""
    sys.path.insert(0, "perfbench")
    import workloads

    workloads.import_treelab()
    from treelab.cli import main

    def run(argv: list[str]) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        return code, stdout.getvalue()

    results = []
    try:
        for i, (tree, group) in enumerate(_configs(workloads)):
            out = f"{WORK_DIR}/out_{i}"
            code, stdout = run(["check", "--tree", tree, "--group", group, "--out", out])
            result = {"tree": tree, "group": group, "exit": code, "stdout": stdout,
                      "report": None, "report exit": None, "report stdout": None}
            report_path = Path(out) / "report.json"
            if report_path.is_file():
                result["report exit"], result["report stdout"] = run(
                    ["report", str(report_path)])
                result["report"] = json.loads(report_path.read_text(encoding="utf-8"))
                result["report"].pop("timings", None)
            results.append(result)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(results))


def _collect(checkout: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--run-checkout"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
    )


def _differences(parent: dict, change: dict) -> list[str]:
    """Every way one config's result differs between the two checkouts."""
    lines = []
    for key in ("tree", "group", "exit", "stdout", "report exit", "report stdout"):
        if parent[key] != change[key]:
            lines.append(f"  {key}: {parent[key]!r} -> {change[key]!r}")
    a, b = parent["report"] or {}, change["report"] or {}
    for key in sorted((a.keys() | b.keys()) - {"records"}):
        if a.get(key) != b.get(key):
            lines.append(f"  report {key}: {a.get(key)!r} -> {b.get(key)!r}")
    records_a, records_b = a.get("records", []), b.get("records", [])
    if len(records_a) != len(records_b):
        lines.append(f"  records: {len(records_a)} -> {len(records_b)}")
    for i in range(max(len(records_a), len(records_b))):
        ra = records_a[i] if i < len(records_a) else None
        rb = records_b[i] if i < len(records_b) else None
        if ra != rb:
            lines.append(f"  record {i}:")
            lines += [f"    - {json.dumps(ra)}", f"    + {json.dumps(rb)}"]
    return lines


def main(argv: list[str]) -> int:
    if argv == ["--run-checkout"]:
        _run_checkout()
        return 0
    if len(argv) != 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    checkouts = [Path(p).resolve() for p in argv]
    for checkout in checkouts:
        if (checkout / WORK_DIR).exists():
            print(f"error: {checkout / WORK_DIR} exists; remove it first",
                  file=sys.stderr)
            return 2
    procs = [_collect(c) for c in checkouts]
    outputs = [proc.communicate()[0] for proc in procs]
    for checkout, proc in zip(checkouts, procs):
        if proc.returncode != 0:
            print(f"error: the run in {checkout} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
    parent, change = (json.loads(out.strip().splitlines()[-1]) for out in outputs)
    differing = 0
    if len(parent) != len(change):
        print(f"config count: {len(parent)} -> {len(change)}")
        differing += 1
    for i, (a, b) in enumerate(zip(parent, change)):
        if lines := _differences(a, b):
            differing += 1
            print(f"config {i} ({a['tree']}, group {a['group']}):")
            print("\n".join(lines))
    print(f"{len(parent)} configs compared; {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
