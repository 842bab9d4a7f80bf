"""Compare what `treelab check` and `treelab report` write in two
checkouts: the refactor gate.

    python3 tools/compare_reports.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts. In each, with that
checkout's own sources, it runs `treelab check` on the configs of the
`symmetric`, `large` and `corpus` workloads at seed 1, which it takes from
the checkout's own perfbench/workloads.py, then with --group auto on
path:12, random:12,3, path:1, path:2, star:2, path:5, the group-heavy
random:100,4, random:150,1, regular:2,3 and star:8, and star:9,
regular:3,3 and regular:2,5, whose groups (40320, about 6.8e13 and
about 2.1e14 elements) are too large to list, so that a change to the
group layer is compared where only the stabilizer chain and the orbits
can be read, and regular:2,4 and regular:3,2, whose leaf orbits (24 and
12 points) weigh on the homomorphism law's relations. Per config it
compares report.json without its `timings`, the stdout and the exit code,
then runs `treelab report` on that report.json and compares its stdout
and exit code too. It prints every difference, each differing record as a
pair of JSON lines, then a summary that sorts the differences into three
classes:
(a) rounding-level moves, a record whose `measured` moved by at most
1e-14 between two finite values with every other field equal (with the
largest such move); (b) witness changes, a record whose `g` changed and
whose other fields are equal, `measured` up to such a move; (c) anything
else: a key, a bound, `passed`, a record count, stdout or an exit code.
It exits 1 on any difference, 0 when there is none.

Each checkout runs in one child process, in that checkout's directory,
with one BLAS thread. Its reports and the generator file of the `large`
workload go to a `.compare_reports` directory at the checkout's root,
which is removed afterwards; nothing under perfbench/ is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORK_DIR = ".compare_reports"
ROUNDING = 1e-14  # the largest move of a finite `measured` that class (a) takes
EXTRA_TREES = ("path:12", "random:12,3", "path:1", "path:2", "star:2", "path:5",
               "random:100,4", "random:150,1", "regular:2,3", "star:8",
               "star:9", "regular:3,3", "regular:2,5", "regular:2,4", "regular:3,2")


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


def _changes(parent: dict, change: dict) -> list[tuple[str, float, list[str]]]:
    """Every way one config's result differs between the two checkouts, each
    as (class, |delta| of a rounding move or 0.0, its printed lines)."""
    out = []
    for key in ("tree", "group", "exit", "stdout", "report exit", "report stdout"):
        if parent[key] != change[key]:
            out.append(("other", 0.0, [f"  {key}: {parent[key]!r} -> {change[key]!r}"]))
    a, b = parent["report"] or {}, change["report"] or {}
    for key in sorted((a.keys() | b.keys()) - {"records"}):
        if a.get(key) != b.get(key):
            out.append(("other", 0.0,
                        [f"  report {key}: {a.get(key)!r} -> {b.get(key)!r}"]))
    records_a, records_b = a.get("records", []), b.get("records", [])
    if len(records_a) != len(records_b):
        out.append(("other", 0.0, [f"  records: {len(records_a)} -> {len(records_b)}"]))
    for i in range(max(len(records_a), len(records_b))):
        ra = records_a[i] if i < len(records_a) else None
        rb = records_b[i] if i < len(records_b) else None
        if ra != rb:
            out.append((*_record_class(ra, rb), [f"  record {i}:",
                        f"    - {json.dumps(ra)}", f"    + {json.dumps(rb)}"]))
    return out


def _record_class(ra: dict | None, rb: dict | None) -> tuple[str, float]:
    """The class of two differing records, with |delta| of a rounding move."""
    if ra is None or rb is None or ra.keys() != rb.keys():
        return "other", 0.0
    fields = {key for key in ra if ra[key] != rb[key]} - {"measured"}
    x, y = ra.get("measured"), rb.get("measured")
    delta = 0.0
    if x != y:
        finite = all(type(v) in (int, float) and math.isfinite(v) for v in (x, y))
        if not finite or abs(x - y) > ROUNDING:
            return "other", 0.0
        delta = abs(x - y)
    if not fields:
        return "rounding", delta
    return ("witness", 0.0) if fields == {"g"} else ("other", 0.0)


def _summary(classes: list[tuple[str, float]]) -> str:
    """One line that counts the differences per class."""
    count = {kind: sum(k == kind for k, _ in classes)
             for kind in ("rounding", "witness", "other")}
    largest = max((delta for kind, delta in classes if kind == "rounding"), default=0.0)
    return (f"(a) {count['rounding']} rounding-level measured moves, largest |delta| "
            f"{largest:.3g}; (b) {count['witness']} witness changes; "
            f"(c) {count['other']} other differences")


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
    differing, classes = 0, []
    if len(parent) != len(change):
        print(f"config count: {len(parent)} -> {len(change)}")
        differing += 1
        classes.append(("other", 0.0))
    for i, (a, b) in enumerate(zip(parent, change)):
        if changes := _changes(a, b):
            differing += 1
            print(f"config {i} ({a['tree']}, group {a['group']}):")
            for kind, delta, lines in changes:
                classes.append((kind, delta))
                print("\n".join(lines))
    print(f"{len(parent)} configs compared; {differing} differ")
    print(_summary(classes))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
