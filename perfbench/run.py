"""treelab benchmark: `treelab check` on fixed workloads, end to end or traced.

    python3 perfbench/run.py --workload symmetric|large|corpus --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The workloads and their reasons are in
workloads.py and BENCHMARK.json. With --trace 0 it reports, for the run:

    setup_s      median over fresh processes of `import treelab` plus
                 resolve_tree and resolve_group for every config
    wall_s       wall time of one pass over the workload's
                 `cli.main(["check", ...])` calls, report writing included:
                 each call's fastest time over the run's passes,
                 summed
    peak_rss_mb  peak resident memory of the measured process after its
                 first pass
    pass_share   passed records / expected records (fail_share = 1 - this
                 is printed too; it is 0 on some workloads, so it cannot be
                 a relative-bound metric)

With --trace 1 it reports per-layer call counts and self times from a
traced pass, and the tracing overhead. Every call's report is checked
against the work manifest (record keys, group order, exit code); any
mismatch makes the run refuse to report numbers. The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

SETUP_REPEATS = 6
DEADLINE_S = 170
# Small dense matrices gain nothing from BLAS threads, and a fixed count
# keeps runs comparable; it never exceeds the cores available.
BLAS_THREADS = 1


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, plan_path: Path, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(workloads.HERE / "worker.py"), mode, str(plan_path)],
        cwd=workloads.ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plan_path: Path, deadline: float) -> tuple[dict, dict]:
    # half of the set-ups before the run and half after, so that their
    # median does not rest on one stretch of the machine's speed
    setups = [_worker("setup", plan_path, deadline)["setup_s"] for _ in range(SETUP_REPEATS // 2)]
    result = _worker("run", plan_path, deadline)
    setups += [_worker("setup", plan_path, deadline)["setup_s"] for _ in range(SETUP_REPEATS // 2)]
    walls = result["walls"]
    wall_s = worker.pass_wall(walls)
    fail_share = result["failed_records"] / result["expected_records"]
    print(f"passes: {len(walls)}; summed pass walls (s): {', '.join(f'{sum(w):.3f}' for w in walls)}")
    median_wall = sum(statistics.median(times) for times in zip(*walls))
    print(f"pass wall from each call's median instead of its minimum: {median_wall:.4f} s")
    print(f"setup runs (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(
        f"fail_share = {result['failed_records']}/{result['expected_records']} "
        f"= {fail_share:.6g} (failed/expected records)"
    )
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall_s, "s"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        "pass_share": _metric(1.0 - fail_share, "ratio"),
    }
    return result, metrics


def per_layer(plan_path: Path, spans: Path, deadline: float) -> tuple[dict, dict]:
    result = _worker("run", plan_path, deadline)
    passes = len(result["traced_walls"])
    table = tracing.layer_table(spans)
    metrics = {}
    rollup = dict.fromkeys(tracing.LAYERS, 0.0)
    print(f"traced passes: {passes}; per pass, from the spans in {spans.name}:")
    print(f"{'span':48} {'calls':>10} {'self_s':>12}")
    for name in tracing.span_names():
        calls, self_s = table.get(name, (0, 0.0))
        calls, self_s = calls / passes, self_s / passes
        rollup[name.split(".")[0]] += self_s
        print(f"{name:48} {calls:10.0f} {self_s:12.6f}")
        metrics[f"{name}.calls"] = _metric(calls, "count")
        if name not in tracing.CALLS_ONLY:
            metrics[f"{name}.self_s"] = _metric(self_s, "s")
    for layer, self_s in rollup.items():
        print(f"{layer + '.self_s':48} {'':10} {self_s:12.6f}")
        metrics[f"{layer}.self_s"] = _metric(self_s, "s")
    hits, misses = result["cache_hits"], result["cache_misses"]
    lookups = hits + misses
    ratio = hits / lookups if lookups else 0.0
    print(f"reps._dense_context lru_cache: {hits} hits / {lookups} lookups = {ratio:.4f}")
    metrics["reps.dense_context.hits"] = _metric(hits / passes, "count")
    metrics["reps.dense_context.misses"] = _metric(misses / passes, "count")
    metrics["reps.dense_context.hit_ratio"] = _metric(ratio, "ratio")
    overhead = worker.pass_wall(result["traced_walls"]) - worker.pass_wall(result["walls"])
    metrics["trace_overhead_s"] = _metric(overhead, "s")
    print(f"trace_overhead_s = {overhead:.4f} (traced minus untraced pass wall)")
    print("treelab is single-threaded: no layer waits on another, so no wait times")
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    workloads.import_treelab()
    work = workloads.HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        configs = workloads.build(args.workload, args.seed)
        spans = workloads.HERE / "_work" / f"spans-{args.workload}.npz"
        plan = {
            "configs": configs,
            "template": workloads.load_manifest()["record_template"],
            "seconds": args.seconds,
            "trace": args.trace,
            "work_dir": str(work),
            "spans": str(spans),
        }
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        print(
            f"workload {args.workload}, seed {args.seed}: {len(configs)} configs, "
            f"group orders {sorted({c['group_order'] for c in configs})}, "
            f"closed loop, 1 client"
        )
        if args.trace:
            result, metrics = per_layer(plan_path, spans, deadline)
        else:
            result, metrics = end_to_end(plan_path, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"environment: nproc {len(os.sched_getaffinity(0))}, BLAS threads {BLAS_THREADS}, "
        f"python {result['python']}, numpy {result['numpy']}, {result['blas']}"
    )
    correct = result["failed"] == 0
    for problem in result["problems"]:
        print(f"work check failed: {problem}", file=sys.stderr)
    if correct and not args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
