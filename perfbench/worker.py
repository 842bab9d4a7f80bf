"""One measured process of the benchmark; `run.py` starts it fresh each time.

    worker.py setup PLAN   import treelab, resolve every config's tree and
                           group, print the seconds that took
    worker.py run PLAN     run the workload's `treelab check` calls in a
                           closed loop (one client, one call at a time) for
                           the plan's seconds and print the results

The plan is a JSON file written by run.py. The working directory is the
checkout's root, so the plan's relative paths resolve there.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def setup(plan: dict) -> dict:
    start = time.perf_counter()
    workloads.import_treelab()
    from treelab.checks import resolve_group, resolve_tree

    for config in plan["configs"]:
        resolve_group(resolve_tree(config["tree"]), config["group"])
    return {"setup_s": time.perf_counter() - start}


def _environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


class Runner:
    def __init__(self, plan: dict):
        from treelab import cli

        self.cli = cli
        self.configs = plan["configs"]
        self.template = plan["template"]
        self.out = Path(plan["work_dir"]) / "out"
        self.attempted = 0
        self.failed = 0
        self.failed_records = 0
        self.expected_records = 0
        self.problems: list[str] = []

    def one_pass(self) -> list[float]:
        """Run every config once; return the wall time of each call."""
        times = []
        for i, config in enumerate(self.configs):
            out = self.out / str(i)
            report_path = out / "report.json"
            report_path.unlink(missing_ok=True)
            argv = ["check", "--tree", config["tree"], "--group", config["group"], "--out", str(out)]
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed call, not a benchmark crash
                code, error = None, exc
            times.append(time.perf_counter() - start)
            self._account(config, code, error, report_path)
        return times

    def _account(self, config, code, error, report_path: Path) -> None:
        expected = len(self.template)
        self.attempted += 1
        self.expected_records += expected
        if error is not None or not report_path.is_file():
            problems = [f"raised {error!r}" if error else f"exit code {code}, no report"]
            failed = expected
        else:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            problems = workloads.check_report(report, code, config, self.template)
            failed = sum(not r["passed"] for r in report["records"])
        self.failed_records += failed
        if problems:
            self.failed += 1
            self.problems += [f"{config['tree']}: {p}" for p in problems]

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_records": self.failed_records,
            "expected_records": self.expected_records,
            "problems": self.problems[:20],
        }


def pass_wall(passes: list[list[float]]) -> float:
    """Wall time of one pass: each call's fastest time over the passes, summed.

    Other tenants of a shared machine only ever slow a call down, in
    stretches of up to minutes, so a call's fastest repeat is its least
    disturbed time. A median instead moves with the share of the run that
    fell in a slow stretch."""
    return sum(min(times) for times in zip(*passes))


def run(plan: dict) -> dict:
    workloads.import_treelab()
    runner = Runner(plan)
    seconds = plan["seconds"]
    start = time.perf_counter()
    walls: list[list[float]] = []
    if not plan["trace"]:
        # whole passes only: stop when the next one would overrun the budget
        while True:
            walls.append(runner.one_pass())
            if len(walls) == 1:
                # the peak of one pass: later passes add to the cache of
                # dense contexts, so the process peak would grow with the
                # number of passes the machine's speed allowed
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.perf_counter() - start + pass_wall(walls) > seconds:
                break
        return {**runner.summary(), "walls": walls, "peak_rss_mb": peak_kb / 1024, **_environment()}

    import tracing
    from treelab import reps

    recorder = tracing.SpanRecorder()
    traced: list[list[float]] = []
    hits = misses = 0
    while True:
        walls.append(runner.one_pass())
        before = reps._dense_context.cache_info()
        recorder.install()
        try:
            traced.append(runner.one_pass())
        finally:
            recorder.uninstall()
        after = reps._dense_context.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        if time.perf_counter() - start + pass_wall(walls) + pass_wall(traced) > seconds:
            break
    recorder.save(plan["spans"])
    return {
        **runner.summary(),
        "walls": walls,
        "traced_walls": traced,
        "cache_hits": hits,
        "cache_misses": misses,
        **_environment(),
    }


if __name__ == "__main__":
    mode, plan_path = sys.argv[1], sys.argv[2]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = setup(plan) if mode == "setup" else run(plan)
    print(json.dumps(result))
