"""Span recorder for the traced run, installed from outside the package.

Each wrapped function records one span per call: name, start, end and the
span it was called from. Wrapping replaces every binding of the function
in treelab's modules (`checks.materialize` as well as
`operators.materialize`), so calls through re-imported names are measured
too. Spans stay in memory and are written to a file when the run ends;
the per-layer table is computed from that file. treelab is single-threaded,
so spans nest strictly and no layer waits on another.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = ("trees", "operators", "groups", "reps", "kernels", "checks", "cli")

# Wrapped functions by module. `spaces` has no spans of its own: its sparse
# vectors are timed inside the `operators` spans.
TARGETS = {
    "trees": ["Tree.distance_matrix", "Tree.path", "root_at"],
    "operators": ["materialize", "resolvent_apply", "operator_norm"],
    "groups": [
        "full_automorphism_group", "close_group",
        "Automorphism.inverse", "Automorphism.compose",
    ],
    "reps": [
        "dense_unitary_rep", "dense_bounded_rep", "dense_limit_rep",
        "finite_rank_defect", "uniform_bound_certificate",
        "conjugation_equivalence_residual", "homomorphism_residual",
        "homotopy_curve", "origin_sphere_residual",
    ],
    "kernels": [
        "distance_kernel", "exp_kernel", "gram_kernel", "cnd_check",
        "psd_check", "gram_identity_check", "cocycle_report",
        "cocycle_equivariance_residual",
    ],
    "checks": ["run_check_suite", "resolve_tree", "resolve_group", "report_to_json"],
    "cli": ["main"],
}

# The registered checks (`checks._CHECKS`), each wrapped as `checks.<name>`.
CHECKS = (
    "shift-factorization", "deformation-identity", "resolvent-series",
    "shift-nilpotency", "edge-factorization", "adjoint-consistency",
    "bounded-family", "unitary-family", "limit-family", "kernels", "cocycles",
)


# Called on only some workloads (auto search vs generator files), so their
# self time would read 0.0 on every run of the others. Their time shows in
# `groups.self_s` and in setup_s; their call counts are reported.
CALLS_ONLY = {"groups.full_automorphism_group", "groups.close_group"}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removeprefix('Tree.')}"


def span_names() -> list[str]:
    names = [span_name(m, a) for m, attrs in TARGETS.items() for a in attrs]
    return names + [f"checks.{name}" for name in CHECKS]


def metric_names() -> list[str]:
    """The per-layer metrics a traced run reports, in order."""
    out = []
    for name in span_names():
        out.append(f"{name}.calls")
        if name not in CALLS_ONLY:
            out.append(f"{name}.self_s")
    out += [f"{layer}.self_s" for layer in LAYERS]
    out += [
        "reps.dense_context.hits",
        "reps.dense_context.misses",
        "reps.dense_context.hit_ratio",
        "trace_overhead_s",
    ]
    return out


class SpanRecorder:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, object, object, object]] = []

    def _wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _plan(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "treelab" or k.startswith("treelab.")]
        for module, attrs in TARGETS.items():
            mod = sys.modules[f"treelab.{module}"]
            for attr in attrs:
                owner_name, _, key = attr.rpartition(".")
                if owner_name:
                    cls = getattr(mod, owner_name)
                    original = cls.__dict__[key]
                    self._patches.append((cls, key, original, self._wrap(original, span_name(module, attr))))
                    continue
                original = getattr(mod, key)
                wrapper = self._wrap(original, span_name(module, attr))
                for m in modules:
                    for name, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, name, original, wrapper))
        registry = sys.modules["treelab.checks"]._CHECKS
        for i, (name, fn) in enumerate(registry):
            self._patches.append((registry, i, (name, fn), (name, self._wrap(fn, f"checks.{name}"))))

    def _apply(self, which: int) -> None:
        for owner, key, *values in self._patches:
            if isinstance(owner, list):
                owner[key] = values[which]
            else:
                setattr(owner, key, values[which])

    def install(self) -> None:
        """Replace every binding of every target with its span wrapper."""
        if not self._patches:
            self._plan()
        self._apply(1)

    def uninstall(self) -> None:
        self._apply(0)

    def save(self, path) -> None:
        names = sorted(self._ids, key=self._ids.get)
        np.savez(
            path,
            names=np.array(names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_table(path) -> dict[str, tuple[int, float]]:
    """{span name: (calls, self seconds)} from a saved span file. Self time
    is a span's duration minus the durations of its direct children."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name_id, parent = data["name_id"], data["parent"]
        dur = data["end"] - data["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    calls = np.bincount(name_id, minlength=len(names))
    self_s = np.bincount(name_id, weights=dur - child, minlength=len(names))
    return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(names)}
