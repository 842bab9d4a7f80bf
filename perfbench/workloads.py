"""The benchmark's workloads, their inputs and the work each must do.

A workload is a fixed list of `treelab check` configurations. The seed
picks the random trees; everything else is fixed. The expected group
order of each configuration is worked out here in plain Python (tree
canonical forms for `--group auto`, stated orders for generator files),
never by treelab's own group search, so a run that searched or closed
less cannot pass the work check.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"

DEFAULT_SEED = 1

# One line each, kept in step with the `why` fields of BENCHMARK.json.
# BENCHMARK.json gates on symmetric and large only; see README.md.
WORKLOADS = {
    "symmetric": "star:7 auto (|G|=720) and regular:2,3 with 10 generators "
    "(|G|=1024): per-element dense rep loops in reps/groups/checks take 93% "
    "of the time, trees and kernels 3%",
    "large": "path:200 reflection and random:200,<seed> sibling-leaf swap "
    "(|G|=2): big N, trivial group; geometry, sparse appliers, kernels and "
    "cocycles take over half the time, group work none",
    "corpus": "about 90 small trees with --group auto: per-config fixed costs "
    "(auto search, rooting, dense-context creation, report writing) dominate",
}

REGULAR_GENERATORS = "perfbench/inputs/regular_2_3.gens"
REGULAR_ORDER = 1024
PATH_GENERATORS = "perfbench/inputs/path_200.gens"
LARGE_N = 200
CORPUS_SIZES = range(4, 13)
CORPUS_TREES_PER_SIZE = 8
# Random corpus trees with a larger group are skipped. A config's cost grows
# with |G| (one |G| = 12 tree costs as much as three with |G| = 2), so a
# seed's mix of group orders would otherwise set the corpus's cost; the
# corpus measures per-config fixed costs, and its fixed trees cover
# larger groups.
CORPUS_MAX_ORDER = 2
CORPUS_FIXED = (
    [f"path:{n}" for n in range(2, 13)]
    + [f"star:{n}" for n in range(2, 6)]
    + ["regular:1,3", "regular:2,1", "regular:3,1"]
)


def import_treelab():
    """Import treelab from the checkout's own source tree, nowhere else."""
    src = ROOT / "src"
    if not (src / "treelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no treelab sources under {src}")
    sys.path.insert(0, str(src))
    import treelab

    if Path(treelab.__file__).resolve().parent != (src / "treelab").resolve():
        raise SystemExit(f"error: treelab imported from {treelab.__file__}, not {src}")
    return treelab


def tree_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    from treelab.trees import tree_from_spec

    tree = tree_from_spec(spec)
    return tree.n, list(tree.edges)


def automorphism_order(n: int, edges) -> int:
    """|Aut(T)| from canonical forms rooted at the tree's centre."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def canon(v: int, parent: int) -> tuple[str, int]:
        labels, order = [], 1
        for w in adj[v]:
            if w != parent:
                label, sub = canon(w, v)
                labels.append(label)
                order *= sub
        for count in Counter(labels).values():
            order *= math.factorial(count)
        return "(" + "".join(sorted(labels)) + ")", order

    if len(layer) == 1:
        return canon(layer[0], -1)[1]
    a, b = layer
    (la, oa), (lb, ob) = canon(a, b), canon(b, a)
    return oa * ob * (2 if la == lb else 1)


def sibling_leaf_swap(n: int, edges) -> list[int] | None:
    """The involution swapping the two smallest leaves of the first vertex
    that has two leaf neighbours, or None if no vertex has two."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for v in range(n):
        leaves = sorted(w for w in adj[v] if len(adj[w]) == 1)
        if len(leaves) >= 2:
            images = list(range(n))
            a, b = leaves[:2]
            images[a], images[b] = b, a
            return images
    return None


def _config(tree: str, group: str = "auto", order: int | None = None) -> dict:
    n, edges = tree_edges(tree)
    if order is None:
        order = automorphism_order(n, edges)
    return {"tree": tree, "n": n, "group": group, "group_order": order}


def build(workload: str, seed: int, gen_dir: Path = HERE / "_work") -> list[dict]:
    """The workload's configurations for this seed, writing any generated
    generator file into gen_dir (a directory under ROOT)."""
    if workload == "symmetric":
        return [_config("star:7"), _config("regular:2,3", REGULAR_GENERATORS, REGULAR_ORDER)]
    if workload == "large":
        s = seed
        while (swap := sibling_leaf_swap(*tree_edges(f"random:{LARGE_N},{s}"))) is None:
            s += 1
        gen_dir.mkdir(parents=True, exist_ok=True)
        gens = gen_dir / f"random_{LARGE_N}_{s}.gens"
        gens.write_text(" ".join(map(str, swap)) + "\n", encoding="utf-8")
        return [
            _config(f"path:{LARGE_N}", PATH_GENERATORS, 2),
            _config(f"random:{LARGE_N},{s}", str(gens.relative_to(ROOT)), 2),
        ]
    if workload == "corpus":
        configs = []
        for n in CORPUS_SIZES:
            s = CORPUS_TREES_PER_SIZE * (seed - 1)
            kept = 0
            while kept < CORPUS_TREES_PER_SIZE:
                s += 1
                config = _config(f"random:{n},{s}")
                if config["group_order"] <= CORPUS_MAX_ORDER:
                    configs.append(config)
                    kept += 1
        return configs + [_config(spec) for spec in CORPUS_FIXED]
    raise ValueError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def expected_keys(config: dict, template) -> set[tuple]:
    origin = {"first": 0, "last": config["n"] - 1}
    return {(config["tree"], check, origin[role], param) for check, role, param in template}


def check_report(report: dict, exit_code, config: dict, template) -> list[str]:
    """Every way this report differs from the work the manifest expects."""
    problems = []
    want = 0 if report["aggregate_pass"] else 1
    if exit_code != want:
        problems.append(f"exit code {exit_code}, aggregate_pass gives {want}")
    got_order = report["config"]["group_order"]
    if got_order != config["group_order"] or not report["config"]["group_complete"]:
        problems.append(f"group order {got_order}, expected {config['group_order']}")
    keys = [(r["tree"], r["check"], r["origin"], r["parameter"]) for r in report["records"]]
    expected = expected_keys(config, template)
    if len(keys) != len(expected) or set(keys) != expected:
        problems.append(
            f"{len(keys)} records, expected {len(expected)}; "
            f"missing {sorted(expected - set(keys))[:3]}, extra {sorted(set(keys) - expected)[:3]}"
        )
    return problems
