"""Shared corpora and the acceptance-summary reporting hook."""

from __future__ import annotations

import numpy as np
import pytest

from treelab.groups import GroupClosure, full_automorphism_group
from treelab.trees import Tree, make_path, make_random, make_regular, make_star


# Family corpus used by the broad identity suites: the fixed generator
# families plus 100 seeded random trees with up to 200 vertices.
def _family_corpus() -> list[tuple[str, Tree]]:
    corpus = [(f"path:{n}", make_path(n)) for n in (2, 3, 5, 8, 16, 50)]
    corpus += [(f"star:{n}", make_star(n)) for n in (4, 5, 9, 33)]
    corpus += [("regular:2,4", make_regular(2, 4)), ("regular:3,3", make_regular(3, 3))]
    return corpus


def _random_corpus(count: int = 100, max_n: int = 200) -> list[tuple[str, Tree]]:
    rng = np.random.default_rng(20260809)
    sizes = rng.integers(2, max_n + 1, size=count)
    return [
        (f"random:{int(n)},{i}", make_random(int(n), i)) for i, n in enumerate(sizes)
    ]


def origin_pair(tree: Tree) -> tuple[int, ...]:
    """Two distinct deterministic origins (one for a single vertex)."""
    return (0,) if tree.n == 1 else (0, tree.n - 1)


@pytest.fixture(scope="session")
def family_corpus() -> list[tuple[str, Tree]]:
    return _family_corpus()


@pytest.fixture(scope="session")
def random_corpus() -> list[tuple[str, Tree]]:
    return _random_corpus()


@pytest.fixture(scope="session")
def closure_corpus() -> list[tuple[str, Tree, GroupClosure]]:
    """Trees with their full automorphism groups: paths 3..8 and the
    radius-3 trivalent tree (whose group has 3072 elements)."""
    out = []
    for n in range(3, 9):
        tree = make_path(n)
        out.append((f"path:{n}", tree, full_automorphism_group(tree)))
    tree = make_regular(2, 3)
    out.append(("regular:2,3", tree, full_automorphism_group(tree)))
    return out


@pytest.fixture(scope="session")
def small_group_corpus() -> list[tuple[str, Tree, GroupClosure]]:
    """Trees whose full groups are small enough to enumerate all pairs."""
    out = []
    for spec, tree in [
        ("path:4", make_path(4)),
        ("star:4", make_star(4)),
        ("star:5", make_star(5)),
        ("regular:2,2", make_regular(2, 2)),
    ]:
        out.append((spec, tree, full_automorphism_group(tree)))
    return out


# ----------------------------------------------------------------------
# Acceptance reporting: tests register one line per criterion; the lines
# are printed in the terminal summary so they survive output capture.
# ----------------------------------------------------------------------

_ACCEPTANCE_LINES: list[str] = []


class CriterionRecorder:
    def __call__(self, criterion: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        line = f"acceptance {criterion}: {status}"
        if detail:
            line += f" ({detail})"
        _ACCEPTANCE_LINES.append(line)
        print(line)


@pytest.fixture(scope="session")
def record_criterion() -> CriterionRecorder:
    return CriterionRecorder()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
