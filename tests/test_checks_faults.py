"""Fault injection: a NaN or inf planted in one dense route or residual must
fail the records built on it (a numerical breakdown fails its whole check),
make `treelab check` exit 1, and leave report.json standard JSON."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from treelab import kernels, reps
from treelab.checks import _record
from treelab.cli import main
from treelab.groups import full_automorphism_group
from treelab.spaces import VertexVector
from treelab.trees import make_path, make_star, root_at


def _nan_unitary_at_half(original):
    def patched(rooted, g, t):
        mat = original(rooted, g, t)
        if t == 0.5:
            mat = mat.copy()
            mat[0, 0] = np.nan
        return mat

    return patched


def _nan_max_abs(original):
    return lambda v: math.nan


def _inf_bounded(original):
    def patched(rooted, g, z):
        mat = original(rooted, g, z).copy()
        mat[0, 0] = np.inf
        return mat

    return patched


def _breaks_curve(g) -> bool:
    # on star:4 two elements fix leaf 1: the identity and the swap of leaves
    # 2 and 3; at the leaf origin 3 the first fixes the origin and the second
    # moves it, so both branches of the rule are broken
    return g(1) == 1


def _rising_curve(original):
    def patched(rooted, g, t_grid):
        if not _breaks_curve(g):
            return original(rooted, g, t_grid)
        return [reps.CurvePoint(t, 1.0 + t, 0.0) for t in t_grid]

    return patched


# (module, attribute, wrapper, checks whose records must fail, checks that
# must break down into one failed `error=` record)
FAULTS = {
    "unitary-nan": (
        reps, "dense_unitary_rep", _nan_unitary_at_half,
        {"unitarity", "conjugation-equivalence"}, {"limit-family"},
    ),
    "max-abs-nan": (
        kernels, "max_abs", _nan_max_abs,
        {"resolvent-series", "edge-resolvent-adjoint", "cocycle-identities",
         "cocycle-equivariance"},
        set(),
    ),
    "bounded-inf": (
        reps, "dense_bounded_rep", _inf_bounded,
        {"uniform-bound", "conjugation-equivalence", "defect-identity",
         "defect-rank"},
        set(),
    ),
    "rising-curve": (
        reps, "homotopy_curve", _rising_curve, {"limit-monotone"}, set(),
    ),
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_loudly(fault, monkeypatch, tmp_path, capsys):
    module, attr, wrap, failing, broken = FAULTS[fault]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))

    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    check_out = capsys.readouterr().out
    text = (tmp_path / "report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["aggregate_pass"] is False

    failed = [r for r in report["records"] if not r["passed"]]
    assert failing <= {r["check"] for r in failed}
    errors = {r["check"]: r for r in failed if r["parameter"].startswith("error=")}
    assert set(errors) == broken
    for r in errors.values():
        assert r["measured"] is None and r["origin"] == 0
        assert f"FAIL {r['check']} " in check_out and "measured=nan" in check_out

    # the other checks still ran: every registered check has a record
    assert {"shift-product", "homomorphism", "distance-cnd"} <= {
        r["check"] for r in report["records"]
    }
    # `treelab report` reads the file back and prints the same failures
    assert main(["report", str(tmp_path / "report.json")]) == 1
    report_out = capsys.readouterr().out
    assert report_out.count("FAIL ") == check_out.count("FAIL ") == len(failed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_bounded_member_fails_certificate(monkeypatch):
    monkeypatch.setattr(
        reps, "dense_bounded_rep", _inf_bounded(reps.dense_bounded_rep)
    )
    tree = make_star(4)
    cert = reps.uniform_bound_certificate(
        root_at(tree, 0), full_automorphism_group(tree), 0.5
    )
    assert not math.isfinite(cert.max_norm)


def test_record_rule_requires_a_finite_measured_value():
    ctx = SimpleNamespace(label="path:2")
    assert _record(ctx, "c", 0, 1.0, 1.0).passed
    assert not _record(ctx, "c", 0, 1.5, 1.0).passed
    for bad in (math.nan, math.inf, -math.inf):
        assert not _record(ctx, "c", 0, bad, 1.0).passed
        assert _record(ctx, "c", 0, bad, 1.0).to_dict()["measured"] is None


def test_max_abs_keeps_a_nan_coefficient():
    for coeffs in ({0: 1.0, 2: math.nan}, {0: math.nan, 2: 1.0}):
        assert math.isnan(kernels.max_abs(VertexVector(3, coeffs)))
    assert kernels.max_abs(VertexVector(3, {})) == 0.0


def test_limit_monotone_counts_the_broken_curves(monkeypatch, tmp_path):
    monkeypatch.setattr(reps, "homotopy_curve", _rising_curve(reps.homotopy_curve))
    tree = make_star(4)
    broken = sum(_breaks_curve(g) for g in full_automorphism_group(tree))
    assert 0 < broken < 6

    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    records = [r for r in report["records"] if r["check"] == "limit-monotone"]
    assert [r["origin"] for r in records] == [0, 3]
    for r in records:
        assert r["measured"] == broken and r["bound"] == 0.0
        assert r["passed"] is False
    # the rising curve is not fed to any other check
    assert {r["check"] for r in report["records"] if not r["passed"]} == {
        "limit-monotone"
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_defect_rank_is_nan_on_a_non_finite_defect(monkeypatch):
    # the swap on path:2 has displacement + 1 == n, so its rank excess would
    # read 0 even if NaN singular values were counted as nonzero
    monkeypatch.setattr(
        reps, "dense_bounded_rep", _inf_bounded(reps.dense_bounded_rep)
    )
    tree = make_path(2)
    swap = full_automorphism_group(tree)[1]
    rep = reps.finite_rank_defect(root_at(tree, 0), swap, "bounded", 0.5)
    assert rep.displacement + 1 == tree.n
    assert math.isnan(rep.rank)
