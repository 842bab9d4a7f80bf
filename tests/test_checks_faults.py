"""Fault injection: a NaN or inf planted in one dense route, block
application or residual, or a finite wrong input (one wrong member of a
family, a wrong inverse deformation, a non-nilpotent shift, a short
series, a wrong distance), must fail the records built on it (a numerical
breakdown fails its whole check), make `treelab check` exit 1, and leave
report.json standard JSON."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from treelab import checks, kernels, reps
from treelab.checks import _record
from treelab.cli import main
from treelab.groups import full_automorphism_group
from treelab.operators import LinearOperator
from treelab.trees import Tree, make_path, make_star, root_at, tree_from_spec


def _nan_unitary_at_half(original):
    def patched(rooted, images, t):
        stack = original(rooted, images, t)
        if t == 0.5:
            stack = stack.copy()
            stack[:, 0, 0] = np.nan
        return stack

    return patched


def _svd_breakdown(original):
    def patched(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    return patched


def _nan_block(original):
    # every `op @ block` output gets a NaN; materialize applies an operator
    # to the identity block without this entry point, so the dense routes
    # stay finite
    def patched(op, block):
        out = original(op, block).copy()
        out.flat[:1] = np.nan
        return out

    return patched


def _inf_bounded(original):
    def patched(rooted, images, z):
        stack = original(rooted, images, z).copy()
        stack[:, 0, 0] = np.inf
        return stack

    return patched


def _flip_one_member(original):
    # -rho is unitary too, but it lies about 2 away from its grid neighbours
    def patched(rooted, images, t):
        stack = original(rooted, images, t)
        if t == 0.5:
            flip = (images == (0, 2, 1, 3)).all(axis=1)
            stack = np.where(flip[:, None, None], -stack, stack)
        return stack

    return patched


def _inverse_members(original):
    # each unitary member built from g^-1: an anti-homomorphism, which the
    # homomorphism law catches on the non-abelian group of star:4
    def patched(rooted, images, t):
        return original(rooted, np.argsort(images, axis=1), t)

    return patched


def _breaks_curve(images) -> np.ndarray:
    # on star:4 two elements fix leaf 1: the identity and the swap of leaves
    # 2 and 3; at the leaf origin 3 the first fixes the origin and the second
    # moves it, so both branches of the rule are broken
    return images[:, 1] == 1


def _rising_curve(original):
    # the limit family's distances to the limit, as its monotone rule reads
    # them, rise along MONOTONE_T_VALUES for the elements _breaks_curve picks
    def patched(rooted, images, values, tol):
        values = values.copy()
        values[_breaks_curve(images)] = 1.0 + np.asarray(checks.MONOTONE_T_VALUES)
        return original(rooted, images, values, tol)

    return patched


def _sphere_offset(original):
    # every origin-sphere residual 1e-9 too large: 10^3 times its tolerance
    def patched(rooted, member):
        return original(rooted, member) + 1e-9

    return patched


def _wrong_inverse(original):
    # T_t^-1 with its origin row scaled by 1 + 1e-9: 10^3 times the identity
    # tolerance; its adjoint scales the same coordinate, so the pair stays
    # consistent
    def patched(rooted, t):
        op = original(rooted, t)

        def scaled(block):
            block = block.copy()
            block[rooted.origin] *= 1.0 + 1e-9
            return block

        return LinearOperator(
            op.shape,
            lambda b: scaled(op @ b), lambda b: op.adjoint() @ scaled(b),
        )

    return patched


def _nan_inverse(original):
    # T_t^-1 with a NaN in the first entry of every image block
    def patched(rooted, t):
        op = original(rooted, t)

        def planted(block):
            block = block.copy()
            block.flat[:1] = np.nan
            return block

        return LinearOperator(
            op.shape,
            lambda b: planted(op @ b), lambda b: planted(op.adjoint() @ b),
        )

    return patched


def _looping_shift(original):
    # a loop at vertex 0 makes the shift's matrix non-nilpotent: the loop's
    # entry survives every power
    def patched(matrix, exponent):
        looped = matrix.copy()
        looped[0, 0] += 1.0
        return original(looped, exponent)

    return patched


def _short_series(original):
    # the geometric series one term short: (zP)^(max depth) is missing
    def patched(x, terms):
        return original(x, terms - 1)

    return patched


def _wrong_distance(original):
    # d(1, 3) on star:4 read as 3, not 2, on both sides of the diagonal: the
    # cocycle block, the exp kernel and the defect segments read the wrong
    # entry, while the coboundary and closed-form residuals of
    # cocycle-identities still read the sparse operators; the perturbed
    # distance kernel stays conditionally negative and its decay kernels
    # positive, so distance-cnd and decay-psd pass
    def patched(tree):
        d = original(tree).copy()
        d[1, 3] += 1
        d[3, 1] += 1
        return d

    return patched


# (module, attribute, wrapper, checks whose records must fail, checks that
# must break down into one failed `error=` record)
FAULTS = {
    # a NaN member has norm NaN, so the walk that unitary-family and
    # limit-family share runs on and the records built on it fail
    "unitary-nan": (
        reps, "dense_unitary_rep", _nan_unitary_at_half,
        {"unitarity", "conjugation-equivalence", "origin-sphere", "grid-lipschitz"},
        set(),
    ),
    "svd-breakdown": (
        reps, "finite_rank_defect", _svd_breakdown,
        {"bounded-family"}, {"bounded-family"},
    ),
    "block-nan": (
        LinearOperator, "__matmul__", _nan_block,
        {"resolvent-series", "shift-nilpotency", "edge-resolvent-adjoint",
         "adjoint-consistency", "cocycle-identities", "cocycle-equivariance"},
        set(),
    ),
    "flipped-member": (
        reps, "dense_unitary_rep", _flip_one_member,
        {"grid-lipschitz", "conjugation-equivalence"}, set(),
    ),
    "bounded-inf": (
        reps, "dense_bounded_rep", _inf_bounded,
        {"uniform-bound", "conjugation-equivalence", "defect-identity",
         "defect-rank"},
        set(),
    ),
    "rising-curve": (
        checks, "_approaches_limit", _rising_curve, {"limit-monotone"}, set(),
    ),
    "inverse-members": (
        reps, "dense_unitary_rep", _inverse_members,
        {"homomorphism", "conjugation-equivalence", "endpoint-start",
         "limit-monotone"},
        set(),
    ),
    "sphere-offset": (
        reps, "origin_sphere_residual", _sphere_offset, {"origin-sphere"}, set(),
    ),
    "looping-shift": (
        checks, "matrix_power", _looping_shift, {"shift-nilpotency"}, set(),
    ),
    "short-series": (
        checks, "_geometric_series", _short_series, {"resolvent-series"}, set(),
    ),
    # the kernels route's own inverse: the scaled Gram of a wrong T_t^-1 is
    # measured, not refused by a check of its diagonal
    "gram-inverse": (
        kernels, "deformation_inverse", _wrong_inverse, {"gram-identity"}, set(),
    ),
    "gram-nan": (
        kernels, "deformation_inverse", _nan_inverse, {"gram-identity"}, set(),
    ),
    "wrong-distance": (
        Tree, "distance_matrix", _wrong_distance,
        {"cocycle-identities", "cocycle-equivariance", "gram-identity",
         "defect-locality"},
        set(),
    ),
}


# faults that plant no NaN or inf: each fails exactly the records it names
FINITE_FAULTS = {
    "flipped-member", "inverse-members", "rising-curve", "sphere-offset",
    "looping-shift", "short-series", "gram-inverse", "wrong-distance",
    "svd-breakdown",
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
    if fault in FINITE_FAULTS:
        assert {r["check"] for r in failed} == failing
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
def test_a_nan_member_fails_the_records_that_read_it(monkeypatch):
    # the NaN sits in entry (0, 0) of every member at t = 0.5: in the origin
    # column at origin 0 only, and in no member that limit-monotone reads
    module, attr, wrap, failing, _ = FAULTS["unitary-nan"]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    failed = [r for r in report.records if not r.passed]
    assert {r.check for r in failed} == failing
    assert [(r.check, r.origin) for r in failed if r.check == "origin-sphere"] == [
        ("origin-sphere", 0)
    ]
    assert all(r.to_dict()["measured"] is None for r in failed)


def test_a_breakdown_in_the_unitary_walk_fails_both_families(monkeypatch, tmp_path):
    # limit-family walks again the origin that unitary-family lacks, and the
    # walk breaks down again: one error record each
    def operator_norm(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(checks, "operator_norm", operator_norm)
    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    records = json.loads((tmp_path / "report.json").read_text())["records"]
    errors = [r["check"] for r in records if r["parameter"].startswith("error=")]
    assert errors == ["unitary-family", "limit-family"]
    assert {"shift-product", "distance-cnd"} <= {r["check"] for r in records}


def test_sphere_offset_fails_origin_sphere_at_both_origins(monkeypatch):
    # the suite's record reads the same function as the library and C07
    module, attr, wrap, _, _ = FAULTS["sphere-offset"]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    failed = [(r.check, r.origin) for r in report.records if not r.passed]
    assert failed == [("origin-sphere", 0), ("origin-sphere", 3)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gram_nan_fails_gram_identity_with_a_null_measurement(
    monkeypatch, tmp_path
):
    module, attr, wrap, _, _ = FAULTS["gram-nan"]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    failed = [r for r in report["records"] if not r["passed"]]
    assert {r["check"] for r in failed} == {"gram-identity"}
    assert all(r["measured"] is None for r in failed)


def test_wrong_inverse_fails_deformation_product_where_members_are_permutations(
    monkeypatch,
):
    # every element of random:5,3 fixes both origins, so each unitary member
    # is pi0(g) exactly, whatever T^-1 is; T T^-1 = 1 still reads the inverse
    tree = tree_from_spec("random:5,3")
    images = full_automorphism_group(tree).images
    assert len(images) == 2 and (images[:, [0, 4]] == [0, 4]).all()
    for module in (reps, checks):
        monkeypatch.setattr(
            module, "deformation_inverse", _wrong_inverse(module.deformation_inverse)
        )
    report = checks.run_check_suite(checks.SuiteConfig("random:5,3"))
    failed = {(r.check, r.origin) for r in report.records if not r.passed}
    assert failed == {("deformation-product", 0), ("deformation-product", 4)}
    assert not any(r.passed for r in report.records if r.check == "deformation-product")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_bounded_member_fails_certificate(monkeypatch):
    monkeypatch.setattr(
        reps, "dense_bounded_rep", _inf_bounded(reps.dense_bounded_rep)
    )
    tree = make_star(4)
    cert = reps.uniform_bound_certificate(
        root_at(tree, 0), full_automorphism_group(tree).images, 0.5
    )
    assert not math.isfinite(cert.max_norm)


def test_record_rule_requires_a_finite_measured_value():
    ctx = SimpleNamespace(label="path:2")
    assert _record(ctx, "c", 0, 1.0, 1.0).passed
    assert not _record(ctx, "c", 0, 1.5, 1.0).passed
    for bad in (math.nan, math.inf, -math.inf):
        assert not _record(ctx, "c", 0, bad, 1.0).passed
        assert _record(ctx, "c", 0, bad, 1.0).to_dict()["measured"] is None


def test_gaps_keep_a_nan_entry():
    # each column's largest |lhs - rhs| is NaN where the column holds one
    lhs = np.array([[1.0, math.nan, 0.0], [math.nan, 2.0, 0.5]])
    gaps = kernels._gaps(lhs, np.zeros((2, 3)))
    assert math.isnan(gaps[0]) and math.isnan(gaps[1]) and gaps[2] == 0.5
    assert kernels._gaps(np.zeros((3, 0)), np.zeros((3, 0))).shape == (0,)
    assert kernels._gaps(np.zeros((0, 2)), np.zeros((0, 2))).tolist() == [0.0, 0.0]


def test_limit_monotone_counts_the_broken_curves(monkeypatch, tmp_path):
    monkeypatch.setattr(
        checks, "_approaches_limit", _rising_curve(checks._approaches_limit)
    )
    tree = make_star(4)
    broken = int(_breaks_curve(full_automorphism_group(tree).images).sum())
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


def test_limit_distances_equal_the_homotopy_curve(monkeypatch):
    # the limit family takes its distances to the limit from the members it
    # builds on the grid; they are the curve's first row, bit for bit
    seen = []

    def spy(rooted, images, values, tol):
        seen.append((rooted, images, values))
        return original(rooted, images, values, tol)

    original = checks._approaches_limit
    monkeypatch.setattr(checks, "_approaches_limit", spy)
    checks.run_check_suite(checks.SuiteConfig("star:4"))

    assert [rooted.origin for rooted, _, _ in seen] == [0, 3]
    for rooted, images, values in seen:
        assert len(images) == 6
        curve = reps.homotopy_curve(rooted, images, checks.MONOTONE_T_VALUES)[0]
        assert np.array_equal(values, curve)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_defect_rank_is_nan_on_a_non_finite_defect(monkeypatch):
    # the swap on path:2 has displacement + 1 == n, so its rank excess would
    # read 0 even if NaN singular values were counted as nonzero
    monkeypatch.setattr(
        reps, "dense_bounded_rep", _inf_bounded(reps.dense_bounded_rep)
    )
    tree = make_path(2)
    swap = full_automorphism_group(tree).images[1:2]
    rooted = root_at(tree, 0)
    member = reps.dense_bounded_rep(rooted, swap, 0.5)
    rep = reps.finite_rank_defect(rooted, swap, member)
    assert rep.displacement[0] + 1 == tree.n
    assert math.isnan(rep.rank[0])
