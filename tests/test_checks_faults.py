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

from treelab import checks, kernels, operators, reps
from treelab.checks import _record
from treelab.cli import main
from treelab.groups import full_automorphism_group
from treelab.operators import LinearOperator, worst_of
from treelab.trees import Tree, make_path, make_star, root_at, tree_from_spec

from conftest import force_fallback, transversal


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
    # -rho is unitary too, but it lies about 2 away from its grid neighbours;
    # the swap of leaves 2 and 3 is the representative of orbit point 2 at
    # the leaf origin 3, so the orbit path builds it
    def patched(rooted, images, t):
        stack = original(rooted, images, t)
        if t == 0.5:
            flip = (images == (0, 1, 3, 2)).all(axis=1)
            stack = np.where(flip[:, None, None], -stack, stack)
        return stack

    return patched


def _inverse_members(original):
    # each unitary member built from g^-1: an anti-homomorphism, which the
    # homomorphism law catches on the non-abelian group of star:5. At the
    # leaf origin 4 the representatives' inverses move it elsewhere, and
    # some of their curves stop falling
    def patched(rooted, images, t):
        return original(rooted, np.argsort(images, axis=1), t)

    return patched


def _breaks_curve(rooted, images) -> np.ndarray:
    # the elements that do not move the origin to leaf 1: a function of the
    # coset g Stab(o), as a fault on the orbit path's representatives must
    # be. On star:4 that is all 6 at the centre, and at the leaf origin 3
    # the 4 that move it to 3 (d = 0) or to 2 (d = 2): both branches of the
    # rule are broken
    return images[:, rooted.origin] != 1


def _rising_curve(original):
    # the limit family's distances to the limit, as its monotone rule reads
    # them, rise along MONOTONE_T_VALUES for the elements _breaks_curve picks
    def patched(rooted, images, values, tol):
        values = values.copy()
        rising = 1.0 + np.asarray(checks.MONOTONE_T_VALUES)
        values[_breaks_curve(rooted, images)] = rising
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
    # cocycle-identities still read the sparse operators, and its Chasles
    # gap the cocycles from the centre; cocycle-equivariance reads only the
    # cocycles from the centre, which the entry is off, and passes. The
    # perturbed distance kernel stays conditionally negative and its decay
    # kernels positive, so distance-cnd and decay-psd pass
    def patched(tree):
        d = original(tree).copy()
        d[1, 3] += 1
        d[3, 1] += 1
        return d

    return patched


def _flipped_edge_sign(original):
    # pi1(g) with the sign of edge 0 flipped in its output for every g but
    # the identity: still a signed permutation, no longer the edge action
    def patched(tree, g):
        op = original(tree, g)
        if list(g) == list(range(tree.n)):
            return op
        sign = np.ones((tree.edge_count, 1))
        sign[0] = -1.0
        return LinearOperator(
            op.shape, lambda w: sign * (op @ w), lambda w: op.adjoint() @ (sign * w)
        )

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
        {"cocycle-identities", "gram-identity", "defect-locality"},
        set(),
    ),
    # the kernels route's edge action, which only cocycle-equivariance reads
    "flipped-edge-sign": (
        kernels, "pi1_operator", _flipped_edge_sign, {"cocycle-equivariance"}, set(),
    ),
}


# the tree a fault runs on, where it is not star:4
FAULT_TREES = {"inverse-members": "star:5"}

# faults that plant no NaN or inf: each fails exactly the records it names
FINITE_FAULTS = {
    "flipped-member", "inverse-members", "rising-curve", "sphere-offset",
    "looping-shift", "short-series", "gram-inverse", "wrong-distance",
    "svd-breakdown", "flipped-edge-sign",
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fails_loudly(fault, monkeypatch, tmp_path, capsys):
    module, attr, wrap, failing, broken = FAULTS[fault]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))

    tree = FAULT_TREES.get(fault, "star:4")
    assert main(["check", "--tree", tree, "--out", str(tmp_path)]) == 1
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


@pytest.mark.parametrize("spec", ["path:5", "regular:2,2"])
def test_a_flipped_edge_sign_fails_only_cocycle_equivariance(spec, monkeypatch):
    # the generators of a path's reversal and of a trivalent tree's group
    # each catch the flipped sign on some pair from the base point
    module, attr, wrap, failing, _ = FAULTS["flipped-edge-sign"]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    report = checks.run_check_suite(checks.SuiteConfig(spec))
    assert {r.check for r in report.records if not r.passed} == failing


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


def test_a_breakdown_at_the_last_origin_fails_its_check_once(monkeypatch):
    # bounded-family breaks down at origin 3 only, after origin 0's records:
    # they are dropped for one error record at origin 0, origin 3 is not run
    # again, and every other check records both origins as before
    def finite_rank_defect(rooted, *args):
        if rooted.origin == 3:
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(rooted, *args)

    def keys(report):
        return [(r.check, r.origin, r.parameter) for r in report.records]

    bounded = {"defect-locality", "defect-rank", "defect-identity", "uniform-bound"}
    clean = checks.run_check_suite(checks.SuiteConfig("star:4"))
    original = reps.finite_rank_defect
    monkeypatch.setattr(reps, "finite_rank_defect", finite_rank_defect)
    records = keys(checks.run_check_suite(checks.SuiteConfig("star:4")))

    expected = [key for key in keys(clean) if key[0] not in bounded]
    at = [key[0] in bounded for key in keys(clean)].index(True)
    expected.insert(at, ("bounded-family", 0, "error=SVD did not converge"))
    assert records == expected
    for name in {r.check for r in clean.records if r.origin == 3} - bounded:
        assert {origin for check, origin, _ in records if check == name} == {0, 3}


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
    monkeypatch.setattr(reps, "inverse_rescale", _wrong_inverse(reps.inverse_rescale))
    report = checks.run_check_suite(checks.SuiteConfig("random:5,3"))
    failed = {(r.check, r.origin) for r in report.records if not r.passed}
    assert failed == {("deformation-product", 0), ("deformation-product", 4)}
    assert not any(r.passed for r in report.records if r.check == "deformation-product")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_member_fails_grid_lipschitz_where_members_are_permutations(
    monkeypatch,
):
    # every member of random:5,3 is pi0(g) exactly, so each step of a finite
    # walk is exactly 0 and needs no bound; a NaN step is a step, not 0, so
    # it takes its bound and stays NaN over it at both origins
    module, attr, wrap, _, _ = FAULTS["unitary-nan"]
    monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    report = checks.run_check_suite(checks.SuiteConfig("random:5,3"))
    lipschitz = [r for r in report.records if r.check == "grid-lipschitz"]
    assert [r.origin for r in lipschitz if not r.passed] == [0, 4]
    assert all(math.isnan(r.measured) for r in lipschitz)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_resolvent_fails_limit_monotone_where_the_defect_is_zero(monkeypatch):
    # every element of random:5,3 fixes origin 0, so each member's defect is
    # exactly 0 and T^-1 @ 0 is skipped; a NaN in R(0.999) makes T^-1 not
    # finite, so the product is kept and carries the NaN to both curves
    def unitary_walk(ctx, rooted):
        if rooted.origin == 0:
            memo = reps._dense_context.memos[rooted]
            key = (operators.resolvent_operator, 0.999)
            memo[key] = memo[key].copy()
            memo[key][1, 1] = np.nan
        return original(ctx, rooted)

    original = checks._unitary_walk
    monkeypatch.setattr(checks, "_unitary_walk", unitary_walk)
    report = checks.run_check_suite(checks.SuiteConfig("random:5,3"))
    failed = [(r.check, r.origin, r.measured) for r in report.records if not r.passed]
    assert failed == [("limit-monotone", 0, 2.0)]


def test_wrong_inverse_reaches_the_members_where_the_group_moves_the_origin(
    monkeypatch,
):
    # the members, the step bounds and deformation-product read one dense
    # T^-1, the rescale factor applied to the memoized resolvent; kernels'
    # gram-identity builds its own. On star:4 the group fixes origin 0, the
    # centre, so only T T^-1 = 1 fails there; it moves the leaf origin 3,
    # whose members read the wrong origin row at every t but 0, where T^-1
    # meets an exactly zero defect
    monkeypatch.setattr(reps, "inverse_rescale", _wrong_inverse(reps.inverse_rescale))
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    grid = [f"t={t:g}" for t in checks.DEFAULT_T_GRID]
    expected = {("deformation-product", o, p) for o in (0, 3) for p in grid}
    expected |= {(name, 3, p) for name in ("unitarity", "conjugation-equivalence")
                 for p in grid[1:]}
    expected |= {("homomorphism", 3, "t=0.7"), ("origin-sphere", 3, "-")}
    assert {(r.check, r.origin, r.parameter)
            for r in report.records if not r.passed} == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_bounded_member_fails_certificate(monkeypatch):
    monkeypatch.setattr(
        reps, "dense_bounded_rep", _inf_bounded(reps.dense_bounded_rep)
    )
    tree = make_star(4)
    member = reps.dense_bounded_rep(
        root_at(tree, 0), full_automorphism_group(tree).images, 0.5
    )
    norms = reps.uniform_bound_certificate(0.5, member)
    assert not math.isfinite(worst_of(norms)[0])


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
    # the orbit path walks 1 and 3 representatives; weighted by |Stab(o)|,
    # their broken curves count the elements of the group
    monkeypatch.setattr(
        checks, "_approaches_limit", _rising_curve(checks._approaches_limit)
    )
    tree = make_star(4)
    images = full_automorphism_group(tree).images
    broken = [int(_breaks_curve(root_at(tree, o), images).sum()) for o in (0, 3)]
    assert broken == [6, 4]

    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    records = [r for r in report["records"] if r["check"] == "limit-monotone"]
    assert [r["origin"] for r in records] == [0, 3]
    for r, count in zip(records, broken):
        assert r["measured"] == count and r["bound"] == 0.0
        assert r["passed"] is False
    # the rising curve is not fed to any other check
    assert {r["check"] for r in report["records"] if not r["passed"]} == {
        "limit-monotone"
    }


@pytest.mark.parametrize("spec", ["star:4", "star:7", "regular:2,2"])
def test_limit_monotone_weights_each_representative_by_its_stabilizer(
    monkeypatch, spec
):
    # the orbit path counts a broken curve |G|/|G.o| times: the count of
    # broken elements that the fallback, which walks every row, takes
    monkeypatch.setattr(
        checks, "_approaches_limit", _rising_curve(checks._approaches_limit)
    )

    def counts():
        report = checks.run_check_suite(checks.SuiteConfig(spec))
        return [r.measured for r in report.records if r.check == "limit-monotone"]

    orbit = counts()
    assert all(count > 0 for count in orbit)
    force_fallback(monkeypatch)
    assert counts() == orbit


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
    group = full_automorphism_group(make_star(4)).images
    for rooted, images, values in seen:
        assert np.array_equal(images, group[transversal(group, rooted.origin)])
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
    defect = reps.multiplicative_defect(swap, reps.dense_bounded_rep(rooted, swap, 0.5))
    rep = reps.finite_rank_defect(rooted, swap, defect)
    assert rep.displacement[0] + 1 == tree.n
    assert math.isnan(rep.rank[0])


def test_a_non_finite_distance_kernel_fails_distance_cnd(monkeypatch, tmp_path):
    # cnd_check reads NaN on a kernel holding an inf instead of raising, so
    # the record fails with a null measurement and the kernels check runs on
    def distance_kernel(tree):
        d = original(tree).copy()
        d[1, 3] = d[3, 1] = np.inf
        return d

    original = kernels.distance_kernel
    monkeypatch.setattr(kernels, "distance_kernel", distance_kernel)
    assert main(["check", "--tree", "star:4", "--out", str(tmp_path)]) == 1
    records = json.loads((tmp_path / "report.json").read_text())["records"]
    failed = [r for r in records if not r["passed"]]
    assert [(r["check"], r["measured"]) for r in failed] == [("distance-cnd", None)]
    assert len(records) == 138
    assert {"decay-psd", "gram-identity", "cocycle-identities"} <= {
        r["check"] for r in records
    }


def _doubled_adjoint(build):
    def patched(rooted, t, z):
        op = build(rooted, t, z)
        return LinearOperator(op.shape, op._apply, lambda b: 2.0 * op._adjoint(b))

    return patched


@pytest.mark.parametrize("name", [*operators.NAMED_OPERATORS, "added"])
def test_every_table_operator_is_checked_for_its_adjoint(name, monkeypatch):
    # a wrong adjoint in any entry of the named-operator table, or in one
    # added to it, fails adjoint-consistency and nothing else
    table = operators.NAMED_OPERATORS
    monkeypatch.setitem(table, name, _doubled_adjoint(table.get(name, table["P"])))
    report = checks.run_check_suite(checks.SuiteConfig("star:4"))
    failed = {(r.check, r.origin) for r in report.records if not r.passed}
    assert failed == {("adjoint-consistency", 0), ("adjoint-consistency", 3)}
