"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one pass/fail line (repeated in the terminal summary).
Corpora are pinned here: the generator families with 100 seeded random
trees for the broad operator and kernel identities, and the full
automorphism groups of paths 3..8 plus the radius-3 trivalent tree
(3072 elements) for the representation-level criteria. Trees are rooted
at vertex 0 and at the last vertex; for the trivalent tree the last
vertex is a leaf, which realizes origin displacements up to 6.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from treelab.checks import DEFAULT_T_GRID
from treelab.cli import main as cli_main
from treelab.groups import full_automorphism_group
from treelab.kernels import (
    cnd_check,
    cocycle_equivariance_residual,
    cocycle_report,
    deformation_kernel,
    distance_kernel,
    exp_kernel,
    gram_identity_check,
    psd_check,
)
from treelab.operators import (
    coboundary_operator,
    deformation_operator,
    materialize,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    resolvent_operator,
)
from treelab.reps import (
    conjugation_equivalence_residual,
    defect_identity_residual,
    dense_bounded_rep,
    dense_limit_rep,
    dense_pi0,
    dense_unitary_rep,
    displacement,
    element_blocks,
    finite_rank_defect,
    homomorphism_residual,
    homotopy_curve,
    limit_rep_operator,
    multiplicative_defect,
    origin_sphere_residual,
    uniform_bound_certificate,
)
from treelab.trees import (
    make_path,
    make_random,
    make_regular,
    make_star,
    root_at,
)

from conftest import origin_pair

IDENTITY_TOL = 1e-12
UNITARITY_TOL = 1e-11
HOMOMORPHISM_TOL = 1e-11
KERNEL_TOL = 1e-10
RESOLVENT_TOL = 1e-13
BOUND_SLACK = 1e-8
LIPSCHITZ_FACTOR = 10.0


def dense_s_q(tree):
    n = tree.n
    s = np.zeros((n, n))
    for u, v in tree.edges:
        s[u, v] = 1.0
        s[v, u] = 1.0
    q = np.diag([float(tree.q(x)) for x in range(n)])
    return s, q


def rooted_pairs(tree):
    return [root_at(tree, o) for o in origin_pair(tree)]


def test_criterion_01_shift_factorization(
    family_corpus, random_corpus, record_criterion
):
    corpus = family_corpus + random_corpus
    start = time.perf_counter()
    worst = 0.0
    for _, tree in corpus:
        s, q = dense_s_q(tree)
        for rooted in rooted_pairs(tree):
            p = materialize(parent_shift_operator(rooted))
            p0 = materialize(origin_projection(rooted))
            worst = max(worst, np.abs(p @ p.conj().T - (q + p0)).max())
            worst = max(worst, np.abs(p + p.conj().T - s).max())
    elapsed = time.perf_counter() - start
    passed = worst <= IDENTITY_TOL and elapsed < 10.0
    record_criterion(
        "C01 shift-factorization",
        passed,
        f"worst {worst:.2e} over {len(corpus)} trees x 2 origins, {elapsed:.1f}s",
    )
    assert worst <= IDENTITY_TOL
    assert elapsed < 10.0


def test_criterion_02_deformation_product_and_commutant(
    closure_corpus, record_criterion
):
    corpus = closure_corpus + [
        (f"star:{n}", make_star(n), full_automorphism_group(make_star(n)))
        for n in (4, 5, 6)
    ]
    start = time.perf_counter()
    worst_product = 0.0
    worst_commutant = 0.0
    for _, tree, closure in corpus:
        s, q = dense_s_q(tree)
        n = tree.n
        gathers = [(np.argsort(g), g) for g in closure.images]
        for rooted in rooted_pairs(tree):
            for t in DEFAULT_T_GRID:
                tm = materialize(deformation_operator(rooted, t))
                prod = (tm @ tm.conj().T).real
                target = np.eye(n) - t * s + t * t * q
                worst_product = max(worst_product, np.abs(prod - target).max())
                for ginv, gim in gathers:
                    worst_commutant = max(
                        worst_commutant, np.abs(prod[ginv, :] - prod[:, gim]).max()
                    )
    elapsed = time.perf_counter() - start
    passed = max(worst_product, worst_commutant) <= IDENTITY_TOL and elapsed < 30.0
    record_criterion(
        "C02 deformation-product",
        passed,
        f"product {worst_product:.2e}, commutant {worst_commutant:.2e}, {elapsed:.1f}s",
    )
    assert worst_product <= IDENTITY_TOL
    assert worst_commutant <= IDENTITY_TOL
    assert elapsed < 30.0


def test_criterion_03_resolvent_series(family_corpus, random_corpus, record_criterion):
    corpus = family_corpus + random_corpus
    z_values = (0.5, -0.5, 0.3 + 0.4j, 1.0)
    worst = 0.0
    for _, tree in corpus:
        n = tree.n
        for rooted in rooted_pairs(tree):
            shift = sp.csr_matrix(
                materialize(parent_shift_operator(rooted))
            )
            for z in z_values:
                series = sp.identity(n, dtype=complex, format="csr")
                term = sp.identity(n, dtype=complex, format="csr")
                for _ in range(rooted.max_depth):
                    term = (shift @ term) * z
                    series = series + term
                path_sum = materialize(resolvent_operator(rooted, z))
                worst = max(worst, np.abs(path_sum - series.toarray()).max())
    record_criterion(
        "C03 resolvent-series", worst <= RESOLVENT_TOL, f"worst {worst:.2e}"
    )
    assert worst <= RESOLVENT_TOL


def test_criterion_04_bounded_family(closure_corpus, record_criterion):
    z_values = (0.25, 0.5, 0.9)
    worst_local = 0.0
    worst_cross = 0.0
    rank_ok = True
    bounds_ok = True
    worst_margin = -np.inf
    for spec, tree, closure in closure_corpus:
        # per-element defects at the most informative origin (a leaf for the
        # trivalent tree, where displacements reach the diameter)
        defect_roots = (
            rooted_pairs(tree) if tree.n <= 8 else [root_at(tree, tree.n - 1)]
        )
        for rooted in defect_roots:
            for z in z_values:
                for block in element_blocks(len(closure), tree.n):
                    images = closure.images[block]
                    defect = multiplicative_defect(
                        images, dense_bounded_rep(rooted, images, z)
                    )
                    rep = finite_rank_defect(rooted, images, defect)
                    cross = defect_identity_residual(rooted, images, z, defect)
                    worst_local = max(worst_local, rep.outside_residual.max())
                    worst_cross = max(worst_cross, cross.max())
                    rank_ok = rank_ok and (rep.rank <= rep.displacement + 1).all()
        for rooted in rooted_pairs(tree):
            for z in z_values:
                bound = 1 + 2 * z / (1 - z)
                for block in element_blocks(len(closure), tree.n):
                    member = dense_bounded_rep(rooted, closure.images[block], z)
                    max_norm = uniform_bound_certificate(z, member).max()
                    bounds_ok = bounds_ok and max_norm <= bound + BOUND_SLACK
                    worst_margin = max(worst_margin, max_norm - bound)
    passed = (
        worst_local <= UNITARITY_TOL
        and worst_cross <= UNITARITY_TOL
        and rank_ok
        and bounds_ok
    )
    record_criterion(
        "C04 bounded-family",
        passed,
        f"locality {worst_local:.2e}, identity {worst_cross:.2e}, "
        f"norm margin {worst_margin:.3f}",
    )
    assert worst_local <= UNITARITY_TOL
    assert worst_cross <= UNITARITY_TOL
    assert rank_ok
    assert bounds_ok


def test_criterion_05_unitary_family(
    closure_corpus, small_group_corpus, record_criterion
):
    worst_unitary = 0.0
    worst_equiv = 0.0
    worst_hom = 0.0
    for spec, tree, closure in closure_corpus + small_group_corpus:
        n = tree.n
        for rooted in rooted_pairs(tree):
            for t in DEFAULT_T_GRID:
                for block in element_blocks(len(closure), n):
                    images = closure.images[block]
                    rep = dense_unitary_rep(rooted, images, t)
                    gram = rep.conj().swapaxes(1, 2) @ rep
                    worst_unitary = max(worst_unitary, np.abs(gram - np.eye(n)).max())
                    if t > 0.0:
                        equiv = conjugation_equivalence_residual(rooted, images, t, rep)
                        worst_equiv = max(worst_equiv, equiv.max())
    for spec, tree, closure in small_group_corpus:
        rooted = root_at(tree, tree.n - 1)
        g, h = np.divmod(np.arange(len(closure) ** 2), len(closure))
        for t in (0.3, 0.9):
            worst_hom = max(
                worst_hom,
                homomorphism_residual(
                    lambda images: dense_unitary_rep(rooted, images, t),
                    closure.images[g], closure.images[h],
                ).max(),
            )
    # the 3072-element group contributes a seeded sample of pairs
    _, tree, closure = next(c for c in closure_corpus if c[1].n == 22)
    rooted = root_at(tree, tree.n - 1)
    rng = np.random.default_rng(0xA11CE)
    pair_idx = rng.integers(0, len(closure), size=(4096, 2))
    for block in element_blocks(len(pair_idx), tree.n):
        g, h = closure.images[pair_idx[block]].swapaxes(0, 1)
        worst_hom = max(
            worst_hom,
            homomorphism_residual(
                lambda images: dense_unitary_rep(rooted, images, 0.9), g, h
            ).max(),
        )
    passed = (
        worst_unitary <= UNITARITY_TOL
        and worst_equiv <= UNITARITY_TOL
        and worst_hom <= HOMOMORPHISM_TOL
    )
    record_criterion(
        "C05 unitary-family",
        passed,
        f"unitarity {worst_unitary:.2e}, equivalence {worst_equiv:.2e}, "
        f"homomorphism {worst_hom:.2e}",
    )
    assert worst_unitary <= UNITARITY_TOL
    assert worst_equiv <= UNITARITY_TOL
    assert worst_hom <= HOMOMORPHISM_TOL


def test_criterion_06_edge_factorization(
    family_corpus, random_corpus, record_criterion
):
    corpus = family_corpus + random_corpus[:25]
    worst = 0.0
    for _, tree in corpus:
        n = tree.n
        b = materialize(coboundary_operator(tree))
        for rooted in rooted_pairs(tree):
            p = materialize(parent_shift_operator(rooted))
            p0 = materialize(origin_projection(rooted))
            f = materialize(parent_edge_operator(rooted))
            res1 = materialize(resolvent_operator(rooted, 1.0))
            eye = np.eye(n)
            worst = max(worst, np.abs((eye - p) - (b @ f + p0)).max())
            worst = max(worst, np.abs((eye - p) @ f.conj().T - b).max())
            worst = max(worst, np.abs(res1 @ b - f.conj().T).max())
            worst = max(worst, np.abs(f.conj().T @ f - (eye - p0)).max())
            worst = max(worst, np.abs(f @ f.conj().T - np.eye(tree.edge_count)).max())
    record_criterion(
        "C06 edge-factorization", worst <= IDENTITY_TOL, f"worst {worst:.2e}"
    )
    assert worst <= IDENTITY_TOL


def test_criterion_07_limit_approach(closure_corpus, record_criterion):
    monotone_ok = True
    sphere_worst = 0.0
    p2_worst = 0.0
    for spec, tree, closure in closure_corpus:
        for rooted in rooted_pairs(tree):
            for block in element_blocks(len(closure), tree.n):
                images = closure.images[block]
                for t in DEFAULT_T_GRID + (0.999,):
                    member = dense_unitary_rep(rooted, images, t)
                    sphere_worst = max(
                        sphere_worst, origin_sphere_residual(rooted, member).max()
                    )
                curves = homotopy_curve(rooted, images, (0.9, 0.99, 0.999))[0]
                for values, d in zip(curves, displacement(rooted, images)):
                    if d == 0:
                        monotone_ok = monotone_ok and max(values) <= UNITARITY_TOL
                    elif d <= 6:
                        monotone_ok = monotone_ok and values[0] > values[1] > values[2]
    # the two-vertex path has the exact closed form sqrt(2 (1 - t))
    rooted = root_at(make_path(2), 0)
    swap = full_automorphism_group(rooted.tree).images[1:2]
    grid = (0.9, 0.99, 0.999)
    for t, dist in zip(grid, homotopy_curve(rooted, swap, grid)[0, 0]):
        p2_worst = max(p2_worst, abs(dist - math.sqrt(2 * (1 - t))))
    passed = monotone_ok and sphere_worst <= IDENTITY_TOL and p2_worst <= 1e-10
    record_criterion(
        "C07 limit-approach",
        passed,
        f"monotone {monotone_ok}, sphere {sphere_worst:.2e}, "
        f"two-vertex curve {p2_worst:.2e}",
    )
    assert monotone_ok
    assert sphere_worst <= IDENTITY_TOL
    assert p2_worst <= 1e-10


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Unattainable as stated: the gap between the unitary member at t and "
        "the limit representation, measured on the origin vector, is exactly "
        "sqrt((1 - t^d)^2 + (1 - t^(2d))) for displacement d, i.e. about "
        "sqrt(2 d (1 - t)). At t = 0.999 that is 0.0632 for d = 2 and 0.1094 "
        "for d = 6, so a 0.05 ceiling admits only d = 1 elements. The ceiling "
        "matches the d = 1 closed form sqrt(2 (1 - t)) = 0.0447 and does not "
        "extend to d <= 6."
    ),
)
def test_criterion_07_limit_gap_ceiling(closure_corpus, record_criterion):
    worst = 0.0
    for spec, tree, closure in closure_corpus:
        for rooted in rooted_pairs(tree):
            d = displacement(rooted, closure.images)
            images = closure.images[(1 <= d) & (d <= 6)]
            if len(images):
                worst = max(worst, homotopy_curve(rooted, images, (0.999,))[0].max())
    record_criterion(
        "C07 limit-gap-ceiling",
        worst < 0.05,
        f"max gap at t=0.999 over displacements 1..6 is {worst:.4f} "
        "(0.05 only admits displacement 1)",
    )
    assert worst < 0.05


def test_criterion_08_kernels(family_corpus, random_corpus, record_criterion):
    corpus = family_corpus + random_corpus
    worst_gram = 0.0
    worst_cnd = -np.inf
    worst_psd = np.inf
    for _, tree in corpus:
        rooted = root_at(tree, 0)
        s_q = dense_s_q(tree)
        for t in (0.1, 0.5, 0.9):
            k = exp_kernel(tree, t)
            algebraic = deformation_kernel(s_q, t) @ k - (1 - t * t) * np.eye(tree.n)
            worst_gram = max(
                worst_gram, np.abs(algebraic).max(), gram_identity_check(rooted, t, k)
            )
            worst_psd = min(worst_psd, psd_check(k))
        worst_cnd = max(worst_cnd, cnd_check(distance_kernel(tree)))
    passed = (
        worst_gram <= KERNEL_TOL
        and worst_cnd <= KERNEL_TOL
        and worst_psd >= -KERNEL_TOL
    )
    record_criterion(
        "C08 kernels",
        passed,
        f"gram {worst_gram:.2e}, negativity {worst_cnd:.2e}, "
        f"min eigenvalue {worst_psd:.2e}",
    )
    assert worst_gram <= KERNEL_TOL
    assert worst_cnd <= KERNEL_TOL
    assert worst_psd >= -KERNEL_TOL


def test_criterion_09_cocycles(record_criterion):
    corpus = [
        make_path(2), make_path(5), make_path(9),
        make_star(4), make_star(6), make_star(8),
        make_regular(1, 3), make_regular(2, 2), make_regular(2, 3),
        make_random(20, seed=1), make_random(30, seed=2),
    ]
    worst = 0.0
    norms_ok = True
    equivariance_ok = True
    for tree in corpus:
        assert tree.n <= 30
        rooted = root_at(tree, tree.n // 2)
        rep = cocycle_report(rooted, [(x, y) for x in range(tree.n) for y in range(tree.n)])
        norms_ok = norms_ok and bool((rep.squared_norm == rep.distance).all())
        worst = max(
            worst,
            rep.coboundary_residual.max(),
            rep.closed_form_residual.max(),
            rep.antisymmetry_residual.max(),
        )
        images = full_automorphism_group(tree).images
        if len(images) > 64:
            rng = np.random.default_rng(0xA11CE)
            images = images[rng.integers(0, len(images), 64)]
        pairs = [(x, y) for x in range(0, tree.n, 2) for y in range(1, tree.n, 3)]
        gaps = cocycle_equivariance_residual(tree, images, pairs)
        equivariance_ok = equivariance_ok and bool((gaps == 0.0).all())
    passed = norms_ok and equivariance_ok and worst <= IDENTITY_TOL
    record_criterion(
        "C09 cocycles",
        passed,
        f"identities {worst:.2e}, exact norms {norms_ok}, "
        f"equivariance {equivariance_ok}",
    )
    assert norms_ok
    assert equivariance_ok
    assert worst <= IDENTITY_TOL


def test_criterion_10_endpoints_and_continuity(closure_corpus, record_criterion):
    start_exact = True
    worst_limit = 0.0
    worst_ratio = 0.0
    for spec, tree, closure in closure_corpus:
        n = tree.n
        for rooted in rooted_pairs(tree):
            for block in element_blocks(len(closure), n):
                images = closure.images[block]
                gap = np.abs(
                    dense_unitary_rep(rooted, images, 0.0) - dense_pi0(n, images)
                ).max()
                start_exact = start_exact and gap == 0.0
                # the limit member, sparse-applier route vs dense route,
                # plus its unitarity
                limits = dense_limit_rep(rooted, images)
                for dense, g in zip(limits, images):
                    sparse = materialize(limit_rep_operator(rooted, g))
                    worst_limit = max(worst_limit, np.abs(dense - sparse).max())
                gram = limits.conj().swapaxes(1, 2) @ limits
                worst_limit = max(worst_limit, np.abs(gram - np.eye(n)).max())
                reps = [dense_unitary_rep(rooted, images, t) for t in DEFAULT_T_GRID]
                for i in range(len(reps) - 1):
                    step = DEFAULT_T_GRID[i + 1] - DEFAULT_T_GRID[i]
                    dist = np.linalg.norm(reps[i + 1] - reps[i], 2, axis=(1, 2)).max()
                    worst_ratio = max(worst_ratio, dist / (LIPSCHITZ_FACTOR * step))
    passed = start_exact and worst_limit <= UNITARITY_TOL and worst_ratio <= 1.0
    record_criterion(
        "C10 endpoints-continuity",
        passed,
        f"start exact {start_exact}, limit {worst_limit:.2e}, "
        f"lipschitz ratio {worst_ratio:.3f}",
    )
    assert start_exact
    assert worst_limit <= UNITARITY_TOL
    assert worst_ratio <= 1.0


def test_criterion_11_determinism(tmp_path, record_criterion):
    payloads = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(
            ["check", "--tree", "star:4", "--group", "auto",
             "--t", "0,0.5,0.9", "--z", "0.5,0.3+0.4i", "--seed", "11",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        payload.pop("timings")
        payloads.append(json.dumps(payload, indent=2, sort_keys=False))
    identical = payloads[0] == payloads[1]
    record_criterion(
        "C11 determinism", identical, "byte-identical reports modulo timings"
    )
    assert identical
