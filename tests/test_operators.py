import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from treelab.checks import DEFAULT_T_GRID, _geometric_series
from treelab.groups import (
    full_automorphism_group,
    pi0_operator,
    pi1_operator,
    verify_automorphism,
)
from treelab.kernels import dense_s_q
from treelab.operators import (
    adjacency_operator,
    branching_operator,
    coboundary_operator,
    deformation_inverse,
    deformation_operator,
    format_complex,
    identity_operator,
    materialize,
    matrix_to_csv,
    operator_norm,
    origin_projection,
    parent_edge_operator,
    parent_shift_operator,
    parse_complex,
    resolvent_apply,
    resolvent_operator,
    worst_of,
)
from treelab.trees import make_path, make_random, make_star, root_at, tree_from_spec


def dense_shift(rooted):
    """Independent dense construction of the parent shift from the parent map."""
    n = rooted.n
    mat = np.zeros((n, n), dtype=complex)
    for x in range(n):
        if rooted.parent[x] is not None:
            mat[rooted.parent[x], x] = 1.0
    return mat


def delta(n, x):
    """The basis vector at x, as an (n, 1) block."""
    return np.eye(n)[:, [x]]


def column(n, entries):
    """The (n, 1) block with the given {index: value} entries."""
    out = np.zeros((n, 1), dtype=complex)
    for i, value in entries.items():
        out[i, 0] = value
    return out


def random_trees(count=8, max_n=60):
    rng = np.random.default_rng(321)
    out = []
    for seed in range(count):
        n = int(rng.integers(2, max_n))
        tree = make_random(n, seed)
        out.append(root_at(tree, int(rng.integers(0, n))))
    return out


class TestAdjacencyAndBranching:
    def test_adjacency_on_small_trees(self):
        p2 = make_path(2)
        assert np.array_equal(adjacency_operator(p2) @ delta(2, 0), delta(2, 1))
        p3 = make_path(3)
        out = adjacency_operator(p3) @ delta(3, 1)
        assert np.array_equal(out, column(3, {0: 1, 2: 1}))
        star = make_star(4)
        out = adjacency_operator(star) @ delta(4, 0)
        assert np.array_equal(out, column(4, {1: 1, 2: 1, 3: 1}))

    def test_branching_diagonal(self):
        p3 = make_path(3)
        q = branching_operator(p3)
        assert np.array_equal(q @ delta(3, 1), delta(3, 1))
        assert not (q @ delta(3, 0)).any()  # leaf
        star = make_star(4)
        out = branching_operator(star) @ delta(4, 0)
        assert np.array_equal(out, column(4, {0: 2}))


class TestParentShift:
    def test_examples(self):
        rooted = root_at(make_path(3), 0)
        shift = parent_shift_operator(rooted)
        assert np.array_equal(shift @ delta(3, 2), delta(3, 1))
        assert not (shift @ delta(3, 0)).any()

    def test_adjoint_against_dense_transpose(self):
        rooted = root_at(make_path(3), 0)
        shift = parent_shift_operator(rooted)
        # frozen expectation derived from the conjugate-transpose oracle
        assert np.array_equal(shift.adjoint() @ delta(3, 1), delta(3, 2))
        for r in random_trees(4):
            mat = materialize(parent_shift_operator(r))
            adj = materialize(parent_shift_operator(r).adjoint())
            assert np.abs(adj - mat.conj().T).max() == 0.0

    def test_shift_product_and_sum(self):
        for rooted in random_trees():
            tree = rooted.tree
            p = materialize(parent_shift_operator(rooted))
            s = materialize(adjacency_operator(tree))
            q = materialize(branching_operator(tree))
            p0 = materialize(origin_projection(rooted))
            assert np.abs(p @ p.conj().T - (q + p0)).max() <= 1e-12
            assert np.abs(p + p.conj().T - s).max() <= 1e-12

    def test_nilpotent(self):
        for rooted in random_trees(4):
            p = materialize(parent_shift_operator(rooted))
            power = np.linalg.matrix_power(p, rooted.max_depth + 1)
            assert np.abs(power).max() == 0.0


class TestOriginProjection:
    def test_examples(self):
        rooted = root_at(make_path(3), 0)
        p0 = origin_projection(rooted)
        d0 = delta(3, 0)
        assert np.array_equal(p0 @ d0, d0)
        assert not (p0 @ delta(3, 1)).any()
        mixed = column(3, {0: 1, 1: 1})
        assert np.array_equal(p0 @ mixed, d0)

    def test_idempotent_rank_one(self):
        rooted = root_at(make_star(5), 2)
        mat = materialize(origin_projection(rooted))
        assert np.abs(mat @ mat - mat).max() == 0.0
        assert np.linalg.matrix_rank(mat) == 1


class TestDeformation:
    def test_identity_at_zero(self):
        rooted = root_at(make_path(4), 0)
        t0 = deformation_operator(rooted, 0.0)
        for x in range(4):
            assert np.array_equal(t0 @ delta(4, x), delta(4, x))

    def test_p2_values_against_formula_oracle(self):
        rooted = root_at(make_path(2), 0)
        # oracle: 1 - t*shift + (sqrt(1-t^2)-1)*p0 built densely
        t = 0.5
        dense = (
            np.eye(2)
            - t * dense_shift(rooted)
            + (math.sqrt(1 - t * t) - 1) * np.diag([1.0, 0.0])
        )
        assert np.abs(materialize(deformation_operator(rooted, t)) - dense).max() == 0.0
        out = deformation_operator(rooted, t) @ delta(2, 0)
        assert out[0, 0] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        out = deformation_operator(rooted, t) @ delta(2, 1)
        assert np.array_equal(out, column(2, {1: 1, 0: -0.5}))

    def test_product_identity(self):
        for rooted in random_trees(5):
            tree = rooted.tree
            s = materialize(adjacency_operator(tree))
            q = materialize(branching_operator(tree))
            for t in (0.0, 0.3, 0.9, 0.99, 1.0):
                tm = materialize(deformation_operator(rooted, t))
                target = np.eye(tree.n) - t * s + t * t * q
                assert np.abs(tm @ tm.conj().T - target).max() <= 1e-12

    @pytest.mark.parametrize("spec", ["star:7", "regular:2,3"])
    def test_every_automorphism_gathers_k_t_onto_itself(self, spec):
        # deformation-commutant's premise: K_t = 1 - t S + t^2 Q is built
        # from integer matrices that an automorphism preserves, so every
        # closure row gathers it onto itself bit for bit, and the commutant
        # of T T* is at most twice its gap to K_t
        tree = tree_from_spec(spec)
        n, images = tree.n, full_automorphism_group(tree).images

        def gathered_onto_itself(s, q, t):
            k = np.eye(n) - t * s + t * t * q
            return np.array_equal(k.take(images[:, :, None] * n + images[:, None, :]),
                                  np.broadcast_to(k, (len(images), n, n)))

        s, q = dense_s_q(tree)
        assert all(gathered_onto_itself(s, q, t) for t in DEFAULT_T_GRID)
        # one entry off, at a vertex the group moves: the gather sees it
        x = int(np.flatnonzero((images != np.arange(n)).any(axis=0))[0])
        s_bad, q_bad = s.copy(), q.copy()
        s_bad[x, tree.adjacency[x][0]] += 1.0
        q_bad[x, x] += 1.0
        for t in DEFAULT_T_GRID[1:]:  # t = 0 reads neither
            assert not gathered_onto_itself(s_bad, q, t)
            assert not gathered_onto_itself(s, q_bad, t)

    def test_parameter_range(self):
        rooted = root_at(make_path(2), 0)
        deformation_operator(rooted, 1.0)  # closed endpoint allowed
        with pytest.raises(ValueError):
            deformation_operator(rooted, 1.1)
        with pytest.raises(ValueError):
            deformation_operator(rooted, -0.1)


class TestDeformationInverse:
    def test_p2_values_against_dense_inversion_oracle(self):
        rooted = root_at(make_path(2), 0)
        t = 0.5
        inv = materialize(deformation_inverse(rooted, t))
        oracle = np.linalg.inv(materialize(deformation_operator(rooted, t)))
        assert np.abs(inv - oracle).max() <= 1e-12
        assert inv[0, 0] == pytest.approx(2 / math.sqrt(3), abs=1e-15)
        assert inv[0, 1] == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert inv[1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_composition_is_identity(self):
        for rooted in random_trees(5):
            n = rooted.n
            for t in (0.0, 0.5, 0.99):
                fwd = materialize(deformation_operator(rooted, t))
                inv = materialize(deformation_inverse(rooted, t))
                assert np.abs(inv @ fwd - np.eye(n)).max() <= 1e-12
                assert np.abs(fwd @ inv - np.eye(n)).max() <= 1e-12

    def test_identity_at_zero(self):
        rooted = root_at(make_star(4), 1)
        assert np.abs(materialize(deformation_inverse(rooted, 0.0)) - np.eye(4)).max() == 0.0

    def test_t_one_rejected(self):
        with pytest.raises(ValueError):
            deformation_inverse(root_at(make_path(2), 0), 1.0)


class TestResolvent:
    def test_path_sum_structure(self):
        rooted = root_at(make_path(3), 0)
        z = 0.37 + 0.21j
        out = resolvent_apply(rooted, z, delta(3, 2))
        assert np.array_equal(out, column(3, {2: 1, 1: z, 0: z * z}))

    def test_degenerate_cases(self):
        rooted = root_at(make_path(3), 0)
        v = column(3, {0: 1, 2: -2j})
        assert np.array_equal(resolvent_apply(rooted, 0.0, v), v)
        d0 = delta(3, 0)
        assert np.array_equal(resolvent_apply(rooted, 0.8, d0), d0)

    def test_inverse_relation(self):
        for rooted in random_trees(4):
            z = 0.3 + 0.4j
            n = rooted.n
            one_minus = np.eye(n) - z * dense_shift(rooted)
            res = materialize(resolvent_operator(rooted, z))
            assert np.abs(one_minus @ res - np.eye(n)).max() <= 1e-13

    def test_against_sparse_series_oracle(self):
        for rooted in random_trees(5, max_n=120):
            n = rooted.n
            shift = sp.csr_matrix(dense_shift(rooted))
            for z in (0.5, -0.5, 0.3 + 0.4j, 1.0):
                series = sp.identity(n, dtype=complex, format="csr")
                term = sp.identity(n, dtype=complex, format="csr")
                for _ in range(rooted.max_depth):
                    term = (shift @ term) * z
                    series = series + term
                dense = materialize(resolvent_operator(rooted, z))
                assert np.abs(dense - series.toarray()).max() <= 1e-13

    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 7, 8, 9])
    def test_doubled_series_against_a_plain_loop(self, terms):
        # the resolvent-series oracle sums by binary doubling; on path:12 no
        # power below the 12th vanishes, so every term counts
        rooted = root_at(make_path(12), 0)
        rng = np.random.default_rng(terms)
        generic = rng.standard_normal((6, 6)) / 6
        for x in (0.5 * dense_shift(rooted).real, (0.3 + 0.4j) * dense_shift(rooted),
                  generic):
            series, term = np.zeros_like(x), np.eye(len(x))
            for _ in range(terms):
                series, term = series + term, term @ x
            assert np.abs(_geometric_series(x, terms) - series).max() <= 1e-15

    def test_adjoint_consistency(self):
        rooted = root_at(make_random(20, seed=8), 3)
        op = resolvent_operator(rooted, 0.3 - 0.6j)
        mat = materialize(op)
        adj = materialize(op.adjoint())
        assert np.abs(adj - mat.conj().T).max() <= 1e-14


class TestParentEdgeMap:
    def test_p2_signed_value(self):
        rooted = root_at(make_path(2), 0)
        f = parent_edge_operator(rooted)
        out = f @ delta(2, 1)
        # the parent edge of vertex 1 is traversed against its canonical
        # orientation, hence the sign: the class of (1, 0) is -1 times the
        # canonical edge vector
        assert np.array_equal(out, [[-1.0]])
        assert not (f @ delta(2, 0)).any()

    def test_isometry_relations(self):
        for rooted in random_trees(5):
            f = materialize(parent_edge_operator(rooted))
            n = rooted.n
            p0 = materialize(origin_projection(rooted))
            assert np.abs(f.conj().T @ f - (np.eye(n) - p0)).max() == 0.0
            assert np.abs(f @ f.conj().T - np.eye(n - 1)).max() == 0.0

    def test_fstarf_on_p3(self):
        rooted = root_at(make_path(3), 0)
        f = parent_edge_operator(rooted)
        d2 = delta(3, 2)
        assert np.array_equal(f.adjoint() @ (f @ d2), d2)


class TestCoboundary:
    def test_orientation(self):
        tree = make_path(2)
        b = coboundary_operator(tree)
        assert np.array_equal(b @ [[1.0]], column(2, {0: 1, 1: -1}))
        assert np.array_equal(b @ [[-1.0]], column(2, {0: -1, 1: 1}))

    def test_well_defined_on_signed_classes(self):
        tree = make_random(15, seed=1)
        b = coboundary_operator(tree)
        for u, v in tree.edges:
            # the classes of (u, v) and (v, u): the canonical edge vector
            # and its negative
            edge = delta(tree.edge_count, tree.edge_index[u, v])
            image = b @ edge
            assert np.array_equal(image, column(tree.n, {u: 1, v: -1}))
            reverse = b @ -edge
            assert np.array_equal(reverse, column(tree.n, {u: -1, v: 1}))

    def test_injective_on_p3(self):
        tree = make_path(3)
        mat = materialize(coboundary_operator(tree))
        assert np.linalg.matrix_rank(mat) == 2

    def test_split_identities(self):
        for rooted in random_trees(5):
            tree = rooted.tree
            n = tree.n
            p = materialize(parent_shift_operator(rooted))
            p0 = materialize(origin_projection(rooted))
            f = materialize(parent_edge_operator(rooted))
            b = materialize(coboundary_operator(tree))
            assert np.abs((np.eye(n) - p) - (b @ f + p0)).max() == 0.0
            assert np.abs((np.eye(n) - p) @ f.conj().T - b).max() == 0.0

    def test_resolvent_at_one_recovers_edge_adjoint(self):
        for rooted in random_trees(4):
            tree = rooted.tree
            b = coboundary_operator(tree)
            fstar = parent_edge_operator(rooted).adjoint()
            for j in range(tree.edge_count):
                e = delta(tree.edge_count, j)
                lhs = resolvent_apply(rooted, 1.0, b @ e)
                assert np.array_equal(lhs, fstar @ e)


class TestAdjointContract:
    def test_pairing_on_random_vectors(self):
        rng = np.random.default_rng(77)
        for rooted in random_trees(4):
            tree = rooted.tree
            ops = [
                adjacency_operator(tree),
                branching_operator(tree),
                parent_shift_operator(rooted),
                origin_projection(rooted),
                deformation_operator(rooted, 0.6),
                deformation_inverse(rooted, 0.6),
                resolvent_operator(rooted, 0.2 + 0.5j),
                parent_edge_operator(rooted),
                coboundary_operator(tree),
                parent_shift_operator(rooted) + origin_projection(rooted),
                resolvent_operator(rooted, 0.3).scale(0.4 - 1.1j),
            ]
            for op in ops:
                for _ in range(3):
                    u_data = rng.standard_normal((op.shape[0], 2))
                    v_data = rng.standard_normal((op.shape[1], 2))
                    u = (u_data[:, 0] + 1j * u_data[:, 1])[:, None]
                    v = (v_data[:, 0] + 1j * v_data[:, 1])[:, None]
                    # np.vdot conjugates its first argument
                    lhs = np.vdot(op.adjoint() @ u, v)
                    rhs = np.vdot(u, op @ v)
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestMaterializeAndNorm:
    def test_materialize_guard(self):
        with pytest.raises(ValueError, match="refusing"):
            materialize(identity_operator(10001))

    def test_norm_examples(self):
        tree = make_path(2)
        rooted = root_at(tree, 0)
        assert operator_norm(identity_operator(tree.n)) == pytest.approx(
            1.0, abs=1e-10
        )
        assert operator_norm(origin_projection(rooted)) == pytest.approx(1.0, abs=1e-10)
        # adjacency on the single edge has eigenvalues +/-1
        assert operator_norm(adjacency_operator(tree)) == pytest.approx(1.0, abs=1e-10)

    def test_norm_against_svd_oracle(self):
        # the largest singular value, by a solver other than the Gram route
        def oracle(mat):
            return np.linalg.svd(mat, compute_uv=False)[..., 0]

        rng = np.random.default_rng(5)
        for rooted in random_trees(6, max_n=64):
            mat = materialize(deformation_inverse(rooted, 0.8))
            assert operator_norm(mat) == pytest.approx(oracle(mat), rel=1e-12)
        real = rng.standard_normal((5, 12, 7))
        cases = [real, real + 1j * rng.standard_normal((5, 12, 7)), real[:, :4]]
        for stack in cases:
            norms = operator_norm(stack)
            assert norms.shape == (5,)
            assert norms == pytest.approx(oracle(stack), rel=1e-12)
            for mat, norm in zip(stack, norms):
                assert operator_norm(mat) == pytest.approx(norm, rel=1e-15)

    def test_norm_of_zero_operator(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
        assert operator_norm(np.zeros((0, 3))) == 0.0
        assert operator_norm(np.zeros((3, 0))) == 0.0
        assert operator_norm(np.zeros((2, 4, 4), dtype=complex)).tolist() == [0.0, 0.0]
        assert operator_norm(np.zeros((2, 4, 0))).tolist() == [0.0, 0.0]

    def test_a_zero_matrix_reads_zero_and_leaves_its_stack_s_norms(self, monkeypatch):
        # a 2-D zero matrix is the float 0.0, from an empty Gram; in a stack
        # the zero matrix adds no column and reads 0, and the others read
        # their solo norms bit for bit
        calls = []

        def counting(gram):
            calls.append(gram.shape)
            return eigvalsh(gram)

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for dtype in (float, complex):
            calls.clear()
            zero = operator_norm(np.zeros((5, 5), dtype=dtype))
            assert type(zero) is float and zero == 0.0 and calls == [(0, 0)]
        rng = np.random.default_rng(11)
        real = rng.standard_normal((3, 6, 6))
        for stack in (real, real + 1j * rng.standard_normal((3, 6, 6))):
            stack[1] = 0.0
            calls.clear()
            norms = operator_norm(stack)
            assert calls == [(3, 6, 6)]
            assert norms[1] == 0.0
            for i in (0, 2):
                assert norms[i] == operator_norm(stack[i])

    def test_norm_skips_zero_columns_exactly(self):
        # columns that are zero in every matrix of the stack are dropped
        # before the Gram; a column zero in one matrix only is kept
        rng = np.random.default_rng(3)
        real = rng.standard_normal((4, 9, 9))
        real[:, :, [0, 3, 4, 8]] = 0.0
        real[1, :, 5] = 0.0
        for stack in (real, real + 1j * rng.standard_normal((4, 9, 9)) * (real != 0)):
            norms = operator_norm(stack)
            for mat, norm in zip(stack, norms):
                assert abs(norm - np.linalg.norm(mat, 2)) <= 1e-15 * norm
                assert operator_norm(mat) == pytest.approx(norm, rel=1e-15)
            # a NaN or inf beside zero columns is its own matrix's NaN; the
            # others keep their norms bit for bit
            for bad in (math.nan, math.inf):
                planted = stack.copy()
                planted[2, 0, 1] = bad
                got = operator_norm(planted)
                assert math.isnan(got[2])
                assert np.array_equal(np.delete(got, 2), np.delete(norms, 2))

    def test_norm_of_a_non_finite_matrix(self):
        # a NaN or an inf makes its own matrix's norm NaN, real or complex;
        # the other matrices of the stack keep the finite stack's norms
        for dtype in (float, complex):
            finite = np.stack([np.eye(3), 2 * np.eye(3)]).astype(dtype)
            norms = operator_norm(finite)
            assert norms.tolist() == [1.0, 2.0]
            for bad in (math.nan, math.inf, -math.inf):
                stack = finite.copy()
                stack[0, 1, 2] = bad
                got = operator_norm(stack)
                assert math.isnan(got[0]) and got[1] == norms[1]
                assert math.isnan(operator_norm(stack[0]))

    def test_norm_deterministic(self):
        mat = np.random.default_rng(9).standard_normal((10, 10))
        assert operator_norm(mat) == operator_norm(mat)

    def test_worst_of(self):
        # the largest value and the first index holding it
        assert worst_of([0.1, 0.3, 0.2, 0.3]) == (0.3, 1)
        assert worst_of(np.array([[0.0, 2.0], [2.0, 1.0]])) == (2.0, 1)
        # floored at (0.0, 0): empty and non-positive inputs
        assert worst_of([]) == (0.0, 0)
        assert worst_of([-3, -1, 0.0, 0.0]) == (0.0, 0)
        assert worst_of([0.0, 0.0, 5e-324]) == (5e-324, 2)
        # inf is kept; a NaN anywhere wins, at its first index
        assert worst_of([1.0, math.inf, 2.0]) == (math.inf, 1)
        nan = math.nan
        cases = (([nan, 1.0], 0), ([1.0, nan, 3.0, nan], 1), ([-1, nan], 1))
        for values, first in cases:
            value, index = worst_of(values)
            assert math.isnan(value) and index == first

    def test_csv_export(self):
        mat = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert matrix_to_csv(mat) == "1,0.5\n0.5,1\n"
        mat = np.array([[0.3 + 0.4j]])
        assert matrix_to_csv(mat) == "0.3+0.4i\n"


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-0.5", -0.5 + 0j),
            ("0.3+0.4i", 0.3 + 0.4j),
            ("1-2i", 1 - 2j),
            ("0.4i", 0.4j),
            ("-2i", -2j),
            ("2e-3", 0.002 + 0j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_parse_rejects_garbage(self):
        for bad in ("", "i+1", "1+2", "one"):
            with pytest.raises(ValueError):
                parse_complex(bad)

    @pytest.mark.parametrize("z", [1, -0.5, 0.3 + 0.4j, 1 - 2j, 0.4j, 0, 2.25])
    def test_round_trip(self, z):
        assert parse_complex(format_complex(complex(z))) == complex(z)

    def test_format_examples(self):
        assert format_complex(1 + 0j) == "1"
        assert format_complex(-0.5 + 0j) == "-0.5"
        assert format_complex(0.3 + 0.4j) == "0.3+0.4i"
        assert format_complex(1 - 2j) == "1-2i"


class TestOperatorPlumbing:
    def test_apply_type_checks(self):
        tree = make_path(3)
        s = adjacency_operator(tree)
        with pytest.raises(ValueError):
            s @ np.eye(tree.edge_count)[:, [0]]  # an edge vector
        with pytest.raises(ValueError):
            s @ np.eye(4)[:, [0]]

    def test_compose_dimension_check(self):
        tree = make_path(3)
        rooted = root_at(tree, 0)
        f = parent_edge_operator(rooted)
        with pytest.raises(ValueError, match="cannot compose"):
            f.compose(coboundary_operator(make_path(4)))
        with pytest.raises(ValueError, match="different shapes"):
            f + coboundary_operator(tree)

    def test_compose_matches_matrix_product(self):
        rooted = root_at(make_star(5), 1)
        f = parent_edge_operator(rooted)
        b = coboundary_operator(rooted.tree)
        composed = materialize(b.compose(f))
        assert np.abs(
            composed - materialize(b) @ materialize(f)
        ).max() == 0.0
        p0 = origin_projection(rooted)
        summed = materialize(b.compose(f) + p0)
        assert np.abs(summed - (composed + materialize(p0))).max() == 0.0
        a = 0.5 - 2j
        assert np.abs(materialize(f.scale(a)) - a * materialize(f)).max() == 0.0
        assert np.abs(
            materialize(f.scale(a).adjoint()) - np.conj(a) * materialize(f).conj().T
        ).max() == 0.0


def _named_operators(rooted, g):
    tree = rooted.tree
    ops = [
        adjacency_operator(tree),
        branching_operator(tree),
        origin_projection(rooted),
        parent_shift_operator(rooted),
        resolvent_operator(rooted, 0.37 + 0.21j),
        resolvent_operator(rooted, 0.5),
        deformation_operator(rooted, 0.6),
        deformation_inverse(rooted, 0.6),
        parent_edge_operator(rooted),
        coboundary_operator(tree),
        pi0_operator(tree, g),
        pi1_operator(tree, g),
        coboundary_operator(tree).compose(parent_edge_operator(rooted)),
        parent_shift_operator(rooted) + origin_projection(rooted),
        parent_edge_operator(rooted).scale(0.4 - 1.1j),
    ]
    return ops + [op.adjoint() for op in ops]


def _leaf_swap(rooted):
    """Two sibling leaves exchanged, or the identity if no vertex has two."""
    images = list(range(rooted.n))
    for kids in rooted.children:
        leaves = [c for c in kids if rooted.tree.degree(c) == 1]
        if len(leaves) >= 2:
            a, b = leaves[:2]
            images[a], images[b] = b, a
            break
    return verify_automorphism(rooted.tree, images)


class TestBlockAppliers:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 14),
        seed=st.integers(0, 10**6),
        k=st.integers(1, 4),
        complex_block=st.booleans(),
    )
    def test_block_equals_per_column_apply(self, n, seed, k, complex_block):
        rng = np.random.default_rng(seed)
        tree = make_random(n, seed)
        rooted = root_at(tree, int(rng.integers(0, n)))
        for op in _named_operators(rooted, _leaf_swap(rooted)):
            assert materialize(op).shape == op.shape, op
            assert op.adjoint().shape == op.shape[::-1], op
            block = rng.standard_normal((op.shape[1], k))
            if complex_block:
                block = block + 1j * rng.standard_normal(block.shape)
            images = op @ block
            assert images.shape == (op.shape[0], k)
            for j in range(k):
                gap = np.abs(images[:, [j]] - op @ block[:, [j]]).max(initial=0.0)
                assert gap <= 1e-12, op
            with pytest.raises(ValueError, match="block"):
                op @ np.zeros((op.shape[1] + 1, k))
            with pytest.raises(ValueError, match="block"):
                op @ np.zeros(op.shape[1])

    def test_real_block_stays_real_for_real_parameters(self):
        rooted = root_at(make_random(9, 2), 4)
        block = np.eye(9)
        assert (resolvent_operator(rooted, 0.5) @ block).dtype == np.float64
        assert (deformation_inverse(rooted, 0.5) @ block).dtype == np.float64
        assert (resolvent_operator(rooted, 0.5j) @ block).dtype == np.complex128
        # materialize keeps the applier's dtype and entries, with every zero +0.0
        ops = _named_operators(rooted, _leaf_swap(rooted))
        # the resolvent at 0.37+0.21j, the scale by 0.4-1.1j and their adjoints
        complex_ops = {4, 14, 19, 29}
        for i, op in enumerate(ops):
            mat = materialize(op)
            images = op @ np.eye(op.shape[1])
            assert mat.dtype == images.dtype, op
            assert np.array_equal(mat, images), op
            assert mat.dtype == (np.complex128 if i in complex_ops else np.float64), op
            for part in (mat.real, mat.imag):
                assert not np.signbit(part[part == 0]).any(), op
