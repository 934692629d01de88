import numpy as np
import pytest

from onlinelp import model
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import (
    LpInstance,
    compute_stats,
    constraint_violation,
    optimality_gap,
    relative_optimality,
    dual_objective,
    stopping_residual,
)
from onlinelp.simplex import solve_lp


def toy_half_lp():
    # max x1 + x2  s.t.  x1 + x2 <= 0.5,  0 <= x <= 1;  optimum 0.5
    return LpInstance.from_dense([[1.0, 1.0]], [0.5], [1.0, 1.0])


class TestLpInstance:
    def test_single_entry(self):
        inst = LpInstance.from_dense([[1.0]], [2.0], [3.0])
        assert inst.num_rows == 1 and inst.num_cols == 1
        assert inst.nnz == 1

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            LpInstance(0, 1, [0, 0], [], [], [], [1.0], [1.0])

    def test_rejects_bad_col_ptr(self):
        with pytest.raises(ValueError):
            LpInstance(1, 1, [0, 2], [0], [1.0], [1.0], [1.0], [1.0])

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            LpInstance(3, 1, [0, 2], [2, 0], [1.0, 1.0], [1.0] * 3, [1.0], [1.0])

    def test_accepts_empty_leading_and_trailing_columns(self):
        # columns 0, 1, 4 and 5 are empty: starts at 0 and at nnz
        inst = LpInstance(3, 6, [0, 0, 0, 2, 3, 3, 3], [0, 2, 1], [1.0, 2.0, 3.0],
                          [1.0] * 3, [1.0] * 6, [1.0] * 6)
        assert inst.nnz == 3

    def test_a_row_may_drop_across_a_column_boundary(self):
        inst = LpInstance(3, 3, [0, 2, 3, 5], [1, 2, 0, 0, 1], [1.0] * 5,
                          [1.0] * 3, [1.0] * 3, [1.0] * 3)
        assert inst.nnz == 5

    @pytest.mark.parametrize("row_idx", [[0, 1, 1, 2, 2], [0, 1, 1, 2, 1]],
                             ids=["repeated", "decreasing"])
    def test_rejects_a_bad_row_order_in_the_last_column(self, row_idx):
        # behind an empty first column, whose start at 0 must clear nothing
        with pytest.raises(ValueError, match="strictly increasing within a column"):
            LpInstance(3, 4, [0, 0, 2, 3, 5], row_idx, [1.0] * 5,
                       [1.0] * 3, [1.0] * 4, [1.0] * 4)

    def test_rejects_nonpositive_upper(self):
        with pytest.raises(ValueError):
            LpInstance.from_dense([[1.0]], [1.0], [1.0], upper=[0.0])

    def test_arrays_read_only(self):
        inst = toy_half_lp()
        with pytest.raises(ValueError):
            inst.rhs[0] = 9.0

    def test_construction_freezes_the_callers_arrays(self):
        # arrays of the fields' dtypes are held, not copied, and frozen in
        # place; anything else is converted and left writable
        col_ptr, row_idx = np.array([0, 1, 2]), np.array([0, 0])
        values, rhs = np.array([1.0, 2.0]), np.array([0.5])
        obj, upper = np.array([1.0, 1.0]), np.array([1.0, 2.0])
        int_rhs, strided_obj = np.array([3]), np.array([1.0, 0.0, 1.0])[::2]
        inst = LpInstance(1, 2, col_ptr, row_idx, values, rhs, obj, upper)
        for name, a in (("col_ptr", col_ptr), ("row_idx", row_idx), ("values", values),
                        ("rhs", rhs), ("obj", obj), ("upper", upper)):
            assert getattr(inst, name) is a and not a.flags.writeable, name
        other = LpInstance(1, 2, [0, 1, 2], row_idx, values, int_rhs, strided_obj, upper)
        assert other.rhs is not int_rhs and int_rhs.flags.writeable
        assert other.obj is not strided_obj and strided_obj.flags.writeable
        assert other.rhs.tolist() == [3.0] and other.obj.tolist() == [1.0, 1.0]

    def test_scipy_matrix_is_built_once_and_read_only(self):
        inst = LpInstance.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]],
                                     [1.0, 1.0], [1.0, 2.0, 3.0])
        A = inst.to_scipy()
        assert inst.to_scipy() is A
        for arr in (A.data, A.indices, A.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 9.0
        np.testing.assert_array_equal(inst.to_scipy().toarray(),
                                      [[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]])

    def test_equality_is_identity_and_never_raises(self):
        a = LpInstance.from_dense([[1.0]], [2.0], [3.0])
        b = LpInstance.from_dense([[1.0]], [2.0], [3.0])
        assert a == a and not (a != a)
        assert a != b and not (a == b)
        inst = toy_half_lp()
        assert inst != inst.restrict_columns(range(inst.num_cols))
        assert {a: 1, b: 2, inst: 3}[a] == 1

    def test_from_scipy_makes_canonical_csc(self):
        import scipy.sparse as sp

        # column 0: rows 2, 0 (unsorted); column 1: row 1 twice (summed) and
        # a stored zero at row 2 (dropped); column 2: 1 - 1 sums to zero
        data = np.array([3.0, 1.0, 2.0, 5.0, 0.0, 1.0, -1.0])
        rows = np.array([2, 0, 1, 1, 2, 0, 0])
        ptr = np.array([0, 2, 5, 7])
        csc = sp.csc_matrix((data.copy(), rows.copy(), ptr.copy()), shape=(3, 3))
        coo = sp.coo_matrix((data, (rows, np.array([0, 0, 1, 1, 1, 2, 2]))), shape=(3, 3))
        for A in (csc, coo):
            inst = LpInstance.from_scipy(A, np.ones(3), np.ones(3))
            assert inst.col_ptr.tolist() == [0, 2, 3, 3]
            assert inst.row_idx.tolist() == [0, 2, 1]
            assert inst.values.tolist() == [1.0, 3.0, 7.0]
            assert inst.upper.tolist() == [1.0, 1.0, 1.0]
        # the input matrix is left as it was, and writable
        assert csc.data.tolist() == data.tolist() and csc.indices.tolist() == rows.tolist()
        assert csc.data.flags.writeable
        dense = LpInstance.from_dense(csc.toarray(), np.ones(3), np.ones(3))
        assert dense.row_idx.tobytes() == inst.row_idx.tobytes()
        assert dense.values.tobytes() == inst.values.tobytes()

    def test_restrict_columns(self):
        inst = LpInstance.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]],
                                     [1.0, 1.0], [1.0, 2.0, 3.0])
        sub = inst.restrict_columns(np.array([2, 0]))
        np.testing.assert_array_equal(sub.to_dense(), [[2.0, 1.0], [4.0, 0.0]])
        np.testing.assert_array_equal(sub.obj, [3.0, 1.0])

    @pytest.mark.parametrize("cols", [[-2], [-1], [3], [0, 3], [2, -3]])
    def test_restrict_columns_refuses_ids_outside_the_instance(self, cols):
        # a negative id once read one column's entries and another's objective
        inst = LpInstance.from_dense([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
                                     np.ones(3), [10.0, 20.0, 30.0])
        with pytest.raises(ValueError, match=r"column ids must lie in \[0, 3\)"):
            inst.restrict_columns(cols)

    @pytest.mark.parametrize("cols", [[[0, 1]], [0.0, 1.0], [True, False, True]],
                             ids=["2-d", "float", "mask"])
    def test_restrict_columns_refuses_other_than_integer_ids(self, cols):
        inst = LpInstance.from_dense(np.eye(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="1-d array of integers"):
            inst.restrict_columns(cols)

    @pytest.mark.parametrize("j", [-1, -3, 3])
    def test_column_refuses_ids_outside_the_instance(self, j):
        # column(-1) once read col_ptr[-1]:col_ptr[0], an empty column
        inst = LpInstance.from_dense([[1.0, 2.0, 3.0], [1.0, 0.0, 1.0]], [1.0, 1.0],
                                     [5.0, 6.0, 7.0])
        with pytest.raises(IndexError, match="column index out of range"):
            inst.column(j)

    def test_restrict_columns_matches_column_loop(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0.5, 2.0, (6, 40)) * (rng.random((6, 40)) < 0.4)
        A[:, [3, 17, 29]] = 0.0   # empty columns
        inst = LpInstance.from_dense(A, np.ones(6), rng.uniform(1, 2, 40))
        for size in (1, 7, 40):
            cols = rng.permutation(40)[:size]
            if size == 7:
                cols[:2] = [3, 17]
            sub = inst.restrict_columns(cols)
            ri, vals = [], []
            for j in cols:
                rows, v = inst.column(j)
                ri.extend(rows.tolist())
                vals.extend(v.tolist())
            assert sub.num_cols == size
            np.testing.assert_array_equal(np.diff(sub.col_ptr), np.diff(inst.col_ptr)[cols])
            assert sub.row_idx.tobytes() == np.array(ri, dtype=np.int64).tobytes()
            assert sub.values.tobytes() == np.array(vals, dtype=np.float64).tobytes()


class TestReducedCosts:
    """``_reduced_costs`` sweeps a kept transpose of A; the reference is the
    product with the transpose built anew, ``to_scipy().T``."""

    @pytest.mark.parametrize("A", [
        [[1.0, 0.0, 2.0, -1.5], [0.0, 0.0, 4.0, 0.25]],   # column 1 is empty
        [[3.0], [-1.5], [0.5]],                           # n = 1
        [[0.0, 2.0]],                                     # an empty first column
    ], ids=["empty column", "n=1", "empty first column"])
    def test_match_the_transpose_built_per_call(self, A):
        A = np.array(A)
        rng = np.random.default_rng(A.size)
        inst = LpInstance.from_dense(A, np.ones(A.shape[0]), rng.normal(size=A.shape[1]))
        for y in (rng.random(A.shape[0]), np.zeros(A.shape[0]), -rng.random(A.shape[0])):
            want = inst.obj - inst.to_scipy().T @ y
            assert model._reduced_costs(inst, y).tobytes() == want.tobytes()

    def test_match_on_generated_instances(self):
        for seed, (m, n, density) in enumerate([(8, 1000, 1.0), (100, 3000, 0.1), (5, 40, 0.3)]):
            inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.2, density=density, seed=seed))
            y = np.random.default_rng(seed).random(m)
            want = inst.obj - inst.to_scipy().T @ y
            assert model._reduced_costs(inst, y).tobytes() == want.tobytes()

    def test_the_kernel_pointers_are_kept_and_point_at_the_arrays(self):
        inst = LpInstance.from_dense([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]], [1.0, 1.0],
                                     [1.0, 2.0, 3.0])
        kept = inst._kernel_pointers
        model._reduced_costs(inst, np.ones(2))
        model.constraint_violation(inst, np.ones(3))
        assert inst._kernel_pointers is kept
        assert kept == tuple(a.ctypes.data for a in (inst.col_ptr, inst.row_idx, inst.values,
                                                     inst.obj))
        # no transpose of A is kept beside them
        assert not hasattr(inst, "_csc_t")
        # and to_scipy() copies none of the instance's arrays: no int32 indices
        A = inst.to_scipy()
        for a, own in ((A.data, inst.values), (A.indices, inst.row_idx),
                       (A.indptr, inst.col_ptr)):
            assert np.shares_memory(a, own) and a.dtype == own.dtype and a.size == own.size

    def test_a_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="y must have shape"):
            model._reduced_costs(toy_half_lp(), np.ones(2))


class TestComputeStats:
    def test_single_entry(self):
        inst = LpInstance.from_dense([[1.0]], [2.0], [3.0])
        s = compute_stats(inst)
        assert s.a_bar == 1.0 and s.c_bar == 3.0
        assert s.d_lo == 2.0 and s.d_hi == 2.0
        assert s.assumptions_ok

    def test_zero_column_ignored(self):
        inst = LpInstance.from_dense([[2.0, 0.0], [1.0, 0.0]], [4.0, 4.0], [1.0, 5.0])
        s = compute_stats(inst)
        assert s.a_bar == 2.0
        assert s.nnz == 2
        assert s.c_bar == 5.0  # objective still sees the zero column

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.integers(1, 6)
            n = rng.integers(1, 7)
            A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.6)
            b = rng.random(m) + 0.1
            c = rng.normal(size=n)
            inst = LpInstance.from_dense(A, b, c)
            s = compute_stats(inst)
            # independent dense scan
            assert s.a_bar == np.max(np.abs(A)) if A.size else s.a_bar == 0.0
            assert s.c_bar == np.max(np.abs(c))
            assert s.d_lo == np.min(b) / n
            assert s.d_hi == np.max(b) / n
            assert s.nnz == np.count_nonzero(A)

    def test_a_bar_is_the_largest_magnitude_of_either_sign(self):
        for A, want in (([[-3.0, 1.0], [0.0, 2.0]], 3.0), ([[-1.0, -2.0]], 2.0),
                        ([[0.5, 4.0], [1.0, -4.0]], 4.0), ([[1e-300, 7e300]], 7e300)):
            inst = LpInstance.from_dense(A, np.ones(len(A)), np.ones(len(A[0])))
            a_bar = compute_stats(inst).a_bar
            assert a_bar == want and a_bar == np.max(np.abs(inst.values))
            assert type(a_bar) is float

    def test_f_bar_is_computed_on_first_read(self, monkeypatch):
        calls = 0
        original = model._uniform_dual_value

        def counting(instance):
            nonlocal calls
            calls += 1
            return original(instance)

        monkeypatch.setattr(model, "_uniform_dual_value", counting)
        inst = LpInstance.from_dense([[1.0, 2.0], [3.0, 1.0]], [2.0, 3.0], [1.0, 2.0])
        stats = compute_stats(inst)
        assert calls == 0
        assert stats.f_bar == original(inst) and stats.f_bar == stats.f_bar
        assert calls == 1

    def test_uniform_dual_bound(self):
        # f_bar is the least dual value on the ray eta * 1 (brute force over
        # every kink) and bounds the LP optimum OPT / n from above.  The
        # integer draws after the first 40 repeat kinks c_j / s_j, also at
        # the minimizing one, where the right slope must count every column
        # of the kink as turned
        rng = np.random.default_rng(11)
        tied_at_min = 0
        for draw in range(120):
            if draw < 40:
                m, n = int(rng.integers(1, 5)), int(rng.integers(1, 8))
                A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.7)
                b = rng.random(m) + 0.1
                c = rng.normal(size=n)
            else:
                m, n = int(rng.integers(1, 5)), int(rng.integers(2, 12))
                A = rng.integers(-1, 3, size=(m, n)).astype(float)
                b = rng.integers(1, 4, size=m).astype(float)
                c = A.sum(axis=0) * rng.integers(0, 4, size=n)
            inst = LpInstance.from_dense(A, b, c)
            s = A.sum(axis=0)
            ratios = c[s != 0] / s[s != 0]
            kinks = [0.0] + [r for r in ratios if r > 0]
            values = [e * b.sum() / n + np.maximum(c - e * s, 0.0).sum() / n for e in kinks]
            f_bar = compute_stats(inst).f_bar
            assert f_bar == pytest.approx(min(values), rel=1e-12, abs=1e-12)
            assert f_bar >= solve_lp(inst).obj / n - 1e-9
            tied_at_min += np.count_nonzero(ratios == kinks[int(np.argmin(values))]) > 1
        assert tied_at_min >= 20


class TestViolation:
    def test_zero_point_feasible(self):
        inst = toy_half_lp()
        assert constraint_violation(inst, [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        inst = toy_half_lp()
        assert constraint_violation(inst, [1.0, 1.0]) == pytest.approx(1.5, abs=1e-15)

    def test_feasible_point_zero(self):
        inst = LpInstance.from_dense([[1.0, 2.0], [3.0, 1.0]], [5.0, 5.0], [1.0, 1.0])
        assert constraint_violation(inst, [0.5, 0.5]) == 0.0

    def test_scaling_rhs_keeps_feasible_at_zero(self):
        rng = np.random.default_rng(3)
        A = rng.random((3, 4))
        x = rng.random(4)
        b = A @ x + 0.1
        inst2 = LpInstance.from_dense(A, 2.0 * b, rng.random(4))
        assert constraint_violation(inst2, x) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            constraint_violation(toy_half_lp(), [1.0])


class TestGapAndRelative:
    def test_exact_optimizer_zero_gap(self):
        inst = toy_half_lp()
        assert optimality_gap(inst, [0.5, 0.0], 0.5) == 0.0

    def test_toy_gap_from_origin(self):
        inst = toy_half_lp()
        assert optimality_gap(inst, [0.0, 0.0], 0.5) == 0.5

    def test_relative_bounds(self):
        inst = toy_half_lp()
        assert relative_optimality(inst, [0.5, 0.0], 0.5) == 1.0
        assert relative_optimality(inst, [0.0, 0.0], 0.5) == 0.0
        r = relative_optimality(inst, [0.25, 0.0], 0.5)
        assert 0.0 < r <= 1.0

    def test_relative_rejects_zero_optimum(self):
        with pytest.raises(ZeroDivisionError):
            relative_optimality(toy_half_lp(), [0.0, 0.0], 0.0)

    def test_gap_nonnegative_at_random_feasible_points(self):
        from onlinelp.simplex import enumerate_vertices_oracle

        rng = np.random.default_rng(31)
        for _ in range(25):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.random((m, n)) * 2
            b = rng.random(m) + 0.2
            c = rng.normal(size=n)
            inst = LpInstance.from_dense(A, b, c)
            opt, x_star = enumerate_vertices_oracle(inst)
            # random box point scaled into the feasible region
            x = rng.random(n)
            row = A @ x
            scale = min(1.0, float(np.min(b / np.maximum(row, 1e-12))))
            x = x * scale
            assert optimality_gap(inst, x, opt) >= -1e-9
            if opt != 0.0:
                assert relative_optimality(inst, x_star, opt) == pytest.approx(1.0)


class TestDualObjective:
    def test_zero_multipliers(self):
        inst = LpInstance.from_dense([[1.0, 1.0]], [0.5], [2.0, -1.0],
                                     upper=[3.0, 1.0])
        # <u, [c]_+> = 3*2 + 0
        assert dual_objective(inst, [0.0]) == 6.0

    def test_toy_hand_value(self):
        inst = toy_half_lp()
        assert dual_objective(inst, [1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_clamps_negative(self):
        inst = toy_half_lp()
        with pytest.warns(RuntimeWarning):
            v = dual_objective(inst, [-1.0])
        assert v == dual_objective(inst, [0.0])

    def test_infinite_upper_with_zero_reduced_cost(self):
        inst = LpInstance.from_dense([[1.0]], [1.0], [1.0], upper=[np.inf])
        # y = 1 zeroes the reduced cost; inf * 0 must not poison the bound
        assert dual_objective(inst, [1.0]) == 1.0


class TestDualBoundProperty:
    def test_dominates_oracle_optimum_for_random_multipliers(self):
        from onlinelp.simplex import enumerate_vertices_oracle

        rng = np.random.default_rng(99)
        checked = 0
        while checked < 100:
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
            b = rng.random(m) + 0.1
            c = rng.normal(size=n)
            u = rng.random(n) + 0.2
            inst = LpInstance.from_dense(A, b, c, upper=u)
            opt, _ = enumerate_vertices_oracle(inst)
            y = rng.random(m) * 3
            assert dual_objective(inst, y) >= opt - 1e-9 * (1 + abs(opt))
            checked += 1


class TestStoppingResidual:
    def test_exact_pair_vanishes(self):
        inst = toy_half_lp()
        # x* on the facet, y* = 1 is the exact dual
        r = stopping_residual(inst, [0.5, 0.0], [1.0])
        assert r <= 1e-9

    def test_origin_gap_only(self):
        inst = LpInstance.from_dense([[1.0, 1.0]], [2.0], [3.0, 1.0])
        r = stopping_residual(inst, [0.0, 0.0], [0.0])
        dual = 3.0 + 1.0  # <u, [c]_+>
        assert r == pytest.approx(dual / (dual + 0.0 + 1.0))

    def test_infeasible_dominated_by_violation(self):
        inst = toy_half_lp()
        x = [1.0, 1.0]
        r = stopping_residual(inst, x, [1.0])
        assert r >= 1.5 / (0.5 + 1.0) - 1e-12
