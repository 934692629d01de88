import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from onlinelp import simplex
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.sifting import _map_warm_basis, price
from onlinelp.simplex import (
    SolveStatus,
    enumerate_vertices_oracle,
    solve_lp,
)


def random_instance(rng, m, n, allow_negative=False):
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
    b = rng.random(m) * 2 + 0.2
    if allow_negative:
        b -= 0.5
    c = rng.normal(size=n)
    u = rng.random(n) * 2 + 0.2
    return LpInstance.from_dense(A, b, c, upper=u)


class TestSolveLp:
    def test_toy_half(self):
        inst = LpInstance.from_dense([[1.0, 1.0]], [0.5], [1.0, 1.0])
        res = solve_lp(inst)
        assert res.status is SolveStatus.OPTIMAL
        assert res.obj == pytest.approx(0.5, abs=1e-10)
        assert len(res.basis) == 1

    def test_nonpositive_costs_origin_optimal(self):
        inst = LpInstance.from_dense([[1.0, 2.0], [2.0, 1.0]], [3.0, 3.0],
                                     [-1.0, 0.0])
        res = solve_lp(inst)
        assert res.status is SolveStatus.OPTIMAL
        assert res.obj == 0.0
        np.testing.assert_allclose(res.x_star, 0.0, atol=1e-12)

    def test_upper_bound_active(self):
        inst = LpInstance.from_dense([[1.0]], [10.0], [1.0], upper=[2.0])
        res = solve_lp(inst)
        assert res.obj == pytest.approx(2.0, abs=1e-10)
        assert res.x_star[0] == pytest.approx(2.0)

    def test_negative_rhs_phase1(self):
        # -x <= -1 forces x >= 1
        inst = LpInstance.from_dense([[-1.0]], [-1.0], [-1.0], upper=[5.0])
        res = solve_lp(inst)
        assert res.status is SolveStatus.OPTIMAL
        assert res.x_star[0] == pytest.approx(1.0, abs=1e-9)
        assert res.obj == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible_detected(self):
        # x <= 1 and -x <= -3 cannot both hold with u = 2
        inst = LpInstance.from_dense([[1.0], [-1.0]], [1.0, -3.0], [1.0],
                                     upper=[2.0])
        res = solve_lp(inst)
        assert res.status is SolveStatus.INFEASIBLE

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(50):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            if m + n > 12:
                continue
            inst = random_instance(rng, m, n)
            res = solve_lp(inst)
            assert res.status is SolveStatus.OPTIMAL
            opt, _ = enumerate_vertices_oracle(inst)
            assert res.obj == pytest.approx(opt, abs=1e-8)

    def test_feasibility_and_duality_invariants(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            inst = random_instance(rng, int(rng.integers(1, 6)),
                                   int(rng.integers(1, 6)))
            res = solve_lp(inst)
            assert res.status is SolveStatus.OPTIMAL
            x, y = res.x_star, res.y_star
            scale = 1.0 + float(np.abs(inst.rhs).max())
            assert np.all(inst.to_dense() @ x <= inst.rhs + 1e-7 * scale)
            assert np.all(x >= -1e-9) and np.all(x <= inst.upper + 1e-9)
            assert np.all(y >= -1e-7)
            # strong duality against the box-penalized dual bound
            reduced = inst.obj - inst.to_dense().T @ y
            dual = float(inst.rhs @ y) + float(inst.upper @ np.maximum(reduced, 0.0))
            assert abs(res.obj - dual) <= 1e-6 * (1 + abs(res.obj))

    def test_warm_start_from_optimum_takes_zero_pivots(self):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 4, 5)
        first = solve_lp(inst)
        again = solve_lp(inst, warm_basis=first)
        assert again.status is SolveStatus.OPTIMAL
        assert again.iterations == 0
        assert again.obj == pytest.approx(first.obj, abs=1e-10)

    def test_objective_monotone_under_column_growth(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, 4, 8)
        cols = rng.permutation(8)
        prev = -np.inf
        for k in (2, 4, 6, 8):
            sub = inst.restrict_columns(np.sort(cols[:k]))
            res = solve_lp(sub)
            assert res.status is SolveStatus.OPTIMAL
            assert res.obj >= prev - 1e-9
            prev = res.obj

    def test_iteration_limit_status(self):
        inst = generate_mkp(MkpParams(m=6, n=60, tightness=0.3, seed=1))
        res = solve_lp(inst, max_iter=1)
        assert res.status is SolveStatus.ITERATION_LIMIT

    def test_mkp_solves(self):
        inst = generate_mkp(MkpParams(m=8, n=200, tightness=0.25, seed=3))
        res = solve_lp(inst)
        assert res.status is SolveStatus.OPTIMAL
        assert res.obj > 0
        assert len(res.basis) == 8

    def test_degenerate_instances_terminate_and_match_oracle(self):
        # small integer data breeds ties and degenerate pivots, forcing the
        # stall detector and Bland's rule to earn their keep
        rng = np.random.default_rng(77)
        for trial in range(30):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 7))
            if m + n > 11:
                continue
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            b = rng.integers(0, 3, size=m).astype(float)
            c = rng.integers(-2, 3, size=n).astype(float)
            if not np.any(A):
                continue
            inst = LpInstance.from_dense(A, b, c)
            res = solve_lp(inst)
            assert res.status is SolveStatus.OPTIMAL
            opt, _ = enumerate_vertices_oracle(inst)
            assert res.obj == pytest.approx(opt, abs=1e-8)


def assert_matches_highs(inst, res):
    """Optimal, within 1e-9 of HiGHS, primal feasible, with a tight weak-duality gap."""
    assert res.status is SolveStatus.OPTIMAL
    highs = linprog(-inst.obj, A_ub=inst.to_scipy(), b_ub=inst.rhs,
                    bounds=np.column_stack([np.zeros(inst.num_cols), inst.upper]),
                    method="highs")
    assert highs.status == 0
    assert abs(res.obj + highs.fun) <= 1e-9 * max(1.0, abs(highs.fun))
    x = res.x_star
    scale = 1.0 + float(np.abs(inst.rhs).max())
    assert np.all(inst.to_scipy() @ x <= inst.rhs + 1e-9 * scale)
    assert np.all(x >= 0.0) and np.all(x <= inst.upper)
    y = np.maximum(res.y_star, 0.0)
    reduced = inst.obj - inst.to_scipy().T @ y
    dual = float(inst.rhs @ y) + float(inst.upper @ np.maximum(reduced, 0.0))
    primal = float(inst.obj @ x)
    assert dual - primal <= 1e-7 * (1.0 + abs(primal))


class TestAgainstHighs:
    """Cross-checks beyond the reach of the vertex oracle."""

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_cold_solve(self, n):
        inst = generate_mkp(MkpParams(m=100, n=n, tightness=0.05, density=0.1, seed=5))
        res = solve_lp(inst)
        assert not res.warm_started
        assert_matches_highs(inst, res)

    def test_warm_starts_as_the_working_set_grows(self):
        inst = generate_mkp(MkpParams(m=100, n=2000, tightness=0.05, density=0.1, seed=6))
        w = np.sort(np.random.default_rng(6).choice(2000, size=200, replace=False))
        prev = solve_lp(inst.restrict_columns(w))
        assert_matches_highs(inst.restrict_columns(w), prev)
        grown = 0
        while True:
            priced = price(inst, w, prev.y_star)
            if priced.size == 0:
                break
            w_new = np.union1d(w, priced)
            sub = inst.restrict_columns(w_new)
            res = solve_lp(sub, warm_basis=_map_warm_basis(prev, w, w_new, inst.num_rows))
            assert res.warm_started
            assert_matches_highs(sub, res)
            prev, w = res, w_new
            grown += 1
        assert grown >= 2
        assert abs(prev.obj - solve_lp(inst).obj) <= 1e-9 * abs(prev.obj)

    def test_negative_rhs_goes_through_phase_one(self):
        rng = np.random.default_rng(8)
        m, n = 40, 400
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.3)
        u = rng.random(n) + 0.5
        b = A @ (rng.random(n) * u) + rng.random(m)  # feasible by construction
        assert np.sum(b < 0) >= 5
        inst = LpInstance.from_dense(A, b, rng.normal(size=n), upper=u)
        assert_matches_highs(inst, solve_lp(inst))

    def test_updates_cross_several_refactorizations(self, monkeypatch):
        # the pivot loop, compiled or not, hands back to refactorize after
        # REFACTOR_PERIOD rank-1 updates (or after a pivot too small to take)
        refactorizations = 0
        original = simplex._Workspace.refactorize

        def counting(ws):
            nonlocal refactorizations
            refactorizations += 1
            return original(ws)

        monkeypatch.setattr(simplex._Workspace, "refactorize", counting)
        inst = generate_mkp(MkpParams(m=100, n=2000, tightness=0.05, density=0.1, seed=7))
        res = solve_lp(inst)
        assert res.iterations > 3 * simplex.REFACTOR_PERIOD
        assert refactorizations > 1 + 3   # the start, then one per period at least
        assert_matches_highs(inst, res)

    def test_refused_warm_start_is_reported(self):
        inst = generate_mkp(MkpParams(m=6, n=60, tightness=0.3, seed=2))
        # every column at its upper bound overfills the knapsacks
        res = solve_lp(inst, warm_basis=(range(60, 66), range(60)))
        assert res.status is SolveStatus.OPTIMAL
        assert not res.warm_started
        assert solve_lp(inst, warm_basis=res).warm_started

    def test_singular_warm_basis_is_refused_without_a_warning(self):
        inst = generate_mkp(MkpParams(m=6, n=60, tightness=0.3, seed=2))
        # slack 61 appears twice, so the basis matrix is exactly singular
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve_lp(inst, warm_basis=([61, 61, 62, 63, 64, 65], ()))
        assert [str(w.message) for w in caught] == []
        assert res.status is SolveStatus.OPTIMAL
        assert not res.warm_started

    def test_an_accepted_warm_start_computes_the_basic_values_once(self, monkeypatch):
        inst = random_instance(np.random.default_rng(31), 4, 5)
        first = solve_lp(inst)
        calls = 0
        basic_values = simplex._Workspace.basic_values

        def counting(ws):
            nonlocal calls
            calls += 1
            return basic_values(ws)

        monkeypatch.setattr(simplex._Workspace, "basic_values", counting)
        again = solve_lp(inst, warm_basis=first)
        assert again.warm_started and again.iterations == 0
        assert calls == 1

    @pytest.mark.parametrize("odd", ["negative", "past the slacks", "basic", "infinite upper"])
    def test_at_upper_keeps_the_nonbasic_columns_with_a_finite_upper(self, odd):
        rng = np.random.default_rng(0)
        m, n = 4, 10
        A = rng.random((m, n)) * (rng.random((m, n)) < 0.8)
        b = rng.random(m) * 2 + 0.5
        c = rng.normal(size=n)
        u = np.where(np.arange(n) % 2 == 0, np.inf, rng.random(n) + 0.2)
        inst = LpInstance.from_dense(A, b, c, upper=u)
        first = solve_lp(inst)
        basis = sorted(first.basis)
        nonbasic = [j for j in range(n) if j not in first.basis]
        at_lower = [j for j in nonbasic if np.isfinite(u[j]) and j not in first.at_upper]
        odd_id = {
            # wraps round to a finite column at lower were it not refused
            "negative": at_lower[0] - (n + m),
            "past the slacks": n + m,
            "basic": next(j for j in basis if j < n and np.isfinite(u[j])),
            "infinite upper": next(j for j in nonbasic if not np.isfinite(u[j])),
        }[odd]
        at_upper = [*first.at_upper, odd_id]

        # a plain loop over at_upper, the reference of the array masks
        want = np.zeros(n + m, dtype=np.int8)
        for j in at_upper:
            if 0 <= j < n + m and np.isfinite(u[j] if j < n else np.inf) and j not in basis:
                want[j] = 1
        want[basis] = 2
        ws = simplex._Workspace(inst, np.empty(0, dtype=np.int64))
        assert simplex._warm_start(ws, (basis, at_upper)) is not None
        assert ws.status.tobytes() == want.tobytes()

        got = solve_lp(inst, warm_basis=(basis, at_upper))
        plain = solve_lp(inst, warm_basis=first)
        assert got.warm_started and got.iterations == 0
        assert got.x_star.tobytes() == plain.x_star.tobytes()
        assert got.y_star.tobytes() == plain.y_star.tobytes()
        assert (got.basis, got.at_upper) == (plain.basis, plain.at_upper)

    @pytest.mark.parametrize("warm", [[0, 1], (0, 1, 2), {0, 1}, np.array([0, 1])],
                             ids=["list", "triple", "set", "array"])
    def test_a_bare_basis_is_a_type_error(self, warm):
        # with m = 2 a bare pair of ids would read as (basis, at_upper)
        inst = generate_mkp(MkpParams(m=2, n=10, tightness=0.3, seed=0))
        with pytest.raises(TypeError, match=r"SimplexResult or a \(basis, at_upper\) pair"):
            solve_lp(inst, warm_basis=warm)


class TestVertexOracle:
    def test_toy_half(self):
        inst = LpInstance.from_dense([[1.0, 1.0]], [0.5], [1.0, 1.0])
        opt, x = enumerate_vertices_oracle(inst)
        assert opt == pytest.approx(0.5, abs=1e-12)
        assert x.sum() == pytest.approx(0.5, abs=1e-12)

    def test_box_only_via_vacuous_row(self):
        # a zero row with b >= 0 never binds, leaving a pure box problem
        inst = LpInstance(1, 2, [0, 0, 0], [], [], [1.0], [2.0, -1.0], [1.5, 1.0])
        opt, x = enumerate_vertices_oracle(inst)
        assert opt == pytest.approx(2.0 * 1.5)
        np.testing.assert_allclose(x, [1.5, 0.0], atol=1e-12)

    def test_origin_is_candidate(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 3, 3)
        opt, _ = enumerate_vertices_oracle(inst)
        assert opt >= 0.0 - 1e-12 or np.all(inst.obj <= 0)

    def test_size_guard(self):
        inst = generate_mkp(MkpParams(m=8, n=20, tightness=0.5, seed=0))
        with pytest.raises(ValueError, match="oracle"):
            enumerate_vertices_oracle(inst)
