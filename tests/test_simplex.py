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


def generic_entries(inst, art_rows, cols):
    """(rows, values, owner) of columns ``cols`` of [A I -E], with
    artificials on ``art_rows``, by type masks over the instance's own
    arrays: the reference of ``_Workspace.entries``, which gathers them from
    one combined column store."""
    cols = np.asarray(cols, dtype=np.int64)
    n, m, cp = inst.num_cols, inst.num_rows, inst.col_ptr
    struct_id = np.minimum(cols, n - 1)   # a stand-in for slacks, artificials
    starts = cp[struct_id]
    counts = np.where(cols < n, cp[struct_id + 1] - starts, 1)
    owner = np.repeat(np.arange(cols.size), counts)
    first = np.cumsum(counts) - counts
    at = np.repeat(starts - first, counts) + np.arange(owner.size)
    rows = np.empty(owner.size, dtype=np.int64)
    vals = np.empty(owner.size)
    own = cols[owner]
    struct = own < n
    rows[struct] = inst.row_idx[at[struct]]
    vals[struct] = inst.values[at[struct]]
    slack = ~struct & (own < n + m)
    rows[slack] = own[slack] - n
    vals[slack] = 1.0
    art = own >= n + m
    rows[art] = art_rows[own[art] - n - m]
    vals[art] = -1.0
    return rows, vals, owner


@pytest.mark.parametrize("mix", ["structural", "slack", "artificial", "mixed", "none"])
def test_entries_match_the_generic_path(mix):
    rng = np.random.default_rng(12)
    m, n = 6, 9
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
    A[:, [0, 4]] = 0.0   # empty columns, the first among them
    inst = LpInstance.from_dense(A, rng.normal(size=m), rng.normal(size=n))
    art_rows = np.flatnonzero(inst.rhs < 0)
    ws = simplex._Workspace(inst, art_rows)
    assert ws.n_art >= 2
    structural, slack = rng.permutation(n), n + rng.permutation(m)
    artificial = n + m + rng.permutation(ws.n_art)
    cols = {"structural": structural, "slack": slack, "artificial": artificial,
            "mixed": rng.permutation(np.concatenate([structural[:5], slack[:3], artificial])),
            "none": np.empty(0, dtype=np.int64)}[mix]
    for got, want in zip(ws.entries(cols), generic_entries(inst, art_rows, cols)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_products_are_the_stored_order_sums_of_every_column():
    # one [A I -E] store: a slack's or an artificial's product is a one-term
    # sum from 0.0 like any structural column's, -0.0 entries of v included
    rng = np.random.default_rng(21)
    m, n = 6, 9
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.6)
    A[:, [0, 4]] = 0.0   # empty columns, the first among them
    inst = LpInstance.from_dense(A, rng.normal(size=m), rng.normal(size=n))
    art_rows = np.flatnonzero(inst.rhs < 0)
    ws = simplex._Workspace(inst, art_rows)
    assert ws.n_art >= 2
    rows, vals, owner = ws.entries(np.arange(ws.n_total))
    v = rng.normal(size=m)
    plain = np.setdiff1d(np.arange(m), art_rows)   # rows of a slack alone
    v[art_rows[:2]] = -0.0, 0.0
    v[plain[:2]] = -0.0, -1.5
    want = np.zeros(ws.n_total)
    for e in range(owner.size):   # term by term, each column in stored order
        want[owner[e]] = want[owner[e]] + vals[e] * v[rows[e]]
    assert ws.products(v).tobytes() == want.tobytes()


def test_the_kernel_pointers_outlive_every_refactorization(monkeypatch):
    # the workspace looks its arrays' pointers up once: no start, pivot or
    # refactorization may rebind them
    monkeypatch.setattr(simplex, "REFACTOR_PERIOD", 3)
    inst = generate_mkp(MkpParams(m=20, n=200, tightness=0.1, density=0.3, seed=3))
    ws = simplex._Workspace(inst, np.empty(0, dtype=np.int64))
    first = ws.kernel_pointers
    kept = (ws.binv, ws.x_b, ws.state)
    ws.start(np.arange(200, 220), np.empty(0, dtype=np.int64))
    cost = np.concatenate([inst.obj, np.zeros(20)])
    reason, iterations = simplex._pivot_loop(ws, cost, 10_000)
    assert reason == simplex._kernel.OPTIMAL and iterations > 3 * 3
    assert all(a is b for a, b in zip((ws.binv, ws.x_b, ws.state), kept))
    arrays = (ws.ext_ptr, ws.ext_rows, ws.ext_vals, ws.upper, ws.status, ws.basis, ws.binv,
              ws.x_b, ws.work, ws.state)
    assert ws.kernel_pointers is first
    assert list(first) == [a.ctypes.data for a in arrays]


def assert_same_result(got, want):
    """Two solves' results agree bit for bit."""
    assert (got.status, got.iterations, got.warm_started) == \
        (want.status, want.iterations, want.warm_started)
    assert (got.basis, got.at_upper) == (want.basis, want.at_upper)
    assert np.float64(got.obj).tobytes() == np.float64(want.obj).tobytes()
    for a, b in ((got.x_star, want.x_star), (got.y_star, want.y_star)):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.fixture(params=["kernel", "reference"])
def engine(request, monkeypatch):
    """Each pivot engine in turn: the compiled kernel, then its numpy
    reference, with ``_kernel.load`` returning None."""
    if request.param == "kernel" and simplex._kernel.load() is None:
        pytest.skip(f"no compiled kernel: {simplex._kernel.reason()}")
    if request.param == "reference":
        monkeypatch.setattr(simplex._kernel, "load", lambda: None)
    return request.param


class TestColumns:
    """``solve_lp(inst, columns=c)`` is ``solve_lp(inst.restrict_columns(c))``
    bit for bit, with no sub-instance built."""

    def both(self, inst, cols, **kwargs):
        got = solve_lp(inst, columns=cols, **kwargs)
        assert_same_result(got, solve_lp(inst.restrict_columns(cols), **kwargs))
        return got

    def test_cold(self, engine):
        rng = np.random.default_rng(31)
        inst = random_instance(rng, 8, 60)
        for cols in (rng.permutation(60)[:25], np.arange(60), np.array([7]),
                     np.array([3, 3, 41, 0])):   # any order, repeats included
            assert self.both(inst, cols).status is SolveStatus.OPTIMAL

    def test_warm_from_a_smaller_working_set(self, engine):
        inst = generate_mkp(MkpParams(m=12, n=400, tightness=0.15, seed=4))
        rng = np.random.default_rng(4)
        w0 = np.sort(rng.choice(400, 40, replace=False))
        w1 = np.union1d(w0, rng.choice(400, 60, replace=False))
        first = self.both(inst, w0)
        warm = _map_warm_basis(first, w0, w1, inst.num_rows)
        got = self.both(inst, w1, warm_basis=warm)
        assert got.warm_started and got.iterations > 0

    def test_a_refused_warm_basis(self, engine):
        inst = generate_mkp(MkpParams(m=6, n=80, tightness=0.2, seed=2))
        cols = np.arange(0, 80, 2)
        # the first m working columns are no feasible basis here, and an id
        # past len(cols) + m is out of range
        for warm in ((range(6), ()), ([0, 1, 2, 3, 4, 500], ())):
            assert not self.both(inst, cols, warm_basis=warm).warm_started

    def test_phase_one(self, engine):
        rng = np.random.default_rng(8)
        solved = 0
        for _ in range(20):
            inst = random_instance(rng, 5, 30, allow_negative=True)
            if np.any(inst.rhs < 0):   # so the solve runs Phase 1
                solved += self.both(inst, rng.permutation(30)[:18]).status is SolveStatus.OPTIMAL
                # every column, in order: the whole instance's solve
                assert self.both(inst, np.arange(30)).status is SolveStatus.OPTIMAL
        assert solved >= 5
        # x_0 + x_2 >= 5 within the unit box: Phase 1 ends short of feasibility
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0], [-1.0, 0.0, -1.0]], [1.0, -5.0],
                                     np.ones(3))
        for cols in (np.array([2, 0]), np.arange(3)):
            assert self.both(inst, cols).status is SolveStatus.INFEASIBLE

    def test_bound_flips(self, engine):
        # every column costs 1 and fits alone: a column entering at lower
        # runs to its upper bound before any row binds
        inst = LpInstance.from_dense(np.full((2, 6), 0.1), [1.0, 1.0], np.ones(6),
                                     upper=np.full(6, 0.5))
        got = self.both(inst, np.array([5, 1, 3, 0]))
        assert got.at_upper == frozenset(range(4)) and got.iterations == 4
        got = self.both(inst, np.arange(6))
        assert got.at_upper == frozenset(range(6)) and got.iterations == 6

    def test_max_iter(self, engine):
        inst = generate_mkp(MkpParams(m=10, n=300, tightness=0.2, seed=5))
        cols = np.arange(1, 300, 3)
        assert self.both(inst, cols, max_iter=4).status is SolveStatus.ITERATION_LIMIT

    @pytest.mark.parametrize("cols, message", [
        ([[0, 1]], "1-d array of integers"), ([0.0, 1.0], "1-d array of integers"),
        (np.ones(4, dtype=bool), "1-d array of integers"), (3, "1-d array of integers"),
        ([-1], r"in \[0, 4\)"), ([0, 4], r"in \[0, 4\)"), ([], "nonempty"),
    ], ids=["2-d", "float", "mask", "scalar", "negative", "past n", "empty"])
    def test_bad_columns_are_refused(self, cols, message):
        inst = LpInstance.from_dense(np.eye(2, 4) + 1.0, [1.0, 1.0], np.ones(4))
        with pytest.raises(ValueError, match=message):
            solve_lp(inst, columns=cols)


class TestMaxIter:
    """``max_iter`` caps the pivots of a solve, both phases together.  A
    solve whose last allowed pivot reaches the optimum is OPTIMAL: the
    limit is tested after the fresh pricing that finds no column to enter."""

    def test_a_solve_that_needs_exactly_max_iter_pivots_is_optimal(self, engine):
        inst = generate_mkp(MkpParams(m=5, n=60, tightness=0.3, seed=1))
        free = solve_lp(inst)
        assert free.status is SolveStatus.OPTIMAL and free.iterations == 11
        assert_same_result(solve_lp(inst, max_iter=11), free)
        short = solve_lp(inst, max_iter=10)
        assert short.status is SolveStatus.ITERATION_LIMIT and short.iterations == 10

    def test_phase_one_and_two_share_the_cap(self, engine):
        inst = random_instance(np.random.default_rng(12), 6, 20, allow_negative=True)
        assert np.any(inst.rhs < 0)
        free = solve_lp(inst)
        assert free.status is SolveStatus.OPTIMAL and free.iterations >= 2
        assert_same_result(solve_lp(inst, max_iter=free.iterations), free)
        short = solve_lp(inst, max_iter=free.iterations - 1)
        assert short.status is SolveStatus.ITERATION_LIMIT
        assert short.iterations == free.iterations - 1

    def test_a_warm_start_at_the_optimum_needs_no_pivot(self, engine):
        inst = generate_mkp(MkpParams(m=5, n=60, tightness=0.3, seed=1))
        first = solve_lp(inst)
        again = solve_lp(inst, warm_basis=first, max_iter=0)
        assert again.status is SolveStatus.OPTIMAL and again.warm_started
        assert_same_result(again, solve_lp(inst, warm_basis=first))
        cold = solve_lp(inst, max_iter=0)
        assert cold.status is SolveStatus.ITERATION_LIMIT and cold.iterations == 0

    @pytest.mark.parametrize("max_iter", [-1, -3, 4.5, 4.0, True])
    def test_a_max_iter_that_is_no_count_is_refused(self, engine, max_iter):
        # -3 returned ITERATION_LIMIT; 4.5 raised ctypes' ArgumentError on
        # the kernel and ran 5 pivots on the reference
        inst = generate_mkp(MkpParams(m=5, n=60, tightness=0.3, seed=1))
        with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
            solve_lp(inst, max_iter=max_iter)
        assert solve_lp(inst, max_iter=np.int64(4)).iterations == 4


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

    def test_cold_solve_at_m300(self):
        # the regime devex pricing is for: thousands of pivots of m^2 work
        inst = generate_mkp(MkpParams(m=300, n=3000, tightness=0.05, density=0.1, seed=5))
        res = solve_lp(inst)
        assert not res.warm_started and res.iterations > 3000
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
        assert simplex._warm_start(ws, (basis, at_upper))
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
