import math
from dataclasses import replace

import numpy as np
import pytest
from test_kernel import dense_loop, reference

from onlinelp import online
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import InstanceStats, LpInstance, compute_stats
from onlinelp.online import (
    ProxCase,
    RunConfig,
    default_stepsize,
    explicit_dual_norm_bound,
    explicit_step,
    implicit_dual_norm_bound,
    implicit_step,
    implicit_step_norm_bound,
    solve_online,
    unit_box_rescaled,
)


def toy_half_lp():
    return LpInstance.from_dense([[1.0, 1.0]], [0.5], [1.0, 1.0])


def prox_objective(inst, j, y_center, y_point, gamma):
    d = inst.rhs / inst.num_cols
    rows, vals = inst.column(j)
    lin = float(d @ y_point)
    kink = max(float(inst.obj[j]) - float(vals @ y_point[rows]), 0.0)
    return lin + kink + float(np.sum((y_point - y_center) ** 2)) / (2 * gamma)


def grid_prox_minimum(inst, j, y_center, gamma, hi=2.0):
    """Multi-stage grid search over [0, hi]^m; independent of the solver path.

    The prox objective has a kink, so each refinement shrinks the window
    tenfold around the incumbent until the linear-term error is below the
    comparison tolerance.
    """
    m = inst.num_rows
    d = inst.rhs / inst.num_cols
    rows, vals = inst.column(j)
    c_j = float(inst.obj[j])

    def best_on(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        lin = pts @ d
        kink = np.maximum(c_j - pts[:, rows] @ vals, 0.0)
        prox = np.sum((pts - y_center) ** 2, axis=1) / (2 * gamma)
        f = lin + kink + prox
        k = int(np.argmin(f))
        return float(f[k]), pts[k]

    best, center = best_on([np.linspace(0.0, hi, 41)] * m)
    h = hi / 40
    for _ in range(4):
        axes = [np.linspace(max(p - h, 0.0), p + h, 21) for p in center]
        v, center = best_on(axes)
        best = min(best, v)
        h /= 10
    return best


class TestDefaultStepsize:
    def test_simple(self):
        stats = InstanceStats(1, 1, 1, 1, 1, True)
        assert default_stepsize(stats, 4, 25, 1, "explicit", "simple") == pytest.approx(0.1)

    def test_theorem_explicit(self):
        stats = InstanceStats(a_bar=1, c_bar=1, d_lo=1, d_hi=1, nnz=4, assumptions_ok=True)
        g = default_stepsize(stats, 2, 2, 1, "explicit", "theorem")
        assert g == pytest.approx(math.sqrt(1 / 8))

    def test_theorem_implicit_ratio(self):
        stats = InstanceStats(a_bar=1, c_bar=1, d_lo=1, d_hi=1, nnz=4, assumptions_ok=True)
        ge = default_stepsize(stats, 2, 2, 1, "explicit", "theorem")
        gi = default_stepsize(stats, 2, 2, 1, "implicit", "theorem")
        assert gi == pytest.approx(ge / math.sqrt(5))

    def test_theorem_rejects_bad_d(self):
        stats = InstanceStats(1, 1, 0.0, 1, 1, False)
        with pytest.raises(ValueError):
            default_stepsize(stats, 2, 2, 1, "explicit", "theorem")

    def test_fixed_passthrough(self):
        stats = InstanceStats(1, 1, 1, 1, 1, True)
        assert default_stepsize(stats, 9, 9, 3, "implicit", 0.125) == 0.125

    def test_scaled_at_unit_statistics(self):
        # f_bar / (d_lo * sqrt((a_bar + d_hi) * K * n * d_lo)) = 1 / sqrt(2 K n)
        stats = InstanceStats(1, 1, 1, 1, 1, True, f_bar=1.0)
        for method in ("explicit", "implicit"):
            assert default_stepsize(stats, 4, 25, 2, method, "scaled") == pytest.approx(0.1)
        # without f_bar the trivial bound F(0) <= c_bar stands in
        assert default_stepsize(InstanceStats(1, 1, 1, 1, 1, True), 4, 25, 2) == \
            pytest.approx(0.1)
        assert RunConfig().stepsize == "scaled"

    def test_scaled_falls_back_without_capacity(self):
        # no positive capacity, or K * b_lo = K * n * d_lo = 100 below one
        # heaviest copy (a_bar + d_hi = 1001): the unit-data step
        for stats in (InstanceStats(1, 1, 0.0, 1, 1, False, f_bar=1.0),
                      InstanceStats(1000, 1, 1, 1, 1, True, f_bar=1.0)):
            assert default_stepsize(stats, 4, 25, 4, "explicit", "scaled") == \
                default_stepsize(stats, 4, 25, 4, "explicit", "simple")

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_scaled_rule_ignores_power_of_two_rescaling(self, method):
        inst = generate_mkp(MkpParams(m=6, n=150, tightness=1.0, seed=5))
        stats = compute_stats(inst)
        gamma = default_stepsize(stats, 6, 150, 4, method, "scaled")
        assert gamma != default_stepsize(stats, 6, 150, 4, method, "simple")
        for p, q in ((3, 0), (-2, 5), (4, 4)):
            scaled = LpInstance(inst.num_rows, inst.num_cols, inst.col_ptr,
                                inst.row_idx, inst.values * 2.0 ** p,
                                inst.rhs * 2.0 ** p, inst.obj * 2.0 ** q, inst.upper)
            scaled_stats = compute_stats(scaled)
            assert scaled_stats.f_bar == stats.f_bar * 2.0 ** q
            assert default_stepsize(scaled_stats, 6, 150, 4, method, "scaled") == \
                gamma * 2.0 ** (q - 2 * p)
            for enforce in (False, True):
                config = RunConfig(method=method, duplication=4, seed=2,
                                   enforce_feasibility=enforce)
                base = solve_online(inst, config)
                other = solve_online(scaled, config)
                assert np.array_equal(base.x_hat, other.x_hat)
                assert np.array_equal(base.y_final * 2.0 ** (q - p), other.y_final)


class TestExplicitStep:
    def test_empty_column(self):
        inst = LpInstance.from_dense([[0.0]], [0.1], [1.0])
        y_next, x = explicit_step(inst, [0.0], 0, gamma=1.0)
        assert x == 1.0
        assert y_next[0] == 0.0  # [-0.1]_+ after the d drift

    def test_priced_out(self):
        inst = LpInstance.from_dense([[2.0]], [0.5], [1.0])
        y_next, x = explicit_step(inst, [1.0], 0, gamma=0.1)
        assert x == 0.0  # <a, y> = 2 > 1 = c
        assert y_next[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_feasibility_forcing(self):
        inst = LpInstance.from_dense([[1.0]], [1.0], [100.0])
        _, x = explicit_step(inst, [0.0], 0, gamma=0.1,
                             remaining_capacity=np.array([0.3]))
        assert x == 0.0

    def test_tie_gives_zero(self):
        inst = LpInstance.from_dense([[1.0]], [1.0], [2.0])
        _, x = explicit_step(inst, [2.0], 0, gamma=0.1)  # c == <a, y>
        assert x == 0.0

    def test_leaves_inputs_untouched(self):
        inst = LpInstance.from_dense([[1.0, 0.5]], [1.0], [2.0, 1.0])
        y, capacity = np.array([0.25]), np.array([2.0])
        y_next, x = explicit_step(inst, y, 0, gamma=0.1, remaining_capacity=capacity)
        assert x == 1.0 and y_next[0] == pytest.approx(0.25 + 0.1 * (1.0 - 0.5))
        assert y[0] == 0.25 and capacity[0] == 2.0


class TestImplicitStep:
    def test_empty_column_positive_cost(self):
        inst = LpInstance.from_dense([[0.0]], [0.2], [1.0])
        sol = implicit_step(inst, [1.0], 0, gamma=0.5)
        assert sol.x_k == 1.0
        assert sol.case_tag is ProxCase.KINK_INACTIVE_HIGH
        assert sol.y_plus[0] == pytest.approx(1.0 - 0.5 * 0.2)

    def test_priced_out_column(self):
        inst = LpInstance.from_dense([[4.0]], [0.4], [1.0])
        sol = implicit_step(inst, [2.0], 0, gamma=0.05)
        assert sol.case_tag is ProxCase.KINK_INACTIVE_LOW
        assert sol.x_k == 0.0

    def test_kink_active_recovers_fraction(self):
        # y at the kink: c = <a, y+> forces the projection path
        inst = LpInstance.from_dense([[1.0]], [0.5], [1.0])
        sol = implicit_step(inst, [1.0], 0, gamma=0.5)
        assert sol.case_tag is ProxCase.KINK_ACTIVE
        assert 0.0 <= sol.x_k <= 1.0
        assert sol.kkt_residual <= 1e-8

    def test_the_stored_order_decides_a_tie(self):
        """c equals numpy's BLAS <a, y1>, which lies above the sum in stored
        order: the step adds in stored order, so g1 = c - <a, y1> > 0 and
        it takes the whole column, where the BLAS sum would give g1 = 0."""
        rng = np.random.default_rng(7)
        m, gamma = 12, 0.01
        for _ in range(10_000):
            vals = rng.uniform(0.1, 1.0, m)
            y = rng.uniform(0.1, 1.0, m)
            # with a cost no dual reaches, the step returns y1 itself
            high = LpInstance(m, 1, [0, m], np.arange(m), vals, np.ones(m), [1e9], [1.0])
            y1 = implicit_step(high, y, 0, gamma).y_plus
            c = float(vals @ y1)
            in_order = 0.0
            for t in (vals * y1).tolist():
                in_order += t
            if in_order < c:
                break
        else:
            pytest.fail("no data whose tie the summation order decides")
        inst = LpInstance(m, 1, [0, m], np.arange(m), vals, np.ones(m), [c], [1.0])
        sol = implicit_step(inst, y, 0, gamma)
        assert sol.case_tag is ProxCase.KINK_INACTIVE_HIGH and sol.x_k == 1.0
        assert sol.y_plus.tobytes() == y1.tobytes()

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            A = rng.random((m, n)) * 2
            b = rng.random(m) * n + 0.2
            c = rng.random(n) * 2
            inst = LpInstance.from_dense(A, b, c)
            gamma = 0.5
            y0 = rng.random(m)
            j = int(rng.integers(0, n))
            sol = implicit_step(inst, y0, j, gamma)
            got = prox_objective(inst, j, y0, sol.y_plus, gamma)
            want = grid_prox_minimum(inst, j, y0, gamma)
            assert got <= want + 1e-4
            assert abs(got - want) <= 1e-4

    def test_beats_rejected_candidates(self):
        rng = np.random.default_rng(5)
        inst = generate_mkp(MkpParams(m=3, n=12, tightness=0.3, seed=9))
        d = inst.rhs / inst.num_cols
        gamma = 0.05
        y = rng.random(3) * 2
        for j in range(inst.num_cols):
            sol = implicit_step(inst, y, j, gamma)
            rows, vals = inst.column(j)
            cand1 = np.maximum(y - gamma * d, 0.0)
            cand2 = cand1.copy()
            cand2[rows] += gamma * vals
            np.maximum(cand2, 0.0, out=cand2)
            got = prox_objective(inst, j, y, sol.y_plus, gamma)
            assert got <= prox_objective(inst, j, y, cand1, gamma) + 1e-12
            assert got <= prox_objective(inst, j, y, cand2, gamma) + 1e-12
            y = sol.y_plus


class TestRunPass:
    def test_single_profitable_column(self):
        inst = LpInstance.from_dense([[0.5]], [1.0], [2.0])
        sol = solve_online(inst, RunConfig(method="explicit", seed=3))
        np.testing.assert_array_equal(sol.x_hat, [1.0])

    def test_negative_costs_never_bought(self):
        inst = LpInstance.from_dense([[1.0, 2.0, 0.5]], [1.5], [-1.0, -0.5, -2.0])
        for seed in range(10):
            for method in ("explicit", "implicit"):
                sol = solve_online(inst, RunConfig(method=method, seed=seed))
                np.testing.assert_array_equal(sol.x_hat, np.zeros(3))

    def test_seed_determinism(self):
        inst = generate_mkp(MkpParams(m=4, n=60, tightness=0.4, seed=2))
        a = solve_online(inst, RunConfig(method="implicit", seed=123))
        b = solve_online(inst, RunConfig(method="implicit", seed=123))
        assert np.array_equal(a.x_hat, b.x_hat)
        assert np.array_equal(a.y_final, b.y_final)
        assert a.objective == b.objective and a.violation == b.violation

    def test_assumption_gate(self):
        inst = LpInstance.from_dense([[1.0, 1.0]], [0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="b/n"):
            solve_online(inst, RunConfig())
        sol = solve_online(inst, RunConfig(check_assumptions=False))
        assert sol.elapsed_columns == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_is_refused(self, bad):
        inst = generate_mkp(MkpParams(m=4, n=30, tightness=0.3, seed=1))
        for method in ("explicit", "implicit"):
            with pytest.raises(ValueError, match="start vector must be finite"):
                solve_online(inst, RunConfig(method=method, start=np.array([bad, 0, 0, 0])))

    def test_enforcement_zero_violation(self):
        inst = generate_mkp(MkpParams(m=5, n=40, tightness=0.2, seed=4))
        for method in ("explicit", "implicit"):
            sol = solve_online(inst, RunConfig(method=method, enforce_feasibility=True,
                                               seed=8))
            assert sol.violation <= 1e-9 * (1.0 + float(np.max(inst.rhs)))

    def test_toy_contrast_between_methods(self):
        inst = toy_half_lp()
        imp = solve_online(inst, RunConfig(method="implicit", stepsize=0.005,
                                           enforce_feasibility=True, seed=0))
        assert imp.objective == pytest.approx(0.5, abs=1e-9)
        exp = solve_online(inst, RunConfig(method="explicit", stepsize=0.005,
                                           enforce_feasibility=True, seed=0))
        assert exp.objective == 0.0


class TestExplicitEngine:
    """The one O(nnz) explicit engine against a pass that forms the whole
    dual every step (``test_kernel.dense_loop``)."""

    def test_matches_dense_bitwise(self, monkeypatch):
        for seed, sigma in ((0, 0.2), (1, 0.6), (2, 1.0)):
            inst = generate_mkp(MkpParams(m=15, n=300, tightness=0.3,
                                          density=sigma, seed=seed))
            cfg = RunConfig(method="explicit", seed=seed)
            dense = reference(monkeypatch, inst, cfg, dense_loop)
            sol = solve_online(inst, cfg)
            assert np.array_equal(dense.x_hat, sol.x_hat)
            assert np.array_equal(dense.y_final, sol.y_final)

    def test_matches_dense_with_enforcement_and_k(self, monkeypatch):
        inst = generate_mkp(MkpParams(m=8, n=120, tightness=0.15, density=0.4, seed=5))
        cfg = RunConfig(method="explicit", seed=7, duplication=4,
                        enforce_feasibility=True)
        dense = reference(monkeypatch, inst, cfg, dense_loop)
        sol = solve_online(inst, cfg)
        assert np.array_equal(dense.x_hat, sol.x_hat)
        assert np.array_equal(dense.y_final, sol.y_final)

    def test_lazy_is_retired(self):
        assert RunConfig().lazy is True
        with pytest.raises(ValueError, match="lazy is retired"):
            RunConfig(lazy=False)

    def test_both_updates_take_bound_checks(self):
        for method in ("explicit", "implicit"):
            assert RunConfig(method=method, check_dual_bounds=True).check_dual_bounds

    def test_an_unchecked_pass_measures_no_norm(self):
        inst = generate_mkp(MkpParams(m=6, n=50, tightness=0.3, seed=2))
        for method in ("explicit", "implicit"):
            for enforce in (False, True):
                cfg = RunConfig(method=method, duplication=2, enforce_feasibility=enforce)
                sol = solve_online(inst, cfg)
                assert sol.max_dual_norm is None
                checked = solve_online(inst, replace(cfg, check_dual_bounds=True))
                assert checked.max_dual_norm >= online._norm(checked.y_final)
                assert np.array_equal(checked.x_hat, sol.x_hat)
                assert np.array_equal(checked.y_final, sol.y_final)


class TestDuplication:
    def test_granularity_with_k4(self):
        inst = generate_mkp(MkpParams(m=6, n=80, tightness=0.3, seed=3))
        sol = solve_online(inst, RunConfig(method="explicit", seed=1, duplication=4))
        allowed = {0.0, 0.25, 0.5, 0.75, 1.0}
        assert set(np.unique(sol.x_hat)).issubset(allowed)
        assert sol.elapsed_columns == 4 * inst.num_cols


class TestColumnSequence:
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 100_000])
    @pytest.mark.parametrize("k", [1, 2, 32])
    def test_matches_the_permutation_modulo_n(self, n, k):
        # a shuffle of K copies of 0..n-1 makes the swaps of permutation(K n)
        for seed in (0, 1, 12345):
            want = np.random.default_rng(seed).permutation(n * k) % n
            got = online._column_sequence(n, k, seed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestInvariants:
    def test_telescoped_violation_bound(self):
        # with enforcement off: v(x_hat) <= ||y_final|| / gamma
        for seed in range(5):
            inst = generate_mkp(MkpParams(m=6, n=100, tightness=0.1, seed=seed))
            stats = compute_stats(inst)
            gamma = default_stepsize(stats, 6, 100, 1, "explicit", "simple")
            sol = solve_online(inst, RunConfig(method="explicit", seed=seed))
            bound = float(np.linalg.norm(sol.y_final)) / gamma
            assert sol.violation <= bound * (1 + 1e-12) + 1e-9

    def test_dual_norm_bounds_hold(self):
        # engines raise if a Lemma bound is violated; these must complete
        for seed in range(3):
            inst = generate_mkp(MkpParams(m=5, n=60, tightness=0.3, seed=seed))
            for method in ("explicit", "implicit"):
                for mode in ("simple", "theorem"):
                    sol = solve_online(inst, RunConfig(method=method, stepsize=mode,
                                                       seed=seed, check_dual_bounds=True))
                    stats = compute_stats(inst)
                    gamma = default_stepsize(stats, 5, 60, 1, method, mode)
                    if method == "explicit":
                        bound = explicit_dual_norm_bound(stats, 5, gamma)
                    else:
                        bound = implicit_dual_norm_bound(stats, 5, gamma)
                    assert sol.max_dual_norm <= bound * (1 + 1e-9)

    def test_step_bound_formula(self):
        stats = InstanceStats(a_bar=2, c_bar=3, d_lo=0.5, d_hi=1, nnz=1, assumptions_ok=True)
        assert implicit_step_norm_bound(stats, 4, 0.1) == pytest.approx(
            math.sqrt(4) * 3 * 0.1)


class TestGeneralUpperBounds:
    def test_unit_box_rescaling_roundtrip(self):
        inst = LpInstance.from_dense([[1.0, 2.0]], [3.0], [1.0, 1.0],
                                     upper=[2.0, 4.0])
        scaled, u = unit_box_rescaled(inst)
        np.testing.assert_array_equal(scaled.upper, [1.0, 1.0])
        np.testing.assert_array_equal(scaled.to_dense(), [[2.0, 8.0]])
        np.testing.assert_array_equal(scaled.obj, [2.0, 4.0])
        np.testing.assert_array_equal(u, [2.0, 4.0])

    def test_solve_online_general_u(self):
        inst = LpInstance.from_dense([[1.0]], [5.0], [1.0], upper=[3.0])
        sol = solve_online(inst, RunConfig(method="explicit", seed=0))
        # the single scaled column fits the capacity, so it is taken whole
        assert sol.objective == pytest.approx(3.0)
        assert sol.x_hat[0] <= 3.0


def test_uniform_dual_value_runs_only_where_it_sets_gamma(monkeypatch):
    from onlinelp import model
    calls = 0
    original = model._uniform_dual_value

    def counting(instance):
        nonlocal calls
        calls += 1
        return original(instance)

    monkeypatch.setattr(model, "_uniform_dual_value", counting)
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=0))
    # r = K n d_lo / (a_bar + d_hi) is 0.29 at K = 2 (starved) and 4.6 at K = 32
    for k, mode, want in ((2, "scaled", 0), (32, "simple", 0), (32, "theorem", 0),
                          (32, 0.01, 0), (32, "scaled", 1)):
        calls = 0
        sol = solve_online(inst, RunConfig(duplication=k, stepsize=mode))
        assert calls == want, (k, mode)
        eager = replace(compute_stats(inst))   # replace reads f_bar, computing it
        assert sol.gamma == default_stepsize(eager, 8, 60, k, "explicit", mode)
