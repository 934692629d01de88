from dataclasses import replace

import numpy as np
import pytest

import onlinelp.sifting as sifting
from onlinelp.cli import build_parser
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.online import RunConfig, solve_online
from onlinelp.sifting import (
    SiftConfig,
    SiftRoundLimit,
    _map_warm_basis,
    basis_metrics,
    init_working_set,
    price,
    sift,
)
from onlinelp.simplex import enumerate_vertices_oracle, solve_lp


class TestInitWorkingSet:
    # reduced costs against y = (1, 1): 4 - 2, 1 - 1, 6 - 3, 2 - 1, 5 - 1 = [2, 0, 3, 1, 4]
    INST = LpInstance.from_dense([[1.0, 1.0, 2.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0, 1.0]],
                                 [1.0, 1.0], [4.0, 1.0, 6.0, 2.0, 5.0])

    def test_top_count_by_reduced_cost(self):
        w = init_working_set(self.INST, [1.0, 1.0], 2)
        np.testing.assert_array_equal(w, [2, 4])
        np.testing.assert_array_equal(init_working_set(self.INST, [1.0, 1.0], 3), [0, 2, 4])

    def test_ties_go_to_the_lower_index(self):
        inst = LpInstance.from_dense([[1.0] * 6], [1.0], [1.0, 3.0, 2.0, 3.0, 2.0, 2.0])
        np.testing.assert_array_equal(init_working_set(inst, [0.0], 2), [1, 3])
        np.testing.assert_array_equal(init_working_set(inst, [0.0], 3), [1, 2, 3])
        np.testing.assert_array_equal(init_working_set(inst, [0.0], 4), [1, 2, 3, 4])

    def test_a_count_of_n_or_more_takes_every_column(self):
        for count in (5, 6, 100):
            np.testing.assert_array_equal(init_working_set(self.INST, [1.0, 1.0], count),
                                          np.arange(5))

    def test_a_zero_dual_ranks_by_cost(self):
        rng = np.random.default_rng(4)
        inst = generate_mkp(MkpParams(m=3, n=40, tightness=0.3, seed=4))
        for count in (1, 3, 10):
            want = np.sort(np.lexsort((np.arange(40), -inst.obj))[:count])
            np.testing.assert_array_equal(init_working_set(inst, np.zeros(3), count), want)
        y = rng.random(3)
        reduced = inst.obj - inst.to_dense().T @ y
        want = np.sort(np.lexsort((np.arange(40), -reduced))[:7])
        np.testing.assert_array_equal(init_working_set(inst, y, 7), want)

    @pytest.mark.parametrize("count", [2.5, 2.0, -1, "2"])
    def test_a_count_that_is_no_non_negative_integer_is_refused(self, count):
        # a float raised numpy's TypeError from np.partition; -1 took no column
        with pytest.raises(ValueError, match=f"^count must be an integer >= 0, got {count!r}$"):
            init_working_set(self.INST, [1.0, 1.0], count)

    def test_numpy_integer_counts_are_accepted(self):
        for count in (np.int64(2), np.int32(2), np.uint8(2)):
            np.testing.assert_array_equal(init_working_set(self.INST, [1.0, 1.0], count), [2, 4])
        assert init_working_set(self.INST, [1.0, 1.0], np.int64(0)).size == 0

    def test_a_sorted_int64_array(self):
        rng = np.random.default_rng(5)
        inst = generate_mkp(MkpParams(m=4, n=200, tightness=0.2, seed=5))
        w = init_working_set(inst, rng.random(4), 4)
        assert w.dtype == np.int64 and w.size == 4
        assert np.all(np.diff(w) > 0)


class TestNonFiniteDuals:
    INST = generate_mkp(MkpParams(m=6, n=80, tightness=0.2, density=0.5, seed=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["one", "all"])
    def test_the_sweeps_refuse_them(self, bad, where):
        # one NaN once emptied the initial working set, and an all-NaN y
        # priced nothing, which reads as a certificate
        y = np.random.default_rng(2).random(6)
        if where == "one":
            y[3] = bad
        else:
            y[:] = bad
        with pytest.raises(ValueError, match="must be finite"):
            init_working_set(self.INST, y, 5)
        with pytest.raises(ValueError, match="must be finite"):
            price(self.INST, [0, 1], y)
        with pytest.raises(ValueError, match="must be finite"):
            price(self.INST, [0, 1], y, anchor_share=np.zeros(80))

    def test_a_wrong_shape_is_refused(self):
        with pytest.raises(ValueError, match="y must have shape"):
            price(self.INST, [0], np.ones(5))
        with pytest.raises(ValueError, match="anchor_share must have shape"):
            price(self.INST, [0], np.ones(6), anchor_share=np.zeros(79))


class TestPrice:
    def test_exact_dual_prices_nothing(self):
        inst = generate_mkp(MkpParams(m=4, n=50, tightness=0.3, seed=0))
        res = solve_lp(inst)
        got = price(inst, np.arange(50), res.y_star, tol=1e-7)
        assert got.size == 0
        # even outside the working set: the exact dual is globally feasible
        got = price(inst, np.arange(0), res.y_star, tol=1e-6)
        assert got.size == 0

    def test_zero_dual_prices_positive_costs(self):
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0]], [1.0],
                                     [2.0, -1.0, 0.5])
        got = price(inst, [0], np.zeros(1), tol=1e-7)
        np.testing.assert_array_equal(got, [2])

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(9)
        inst = generate_mkp(MkpParams(m=6, n=80, tightness=0.2, density=0.5, seed=1))
        y = rng.random(6) * 3
        working = set(rng.choice(80, size=20, replace=False).tolist())
        got = price(inst, sorted(working), y, tol=1e-7)
        reduced = inst.obj - inst.to_dense().T @ y
        expected = np.array(sorted(j for j in range(80)
                                   if j not in working and reduced[j] > 1e-7))
        np.testing.assert_array_equal(got, expected)

    def test_truncation_keeps_most_violated(self):
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0]], [1.0], [3.0, 1.0, 2.0])
        got = price(inst, [], np.zeros(1), tol=1e-7, max_new=2)
        np.testing.assert_array_equal(got, [0, 2])

    def test_truncation_breaks_ties_to_the_lower_index(self):
        inst = LpInstance.from_dense([[1.0] * 6], [1.0], [2.0, 1.0, 2.0, 3.0, 2.0, 2.0])
        np.testing.assert_array_equal(price(inst, [], np.zeros(1), max_new=2), [0, 3])
        np.testing.assert_array_equal(price(inst, [], np.zeros(1), max_new=3), [0, 2, 3])
        # the working set is skipped before the cut
        np.testing.assert_array_equal(price(inst, [0, 3], np.zeros(1), max_new=2), [2, 4])

    def test_the_anchor_blend_prices_as_the_blended_dual(self):
        rng = np.random.default_rng(3)
        inst = generate_mkp(MkpParams(m=6, n=80, tightness=0.2, density=0.5, seed=2))
        y, anchor = rng.random(6) * 3, rng.random(6)
        working = np.sort(rng.choice(80, size=20, replace=False))
        share = (1 - sifting.ALPHA) * (inst.obj - inst.to_dense().T @ anchor)
        got = price(inst, working, y, tol=1e-7, anchor_share=share)
        blended = inst.obj - inst.to_dense().T @ (sifting.ALPHA * y + (1 - sifting.ALPHA) * anchor)
        expected = np.setdiff1d(np.flatnonzero(blended > 1e-7), working)
        assert expected.size > 0
        np.testing.assert_array_equal(got, expected)

    def test_an_empty_blend_falls_back_to_the_working_dual(self):
        # reduced costs against y = 0 are the costs [3, 1, 2]
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0]], [1.0], [3.0, 1.0, 2.0])
        share = (1 - sifting.ALPHA) * np.array([-10.0, 5.0, -10.0])
        # the blend [-4.8, 3.4, -5.2] prices column 1 only
        np.testing.assert_array_equal(price(inst, [], np.zeros(1), anchor_share=share), [1])
        # with column 1 working the blend prices nothing outside W, so r_W does
        np.testing.assert_array_equal(price(inst, [1], np.zeros(1), anchor_share=share), [0, 2])
        np.testing.assert_array_equal(
            price(inst, [], np.zeros(1), anchor_share=(1 - sifting.ALPHA) * np.full(3, -10.0)),
            [0, 1, 2])

    @pytest.mark.parametrize("max_new", [0, -2, 2.5, 2.0, "2"])
    def test_a_cap_that_is_no_integer_from_one_up_is_refused(self, max_new):
        # y = 0 prices every column; a cap that kept none read as a
        # certificate, and a float or str cap raised a TypeError from np.partition
        inst = LpInstance.from_dense([[1, 2, 3], [1, 0, 1]], [1, 1], [5, 6, 7])
        np.testing.assert_array_equal(price(inst, [], np.zeros(2)), [0, 1, 2])
        with pytest.raises(ValueError, match=f"^max_new must be an integer >= 1, got {max_new!r}$"):
            price(inst, [], np.zeros(2), max_new=max_new)

    def test_a_numpy_integer_cap_is_accepted(self):
        inst = LpInstance.from_dense([[1, 2, 3], [1, 0, 1]], [1, 1], [5, 6, 7])
        for max_new in (np.int64(2), np.int32(2), np.uint8(2)):
            np.testing.assert_array_equal(price(inst, [], np.zeros(2), max_new=max_new), [1, 2])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
    def test_a_tolerance_that_is_not_finite_is_refused(self, tol):
        # y = 0 prices every column; a NaN or +inf tol priced none, a certificate
        inst = generate_mkp(MkpParams(m=4, n=50, tightness=0.3))
        assert price(inst, [], np.zeros(4), tol=1e-7).size == 50
        with pytest.raises(ValueError, match="tol must be finite"):
            price(inst, [], np.zeros(4), tol=tol)

    @pytest.mark.parametrize("working", [[-1], [3], [0, -3], [0.0, 1.0], [True, False, True]],
                             ids=["negative", "past n", "mixed", "float", "mask"])
    def test_working_ids_outside_the_instance_are_refused(self, working):
        # [-1] once stood for column 2, which then went unpriced
        inst = LpInstance.from_dense([[1, 2, 3], [1, 0, 1]], [1, 1], [5, 6, 7])
        with pytest.raises(ValueError, match=r"integers in \[0, 3\)"):
            price(inst, working, np.zeros(2))

    def test_an_empty_working_set_of_any_dtype_is_allowed(self):
        inst = LpInstance.from_dense([[1, 2, 3], [1, 0, 1]], [1, 1], [5, 6, 7])
        for working in ([], np.empty(0), np.empty(0, dtype=np.int32)):
            np.testing.assert_array_equal(price(inst, working, np.zeros(2)), [0, 1, 2])

    def test_truncation_ranks_by_the_blend(self):
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0]], [1.0], [3.0, 1.0, 2.0])
        # the blend is [1.2, 4.0, 1.4], where the costs alone rank 0 and 2 first
        share = (1 - sifting.ALPHA) * np.array([0.0, 6.0, 1.0])
        np.testing.assert_array_equal(
            price(inst, [], np.zeros(1), max_new=2, anchor_share=share), [1, 2])
        np.testing.assert_array_equal(price(inst, [], np.zeros(1), max_new=2), [0, 2])


def per_call_price(instance, working_set, y, tol, max_new, anchor_reduced):
    """``price`` with the blend formed in full on each call:
    ALPHA * r + (1 - ALPHA) * r_anchor, from the transpose built anew."""
    reduced = instance.obj - instance.to_scipy().T @ y
    reduced[np.asarray(working_set, dtype=np.int64)] = -np.inf
    blended = sifting.ALPHA * reduced + (1.0 - sifting.ALPHA) * anchor_reduced
    ranked = blended if np.any(blended > tol) else reduced
    violated = np.flatnonzero(ranked > tol)
    if max_new is not None:
        order = np.lexsort((violated, -ranked[violated]))[:max_new]
        violated = np.sort(violated[order])
    return violated


class TestKeptAnchorShare:
    @pytest.mark.parametrize("max_new", [None, 1, 5])
    def test_price_matches_the_per_call_blend(self, max_new):
        rng = np.random.default_rng(21)
        inst = generate_mkp(MkpParams(m=6, n=400, tightness=0.2, density=0.5, seed=21))
        anchor_reduced = inst.obj - inst.to_scipy().T @ rng.random(6)
        share = (1.0 - sifting.ALPHA) * anchor_reduced
        fell_back = blended = 0
        for trial in range(40):
            y = rng.random(6) * rng.choice([0.1, 1.0, 10.0])
            working = np.sort(rng.choice(400, size=int(rng.integers(0, 400)), replace=False))
            got = price(inst, working, y, 1e-7, max_new, anchor_share=share)
            want = per_call_price(inst, working, y, 1e-7, max_new, anchor_reduced)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
            reduced = inst.obj - inst.to_scipy().T @ y
            reduced[working] = -np.inf
            if np.any(sifting.ALPHA * reduced + share > 1e-7):
                blended += 1
            else:
                fell_back += 1
        assert blended and fell_back   # both branches, and -inf over W in each


class TestBasisMetrics:
    def test_full_overlap(self):
        acc, rdc = basis_metrics({1, 2, 3}, {1, 2, 3}, 10)
        assert acc == 1.0 and rdc == 0.3

    def test_disjoint(self):
        acc, _ = basis_metrics({1, 2}, {3, 4}, 10)
        assert acc == 0.0

    def test_ledger_style_ratios(self):
        basis = set(range(301))
        working = set(range(271)) | set(range(1000, 1000 + 11862 - 271))
        acc, rdc = basis_metrics(basis, working, 62171)
        assert acc == pytest.approx(271 / 301)
        assert rdc == pytest.approx(11862 / 62171)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            basis_metrics(set(), {1}, 10)


def online_then_sift(inst, sift_config=None, seed=0, k=2):
    sol = solve_online(inst, RunConfig(method="explicit", seed=seed,
                                       duplication=k, start="ones"))
    return sift(inst, sol, sift_config)


class TestSift:
    def test_tiny_matches_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            m, n = int(rng.integers(1, 4)), int(rng.integers(2, 7))
            A = rng.random((m, n)) * 2
            b = rng.random(m) * n * 0.3 + 0.1
            c = rng.random(n) * 2
            inst = LpInstance.from_dense(A, b, c)
            result = online_then_sift(inst, seed=trial)
            opt, _ = enumerate_vertices_oracle(inst)
            assert result.objective == pytest.approx(opt, abs=1e-8)

    def test_superset_seed_terminates_first_round(self):
        inst = generate_mkp(MkpParams(m=4, n=60, tightness=0.3, seed=5))
        full = solve_lp(inst)
        support = np.flatnonzero(full.x_star > 1e-9)
        fake = solve_online(inst, RunConfig(seed=0))
        x_fake = np.zeros(60)
        x_fake[support] = 1.0
        fake = type(fake)(x_hat=x_fake, y_final=full.y_star,
                          objective=full.obj, violation=0.0,
                          max_dual_norm=0.0, elapsed_columns=60, gamma=fake.gamma)
        result = sift(inst, fake)
        assert result.rounds == 1
        assert result.objective == pytest.approx(full.obj, rel=1e-9)

    def test_matches_direct_solve_and_certificate(self):
        for seed in range(4):
            inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.15, seed=seed))
            result = online_then_sift(inst, seed=seed)
            direct = solve_lp(inst)
            assert result.objective == pytest.approx(
                direct.obj, rel=1e-6, abs=1e-9)
            # global certificate: nothing prices in against the exact dual
            leftover = price(inst, result.final_working_set, result.y, 1e-7)
            assert leftover.size == 0
            # full-length primal is feasible
            viol = inst.to_scipy() @ result.x - inst.rhs
            assert float(np.max(viol)) <= 1e-7 * (1 + float(np.max(inst.rhs)))

    def test_monotone_working_objective(self):
        inst = generate_mkp(MkpParams(m=8, n=400, tightness=0.1, seed=2))
        result = online_then_sift(inst, seed=2)
        objs = [r.objective for r in result.trace]
        assert all(b >= a - 1e-9 for a, b in zip(objs, objs[1:]))

    def test_a_sweep_with_the_exact_dual_certifies(self, monkeypatch):
        found = []   # the size of each sweep's result

        def recording_price(*args, **kwargs):
            priced = price(*args, **kwargs)
            found.append(priced.size)
            return priced

        monkeypatch.setattr(sifting, "price", recording_price)
        inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.15, seed=1))
        result = online_then_sift(inst, seed=1)
        assert result.rounds >= 2
        assert len(found) == result.rounds
        assert found.count(0) == 1 and found[-1] == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_column_cap_holds_on_every_sweep(self, seed):
        # the blended dual prices nothing in the first round here, so the
        # round's columns come from the certifying sweep with the exact dual
        inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.3, seed=seed))
        pre = solve_online(inst, RunConfig(duplication=2, seed=seed))
        result = sift(inst, pre, SiftConfig(max_new_columns_per_round=5))
        assert all(r.priced <= 5 for r in result.trace)
        assert result.trace[-1].priced == 0
        assert result.objective == pytest.approx(solve_lp(inst).obj, rel=1e-9)

    def test_the_pass_gives_only_its_dual(self):
        inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.15, seed=3))
        pre = solve_online(inst, RunConfig(duplication=2, seed=3))
        blind = replace(pre, x_hat=np.zeros(300))
        a, b = sift(inst, pre), sift(inst, blind)
        for name in ("final_working_set", "initial_working_set", "x", "y"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.objective, a.rounds, a.rdc) == (b.objective, b.rounds, b.rdc)
        assert a.exact.x_star.tobytes() == b.exact.x_star.tobytes()
        assert a.exact.y_star.tobytes() == b.exact.y_star.tobytes()
        untimed = dict(wall_time_s=0.0, solve_s=0.0, price_s=0.0)
        assert [replace(r, **untimed) for r in a.trace] == [replace(r, **untimed) for r in b.trace]

    def test_a_round_limited_result_is_the_last_solved_problem(self):
        inst = generate_mkp(MkpParams(m=4, n=120, tightness=0.2, seed=6))
        pre = solve_online(inst, RunConfig(duplication=2))
        with pytest.raises(SiftRoundLimit) as exc:
            sift(inst, pre, SiftConfig(max_rounds=1))
        partial = exc.value.partial
        assert partial.final_working_set.size == partial.exact.x_star.size
        outside = np.ones(inst.num_cols, dtype=bool)
        outside[partial.final_working_set] = False
        assert not np.any(partial.x[outside])
        assert float(inst.obj @ partial.x) == pytest.approx(partial.objective, rel=1e-12)
        assert np.all(partial.x >= 0) and np.all(partial.x <= inst.upper)
        viol = inst.to_scipy() @ partial.x - inst.rhs
        assert float(np.max(viol)) <= 1e-9 * (1 + float(np.max(inst.rhs)))

    @pytest.mark.parametrize("field, value", [
        ("init_threshold", 0.5), ("stabilization_alpha", 1.0), ("use_online_anchor", False),
    ])
    def test_a_threshold_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.* retired"):
            SiftConfig(**{field: value})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_tolerance_is_refused(self, tol):
        # at m=20, n=2000, tau=0.05, seed 0 a NaN tolerance ended sift after
        # one round at 9,403 against the true optimum 64,623
        with pytest.raises(ValueError, match="pricing_tolerance must be finite"):
            SiftConfig(pricing_tolerance=tol)

    def test_a_non_finite_pre_pass_dual_is_refused(self):
        inst = generate_mkp(MkpParams(m=5, n=150, tightness=0.25, seed=9))
        pre = solve_online(inst, RunConfig(duplication=2))
        pre.y_final[2] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            sift(inst, pre)

    def test_a_cap_below_one_is_refused(self):
        with pytest.raises(ValueError, match="max_new_columns_per_round"):
            SiftConfig(max_new_columns_per_round=0)

    @pytest.mark.parametrize("field", ["max_rounds", "max_new_columns_per_round"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_a_count_that_is_no_integer_is_refused(self, field, value):
        # 2.5 failed mid-run with numpy's TypeError
        with pytest.raises(ValueError, match=f"{field} must be .*an integer >= 1"):
            SiftConfig(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        inst = generate_mkp(MkpParams(m=5, n=150, tightness=0.25, seed=9))
        pre = solve_online(inst, RunConfig(duplication=2))
        got = sift(inst, pre, SiftConfig(max_rounds=np.int64(50),
                                         max_new_columns_per_round=np.int32(5)))
        want = sift(inst, pre, SiftConfig(max_rounds=50, max_new_columns_per_round=5))
        assert got.x.tobytes() == want.x.tobytes() and got.rounds == want.rounds

    def test_acc_rdc_reported(self):
        inst = generate_mkp(MkpParams(m=5, n=150, tightness=0.25, seed=9))
        result = online_then_sift(inst, seed=9)
        support = np.flatnonzero(solve_lp(inst).x_star > 1e-9)
        acc, rdc = basis_metrics(support, result.initial_working_set, inst.num_cols)
        assert 0.0 <= acc <= 1.0
        assert 0.0 < result.rdc <= 1.0 and rdc == result.rdc

    def test_solves_only_working_problems(self, monkeypatch):
        import onlinelp.sifting as sifting

        sizes = []

        def recording_solve_lp(instance, *args, columns, **kwargs):
            assert instance is inst   # no sub-instance: the solve reads inst's columns
            sizes.append(len(columns))
            return solve_lp(instance, *args, columns=columns, **kwargs)

        monkeypatch.setattr(sifting, "solve_lp", recording_solve_lp)
        inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.15, seed=1))
        result = online_then_sift(inst, seed=1)
        assert len(sizes) == result.rounds
        assert sizes == [r.working_size for r in result.trace]

    def test_rounds_time_their_solve_and_their_pricing(self):
        inst = generate_mkp(MkpParams(m=6, n=300, tightness=0.15, seed=1))
        result = online_then_sift(inst, seed=1)
        assert result.rounds >= 2
        for r in result.trace:
            assert 0.0 < r.solve_s and 0.0 < r.price_s
            assert r.solve_s + r.price_s <= r.wall_time_s

    def test_rejects_negative_rhs(self):
        inst = LpInstance.from_dense([[-1.0]], [-1.0], [1.0])
        fake_sol = solve_online(
            LpInstance.from_dense([[1.0]], [1.0], [1.0]), RunConfig(seed=0))
        with pytest.raises(ValueError, match="b >= 0"):
            sift(inst, fake_sol)


def union_sift(inst, pre, tol=1e-7):
    """sift's rounds written out with ``np.union1d`` growing the working set
    and the blend formed per call (``per_call_price``): the reference of the
    kept share and of the sort that replaces the union."""
    m = inst.num_rows
    anchor_reduced = inst.obj - inst.to_scipy().T @ np.maximum(pre.y_final, 0.0)
    w = init_working_set(inst, np.maximum(pre.y_final, 0.0), m)
    rounds, res, warm = [], None, None
    while True:
        if res is not None:
            w_prev, w = w, np.union1d(w, priced)
            warm = _map_warm_basis(res, w_prev, w, m)
        res = solve_lp(inst.restrict_columns(w), warm_basis=warm)
        priced = per_call_price(inst, w, res.y_star, tol, None, anchor_reduced)
        rounds.append((w.size, priced.size, res.iterations, res.warm_started))
        if priced.size == 0:
            return w, res, rounds


@pytest.mark.parametrize("m, n, density, seed", [(8, 1000, 1.0, 0), (8, 1000, 1.0, 5),
                                                 (30, 3000, 0.1, 2)])
def test_sift_matches_the_union_reference(m, n, density, seed):
    inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.25, density=density, seed=seed))
    pre = solve_online(inst, RunConfig(duplication=2, seed=seed))
    got = sift(inst, pre)
    w, res, rounds = union_sift(inst, pre)
    assert got.rounds >= 2
    assert got.final_working_set.tobytes() == w.tobytes()
    assert [(r.working_size, r.priced, r.iterations, r.warm_started)
            for r in got.trace] == rounds
    x = np.zeros(n)
    x[w] = res.x_star
    assert got.x.tobytes() == x.tobytes() and got.y.tobytes() == res.y_star.tobytes()
    assert np.float64(got.objective).tobytes() == np.float64(res.obj).tobytes()


def blended_dual_price(anchor, alpha=0.4):
    """The former pricing rule, as a reference for ``price``'s one sweep:
    price against the blended dual alpha * y + (1 - alpha) * anchor, and
    sweep again with the exact dual y when the blend prices nothing."""
    def reference(instance, working_set, y, tol, max_new, anchor_share):
        priced = price(instance, working_set, alpha * y + (1.0 - alpha) * anchor, tol, max_new)
        return priced if priced.size else price(instance, working_set, y, tol, max_new)
    return reference


def differs_from_the_blended_dual(inst, pre) -> bool:
    """Whether sift's rounds, final working set or objective change when
    ``price`` is replaced by the former rule."""
    new = sift(inst, pre)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sifting, "price", blended_dual_price(np.maximum(pre.y_final, 0.0)))
        old = sift(inst, pre)
    return ([(r.working_size, r.priced) for r in new.trace]
            != [(r.working_size, r.priced) for r in old.trace]
            or new.final_working_set.tobytes() != old.final_working_set.tobytes()
            or new.objective != old.objective)


class TestBlendedDualReference:
    def test_criterion_08_grid(self):
        differs = []
        for seed in range(30):
            inst = generate_mkp(MkpParams(m=20, n=2000, tightness=0.25, seed=seed))
            pre = solve_online(inst, RunConfig(method="explicit", duplication=2,
                                               seed=seed, start="ones"))
            if differs_from_the_blended_dual(inst, pre):
                differs.append(seed)
        assert differs == []

    def test_demo_04_instance(self):
        inst = generate_mkp(MkpParams(m=50, n=20_000, tightness=0.05, density=0.1, seed=12))
        pre = solve_online(inst, RunConfig(method="explicit", duplication=2, seed=12,
                                           start="ones"))
        assert not differs_from_the_blended_dual(inst, pre)
        assert sift(inst, pre).final_working_set.size == 267


@pytest.fixture(scope="module")
def cli_default_sifts():
    """Pre-pass plus sift with ``onlinelp sift``'s parser defaults on the
    criterion-09 regime (m=100, n=10^4, tau=0.05, sigma=0.1), seeds 0-4."""
    args = build_parser().parse_args(["sift", "--gen", "m=1,n=1,tau=1"])
    pre = RunConfig(method=args.prepass_method, duplication=args.prepass_k,
                    seed=args.run_seed, start=args.prepass_start, lazy=args.prepass_lazy)
    config = SiftConfig(
        init_threshold=args.init_threshold, stabilization_alpha=args.alpha,
        use_online_anchor=not args.no_anchor, pricing_tolerance=args.pricing_tol,
        max_new_columns_per_round=args.max_new_cols, max_rounds=args.max_rounds)
    results = []
    for seed in range(5):
        inst = generate_mkp(MkpParams(m=100, n=10_000, tightness=0.05,
                                      density=0.1, seed=seed))
        results.append((inst, sift(inst, solve_online(inst, pre), config)))
    return results


class TestCliDefaultSift:
    def test_final_working_set_stays_small(self, cli_default_sifts):
        for inst, result in cli_default_sifts:
            assert price(inst, result.final_working_set, result.y).size == 0
        # test_09's bar on the seed set, applied to the final working set
        fractions = [r.final_working_set.size / inst.num_cols
                     for inst, r in cli_default_sifts]
        assert float(np.median(fractions)) <= 0.2

    def test_each_seed_holds_m_columns(self, cli_default_sifts):
        for inst, result in cli_default_sifts:
            assert result.initial_working_set.size == inst.num_rows

    def test_every_later_round_is_warm_started(self, cli_default_sifts):
        for _, result in cli_default_sifts:
            assert result.rounds >= 2
            assert not result.trace[0].warm_started
            assert all(r.warm_started for r in result.trace[1:])
