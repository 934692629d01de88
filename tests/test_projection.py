import numpy as np
import pytest

from onlinelp.projection import (ProjectionInfeasibleError, _breakpoint_sums,
                                 project_weighted_simplex)


def brute_force_projection(v, w, target, tol=1e-10):
    """Active-set oracle: try every sign pattern of the KKT system.

    For the pattern that keeps set S positive, the minimizer restricted to
    {y_S > 0, y_rest = 0} is v_S shifted along w_S to meet the constraint.
    Feasible candidates are compared by distance.
    """
    n = len(v)
    best, best_obj = None, np.inf
    for mask in range(1 << n):
        S = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        y = np.zeros(n)
        ww = float(w[S] @ w[S])
        if ww == 0.0:
            if abs(float(w[S] @ v[S]) - target) > tol and abs(target) > tol:
                continue
            if S.any():
                y[S] = v[S]
            if abs(float(w @ y) - target) > 1e-8 * (1 + abs(target)):
                continue
        else:
            theta = (float(w[S] @ v[S]) - target) / ww
            y[S] = v[S] - theta * w[S]
        if np.any(y[S] < -tol):
            continue
        if abs(float(w @ y) - target) > 1e-8 * (1 + abs(target)):
            continue
        obj = float(np.sum((y - v) ** 2))
        if obj < best_obj - 1e-12:
            best, best_obj = np.maximum(y, 0.0), obj
    return best


class TestKnownValues:
    def test_symmetric_standard_simplex(self):
        y = project_weighted_simplex([1.0, 1.0], [1.0, 1.0], 1.0)
        np.testing.assert_allclose(y, [0.5, 0.5], atol=1e-12)

    def test_corner_solution(self):
        y, theta = project_weighted_simplex([3.0, 0.0], [1.0, 1.0], 1.0,
                                            return_multiplier=True)
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-12)
        assert theta == pytest.approx(2.0, abs=1e-12)

    def test_zero_weight_coordinates_pass_through(self):
        y = project_weighted_simplex([2.0, -1.0, 1.0], [0.0, 0.0, 1.0], 1.0)
        np.testing.assert_allclose(y, [2.0, 0.0, 1.0], atol=1e-12)

    def test_infeasible_raises(self):
        with pytest.raises(ProjectionInfeasibleError):
            project_weighted_simplex([1.0, 1.0], [1.0, 1.0], -1.0)
        with pytest.raises(ProjectionInfeasibleError):
            project_weighted_simplex([1.0], [0.0], 2.0)

    @pytest.mark.parametrize("v, w, target", [
        ([1.0, 2.0], [1.0, 1.0], np.nan), ([1.0, 2.0], [1.0, 1.0], -np.inf),
        ([1.0, 2.0], [1.0, 1.0], np.inf), ([np.nan, 2.0], [1.0, 1.0], 1.0),
        ([1.0, np.inf], [1.0, 1.0], 1.0), ([1.0, 2.0], [1.0, np.nan], 1.0),
        ([1.0, 2.0], [-np.inf, 1.0], 1.0), ([np.nan, 2.0], [0.0, 0.0], 0.0)])
    def test_data_that_is_not_finite_is_refused(self, v, w, target):
        # a NaN or -inf target gave y = [0, 0] and theta = 2, +inf gave
        # y = [inf, inf], and a NaN in v or w an all-NaN y
        with pytest.raises(ValueError, match="v, w and target must be finite") as exc:
            project_weighted_simplex(v, w, target, return_multiplier=True)
        assert not isinstance(exc.value, ProjectionInfeasibleError)

    def test_mixed_sign_reaches_negative_target(self):
        y = project_weighted_simplex([0.0, 0.0], [1.0, -1.0], -2.0)
        assert float(np.array([1.0, -1.0]) @ y) == pytest.approx(-2.0, abs=1e-9)
        assert np.all(y >= 0)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_random_problems(self, signs):
        rng = np.random.default_rng(42 if signs == "positive" else 43)
        checked = 0
        while checked < 250:
            n = int(rng.integers(1, 9))
            v = rng.normal(size=n) * 3
            if signs == "positive":
                w = rng.random(n) + 0.05
                target = float(rng.random() * 3)
            else:
                w = rng.normal(size=n)
                w[np.abs(w) < 0.05] = 0.05
                target = float(rng.normal() * 2)
            expected = brute_force_projection(v, w, target)
            if expected is None:
                with pytest.raises(ProjectionInfeasibleError):
                    project_weighted_simplex(v, w, target)
                continue
            y = project_weighted_simplex(v, w, target)
            assert np.allclose(y, expected, atol=1e-7), (v, w, target, y, expected)
            assert abs(float(w @ y) - target) <= 1e-9 * (1 + abs(target))
            checked += 1

    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_tied_breakpoints(self, signs):
        # integer data with v_i = w_i * r_i (+ a unit shift among mixed signs),
        # so breakpoints v_i / w_i repeat: g is read at the start of each tie
        # group, and the flat and tied segments are met exactly
        rng = np.random.default_rng(44 if signs == "positive" else 45)
        checked = tied = 0
        while checked < 250:
            n = int(rng.integers(2, 9))
            if signs == "positive":
                w = rng.integers(1, 4, size=n).astype(float)
                v = w * rng.integers(-2, 3, size=n)
                target = float(rng.integers(0, 12))
            else:
                w = rng.choice([-2.0, -1.0, 1.0, 2.0, 3.0], size=n)
                v = w * rng.integers(-2, 3, size=n) + rng.integers(0, 2, size=n)
                target = float(rng.integers(-6, 7))
            expected = brute_force_projection(v, w, target)
            if expected is None:
                with pytest.raises(ProjectionInfeasibleError):
                    project_weighted_simplex(v, w, target)
                continue
            y = project_weighted_simplex(v, w, target)
            assert np.allclose(y, expected, atol=1e-7), (v, w, target, y, expected)
            assert abs(float(w @ y) - target) <= 1e-9 * (1 + abs(target))
            checked += 1
            tied += np.unique(v / w).size < n
        assert tied >= 150


def test_breakpoint_sums_match_a_loop():
    # the search that the projection and f_bar share, against the sums added
    # one term at a time: positive slopes from the last position down,
    # negative ones from the first up, equal breakpoints kept in input order
    rng = np.random.default_rng(46)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        ratio = rng.integers(-3, 4, size=n) / rng.choice([1.0, 3.0])
        slope = rng.choice([-2.0, -0.5, 1.0, 3.0], size=n)
        terms = rng.normal(size=(2, n))
        r, sums = _breakpoint_sums(ratio, slope, terms)
        order = sorted(range(n), key=lambda i: ratio[i])
        assert r.tolist() == [ratio[i] for i in order] and sums.shape == (2, n + 1)
        for row, got in zip(terms, sums):
            for p in range(n + 1):
                above = below = 0.0
                for i in reversed(order[p:]):
                    above += row[i] if slope[i] > 0 else 0.0
                for i in order[:p]:
                    below += row[i] if slope[i] < 0 else 0.0
                assert got[p] == above + below
