"""Each output check of the benchmark rejects the fault it guards against.

    python3 -m pytest perfbench/test_checks.py

The LPs here are built with numpy alone and solved with scipy's HiGHS, so
these tests exercise the checks without the program under test.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import (Lp, certificate_gap, check_certified, check_match,  # noqa: E402
                    check_online, check_same_lp, highs_optimum)


def knapsack(seed=0, m=4, n=30, density=0.6) -> Lp:
    rng = np.random.default_rng(seed)
    dense = rng.integers(1, 100, size=(m, n)) * (rng.random((m, n)) < density)
    dense[:, dense.sum(axis=0) == 0] = 1          # no empty column
    col_ptr = np.concatenate(([0], np.cumsum((dense != 0).sum(axis=0))))
    row_idx = np.concatenate([np.flatnonzero(dense[:, j]) for j in range(n)])
    values = np.concatenate([dense[dense[:, j] != 0, j] for j in range(n)]).astype(float)
    b = 0.3 * dense.sum(axis=1)
    c = dense.sum(axis=0) / m + rng.integers(1, 50, size=n)
    return Lp(col_ptr, row_idx, values, b, c, np.ones(n), m)


def highs_primal_dual(lp: Lp):
    res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b, bounds=(0, 1), method="highs")
    return res.x, -res.ineqlin.marginals


@pytest.fixture
def lp():
    return knapsack()


class TestOnline:
    def test_feasible_point_passes(self, lp):
        x = np.zeros(lp.c.size)
        x[:3] = 0.25
        assert np.all(lp.A @ x <= lp.b)
        assert check_online(lp, x, float(lp.c @ x), 0.0, highs_optimum(lp), enforced=True) == []

    def test_overloaded_row_is_rejected(self, lp):
        x = np.ones(lp.c.size)                     # takes everything: rows overload
        viol = float(np.linalg.norm(np.maximum(lp.A @ x - lp.b, 0.0)))
        assert viol > 1.0
        problems = check_online(lp, x, float(lp.c @ x), viol, highs_optimum(lp), enforced=True)
        assert any("above rounding level" in p for p in problems)
        assert any("beats the optimum" in p for p in problems)
        # the same point passes as an unenforced pre-pass, reported honestly
        assert check_online(lp, x, float(lp.c @ x), viol) == []

    def test_misreported_violation_is_rejected(self, lp):
        x = np.ones(lp.c.size)
        problems = check_online(lp, x, float(lp.c @ x), 0.0)
        assert any("reported violation" in p for p in problems)

    def test_misreported_objective_is_rejected(self, lp):
        x = np.zeros(lp.c.size)
        assert any("reported objective" in p for p in check_online(lp, x, 1.0, 0.0))

    def test_point_outside_the_box_is_rejected(self, lp):
        x = np.zeros(lp.c.size)
        x[0] = 1.5
        assert any("box" in p for p in check_online(lp, x, float(lp.c @ x), 0.0))
        x[0] = -1e-12
        assert any("box" in p for p in check_online(lp, x, float(lp.c @ x), 0.0))


class TestCertificate:
    def test_optimal_pair_passes(self, lp):
        x, y = highs_primal_dual(lp)
        x = np.clip(x, 0.0, 1.0)
        assert check_certified(lp, x, y, float(lp.c @ x)) == []

    def test_halved_dual_coordinate_opens_the_gap(self, lp):
        x, y = highs_primal_dual(lp)
        x = np.clip(x, 0.0, 1.0)
        assert np.any(y > 0)
        spoiled = y.copy()
        i = int(np.argmax(y))
        spoiled[i] /= 2
        assert certificate_gap(lp, x, spoiled) > 1e-3 * abs(float(lp.c @ x))
        problems = check_certified(lp, x, spoiled, float(lp.c @ x))
        assert any("gap" in p for p in problems)

    def test_suboptimal_primal_is_rejected(self, lp):
        x, y = highs_primal_dual(lp)
        x = np.clip(x, 0.0, 1.0) * 0.9               # feasible, not optimal
        assert any("gap" in p for p in check_certified(lp, x, y, float(lp.c @ x)))

    def test_overloaded_row_is_rejected(self, lp):
        x, y = highs_primal_dual(lp)
        x = np.clip(x, 0.0, 1.0)
        x[np.argmax(lp.c)] = 1.0
        x[:] = np.minimum(x + 0.2, 1.0)
        assert any("overloads" in p for p in check_certified(lp, x, y, float(lp.c @ x)))

    def test_negative_dual_entries_are_clipped(self, lp):
        x, y = highs_primal_dual(lp)
        x = np.clip(x, 0.0, 1.0)
        y = y.copy()
        y[y == 0] = -5.0                             # y+ is unchanged
        assert check_certified(lp, x, y, float(lp.c @ x)) == []


class TestMatchAndRoundTrip:
    def test_match(self):
        assert check_match("v", 1000.0, 1000.0 * (1 + 1e-12)) == []
        assert check_match("v", 1000.0, 1000.0 * (1 + 1e-6)) != []

    def test_identical_lp_passes(self, lp):
        copy = Lp(lp.A.indptr, lp.A.indices, lp.A.data.copy(), lp.b, lp.c, lp.u, lp.A.shape[0])
        assert check_same_lp(lp, copy) == []

    @pytest.mark.parametrize("field", ["A", "b", "c", "u"])
    def test_one_changed_value_is_rejected(self, lp, field):
        copy = Lp(lp.A.indptr, lp.A.indices, lp.A.data.copy(), lp.b.copy(), lp.c.copy(),
                  lp.u.copy(), lp.A.shape[0])
        target = copy.A.data if field == "A" else getattr(copy, field)
        target[len(target) // 2] = np.nextafter(target[len(target) // 2], np.inf)
        assert check_same_lp(lp, copy) == [f"{field} differs"]

    def test_moved_entry_is_rejected(self, lp):
        m = lp.A.shape[0]
        col = int(np.flatnonzero(np.diff(lp.A.indptr) < m)[0])
        k = lp.A.indptr[col]
        present = set(lp.A.indices[k:lp.A.indptr[col + 1]])
        indices = lp.A.indices.copy()
        indices[k] = min(set(range(m)) - present)
        copy = Lp(lp.A.indptr, indices, lp.A.data, lp.b, lp.c, lp.u, m)
        assert check_same_lp(lp, copy) == ["A differs"]
