"""Output checks of the benchmark, computed with numpy and scipy alone.

Nothing here imports ``onlinelp``: every check rebuilds what it needs from
the raw arrays of an instance (CSC column pointers, row indices, values,
b, c, u), so a fault in the program cannot hide itself by also sitting in
its own verification.  Each check returns a list of problems; an empty
list means the output passed.

The LPs are  max <c, x>  s.t.  A x <= b,  0 <= x <= u.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

OBJ_RTOL = 1e-9        # a reported objective against c.x recomputed
MATCH_RTOL = 1e-9      # two exact optima of the same LP
FEAS_RTOL = 1e-9       # A x <= b, relative to 1 + |b_i|
CERT_RTOL = 1e-7       # weak-duality gap of a certified optimum, relative to 1 + |c.x|
ROUNDING_RTOL = 1e-9   # violation of an enforced pass, relative to 1 + ||b||


class Lp:
    """The arrays of one LP, with A rebuilt as a scipy CSC matrix."""

    def __init__(self, col_ptr, row_idx, values, b, c, u, num_rows):
        self.b = np.asarray(b, dtype=np.float64)
        self.c = np.asarray(c, dtype=np.float64)
        self.u = np.asarray(u, dtype=np.float64)
        self.A = sp.csc_matrix((np.asarray(values, dtype=np.float64),
                                np.asarray(row_idx), np.asarray(col_ptr)),
                               shape=(num_rows, self.c.size))

    @classmethod
    def of(cls, instance) -> "Lp":
        return cls(instance.col_ptr, instance.row_idx, instance.values,
                   instance.rhs, instance.obj, instance.upper, instance.num_rows)


def highs_optimum(lp: Lp) -> float:
    """Optimal value of the LP from scipy's HiGHS."""
    res = linprog(-lp.c, A_ub=lp.A, b_ub=lp.b,
                  bounds=np.column_stack([np.zeros_like(lp.u), lp.u]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the reference LP: {res.message}")
    return float(-res.fun)


def _objective_problems(lp: Lp, x, objective) -> list[str]:
    recomputed = float(lp.c @ x)
    if not abs(objective - recomputed) <= OBJ_RTOL * (1.0 + abs(recomputed)):
        return [f"reported objective {objective!r} != c.x = {recomputed!r}"]
    return []


def _box_problems(lp: Lp, x) -> list[str]:
    if x.shape != lp.c.shape or not np.all(np.isfinite(x)):
        return ["x has the wrong shape or non-finite entries"]
    if np.any(x < 0.0) or np.any(x > lp.u):
        return [f"x leaves its box [0, u] (min {x.min():.3g}, max excess "
                f"{np.max(x - lp.u):.3g})"]
    return []


def check_online(lp: Lp, x_hat, objective: float, violation: float,
                 optimum: float | None = None, enforced: bool = False) -> list[str]:
    """An online pass: x_hat in the box and the reported objective and
    violation equal to c.x_hat and ||(A x_hat - b)_+|| recomputed.

    With feasibility enforced, also A x_hat <= b up to rounding and an
    objective no better than the optimum (a feasible point cannot beat it).
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    problems = _box_problems(lp, x_hat)
    if problems:
        return problems
    problems += _objective_problems(lp, x_hat, objective)
    recomputed = float(np.linalg.norm(np.maximum(lp.A @ x_hat - lp.b, 0.0)))
    scale = 1.0 + float(np.linalg.norm(lp.b))
    if not abs(violation - recomputed) <= ROUNDING_RTOL * scale:
        problems.append(f"reported violation {violation!r} != recomputed {recomputed!r}")
    if enforced:
        if not recomputed <= ROUNDING_RTOL * scale:
            problems.append(f"violation {recomputed:.3g} is above rounding level "
                            "although feasibility was enforced")
        if not objective <= optimum + OBJ_RTOL * (1.0 + abs(optimum)):
            problems.append(f"objective {objective!r} beats the optimum {optimum!r}")
    return problems


def certificate_gap(lp: Lp, x, y) -> float:
    """Weak-duality bound minus c.x, with y+ = max(y, 0).

    For any y+ >= 0, b.y+ + u.[c - A^T y+]_+ bounds the optimum from above,
    so a small gap proves x optimal without a reference solver.
    """
    y_plus = np.maximum(np.asarray(y, dtype=np.float64), 0.0)
    reduced = lp.c - lp.A.T @ y_plus
    bound = float(lp.b @ y_plus + lp.u @ np.maximum(reduced, 0.0))
    return bound - float(lp.c @ x)


def check_certified(lp: Lp, x, y, objective: float) -> list[str]:
    """An exact optimum: x primal feasible and the weak-duality gap of
    (x, y+) within CERT_RTOL."""
    x = np.asarray(x, dtype=np.float64)
    problems = _box_problems(lp, x)
    if problems:
        return problems
    problems += _objective_problems(lp, x, objective)
    slack = lp.b - lp.A @ x
    worst = float(np.min(slack / (1.0 + np.abs(lp.b))))
    if not worst >= -FEAS_RTOL:
        problems.append(f"x overloads a row (relative slack {worst:.3g})")
    gap = certificate_gap(lp, x, y)
    if not gap <= CERT_RTOL * (1.0 + abs(float(lp.c @ x))):
        problems.append(f"weak-duality gap {gap:.6g} is open")
    return problems


def check_match(name: str, value: float, reference: float) -> list[str]:
    """Two exact optima of the same LP agree."""
    if not abs(value - reference) <= MATCH_RTOL * (1.0 + abs(reference)):
        return [f"{name} {value!r} != reference {reference!r}"]
    return []


def check_same_lp(expected: Lp, got: Lp) -> list[str]:
    """Two LPs hold bitwise the same data (an MPS round trip)."""
    problems = []
    for field in ("b", "c", "u"):
        if not np.array_equal(getattr(expected, field), getattr(got, field)):
            problems.append(f"{field} differs")
    a, g = expected.A, got.A
    if a.shape != g.shape:
        problems.append(f"A has shape {g.shape}, expected {a.shape}")
    elif not (np.array_equal(a.indptr, g.indptr) and np.array_equal(a.indices, g.indices)
              and np.array_equal(a.data, g.data)):
        problems.append("A differs")
    return problems
