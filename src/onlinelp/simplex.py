"""Bounded-variable revised primal simplex plus a tiny-instance vertex oracle.

Solves  max <c, x>  s.t.  A x <= b,  0 <= x <= u  exactly by attaching slack
columns (A x + s = b, s >= 0) and pivoting with nonbasic-at-lower /
nonbasic-at-upper statuses.  The basis inverse is held explicitly as a dense
m x m matrix: formed from an LU factorization at each refactorization and
given a rank-1 row update at each pivot, so ftran and btran are one
matrix-vector product each.  Pricing is Dantzig with a Bland fallback once
the objective stalls.  Negative right-hand sides are handled by a standard
artificial-variable Phase 1.

Working problems produced by sifting are small by construction, so there is
deliberately no sparse factorization machinery here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .model import LpInstance

_getrf, = sla.get_lapack_funcs(("getrf",), (np.zeros((1, 1)),))

__all__ = [
    "SolveStatus",
    "SimplexResult",
    "SingularBasisError",
    "solve_lp",
    "enumerate_vertices_oracle",
]

FEAS_TOL = 1e-7      # primal feasibility checks
OPT_TOL = 1e-9       # reduced-cost pricing threshold
PIVOT_TOL = 1e-10    # smallest acceptable pivot element
REFACTOR_PERIOD = 100  # refactorize after this many rank-1 updates
STALL_WINDOW = 50    # iterations without progress before Bland's rule


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


class SingularBasisError(RuntimeError):
    """Basis factorization failed even after a refactorization retry."""


@dataclass(frozen=True)
class SimplexResult:
    """Exact solve outcome.  Column ids: structural j < n, slack n + i."""

    status: SolveStatus
    x_star: np.ndarray | None
    y_star: np.ndarray | None
    obj: float
    basis: frozenset[int]
    iterations: int
    at_upper: frozenset[int] = frozenset()
    warm_started: bool = False      # the warm basis was accepted as the start


class _Workspace:
    """Mutable pivoting state over the slack-extended column set."""

    def __init__(self, instance: LpInstance, art_rows: np.ndarray):
        self.inst = instance
        self.m = instance.num_rows
        self.n = instance.num_cols
        self.AT = instance.to_scipy().T.tocsr()   # built once, for pricing
        self.b = instance.rhs
        self.art_rows = art_rows                  # rows carrying a -1 artificial
        self.n_art = art_rows.size
        self.n_total = self.n + self.m + self.n_art
        self.upper = np.concatenate([
            instance.upper,
            np.full(self.m, np.inf),
            np.full(self.n_art, np.inf),
        ])
        # 0 = nonbasic at lower, 1 = nonbasic at upper, 2 = basic
        self.status = np.zeros(self.n_total, dtype=np.int8)
        self.basis = np.empty(self.m, dtype=np.int64)
        self.binv = np.empty((self.m, self.m))   # explicit basis inverse
        self.updates = 0                          # rank-1 updates since refactorization

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        if j < self.n:
            return self.inst.column(j)
        if j < self.n + self.m:
            return np.array([j - self.n]), np.array([1.0])
        return np.array([self.art_rows[j - self.n - self.m]]), np.array([-1.0])

    def dense_column(self, j: int) -> np.ndarray:
        g = np.zeros(self.m)
        rows, vals = self.column(j)
        g[rows] = vals
        return g

    # -- factorization -----------------------------------------------------

    def refactorize(self):
        B = np.zeros((self.m, self.m))
        for pos, j in enumerate(self.basis):
            rows, vals = self.column(j)
            B[rows, pos] = vals
        # LAPACK's getrf as lu_factor calls it, minus lu_factor's warning on an
        # exactly singular B: the check below refuses that basis itself
        lu, piv, _ = _getrf(B)
        if np.min(np.abs(np.diag(lu))) < PIVOT_TOL * max(1.0, np.max(np.abs(B))):
            raise SingularBasisError("singular basis matrix")
        self.binv = sla.lu_solve((lu, piv), np.eye(self.m), check_finite=False)
        self.updates = 0

    def ftran(self, g: np.ndarray) -> np.ndarray:
        return self.binv @ g

    def btran(self, c: np.ndarray) -> np.ndarray:
        return c @ self.binv

    def update(self, r: int, w: np.ndarray) -> bool:
        """Replace basis position r, whose entering column has ftran w."""
        if abs(w[r]) < PIVOT_TOL:
            return False
        row = self.binv[r] / w[r]
        self.binv -= np.outer(w, row)
        self.binv[r] = row
        self.updates += 1
        return True

    # -- primal state --------------------------------------------------------

    def effective_rhs(self) -> np.ndarray:
        rhs = self.b.astype(np.float64).copy()
        for j in np.flatnonzero(self.status == 1):
            rows, vals = self.column(j)
            rhs[rows] -= vals * self.upper[j]
        return rhs

    def basic_values(self) -> np.ndarray:
        return self.ftran(self.effective_rhs())

    def reduced_costs(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = np.empty(self.n_total)
        z[:self.n] = cost[:self.n] - self.AT @ y
        z[self.n:self.n + self.m] = cost[self.n:self.n + self.m] - y
        if self.n_art:
            z[self.n + self.m:] = cost[self.n + self.m:] + y[self.art_rows]
        return z


def _pivot_loop(ws: _Workspace, cost: np.ndarray, x_b: np.ndarray,
                allow_entering: np.ndarray, max_iter: int,
                iteration_offset: int) -> tuple[str, np.ndarray, int]:
    """Run primal pivots until optimality/unboundedness/limit.

    Returns (reason, x_b, iterations_used); reason in {"optimal",
    "unbounded", "limit"}.
    """
    m = ws.m
    bland = False
    stall = 0
    iters = 0

    while True:
        if iteration_offset + iters >= max_iter:
            return "limit", x_b, iters
        y = ws.btran(cost[ws.basis])
        z = ws.reduced_costs(cost, y)
        at_lower = ws.status == 0
        at_upper = ws.status == 1
        movable = ws.upper > 0  # fixed columns (e.g. retired artificials) never enter
        eligible = allow_entering & movable & (
            (at_lower & (z > OPT_TOL)) | (at_upper & (z < -OPT_TOL))
        )
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return "optimal", x_b, iters
        if bland:
            q = int(idx[0])
        else:
            q = int(idx[np.argmax(np.abs(z[idx]))])

        from_lower = ws.status[q] == 0
        sign = 1.0 if from_lower else -1.0
        w = ws.ftran(ws.dense_column(q))

        # ratio test: x_b moves by -sign * t * w as the entering value moves t
        rate = sign * w
        ub_b = ws.upper[ws.basis]
        cand_t = np.full(m, np.inf)
        dec = rate > PIVOT_TOL
        inc = rate < -PIVOT_TOL
        cand_t[dec] = x_b[dec] / rate[dec]
        inc_finite = inc & np.isfinite(ub_b)
        cand_t[inc_finite] = (ub_b[inc_finite] - x_b[inc_finite]) / (-rate[inc_finite])
        np.maximum(cand_t, 0.0, out=cand_t)  # clamp fp dust on degenerate rows

        t_min = float(np.min(cand_t)) if m else np.inf
        t_self = float(ws.upper[q])
        if not np.isfinite(min(t_min, t_self)):
            return "unbounded", x_b, iters

        iters += 1
        if t_self <= t_min:
            # entering variable runs to its other bound: pure bound flip
            t = t_self
            ws.status[q] = 1 if from_lower else 0
            x_b = x_b - sign * t * w
        else:
            t = t_min
            ties = np.flatnonzero(cand_t == t_min)
            if bland and ties.size > 1:
                leave_pos = int(ties[np.argmin(ws.basis[ties])])
            else:
                leave_pos = int(ties[0])
            p = int(ws.basis[leave_pos])
            x_b = x_b - sign * t * w
            x_b[leave_pos] = t if from_lower else ws.upper[q] - t
            ws.status[p] = 1 if inc[leave_pos] else 0
            ws.status[q] = 2
            ws.basis[leave_pos] = q
            if not ws.update(leave_pos, w) or ws.updates >= REFACTOR_PERIOD:
                ws.refactorize()
                x_b = ws.basic_values()
        improvement = t * abs(z[q])

        if improvement <= 1e-12:
            stall += 1
            if stall >= STALL_WINDOW:
                bland = True
        else:
            stall = 0


def solve_lp(instance: LpInstance, warm_basis=None, max_iter: int | None = None,
             dense_limit: int = 2000) -> SimplexResult:
    """Exact bounded-variable simplex solve of an inequality-form LP.

    Parameters
    ----------
    instance : LpInstance
    warm_basis : optional
        Either a SimplexResult or a (basis, at_upper) pair of column-id
        collections from a previous solve over the same rows.  Used to seed
        the starting basis when it is nonsingular and still primal feasible;
        otherwise the solver starts cold.  The result's ``warm_started``
        says which happened.
    max_iter : optional iteration cap, default 50 * (m + n).
    dense_limit : guard on the dense basis dimension m.
    """
    m, n = instance.num_rows, instance.num_cols
    if m > dense_limit:
        raise ValueError(f"m={m} exceeds the dense-solver limit {dense_limit}")
    if max_iter is None:
        max_iter = 50 * (m + n)

    b = instance.rhs
    neg_rows = np.flatnonzero(b < 0)
    ws = _Workspace(instance, neg_rows)

    warm_ok = False
    if warm_basis is not None:
        basis, at_upper = _unpack_warm(warm_basis)
        warm_ok = _try_warm_start(ws, basis, at_upper)

    iterations = 0
    if not warm_ok:
        # all-slack start; artificials cover rows with negative rhs
        ws.status[:] = 0
        basis = np.arange(n, n + m, dtype=np.int64)
        art_ids = n + m + np.arange(ws.n_art)
        basis[neg_rows] = art_ids
        ws.basis = basis
        ws.status[basis] = 2
        try:
            ws.refactorize()
        except SingularBasisError:
            raise  # slack/artificial basis is diagonal; this cannot happen
        x_b = ws.basic_values()

        if ws.n_art:
            cost1 = np.zeros(ws.n_total)
            cost1[n + m:] = -1.0
            allow = np.ones(ws.n_total, dtype=bool)
            allow[n + m:] = False  # artificials may leave but never re-enter
            reason, x_b, used = _pivot_loop(ws, cost1, x_b, allow, max_iter, 0)
            iterations += used
            if reason == "limit":
                return SimplexResult(SolveStatus.ITERATION_LIMIT, None, None,
                                     float("nan"), frozenset(), iterations)
            if reason == "unbounded":  # phase-1 objective is bounded by zero
                raise SingularBasisError("phase 1 diverged; numerical breakdown")
            art_sum = float(np.sum(x_b[np.isin(ws.basis, n + m + np.arange(ws.n_art))]))
            phase1_obj = -art_sum
            if phase1_obj < -FEAS_TOL * (1.0 + float(np.abs(b).max())):
                return SimplexResult(SolveStatus.INFEASIBLE, None, None,
                                     float("nan"), frozenset(), iterations)
            ws.upper[n + m:] = 0.0  # retire artificials for phase 2
    else:
        x_b = ws.basic_values()

    cost2 = np.zeros(ws.n_total)
    cost2[:n] = instance.obj
    allow = np.ones(ws.n_total, dtype=bool)
    allow[n + m:] = False
    reason, x_b, used = _pivot_loop(ws, cost2, x_b, allow, max_iter, iterations)
    iterations += used

    if reason == "limit":
        return SimplexResult(SolveStatus.ITERATION_LIMIT, None, None,
                             float("nan"), frozenset(), iterations,
                             warm_started=warm_ok)
    if reason == "unbounded":
        return SimplexResult(SolveStatus.UNBOUNDED, None, None,
                             float("inf"), frozenset(), iterations,
                             warm_started=warm_ok)

    x_full = np.zeros(ws.n_total)
    up_ids = np.flatnonzero(ws.status == 1)
    x_full[up_ids] = ws.upper[up_ids]
    x_full[ws.basis] = x_b
    x = np.clip(x_full[:n], 0.0, instance.upper)
    y = ws.btran(cost2[ws.basis])
    return SimplexResult(
        status=SolveStatus.OPTIMAL,
        x_star=x,
        y_star=y,
        obj=float(instance.obj @ x),
        basis=frozenset(int(j) for j in ws.basis),
        iterations=iterations,
        at_upper=frozenset(int(j) for j in up_ids if j < n + m),
        warm_started=warm_ok,
    )


def _unpack_warm(warm) -> tuple[list[int], frozenset[int]]:
    if isinstance(warm, SimplexResult):
        return sorted(warm.basis), warm.at_upper
    if isinstance(warm, tuple) and len(warm) == 2:
        return sorted(warm[0]), frozenset(warm[1])
    return sorted(warm), frozenset()


def _try_warm_start(ws: _Workspace, basis, at_upper) -> bool:
    basis = np.asarray(list(basis), dtype=np.int64)
    if basis.size != ws.m or np.any(basis < 0) or np.any(basis >= ws.n + ws.m):
        return False
    ws.status[:] = 0
    in_basis = set(basis.tolist())
    for j in at_upper:
        if 0 <= j < ws.n + ws.m and np.isfinite(ws.upper[j]) and j not in in_basis:
            ws.status[j] = 1
    ws.basis = basis
    ws.status[basis] = 2
    try:
        ws.refactorize()
    except SingularBasisError:
        return False
    x_b = ws.basic_values()
    ub = ws.upper[basis]
    scale = 1.0 + float(np.abs(ws.b).max())
    if np.any(x_b < -FEAS_TOL * scale) or np.any(x_b > ub + FEAS_TOL * scale):
        return False
    return True


# -- brute-force oracle -------------------------------------------------------

def enumerate_vertices_oracle(instance: LpInstance, size_limit: int = 14,
                              tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Exhaustive vertex enumeration for desk-scale instances.

    Enumerates every candidate active set of {Ax <= b, 0 <= x <= u}: k rows
    tight plus n - k variables pinned to a box side, solving the resulting
    square systems (batched over pin patterns).  Returns the best feasible
    candidate.  Wholly independent of the simplex code path.
    """
    m, n = instance.num_rows, instance.num_cols
    if m + n > size_limit:
        raise ValueError(f"oracle limited to m + n <= {size_limit}")
    if not np.all(np.isfinite(instance.upper)):
        raise ValueError("oracle requires finite upper bounds")
    A = instance.to_dense()
    b, c, u = instance.rhs, instance.obj, instance.upper
    feas_scale = FEAS_TOL * (1.0 + float(np.abs(b).max()))

    best_val = -np.inf
    best_x = None
    cols = np.arange(n)
    for k in range(0, min(m, n) + 1):
        for rows_sel in itertools.combinations(range(m), k):
            R = np.array(rows_sel, dtype=np.int64)
            for free_sel in itertools.combinations(range(n), k):
                V = np.array(free_sel, dtype=np.int64)
                F = np.setdiff1d(cols, V)
                if F.size:
                    patterns = np.array(
                        list(itertools.product([0.0, 1.0], repeat=F.size))
                    ).T
                    X_F = patterns * u[F][:, None]
                else:
                    X_F = np.zeros((0, 1))
                P = X_F.shape[1]
                X = np.empty((n, P))
                X[F] = X_F
                if k:
                    A_RV = A[np.ix_(R, V)]
                    if np.linalg.matrix_rank(A_RV, tol=1e-10) < k:
                        continue
                    rhs = b[R][:, None] - (A[np.ix_(R, F)] @ X_F if F.size else 0.0)
                    X[V] = np.linalg.solve(A_RV, rhs)
                ok = np.all(X >= -tol, axis=0) & np.all(X <= u[:, None] + tol, axis=0)
                ok &= np.all(A @ X <= b[:, None] + feas_scale, axis=0)
                if not np.any(ok):
                    continue
                vals = c @ X[:, ok]
                j = int(np.argmax(vals))
                if vals[j] > best_val:
                    best_val = float(vals[j])
                    best_x = np.clip(X[:, np.flatnonzero(ok)[j]], 0.0, u)
    if best_x is None:
        raise ValueError("no feasible vertex candidate found")
    return best_val, best_x
