"""Bounded-variable revised primal simplex plus a tiny-instance vertex oracle.

Solves  max <c, x>  s.t.  A x <= b,  0 <= x <= u  exactly by attaching slack
columns (A x + s = b, s >= 0) and pivoting with nonbasic-at-lower /
nonbasic-at-upper statuses.  The basis inverse is held explicitly as a dense
m x m matrix: formed from an LU factorization at each refactorization and
given a rank-1 row update at each pivot, so ftran and btran are one
matrix-vector product each.  Pricing is Dantzig with a Bland fallback once
the objective stalls.  Negative right-hand sides are handled by a standard
artificial-variable Phase 1.

The pivots run in the compiled kernel (``_kernel.c``, the library that also
holds the explicit pass; see ``_kernel``) when it is loaded, and otherwise
in ``_python_pivots``, its numpy reference.  The kernel does btran,
pricing over the slack-extended columns straight from the CSC arrays,
ftran of the entering column, the bounded ratio test with bound flips, the
rank-1 update and the stall count.  It hands control back at each
refactorization (every REFACTOR_PERIOD updates, or a pivot below
PIVOT_TOL): Python refactors with LAPACK, recomputes the basic values and
resumes it.  It also returns at optimality, unboundedness and the
iteration limit; Phase 1, warm starts and the result stay in Python.
``explicit_engine()`` in ``onlinelp.online`` names the engine of both.
Cold and warm starts install their basis one way, ``_Workspace.start``;
``_warm_start`` hands on the basic values of a warm basis that is in
range, nonsingular and primal feasible, and refuses any other.

The two engines agree bit for bit under the contract stated in
``_kernel``; the reference fixes the order of each of its sums:

* btran adds c_k B^-1[k] over the basis positions k with c_k != 0, in
  order (``np.cumsum``, so starting from the first term);
* ftran adds a_rj B^-1[:, r] over the entering column's nonzeros in stored
  order, the same way;
* pricing sums each column's a_ij y_i in stored order, starting from 0.0;
* the ratio test and the rank-1 update are elementwise, with ties broken
  by first position as ``np.argmax`` and ``np.argmin`` break them.

Working problems produced by sifting are small by construction, so there is
deliberately no sparse factorization machinery here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla

from . import _kernel
from .model import LpInstance

_getrf, _getri = sla.get_lapack_funcs(("getrf", "getri"), (np.zeros((1, 1)),))

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
DENSE_LIMIT = 2000   # largest m whose dense m x m basis inverse is formed
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
        self.binv = np.empty((self.m, self.m))   # explicit basis inverse, row-major
        self.updates = 0                          # rank-1 updates since refactorization
        self.work = np.empty(4 * self.m)          # the kernel's scratch

    def entries(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, values, owner) of the nonzeros of columns ``cols`` of
        [A I -E], column by column in stored order; owner[e] is the place in
        ``cols`` of the column that entry e belongs to."""
        cols = np.asarray(cols, dtype=np.int64)
        cp = self.inst.col_ptr
        struct_id = np.minimum(cols, self.n - 1)   # a stand-in for slacks, artificials
        starts = cp[struct_id]
        counts = np.where(cols < self.n, cp[struct_id + 1] - starts, 1)
        owner = np.repeat(np.arange(cols.size), counts)
        first = np.cumsum(counts) - counts
        at = np.repeat(starts - first, counts) + np.arange(owner.size)
        rows = np.empty(owner.size, dtype=np.int64)
        vals = np.empty(owner.size)
        own = cols[owner]
        struct = own < self.n
        rows[struct] = self.inst.row_idx[at[struct]]
        vals[struct] = self.inst.values[at[struct]]
        slack = ~struct & (own < self.n + self.m)
        rows[slack] = own[slack] - self.n
        vals[slack] = 1.0
        art = own >= self.n + self.m
        rows[art] = self.art_rows[own[art] - self.n - self.m]
        vals[art] = -1.0
        return rows, vals, owner

    # -- factorization -----------------------------------------------------

    def refactorize(self):
        B = np.zeros((self.m, self.m))
        rows, vals, pos = self.entries(self.basis)
        B[rows, pos] = vals
        # LAPACK's getrf and getri, without lu_factor's warning on an exactly
        # singular B: the check below refuses that basis itself
        lu, piv, _ = _getrf(B)
        if np.min(np.abs(np.diag(lu))) < PIVOT_TOL * max(1.0, np.max(np.abs(B))):
            raise SingularBasisError("singular basis matrix")
        self.binv = np.ascontiguousarray(_getri(lu, piv)[0])
        self.updates = 0

    def ftran(self, g: np.ndarray) -> np.ndarray:
        return self.binv @ g

    def ftran_column(self, j: int) -> np.ndarray:
        """B^-1 a_j, adding the terms of each row in the column's stored order."""
        rows, vals, _ = self.entries([j])
        if rows.size == 0:
            return np.zeros(self.m)
        return np.cumsum(self.binv[:, rows] * vals, axis=1)[:, -1]

    def btran(self, c: np.ndarray) -> np.ndarray:
        """c B^-1, adding the terms of the nonzero costs in basis order."""
        k = np.flatnonzero(c)
        if k.size == 0:
            return np.zeros(self.m)
        return np.cumsum(c[k, None] * self.binv[k], axis=0)[-1].copy()

    def update(self, r: int, w: np.ndarray) -> bool:
        """Replace basis position r, whose entering column has ftran w."""
        if abs(w[r]) < PIVOT_TOL:
            return False
        row = self.binv[r] / w[r]
        self.binv -= np.outer(w, row)
        self.binv[r] = row
        return True

    # -- primal state --------------------------------------------------------

    def effective_rhs(self) -> np.ndarray:
        rhs = self.b.astype(np.float64)
        up = np.flatnonzero(self.status == 1)
        rows, vals, owner = self.entries(up)
        np.subtract.at(rhs, rows, vals * self.upper[up][owner])   # in column order
        return rhs

    def basic_values(self) -> np.ndarray:
        return self.ftran(self.effective_rhs())

    def start(self, basis: np.ndarray, at_upper: np.ndarray) -> np.ndarray:
        """Install ``basis``, the columns ``at_upper`` (ids below n + m) at
        their upper bounds and the rest at lower; refactorize and return the
        basic values.  Raises SingularBasisError."""
        self.status[:] = 0
        self.status[at_upper] = 1
        self.basis = basis
        self.status[basis] = 2   # after at_upper: a basic column is basic
        self.refactorize()
        return self.basic_values()

    @functools.cached_property
    def _by_place(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The structural nonzeros grouped by their place in their column.

        Group p holds (columns, rows, values) of the (p+1)-th nonzero of
        every column that has one, so adding the groups in order sums each
        column in its stored order.
        """
        cp = self.inst.col_ptr
        col = np.repeat(np.arange(self.n), np.diff(cp))
        place = np.arange(cp[-1]) - cp[col]
        order = np.argsort(place, kind="stable")
        groups = np.split(order, np.cumsum(np.bincount(place))[:-1]) if place.size else []
        return [(col[g], self.inst.row_idx[g], self.inst.values[g]) for g in groups]

    def reduced_costs(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        dot = np.zeros(self.n)
        for cols, rows, vals in self._by_place:
            dot[cols] += vals * y[rows]
        z = np.empty(self.n_total)
        z[:self.n] = cost[:self.n] - dot
        z[self.n:self.n + self.m] = cost[self.n:self.n + self.m] - y
        if self.n_art:
            z[self.n + self.m:] = cost[self.n + self.m:] + y[self.art_rows]
        return z


# the pivot loops' state vector: iterations, stall count, Bland flag, and
# rank-1 updates since the last refactorization
_ITERS, _STALL, _BLAND, _UPDATES = range(4)
# the solve's status for each reason the pivot loops stop with
_STATUS = {_kernel.OPTIMAL: SolveStatus.OPTIMAL, _kernel.UNBOUNDED: SolveStatus.UNBOUNDED,
           _kernel.LIMIT: SolveStatus.ITERATION_LIMIT}


def _pivot_loop(ws: _Workspace, cost: np.ndarray, x_b: np.ndarray,
                allow_entering: np.ndarray, max_iter: int,
                iteration_offset: int) -> tuple[int, np.ndarray, int]:
    """Run primal pivots until optimality/unboundedness/limit.

    Returns (reason, x_b, iterations_used); reason is one of the kernel's
    OPTIMAL, UNBOUNDED and LIMIT.  The pivots run in the compiled kernel
    when it is loaded and in ``_python_pivots``, its reference, otherwise;
    either hands back here for each refactorization.
    """
    pivots = _python_pivots if _kernel.load() is None else _compiled_pivots
    state = np.zeros(4, dtype=np.int64)
    while True:
        state[_UPDATES] = ws.updates
        reason = pivots(ws, cost, x_b, allow_entering, max_iter - iteration_offset, state)
        ws.updates = int(state[_UPDATES])
        if reason != _kernel.REFACTOR:
            return reason, x_b, int(state[_ITERS])
        ws.refactorize()
        x_b = ws.basic_values()


def _python_pivots(ws: _Workspace, cost: np.ndarray, x_b: np.ndarray,
                   allow: np.ndarray, limit: int, state: np.ndarray) -> int:
    """The pivots of ``_pivot_loop`` in numpy; the reference of the kernel.

    Pivots until optimal, unbounded, ``limit`` iterations, or a due
    refactorization (returned after the pivot that made it due).  Updates
    ``ws``, ``x_b`` and ``state`` in place.
    """
    m = ws.m
    while True:
        if state[_ITERS] >= limit:
            return _kernel.LIMIT
        y = ws.btran(cost[ws.basis])
        z = ws.reduced_costs(cost, y)
        movable = ws.upper > 0  # fixed columns (e.g. retired artificials) never enter
        eligible = allow & movable & (
            ((ws.status == 0) & (z > OPT_TOL)) | ((ws.status == 1) & (z < -OPT_TOL))
        )
        idx = np.flatnonzero(eligible)
        if idx.size == 0:
            return _kernel.OPTIMAL
        if state[_BLAND]:
            q = int(idx[0])
        else:
            q = int(idx[np.argmax(np.abs(z[idx]))])

        from_lower = ws.status[q] == 0
        sign = 1.0 if from_lower else -1.0
        w = ws.ftran_column(q)

        # ratio test: x_b moves by -sign * t * w as the entering value moves t
        rate = sign * w
        ub_b = ws.upper[ws.basis]
        cand_t = np.full(m, np.inf)
        dec = rate > PIVOT_TOL
        inc = (rate < -PIVOT_TOL) & np.isfinite(ub_b)
        cand_t[dec] = x_b[dec] / rate[dec]
        cand_t[inc] = (ub_b[inc] - x_b[inc]) / -rate[inc]
        cand_t[cand_t < 0.0] = 0.0  # clamp fp dust on degenerate rows
        leave_pos = int(np.argmin(cand_t))
        t_min = float(cand_t[leave_pos])
        t_self = float(ws.upper[q])
        if not (np.isfinite(t_min) or np.isfinite(t_self)):
            return _kernel.UNBOUNDED

        state[_ITERS] += 1
        refactor = False
        if t_self <= t_min:
            # entering variable runs to its other bound: pure bound flip
            t = t_self
            ws.status[q] = 1 if from_lower else 0
            x_b -= (sign * t) * w
        else:
            t = t_min
            if state[_BLAND]:
                ties = np.flatnonzero(cand_t == t_min)
                leave_pos = int(ties[np.argmin(ws.basis[ties])])
            p = int(ws.basis[leave_pos])
            x_b -= (sign * t) * w
            x_b[leave_pos] = t if from_lower else ws.upper[q] - t
            ws.status[p] = 1 if rate[leave_pos] < -PIVOT_TOL else 0
            ws.status[q] = 2
            ws.basis[leave_pos] = q
            if ws.update(leave_pos, w):
                state[_UPDATES] += 1
                refactor = state[_UPDATES] >= REFACTOR_PERIOD
            else:
                refactor = True

        if t * abs(z[q]) <= 1e-12:
            state[_STALL] += 1
            if state[_STALL] >= STALL_WINDOW:
                state[_BLAND] = 1
        else:
            state[_STALL] = 0
        if refactor:
            return _kernel.REFACTOR


def _compiled_pivots(ws: _Workspace, cost: np.ndarray, x_b: np.ndarray,
                     allow: np.ndarray, limit: int, state: np.ndarray) -> int:
    """``_python_pivots`` in the compiled kernel, which writes in place
    through the pointers of the same arrays."""
    inst = ws.inst
    return _kernel.load().simplex_pivots(
        ws.m, ws.n, ws.n_art, inst.col_ptr.ctypes.data, inst.row_idx.ctypes.data,
        inst.values.ctypes.data, ws.art_rows.ctypes.data, cost.ctypes.data,
        allow.ctypes.data, ws.upper.ctypes.data, ws.status.ctypes.data,
        ws.basis.ctypes.data, ws.binv.ctypes.data, x_b.ctypes.data, ws.work.ctypes.data,
        limit, state.ctypes.data, OPT_TOL, PIVOT_TOL, REFACTOR_PERIOD, STALL_WINDOW)


def solve_lp(instance: LpInstance, warm_basis=None,
             max_iter: int | None = None) -> SimplexResult:
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

    Raises ValueError when m exceeds DENSE_LIMIT.
    """
    m, n = instance.num_rows, instance.num_cols
    if m > DENSE_LIMIT:
        raise ValueError(f"m={m} exceeds the dense-solver limit {DENSE_LIMIT}")
    if max_iter is None:
        max_iter = 50 * (m + n)

    b = instance.rhs
    neg_rows = np.flatnonzero(b < 0)
    ws = _Workspace(instance, neg_rows)
    x_b = None if warm_basis is None else _warm_start(ws, warm_basis)
    warm_ok = x_b is not None
    allow = np.ones(ws.n_total, dtype=bool)
    allow[n + m:] = False  # artificials may leave but never re-enter

    iterations, status = 0, SolveStatus.OPTIMAL
    if not warm_ok:
        # all-slack start; artificials cover rows with negative rhs
        basis = np.arange(n, n + m, dtype=np.int64)
        basis[neg_rows] = n + m + np.arange(ws.n_art)
        # a slack/artificial basis is diagonal, never singular
        x_b = ws.start(basis, np.empty(0, dtype=np.int64))
        if ws.n_art:
            cost1 = np.zeros(ws.n_total)
            cost1[n + m:] = -1.0
            reason, x_b, iterations = _pivot_loop(ws, cost1, x_b, allow, max_iter, 0)
            if reason == _kernel.UNBOUNDED:  # phase-1 objective is bounded by zero
                raise SingularBasisError("phase 1 diverged; numerical breakdown")
            phase1_obj = -float(np.sum(x_b[ws.basis >= n + m]))
            if reason == _kernel.LIMIT:
                status = SolveStatus.ITERATION_LIMIT
            elif phase1_obj < -FEAS_TOL * (1.0 + float(np.abs(b).max())):
                status = SolveStatus.INFEASIBLE
            ws.upper[n + m:] = 0.0  # retire artificials for phase 2

    cost2 = np.zeros(ws.n_total)
    cost2[:n] = instance.obj
    if status is SolveStatus.OPTIMAL:
        reason, x_b, used = _pivot_loop(ws, cost2, x_b, allow, max_iter, iterations)
        iterations += used
        status = _STATUS[reason]
    if status is not SolveStatus.OPTIMAL:
        obj = float("inf") if status is SolveStatus.UNBOUNDED else float("nan")
        return SimplexResult(status, None, None, obj, frozenset(), iterations,
                             warm_started=warm_ok)

    x_full = np.zeros(ws.n_total)
    up_ids = np.flatnonzero(ws.status == 1)
    x_full[up_ids] = ws.upper[up_ids]
    x_full[ws.basis] = x_b
    x = np.clip(x_full[:n], 0.0, instance.upper)
    return SimplexResult(status, x, ws.btran(cost2[ws.basis]), float(instance.obj @ x),
                         frozenset(int(j) for j in ws.basis), iterations,
                         frozenset(int(j) for j in up_ids if j < n + m), warm_ok)


def _warm_start(ws: _Workspace, warm) -> np.ndarray | None:
    """Start ``ws`` from a warm basis and return its basic values, or None
    when the basis is out of range, singular or not primal feasible."""
    if isinstance(warm, SimplexResult):
        basis, at_upper = warm.basis, warm.at_upper
    elif isinstance(warm, tuple) and len(warm) == 2:
        basis, at_upper = warm
    else:
        raise TypeError("warm_basis must be a SimplexResult or a (basis, at_upper) pair")
    basis = np.sort(np.fromiter(basis, dtype=np.int64))
    if basis.size != ws.m or np.any(basis < 0) or np.any(basis >= ws.n + ws.m):
        return None
    up = np.fromiter(at_upper, dtype=np.int64)
    up = up[(up >= 0) & (up < ws.n + ws.m)]
    try:
        x_b = ws.start(basis, up[np.isfinite(ws.upper[up])])
    except SingularBasisError:
        return None
    scale = 1.0 + float(np.abs(ws.b).max())
    if np.any(x_b < -FEAS_TOL * scale) or np.any(x_b > ws.upper[basis] + FEAS_TOL * scale):
        return None
    return x_b


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
