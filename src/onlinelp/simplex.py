"""Bounded-variable revised primal simplex plus a tiny-instance vertex oracle.

Solves  max <c, x>  s.t.  A x <= b,  0 <= x <= u  exactly by attaching slack
columns (A x + s = b, s >= 0) and pivoting with nonbasic-at-lower /
nonbasic-at-upper statuses.  The basis inverse is held explicitly as a dense
m x m matrix: formed from an LU factorization at each refactorization and
given a rank-1 row update at each pivot, so ftran and btran are one
matrix-vector product each.  Negative right-hand sides are handled by a
standard artificial-variable Phase 1.

Pricing is devex (Harris 1973, "Pivot selection methods of the Devex LP
code"; Forrest & Goldfarb 1992) over reduced costs d that each basis change
updates, with a Bland fallback once the objective stalls.  At each start
of the pivot loops (a phase's start, or the resumption after a
refactorization) one btran and one pricing sweep compute every d_j afresh
and every weight w_j is reset to 1.  The entering column is the eligible
one with the largest d_j^2 / w_j, the first of a tie; under Bland's rule
it is the first eligible one.  A basis change at row r with pivot alpha_rq
takes rho = B^-1[r] / alpha_rq, the new row r of B^-1 that the rank-1
update computes anyway, and sweeps once the columns that can enter:
beta_j = rho a_j, d_j -= d_q beta_j, w_j = max(w_j, beta_j^2 w_q), and
the next entering column is chosen in the same pass.  The leaving column
gets d_p = -d_q / alpha_rq and w_p = max(w_q / alpha_rq^2, 1); a bound
flip changes neither d nor w.  So a pivot needs no btran and no pricing
against y.  OPTIMAL is declared only on d priced afresh since the last
basis change (a bound flip changes neither B nor y): when an updated d
prices nothing, btran and the pricing sweep run again, and pivoting goes
on if a column is still eligible.  The iteration limit is tested only
after that, so a solve whose last allowed pivot reaches the optimum is
OPTIMAL.  The sweep after a pivot that makes a refactorization due is
skipped, since the resumption prices afresh.

The pivots run in the compiled kernel (``_kernel.c``, the library that also
holds the explicit pass; see ``_kernel``) when it is loaded, and otherwise
in ``_python_pivots``, its numpy reference.  Both take (ws, cost, limit)
and write in place the pivoting state the workspace owns: the basis, the
statuses, B^-1, the basic values ``x_b``, the state vector and d and w.
Only the columns below n + m can enter: the artificials may leave the
basis but never enter it.  The kernel does btran and pricing at its
start, then per pivot the ftran of the entering column, the bounded ratio
test with bound flips, the rank-1 update, the sweep of the pivot row and
the stall count.  It hands control back at each refactorization (every
REFACTOR_PERIOD updates, or a pivot below PIVOT_TOL): Python refactors
with LAPACK into the kept B^-1, recomputes ``x_b`` and resumes it.  It
also returns at optimality, unboundedness and the iteration limit; Phase
1, warm starts and the result stay in Python.  Both engines read the
columns of [A I -E] from one store, the workspace's compressed columns
(``ext_ptr``, ``ext_rows``, ``ext_vals``).  ``solve_lp(instance,
columns=c)`` solves the LP over the columns c of an instance alone
(``solve_lp(instance)`` takes c = 0..n-1): the workspace gathers their
entries, bounds and costs into that store by the one gather,
``model._gather``, that ``restrict_columns`` and ``_Workspace.entries``
use too, so the solve is that of the restricted instance bit for bit,
with no sub-instance built or checked, and its column ids are local to c.
Sifting solves each working problem so.  The workspace never rebinds its
arrays, so it checks and looks up their pointers for the kernel once
(``kernel_pointers``); each kernel call looks up only the cost's.  A
working problem's solve is short, so its start and its result call
ndarray methods (``a.nonzero()[0]``, ``a.cumsum()``) rather than numpy's
function wrappers, whose dispatch would show.  ``explicit_engine()`` in
``onlinelp.online`` names the engine of both.  Cold and warm starts
install their basis one way, ``_Workspace.start``; ``_warm_start`` keeps
a warm basis that is in range, nonsingular and primal feasible, and
refuses any other.

The two engines agree bit for bit under the contract stated in
``_kernel``; the reference fixes the order of each of its sums:

* btran adds c_k B^-1[k] over the basis positions k with c_k != 0, in
  order (``np.cumsum``, so starting from the first term);
* ftran adds a_rj B^-1[:, r] over the entering column's nonzeros in stored
  order, the same way;
* pricing sums each column's a_ij y_i, and the sweep each column's
  a_ij rho_i, in stored order, starting from 0.0, as the reference's
  scipy ``csr_matvec`` does with the store's column j as its row j; slack
  and artificial columns alike, so a slack's product is 0.0 + 1.0 y_i and an
  artificial's 0.0 + -1.0 y_i, which differ from y_i and -y_i only in
  the sign of a zero;
* the ratio test, the rank-1 update, the updates of d and w (d_j -
  d_q beta_j, with (beta_j beta_j) w_q) and the scores d_j d_j / w_j are
  elementwise, with ties broken by first position as ``np.argmax`` and
  ``np.argmin`` break them.

There is deliberately no sparse factorization: the basis is dense up to
m = DENSE_LIMIT, and sifting keeps it at m rows.  Sifting does not keep the
working problem small, though: on generated multi-knapsack instances at
m=300, n=3*10^4 (seeds 0 and 1) the final working set holds 4,195-4,606
columns, 14-15% of n, and a sift makes 4,314-4,448 pivots (7,810-9,326
with Dantzig pricing, to the same working sets);
``demos/06_scaling_against_highs.py`` prints them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import _kernel
from .model import LpInstance, _check_count, _gather

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
    """A refactorization found the basis matrix singular, or Phase 1
    diverged.  No retry is made; a singular warm-start basis is not
    raised, as the solve then starts cold."""


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

    def __init__(self, instance: LpInstance, art_rows: np.ndarray, columns=None):
        """The working problem over ``columns`` of ``instance`` (every column
        when None), in their order, with artificials on ``art_rows``."""
        if columns is None:
            columns = np.arange(instance.num_cols)
        columns, col_ptr, at = instance._gather_columns(columns)
        rows, vals = instance.row_idx[at], instance.values[at]
        self.obj, upper = instance.obj[columns], instance.upper[columns]
        self.m = instance.num_rows
        self.n = col_ptr.size - 1
        self.b = instance.rhs
        self.n_art = art_rows.size
        self.n_total = self.n + self.m + self.n_art
        n_extra = self.m + self.n_art
        self.upper = np.concatenate((upper, np.full(n_extra, np.inf)))
        # [A I -E] in compressed columns, one gather for any columns: their
        # entries, then slack i holds (i, 1.0) and the artificial of row
        # art_rows[k] holds (art_rows[k], -1.0).  The one column layout of
        # both pivot engines: ``entries``, ``products`` and the kernel read
        # it, so none of them has a slack or artificial case.  A copy of the
        # working columns, which sifting keeps small; a whole instance's
        # solve keeps 16 bytes per nonzero, and 24 more while it gathers.
        self.ext_ptr = np.concatenate((col_ptr, col_ptr[-1] + 1 + np.arange(n_extra)))
        self.ext_rows = np.concatenate((rows, np.arange(self.m), art_rows))
        self.ext_vals = np.concatenate((vals, np.ones(self.m), np.full(self.n_art, -1.0)))
        # 0 = nonbasic at lower, 1 = nonbasic at upper, 2 = basic
        self.status = np.zeros(self.n_total, dtype=np.int8)
        self.basis = np.empty(self.m, dtype=np.int64)
        self.binv = np.empty((self.m, self.m))   # explicit basis inverse, row-major
        self.x_b = np.empty(self.m)               # basic values
        # the pivot loops' state: iterations, stall count, Bland flag, and
        # rank-1 updates since the last refactorization
        self.state = np.zeros(4, dtype=np.int64)
        # the kernel's scratch (4 m), then the reduced costs d and the devex
        # weights w of every column, which the pivot loops keep here
        self.work = np.empty(4 * self.m + 2 * self.n_total)
        self.d = self.work[4 * self.m:4 * self.m + self.n_total]
        self.w = self.work[4 * self.m + self.n_total:]

    def entries(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, values, owner) of the nonzeros of columns ``cols`` of
        [A I -E], column by column in stored order; owner[e] is the place in
        ``cols`` of the column that entry e belongs to."""
        cols = np.asarray(cols, dtype=np.int64)
        ptr, at = _gather(self.ext_ptr, cols)
        owner = np.arange(cols.size).repeat(ptr[1:] - ptr[:-1])
        return self.ext_rows[at], self.ext_vals[at], owner

    # -- factorization -----------------------------------------------------

    def refactorize(self):
        B = np.zeros((self.m, self.m))
        rows, vals, pos = self.entries(self.basis)
        B[rows, pos] = vals
        # LAPACK's getrf and getri, without lu_factor's warning on an exactly
        # singular B: the check below refuses that basis itself
        lu, piv, _ = _getrf(B)
        if abs(lu.diagonal()).min() < PIVOT_TOL * max(1.0, abs(B).max()):
            raise SingularBasisError("singular basis matrix")
        self.binv[...] = _getri(lu, piv)[0]
        self.state[_UPDATES] = 0

    def ftran_column(self, j: int) -> np.ndarray:
        """B^-1 a_j, adding the terms of each row in the column's stored order."""
        lo, hi = self.ext_ptr[j], self.ext_ptr[j + 1]
        rows, vals = self.ext_rows[lo:hi], self.ext_vals[lo:hi]
        if rows.size == 0:
            return np.zeros(self.m)
        return np.cumsum(self.binv[:, rows] * vals, axis=1)[:, -1]

    def btran(self, c: np.ndarray) -> np.ndarray:
        """c B^-1, adding the terms of the nonzero costs in basis order."""
        k = c.nonzero()[0]
        if k.size == 0:
            return np.zeros(self.m)
        return (c[k, None] * self.binv[k]).cumsum(axis=0)[-1].copy()

    def update(self, r: int, w: np.ndarray) -> np.ndarray | None:
        """Replace basis position r, whose entering column has ftran w, and
        return the new row r of B^-1; None for a pivot too small to take."""
        if abs(w[r]) < PIVOT_TOL:
            return None
        row = self.binv[r] / w[r]
        self.binv -= np.outer(w, row)
        self.binv[r] = row
        return row

    # -- primal state --------------------------------------------------------

    def basic_values(self) -> None:
        """x_b = B^-1 (b - the columns at upper times their bounds)."""
        rhs = self.b.copy()
        up = (self.status == 1).nonzero()[0]
        if up.size:
            rows, vals, owner = self.entries(up)
            np.subtract.at(rhs, rows, vals * self.upper[up][owner])   # in column order
        np.matmul(self.binv, rhs, out=self.x_b)

    def start(self, basis: np.ndarray, at_upper: np.ndarray) -> None:
        """Install ``basis``, the columns ``at_upper`` (ids below n + m) at
        their upper bounds and the rest at lower; refactorize and compute
        the basic values.  Raises SingularBasisError."""
        self.status[:] = 0
        self.status[at_upper] = 1
        self.basis[:] = basis    # in place: the kernel's pointer to it stays valid
        self.status[basis] = 2   # after at_upper: a basic column is basic
        self.refactorize()
        self.basic_values()

    @functools.cached_property
    def _csr(self) -> sp.csr_array:
        """[A I -E] transposed, a CSR view of the store: row j is column j."""
        return sp.csr_array((self.ext_vals, self.ext_rows, self.ext_ptr),
                            shape=(self.n_total, self.m))

    def products(self, v: np.ndarray) -> np.ndarray:
        """v a_j for every column j of [A I -E], its terms added in stored
        order from 0.0, as scipy's ``csr_matvec`` adds them."""
        return self._csr @ v

    @functools.cached_property
    def kernel_pointers(self) -> tuple[int, ...]:
        """Pointers for the kernel to the arrays the workspace holds and never
        rebinds: [A I -E]'s ext_ptr, ext_rows and ext_vals, upper, status,
        basis, binv, x_b, work and state, in ``simplex_pivots``'s order.
        Checked and looked up on the first read, by ``_kernel.pointers``."""
        m, n_total = self.m, self.n_total
        nnz = int(self.ext_ptr[-1])   # the kernel reads entries 0 .. nnz - 1
        return tuple(_kernel.pointers(("ext_ptr", self.ext_ptr, np.int64, n_total + 1),
                                      ("ext_rows", self.ext_rows, np.int64, nnz),
                                      ("ext_vals", self.ext_vals, np.float64, nnz),
                                      ("upper", self.upper, np.float64, n_total),
                                      ("status", self.status, np.int8, n_total),
                                      ("basis", self.basis, np.int64, m),
                                      ("basis inverse", self.binv, np.float64, m * m),
                                      ("basic values", self.x_b, np.float64, m),
                                      ("work", self.work, np.float64, 4 * m + 2 * n_total),
                                      ("state", self.state, np.int64, 4)))


# the slots of the pivot loops' state vector, ``_Workspace.state``
_ITERS, _STALL, _BLAND, _UPDATES = range(4)
# the solve's status for each reason the pivot loops stop with
_STATUS = {_kernel.OPTIMAL: SolveStatus.OPTIMAL, _kernel.UNBOUNDED: SolveStatus.UNBOUNDED,
           _kernel.LIMIT: SolveStatus.ITERATION_LIMIT}


def _pivot_loop(ws: _Workspace, cost: np.ndarray, limit: int) -> tuple[int, int]:
    """Run primal pivots until optimality, unboundedness or ``limit`` pivots.

    Returns (reason, iterations); reason is one of the kernel's OPTIMAL,
    UNBOUNDED and LIMIT.  The pivots run in the compiled kernel when it is
    loaded and in ``_python_pivots``, its reference, otherwise; either
    hands back here for each refactorization.
    """
    pivots = _python_pivots if _kernel.load() is None else _compiled_pivots
    ws.state[:_UPDATES] = 0   # a phase's count; the rank-1 updates carry on
    while (reason := pivots(ws, cost, limit)) == _kernel.REFACTOR:
        ws.refactorize()
        ws.basic_values()
    return reason, int(ws.state[_ITERS])


def _python_pivots(ws: _Workspace, cost: np.ndarray, limit: int) -> int:
    """The pivots of ``_pivot_loop`` in numpy; the reference of the kernel.

    Pivots until optimal, unbounded, ``limit`` iterations, or a due
    refactorization (returned after the pivot that made it due).  Updates
    the workspace's pivoting state in place; the reduced costs ``ws.d`` and
    devex weights ``ws.w`` are priced afresh and reset at each entry.
    """
    m, n_enter = ws.m, ws.n + ws.m   # artificials may leave but never enter
    d, w, x_b, state = ws.d, ws.w, ws.x_b, ws.state
    w[:] = 1.0
    q, fresh = -1, False   # fresh: d priced afresh since the last basis change
    while True:
        if q < 0 and not fresh:
            d[:] = cost - ws.products(ws.btran(cost[ws.basis]))
            q, fresh = _entering(ws, state[_BLAND]), True
        # d is fresh here: an updated d that priced nothing was priced again
        if q < 0:
            return _kernel.OPTIMAL
        if state[_ITERS] >= limit:
            return _kernel.LIMIT

        from_lower = ws.status[q] == 0
        sign = 1.0 if from_lower else -1.0
        dq, wq = d[q], w[q]
        col = ws.ftran_column(q)

        # ratio test: x_b moves by -sign * t * col as the entering value moves t
        rate = sign * col
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
        p, row, refactor = -1, None, False
        if t_self <= t_min:
            # entering variable runs to its other bound: pure bound flip
            t = t_self
            ws.status[q] = 1 if from_lower else 0
            x_b -= (sign * t) * col
        else:
            t = t_min
            if state[_BLAND]:
                ties = np.flatnonzero(cand_t == t_min)
                leave_pos = int(ties[np.argmin(ws.basis[ties])])
            p = int(ws.basis[leave_pos])
            fresh = False   # B changes here; a bound flip keeps B, y and so a fresh d
            x_b -= (sign * t) * col
            x_b[leave_pos] = t if from_lower else ws.upper[q] - t
            ws.status[p] = 1 if rate[leave_pos] < -PIVOT_TOL else 0
            ws.status[q] = 2
            ws.basis[leave_pos] = q
            row = ws.update(leave_pos, col)
            if row is None:
                refactor = True
            else:
                state[_UPDATES] += 1
                refactor = state[_UPDATES] >= REFACTOR_PERIOD
                piv = col[leave_pos]
                d[p] = -dq / piv
                w[p] = max(wq / (piv * piv), 1.0)

        if t * abs(dq) <= 1e-12:
            state[_STALL] += 1
            if state[_STALL] >= STALL_WINDOW:
                state[_BLAND] = 1
        else:
            state[_STALL] = 0
        if refactor:
            return _kernel.REFACTOR
        if row is not None:
            # the sweep of the pivot row: beta_j = rho a_j for rho = row
            swept = ws.status != 2
            swept[p] = False
            swept[n_enter:] = False
            beta = ws.products(row)[swept]
            d[swept] = d[swept] - dq * beta
            w[swept] = np.maximum(w[swept], beta * beta * wq)
        q = _entering(ws, state[_BLAND])


def _entering(ws: _Workspace, bland) -> int:
    """The eligible column below n + m with the largest d_j^2 / w_j (the
    first of a tie), or the first under Bland's rule; -1 when none is
    eligible."""
    n_enter = ws.n + ws.m
    d, status = ws.d[:n_enter], ws.status[:n_enter]
    idx = np.flatnonzero(((status == 0) & (d > OPT_TOL)) | ((status == 1) & (d < -OPT_TOL)))
    if idx.size == 0:
        return -1
    if bland:
        return int(idx[0])
    dj = d[idx]
    return int(idx[np.argmax(dj * dj / ws.w[idx])])


def _compiled_pivots(ws: _Workspace, cost: np.ndarray, limit: int) -> int:
    """``_python_pivots`` in the compiled kernel, which writes in place
    through the workspace's pointers.  Raises ValueError for an array the
    kernel would read or write out of bounds or misread."""
    (cost_p,) = _kernel.pointers(("cost", cost, np.float64, ws.n_total))
    return _kernel.load().simplex_pivots(
        ws.m, ws.n_total, ws.n + ws.m, cost_p, *ws.kernel_pointers, limit,
        OPT_TOL, PIVOT_TOL, REFACTOR_PERIOD, STALL_WINDOW)


def solve_lp(instance: LpInstance, warm_basis=None, max_iter: int | None = None,
             columns=None) -> SimplexResult:
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
    max_iter : optional iteration cap, a nonnegative int, default 50 * (m + n).
        A solve that reaches optimality in exactly ``max_iter`` pivots is
        OPTIMAL.
    columns : optional
        A 1-d integer array of column ids: solve the LP over these columns
        of ``instance`` alone, in their order, as
        ``solve_lp(instance.restrict_columns(columns), ...)`` would, bit for
        bit, but with no sub-instance built.  Column ids in ``warm_basis``
        and in the result are then local to ``columns`` (structural k <
        len(columns) stands for column ``columns[k]``, slack len(columns) +
        i), and n in the default ``max_iter`` is len(columns).

    Raises ValueError when m exceeds DENSE_LIMIT, for a ``max_iter`` that
    is not a nonnegative integer, and for ``columns`` that is not a
    nonempty 1-d array of integer ids in [0, n).
    """
    m = instance.num_rows
    if m > DENSE_LIMIT:
        raise ValueError(f"m={m} exceeds the dense-solver limit {DENSE_LIMIT}")
    if max_iter is not None:
        _check_count("max_iter", max_iter, 0)
    b = instance.rhs
    neg_rows = (b < 0).nonzero()[0]
    ws = _Workspace(instance, neg_rows, columns)
    n = ws.n
    if max_iter is None:
        max_iter = 50 * (m + n)
    warm_ok = warm_basis is not None and _warm_start(ws, warm_basis)

    iterations, status = 0, SolveStatus.OPTIMAL
    if not warm_ok:
        # all-slack start; artificials cover rows with negative rhs
        basis = np.arange(n, n + m, dtype=np.int64)
        basis[neg_rows] = n + m + np.arange(ws.n_art)
        # a slack/artificial basis is diagonal, never singular
        ws.start(basis, np.empty(0, dtype=np.int64))
        if ws.n_art:
            cost1 = np.zeros(ws.n_total)
            cost1[n + m:] = -1.0
            reason, iterations = _pivot_loop(ws, cost1, max_iter)
            if reason == _kernel.UNBOUNDED:  # phase-1 objective is bounded by zero
                raise SingularBasisError("phase 1 diverged; numerical breakdown")
            phase1_obj = -float(np.sum(ws.x_b[ws.basis >= n + m]))
            if reason == _kernel.LIMIT:
                status = SolveStatus.ITERATION_LIMIT
            elif phase1_obj < -FEAS_TOL * (1.0 + float(np.abs(b).max())):
                status = SolveStatus.INFEASIBLE
            ws.upper[n + m:] = 0.0  # retire artificials for phase 2

    cost2 = np.zeros(ws.n_total)
    cost2[:n] = ws.obj
    if status is SolveStatus.OPTIMAL:
        reason, used = _pivot_loop(ws, cost2, max_iter - iterations)
        iterations += used
        status = _STATUS[reason]
    if status is not SolveStatus.OPTIMAL:
        obj = float("inf") if status is SolveStatus.UNBOUNDED else float("nan")
        return SimplexResult(status, None, None, obj, frozenset(), iterations,
                             warm_started=warm_ok)

    x_full = np.zeros(ws.n_total)
    up_ids = (ws.status == 1).nonzero()[0]
    x_full[up_ids] = ws.upper[up_ids]
    x_full[ws.basis] = ws.x_b
    x = x_full[:n].clip(0.0, ws.upper[:n])
    return SimplexResult(status, x, ws.btran(cost2[ws.basis]), float(ws.obj @ x),
                         frozenset(ws.basis.tolist()), iterations,
                         frozenset(up_ids[up_ids < n + m].tolist()), warm_ok)


def _warm_start(ws: _Workspace, warm) -> bool:
    """Start ``ws`` from a warm basis; False when the basis is out of range,
    singular or not primal feasible."""
    if isinstance(warm, SimplexResult):
        basis, at_upper = warm.basis, warm.at_upper
    elif isinstance(warm, tuple) and len(warm) == 2:
        basis, at_upper = warm
    else:
        raise TypeError("warm_basis must be a SimplexResult or a (basis, at_upper) pair")
    basis = np.fromiter(basis, dtype=np.int64)
    basis.sort()
    if basis.size != ws.m or basis[0] < 0 or basis[-1] >= ws.n + ws.m:   # sorted
        return False
    up = np.fromiter(at_upper, dtype=np.int64)
    up = up[(up >= 0) & (up < ws.n + ws.m)]
    try:
        ws.start(basis, up[np.isfinite(ws.upper[up])])
    except SingularBasisError:
        return False
    scale = 1.0 + float(abs(ws.b).max())
    x_b = ws.x_b
    return not ((x_b < -FEAS_TOL * scale).any()
                or (x_b > ws.upper[basis] + FEAS_TOL * scale).any())


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
