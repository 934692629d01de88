"""Sparse LP data model, instance statistics and solution-quality metrics.

The package works on inequality-form linear programs

    max  <c, x>   subject to   A x <= b,   0 <= x <= u,

with the constraint matrix held in compressed sparse-column form so that
single columns can be visited in time proportional to their nonzero count.
All metric functions here are pure.  The one thing an instance caches is
its scipy matrix (``to_scipy``), which is read-only like the instance.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LpInstance",
    "InstanceStats",
    "Metrics",
    "compute_stats",
    "constraint_violation",
    "optimality_gap",
    "relative_optimality",
    "dual_objective",
    "stopping_residual",
    "evaluate_solution",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class LpInstance:
    """Immutable inequality-form LP: max <c,x> s.t. Ax <= b, 0 <= x <= u.

    A is stored column-major: column j owns the slice
    ``row_idx[col_ptr[j]:col_ptr[j+1]]`` / ``values[...]`` with strictly
    increasing row indices and no explicit zeros.  Instances are safe to
    share across threads/processes; the backing arrays are read-only.
    Construction copies no array that is already contiguous and of the
    field's dtype (int64 for ``col_ptr`` and ``row_idx``, float64 for the
    rest): the instance holds the caller's array and makes it read-only in
    place.  Other inputs (lists, other dtypes, strided views) are
    converted, and the caller's objects are left as they were.
    ``==`` and ``hash`` go by identity, so instances serve as dict keys;
    to compare two instances by value, compare their arrays.
    """

    num_rows: int
    num_cols: int
    col_ptr: np.ndarray
    row_idx: np.ndarray
    values: np.ndarray
    rhs: np.ndarray
    obj: np.ndarray
    upper: np.ndarray
    meta: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        m, n = int(self.num_rows), int(self.num_cols)
        if m < 1 or n < 1:
            raise ValueError(f"degenerate instance: m={m}, n={n}")
        object.__setattr__(self, "num_rows", m)
        object.__setattr__(self, "num_cols", n)
        cp = np.asarray(self.col_ptr, dtype=np.int64)
        ri = np.asarray(self.row_idx, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        rhs = np.asarray(self.rhs, dtype=np.float64)
        obj = np.asarray(self.obj, dtype=np.float64)
        upper = np.asarray(self.upper, dtype=np.float64)

        if cp.shape != (n + 1,):
            raise ValueError(f"col_ptr must have length n+1={n + 1}, got {cp.shape}")
        if cp[0] != 0 or cp[-1] != ri.size or np.any(np.diff(cp) < 0):
            raise ValueError("col_ptr must be nondecreasing with col_ptr[0]=0, col_ptr[n]=nnz")
        if ri.shape != vals.shape:
            raise ValueError("row_idx and values must have equal length")
        if ri.size and (ri.min() < 0 or ri.max() >= m):
            raise ValueError("row indices out of range")
        # strictly increasing rows within each column, not across a column start
        if ri.size > 1:
            bad = np.diff(ri) <= 0
            starts = cp[1:-1]
            bad[starts[(starts > 0) & (starts < ri.size)] - 1] = False
            if np.any(bad):
                raise ValueError("row indices must be strictly increasing within a column")
        if np.any(vals == 0.0):
            raise ValueError("explicit zeros are not allowed; drop them before construction")
        if rhs.shape != (m,):
            raise ValueError(f"rhs must have shape ({m},)")
        if obj.shape != (n,) or upper.shape != (n,):
            raise ValueError(f"obj and upper must have shape ({n},)")
        if not np.all(upper > 0):
            raise ValueError("upper bounds must be strictly positive")
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(obj)) and np.all(np.isfinite(vals))):
            raise ValueError("matrix, rhs and objective entries must be finite")

        object.__setattr__(self, "col_ptr", _freeze(cp))
        object.__setattr__(self, "row_idx", _freeze(ri))
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "rhs", _freeze(rhs))
        object.__setattr__(self, "obj", _freeze(obj))
        object.__setattr__(self, "upper", _freeze(upper))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, A, b, c, upper=None, meta=None) -> "LpInstance":
        """Build an instance from a dense (m, n) matrix, dropping zeros."""
        return cls.from_scipy(np.atleast_2d(np.asarray(A, dtype=np.float64)), b, c,
                              upper, meta)

    @classmethod
    def from_scipy(cls, A, b, c, upper=None, meta=None) -> "LpInstance":
        """Build an instance from any scipy sparse matrix (or a dense 2-d
        array): indices sorted, duplicates summed, zeros dropped.  ``A``
        itself is left as it is."""
        M = sp.csc_matrix(A, copy=True)
        M.sort_indices()
        M.sum_duplicates()
        M.eliminate_zeros()
        m, n = M.shape
        if upper is None:
            upper = np.ones(n)
        return cls(m, n, M.indptr.astype(np.int64), M.indices.astype(np.int64),
                   M.data, b, c, upper, meta=meta)

    # -- accessors ---------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column j (views, zero-copy)."""
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def to_scipy(self) -> sp.csc_matrix:
        """Scipy CSC form of A, built on the first call and kept; every call
        returns the same matrix, whose arrays are read-only."""
        return self._csc

    @functools.cached_property
    def _csc(self) -> sp.csc_matrix:
        A = sp.csc_matrix((self.values, self.row_idx, self.col_ptr),
                          shape=(self.num_rows, self.num_cols))
        for a in (A.data, A.indices, A.indptr):
            a.flags.writeable = False
        return A

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def restrict_columns(self, cols: np.ndarray, meta=None) -> "LpInstance":
        """Sub-instance over the given column ids (order preserved)."""
        cols = np.asarray(cols, dtype=np.int64)
        starts = self.col_ptr[cols]
        counts = self.col_ptr[cols + 1] - starts
        cp = np.zeros(cols.size + 1, dtype=np.int64)
        np.cumsum(counts, out=cp[1:])
        # entry p of the new column k sits at starts[k] + (p - cp[k]) in the old arrays
        gather = np.repeat(starts - cp[:-1], counts) + np.arange(cp[-1])
        return LpInstance(self.num_rows, cols.size, cp, self.row_idx[gather], self.values[gather],
                          self.rhs, self.obj[cols], self.upper[cols], meta=meta)


class _Deferred:
    """A dataclass field, default None, whose value may be given as a
    zero-argument callable: the first read calls it and keeps the result."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class InstanceStats:
    """Single-pass data summaries used by stepsize rules and dual bounds.

    ``f_bar`` bounds the optimum of the finite-sum dual of the online pass,
    F(y) = <d, y> + (1/n) sum_j [c_j - <a_j, y>]_+ over y >= 0, from above;
    None stands for the trivial bound F(0) <= c_bar.  It may be given as a
    zero-argument callable, which is called on the first read of ``f_bar``
    and replaced by its result.
    """

    a_bar: float      # max_j ||a_j||_inf
    c_bar: float      # max_j |c_j|
    d_lo: float       # min_i b_i / n
    d_hi: float       # max_i b_i / n
    nnz: int
    assumptions_ok: bool
    f_bar: float | None = _Deferred()   # min_{eta >= 0} F(eta * 1) >= min_y F(y)


def _uniform_dual_value(instance: LpInstance) -> float:
    """Least value of the pass dual F on the ray of uniform duals eta * 1.

    Along the ray F(eta) = eta * sum(d) + (1/n) sum_j [c_j - eta * s_j]_+,
    with s_j the column sums of A, is convex and piecewise linear with kinks
    at eta = c_j / s_j, so its minimum over eta >= 0 sits at 0 or at the
    first kink where the right slope turns nonnegative.  Every point of the
    ray is dual feasible, so the value bounds min_y F(y) = OPT / n from
    above (for the unit box the passes work in).
    """
    n = instance.num_cols
    c = instance.obj
    d_sum = float(np.sum(instance.rhs / n))
    s = np.bincount(np.repeat(np.arange(n), np.diff(instance.col_ptr)),
                    weights=instance.values, minlength=n)
    nz = s != 0.0
    ratio, weight = c[nz] / s[nz], s[nz]
    kinks = np.unique(np.concatenate(([0.0], ratio[ratio > 0.0])))
    order = np.argsort(ratio, kind="stable")
    ratio, weight = ratio[order], weight[order]
    # just right of a kink e, the hinge of column j is positive when
    # s_j > 0 and c_j / s_j > e, or when s_j < 0 and c_j / s_j <= e
    pos_suffix = np.append(np.cumsum(np.where(weight > 0, weight, 0.0)[::-1])[::-1], 0.0)
    neg_prefix = np.append(0.0, np.cumsum(np.where(weight < 0, weight, 0.0)))
    split = np.searchsorted(ratio, kinks, side="right")
    slope = d_sum - (pos_suffix[split] + neg_prefix[split]) / n
    eta = float(kinks[np.argmax(slope >= 0.0)])
    return eta * d_sum + float(np.sum(np.maximum(c - eta * s, 0.0))) / n


def compute_stats(instance: LpInstance) -> InstanceStats:
    """Exact maxima/minima of the instance data in one sparse traversal,
    plus the uniform-dual bound ``f_bar``.  That one costs a sort over the
    columns, which runs on the first read of ``f_bar``: a step rule that
    never reads it never pays for it."""
    a_bar = float(np.max(np.abs(instance.values))) if instance.nnz else 0.0
    c_bar = float(np.max(np.abs(instance.obj)))
    d = instance.rhs / instance.num_cols
    d_lo = float(d.min())
    d_hi = float(d.max())
    return InstanceStats(a_bar, c_bar, d_lo, d_hi, instance.nnz, d_lo > 0.0,
                         functools.partial(_uniform_dual_value, instance))


@dataclass(frozen=True)
class Metrics:
    """Quality measures of a primal estimate (and optionally a dual point)."""

    gap: float | None
    violation: float
    relative_opt: float | None
    dual_bound: float | None


def _check_x(instance: LpInstance, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (instance.num_cols,):
        raise ValueError(f"x must have shape ({instance.num_cols},), got {x.shape}")
    return x


def _check_y(instance: LpInstance, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (instance.num_rows,):
        raise ValueError(f"y must have shape ({instance.num_rows},), got {y.shape}")
    return y


def _reduced_costs(instance: LpInstance, y) -> np.ndarray:
    """c_j - <a_j, y> for every column, in one sparse sweep."""
    return instance.obj - instance.to_scipy().T @ _check_y(instance, y)


def constraint_violation(instance: LpInstance, x) -> float:
    """Euclidean norm of the positive part of Ax - b."""
    x = _check_x(instance, x)
    r = instance.to_scipy() @ x - instance.rhs
    np.maximum(r, 0.0, out=r)
    return float(np.linalg.norm(r))


def optimality_gap(instance: LpInstance, x, opt_value: float) -> float:
    """Shortfall of <c, x> against the exact optimum supplied by the caller."""
    x = _check_x(instance, x)
    return float(opt_value - instance.obj @ x)


def relative_optimality(instance: LpInstance, x, opt_value: float) -> float:
    """|<c, x> / opt_value|; raises when the reference optimum is zero."""
    x = _check_x(instance, x)
    if opt_value == 0.0:
        raise ZeroDivisionError("relative optimality undefined for a zero optimum")
    return float(abs((instance.obj @ x) / opt_value))


def dual_objective(instance: LpInstance, y) -> float:
    """Upper bound <b,y> + <u, [c - A^T y]_+>, valid for any y >= 0.

    Negative entries of y are clamped to zero (with a warning) rather than
    rejected, so the returned value is always a valid bound.
    """
    y = _check_y(instance, y)
    if np.any(y < 0):
        warnings.warn("dual_objective: negative multipliers clamped to 0", RuntimeWarning)
        y = np.maximum(y, 0.0)
    reduced = _reduced_costs(instance, y)
    np.maximum(reduced, 0.0, out=reduced)
    pos = reduced > 0
    # avoid inf * 0 for unbounded variables with zero reduced cost
    box_term = float(instance.upper[pos] @ reduced[pos]) if np.any(pos) else 0.0
    return float(instance.rhs @ y) + box_term


def stopping_residual(instance: LpInstance, x, y) -> float:
    """Max of scaled primal infeasibility and scaled primal/dual gap.

    Infeasibility is scaled by ||b||_1 + 1 and the gap between
    ``dual_objective(y)`` and <c,x> by |dual| + |primal| + 1.
    """
    x = _check_x(instance, x)
    y = _check_y(instance, y)
    primal = float(instance.obj @ x)
    dual = dual_objective(instance, y)
    infeas = constraint_violation(instance, x) / (np.abs(instance.rhs).sum() + 1.0)
    if not np.isfinite(dual):
        return float("inf")
    gap = abs(dual - primal) / (abs(dual) + abs(primal) + 1.0)
    return float(max(infeas, gap))


def evaluate_solution(instance: LpInstance, x, opt_value: float | None = None,
                      y=None) -> Metrics:
    """Assemble the standard metric set for a primal (and optional dual) point."""
    violation = constraint_violation(instance, x)
    gap = None if opt_value is None else optimality_gap(instance, x, opt_value)
    rel = None
    if opt_value is not None and opt_value != 0.0:
        rel = relative_optimality(instance, x, opt_value)
    bound = None if y is None else dual_objective(instance, y)
    return Metrics(gap=gap, violation=violation, relative_opt=rel, dual_bound=bound)
