"""Sparse LP data model, instance statistics and solution-quality metrics.

The package works on inequality-form linear programs

    max  <c, x>   subject to   A x <= b,   0 <= x <= u,

with the constraint matrix held in compressed sparse-column form so that
single columns can be visited in time proportional to their nonzero count.
All metric functions here are pure.  An instance caches two things: its
scipy sparse array (``to_scipy``), a view of the instance's own read-only
arrays, and the compiled kernel's pointers to those arrays.

The sweeps over A run in the compiled kernel (``_kernel``) when it is
loaded, and otherwise in their scipy references:

- ``_sweep``, the pricing sweep c - A^T y of ``_reduced_costs`` and of
  ``sifting.price``, is ``price_sweep`` over A's own CSC arrays, in one
  part per usable CPU but of at least ``_PART_FLOOR`` entries each
  (``_sweep_parts``), the first part on the calling thread and each other
  on a thread of its own.  Its reference is ``obj - to_scipy().T @ y``.
- ``_product``, the A x of ``constraint_violation``, is
  ``support_product``, which reads only the columns where x is nonzero;
  its reference is ``to_scipy() @ x``.

Both give their reference's result bit for bit, whatever the part count.
"""

from __future__ import annotations

import functools
import numbers
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import _kernel
from .projection import _breakpoint_sums

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


# The fewest entries of A that a part of the compiled pricing sweep takes
# when the sweep runs in parts at once, one per usable CPU.  Paired sweeps
# of generated instances (m=100, density 0.1, raw; two runs of 400 pairs a
# size on a 2-core box), two parts against one, read +17 to +39% at 10^5
# entries, -7 to +7% at 2*10^5, -6 to -19% at 3*10^5, -26 to -29% at
# 5*10^5 and -36 to -40% at 10^6: below about 1.3*10^5 entries a part, a
# thread's start and join outweigh what it saves.
_PART_FLOOR = 1 << 17


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer >= least; numpy integers pass,
    bools do not (numpy's bool is no Integral)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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

    Raises ValueError for a ``num_rows`` or ``num_cols`` that is not an
    integer >= 1 (``_check_count``), for column pointers, row indices or
    vectors of the wrong shape or order, for an explicit zero, for an upper
    bound that is not positive and for a non-finite entry of A, b or c.
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
        _check_count("num_rows", self.num_rows, 1)
        _check_count("num_cols", self.num_cols, 1)
        m, n = int(self.num_rows), int(self.num_cols)
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
        """Row indices and values of column j (views, zero-copy).  Raises
        IndexError for j outside [0, n)."""
        if not 0 <= j < self.num_cols:
            raise IndexError("column index out of range")
        lo, hi = self.col_ptr[j], self.col_ptr[j + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def to_scipy(self) -> sp.csc_array:
        """Scipy CSC array of A, built on the first call and kept; every call
        returns the same array, which shares the instance's read-only
        arrays, int64 indices included."""
        return self._csc

    @functools.cached_property
    def _csc(self) -> sp.csc_array:
        # a csc_array keeps int64 indices, where csc_matrix would copy them
        # down to int32, so it copies nothing
        A = sp.csc_array((self.values, self.row_idx, self.col_ptr),
                         shape=(self.num_rows, self.num_cols))
        for a in (A.data, A.indices, A.indptr):
            a.flags.writeable = False
        return A

    @functools.cached_property
    def _kernel_pointers(self) -> tuple[int, int, int, int]:
        """Pointers for the compiled kernel to col_ptr, row_idx, values and
        obj, checked and looked up on the first read.  The arrays are the
        instance's own, read-only and never rebound, so the pointers hold
        while the instance lives."""
        n, nnz = self.num_cols, self.nnz
        return tuple(_kernel.pointers(("col_ptr", self.col_ptr, np.int64, n + 1),
                                      ("row_idx", self.row_idx, np.int64, nnz),
                                      ("values", self.values, np.float64, nnz),
                                      ("obj", self.obj, np.float64, n)))

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def restrict_columns(self, cols: np.ndarray, meta=None) -> "LpInstance":
        """Sub-instance over the given column ids (order preserved)."""
        cols, cp, at = self._gather_columns(cols)
        return LpInstance(self.num_rows, cols.size, cp, self.row_idx[at], self.values[at],
                          self.rhs, self.obj[cols], self.upper[cols], meta=meta)

    def _gather_columns(self, cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cols, col_ptr, at) of the sub-matrix over the column ids ``cols``,
        in their order: the ids as int64, the sub-matrix's column pointers,
        and the positions of its entries in ``row_idx`` and ``values``.
        Raises ValueError unless ``cols`` is a nonempty 1-d array of integer
        ids in [0, n)."""
        cols = np.asarray(cols)
        if cols.ndim != 1 or cols.size == 0 or cols.dtype.kind not in "iu":
            raise ValueError("column ids must be a nonempty 1-d array of integers")
        cols = cols.astype(np.int64, copy=False)
        if cols.min() < 0 or cols.max() >= self.num_cols:
            raise ValueError(f"column ids must lie in [0, {self.num_cols})")
        return cols, *_gather(self.col_ptr, cols)


def _gather(col_ptr: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, at) of the columns ``cols`` (int64 ids, unchecked) of a
    compressed-column store with column pointers ``col_ptr``, in their
    order: the gathered columns' pointers, and the positions of their
    entries in the store."""
    starts = col_ptr[cols]
    counts = col_ptr[cols + 1] - starts
    ptr = np.zeros(cols.size + 1, dtype=np.int64)
    counts.cumsum(out=ptr[1:])
    # entry p of the new column k sits at starts[k] + (p - ptr[k]) in the store
    at = (starts - ptr[:-1]).repeat(counts)
    at += np.arange(at.size)
    return ptr, at


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
    first kink where the right slope turns nonnegative.  The slopes come
    from the breakpoint search of the weighted-simplex projection
    (``projection._breakpoint_sums``).  Every point of the ray is dual
    feasible, so the value bounds min_y F(y) = OPT / n from above (for the
    unit box the passes work in).
    """
    n = instance.num_cols
    c = instance.obj
    d_sum = float(np.sum(instance.rhs / n))
    s = np.bincount(np.repeat(np.arange(n), np.diff(instance.col_ptr)),
                    weights=instance.values, minlength=n)
    nz = s != 0.0
    ratio, weight = c[nz] / s[nz], s[nz]
    kinks = np.unique(np.concatenate(([0.0], ratio[ratio > 0.0])))
    ratio, (sums,) = _breakpoint_sums(ratio, weight, weight[None])
    # the right slope at each kink e: a ratio equal to e counts as below it
    slope = d_sum - sums[ratio.searchsorted(kinks, side="right")] / n
    eta = float(kinks[np.argmax(slope >= 0.0)])
    return eta * d_sum + float(np.sum(np.maximum(c - eta * s, 0.0))) / n


def compute_stats(instance: LpInstance) -> InstanceStats:
    """Exact maxima/minima of the instance data in one sparse traversal,
    plus the uniform-dual bound ``f_bar``.  That one costs a sort over the
    columns, which runs on the first read of ``f_bar``: a step rule that
    never reads it never pays for it."""
    values = instance.values
    # max |v| without an nnz-long temporary of |v|
    a_bar = max(float(values.max()), -float(values.min())) if instance.nnz else 0.0
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
    """x as a contiguous float64 array; raises ValueError unless it has
    shape (n,) and every entry is finite.  A NaN entry would make the
    violation and the objective NaN, which no comparison catches."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (instance.num_cols,):
        raise ValueError(f"x must have shape ({instance.num_cols},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def _check_y(instance: LpInstance, y, name: str = "y") -> np.ndarray:
    """y as a contiguous float64 array; raises ValueError unless it has
    shape (m,) and every entry is finite.  A NaN entry makes every reduced
    cost on its row NaN, which no comparison catches downstream."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != (instance.num_rows,):
        raise ValueError(f"{name} must have shape ({instance.num_rows},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError(f"{name} must be finite")
    return y


def _reduced_costs(instance: LpInstance, y) -> np.ndarray:
    """c_j - <a_j, y> for every column, in one sweep of A (``_sweep``)."""
    return _sweep(instance, _check_y(instance, y))[0]


def _sweep_parts(instance: LpInstance) -> list[int]:
    """The column bounds of the parts of a compiled pricing sweep: one part
    per usable CPU, but of at least _PART_FLOOR entries each, cut where
    the parts hold about equal shares of the entries."""
    nnz, n = instance.nnz, instance.num_cols
    count = 1 if nnz < 2 * _PART_FLOOR else min(_kernel.cpus(), nnz // _PART_FLOOR)
    if count <= 1:
        return [0, n]
    cuts = instance.col_ptr.searchsorted([nnz * k // count for k in range(1, count)])
    return [0, *cuts.tolist(), n]


def _sweep(instance: LpInstance, y: np.ndarray, working: np.ndarray | None = None,
           share: np.ndarray | None = None, alpha: float = 0.0,
           tol: float = 0.0) -> tuple[np.ndarray, np.ndarray | None, tuple[int, int]]:
    """(r, blend, counts): r = c - A^T y, bit for bit ``obj -
    to_scipy().T @ y``, with -inf where the uint8 mask ``working`` is
    nonzero; given ``share``, blend = alpha * r, then blend += share (None
    without it); and the numbers of r > tol and of blend > tol.  y must
    have shape (m,).  The compiled sweep raises ValueError for a mask or
    share that is not contiguous uint8 or float64 of size n."""
    n = instance.num_cols
    lib = _kernel.load()
    if lib is None:
        r = instance.obj - instance.to_scipy().T @ y
        if working is not None:
            r[working.view(bool)] = -np.inf
        blend = None
        if share is not None:
            blend = alpha * r
            blend += share
        return r, blend, (int(np.count_nonzero(r > tol)),
                          0 if blend is None else int(np.count_nonzero(blend > tol)))

    bounds = _sweep_parts(instance)
    parts = len(bounds) - 1
    # one buffer, one pointer lookup: r, blend, two counts a part, and a
    # copy of y, so that the y the kernel reads is contiguous float64
    size = n if share is None else 2 * n
    buf = np.empty(size + 2 * parts + instance.num_rows)
    buf[size + 2 * parts:] = y
    buf_p, working_p, share_p = _kernel.pointers(
        ("sweep buffer", buf, np.float64, buf.size), ("working mask", working, np.uint8, n),
        ("anchor share", share, np.float64, n))
    blend_p = None if share is None else buf_p + 8 * n
    counts_p, y_p = buf_p + 8 * size, buf_p + 8 * (size + 2 * parts)
    args = [(lo, hi, *instance._kernel_pointers, y_p, working_p, share_p, alpha, tol, buf_p,
             blend_p, counts_p + 16 * k) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    # each part but the first on a thread of its own; ctypes lets go of the
    # GIL for the call
    threads = [threading.Thread(target=lib.price_sweep, args=a) for a in args[1:]]
    for thread in threads:
        thread.start()
    lib.price_sweep(*args[0])
    for thread in threads:
        thread.join()
    counts = buf[size:size + 2 * parts].tolist()
    return (buf[:n], None if share is None else buf[n:size],
            (int(sum(counts[0::2])), int(sum(counts[1::2]))))


def _product(instance: LpInstance, x: np.ndarray) -> np.ndarray:
    """A x, bit for bit ``to_scipy() @ x``, reading only the columns where x
    is nonzero when the kernel is loaded.  x must be contiguous float64 of
    size n: the compiled product raises ValueError otherwise."""
    lib = _kernel.load()
    if lib is None:
        return instance.to_scipy() @ x
    m, n = instance.num_rows, instance.num_cols
    out = np.empty(m)
    x_p, out_p = _kernel.pointers(("x", x, np.float64, n), ("product", out, np.float64, m))
    col_ptr, row_idx, values, _ = instance._kernel_pointers
    lib.support_product(m, n, col_ptr, row_idx, values, x_p, out_p)
    return out


def constraint_violation(instance: LpInstance, x) -> float:
    """Euclidean norm of the positive part of Ax - b."""
    x = _check_x(instance, x)
    r = _product(instance, x) - instance.rhs
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

    Raises ValueError for a y that is not of shape (m,) or has a non-finite
    entry (``_check_y``).  Negative entries are clamped to zero (with a
    warning) rather than rejected, so the value returned is always a valid
    bound.
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
