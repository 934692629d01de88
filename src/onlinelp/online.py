"""Single-pass online-learning solvers for offline LPs.

Two dual updates are provided for the finite-sum dual

    min_{y >= 0}  (1/n) sum_j  <d, y> + [c_j - <a_j, y>]_+,      d = b/n:

* the explicit (subgradient) step prices column j against the current dual,
  sets x_j = 1{c_j > <a_j, y>} and moves y along gamma * (a_j x_j - d),
  projected onto the nonnegative orthant;
* the implicit (proximal point) step solves the one-column prox subproblem
  exactly by a three-case analysis, recovering a possibly fractional x_j
  as the Lagrange multiplier of the kink.

``solve_online`` runs one pass, visiting every column in a seeded uniformly
random order.  With duplication factor K it visits K virtual copies of each
column against capacity K*b and averages the K estimates, which tightens
both the optimality gap and the constraint violation by roughly sqrt(K).

The explicit pass does O(nnz(A)) work: between touches a coordinate only
drifts by -gamma*d_i per iteration, so its value after k untouched
iterations is [y_i - k*gamma*d_i]_+ and is formed only when a column's
support needs it, as the lazy weights of truncated gradient are (Langford,
Li & Zhang, "Sparse Online Learning via Truncated Gradient", JMLR 2009).

The explicit pass runs its per-column loop in a small C kernel
(``_kernel.c``, which also holds the simplex's pivot loop), built with the
system C compiler on first use and loaded with ctypes; without a compiler,
or when the build fails, the numpy loop ``_python_loop`` runs instead.
``explicit_engine()`` says which one runs.  That loop is the kernel's
reference, and the two keep one protocol: they take the same arrays, the
dual's last values and touch steps, the capacity, the accepted counts and,
for a checked pass, a one-slot norm maximum, update them in place, and
return the number of steps run or the step whose norm escaped its bound
(``_explicit_pass`` raises that escape).  The kernel takes one array more,
a scratch of m doubles that ``_compiled_loop`` allocates, where it keeps
each visited entry's value between the pricing and the update.  They
agree bit for bit under the sum contract stated in ``_kernel``.  Every sum
of the pass engines, explicit and implicit, is added term by term in stored
order, starting from the first term (``_sum``):

* the pricing dot product <a_j, y> over the nonzeros of column j, 0.0 for
  an empty column, and the implicit step's sign tests and KKT residual;
* every squared norm, whose square root is the norm a pass checks and
  reports (``_norm``).

A pass measures the dual norm only under ``check_dual_bounds``; otherwise
``max_dual_norm`` is None.  The check needs d > 0, and then a refused
step or a drift never raises a coordinate, so only y^0 and the iterate
after each accepted step can set a new largest norm or first escape the
bound.  The explicit pass measures exactly those, forming the whole
vector, and so finds the largest norm and the escape step of a pass that
measured every iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernel
from .model import (LpInstance, InstanceStats, _check_count, _check_y, compute_stats,
                    constraint_violation)
from .projection import project_weighted_simplex

__all__ = [
    "RunConfig",
    "OnlineSolution",
    "ProximalSolution",
    "ProxCase",
    "default_stepsize",
    "explicit_engine",
    "explicit_step",
    "implicit_step",
    "solve_online",
    "explicit_dual_norm_bound",
    "implicit_dual_norm_bound",
    "implicit_step_norm_bound",
    "unit_box_rescaled",
]

KKT_TOL = 1e-8

# the choices of RunConfig's string fields
METHODS = ("explicit", "implicit")
STEPSIZE_MODES = ("scaled", "simple", "theorem")
STARTS = ("zero", "ones")


class ProxCase(Enum):
    """Which region of the piecewise prox subproblem produced the solution."""

    KINK_INACTIVE_HIGH = "kink_inactive_high"   # c_j - <a_j, y+> > 0, x = 1
    KINK_INACTIVE_LOW = "kink_inactive_low"     # c_j - <a_j, y+> < 0, x = 0
    KINK_ACTIVE = "kink_active"                 # c_j = <a_j, y+>, x in [0, 1]


@dataclass(frozen=True)
class ProximalSolution:
    """Exact solution of one implicit (proximal point) column subproblem."""

    y_plus: np.ndarray
    x_k: float
    case_tag: ProxCase
    kkt_residual: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    """Configuration of a single online pass (or a K-duplicated pass).

    ``stepsize`` is the constant step length gamma of the pass: a finite
    positive float is used as is, and a mode name is resolved from the
    instance statistics by ``default_stepsize``.  The default "scaled" sets
    gamma = f_bar / (d_lo * sqrt((a_bar + d_hi) * K * n * d_lo)).  It is
    the online-gradient step D / (G * sqrt(T)), with the dual radius D and
    the gradient size G bounded from the instance statistics.  Rescaling A, b
    and c leaves the pass's decisions unchanged.  Where not even one
    heaviest copy fits in K * b_lo it falls back to "simple",
    1/sqrt(K*m*n), the unit-data rule.
    "theorem" is the gap/violation-balancing value of the worst-case
    bounds.  Every mode resolves to one constant, so a run is replayed
    bitwise from its float.

    ``lazy`` is retired and accepts only True: the explicit update has one
    engine.  It goes with the next benchmark change, whose config builder
    still passes it.
    """

    method: str = "explicit"
    stepsize: float | str = "scaled"
    duplication: int = 1
    seed: int = 0
    enforce_feasibility: bool = False
    start: str | np.ndarray = "zero"
    lazy: bool = True
    check_assumptions: bool = True
    check_dual_bounds: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if isinstance(self.stepsize, str):
            if self.stepsize not in STEPSIZE_MODES:
                raise ValueError(f"stepsize mode must be one of {STEPSIZE_MODES} or a float")
        else:
            _fixed_step(self.stepsize)
        _check_count("duplication", self.duplication, 1)
        _check_count("seed", self.seed, 0)
        if isinstance(self.start, str) and self.start not in STARTS:
            raise ValueError(f"start must be one of {STARTS} or an explicit vector")
        if self.lazy is not True:
            raise ValueError("lazy is retired: the explicit update has one O(nnz) engine")


@dataclass(frozen=True)
class OnlineSolution:
    """Output of one online pass: primal estimate, final dual, diagnostics.

    ``max_dual_norm`` is the largest ||y^k|| of the pass when it ran with
    ``check_dual_bounds``, and None otherwise.
    """

    x_hat: np.ndarray
    y_final: np.ndarray
    objective: float
    violation: float
    max_dual_norm: float | None
    elapsed_columns: int
    gamma: float              # the step length the pass resolved and used


def _fixed_step(step) -> float:
    """A step length gamma as a float, the one check of a fixed
    ``stepsize`` and of both single steps' gamma; ValueError unless it is
    finite and positive (an infinite step gives a NaN dual)."""
    gamma = float(step)
    if not (0.0 < gamma < math.inf):
        raise ValueError(f"fixed stepsize must be positive and finite, got {gamma!r}")
    return gamma


def default_stepsize(stats: InstanceStats, num_rows: int, num_cols: int,
                     duplication: int = 1, method: str = "explicit",
                     mode: float | str = "scaled") -> float:
    """Resolve the constant step length gamma of a pass.

    A fixed float, which must be finite and positive, is returned
    unchanged.  The modes are:

    "scaled" (the default)
        gamma = f_bar / (d_lo * sqrt((a_bar + d_hi) * K * n * d_lo)), the
        textbook constant step D / (G * sqrt(T)) of projected online
        gradient descent, tuned per dual coordinate.  Over T = K * n steps
        the regret of coordinate i is at most
        y*_i^2 / (2 gamma) + (gamma / 2) * sum_t g_i^2, where
        g_i = d_i - a_ij * x.  The first term is the climb of y_i from
        its start at 0, the second the noise of the steps.  Two bounds
        make it computable:

        * D_i: the pass dual F(y) = <d, y> + (1/n) sum_j [c_j - <a_j, y>]_+
          has d_i * y*_i <= F(y*) <= f_bar, its least value over the
          uniform duals eta * 1 (``compute_stats``), so y*_i <= f_bar / d_i.  This is the
          bound c_bar / d_lo of the dual-iterate bounds below, which uses
          F(0) <= c_bar, with a better dual point.  c_bar stands in when
          the statistics carry no f_bar;
        * G_i: while the accepted load of row i stays within its capacity
          K * b_i = T * d_i (enforcement guarantees it when A >= 0),
          sum_t g_i^2 <= a_bar * K * b_i + T * d_i^2
          <= T * d_i * (a_bar + d_hi).

        Balancing both terms gives gamma = D_i / (G_i * sqrt(T)).  The
        row with the least capacity, d_lo, has the largest such step.  Its
        step is used for all rows.  The regret, and with it the gap and the
        violation, then shrinks like 1/sqrt(K).

        One step moves y_i by up to gamma * (a_bar + d_hi), which is
        D_i / sqrt(r) with r = K * n * d_lo / (a_bar + d_hi), the number of
        heaviest copies that fit in the smallest capacity.  For r < 1 the
        tuned step would jump past the whole radius in one move, and the
        averaged bound says nothing.  There, and when d_lo <= 0 or
        f_bar <= 0 (then y* = 0), the rule falls back to "simple".

        Rescaling A and b by alpha and c by beta scales y* by beta/alpha,
        gamma by beta/alpha^2 and leaves r unchanged.  So the pass makes the
        same decisions; for powers of two they are bitwise identical.  The
        fallback does not have this property.

    "simple"
        1/sqrt(K*m*n), the step for data already at unit scale.

    "theorem"
        The constant that balances the worst-case gap and violation
        bounds, sqrt(2 c_bar / (d_lo * (a_bar + d_hi)^2 * m * nK)) for the
        explicit update and the same value divided by sqrt(5) for the
        implicit one.  Where c_bar <= 0 (then y* = 0) that value is 0, and
        the rule falls back to "simple".

    The paper's abstract fixes neither the step nor the constants of its
    sqrt(K) claim.  Tuning per coordinate rather than on ||y*|| is this
    package's choice.  It is what makes the "scaled" step about sqrt(m)
    times larger than the joint tuning.  f_bar / d_i also overstates y*_i,
    by about 3-10x on multi-knapsack data.
    """
    if not isinstance(mode, str):
        return _fixed_step(mode)
    simple = 1.0 / math.sqrt(duplication * num_rows * num_cols)
    if mode == "scaled":
        spread = stats.a_bar + stats.d_hi
        capacity = duplication * num_cols * stats.d_lo
        if capacity < spread:   # starved: f_bar is not read, so not computed
            return simple
        f_bar = stats.c_bar if stats.f_bar is None else stats.f_bar
        if f_bar <= 0:
            return simple
        return f_bar / stats.d_lo / math.sqrt(spread * capacity)
    if mode == "simple":
        return simple
    if mode != "theorem":
        raise ValueError(f"unknown stepsize mode {mode!r}")
    if stats.d_lo <= 0:
        raise ValueError("theorem stepsize needs d_lo > 0 (b must be strictly positive)")
    if stats.c_bar <= 0:
        return simple
    n_eff = num_cols * duplication
    base = 2.0 * stats.c_bar / (stats.d_lo * (stats.a_bar + stats.d_hi) ** 2
                                * num_rows * n_eff)
    gamma = math.sqrt(base)
    if method == "implicit":
        gamma /= math.sqrt(5.0)
    return gamma


# -- dual-iterate bounds (used as runtime invariants in tests) --------------

def explicit_dual_norm_bound(stats: InstanceStats, num_rows: int, gamma: float) -> float:
    """Uniform bound on ||y^k|| along an explicit pass with constant gamma."""
    ad = stats.a_bar + stats.d_hi
    return (num_rows * ad ** 2 * gamma / stats.d_lo
            + math.sqrt(num_rows) * ad * gamma + stats.c_bar / stats.d_lo)


def implicit_dual_norm_bound(stats: InstanceStats, num_rows: int, gamma: float) -> float:
    """Uniform bound on ||y^k|| along an implicit pass with constant gamma."""
    ad = stats.a_bar + stats.d_hi
    return (3.0 * num_rows * ad ** 2 * gamma / stats.d_lo
            + math.sqrt(num_rows) * ad * gamma + stats.c_bar / stats.d_lo)


def implicit_step_norm_bound(stats: InstanceStats, num_rows: int, gamma: float) -> float:
    """Bound on a single implicit dual move ||y^{k+1} - y^k||."""
    return math.sqrt(num_rows) * (stats.a_bar + stats.d_hi) * gamma


def _entry_norm_bound(stats: InstanceStats, num_rows: int, gamma: float) -> float:
    # the norm bound holds for every iterate provided the start is below this
    ad = stats.a_bar + stats.d_hi
    return (num_rows * ad ** 2 * gamma + 2.0 * stats.c_bar) / (2.0 * stats.d_lo)


# -- single-step operations --------------------------------------------------

def explicit_step(instance: LpInstance, y, j: int, gamma: float,
                  remaining_capacity=None):
    """One explicit subgradient step on column j.

    Returns ``(y_next, x_k)`` with x_k = 1{c_j > <a_j, y>} (forced to 0 when
    a remaining-capacity vector is supplied and column j does not fit) and
    y_next = [y + gamma * (a_j x_k - d)]_+.  It runs the pass engine on the
    one-column sequence (j,), so it is the pass's own arithmetic; the
    caller's arrays are left untouched.  Raises ValueError for a y that is
    not finite of shape (m,) (``_check_y``), for a gamma that is not finite
    and positive (``_fixed_step``) and IndexError for j outside [0, n).
    """
    remaining = (None if remaining_capacity is None
                 else np.array(remaining_capacity, dtype=np.float64))
    x_sum, y_next, _ = _explicit_pass(instance, np.array([j]), _fixed_step(gamma),
                                      _check_y(instance, y), remaining, norm_bound=None)
    return y_next, float(x_sum[j])


def _kkt_residual(y_plus, z, rows, vals, c_j, gamma, x):
    """Scaled stationarity + complementarity residual of a prox candidate."""
    stat = z.copy()
    if x != 0.0 and rows.size:
        stat[rows] += (gamma * x) * vals
    np.maximum(stat, 0.0, out=stat)
    stat_res = float(np.max(np.abs(stat - y_plus))) if stat.size else 0.0
    g = c_j - _sum(vals * y_plus[rows])
    comp_res = (1.0 - x) * max(g, 0.0) + x * max(-g, 0.0)
    scale_y = 1.0 + float(np.max(y_plus)) if y_plus.size else 1.0
    return max(stat_res / scale_y, comp_res / (1.0 + abs(c_j)))


def _implicit_step_core(y, rows, vals, c_j, gd, gamma) -> ProximalSolution:
    z = y - gd
    # Case 1: kink inactive from above, x = 1
    y1 = z.copy()
    y1[rows] += gamma * vals
    np.maximum(y1, 0.0, out=y1)
    g1 = c_j - _sum(vals * y1[rows])
    if g1 > 0.0:
        return ProximalSolution(y1, 1.0, ProxCase.KINK_INACTIVE_HIGH, 0.0)
    # Case 2: kink inactive from below, x = 0
    y2 = np.maximum(z, 0.0)
    g2 = c_j - _sum(vals * y2[rows])
    if g2 < 0.0:
        return ProximalSolution(y2, 0.0, ProxCase.KINK_INACTIVE_LOW, 0.0)
    # Case 3: kink active; off-support coordinates keep the case-2 formula,
    # the support solves a weighted-simplex projection of z.
    if rows.size == 0:
        # c_j is exactly at the kink (measure zero); any x in [0,1] is optimal
        return ProximalSolution(y2, 0.0, ProxCase.KINK_ACTIVE, 0.0)
    y3 = y2.copy()
    y_s, theta = project_weighted_simplex(z[rows], vals, c_j, return_multiplier=True)
    y3[rows] = y_s
    x = min(max(-theta / gamma, 0.0), 1.0)
    resid = _kkt_residual(y3, z, rows, vals, c_j, gamma, x)
    if resid > KKT_TOL:
        raise ArithmeticError(
            f"implicit subproblem failed KKT verification (residual {resid:.3e})"
        )
    return ProximalSolution(y3, x, ProxCase.KINK_ACTIVE, resid)


def implicit_step(instance: LpInstance, y, j: int, gamma: float) -> ProximalSolution:
    """Solve the proximal-point subproblem for column j exactly.

    Minimizes <d,y'> + [c_j - <a_j,y'>]_+ + ||y' - y||^2 / (2 gamma) over
    y' >= 0 by trying the two kink-inactive closed forms first and falling
    back to the weighted-simplex projection when the kink is active.
    Raises ValueError for a y that is not finite of shape (m,)
    (``_check_y``), for a gamma that is not finite and positive
    (``_fixed_step``) and IndexError for j outside [0, n).
    """
    y = _check_y(instance, y)
    gamma = _fixed_step(gamma)
    d = instance.rhs / instance.num_cols
    rows, vals = instance.column(j)
    return _implicit_step_core(y, rows, vals, float(instance.obj[j]), gamma * d, gamma)


# -- pass engines ------------------------------------------------------------

def _resolve_start(start, instance: LpInstance) -> np.ndarray:
    if isinstance(start, str):
        if start == "zero":
            return np.zeros(instance.num_rows)
        return np.ones(instance.num_rows)
    y0 = _check_y(instance, start, "start vector")
    if np.any(y0 < 0):
        raise ValueError("start vector must be nonnegative")
    return y0


def _column_sequence(num_cols: int, duplication: int, seed: int) -> np.ndarray:
    # virtual index t of the K*n copies maps to column t mod n.  A shuffle
    # swaps by the length and the random stream alone, so shuffling K copies
    # of 0..n-1 gives permutation(K*n) % n without the modulo's pass
    seq = np.tile(np.arange(num_cols, dtype=np.int64), duplication)
    np.random.default_rng(seed).shuffle(seq)
    return seq


def _explicit_pass(instance: LpInstance, seq: np.ndarray, gamma: float,
                   start_y: np.ndarray, remaining: np.ndarray | None,
                   norm_bound: float | None):
    """The explicit engine, O(nnz) work per pass.

    Visits the columns of ``seq`` in order and returns ``(x_sum, y_final,
    max_norm)``, where x_sum[j] counts the accepted copies of column j.
    A ``remaining`` capacity vector, when given, is drawn down in place and
    refuses any copy that does not fit.

    Between touches coordinate i only loses gamma * d_i per step, projected
    at zero, so the pass keeps each coordinate's value at its last touch,
    ``y_base``, and the step after that touch, ``last``, and forms the
    value at step k on demand as [y_base_i - (k - last_i) * gamma * d_i]_+,
    only on the visited column's support.

    With a ``norm_bound`` the pass also forms the whole vector for y^0 and
    for the iterate after each accepted step, keeps their largest norm in
    ``max_norm`` and stops at the first that escapes the bound; max_norm is
    None without one.  The loop runs in the compiled kernel when it is
    loaded and in ``_python_loop``, its reference, otherwise.  Either
    returns the step k whose iterate y^k escaped, or T = len(seq); the
    escape, y^T's included, is raised here.
    """
    m, n = instance.num_rows, instance.num_cols
    # the compiled loop writes through raw pointers: y_base is a fresh copy
    # of start_y, but the capacity vector is drawn down where it lies
    if start_y.shape != (m,) or start_y.dtype != np.float64:
        raise ValueError(f"start dual must be float64 of shape ({m},)")
    if remaining is not None and not (remaining.shape == (m,) and remaining.dtype == np.float64
                                      and remaining.flags.c_contiguous):
        raise ValueError(f"capacity vector must be contiguous float64 of shape ({m},)")
    if seq.size and (seq.min() < 0 or seq.max() >= n):
        raise IndexError("column index out of range")
    seq = np.ascontiguousarray(seq, dtype=np.int64)
    step_d = gamma * (instance.rhs / n)
    y_base = start_y.copy()
    last = np.zeros(m, dtype=np.int64)
    x_sum = np.zeros(n)
    max_norm = None if norm_bound is None else np.zeros(1)
    loop = _python_loop if _kernel.load() is None else _compiled_loop
    k = loop(instance, seq, gamma, step_d, y_base, last, remaining, x_sum, norm_bound, max_norm)

    y_final = np.maximum(y_base - (k - last) * step_d, 0.0)
    if max_norm is None:
        return x_sum, y_final, None
    if max_norm[0] > norm_bound * (1.0 + 1e-9):   # y^k escaped, midway or at k = T
        raise RuntimeError(f"explicit dual iterate escaped its norm bound at step {k}: "
                           f"{max_norm[0]:.6g} > {norm_bound:.6g}")
    return x_sum, y_final, float(max_norm[0])


def explicit_engine() -> str:
    """Which engine runs the explicit pass: "compiled", or "python: <why>".

    The simplex's pivot loop lives in the same kernel, so this names its
    engine too.  The first call builds or loads the kernel (see ``_kernel``).
    """
    if _kernel.load() is not None:
        return "compiled"
    return f"python: {_kernel.reason()}"


def _sum(terms: np.ndarray) -> float:
    """The terms added one by one in order, 0.0 when there are none: the
    order of every sum of the pass engines.  ``np.add.accumulate`` is
    ``np.cumsum`` without its dispatch, a third of the cost on short sums."""
    return float(np.add.accumulate(terms)[-1]) if terms.size else 0.0


def _norm(y: np.ndarray) -> float:
    """||y||, its squares added in order (``_sum``)."""
    return math.sqrt(_sum(y * y))


def _python_loop(instance, seq, gamma, step_d, y_base, last, remaining, x_sum, norm_bound,
                 max_norm) -> int:
    """The per-column loop of ``_explicit_pass`` in numpy; the reference of
    the compiled kernel.  Updates ``y_base``, ``last``, ``remaining``,
    ``x_sum`` and ``max_norm`` (None for an unchecked pass, else 0 on
    entry) in place and returns len(seq), or the step whose dual norm
    escaped ``norm_bound``."""
    cp, ri, vals_all = instance.col_ptr, instance.row_idx, instance.values
    c = instance.obj
    measure = max_norm is not None
    for k in range(seq.size + 1):
        if measure:   # y^0, or the iterate after an accepted step
            norm = _norm(np.maximum(y_base - (k - last) * step_d, 0.0))
            max_norm[0] = max(max_norm[0], norm)
            if norm > norm_bound * (1.0 + 1e-9):
                return k
        if k == seq.size:
            return k
        j = seq[k]
        lo, hi = cp[j], cp[j + 1]
        rows = ri[lo:hi]
        vals = vals_all[lo:hi]
        ym = np.maximum(y_base[rows] - (k - last[rows]) * step_d[rows], 0.0)
        x = 1.0 if c[j] > _sum(vals * ym) else 0.0
        if x == 1.0 and remaining is not None and not np.all(remaining[rows] >= vals):
            x = 0.0
        if x == 1.0:
            y_base[rows] = np.maximum(ym + gamma * vals - step_d[rows], 0.0)
            if remaining is not None:
                remaining[rows] -= vals
            x_sum[j] += 1.0
        else:
            y_base[rows] = np.maximum(ym - step_d[rows], 0.0)
        last[rows] = k + 1
        measure = x == 1.0 and max_norm is not None


def _compiled_loop(instance, seq, gamma, step_d, y_base, last, remaining, x_sum, norm_bound,
                   max_norm) -> int:
    """``_python_loop`` in one call of the compiled kernel, which writes in
    place through the pointers of the same arrays and keeps the visited
    column's dual entries in a scratch of m doubles allocated here."""
    m = instance.num_rows
    scratch = np.empty(m)
    step_d_p, seq_p, y_base_p, last_p, x_sum_p, remaining_p, max_norm_p, scratch_p = (
        _kernel.pointers(
            ("step_d", step_d, np.float64, m), ("seq", seq, np.int64, seq.size),
            ("y_base", y_base, np.float64, m), ("last", last, np.int64, m),
            ("x_sum", x_sum, np.float64, instance.num_cols),
            ("capacity", remaining, np.float64, m), ("max_norm", max_norm, np.float64, 1),
            ("scratch", scratch, np.float64, m)))
    return _kernel.load().explicit_pass(
        m, *instance._kernel_pointers, step_d_p, gamma, seq_p, seq.size, y_base_p, last_p,
        remaining_p, x_sum_p, math.inf if norm_bound is None else norm_bound, max_norm_p,
        scratch_p)


def _implicit_pass(instance: LpInstance, seq: np.ndarray, gamma: float,
                   start_y: np.ndarray, remaining: np.ndarray | None,
                   norm_bound: float | None, step_bound: float | None):
    """The implicit engine; same contract as ``_explicit_pass``."""
    n = instance.num_cols
    gd = gamma * (instance.rhs / n)
    c = instance.obj
    cp, ri, vals_all = instance.col_ptr, instance.row_idx, instance.values
    y = start_y.copy()
    x_sum = np.zeros(n)
    max_norm = None if norm_bound is None else _norm(y)

    for k, j in enumerate(seq):
        lo, hi = cp[j], cp[j + 1]
        rows = ri[lo:hi]
        vals = vals_all[lo:hi]
        sol = _implicit_step_core(y, rows, vals, float(c[j]), gd, gamma)
        if step_bound is not None:
            move = _norm(sol.y_plus - y)
            if move > step_bound * (1.0 + 1e-9):
                raise RuntimeError(
                    f"implicit dual move escaped its bound at step {k}: "
                    f"{move:.6g} > {step_bound:.6g}"
                )
        y = sol.y_plus
        if norm_bound is not None:
            norm = _norm(y)
            max_norm = max(max_norm, norm)
            if norm > norm_bound * (1.0 + 1e-9):
                raise RuntimeError(
                    f"implicit dual iterate escaped its norm bound at step {k}: "
                    f"{norm:.6g} > {norm_bound:.6g}"
                )
        x = sol.x_k
        if remaining is not None and x > 0.0:
            pos = vals > 0
            if np.any(pos):
                x = min(x, float(np.min(remaining[rows][pos] / vals[pos])))
            x = max(x, 0.0)
            remaining[rows] -= x * vals
        x_sum[j] += x
    return x_sum, y, max_norm


def unit_box_rescaled(instance: LpInstance) -> tuple[LpInstance, np.ndarray]:
    """Equivalent unit-box instance (columns scaled by u) plus the scale.

    Online passes assume 0 <= x <= 1.  For a general finite u, substituting
    x = u * x' gives A' = A diag(u), c' = c * u, u' = 1; a primal estimate
    for the original instance is recovered as u * x_hat'.  Duals coincide.
    """
    u = instance.upper
    if not np.all(np.isfinite(u)):
        raise ValueError("unit-box rescaling needs finite upper bounds")
    if np.all(u == 1.0):
        return instance, u
    scale = np.repeat(u, np.diff(instance.col_ptr))
    scaled = LpInstance(
        instance.num_rows, instance.num_cols, instance.col_ptr, instance.row_idx,
        instance.values * scale, instance.rhs, instance.obj * u,
        np.ones(instance.num_cols),
    )
    return scaled, u


def solve_online(instance: LpInstance, config: RunConfig) -> OnlineSolution:
    """Run one online pass over K = ``config.duplication`` copies of each column.

    No physical copies are formed: the pass visits a seeded random order
    of the K*n virtual columns against capacity K*b (when feasibility is
    enforced), and the K per-copy estimates of a column are averaged into
    x_hat.  Instances with non-unit upper bounds are rescaled to the unit
    box for the pass and the primal estimate is mapped back, so the
    returned solution lives in the original coordinates.
    """
    scaled, u = unit_box_rescaled(instance)
    m, n, k = scaled.num_rows, scaled.num_cols, config.duplication
    stats = compute_stats(scaled)
    if config.check_assumptions and not stats.assumptions_ok:
        raise ValueError(
            "instance violates d = b/n > 0; pass check_assumptions=False to override"
        )
    gamma = default_stepsize(stats, m, n, k, config.method, config.stepsize)
    start_y = _resolve_start(config.start, scaled)
    seq = _column_sequence(n, k, config.seed)
    remaining = k * scaled.rhs.astype(np.float64) if config.enforce_feasibility else None

    norm_bound = step_bound = None
    if config.check_dual_bounds:
        if not stats.assumptions_ok:
            raise ValueError("dual-iterate bounds require d_lo > 0")
        if float(np.linalg.norm(start_y)) > _entry_norm_bound(stats, m, gamma):
            raise ValueError("start point too large for the dual-iterate bound to apply")
        if config.method == "explicit":
            norm_bound = explicit_dual_norm_bound(stats, m, gamma)
        else:
            norm_bound = implicit_dual_norm_bound(stats, m, gamma)
            step_bound = implicit_step_norm_bound(stats, m, gamma)

    if config.method == "explicit":
        x_sum, y_final, max_norm = _explicit_pass(scaled, seq, gamma, start_y, remaining,
                                                  norm_bound)
    else:
        x_sum, y_final, max_norm = _implicit_pass(scaled, seq, gamma, start_y, remaining,
                                                  norm_bound, step_bound)
    x_hat = np.clip(x_sum / k, 0.0, 1.0)
    if scaled is not instance:
        x_hat *= u
    return OnlineSolution(
        x_hat=x_hat,
        y_final=y_final,
        objective=float(instance.obj @ x_hat),
        violation=constraint_violation(instance, x_hat),
        max_dual_norm=max_norm,
        elapsed_columns=int(seq.size),
        gamma=gamma,
    )
