"""Sifting: column generation for n >> m LPs, seeded by an online pass.

The pass gives its final dual y, clipped at zero (the "anchor").  The
first working set W is the m columns with the largest c_j - <a_j, y>.
The working problem on W is solved exactly, its dual is blended with the
anchor for pricing only, dual-infeasible columns are added to W, and the
loop repeats until a full pricing sweep with the *exact* working dual
certifies global optimality.  Columns are never removed, so the working
objective is nondecreasing across rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import LpInstance, _check_y
from .online import OnlineSolution
from .simplex import SimplexResult, SolveStatus, solve_lp

__all__ = [
    "SiftConfig",
    "SiftRound",
    "SiftResult",
    "SiftRoundLimit",
    "init_working_set",
    "price",
    "stabilize",
    "sift",
    "basis_metrics",
]

class SiftRoundLimit(RuntimeError):
    """Round cap hit before certification; `partial` holds the best result."""

    def __init__(self, message: str, partial: "SiftResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SiftConfig:
    """Knobs of the sifting loop.

    ``stabilization_alpha`` is the weight on the exact working dual in the
    pricing blend; 1.0 turns stabilization off.  ``init_threshold`` is
    retired and accepts only None; it goes with the next benchmark change,
    whose config builder still passes it (see ``init_working_set``).
    """

    init_threshold: float | None = None
    stabilization_alpha: float = 0.4
    use_online_anchor: bool = True
    pricing_tolerance: float = 1e-7
    max_new_columns_per_round: int | None = None
    max_rounds: int = 200

    def __post_init__(self):
        if not (0.0 < self.stabilization_alpha <= 1.0):
            raise ValueError("stabilization_alpha must lie in (0, 1]")
        if self.init_threshold is not None:
            raise ValueError("init_threshold is retired: sift seeds the m columns with the "
                             "largest reduced cost against the pre-pass dual")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_new_columns_per_round is not None and self.max_new_columns_per_round < 1:
            raise ValueError("max_new_columns_per_round must be >= 1")


@dataclass(frozen=True)
class SiftRound:
    round: int
    working_size: int
    priced: int
    objective: float
    wall_time_s: float
    iterations: int                 # simplex pivots of the round's working solve
    warm_started: bool              # that solve started from the previous basis


@dataclass(frozen=True)
class SiftResult:
    final_working_set: np.ndarray
    exact: SimplexResult            # solve of the final working problem (local ids)
    x: np.ndarray                   # optimal primal embedded in full length n
    y: np.ndarray                   # exact dual of the final working problem
    objective: float
    rounds: int
    rdc: float                      # initial working set size over n
    initial_working_set: np.ndarray | None = field(repr=False, default=None)
    trace: tuple[SiftRound, ...] = ()


def _top(scores: np.ndarray, k: int) -> np.ndarray:
    """Sorted positions of the k largest scores, ties to the lower one; O(n)."""
    if k >= scores.size:
        return np.arange(scores.size, dtype=np.int64)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(scores, scores.size - k)[scores.size - k]
    picked = scores > kth
    ties = np.flatnonzero(scores == kth)
    picked[ties[:k - np.count_nonzero(picked)]] = True
    return np.flatnonzero(picked).astype(np.int64)


def _reduced_costs(instance: LpInstance, y) -> np.ndarray:
    """c_j - <a_j, y> for every column, in one sparse sweep."""
    return instance.obj - instance.to_scipy().T @ _check_y(instance, y)


def init_working_set(instance: LpInstance, y, count: int) -> np.ndarray:
    """The ``count`` columns with the largest reduced cost c_j - <a_j, y>,
    ties to the lower index, as a sorted int64 array; every column when
    count >= n."""
    return _top(_reduced_costs(instance, y), count)


def price(instance: LpInstance, working_set, y, tol: float = 1e-7,
          max_new: int | None = None) -> np.ndarray:
    """Non-working columns with reduced cost c_j - <a_j, y> above tol.

    ``working_set`` is an array (or list) of column ids.  One sparse sweep;
    optionally truncated to the ``max_new`` most violated columns, ties to
    the lower index.
    """
    reduced = _reduced_costs(instance, y)
    outside = np.ones(instance.num_cols, dtype=bool)
    outside[np.asarray(working_set, dtype=np.int64)] = False
    violated = np.flatnonzero(outside & (reduced > tol))
    if max_new is not None:
        violated = violated[_top(reduced[violated], max_new)]
    return violated.astype(np.int64)


def stabilize(y_working, y_anchor, alpha: float) -> np.ndarray:
    """Convex combination alpha * y_working + (1 - alpha) * y_anchor."""
    y_working = np.asarray(y_working, dtype=np.float64)
    y_anchor = np.asarray(y_anchor, dtype=np.float64)
    if y_working.shape != y_anchor.shape:
        raise ValueError("dual vectors must share a shape")
    return alpha * y_working + (1.0 - alpha) * y_anchor


def basis_metrics(reference_support, initial_working_set, n: int) -> tuple[float, float]:
    """(acc, rdc): support recall of the seed set, the share of a reference
    optimum's support (its columns with x > 0) that the set holds, and the
    set's size over n.

    ``sift`` reports only rdc; acc needs a reference optimum, which costs a
    full exact solve, so callers that want it run that solve themselves.
    """
    ref = set(int(j) for j in reference_support)
    if not ref:
        raise ValueError("reference support is empty")
    seed = set(int(j) for j in initial_working_set)
    acc = len(ref & seed) / len(ref)
    rdc = len(seed) / n
    return acc, rdc


def _map_warm_basis(prev: SimplexResult, w_prev: np.ndarray, w_new: np.ndarray,
                    m: int) -> tuple[np.ndarray, np.ndarray]:
    """The previous basis and at-upper set as column ids of the new working
    problem: working columns move to their place in w_new, slacks shift."""
    new_id = np.concatenate([np.searchsorted(w_new, w_prev), w_new.size + np.arange(m)])

    def mapped(ids):
        return new_id[np.fromiter(ids, dtype=np.int64, count=len(ids))]
    return mapped(prev.basis), mapped(prev.at_upper)


def sift(instance: LpInstance, online_solution: OnlineSolution,
         config: SiftConfig | None = None) -> SiftResult:
    """Run the sifting loop from an online warm start.

    The pass's final dual, clipped at zero, picks the initial working set
    and serves as a fixed pricing anchor for the whole run.  Terminates only
    with a global pricing certificate (no column anywhere has reduced cost
    above the tolerance against the exact working dual) or raises
    SiftRoundLimit, whose partial result is the last working problem solved.
    """
    if config is None:
        config = SiftConfig()
    m, n = instance.num_rows, instance.num_cols
    if np.any(instance.rhs < 0):
        raise ValueError("sifting requires b >= 0 (all-slack start must be feasible)")

    anchor = np.maximum(online_solution.y_final, 0.0)
    # without a blend the pricing dual is the exact one, and an empty sweep certifies
    blend = config.use_online_anchor and config.stabilization_alpha < 1.0

    w = init_working_set(instance, anchor, m)
    w0 = w.copy()
    trace: list[SiftRound] = []
    res = None

    for round_no in range(1, config.max_rounds + 1):
        t0 = time.perf_counter()
        warm = None
        if res is not None:
            # grown only here, so the result describes the last set solved
            w_prev, w = w, np.union1d(w, priced)
            warm = _map_warm_basis(res, w_prev, w, m)
        res = solve_lp(instance.restrict_columns(w), warm_basis=warm)
        if res.status is not SolveStatus.OPTIMAL:
            raise RuntimeError(f"working problem solve failed: {res.status.value}")
        y_exact = res.y_star
        y_price = stabilize(y_exact, anchor, config.stabilization_alpha) if blend else y_exact
        priced = price(instance, w, y_price, config.pricing_tolerance,
                       config.max_new_columns_per_round)
        if priced.size == 0 and blend:
            # a blended dual cannot certify optimality: confirm with the
            # exact working dual over every column before terminating; a
            # capped sweep is empty only when the whole sweep is
            priced = price(instance, w, y_exact, config.pricing_tolerance,
                           config.max_new_columns_per_round)
        certified = priced.size == 0
        trace.append(SiftRound(round_no, w.size, priced.size, res.obj,
                               time.perf_counter() - t0, res.iterations,
                               res.warm_started))
        if certified:
            break

    x = np.zeros(n)
    x[w] = res.x_star
    result = SiftResult(final_working_set=w, exact=res, x=x, y=res.y_star, objective=res.obj,
                        rounds=len(trace), rdc=w0.size / n, initial_working_set=w0,
                        trace=tuple(trace))
    if not certified:
        raise SiftRoundLimit(f"no certificate after {config.max_rounds} rounds", result)
    return result
