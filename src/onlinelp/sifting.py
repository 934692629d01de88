"""Sifting: column generation for n >> m LPs, seeded by an online pass.

The working problem restricted to a column set W is solved exactly, its
dual is blended with the online pass's final dual (the "anchor") for
pricing only, dual-infeasible columns are added to W, and the loop repeats
until a full pricing sweep with the *exact* working dual certifies global
optimality.  Columns are never removed, so the working objective is
nondecreasing across rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import LpInstance
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

    ``init_threshold`` of None resolves to 1/K, where K is the duplication
    factor recovered from the online solution.  ``stabilization_alpha`` is
    the weight on the exact working dual in the pricing blend; 1.0 turns
    stabilization off.
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
        if self.init_threshold is not None and self.init_threshold < 0:
            raise ValueError("init_threshold must be nonnegative")
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


def init_working_set(x_hat, threshold: float, fallback_count: int) -> np.ndarray:
    """Columns scored at or above the threshold; top-k fallback when empty."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    picked = np.flatnonzero(x_hat >= threshold)
    if picked.size == 0:
        k = min(fallback_count, x_hat.size)
        order = np.lexsort((np.arange(x_hat.size), -x_hat))  # value desc, index asc
        picked = np.sort(order[:k])
    return picked.astype(np.int64)


def price(instance: LpInstance, working_set, y, tol: float = 1e-7,
          max_new: int | None = None) -> np.ndarray:
    """Non-working columns with reduced cost c_j - <a_j, y> above tol.

    ``working_set`` is an array (or list) of column ids.  One sparse sweep;
    optionally truncated to the most violated columns.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (instance.num_rows,):
        raise ValueError(f"y must have shape ({instance.num_rows},)")
    reduced = instance.obj - instance.to_scipy().T @ y
    outside = np.ones(instance.num_cols, dtype=bool)
    outside[np.asarray(working_set, dtype=np.int64)] = False
    violated = np.flatnonzero(outside & (reduced > tol))
    if max_new is not None and violated.size > max_new:
        worst = np.argsort(reduced[violated])[::-1][:max_new]
        violated = np.sort(violated[worst])
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

    The initial working set keeps columns whose online estimate clears the
    threshold; the online final dual serves as a fixed pricing anchor for
    the whole run.  Terminates only with a global pricing certificate (no
    column anywhere has reduced cost above the tolerance against the exact
    working dual) or raises SiftRoundLimit.
    """
    if config is None:
        config = SiftConfig()
    m, n = instance.num_rows, instance.num_cols
    if np.any(instance.rhs < 0):
        raise ValueError("sifting requires b >= 0 (all-slack start must be feasible)")

    x_hat = online_solution.x_hat
    k_dup = max(1, round(online_solution.elapsed_columns / n))
    threshold = config.init_threshold if config.init_threshold is not None else 1.0 / k_dup
    anchor = np.maximum(online_solution.y_final, 0.0)
    # without a blend the pricing dual is the exact one, and an empty sweep certifies
    blend = config.use_online_anchor and config.stabilization_alpha < 1.0

    w = init_working_set(x_hat, threshold, m)
    w0 = w.copy()
    prev_res = None
    prev_w = None
    trace: list[SiftRound] = []
    res = None

    for round_no in range(1, config.max_rounds + 1):
        t0 = time.perf_counter()
        sub = instance.restrict_columns(w)
        warm = None
        if prev_res is not None:
            warm = _map_warm_basis(prev_res, prev_w, w, m)
        res = solve_lp(sub, warm_basis=warm)
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
        prev_res, prev_w = res, w
        w = np.union1d(w, priced)

    x = np.zeros(n)
    x[w] = res.x_star
    result = SiftResult(
        final_working_set=w,
        exact=res,
        x=x,
        y=res.y_star,
        objective=res.obj,
        rounds=len(trace),
        rdc=w0.size / n,
        initial_working_set=w0,
        trace=tuple(trace),
    )
    if not certified:
        raise SiftRoundLimit(
            f"no certificate after {config.max_rounds} rounds", result
        )
    return result
