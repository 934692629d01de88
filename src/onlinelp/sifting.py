"""Sifting: column generation for n >> m LPs, seeded by an online pass.

The pass gives its final dual y, clipped at zero (the "anchor").  Its
reduced costs pick the first working set W, the m columns with the
largest c_j - <a_j, y>.  Each round solves the working problem on W
exactly and prices the other columns in one sweep of A: by the fixed
blend ALPHA * r_W + (1 - ALPHA) * r_anchor of the two reduced costs, and
by r_W alone when the blend prices nothing, so that an empty sweep
certifies global optimality.  Columns are never removed, so the working
objective is nondecreasing across rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import LpInstance, _reduced_costs
from .online import OnlineSolution
from .simplex import SimplexResult, SolveStatus, solve_lp

__all__ = [
    "SiftConfig",
    "SiftRound",
    "SiftResult",
    "SiftRoundLimit",
    "init_working_set",
    "price",
    "sift",
    "basis_metrics",
]

# Pricing weight on the working dual's reduced costs; the anchor's take the
# rest.  The blend pays: on demo 04's instance (m=50, n=2*10^4, tau=0.05,
# sigma=0.1), pricing by the working dual alone grows the final working set
# from 267 to 5,868 columns and sift's time from 4-6 to 44-62 ms (raw).
ALPHA = 0.4


class SiftRoundLimit(RuntimeError):
    """Round cap hit before certification; `partial` holds the best result."""

    def __init__(self, message: str, partial: "SiftResult"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SiftConfig:
    """Settings of the sifting loop; pricing has one fixed rule (``price``).

    ``init_threshold``, ``stabilization_alpha`` and ``use_online_anchor``
    are retired and accept only their defaults; they go with the next
    benchmark change, whose config builder still passes them.
    """

    init_threshold: float | None = None
    stabilization_alpha: float = ALPHA
    use_online_anchor: bool = True
    pricing_tolerance: float = 1e-7
    max_new_columns_per_round: int | None = None
    max_rounds: int = 200

    def __post_init__(self):
        if self.init_threshold is not None:
            raise ValueError("init_threshold is retired: sift seeds the m columns with the "
                             "largest reduced cost against the pre-pass dual")
        if self.stabilization_alpha != ALPHA or self.use_online_anchor is not True:
            raise ValueError("stabilization_alpha and use_online_anchor are retired: sift "
                             f"prices by one blend, weight {ALPHA} on the working dual")
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


def init_working_set(instance: LpInstance, y, count: int) -> np.ndarray:
    """The ``count`` columns with the largest reduced cost c_j - <a_j, y>,
    ties to the lower index, as a sorted int64 array; every column when
    count >= n."""
    return _top(_reduced_costs(instance, y), count)


def price(instance: LpInstance, working_set, y, tol: float = 1e-7,
          max_new: int | None = None, anchor_reduced: np.ndarray | None = None) -> np.ndarray:
    """Non-working columns with reduced cost r = c_j - <a_j, y> above tol.

    ``working_set`` is an array (or list) of column ids.  One sparse sweep;
    optionally truncated to the ``max_new`` most violated columns, ties to
    the lower index.  Given the anchor's reduced costs ``anchor_reduced``,
    columns are priced by ALPHA * r + (1 - ALPHA) * anchor_reduced, and by r
    alone when that prices none, so an empty result still certifies y.
    """
    reduced = _reduced_costs(instance, y)
    reduced[np.asarray(working_set, dtype=np.int64)] = -np.inf   # and so in the blend
    if anchor_reduced is not None:
        blended = ALPHA * reduced
        blended += (1.0 - ALPHA) * anchor_reduced
        if np.any(blended > tol):
            reduced = blended
    violated = np.flatnonzero(reduced > tol)
    if max_new is not None:
        violated = violated[_top(reduced[violated], max_new)]
    return violated.astype(np.int64)


def basis_metrics(reference_support, initial_working_set, n: int) -> tuple[float, float]:
    """(acc, rdc): support recall of the seed set, the share of a reference
    optimum's support (its columns with x > 0) that the set holds, and the
    set's size over n.

    ``sift`` reports only rdc.  acc needs a reference optimum: ``onlinelp
    sift`` takes the support of ``sift``'s own certified optimum, so no
    extra solve is needed.
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

    The pass's final dual, clipped at zero, is swept once: its reduced costs
    pick the initial working set and anchor pricing for the whole run, and
    each round sweeps A once more, in ``price``.  Terminates only with a
    global pricing certificate (no column anywhere has reduced cost above the
    tolerance against the exact working dual) or raises SiftRoundLimit, whose
    partial result is the last working problem solved.
    """
    if config is None:
        config = SiftConfig()
    m, n = instance.num_rows, instance.num_cols
    if np.any(instance.rhs < 0):
        raise ValueError("sifting requires b >= 0 (all-slack start must be feasible)")

    anchor_reduced = _reduced_costs(instance, np.maximum(online_solution.y_final, 0.0))
    w = _top(anchor_reduced, m)
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
        # a capped sweep is empty only when the whole sweep is
        priced = price(instance, w, res.y_star, config.pricing_tolerance,
                       config.max_new_columns_per_round, anchor_reduced=anchor_reduced)
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
