"""Euclidean projection onto a weighted simplex via breakpoint search.

Solves  min ||y - v||^2  s.t.  <w, y> = target,  y >= 0.  The KKT system
gives y = [v - theta * w]_+ for a scalar multiplier theta, and
g(theta) = <w, [v - theta*w]_+> is piecewise linear and nonincreasing for
any sign pattern of w, so theta is located by sorting the breakpoints
v_i / w_i and interpolating on the bracketing segment.  That sort and the
sums of the active hinges, ``_breakpoint_sums``, are the package's one
breakpoint search; f_bar (``model._uniform_dual_value``) searches them too.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["project_weighted_simplex", "ProjectionInfeasibleError"]

TARGET_RTOL = 1e-9


class ProjectionInfeasibleError(ValueError):
    """The hyperplane section {<w,y> = target, y >= 0} is empty."""


def _breakpoint_sums(ratio: np.ndarray, slope: np.ndarray, terms: np.ndarray):
    """The breakpoints r of hinges [slope_i * (ratio_i - t)]_+ (slope has no
    zeros), sorted stably, and sums[:, p] for p = 0..N: for each row of
    ``terms``, its entries of positive slope at sorted positions >= p,
    added from the last position down, plus those of negative slope at
    positions < p, added from the first up.  For a p that starts a group of
    equal breakpoints, these are the hinges positive between r[p-1] and r[p].
    """
    order = ratio.argsort(kind="stable")
    terms = terms.take(order, axis=1)
    up = slope.take(order) > 0.0
    zero = np.zeros((len(terms), 1))
    above = np.concatenate(((terms * up)[:, ::-1].cumsum(axis=1)[:, ::-1], zero), axis=1)
    below = np.concatenate((zero, (terms * ~up).cumsum(axis=1)), axis=1)
    return ratio.take(order), above + below


def _solve_multiplier(v: np.ndarray, w: np.ndarray, target: float) -> float:
    """Multiplier theta with <w, [v - theta*w]_+> = target (w has no zeros)."""
    t, sums = _breakpoint_sums(v / w, w, w * np.array((v, w)))
    # g(t_k) = s1 - t_k * s2, from the sums at the start of t_k's group of
    # ties, so that equal breakpoints read one value of g
    first = t.searchsorted(t, side="left")
    s1, s2 = sums[:, first]
    k = int(np.searchsorted(-(s1 - t * s2), -target, side="left"))  # first g(t_k) <= target
    # g is linear on (t_{k-1}, t_k], and past the last breakpoint when k = N
    s1, s2 = sums[:, first[k] if k < t.size else k]
    if s2 <= 0.0:
        return float(t[min(k, t.size - 1)])  # g is flat: == target, or 0 past the end
    return float((s1 - target) / s2)


def project_weighted_simplex(v, w, target: float, return_multiplier: bool = False):
    """Project v onto {y : <w, y> = target, y >= 0}.

    Parameters
    ----------
    v, w : array_like, same length
        Point to project and (possibly mixed-sign) weight vector.
    target : float
        Right-hand side of the equality constraint.
    return_multiplier : bool
        When True, also return the equality multiplier theta of the KKT
        form y = [v - theta*w]_+.

    Raises
    ------
    ValueError
        When v and w are not 1-d of equal length, or an entry of v or w or
        the target is not finite: the search's test on the attained target
        is False for a NaN, so it would return a NaN or a wrong y.
    ProjectionInfeasibleError
        When no multiplier attains the target (the feasible set is empty,
        e.g. w >= 0 with a negative target).
    """
    v = np.asarray(v, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError("v and w must be 1-d arrays of equal length")
    target = float(target)
    if not (math.isfinite(target) and np.isfinite((v, w)).all()):
        raise ValueError("v, w and target must be finite")

    nz = w != 0.0
    if not np.any(nz):
        if abs(target) <= TARGET_RTOL:
            y = np.maximum(v, 0.0)
            return (y, 0.0) if return_multiplier else y
        raise ProjectionInfeasibleError("all weights are zero but target is nonzero")

    theta = _solve_multiplier(v[nz], w[nz], target)
    y = np.maximum(v - theta * w, 0.0)
    y[~nz] = np.maximum(v[~nz], 0.0)

    attained = float(w @ y)
    if abs(attained - target) > TARGET_RTOL * (1.0 + abs(target)):
        raise ProjectionInfeasibleError(
            f"target {target} unreachable (best residual {attained - target:.3e})"
        )
    return (y, theta) if return_multiplier else y
