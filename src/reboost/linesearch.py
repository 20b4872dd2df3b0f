"""One-dimensional minimization of beta -> R(beta) = risk(base + beta * g).

Squared loss has a closed form. For the other losses R is convex with a
closed-form R'', so the search works on the derivative (the Newton step
of Friedman's TreeBoost and of XGBoost): it walks out from beta = 0 on
the descent side, doubling the probe from 1 until R' strictly changes
sign (at most ``_MAX_EXPANSIONS`` times), and then takes Newton steps on
R' inside that sign-change bracket, bisecting whenever a Newton step
would leave it. It stops once a step moves beta by at most ``_TOLERANCE``
relative to max(1, |beta|), or after ``_MAX_STEPS`` steps.

An optional bound t restricts the search to [-t, t]. R is convex, so the
bounded minimizer is the unbounded one clamped to [-t, t]: squared loss
clamps its closed form; the other losses return the bound on the descent
side when R' keeps one sign on [-t, t], and otherwise run the Newton
search inside that bracket.
"""

from __future__ import annotations

import math

import numpy as np

from scipy.special import expit

from reboost.core import DegenerateDirectionError, InvalidInputError, UnboundedDescentError
from reboost.losses import LossKind, _check_labels

_MAX_STEPS = 100  # Newton or bisection steps per search; a few suffice
_TOLERANCE = 1e-10  # on beta, relative to max(1, |beta|)
_MAX_EXPANSIONS = 60  # doublings of the bracket probe before giving up


def line_search_l2(base_preds, gvals, targets) -> float:
    """Exact minimizer of the squared-loss risk along ``gvals``."""
    base = np.asarray(base_preds, dtype=float)
    g = np.asarray(gvals, dtype=float)
    y = np.asarray(targets, dtype=float)
    gg = float(g @ g)
    if gg == 0.0:
        raise DegenerateDirectionError("direction is identically zero")
    return float(g @ (y - base) / gg)


def _make_objective(kind: LossKind, base, g, y):
    """The closure beta -> (R'(beta), R''(beta)) of the mean logistic or
    exponential risk along g.

    Precomputing y*base, y*g and (y*g)**2 makes each evaluation one pass
    over the sample that yields both derivatives, with the means taken as
    dot products: logistic R'' = mean(yg^2 s (1 - s)) with
    s = expit(-(yb + beta yg)), exponential R'' = mean(yg^2 e^-(yb + beta yg)).
    """
    m = y.size
    yb = y * base
    yg = y * g
    yg2 = yg * yg
    if kind is LossKind.LOGISTIC:
        def slope(b: float) -> tuple[float, float]:
            s = expit(-(yb + b * yg))
            return -float(yg @ s) / m, float(yg2 @ (s * (1.0 - s))) / m
    else:
        def slope(b: float) -> tuple[float, float]:
            with np.errstate(over="ignore"):
                w = np.exp(-(yb + b * yg))
            return -float(yg @ w) / m, float(yg2 @ w) / m
    return slope


def _expand_bracket(slope, max_expansions: int):
    """Walk from beta = 0 along the descent side, doubling the probe from 1,
    until R' strictly changes sign; return (lo, hi, at_near) with
    R'(lo) < 0 < R'(hi), where at_near is the (R', R'') pair at the end
    nearer 0, the point where the Newton search starts. When R'(0) = 0 the
    bracket is (0, 0).

    The strict test matters: on a separable instance the derivative keeps
    one sign forever and merely underflows to zero along the flat tail, so
    no probe ever qualifies and UnboundedDescentError (carrying the last
    signed probe, +-2**max_expansions) is raised once the budget runs out.
    """
    at_near = slope(0.0)
    if at_near[0] == 0.0:
        return 0.0, 0.0, at_near
    sign = 1.0 if at_near[0] < 0.0 else -1.0
    near, probe = 0.0, sign
    for _ in range(max_expansions + 1):
        at_probe = slope(probe)
        if sign * at_probe[0] > 0.0:
            return (near, probe, at_near) if sign > 0.0 else (probe, near, at_near)
        near, probe, at_near = probe, 2.0 * probe, at_probe
    raise UnboundedDescentError(
        f"no sign change within {max_expansions} expansions (edge {near})", near
    )


def _newton(slope, lo: float, hi: float, at_start, tol: float) -> float:
    """Safeguarded Newton on R' inside [lo, hi], where R'(lo) < 0 < R'(hi),
    from beta = 0 clamped into the bracket; ``at_start`` is the
    (R', R'') pair there.

    Each step moves an end of the bracket to beta by the sign of R'(beta),
    then takes the Newton step if it lands strictly inside the bracket and
    bisects otherwise. A Newton step within ``tol`` ends the search even
    when it rounds onto the bracket end it started from.
    """
    b = min(max(0.0, lo), hi)
    d1, d2 = at_start
    for _ in range(_MAX_STEPS):
        if d1 < 0.0:
            lo = b
        elif d1 > 0.0:
            hi = b
        else:
            return b
        step = b - d1 / d2 if d2 > 0.0 else math.inf
        tiny = tol * max(1.0, abs(b))
        if abs(step - b) > tiny and not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - b) <= tiny:
            return step
        b = step
        d1, d2 = slope(b)
    return b


def line_search(kind: LossKind, base_preds, gvals, targets,
                bound: float | None = None) -> float:
    """Minimize the empirical risk along ``gvals`` from ``base_preds``.

    With ``bound`` = t the result is the minimizer over [-t, t]: by
    convexity, the unbounded minimizer clamped to [-t, t]. A bound that is
    not positive (0, negative or NaN) raises InvalidInputError.
    """
    if bound is not None and not bound > 0:
        raise InvalidInputError(f"bound must be positive when given, got {bound}")
    base = np.asarray(base_preds, dtype=float)
    g = np.asarray(gvals, dtype=float)
    y = np.asarray(targets, dtype=float)
    if not np.any(g != 0.0):
        raise DegenerateDirectionError("direction is identically zero")
    _check_labels(kind, y)

    if kind is LossKind.SQUARED:
        beta = line_search_l2(base, g, y)
        return beta if bound is None else float(min(max(beta, -bound), bound))

    slope = _make_objective(kind, base, g, y)
    if bound is None:
        lo, hi, at_start = _expand_bracket(slope, _MAX_EXPANSIONS)
    elif slope(bound)[0] <= 0.0:
        return bound
    elif slope(-bound)[0] >= 0.0:
        return -bound
    else:
        lo, hi, at_start = -bound, bound, slope(0.0)
    return _newton(slope, lo, hi, at_start, _TOLERANCE)
