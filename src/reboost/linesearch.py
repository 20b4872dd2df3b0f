"""One-dimensional minimization of beta -> R(beta) = risk(base + beta * g).

Squared loss has a closed form, the only loss formula in this module. For
the logistic and exponential losses R is convex and ``losses.risk_slope``
gives R' and R''. The search brackets a sign change of R' by doubling a
probe from beta = 0 on the descent side (``_expand_bracket``), then runs
safeguarded Newton on R' inside the bracket (``_newton``): the Newton step
of Friedman's TreeBoost and of XGBoost.

An optional bound t restricts the search to [-t, t]. R is convex, so the
bounded minimizer is the unbounded one clamped to [-t, t]: squared loss
clamps its closed form; the other losses return the bound on the descent
side when R' keeps one sign on [-t, t], and otherwise run the Newton
search inside that bracket.
"""

from __future__ import annotations

import math

import numpy as np

from reboost.core import DegenerateDirectionError, InvalidInputError, UnboundedDescentError
from reboost.losses import LossKind, risk_slope

_MAX_STEPS = 100  # steps before the search only bisects; a few suffice
_TOLERANCE = 1e-10  # on beta, relative to max(1, |beta|)
_MAX_EXPANSIONS = 60  # doublings of the bracket probe before giving up


def _expand_bracket(slope):
    """Walk from beta = 0 along the descent side, doubling the probe from 1,
    until R' strictly changes sign; return (lo, hi, at_near) with
    R'(lo) < 0 < R'(hi), where at_near is the (R', R'') pair at the end
    nearer 0, the point where the Newton search starts. When R'(0) = 0 the
    bracket is (0, 0).

    The strict test matters: on a separable instance the derivative keeps
    one sign forever and merely underflows to zero along the flat tail, so
    no probe ever qualifies and UnboundedDescentError (carrying the last
    signed probe, +-2**_MAX_EXPANSIONS) is raised once the budget runs out.
    """
    at_near = slope(0.0)
    if at_near[0] == 0.0:
        return 0.0, 0.0, at_near
    sign = 1.0 if at_near[0] < 0.0 else -1.0
    near, probe = 0.0, sign
    for _ in range(_MAX_EXPANSIONS + 1):
        at_probe = slope(probe)
        if sign * at_probe[0] > 0.0:
            return (near, probe, at_near) if sign > 0.0 else (probe, near, at_near)
        near, probe, at_near = probe, 2.0 * probe, at_probe
    raise UnboundedDescentError(
        f"no sign change within {_MAX_EXPANSIONS} expansions (edge {near})", near
    )


def _newton(slope, lo: float, hi: float, at_start) -> float:
    """Safeguarded Newton on R' inside [lo, hi], where R'(lo) < 0 < R'(hi),
    from beta = 0 clamped into the bracket; ``at_start`` is the
    (R', R'') pair there.

    Each step moves an end of the bracket to beta by the sign of R'(beta),
    then takes the Newton step if it lands strictly inside the bracket and
    bisects otherwise. A step within ``_TOLERANCE`` ends the search even
    when it rounds onto the bracket end it started from. After
    ``_MAX_STEPS`` steps it only bisects: where R' behaves like an
    exponential in beta, Newton moves beta by about the same amount each
    step and can need hundreds of steps.
    """
    b = min(max(0.0, lo), hi)
    d1, d2 = at_start
    for n in range(_MAX_STEPS + 1100):  # 1,100 halvings take any bracket below tiny
        if d1 < 0.0:
            lo = b
        elif d1 > 0.0:
            hi = b
        else:
            return b
        step = b - d1 / d2 if d2 > 0.0 and n < _MAX_STEPS else math.inf
        tiny = _TOLERANCE * max(1.0, abs(b))
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
    if kind is LossKind.SQUARED:  # g.g is 0 also when a nonzero g underflows
        gg = float(g @ g)
        if gg == 0.0:
            raise DegenerateDirectionError("direction is identically zero")
        beta = float(g @ (y - base) / gg)
        return beta if bound is None else float(min(max(beta, -bound), bound))
    if not np.any(g != 0.0):
        raise DegenerateDirectionError("direction is identically zero")
    slope = risk_slope(kind, base, g, y)
    if bound is None:
        lo, hi, at_start = _expand_bracket(slope)
    elif slope(bound)[0] <= 0.0:
        return bound
    elif slope(-bound)[0] >= 0.0:
        return -bound
    else:
        lo, hi, at_start = -bound, bound, slope(0.0)
    return _newton(slope, lo, hi, at_start)
