"""One-dimensional minimization of beta -> R(beta) = risk(base + beta * g).

Squared loss has a closed form, the only loss formula in this module. For
the logistic and exponential losses R is convex and ``losses.risk_slope``
gives R' and R'' in numpy alone. A search runs all its probes under one
``np.errstate`` that lets exp overflow quietly: the +inf it gives is the
value meant there (a logistic weight of 0, an infinite exponential loss).
One loop (``_search``) runs safeguarded Newton on R' from beta = 0 toward
the descent side: the Newton step of Friedman's TreeBoost and of XGBoost,
first taken from 0. Until R' changes sign the bracket is open and each
probe at least doubles its distance from 0; once it closes, Newton steps
that leave the bracket or stop shrinking give way to bisection.

An optional bound t restricts the search to [-t, t]; without one the search
runs over [-2**60, 2**60]. R is convex, so the bounded minimizer is the
unbounded one clamped to [-t, t]: squared loss clamps its closed form, and
the other losses return the bound itself when R' keeps the descent sign up
to it. An unbounded search that reaches 2**60 so raises
UnboundedDescentError with that signed edge.
"""

from __future__ import annotations

import math

import numpy as np

from reboost.core import DegenerateDirectionError, InvalidInputError, UnboundedDescentError
from reboost.losses import LossKind, risk_slope

_MAX_STEPS = 100  # steps before the search only bisects; a few suffice
_TOLERANCE = 1e-10  # on beta, relative to max(1, |beta|)
_EDGE = 2.0 ** 60  # the search edge when no bound is given


def _search(slope, edge: float) -> float:
    """The minimizer of R over [-edge, edge], walking from beta = 0 along
    the descent side; 0 when R'(0) = 0, and the signed edge when R' keeps
    the descent sign up to it.

    The bracket's far end stays open until R' is seen strictly past the
    minimizer. While it is open, a zero R' is the underflowed tail of a
    separable instance, not a minimizer, and each probe takes the Newton
    step but goes at least twice as far from 0 as the last one, capped at
    the edge; with no usable Newton step (R'' = 0) the first probe goes to
    1, since a jump to the edge would land where exp overflows. Once
    closed, each step takes the Newton step if it lands strictly inside the
    bracket and is at most half the step before last, and bisects
    otherwise: Newton steps that stop shrinking are slow, as where R'
    behaves like an exponential in beta and Newton moves beta by about the
    same amount each step. A probe where exp overflowed (R'' = +inf) has
    no usable Newton step and bisects too. A step within ``_TOLERANCE``
    ends the search even when it rounds onto the bracket end it started
    from. After ``_MAX_STEPS`` steps it only bisects.
    """
    d1, d2 = slope(0.0)
    sign = -1.0 if d1 > 0.0 else 1.0  # the descent side; below, x = sign * beta
    lo, hi, is_open = 0.0, edge, True  # R'(lo) < 0, and R'(hi) > 0 once closed
    x, d1 = 0.0, sign * d1
    last = before = math.inf  # the last two step lengths once closed
    for n in range(_MAX_STEPS + 1100):  # 1,100 halvings take any bracket below tiny
        if d1 < 0.0 or d1 == 0.0 and is_open and x > 0.0:
            lo = x
        elif d1 > 0.0:
            hi, is_open = x, False
        else:
            return sign * x
        if lo == edge:
            return sign * edge
        step = x - d1 / d2 if 0.0 < d2 < math.inf and n < _MAX_STEPS else math.nan
        if is_open:  # with no Newton step, double from 1
            step = min(max(2.0 * x, 1.0 if math.isnan(step) else step), edge)
        else:
            tiny = _TOLERANCE * max(1.0, abs(x))
            take_newton = lo < step < hi and abs(step - x) <= 0.5 * before
            if not (abs(step - x) <= tiny or take_newton):
                step = 0.5 * (lo + hi)
            if abs(step - x) <= tiny:
                return sign * step
            last, before = abs(step - x), last
        x = step
        d1, d2 = slope(sign * x)
        d1 *= sign
    return sign * x


def line_search(kind: LossKind, base_preds, gvals, targets,
                bound: float | None = None) -> float:
    """Minimize the empirical risk along ``gvals`` from ``base_preds``.

    With ``bound`` = t the result is the minimizer over [-t, t]: by
    convexity, the unbounded minimizer clamped to [-t, t]. A bound outside
    (0, inf), NaN too, raises InvalidInputError.
    """
    if bound is not None and not 0 < bound < np.inf:
        raise InvalidInputError(f"bound must be positive and finite when given, got {bound}")
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
    edge = _EDGE if bound is None else bound
    with np.errstate(over="ignore"):  # e^z past 709.78 in a probe; +inf is meant
        beta = _search(risk_slope(kind, base, g, y), edge)
    if bound is None and abs(beta) == edge:
        raise UnboundedDescentError(f"R' keeps the descent sign up to the edge {beta}", beta)
    return beta
