"""Convex losses, their derivatives in the prediction, and empirical risk.

Squared loss is (f - y)^2. The logistic and exponential losses take labels
y in {-1, +1} and are phi(z) = log(1 + e^-z) or e^-z at the margin z = y f,
with the weight w(z) = -phi'(z) = 1 / (1 + e^z) or e^-z and the curvature
phi''(z) = w (1 - w) or w. The kernel ``_loss`` and ``empirical_risk`` use
phi, the kernel ``_residuals`` (the negative gradient -d/df) uses w, and
``risk_slope`` uses w and phi'' for the derivatives of the risk along a
direction. Everything is numpy: the logistic weight is numpy's ``exp``,
with e^z overflowing to +inf above z = 709.78 and w to 0 there, as
``1 / (1 + exp(z))`` does in any libm.

All functions are vectorized over numpy arrays and accept scalars. The
logistic loss is overflow-safe; the exponential loss returns +inf once exp
would overflow, and R' and R'' from ``risk_slope`` become infinite too. The
line search reads a probe there as lying past the minimizer and bisects
back, so callers need not keep searches out of that region.

Only the two public functions check their arguments, raising
InvalidInputError: ``empirical_risk`` its shapes, and ``risk_slope`` that
its loss is a margin loss; both, labels in {-1, +1} for the margin
losses. The private kernels ``_loss``, ``_residuals`` and ``_risk`` check
nothing: ``boosters.train`` checks its dataset and loss once on entry and
then calls them at every step.
"""

from __future__ import annotations

import enum

import numpy as np

from reboost.core import InvalidInputError


class LossKind(enum.Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"

    @property
    def is_classification(self) -> bool:
        return self is not LossKind.SQUARED


def _checked(kind: LossKind, f, y) -> tuple[np.ndarray, np.ndarray]:
    """``f`` and ``y`` as float arrays, once ``y`` holds labels the loss takes."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    if kind.is_classification and not (np.abs(y) == 1.0).all():
        raise InvalidInputError(f"{kind.value} loss requires labels in {{-1, +1}}")
    return f, y


def _loss(kind: LossKind, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind is LossKind.SQUARED:
        return (f - y) ** 2
    if kind is LossKind.LOGISTIC:
        # log(1 + exp(-y f)) via logaddexp, stable for any magnitude of f
        return np.logaddexp(0.0, -y * f)
    with np.errstate(over="ignore"):
        return np.exp(-y * f)


def _residuals(kind: LossKind, f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-d/df of the pointwise loss: y w(y f) for the margin losses."""
    if kind is LossKind.SQUARED:
        return -2.0 * (f - y)  # -0 where f = y, as -(2 (f - y)); 2 (y - f) gives +0
    with np.errstate(over="ignore"):
        if kind is LossKind.LOGISTIC:
            return y / (1.0 + np.exp(y * f))  # y w, as y = +-1
        return y * np.exp(-y * f)


def _risk(kind: LossKind, f: np.ndarray, y: np.ndarray) -> float:
    v = _loss(kind, f, y)
    return float(np.add.reduce(v) / v.size)  # np.mean(v) bit for bit, without its overhead


def empirical_risk(kind: LossKind, preds, targets) -> float:
    """Mean pointwise loss over the sample."""
    preds, targets = _checked(kind, preds, targets)
    if preds.shape != targets.shape or preds.size < 1:
        raise InvalidInputError("preds and targets must be equal-length, nonempty")
    return _risk(kind, preds, targets)


def risk_slope(kind: LossKind, base, g, y):
    """The closure beta -> (R'(beta), R''(beta)) of the logistic or
    exponential risk R(beta) = mean_i phi(y_i (base_i + beta g_i)).

    With z = y (base + beta g), R' = -mean(y g w(z)) and
    R'' = mean((y g)^2 phi''(z)). Precomputing y*base, y*g and (y*g)**2
    makes each evaluation one pass over the sample, with the means taken
    as dot products. Each evaluation writes w, and for the logistic loss
    w (1 - w), into two buffers made here, so it allocates no array.

    e^z overflows once z > 709.78 (the exponential loss: once -z does),
    and numpy then warns. An evaluation does not silence that itself: an
    ``np.errstate`` per evaluation added about a third to its time at
    n = 200 (numpy 2.4, x86-64). Call the closure under
    ``np.errstate(over="ignore")``, as ``linesearch.line_search`` does
    once per search.
    """
    if not kind.is_classification:
        raise InvalidInputError(f"risk_slope needs a margin loss, got {kind.value}")
    base, y = _checked(kind, base, y)
    g = np.asarray(g, dtype=float)
    m = y.size
    yb, yg = y * base, y * g
    yg2 = yg * yg
    logistic = kind is LossKind.LOGISTIC
    w = np.empty(m)
    curvature = np.empty(m) if logistic else w  # phi''(z), which is w for e^-z

    def slope(b: float) -> tuple[float, float]:
        np.add(yb, np.multiply(yg, b, out=w), out=w)  # z
        if logistic:  # w = 1 / (1 + e^z)
            np.reciprocal(np.add(np.exp(w, out=w), 1.0, out=w), out=w)
            np.multiply(w, np.subtract(1.0, w, out=curvature), out=curvature)
        else:  # w = e^-z
            np.exp(np.negative(w, out=w), out=w)
        return -float(yg @ w) / m, float(yg2 @ curvature) / m
    return slope
