"""Convex losses, their derivatives in the prediction, and empirical risk.

Squared loss is (f - y)^2. The logistic and exponential losses take labels
y in {-1, +1} and are phi(z) = log(1 + e^-z) or e^-z at the margin z = y f,
with the weight w(z) = -phi'(z) = expit(-z) or e^-z and the curvature
phi''(z) = w (1 - w) or w. ``loss_value`` and ``empirical_risk`` use phi,
``loss_derivative`` and ``pseudo_residuals`` use w, and ``risk_slope`` uses
w and phi'' for the derivatives of the risk along a direction.

All functions are vectorized over numpy arrays and accept scalars. The
logistic loss is overflow-safe; the exponential loss returns +inf once exp
would overflow (callers must keep searches out of that region).
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import expit

from reboost.core import InvalidInputError


class LossKind(enum.Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"

    @property
    def is_classification(self) -> bool:
        return self is not LossKind.SQUARED


# the margin weight w(z) = -phi'(z) of each margin loss, as a ufunc of -z
_MARGIN_WEIGHT = {LossKind.LOGISTIC: expit, LossKind.EXPONENTIAL: np.exp}


def _check_labels(kind: LossKind, y: np.ndarray) -> None:
    if kind.is_classification and not (np.abs(y) == 1.0).all():
        raise InvalidInputError(f"{kind.value} loss requires labels in {{-1, +1}}")


def loss_value(kind: LossKind, f, y):
    """Pointwise loss of prediction ``f`` against target ``y``."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_labels(kind, y)
    if kind is LossKind.SQUARED:
        return (f - y) ** 2
    if kind is LossKind.LOGISTIC:
        # log(1 + exp(-y f)) via logaddexp, stable for any magnitude of f
        return np.logaddexp(0.0, -y * f)
    with np.errstate(over="ignore"):
        return np.exp(-y * f)


def loss_derivative(kind: LossKind, f, y):
    """d/df of the pointwise loss: -y w(y f) for the margin losses."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_labels(kind, y)
    if kind is LossKind.SQUARED:
        return 2.0 * (f - y)
    with np.errstate(over="ignore"):
        return -y * _MARGIN_WEIGHT[kind](-y * f)


def empirical_risk(kind: LossKind, preds, targets) -> float:
    """Mean pointwise loss over the sample."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape or preds.size < 1:
        raise InvalidInputError("preds and targets must be equal-length, nonempty")
    return float(np.mean(loss_value(kind, preds, targets)))


def pseudo_residuals(kind: LossKind, preds, targets) -> np.ndarray:
    """Per-sample negative gradient; the regression target for weak learners."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape:
        raise InvalidInputError("preds and targets must have equal lengths")
    return -loss_derivative(kind, preds, targets)


def risk_slope(kind: LossKind, base, g, y):
    """The closure beta -> (R'(beta), R''(beta)) of the logistic or
    exponential risk R(beta) = mean_i phi(y_i (base_i + beta g_i)).

    With z = y (base + beta g), R' = -mean(y g w(z)) and
    R'' = mean((y g)^2 phi''(z)). Precomputing y*base, y*g and (y*g)**2
    makes each evaluation one pass over the sample, with the means taken
    as dot products.
    """
    if kind not in _MARGIN_WEIGHT:
        raise InvalidInputError(f"risk_slope needs a margin loss, got {kind.value}")
    base, g, y = (np.asarray(a, dtype=float) for a in (base, g, y))
    _check_labels(kind, y)
    weight, m = _MARGIN_WEIGHT[kind], y.size
    yb, yg = y * base, y * g
    yg2 = yg * yg
    if kind is LossKind.LOGISTIC:
        def slope(b: float) -> tuple[float, float]:
            w = weight(-(yb + b * yg))
            return -float(yg @ w) / m, float(yg2 @ (w * (1.0 - w))) / m
    else:
        def slope(b: float) -> tuple[float, float]:
            with np.errstate(over="ignore"):  # R' and R'' become +-inf with w
                w = weight(-(yb + b * yg))
                return -float(yg @ w) / m, float(yg2 @ w) / m
    return slope
