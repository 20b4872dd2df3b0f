"""Convex losses, their derivatives in the prediction, and empirical risk.

Squared loss is (f - y)^2. The logistic and exponential losses take labels
y in {-1, +1} and are phi(z) = log(1 + e^-z) or e^-z at the margin z = y f,
with the weight w(z) = -phi'(z) = expit(-z) or e^-z and the curvature
phi''(z) = w (1 - w) or w. ``loss_value`` and ``empirical_risk`` use phi,
``loss_derivative`` and ``pseudo_residuals`` use w, and ``risk_slope`` uses
w and phi'' for the derivatives of the risk along a direction.

All functions are vectorized over numpy arrays and accept scalars. The
logistic loss is overflow-safe; the exponential loss returns +inf once exp
would overflow, and R' and R'' from ``risk_slope`` become infinite too. The
line search reads a probe there as lying past the minimizer and bisects
back, so callers need not keep searches out of that region.

Each public function checks its arguments (shapes, and labels in {-1, +1}
for the margin losses), raising InvalidInputError, and then calls a private
kernel that checks nothing: ``_loss``, ``_residuals`` or ``_risk``.
``boosters.train`` checks its dataset and loss once on entry and then calls
the kernels at every step.
"""

from __future__ import annotations

import enum
import functools

import numpy as np

from reboost.core import InvalidInputError


class LossKind(enum.Enum):
    SQUARED = "squared"
    LOGISTIC = "logistic"
    EXPONENTIAL = "exponential"

    @property
    def is_classification(self) -> bool:
        return self is not LossKind.SQUARED


@functools.cache
def _margin_weight(kind: LossKind):
    """The margin weight w(z) = -phi'(z) of a margin loss, as a ufunc of -z.

    scipy.special is imported here, on the first logistic use, and not with
    this module: it is most of the import time and memory of a run that
    uses no margin loss. The cache makes later calls a lookup.
    """
    if kind is LossKind.EXPONENTIAL:
        return np.exp
    from scipy.special import expit
    return expit


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
        return y * _margin_weight(kind)(-y * f)


def _risk(kind: LossKind, f: np.ndarray, y: np.ndarray) -> float:
    v = _loss(kind, f, y)
    return float(np.add.reduce(v) / v.size)  # np.mean(v) bit for bit, without its overhead


def loss_value(kind: LossKind, f, y):
    """Pointwise loss of prediction ``f`` against target ``y``."""
    return _loss(kind, *_checked(kind, f, y))


def loss_derivative(kind: LossKind, f, y):
    """d/df of the pointwise loss: -y w(y f) for the margin losses."""
    return -_residuals(kind, *_checked(kind, f, y))


def empirical_risk(kind: LossKind, preds, targets) -> float:
    """Mean pointwise loss over the sample."""
    preds, targets = _checked(kind, preds, targets)
    if preds.shape != targets.shape or preds.size < 1:
        raise InvalidInputError("preds and targets must be equal-length, nonempty")
    return _risk(kind, preds, targets)


def pseudo_residuals(kind: LossKind, preds, targets) -> np.ndarray:
    """Per-sample negative gradient; the regression target for weak learners."""
    preds, targets = _checked(kind, preds, targets)
    if preds.shape != targets.shape:
        raise InvalidInputError("preds and targets must have equal lengths")
    return _residuals(kind, preds, targets)


def risk_slope(kind: LossKind, base, g, y):
    """The closure beta -> (R'(beta), R''(beta)) of the logistic or
    exponential risk R(beta) = mean_i phi(y_i (base_i + beta g_i)).

    With z = y (base + beta g), R' = -mean(y g w(z)) and
    R'' = mean((y g)^2 phi''(z)). Precomputing y*base, y*g and (y*g)**2
    makes each evaluation one pass over the sample, with the means taken
    as dot products.
    """
    if not kind.is_classification:
        raise InvalidInputError(f"risk_slope needs a margin loss, got {kind.value}")
    base, y = _checked(kind, base, y)
    g = np.asarray(g, dtype=float)
    weight, m = _margin_weight(kind), y.size
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
