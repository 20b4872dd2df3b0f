"""Convex losses, their derivatives in the prediction, and empirical risk.

All functions are vectorized over numpy arrays and accept scalars. The
logistic loss is computed in an overflow-safe form; the exponential loss
returns +inf once exp would overflow (callers must keep searches out of
that region).
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
    """d/df of the pointwise loss."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_labels(kind, y)
    if kind is LossKind.SQUARED:
        return 2.0 * (f - y)
    if kind is LossKind.LOGISTIC:
        # -y / (1 + exp(y f)) = -y * sigmoid(-y f)
        return -y * expit(-y * f)
    with np.errstate(over="ignore"):
        return -y * np.exp(-y * f)


def empirical_risk(kind: LossKind, preds, targets) -> float:
    """Mean pointwise loss over the sample."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape or preds.size < 1:
        raise InvalidInputError("preds and targets must be equal-length, nonempty")
    return float(np.mean(loss_value(kind, preds, targets)))


def neg_gradient_inner(kind: LossKind, preds, targets, gvals) -> float:
    """Negative directional derivative of the risk along ``gvals``.

    Returns -(1/m) sum_i loss'(preds_i, targets_i) * gvals_i, which equals
    -d/dt empirical_risk(preds + t * gvals) at t = 0.
    """
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    gvals = np.asarray(gvals, dtype=float)
    if not (preds.shape == targets.shape == gvals.shape):
        raise InvalidInputError("preds, targets, gvals must have equal lengths")
    return float(-np.mean(loss_derivative(kind, preds, targets) * gvals))


def pseudo_residuals(kind: LossKind, preds, targets) -> np.ndarray:
    """Per-sample negative gradient; the regression target for weak learners."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape:
        raise InvalidInputError("preds and targets must have equal lengths")
    return -loss_derivative(kind, preds, targets)
