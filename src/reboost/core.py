"""Shared domain types: datasets, additive ensemble models, traces, truncation.

The ensemble model stores one flat coefficient per term; re-scaling the
whole composite estimator multiplies every stored coefficient in place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class InvalidSpecError(ValueError):
    """Raised when a configuration object is internally inconsistent."""


class DegenerateDirectionError(RuntimeError):
    """Raised when a search direction is identically zero (no progress possible)."""


class UnboundedDescentError(RuntimeError):
    """Raised when a line search never brackets a minimizer.

    ``edge`` carries the last bracket endpoint reached (signed), which the
    training driver may use to cap the step.
    """

    def __init__(self, message: str, edge: float):
        super().__init__(message)
        self.edge = edge


class Task(enum.Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "binary-classification"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable design matrix, response vector and task kind.

    Parameters
    ----------
    features : (m, d) array of floats, all finite.
    targets : (m,) array of floats, all finite; for classification every
        entry must be -1 or +1.
    task : Task
    """

    features: np.ndarray
    targets: np.ndarray
    task: Task

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        targ = np.asarray(self.targets, dtype=float).ravel()
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise InvalidInputError("features must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features contain non-finite values")
        if targ.shape[0] != feats.shape[0]:
            raise InvalidInputError(
                f"targets length {targ.shape[0]} != rows {feats.shape[0]}"
            )
        if not np.all(np.isfinite(targ)):
            raise InvalidInputError("targets contain non-finite values")
        if self.task is Task.CLASSIFICATION and not (np.abs(targ) == 1.0).all():
            raise InvalidInputError("classification targets must be -1 or +1")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "targets", _readonly(targ))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class TraceRecord:
    """One completed boosting iteration."""

    k: int
    learner: str
    beta: float
    alpha: float
    risk: float
    note: str = ""


@dataclass
class TrainTrace:
    """Ordered per-iteration history of a training run."""

    records: list[TraceRecord] = field(default_factory=list)
    stopped_early: str | None = None

    def __post_init__(self):
        for i, rec in enumerate(self.records):
            if rec.k != i + 1:
                raise InvalidInputError("trace records must be ordered k=1,2,...")
            if not np.isfinite(rec.risk):
                raise InvalidInputError(f"non-finite risk at iteration {rec.k}")

    def append(self, rec: TraceRecord) -> None:
        if rec.k != len(self.records) + 1:
            raise InvalidInputError("trace records must be ordered k=1,2,...")
        if not np.isfinite(rec.risk):
            raise InvalidInputError(f"non-finite risk at iteration {rec.k}")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def risks(self) -> np.ndarray:
        return np.array([r.risk for r in self.records])

    @property
    def betas(self) -> np.ndarray:
        return np.array([r.beta for r in self.records])

    @property
    def alphas(self) -> np.ndarray:
        return np.array([r.alpha for r in self.records])


class EnsembleModel:
    """Additive model: intercept + sum(coefs[j] * learners[j](x)).

    ``coefs`` holds the effective coefficient of every term: the step it
    was added with times (1 - alpha) of every rescale applied after it.
    """

    def __init__(self, n_features: int | None = None, intercept: float = 0.0):
        self.n_features = n_features
        self.intercept = float(intercept)
        self.coefs = np.empty(0)
        self.learners: list = []

    def __len__(self) -> int:
        return len(self.learners)

    def add_term(self, beta: float, learner) -> None:
        """Append ``beta * learner`` to the model."""
        self.coefs = np.concatenate((self.coefs, (float(beta),)))
        self.learners.append(learner)

    def rescale(self, alpha: float) -> "EnsembleModel":
        """Multiply the whole current model by (1 - alpha), in place."""
        if not (0.0 <= alpha <= 1.0):
            raise InvalidInputError(f"rescale alpha must be in [0, 1], got {alpha}")
        self.coefs *= 1.0 - alpha
        self.intercept *= 1.0 - alpha
        return self

    def predict(self, features) -> np.ndarray:
        """Evaluate the model on a feature matrix (one row per sample)."""
        X = np.atleast_2d(np.asarray(features, dtype=float))
        if self.n_features is not None and X.shape[1] != self.n_features:
            raise InvalidInputError(
                f"model was fit on {self.n_features} features, got {X.shape[1]}"
            )
        acc = np.zeros(X.shape[0])
        for coef, learner in zip(self.coefs, self.learners):
            acc += coef * learner.evaluate(X)
        return self.intercept + acc


def truncate_predictions(preds, level: float) -> np.ndarray:
    """Clamp predictions to [-level, level], preserving sign."""
    if not level > 0:
        raise InvalidInputError(f"truncation level must be positive, got {level}")
    return np.clip(np.asarray(preds, dtype=float), -level, level)
