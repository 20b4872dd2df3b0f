"""Shared domain types: datasets, additive ensemble models, traces, truncation.

A training trace is the one recorded value of a run's path
f_k = (1 - alpha_k) f_{k-1} + beta_k g_k. It is stored as columns: the
step learners (references shared with the models built from it), float64
arrays of beta, alpha and risk, the notes of the steps that have one, the
feature count of the training data, and ``stopped_early``. ``add`` is the
one way to write a step, and ``model(k)`` the one way to build the model
of a prefix: an ``EnsembleModel``, a value built once with one read-only
coefficient per term. The trace's ``TraceRecord`` rows are built on each
read of ``records`` and not cached.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class InvalidSpecError(ValueError):
    """Raised when a configuration object is internally inconsistent."""


class DegenerateDirectionError(RuntimeError):
    """Raised when a search direction is identically zero (no progress possible)."""


class UnboundedDescentError(RuntimeError):
    """Raised when a line search never brackets a minimizer.

    ``edge`` carries the signed edge of the search, +-2**60, which the
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


class TrainTrace:
    """Ordered per-iteration history of a training run on ``n_features``
    features, stored as columns.

    Step k (k = 1, 2, ...) is ``learners[k - 1]``, the learner itself,
    shared with the models and not copied, and float64 entries of the beta,
    alpha and risk columns; a note (``capped-beta``) is kept only for the
    steps that have one. ``add`` writes the next step; ``model(k)`` builds
    the model of the first k steps. ``betas``, ``alphas`` and ``risks``
    return copies of the columns, so a later step cannot change or block
    them. ``records`` builds the ``TraceRecord`` rows, descriptions
    included, on each read and does not cache them.
    """

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.learners: list = []
        self._betas, self._alphas, self._risks = array("d"), array("d"), array("d")
        self._notes: dict[int, str] = {}  # k -> note, for the steps that have one
        self.stopped_early: str | None = None

    def add(self, learner, beta: float, alpha: float, risk: float, note: str = "") -> None:
        """Record the next step, k = len(self) + 1; its risk must be finite."""
        k = len(self.learners) + 1
        if not math.isfinite(risk):
            raise InvalidInputError(f"non-finite risk at iteration {k}")
        self._betas.append(beta)
        self._alphas.append(alpha)
        self._risks.append(risk)
        self.learners.append(learner)
        if note:
            self._notes[k] = note

    def __len__(self) -> int:
        return len(self.learners)

    def model(self, k: int | None = None) -> EnsembleModel:
        """The model f_k of the first k (default: all) steps of the recorded
        path f_k = (1 - alpha_k) f_{k-1} + beta_k g_k, f_0 = 0, with
        g_j = ``learners[j - 1]``: term j is beta_j * prod_{i=j+1..k} (1 - alpha_i)."""
        k = len(self) if k is None else k
        if not 0 <= k <= len(self):
            raise InvalidInputError(f"prefix {k} outside the recorded path of {len(self)}")
        alphas = self.alphas[:k]
        bad = np.flatnonzero(~((alphas >= 0.0) & (alphas <= 1.0)))  # NaN too
        if bad.size:
            raise InvalidInputError(f"alpha_{bad[0] + 1} = {alphas[bad[0]]} outside [0, 1]")
        keep = np.ones(k)  # term j keeps prod_{i=j+1..k} (1 - alpha_i)
        keep[:-1] = np.cumprod(1.0 - alphas[:0:-1])[::-1]
        return EnsembleModel(self.n_features, self.betas[:k] * keep, self.learners[:k])

    @property
    def records(self) -> list[TraceRecord]:
        return [TraceRecord(k, g.describe(), beta, alpha, risk, self._notes.get(k, ""))
                for k, (g, beta, alpha, risk)
                in enumerate(zip(self.learners, self._betas, self._alphas, self._risks), 1)]

    @property
    def risks(self) -> np.ndarray:
        return np.array(self._risks)

    @property
    def betas(self) -> np.ndarray:
        return np.array(self._betas)

    @property
    def alphas(self) -> np.ndarray:
        return np.array(self._alphas)


class EnsembleModel:
    """Additive model: sum(coefs[j] * learners[j](x)).

    A value built once, with read-only ``coefs``. ``predict`` evaluates each
    distinct learner once: learners are frozen dataclasses, so terms whose
    learners are equal in value share one evaluation, weighted by the sum
    of their coefficients.
    """

    def __init__(self, n_features: int, coefs, learners):
        self.n_features = n_features
        self.coefs = _readonly(np.array(coefs, dtype=float))
        self.learners = tuple(learners)
        if self.coefs.shape != (len(self.learners),):
            raise InvalidInputError(f"coefs of shape {self.coefs.shape} for "
                                    f"{len(self.learners)} learners")

    def __len__(self) -> int:
        return len(self.learners)

    def predict(self, features) -> np.ndarray:
        """Evaluate the model on a feature matrix (one row per sample)."""
        # one column-major copy, so that each split or atom reads a contiguous column
        X = np.asfortranarray(np.atleast_2d(features), dtype=float)
        if X.shape[1] != self.n_features:
            raise InvalidInputError(
                f"model was fit on {self.n_features} features, got {X.shape[1]}"
            )
        slots: dict = {}  # each distinct learner -> its slot, in order of first use
        terms = np.array([slots.setdefault(g, len(slots)) for g in self.learners], dtype=int)
        coefs = np.bincount(terms, weights=self.coefs, minlength=len(slots))  # sums in term order
        acc = np.zeros(X.shape[0])
        for coef, learner in zip(coefs, slots):
            acc += coef * learner.evaluate(X)
        return acc


def truncate_predictions(preds, level: float) -> np.ndarray:
    """Clamp predictions to [-level, level], preserving sign."""
    if not level > 0:
        raise InvalidInputError(f"truncation level must be positive, got {level}")
    return np.clip(np.asarray(preds, dtype=float), -level, level)
