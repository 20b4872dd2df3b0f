"""Training drivers sharing one skeleton: select a weak learner against the
pseudo-residuals, pick a step size, update the predictions. The additive
model is built once, from the recorded path. One rule stops a run early:
the select or the step search raises ``DegenerateDirectionError``.

Variants: plain line-search boosting; re-scale boosting (the composite
estimator is multiplied by 1 - alpha_k, alpha_k = c/(k+u), before each
line search); shrunken steps nu * beta; interval-truncated line search
with a shrinking bound; and fixed-size epsilon steps signed by the
descent direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reboost.core import (
    Dataset,
    DegenerateDirectionError,
    EnsembleModel,
    InvalidInputError,
    InvalidSpecError,
    Task,
    TrainTrace,
    UnboundedDescentError,
)
from reboost.learners import SplitIndex, fit_stump, fit_tree
from reboost.linesearch import line_search
from reboost.losses import LossKind, _residuals, _risk


@dataclass(frozen=True)
class ShrinkageSchedule:
    """Per-iteration rescale degree alpha_k = c / (k + u), k >= 1.

    Checked once, at construction: c finite and >= 0, u finite and > -1,
    and c <= 1 + u (NaN fails). Then k + u > 0 and alpha_k is non-increasing
    in k, from alpha_1 = c / (1 + u) <= 1 down towards 0, so every degree
    lies in [0, 1]. alpha_1 = 1 is legal: it rescales the zero model f_0.
    """

    c: float
    u: float

    def __post_init__(self):
        if not (0.0 <= self.c < np.inf and -1.0 < self.u < np.inf and self.c <= 1.0 + self.u):
            raise InvalidSpecError("schedule requires a finite c >= 0, a finite u > -1 and "
                                   f"c <= 1 + u in c/(k+u), got c = {self.c}, u = {self.u}")

    @classmethod
    def theorem(cls) -> "ShrinkageSchedule":
        """The 3/(k+3) schedule with the proven convergence guarantee."""
        return cls(3.0, 3.0)

    @classmethod
    def experimental(cls, u: float) -> "ShrinkageSchedule":
        """The tunable 2/(k+u) family used in the benchmark experiments, u >= 1."""
        return cls(2.0, float(u))

    def alpha(self, k: int) -> float:
        return self.c / (k + self.u)


@dataclass(frozen=True)
class Plain:
    pass


@dataclass(frozen=True)
class Rescale:
    schedule: ShrinkageSchedule


@dataclass(frozen=True)
class Shrunk:
    nu: float

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise InvalidSpecError(f"nu must be in (0, 1], got {self.nu}")


@dataclass(frozen=True)
class Truncated:
    t0: float
    exponent: float = 2.0 / 3.0

    def __post_init__(self):
        if not (0 < self.t0 < np.inf and 0 <= self.exponent < np.inf):
            raise InvalidSpecError("truncated needs a finite t0 > 0 and a finite exponent "
                                   f">= 0, got t0 = {self.t0}, exponent = {self.exponent}")

    def bound_at(self, k: int) -> float:
        return self.t0 * k ** (-self.exponent)


@dataclass(frozen=True)
class Epsilon:
    eps: float

    def __post_init__(self):
        if not 0 < self.eps < np.inf:
            raise InvalidSpecError(f"eps must be positive and finite, got {self.eps}")


Variant = Plain | Rescale | Shrunk | Truncated | Epsilon


@dataclass(frozen=True)
class StumpLearner:
    pass


@dataclass(frozen=True)
class TreeLearner:
    splits: int

    def __post_init__(self):
        if self.splits < 1:
            raise InvalidSpecError(f"splits must be >= 1, got {self.splits}")


@dataclass(frozen=True)
class DictionaryLearner:
    """Explicit finite dictionary; ``_selector`` picks the atom of largest
    |negative-gradient inner product| (the dictionary is treated as closed
    under sign flips, the line search supplies the sign)."""

    atoms: tuple


LearnerSpec = StumpLearner | TreeLearner | DictionaryLearner


@dataclass(frozen=True)
class TrainConfig:
    max_iterations: int
    loss: LossKind
    learner: LearnerSpec
    variant: Variant

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidSpecError("max_iterations must be >= 1")
        if isinstance(self.variant, Truncated):  # t_k does not increase with k
            k = self.max_iterations
            try:
                t = self.variant.bound_at(k)
            except OverflowError:  # k beyond the float range
                t = float("nan")
            if not t > 0.0:
                raise InvalidSpecError(f"truncated bound t_{k} = {t} must be > 0 "
                                       "at every iteration up to max_iterations")


def _selector(spec: LearnerSpec, X: np.ndarray):
    """``select(residuals) -> (learner, g(X))`` for ``spec`` on the design X.
    ``_step`` raises on a zero stump or tree; the dictionary's select raises
    when every atom is orthogonal to the residuals, where a line search
    would take beta = 0 steps instead."""
    if isinstance(spec, DictionaryLearner):
        values = np.column_stack([a.evaluate(X) for a in spec.atoms])

        def select(residuals):
            inner = residuals @ values
            idx = int(np.argmax(np.abs(inner)))
            if inner[idx] == 0.0:
                raise DegenerateDirectionError("every atom is orthogonal to the residuals")
            return spec.atoms[idx], values[:, idx]
        return select

    index = SplitIndex(X)

    def select(residuals):
        learner = (fit_stump(index, residuals) if isinstance(spec, StumpLearner)
                   else fit_tree(index, residuals, spec.splits))
        return learner, learner.evaluate(index.columns.T)  # column-major X
    return select


def _step(variant: Variant, loss: LossKind, k: int, residuals, base, gvals, y):
    """(beta_k, trace note) of step k from ``base`` along ``gvals``; raises
    DegenerateDirectionError when no step makes first-order progress."""
    if isinstance(variant, Truncated):
        return line_search(loss, base, gvals, y, variant.bound_at(k)), ""
    if isinstance(variant, Epsilon):  # fixed step along the descent sign:
        direction = np.sign(np.mean(residuals * gvals))  # -R'(0), as base = preds
        if direction == 0.0:
            raise DegenerateDirectionError("no descent along the direction")
        return variant.eps * direction, ""
    try:  # Plain is Shrunk with nu = 1
        beta, note = line_search(loss, base, gvals, y), ""
    except UnboundedDescentError as err:  # e.g. exponential loss, separable data
        beta, note = err.edge, "capped-beta"
    return (variant.nu * beta if isinstance(variant, Shrunk) else beta), note


def train(data: Dataset, config: TrainConfig, seed: int = 0) -> tuple[EnsembleModel, TrainTrace]:
    """Run the configured boosting variant for up to max_iterations.

    Stops early at the first step whose select or step search raises
    ``DegenerateDirectionError``; the model is then the one after the last
    completed step, unrescaled. An unbounded line search is capped at the
    signed search edge +-2**60 of ``UnboundedDescentError`` and noted in
    the trace. Every step is deterministic, so ``seed`` is unused;
    ``reboost train`` writes its ``--seed`` into the model file.
    """
    # this check and the Dataset invariants (finite targets, +-1 labels for
    # classification) are all that the unchecked loss kernels below need
    if config.loss.is_classification and data.task is not Task.CLASSIFICATION:
        raise InvalidInputError(f"{config.loss.value} loss needs a classification dataset")

    X, y = data.features, data.targets
    trace = TrainTrace(data.n_features)
    preds = np.zeros(data.n_samples)

    select = _selector(config.learner, X)
    variant = config.variant

    for k in range(1, config.max_iterations + 1):
        residuals = _residuals(config.loss, preds, y)
        alpha = variant.schedule.alpha(k) if isinstance(variant, Rescale) else 0.0
        base = (1.0 - alpha) * preds  # a new array: preds stays f_{k-1} if k stops
        try:
            learner, gvals = select(residuals)
            beta, note = _step(variant, config.loss, k, residuals, base, gvals, y)
        except DegenerateDirectionError:
            trace.stopped_early = f"degenerate direction at iteration {k}"
            break

        preds = base + beta * gvals
        trace.add(learner, beta, alpha, _risk(config.loss, preds, y), note)

    return trace.model(), trace


def excess_risk_trace(trace: TrainTrace, reference: float) -> np.ndarray:
    """Per-iteration empirical risk minus a reference risk."""
    return trace.risks - reference
