"""Training drivers sharing one skeleton: select a weak learner against the
pseudo-residuals, pick a step size, update the predictions. The additive
model is built once, from the recorded path.

Variants: plain line-search boosting; re-scale boosting (the composite
estimator is multiplied by (1 - alpha_k) before each line search); shrunken
steps nu * beta; interval-truncated line search with a shrinking bound; and
fixed-size epsilon steps signed by the descent direction.
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
    TraceRecord,
    TrainTrace,
    UnboundedDescentError,
)
from reboost.learners import SplitIndex, fit_stump, fit_tree
from reboost.linesearch import line_search
from reboost.losses import LossKind, _residuals, _risk


@dataclass(frozen=True)
class ShrinkageSchedule:
    """Per-iteration rescale degree alpha_k = c4 / (c5 * k + c6).

    Construction only pins the shape (non-negative, non-increasing);
    the [0, 1] range is enforced where a degree is actually evaluated,
    so a schedule like 3/(k+1) is usable wherever its first degree is
    never requested and fails loudly where it is. alpha_1 = 1 is legal:
    it rescales the zero model f_0.
    """

    c4: float
    c5: float
    c6: float

    def __post_init__(self):
        if not (self.c4 >= 0 and self.c5 >= 0 and self.c5 + self.c6 > 0):  # NaN fails too
            raise InvalidSpecError("schedule requires c4 >= 0, c5 >= 0, c5 + c6 > 0")

    @classmethod
    def theorem(cls) -> "ShrinkageSchedule":
        """The 3/(k+3) schedule with the proven convergence guarantee."""
        return cls(3.0, 1.0, 3.0)

    @classmethod
    def experimental(cls, u: float) -> "ShrinkageSchedule":
        """The tunable 2/(k+u) family used in the benchmark experiments."""
        return cls(2.0, 1.0, float(u))

    def alpha(self, k: int) -> float:
        if k < 1:
            raise InvalidInputError(f"iteration index must be >= 1, got {k}")
        a = self.c4 / (self.c5 * k + self.c6)
        if not (0.0 <= a <= 1.0):
            raise InvalidSpecError(f"alpha_{k} = {a} outside [0, 1]")
        return a


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
    """Explicit finite dictionary; selection maximizes |negative-gradient
    inner product| over the atoms (the dictionary is treated as closed
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


class _FitSelector:
    """Least-squares fit of a stump or tree to the pseudo-residuals."""

    def __init__(self, spec: LearnerSpec, X: np.ndarray):
        self.spec = spec
        self.index = SplitIndex(X)

    def select(self, residuals: np.ndarray):
        if isinstance(self.spec, StumpLearner):
            learner = fit_stump(self.index, residuals)
        else:
            learner = fit_tree(self.index, residuals, self.spec.splits)
        gvals = learner.evaluate(self.index.X)
        if not gvals.any():  # -0.0 counts as zero, NaN does not
            return None, None
        return learner, gvals


class _DictionarySelector:
    """Exact projection of gradient over a finite dictionary."""

    def __init__(self, atoms: tuple, X: np.ndarray):
        self.atoms = atoms
        self.values = np.column_stack([a.evaluate(X) for a in atoms])

    def select(self, residuals: np.ndarray):
        inner = residuals @ self.values
        idx = int(np.argmax(np.abs(inner)))
        if inner[idx] == 0.0:
            return None, None
        return self.atoms[idx], self.values[:, idx]


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

    Stops early when the selected direction is identically zero, or the
    step search finds it so (no first-order progress possible); the model
    is then the one after the last completed step. An unbounded line search
    is capped at the signed search edge +-2**60 of ``UnboundedDescentError``
    and noted in the trace. Every step is deterministic, so ``seed`` is
    unused; ``reboost train`` writes its ``--seed`` into the model file.
    """
    # this check and the Dataset invariants (finite targets, +-1 labels for
    # classification) are all that the unchecked loss kernels below need
    if config.loss.is_classification and data.task is not Task.CLASSIFICATION:
        raise InvalidInputError(f"{config.loss.value} loss needs a classification dataset")

    X, y = data.features, data.targets
    trace = TrainTrace()
    learners = []
    preds = np.zeros(data.n_samples)

    if isinstance(config.learner, DictionaryLearner):
        selector = _DictionarySelector(config.learner.atoms, X)
    else:
        selector = _FitSelector(config.learner, X)

    variant = config.variant

    for k in range(1, config.max_iterations + 1):
        residuals = _residuals(config.loss, preds, y)
        learner, gvals = selector.select(residuals)
        if learner is None:
            trace.stopped_early = f"degenerate direction at iteration {k}"
            break

        alpha = variant.schedule.alpha(k) if isinstance(variant, Rescale) else 0.0
        base = (1.0 - alpha) * preds
        try:
            beta, note = _step(variant, config.loss, k, residuals, base, gvals, y)
        except DegenerateDirectionError:  # e.g. a nonzero g whose g.g underflows
            trace.stopped_early = f"degenerate direction at iteration {k}"
            break

        learners.append(learner)
        preds = base + beta * gvals
        risk = _risk(config.loss, preds, y)
        trace.append(TraceRecord(k, learner.describe(), float(beta), alpha, risk, note))

    return EnsembleModel.from_path(learners, trace, n_features=data.n_features), trace


def excess_risk_trace(trace: TrainTrace, reference: float) -> np.ndarray:
    """Per-iteration empirical risk minus a reference risk."""
    return trace.risks - reference
