"""Experiment orchestration: splits, tuning grids, repeated seeded runs,
metrics, and the log-log convergence-rate diagnostic.

Hyperparameters are selected on a validation set by evaluating the metric
at every prefix of the boosting path (no retraining per candidate k).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from reboost.boosters import (
    Epsilon,
    Plain,
    Rescale,
    ShrinkageSchedule,
    Shrunk,
    TrainConfig,
    Truncated,
    train,
)
from reboost.core import (
    Dataset,
    EnsembleModel,
    InvalidInputError,
    InvalidSpecError,
    Task,
    TrainTrace,
)

log = logging.getLogger(__name__)

METHODS = ("plain", "rescale", "shrunk", "truncated", "epsilon")

_NU_GRID = tuple(np.linspace(0.01, 1.0, 20))
_EPS_GRID = tuple(np.linspace(0.01, 1.0, 20))
_U_GRID = tuple([1.0] + list(10.0 ** np.linspace(0.0, 6.0, 20))[1:-1] + [1e6])
_T0_GRID = (0.5, 1.0, 2.0, 4.0)

# family -> (its parameter, the variant at one value of it); the parameter
# names the CLI flag (--u) and the TuningGrid field of its values (u_grid)
FAMILIES = {
    "rescale": ("u", lambda u: Rescale(ShrinkageSchedule.experimental(u))),
    "shrunk": ("nu", Shrunk),
    "truncated": ("t0", Truncated),
    "epsilon": ("eps", Epsilon),
}


class TuningError(RuntimeError):
    """Raised when every grid cell of a tuning sweep fails."""


@dataclass(frozen=True)
class TuningGrid:
    nu_grid: tuple = _NU_GRID
    eps_grid: tuple = _EPS_GRID
    u_grid: tuple = _U_GRID
    t0_grid: tuple = _T0_GRID
    k_max: int = 500

    def __post_init__(self):
        if self.k_max < 1:
            raise InvalidSpecError(f"k_max must be >= 1, got {self.k_max}")


@dataclass(frozen=True)
class MethodResult:
    method: str
    mean_metric: float
    stderr: float
    chosen_params: str
    chosen_k: int
    runs: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[MethodResult, ...]
    runs: int
    seeds: tuple[int, ...]
    failures: int = 0


@dataclass(frozen=True)
class TuneResult:
    params: str
    variant: object
    best_k: int
    val_metric: float
    model: EnsembleModel
    trace: TrainTrace


def split_dataset(data: Dataset, ratios, seed: int):
    """Seeded uniform shuffle, then contiguous (train, val, test) partition."""
    r = tuple(float(v) for v in ratios)
    if len(r) != 3 or min(r) <= 0 or abs(sum(r) - 1.0) > 1e-9:
        raise InvalidInputError("ratios must be three positives summing to 1")
    m = data.n_samples
    n_tr, n_val = int(m * r[0]), int(m * r[1])
    n_te = m - n_tr - n_val
    if min(n_tr, n_val, n_te) < 1:
        raise InvalidInputError(f"a split part would be empty for m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    parts = (perm[:n_tr], perm[n_tr:n_tr + n_val], perm[n_tr + n_val:])
    return tuple(
        Dataset(data.features[p], data.targets[p], data.task) for p in parts
    )


def rmse(preds, targets) -> float:
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape or preds.size < 1:
        raise InvalidInputError("preds and targets must be equal-length, nonempty")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


def misclass_rate(scores, labels) -> float:
    """Fraction of sign disagreements; a zero score counts as +1."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.size < 1:
        raise InvalidInputError("scores and labels must be equal-length, nonempty")
    if not (np.abs(labels) == 1.0).all():
        raise InvalidInputError("labels must be -1 or +1")
    decided = np.where(scores >= 0.0, 1.0, -1.0)
    return float(np.mean(decided != labels))


def metric_for_task(task: Task):
    return misclass_rate if task is Task.CLASSIFICATION else rmse


def _replay(model: EnsembleModel, trace: TrainTrace, X: np.ndarray, upto: int):
    """Yield the predictions on ``X`` after each of the first ``upto`` steps
    of a recorded path, replaying (alpha_k, beta_k, learner_k) once each."""
    preds = np.zeros(X.shape[0])
    for rec, learner in zip(trace.records[:upto], model.learners):
        preds = (1.0 - rec.alpha) * preds + rec.beta * learner.evaluate(X)
        yield preds


def path_predictions(model: EnsembleModel, trace: TrainTrace, features,
                     upto: int | None = None) -> np.ndarray:
    """Predictions of the length-``upto`` prefix of a recorded boosting path.

    Equivalent to predicting with the model truncated after ``upto`` terms
    and rescaled as it was at that step, but without rebuilding it.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    k = len(trace) if upto is None else upto
    if not 0 <= k <= min(len(model), len(trace)):
        raise InvalidInputError(f"prefix {k} outside the recorded path")
    preds = np.zeros(X.shape[0])
    for preds in _replay(model, trace, X, k):
        pass
    return preds


def validation_curve(model: EnsembleModel, trace: TrainTrace, val_set: Dataset) -> np.ndarray:
    """Validation metric after every iteration of a recorded path."""
    metric = metric_for_task(val_set.task)
    return np.array([metric(preds, val_set.targets)
                     for preds in _replay(model, trace, val_set.features, len(trace))])


def variant_cells(method: str, grid: TuningGrid):
    """(label, variant factory) candidates for one method family.

    Factories defer construction so an infeasible cell (e.g. a u below 1,
    which makes the first rescale degree exceed 1) fails inside the tuning
    loop and is skipped like any other cell failure.
    """
    if method == "plain":
        return [("-", Plain)]
    if method not in FAMILIES:
        raise InvalidInputError(f"unknown method family {method!r}")
    name, make = FAMILIES[method]
    return [(f"{name}={v:.6g}", partial(make, v)) for v in getattr(grid, f"{name}_grid")]


def tune(train_set: Dataset, val_set: Dataset, method: str, grid: TuningGrid,
         loss, learner, seed: int = 0) -> TuneResult:
    """Grid-search one method family; select (cell, k) minimizing the
    validation metric, ties toward smaller k then earlier grid position."""
    best = None  # ((metric, k, cell_idx), label, variant, model, trace)
    any_ok = False
    for idx, (label, make_variant) in enumerate(variant_cells(method, grid)):
        try:
            variant = make_variant()
            config = TrainConfig(grid.k_max, loss, learner, variant)
            model, trace = train(train_set, config, seed)
            curve = validation_curve(model, trace, val_set)
            if curve.size == 0:
                raise InvalidInputError("empty training path")
        except Exception as err:
            log.warning("tuning cell %s %s failed: %s", method, label, err)
            continue
        any_ok = True
        k_best = int(np.argmin(curve)) + 1
        key = (float(curve[k_best - 1]), k_best, idx)
        if best is None or key < best[0]:
            best = (key, label, variant, model, trace)
    if not any_ok:
        raise TuningError(f"every grid cell failed for method {method!r}")
    key, label, variant, model, trace = best
    return TuneResult(label, variant, key[1], key[0], model, trace)


def repeat_experiment(provider, methods, grid: TuningGrid, loss, learner,
                      runs: int, base_seed: int) -> ExperimentReport:
    """Run generate/split -> tune -> test for seeds base_seed + i.

    ``provider(seed)`` must return (train, validation, test) datasets.
    Failed method-runs are excluded from the statistics and counted.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    seeds = tuple(base_seed + i for i in range(runs))
    metrics: dict[str, list[float]] = {m: [] for m in methods}
    labels: dict[str, list[str]] = {m: [] for m in methods}
    ks: dict[str, list[int]] = {m: [] for m in methods}
    failures = 0

    for seed in seeds:
        train_set, val_set, test_set = provider(seed)
        metric = metric_for_task(test_set.task)
        for method in methods:
            try:
                res = tune(train_set, val_set, method, grid, loss, learner, seed)
                test_preds = path_predictions(res.model, res.trace,
                                              test_set.features, res.best_k)
                metrics[method].append(metric(test_preds, test_set.targets))
                labels[method].append(res.params)
                ks[method].append(res.best_k)
            except Exception as err:
                failures += 1
                log.warning("run seed=%d method=%s failed: %s", seed, method, err)

    rows = []
    for method in methods:
        vals = np.array(metrics[method])
        if vals.size == 0:
            rows.append(MethodResult(method, float("nan"), float("nan"), "-", 0, 0))
            continue
        stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        chosen = Counter(labels[method]).most_common(1)[0][0]
        rows.append(MethodResult(
            method, float(vals.mean()), stderr, chosen,
            int(np.median(ks[method])), int(vals.size),
        ))
    return ExperimentReport(tuple(rows), runs, seeds, failures)


def convergence_slope(excess, k_lo: int, k_hi: int) -> float:
    """OLS slope of log(excess_k) on log(k) for k in [k_lo, k_hi].

    Entries are floored at 1e-300 before taking logs.
    """
    vals = np.asarray(excess, dtype=float)
    if not (1 <= k_lo < k_hi <= vals.size):
        raise InvalidInputError(f"window [{k_lo}, {k_hi}] outside trace of {vals.size}")
    window = vals[k_lo - 1:k_hi]
    if window.size < 3:
        raise InvalidInputError("need at least 3 points to fit a slope")
    if np.any(window <= 0.0):
        window = np.maximum(window, 1e-300)
    lx = np.log(np.arange(k_lo, k_hi + 1, dtype=float))
    ly = np.log(window)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
