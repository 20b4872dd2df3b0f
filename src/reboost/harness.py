"""Experiment orchestration: the paper's toy experiments, each defined once
in ``EXPERIMENTS`` (sizes, generator, loss, learner and default k_max) and
built from three seeds by ``experiment_sets``; splits, tuning grids,
repeated seeded runs, metrics, and the log-log convergence-rate diagnostic.

Hyperparameters are selected on a validation set by evaluating the metric
at every prefix of the boosting path (no retraining per candidate k). The
path is replayed once; its prefix predictions are stacked as rows of a
buffer of at most ``CURVE_BUFFER_FLOATS`` floats, and the metrics, which
reduce along the last axis, score a whole buffer in one call. ``tune``
returns the chosen prefix's model, which ``repeat_experiment`` tests.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from reboost import synthdata
from reboost.boosters import (
    Epsilon,
    Plain,
    Rescale,
    ShrinkageSchedule,
    Shrunk,
    StumpLearner,
    TrainConfig,
    TreeLearner,
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
from reboost.losses import LossKind

log = logging.getLogger(__name__)

# validation_curve's prefix buffer: 2**17 floats, 1 MiB, whatever k and n are
CURVE_BUFFER_FLOATS = 2 ** 17

METHODS = ("plain", "rescale", "shrunk", "truncated", "epsilon")

# family -> (its parameter, the variant at one value of it, the grid of
# values the sweep tries); the parameter names the CLI flag (--u)
FAMILIES = {
    "rescale": ("u", lambda u: Rescale(ShrinkageSchedule.experimental(u)),
                tuple([1.0] + list(10.0 ** np.linspace(0.0, 6.0, 20))[1:-1] + [1e6])),
    "shrunk": ("nu", Shrunk, tuple(np.linspace(0.01, 1.0, 20))),
    "truncated": ("t0", Truncated, (0.5, 1.0, 2.0, 4.0)),
    "epsilon": ("eps", Epsilon, tuple(np.linspace(0.01, 1.0, 20))),
}

# name -> (sizes, make, loss, learner, k_max): the (train, validation, test)
# rows (per class for orange), make(rows, role, seed, sigma, q) building one
# dataset, and the loss, learner and default path length of the sweep
EXPERIMENTS = {
    "m1": ((500, 500, 1000), lambda n, role, seed, sigma, q: synthdata.gen_regression(
        synthdata.M1Spec(n, sigma), role, seed), LossKind.SQUARED, TreeLearner(4), 500),
    "m2": ((500, 500, 1000), lambda n, role, seed, sigma, q: synthdata.gen_regression(
        synthdata.M2Spec(n, sigma), role, seed), LossKind.SQUARED, TreeLearner(4), 500),
    "orange": ((100, 100, 2000), lambda n, role, seed, sigma, q: synthdata.gen_orange(n, q, seed),
               LossKind.LOGISTIC, StumpLearner(), 1000),
}


def experiment_sets(name: str, seeds, sigma: float = 0.0, q: int = 0):
    """(train, validation, test) of ``EXPERIMENTS[name]``: set i from seeds[i], role ROLES[i]."""
    sizes, make, *_ = EXPERIMENTS[name]
    return tuple(make(n, role, seed, sigma, q)
                 for n, role, seed in zip(sizes, synthdata.ROLES, seeds, strict=True))


class TuningError(RuntimeError):
    """Raised when every cell of a tuning sweep or every run of a method fails."""


@dataclass(frozen=True)
class TuningGrid:
    """The sweep's path length: every cell trains ``k_max`` steps; the
    values each family tries are its grid in ``FAMILIES``."""

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
    seeds: tuple[int, ...]
    failures: int = 0


@dataclass(frozen=True)
class TuneResult:
    """The chosen cell and k, the validation metric there, and that prefix's model."""

    params: str
    best_k: int
    val_metric: float
    model: EnsembleModel


def split_dataset(data: Dataset, seed: int):
    """Seeded uniform shuffle, then contiguous (train, val, test) parts of
    m // 2, m // 4 and the remaining rows."""
    m = data.n_samples
    n_tr, n_val = m // 2, m // 4
    n_te = m - n_tr - n_val
    if min(n_tr, n_val, n_te) < 1:
        raise InvalidInputError(f"a split part would be empty for m={m}")
    perm = np.random.default_rng(seed).permutation(m)
    parts = (perm[:n_tr], perm[n_tr:n_tr + n_val], perm[n_tr + n_val:])
    return tuple(
        Dataset(data.features[p], data.targets[p], data.task) for p in parts
    )


def _metric_inputs(preds, targets):
    """Float arrays of (n,) or (k, n) predictions and (n,) targets."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if (targets.ndim != 1 or preds.ndim not in (1, 2) or preds.size < 1
            or preds.shape[-1] != targets.size):
        raise InvalidInputError("predictions must be (n,) or (k, n) against "
                                "n nonempty 1-D targets")
    return preds, targets


def _per_row(values):
    """A float for a 1-D input's reduction, the array of k values otherwise."""
    return float(values) if values.ndim == 0 else values


def rmse(preds, targets):
    """Root mean squared error along the last axis of (n,) or (k, n)
    predictions: a float, or one value per row."""
    preds, targets = _metric_inputs(preds, targets)
    return _per_row(np.sqrt(np.mean((preds - targets) ** 2, axis=-1)))


def misclass_rate(scores, labels):
    """Fraction of sign disagreements along the last axis of (n,) or (k, n)
    scores: a float, or one value per row. A zero score counts as +1."""
    scores, labels = _metric_inputs(scores, labels)
    if not (np.abs(labels) == 1.0).all():
        raise InvalidInputError("labels must be -1 or +1")
    decided = np.where(scores >= 0.0, 1.0, -1.0)
    return _per_row(np.mean(decided != labels, axis=-1))


def metric_for_task(task: Task):
    return misclass_rate if task is Task.CLASSIFICATION else rmse


def validation_curve(model: EnsembleModel, trace: TrainTrace, val_set: Dataset) -> np.ndarray:
    """Validation metric after every iteration of a recorded path.

    The path is replayed once, P <- (1 - alpha_k) P + beta_k g_k(X_val), each
    prefix's P written to a row of a buffer of at most CURVE_BUFFER_FLOATS
    floats (one row if a single row is larger); each filled buffer is
    scored by one metric call.
    """
    metric = metric_for_task(val_set.task)
    X = np.asfortranarray(val_set.features)  # each split reads a contiguous column
    steps = list(zip(model.learners, trace.alphas.tolist(), trace.betas.tolist()))
    curve = np.empty(len(steps))
    rows = max(1, CURVE_BUFFER_FLOATS // val_set.n_samples)
    buf = np.empty((min(rows, len(steps)), val_set.n_samples))
    preds = np.zeros(val_set.n_samples)
    for start in range(0, len(steps), rows):
        block = buf[:len(steps) - start]
        for row, (learner, alpha, beta) in zip(block, steps[start:start + rows]):
            np.multiply(1.0 - alpha, preds, out=row)
            row += beta * learner.evaluate(X)
            preds = row
        curve[start:start + len(block)] = metric(block, val_set.targets)
    return curve


def variant_cells(method: str):
    """(label, variant) candidates for one method family, in grid order."""
    if method == "plain":
        return [("-", Plain())]
    if method not in FAMILIES:
        raise InvalidInputError(f"unknown method family {method!r}")
    name, make, values = FAMILIES[method]
    return [(f"{name}={v:.6g}", make(v)) for v in values]


def tune(train_set: Dataset, val_set: Dataset, method: str, grid: TuningGrid,
         loss, learner) -> TuneResult:
    """Grid-search one method family; select (cell, k) minimizing the
    validation metric, ties toward smaller k then earlier grid position,
    and return the model of that cell's first k steps."""
    best = None  # ((metric, k, cell_idx), label, trace)
    for idx, (label, variant) in enumerate(variant_cells(method)):
        try:
            model, trace = train(train_set, TrainConfig(grid.k_max, loss, learner, variant))
            curve = validation_curve(model, trace, val_set)
            if curve.size == 0:
                raise InvalidInputError("empty training path")
        except Exception as err:
            log.warning("tuning cell %s %s failed: %s", method, label, err)
            continue
        k_best = int(np.argmin(curve)) + 1
        key = (float(curve[k_best - 1]), k_best, idx)
        if best is None or key < best[0]:
            best = (key, label, trace)
    if best is None:
        raise TuningError(f"every grid cell failed for method {method!r}")
    (val_metric, k, _), label, trace = best
    return TuneResult(label, k, val_metric, trace.model(k))


def repeat_experiment(provider, methods, grid: TuningGrid, loss, learner,
                      runs: int, base_seed: int) -> ExperimentReport:
    """Run generate/split -> tune -> test for seeds base_seed + i.

    ``provider(seed)`` must return (train, validation, test) datasets.
    Failed method-runs are excluded from the statistics and counted; a
    method with no completed run raises ``TuningError``. A method named
    twice raises ``InvalidInputError``: its runs would count twice.
    """
    if runs < 1:
        raise InvalidInputError("runs must be >= 1")
    if len(set(methods)) != len(methods):
        raise InvalidInputError(f"a method is named more than once in {list(methods)}")
    seeds = tuple(base_seed + i for i in range(runs))
    results: dict[str, list[tuple[float, str, int]]] = {m: [] for m in methods}
    failures = 0

    for seed in seeds:
        train_set, val_set, test_set = provider(seed)
        metric = metric_for_task(test_set.task)
        for method in methods:
            try:
                res = tune(train_set, val_set, method, grid, loss, learner)
                test_metric = metric(res.model.predict(test_set.features), test_set.targets)
            except Exception as err:
                failures += 1
                log.warning("run seed=%d method=%s failed: %s", seed, method, err)
                continue
            results[method].append((test_metric, res.params, res.best_k))

    failed = [m for m in methods if not results[m]]
    if failed:
        raise TuningError(f"every run failed for methods: {failed}")
    rows = []
    for method in methods:
        metrics, labels, ks = zip(*results[method])
        vals = np.array(metrics)
        stderr = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        chosen = Counter(labels).most_common(1)[0][0]
        rows.append(MethodResult(method, float(vals.mean()), stderr, chosen,
                                 int(np.median(ks)), int(vals.size)))
    return ExperimentReport(tuple(rows), seeds, failures)


def convergence_slope(excess, k_lo: int, k_hi: int) -> float:
    """OLS slope of log(excess_k) on log(k) for k in [k_lo, k_hi].

    Every excess in the window must be > 0; one <= 0 marks an exact fit.
    """
    vals = np.asarray(excess, dtype=float)
    if not (1 <= k_lo < k_hi <= vals.size):
        raise InvalidInputError(f"window [{k_lo}, {k_hi}] outside trace of {vals.size}")
    window = vals[k_lo - 1:k_hi]
    if window.size < 3:
        raise InvalidInputError("need at least 3 points to fit a slope")
    if not (window > 0.0).all():  # NaN fails too
        raise InvalidInputError(f"excess risk must be > 0 in the window [{k_lo}, {k_hi}]")
    lx = np.log(np.arange(k_lo, k_hi + 1, dtype=float))
    ly = np.log(window)
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
