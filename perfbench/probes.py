"""Wrappers the benchmark puts around public reboost functions.

Both kinds are installed by rebinding attributes (``Patcher``) and removed
again afterwards, so the program itself is never edited:

* ``Probe`` is on in every run. It times each ``train`` and
  ``validation_curve`` call, counts iterations, line searches and capped
  steps, records why a ``train`` call failed, and keeps every trained
  model for the output checks. Its cost is a few microseconds per call.
* ``Tracer`` is on only in the traced run. Each wrapped call records one
  span (name, start, end, parent) in flat in-memory arrays, which are
  aggregated into per-layer calls, total time and self time and written
  to disk once at the end.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

from reboost import boosters, core, harness, linesearch

# (span name, module, attribute path); several targets may share a name,
# and "*" stands for every public function defined in the module
LAYER_TARGETS = (
    ("learners.fit_tree", "reboost.learners", "fit_tree"),
    ("learners.StumpFitter.fit", "reboost.learners", "StumpFitter.fit"),
    ("learners.StumpFitter.init", "reboost.learners", "StumpFitter.__init__"),
    ("learners.evaluate", "reboost.learners", "DecisionStump.evaluate"),
    ("learners.evaluate", "reboost.learners", "RegressionTree.evaluate"),
    ("learners.evaluate", "reboost.learners", "IntervalAtom.evaluate"),
    ("linesearch.line_search", "reboost.linesearch", "line_search"),
    ("losses.pseudo_residuals", "reboost.losses", "pseudo_residuals"),
    ("losses.empirical_risk", "reboost.losses", "empirical_risk"),
    ("losses.neg_gradient_inner", "reboost.losses", "neg_gradient_inner"),
    ("core.EnsembleModel.add_term", "reboost.core", "EnsembleModel.add_term"),
    ("core.EnsembleModel.rescale", "reboost.core", "EnsembleModel.rescale"),
    ("core.EnsembleModel.predict", "reboost.core", "EnsembleModel.predict"),
    ("core.TrainTrace.append", "reboost.core", "TrainTrace.append"),
    ("boosters.train", "reboost.boosters", "train"),
    ("harness.repeat_experiment", "reboost.harness", "repeat_experiment"),
    ("harness.tune", "reboost.harness", "tune"),
    ("harness.validation_curve", "reboost.harness", "validation_curve"),
    ("harness.path_predictions", "reboost.harness", "path_predictions"),
    ("synthdata.gen", "reboost.synthdata", "gen_regression"),
    ("synthdata.gen", "reboost.synthdata", "gen_orange"),
    ("synthdata.gen", "reboost.synthdata", "gen_sparse_dictionary_instance"),
    ("cli.main", "reboost.cli", "main"),
    ("cli.cmd_predict", "reboost.cli", "cmd_predict"),
    ("cli.model_io.load_model", "reboost.cli.model_io", "load_model"),
    ("cli.data_io", "reboost.cli.data_io", "*"),
)

# spans whose calls carry a row count (the number of rows evaluated)
ROW_COUNTED = frozenset({"learners.evaluate"})


class Patcher:
    """Rebinds attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace_function(self, fn, wrapper) -> None:
        """Rebind every reboost module attribute bound to ``fn``, which also
        covers names a module imported with ``from ... import``."""
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("reboost"):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapper)

    def replace_method(self, cls, attr: str, wrapper) -> None:
        self._set(cls, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class Probe:
    """Latencies, effort counters and trained models of the measured calls.

    ``call_ms`` and ``predict_ms`` accumulate over the whole run; the
    counters, failure reasons, per-call iteration list and kept models
    are per pass and cleared by ``start_pass``.
    """

    def __init__(self):
        self.call_ms: list[float] = []
        self.predict_ms: list[float] = []
        self.start_pass()

    def start_pass(self) -> None:
        self.counts: Counter = Counter()
        self.reasons: Counter = Counter()
        self.cells: list[int | None] = []  # iterations per train call, None if it raised
        self.models: list[tuple] = []  # (dataset, loss, model, trace)

    def record_predict(self, ms: float, rows: int) -> None:
        self.predict_ms.append(ms)
        self.counts["predict.calls"] += 1
        self.counts["predict.rows"] += rows

    def install(self, patcher: Patcher) -> None:
        patcher.replace_function(boosters.train, self._wrap_train(boosters.train))
        patcher.replace_function(harness.validation_curve,
                                 self._wrap_validation_curve(harness.validation_curve))
        patcher.replace_function(linesearch.line_search,
                                 self._wrap_line_search(linesearch.line_search))

    def _wrap_train(self, fn):
        def train(data, config, *args, **kwargs):
            self.counts["train.attempted"] += 1
            t0 = time.perf_counter()
            try:
                model, trace = fn(data, config, *args, **kwargs)
            except Exception as err:
                self.counts["train.failed"] += 1
                self.reasons[f"{config.variant}: {type(err).__name__}: {err}"] += 1
                self.cells.append(None)
                raise
            self.call_ms.append((time.perf_counter() - t0) * 1e3)
            self.counts["train.iterations"] += len(trace)
            self.counts["train.stopped_early"] += trace.stopped_early is not None
            self.cells.append(len(trace))
            self.models.append((data, config.loss, model, trace))
            return model, trace
        return train

    def _wrap_validation_curve(self, fn):
        def validation_curve(model, trace, val_set, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(model, trace, val_set, *args, **kwargs)
            self.record_predict((time.perf_counter() - t0) * 1e3, val_set.n_samples)
            return out
        return validation_curve

    def _wrap_line_search(self, fn):
        def line_search(*args, **kwargs):
            self.counts["line_search.calls"] += 1
            try:
                return fn(*args, **kwargs)
            except core.UnboundedDescentError:
                self.counts["line_search.unbounded"] += 1
                raise
        return line_search


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) targets for one LAYER_TARGETS row;
    empty when the program no longer has the attribute."""
    mod = sys.modules.get(module_name)
    if mod is None:
        return []
    if path == "*":
        return [(mod, name, value) for name, value in vars(mod).items()
                if not name.startswith("_") and callable(value)
                and getattr(value, "__module__", None) == module_name
                and not isinstance(value, type)]
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr not in vars(owner):
        return []
    return [(owner, attr, vars(owner)[attr])]


class Tracer:
    """In-memory span recorder for the traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        rows = name in ROW_COUNTED
        names, parents, starts, ends, work, stack = (
            self.name, self.parent, self.start, self.end, self.work, self._stack)
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            work.append(np.shape(args[1])[0] if rows and np.ndim(args[1]) == 2 else rows)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return span

    def install(self, patcher: Patcher) -> None:
        for name, module_name, path in LAYER_TARGETS:
            targets = _resolve(module_name, path)
            missing = f"{module_name}:{path}"
            if not targets and path != "*" and missing not in self.missing:
                self.missing.append(missing)
            for owner, attr, value in targets:
                wrapper = self.wrap(name, value)
                if isinstance(owner, type):
                    patcher.replace_method(owner, attr, wrapper)
                else:
                    patcher.replace_function(value, wrapper)

    def aggregate(self):
        """Per-root-span tables: (root names, calls, total_s, self_s, work),
        each table shaped (roots, span names).

        Every wrapped call runs inside a root span (a set-up or a pass), and
        spans are stored in start order, so the roots partition the arrays.
        """
        n, k = len(self.start), len(self.names)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        roots = np.flatnonzero(~nested)
        group = np.searchsorted(roots, np.arange(n), side="right") - 1
        key = group * k + name
        size = len(roots) * k

        def table(weights=None):
            return np.bincount(key, weights=weights, minlength=size).reshape(len(roots), k)

        root_names = [self.names[i] for i in name[roots]]
        return (root_names, table(), table(dur), table(dur - child),
                table(np.array(self.work, dtype=float)))

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end), work=np.array(self.work))
