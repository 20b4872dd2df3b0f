"""The four benchmark workloads.

Each workload builds its inputs from an input-set number in ``setup``,
runs one pass of its timed body in ``run_pass``, and in ``check_pass``
checks that pass's outputs and returns the summary that is compared with
the stored reference. Why each workload exists, in terms of the layers it
stresses, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import os
import time

import numpy as np

from reboost import boosters, cli, harness, synthdata
from reboost.cli import model_io
from reboost.losses import LossKind, empirical_risk

# Tolerances, fixed before any reference was recorded.
# A model's risk recomputed from model.predict(X_train) may differ from the
# risk its trace recorded by float reassociation only: the lazy global
# scale of EnsembleModel multiplies in a different order than the
# incremental predictions of train.
RISK_RTOL = 1e-9
# absolute slack, as a share of the zero model's risk, for risks that
# converge to 0 (the dictionary paths reach about 1e-8)
RISK_ATOL_SHARE = 1e-12
# `reboost predict` prints 17 significant digits; the in-memory model keeps
# a lazy scale that the saved (materialized) model has folded in
PREDICT_RTOL = 1e-12


def input_seeds(input_set: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(input_set).generate_state(count)]


def close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def check_trained_models(probe) -> list[str]:
    """Every model a train call returned must reproduce its trace's final
    risk when evaluated with the public predict path."""
    errors = []
    for data, loss, model, trace in probe.models:
        if not len(trace):
            continue
        recorded = trace.records[-1].risk
        recomputed = empirical_risk(loss, model.predict(data.features), data.targets)
        zero_risk = empirical_risk(loss, np.zeros(data.n_samples), data.targets)
        if not close(recomputed, recorded, RISK_RTOL, RISK_ATOL_SHARE * zero_risk):
            errors.append(f"risk of model.predict {recomputed!r} != trace risk {recorded!r}")
    return errors


class Sweep:
    """The 65-cell tuning sweep of `reboost simulate`, one seed per pass.

    One operation is one sweep; one unit call is one train call (one grid
    cell); one predict call is one validation-curve replay of a cell.
    """

    tail_pct = 90
    min_calls = 100
    ops_per_pass = 1

    def __init__(self, make_sets, loss, learner, k_max, metric_rtol, metric_atol):
        self.make_sets = make_sets
        self.loss = loss
        self.learner = learner
        self.k_max = k_max
        self.metric_rtol = metric_rtol
        self.metric_atol = metric_atol

    def setup(self, input_set: int, workdir: str):
        return input_set, self.make_sets(input_seeds(input_set, 3))

    def run_pass(self, state, probe):
        input_set, sets = state
        grid = harness.TuningGrid(k_max=self.k_max)
        return harness.repeat_experiment(lambda seed: sets, harness.METHODS, grid,
                                         self.loss, self.learner, 1, input_set)

    def work(self, state, counts) -> tuple[int, int]:
        return counts["train.iterations"], counts["predict.rows"]

    def check_pass(self, state, report, probe):
        errors = check_trained_models(probe)
        summary = {
            "cells": list(probe.cells),
            "test_metric": {row.method: row.mean_metric for row in report.rows},
        }
        return errors, summary

    def compare(self, summary, ref) -> list[str]:
        """Cells that completed in the reference must complete again with the
        same iteration count; a cell that failed there may now succeed."""
        errors = []
        if len(summary["cells"]) != len(ref["cells"]):
            errors.append(f"{len(summary['cells'])} train calls, reference has "
                          f"{len(ref['cells'])}")
        for i, (now, then) in enumerate(zip(summary["cells"], ref["cells"])):
            if then is not None and now != then:
                errors.append(f"cell {i}: {now} iterations, reference {then}")
        for method, then in ref["test_metric"].items():
            now = summary["test_metric"].get(method)
            if now is None or not close(now, then, self.metric_rtol, self.metric_atol):
                errors.append(f"{method} test metric {now!r}, reference {then!r}")
        return errors


def m2_sets(seeds):
    """The CLI's m2 sizes: 500 train, 500 validation, 1000 noiseless test rows."""
    return (synthdata.gen_regression(synthdata.M2Spec(500, 0.0), "train", seeds[0]),
            synthdata.gen_regression(synthdata.M2Spec(500, 0.0), "validation", seeds[1]),
            synthdata.gen_regression(synthdata.M2Spec(1000, 0.0), "test_noiseless", seeds[2]))


def orange_sets(seeds):
    """The CLI's orange sizes per class: 100 train, 100 validation, 2000 test; q=0."""
    return (synthdata.gen_orange(100, 0, seeds[0]),
            synthdata.gen_orange(100, 0, seeds[1]),
            synthdata.gen_orange(2000, 0, seeds[2]))


class DictionaryPath:
    """Long squared-loss re-scale paths on the sparse interval-atom
    dictionary (the rescale half of `reboost convergence`; its plain half
    stops after `sparsity` steps on this orthonormal dictionary).

    One operation, and one unit call, is one train call on one instance;
    it is followed by one in-memory predict of the fitted path.
    """

    tail_pct = 90
    min_calls = 100
    paths = 16
    ops_per_pass = paths
    k_max = 2048
    slope_atol = 1e-4

    def setup(self, input_set: int, workdir: str):
        spec = synthdata.SparseDictionarySpec(256, 64, 4, 4.0)
        return [synthdata.gen_sparse_dictionary_instance(spec, s)
                for s in input_seeds(input_set, self.paths)]

    def run_pass(self, instances, probe):
        variant = boosters.Rescale(boosters.ShrinkageSchedule.theorem())
        out = []
        for data, atoms, best_risk, _ in instances:
            config = boosters.TrainConfig(self.k_max, LossKind.SQUARED,
                                          boosters.DictionaryLearner(atoms), variant)
            model, trace = boosters.train(data, config, 0)
            t0 = time.perf_counter()
            model.predict(data.features)
            probe.record_predict((time.perf_counter() - t0) * 1e3, data.n_samples)
            out.append((trace, best_risk))
        return out

    def work(self, state, counts) -> tuple[int, int]:
        return counts["train.iterations"], counts["predict.rows"]

    def check_pass(self, state, out, probe):
        errors = check_trained_models(probe)
        paths = []
        for trace, best_risk in out:
            excess = boosters.excess_risk_trace(trace, best_risk)
            k = len(excess)
            paths.append([k, harness.convergence_slope(excess, max(1, k // 32), k)])
        return errors, {"paths": paths}

    def compare(self, summary, ref) -> list[str]:
        errors = []
        if len(summary["paths"]) != len(ref["paths"]):
            return [f"{len(summary['paths'])} paths, reference has {len(ref['paths'])}"]
        for i, ((k, slope), (k_ref, slope_ref)) in enumerate(zip(summary["paths"], ref["paths"])):
            if k != k_ref:
                errors.append(f"path {i}: {k} iterations, reference {k_ref}")
            if not close(slope, slope_ref, 0.0, self.slope_atol):
                errors.append(f"path {i}: slope {slope!r}, reference {slope_ref!r}")
        return errors


class PredictCsv:
    """`reboost predict` of a saved 200-term J=4 tree model on a feature CSV.

    The model is trained on m2 (n=500) and both files are written during
    set-up. One operation, one unit call and one predict call are all one
    `reboost predict` invocation through ``reboost.cli.main``.
    """

    tail_pct = 90
    min_calls = 100
    ops_per_pass = 1
    rows = 5_000
    terms = 200
    metric_rtol = 1e-6

    def setup(self, input_set: int, workdir: str):
        seeds = input_seeds(input_set, 2)
        train_set = synthdata.gen_regression(synthdata.M2Spec(500, 0.0), "train", seeds[0])
        config = boosters.TrainConfig(self.terms, LossKind.SQUARED, boosters.TreeLearner(4),
                                      boosters.Rescale(boosters.ShrinkageSchedule.theorem()))
        model, trace = boosters.train(train_set, config, seeds[0])
        model_path = os.path.join(workdir, "model.txt")
        model_io.save_model(model_path, model, config.loss, train_set.task, seeds[0])
        rows = synthdata.gen_regression(synthdata.M2Spec(self.rows, 0.0),
                                        "test_noiseless", seeds[1])
        data_path = os.path.join(workdir, "features.csv")
        with open(data_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"x{j + 1}" for j in range(rows.n_features)) + "\n")
            fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows.features)
        return {
            "model": model, "trace": trace, "rows": rows,
            "argv": ["predict", "--model", model_path, "--data", data_path,
                     "--out", os.path.join(workdir, "predictions.csv")],
        }

    def run_pass(self, state, probe):
        t0 = time.perf_counter()
        code = cli.main(state["argv"])
        ms = (time.perf_counter() - t0) * 1e3
        if code != 0:
            raise RuntimeError(f"reboost predict exited with {code}")
        probe.call_ms.append(ms)
        probe.record_predict(ms, self.rows)
        return state["argv"][-1]

    def work(self, state, counts) -> tuple[int, int]:
        return len(state["model"]) * counts["predict.calls"], counts["predict.rows"]

    def check_pass(self, state, out_path, probe):
        printed = np.loadtxt(out_path, delimiter=",", skiprows=1, ndmin=1)
        rows = state["rows"]
        if "expected" not in state:  # computed once, outside set-up and passes
            state["expected"] = state["model"].predict(rows.features)
        expected = state["expected"]
        errors = []
        if printed.shape != expected.shape:
            errors.append(f"{printed.shape[0]} predictions for {expected.shape[0]} rows")
        else:
            gap = np.abs(printed - expected)
            bound = PREDICT_RTOL * np.maximum(np.abs(expected), np.max(np.abs(expected)))
            if np.any(gap > bound):
                errors.append(f"reboost predict differs from model.predict by up to "
                              f"{float(gap.max())!r}")
        rmse = harness.rmse(printed, rows.targets) if not errors else float("nan")
        return errors, {"iterations": len(state["trace"]), "rmse": rmse}

    def compare(self, summary, ref) -> list[str]:
        errors = []
        if summary["iterations"] != ref["iterations"]:
            errors.append(f"{summary['iterations']} iterations, reference {ref['iterations']}")
        if not close(summary["rmse"], ref["rmse"], self.metric_rtol):
            errors.append(f"test rmse {summary['rmse']!r}, reference {ref['rmse']!r}")
        return errors


WORKLOADS = {
    # split search dominates; the squared-loss line search is closed form
    "m2-trees": Sweep(m2_sets, LossKind.SQUARED, boosters.TreeLearner(4),
                      k_max=20, metric_rtol=1e-6, metric_atol=0.0),
    # golden-section line search dominates; a changed step may move the
    # chosen k, so the misclassification rate gets 1% of the 4000 test rows
    "orange-stumps": Sweep(orange_sets, LossKind.LOGISTIC, boosters.StumpLearner(),
                           k_max=100, metric_rtol=0.0, metric_atol=0.01),
    "dictionary-path": DictionaryPath(),
    "predict-csv": PredictCsv(),
}
