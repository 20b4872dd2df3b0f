"""The golden trace corpus: fixed training runs, tuning sweeps and line
searches, with every float they produce stored as ``float.hex`` in
``traces.json`` beside this file. ``tests/test_golden.py`` reruns each case
and compares it with the file.

Rewrite the file only for a change that is meant to move results, and say
in CHANGES.md which cases moved, by how much and why:

    PYTHONPATH=src python tests/golden/regenerate.py

Floats compare bit for bit when numpy's version, its BLAS and
``platform.machine()`` match the environment recorded in the file.
OpenBLAS picks its dot kernel by CPU, so elsewhere each float field of a
case compares within ``RTOL`` of the largest magnitude in that field.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from reboost import harness, synthdata
from reboost.boosters import (
    DictionaryLearner,
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
from reboost.core import Dataset, Task
from reboost.linesearch import line_search
from reboost.losses import LossKind

CORPUS = Path(__file__).with_name("traces.json")
RTOL = 1e-12
STEPS = 30
SEEDS = (0, 1)

# fields stored as lists of float.hex; every other field compares exactly
FLOAT_FIELDS = frozenset({"beta", "alpha", "risk", "coefs", "predictions",
                          "mean_metric", "stderr", "value"})

VARIANTS = {
    "plain": Plain(),
    "rescale-theorem": Rescale(ShrinkageSchedule.theorem()),
    "rescale-u10": Rescale(ShrinkageSchedule.experimental(10.0)),
    "rescale-u1": Rescale(ShrinkageSchedule.experimental(1.0)),
    "shrunk-0.3": Shrunk(0.3),
    "truncated-0.5": Truncated(0.5),
    "epsilon-0.1": Epsilon(0.1),
}


def m2_trees(seed):
    data = synthdata.gen_regression(synthdata.M2Spec(60, 0.3), "train", seed)
    probe = synthdata.gen_regression(synthdata.M2Spec(16, 0.0), "test_noiseless", seed + 100)
    return data, LossKind.SQUARED, TreeLearner(4), probe.features


def orange_stumps(seed):
    return (synthdata.gen_orange(30, 1, seed), LossKind.LOGISTIC, StumpLearner(),
            synthdata.gen_orange(8, 1, seed + 100).features)


def orange_trees(seed):
    return (synthdata.gen_orange(30, 1, seed), LossKind.EXPONENTIAL, TreeLearner(3),
            synthdata.gen_orange(8, 1, seed + 100).features)


def dictionary(seed):
    spec = synthdata.SparseDictionarySpec(64, 16, 4, 4.0)
    data, atoms, _, _ = synthdata.gen_sparse_dictionary_instance(spec, seed)
    return data, LossKind.SQUARED, DictionaryLearner(atoms), np.linspace(0.0, 1.0, 17)[:, None]


SETUPS = {"m2-trees": m2_trees, "orange-stumps": orange_stumps,
          "orange-trees-exponential": orange_trees, "dictionary": dictionary}


def edge_cases():
    """name -> (dataset, loss, learner, variant, steps) of runs that broke
    before: a capped step, minimizers beyond 1e6, a g.g that underflows."""
    separable = Dataset(np.array([[-2.0], [-1.0], [1.0], [2.0]]),
                        np.array([-1.0, -1.0, 1.0, 1.0]), Task.CLASSIFICATION)
    tiny = Dataset(np.arange(20.0).reshape(-1, 1), 1e-170 * (1.0 + np.arange(20) % 3),
                   Task.REGRESSION)
    return {
        "separable-exponential-capped": (separable, LossKind.EXPONENTIAL, StumpLearner(),
                                         Plain(), 3),
        "far-minimizer": (synthdata.gen_orange(60, 2, 3), LossKind.EXPONENTIAL,
                          TreeLearner(3), Plain(), 40),
        "underflowing-direction-rescale": (tiny, LossKind.SQUARED, StumpLearner(),
                                           VARIANTS["rescale-theorem"], 5),
        "underflowing-direction-truncated": (tiny, LossKind.SQUARED, StumpLearner(),
                                             Truncated(1.0), 5),
    }


def run_cases():
    """name -> (dataset, loss, learner, variant, steps, probe features)."""
    cases = {}
    for setup, make in SETUPS.items():
        for seed in SEEDS:
            data, loss, learner, probe = make(seed)
            for label, variant in VARIANTS.items():
                cases[f"{setup}/seed{seed}/{label}"] = (data, loss, learner, variant,
                                                        STEPS, probe)
    for name, (data, loss, learner, variant, steps) in edge_cases().items():
        cases[name] = (data, loss, learner, variant, steps, data.features)
    return cases


def _hex(values):
    return [float(v).hex() for v in np.asarray(values, dtype=float).ravel()]


def capture_run(data, loss, learner, variant, steps, probe):
    model, trace = train(data, TrainConfig(steps, loss, learner, variant))
    recs = trace.records
    return {
        "k": [r.k for r in recs],
        "learner": [r.learner for r in recs],
        "note": [r.note for r in recs],
        "beta": _hex([r.beta for r in recs]),
        "alpha": _hex([r.alpha for r in recs]),
        "risk": _hex([r.risk for r in recs]),
        "stopped_early": trace.stopped_early,
        "coefs": _hex(model.coefs),
        "predictions": _hex(model.predict(probe)),
    }


def sweep_cases():
    """name -> (train, validation, test, loss, learner, k_max): one run of
    every method on the datasets of ``harness.EXPERIMENTS``, m1 at sigma
    0.5, m2 at sigma 0.3 and orange at q = 1, with short paths."""
    cases = {}
    for name, sigma, q, k_max in (("m1", 0.5, 0, 5), ("m2", 0.3, 0, 5), ("orange", 0.0, 1, 10)):
        _, _, loss, learner, _ = harness.EXPERIMENTS[name]
        cases[name] = (*harness.experiment_sets(name, (0, 1, 2), sigma, q), loss, learner, k_max)
    return cases


def capture_sweep(train_set, val_set, test_set, loss, learner, k_max):
    report = harness.repeat_experiment(lambda seed: (train_set, val_set, test_set),
                                       harness.METHODS, harness.TuningGrid(k_max),
                                       loss, learner, 1, 0)
    rows = report.rows
    return {
        "seeds": list(report.seeds),
        "failures": report.failures,
        "method": [r.method for r in rows],
        "mean_metric": _hex([r.mean_metric for r in rows]),
        "stderr": _hex([r.stderr for r in rows]),
        "chosen_params": [r.chosen_params for r in rows],
        "chosen_k": [r.chosen_k for r in rows],
        "runs": [r.runs for r in rows],
    }


def line_search_cases():
    """name -> line_search arguments; the exponential probe's first step
    lands where exp overflows, which once came back as beta = NaN."""
    return {
        "exponential-overflowing-probe": (
            LossKind.EXPONENTIAL,
            np.array([696.0939101, 673.16947429, 259.75877827, 210.64298677]),
            np.array([-10.0961818, -2.09175575e-4, -1.59225010e-5, 5.40845585e-6]),
            np.array([1.0, -1.0, 1.0, 1.0])),
    }


def capture_line_search(kind, base, g, y):
    return {"value": _hex([line_search(kind, base, g, y)])}


def environment():
    """What decides whether floats must match bit for bit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def capture_all():
    return {
        "environment": environment(),
        "rtol": RTOL,
        "runs": {name: capture_run(*case) for name, case in run_cases().items()},
        "sweeps": {name: capture_sweep(*case) for name, case in sweep_cases().items()},
        "line_searches": {name: capture_line_search(*case)
                          for name, case in line_search_cases().items()},
    }


def corpus_text(corpus) -> str:
    """JSON with one line per case, so a diff names the cases that moved."""
    parts = []
    for key, value in corpus.items():
        if key in ("runs", "sweeps", "line_searches"):
            value = "{\n" + ",\n".join(f"  {json.dumps(name)}: {json.dumps(case)}"
                                        for name, case in value.items()) + "\n }"
        else:
            value = json.dumps(value)
        parts.append(f" {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    CORPUS.write_text(corpus_text(capture_all()))
    print(f"wrote {CORPUS}")
