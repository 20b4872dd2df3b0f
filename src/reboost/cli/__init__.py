"""Command-line surface: train, predict, simulate, bench, convergence, fetch.

Commands raise; ``main`` alone prints the ``error:`` line and picks the
exit code, from the error's type through ``EXIT_CODES``, or from the phase
that ``_phase`` tags where one type means different things:

- 0 success
- 2 the command line: a bad flag value, a variant missing its parameter
  (``--variant shrunk`` without ``--nu``), a ``--k-max`` below 1, a
  classification loss without ``--task classification``, an unknown
  ``fetch --name``
- 3 an input or output file: a dataset, feature CSV or model file that
  cannot be read or is malformed, a ``bench`` dataset too small to split,
  a malformed ``fetch --table`` entry or download, an output file that
  cannot be written
- 4 training or tuning
- 5 network
- 6 checksum
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import logging
import re
import sys
from dataclasses import astuple, fields

import numpy as np

from reboost import boosters, harness, synthdata
from reboost.cli import data_io, fetch, model_io
from reboost.core import (
    InvalidInputError,
    InvalidSpecError,
    Task,
    TraceRecord,
    truncate_predictions,
)
from reboost.losses import LossKind

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_DATA = 3
EXIT_TRAIN = 4
EXIT_NETWORK = 5
EXIT_CHECKSUM = 6

EXIT_CODES = (  # (error types, exit code), for errors no phase has tagged
    (fetch.NetworkError, EXIT_NETWORK),
    (fetch.ChecksumError, EXIT_CHECKSUM),
    ((OSError, data_io.CsvParseError, fetch.TableError, fetch.RawDataError), EXIT_DATA),
    (harness.TuningError, EXIT_TRAIN),
    ((InvalidInputError, InvalidSpecError, fetch.UnknownDatasetError), EXIT_FLAGS),
)


@contextlib.contextmanager
def _phase(code: int):
    """Tag an ``InvalidInputError`` raised inside the block with exit
    ``code``: reading an input file (3) or training (4) turns the library's
    flag errors into failures of that phase."""
    try:
        yield
    except InvalidInputError as err:
        err.exit_code = code
        raise


def _integer(text: str) -> int:
    """The type of every integer flag: an optional '-' and ASCII digits, not
    the '+', spaces, '_' or other scripts' digits that int() also takes."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be an integer of ASCII digits, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """The type of every ``--seed``: numpy's seeding takes integers >= 0."""
    seed = _integer(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _task(name: str) -> Task:
    return Task.CLASSIFICATION if name == "classification" else Task.REGRESSION


def _build_variant(args) -> boosters.Variant:
    """The variant of ``harness.FAMILIES`` at its flag's value; rescale
    without ``--u`` takes the theorem schedule, truncated ``--t-exponent``."""
    if args.variant == "plain":
        return boosters.Plain()
    name, make, _ = harness.FAMILIES[args.variant]
    value = getattr(args, name)
    if value is None and args.variant == "rescale":
        return boosters.Rescale(boosters.ShrinkageSchedule.theorem())
    if value is None:
        raise InvalidSpecError(f"--{name} is required for the {args.variant} variant")
    if args.variant == "truncated":
        return boosters.Truncated(value, args.t_exponent)
    return make(value)


def _write_records(path, cls, records) -> None:
    """One CSV row per dataclass record, one column per field of ``cls``."""
    data_io.write_csv(path, [f.name for f in fields(cls)], zip(*map(astuple, records)))


def _learner_spec(args) -> boosters.LearnerSpec:
    tree = boosters.TreeLearner(args.splits)  # checks --splits for stumps too
    return boosters.StumpLearner() if args.learner == "stump" else tree


def cmd_train(args) -> int:
    loss, task = LossKind(args.loss), _task(args.task)
    if loss.is_classification and task is not Task.CLASSIFICATION:
        raise InvalidSpecError(f"{loss.value} loss needs --task classification")
    config = boosters.TrainConfig(args.iterations, loss, _learner_spec(args),
                                  _build_variant(args))
    with _phase(EXIT_DATA):
        data = data_io.load_dataset_csv(args.data, task)
    with _phase(EXIT_TRAIN):
        model, trace = boosters.train(data, config, args.seed)
    model_io.save_model(args.model_out, model, config.loss, data.task, args.seed)
    if args.trace_out:
        _write_records(args.trace_out, TraceRecord, trace.records)
    if trace.stopped_early:
        print(f"note: {trace.stopped_early}", file=sys.stderr)
    print(f"trained {len(trace)} iterations, final risk "
          f"{trace.risks[-1] if len(trace) else float('nan'):.6g}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.truncate is not None:  # a bad level is a flag error, found before any file is read
        truncate_predictions(np.empty(0), args.truncate)
    with _phase(EXIT_DATA):
        model = model_io.load_model(args.model)[0]
        preds = model.predict(data_io.load_feature_matrix(args.data, model.n_features))
    if args.truncate is not None:
        preds = truncate_predictions(preds, args.truncate)
    data_io.write_csv(args.out, ("prediction",), [preds])
    return EXIT_OK


def _run_experiment(args, provider, grid, loss, learner) -> int:
    """The shared tail of ``simulate`` and ``bench``: run every method over
    ``args.runs`` seeds, then write and print the report."""
    methods = tuple(args.methods) if args.methods else harness.METHODS
    report = harness.repeat_experiment(provider, methods, grid, loss,
                                       learner, args.runs, args.seed)
    _print_report(report)
    if args.report_out:
        _write_records(args.report_out, harness.MethodResult, report.rows)
    return EXIT_OK


def _print_report(report: harness.ExperimentReport) -> None:
    for row in report.rows:
        print(f"{row.method:10s} mean={row.mean_metric:.6g} stderr={row.stderr:.3g} "
              f"params={row.chosen_params} k={row.chosen_k} runs={row.runs}")
    if report.failures:
        print(f"note: {report.failures} method-runs failed and were excluded",
              file=sys.stderr)


def cmd_simulate(args) -> int:
    _, _, loss, learner, k_max = harness.EXPERIMENTS[args.experiment]
    grid = harness.TuningGrid(k_max=k_max if args.k_max is None else args.k_max)

    def provider(seed: int):
        subs = [int(s) for s in np.random.SeedSequence(seed).generate_state(3)]
        return harness.experiment_sets(args.experiment, subs, args.sigma, args.q)
    return _run_experiment(args, provider, grid, loss, learner)


def cmd_bench(args) -> int:
    grid = harness.TuningGrid(k_max=1000 if args.k_max is None else args.k_max)
    task = _task(args.task)
    with _phase(EXIT_DATA):
        data = data_io.load_dataset_csv(args.data, task)
        harness.split_dataset(data, args.seed)  # raises if a part would be empty
    loss = LossKind.LOGISTIC if task is Task.CLASSIFICATION else LossKind.SQUARED
    provider = functools.partial(harness.split_dataset, data)
    return _run_experiment(args, provider, grid, loss, boosters.StumpLearner())


def _slope(excess: np.ndarray, k_lo: int, k_hi: int, stopped_early) -> tuple[float, str]:
    """(slope, printed slope) of the excess risk over k in [k_lo, k_hi].

    The instance is noise-free, so an excess risk <= 0 means the fit is
    exact; a log-log slope through it, or through fewer than 3 points,
    measures nothing, and the slope is nan, printed as n/a with the reason.
    """
    exact = np.flatnonzero(excess <= 0.0)
    if not exact.size and k_hi - k_lo >= 2:
        slope = harness.convergence_slope(excess, k_lo, k_hi)
        return slope, f"{slope:.4f}"
    why = [f"exact at k={exact[0] + 1}" if exact.size
           else f"fewer than 3 steps in k={k_lo}..{k_hi}"]
    if stopped_early:
        why.append(f"stopped early: {stopped_early}")
    return float("nan"), f"n/a ({'; '.join(why)})"


def cmd_convergence(args) -> int:
    spec = synthdata.SparseDictionarySpec(args.samples, args.atoms,
                                          args.sparsity, args.coef_norm)
    data, atoms, h_risk, _ = synthdata.gen_sparse_dictionary_instance(spec, args.seed)
    learner = boosters.DictionaryLearner(atoms)
    variants = {
        "rescale": boosters.Rescale(boosters.ShrinkageSchedule.theorem()),
        "plain": boosters.Plain(),
    }
    k_lo, k_hi = max(1, args.k_max // 32), args.k_max

    rows = []
    for name, variant in variants.items():
        config = boosters.TrainConfig(args.k_max, LossKind.SQUARED, learner, variant)
        with _phase(EXIT_TRAIN):
            _, trace = boosters.train(data, config, args.seed)
        excess = boosters.excess_risk_trace(trace, h_risk)
        slope, shown = _slope(excess, k_lo, min(k_hi, len(excess)), trace.stopped_early)
        print(f"{name}: iterations={len(excess)} slope={shown}")
        rows.extend((name, k, e, slope) for k, e in enumerate(excess.tolist(), start=1))

    if args.report_out:
        data_io.write_csv(args.report_out, ("method", "k", "excess_risk", "slope"), zip(*rows))
    return EXIT_OK


def cmd_fetch(args) -> int:
    print(f"wrote {fetch.fetch_dataset(args.name, args.out_dir, args.url, args.table)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reboost",
        description="Re-scale gradient boosting: training, prediction, "
                    "experiment reproduction and convergence diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a boosting model on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("regression", "classification"), default="regression")
    p.add_argument("--loss", choices=[k.value for k in LossKind], default="squared")
    p.add_argument("--learner", choices=("stump", "tree"), default="stump")
    p.add_argument("--splits", type=_integer, default=4, help="tree split count J")
    p.add_argument("--variant", choices=harness.METHODS, default="rescale")
    p.add_argument("--u", type=float, help="rescale schedule 2/(k+u), u >= 1")
    p.add_argument("--nu", type=float, help="shrunk step factor in (0,1]")
    p.add_argument("--t0", type=float, help="truncated search bound scale")
    p.add_argument("--t-exponent", type=float, default=2.0 / 3.0,
                   help="truncated bound t_k = t0 * k^(-exponent); finite and >= 0 "
                        "(default 2/3)")
    p.add_argument("--eps", type=float, help="epsilon step size")
    p.add_argument("--iterations", "-k", type=_integer, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truncate", type=float, help="clamp predictions to [-M, M]")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="reproduce a toy experiment")
    p.add_argument("--experiment", choices=tuple(harness.EXPERIMENTS), required=True)
    p.add_argument("--sigma", type=float, default=0.0,
                   help="noise standard deviation (m1/m2), finite and >= 0")
    p.add_argument("--q", type=_integer, default=0, help="noise feature count (orange)")
    p.add_argument("--runs", type=_integer, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--k-max", type=_integer,
                   help="iterations per training, >= 1 (default " + ", ".join(
                       f"{row[4]} for {name}" for name, row in harness.EXPERIMENTS.items()) + ")")
    p.add_argument("--methods", nargs="+", choices=harness.METHODS)
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="benchmark all methods on a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("regression", "classification"), required=True)
    p.add_argument("--runs", type=_integer, default=20)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--k-max", type=_integer, help="iterations per training, >= 1 (default 1000)")
    p.add_argument("--methods", nargs="+", choices=harness.METHODS)
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("convergence", help="empirical convergence-rate check "
                                           "on the sparse dictionary instance")
    p.add_argument("--samples", type=_integer, default=256)
    p.add_argument("--atoms", type=_integer, default=64)
    p.add_argument("--sparsity", type=_integer, default=4)
    p.add_argument("--coef-norm", type=float, default=4.0)
    p.add_argument("--k-max", type=_integer, default=1024)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("fetch", help="download and convert a benchmark dataset")
    p.add_argument("--name", required=True)
    p.add_argument("--url", help="override the table URL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--table", help="alternate source-table path")
    p.set_defaults(func=cmd_fetch)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        code = getattr(err, "exit_code", None) or next(
            (code for types, code in EXIT_CODES if isinstance(err, types)), None)
        if code is None:
            raise
        print(f"error: {err}", file=sys.stderr)
        return code
