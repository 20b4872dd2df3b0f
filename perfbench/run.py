"""Benchmark of the reboost library and CLI, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload m2-trees --seed 3 --seconds 20 --trace 0

It imports ``reboost`` from ``src/`` of that checkout and drives it in this
single process with single-threaded BLAS. ``--seed`` picks one of
``INPUT_SETS`` input sets (seed modulo INPUT_SETS), from which every input
is generated; ``perfbench/reference.json`` holds the expected outputs of
each set. After a set-up, the workload body runs in passes until
``--seconds`` of body time have passed and the workload has at least
``min_calls`` unit calls, so that its tail percentile has at least ten
samples beyond it. Every pass is checked, and must reproduce the first
pass's effort counters exactly; a failed check fails the run (exit 1).

``--trace 0`` prints the end-to-end metrics, measured with only the
probes in ``probes.Probe`` installed:

    setup_s          median time of one set-up (inputs, files, pre-training),
                     sampled before the body and between passes
    wall_s           mean wall time of one pass of the body
    iters_per_s      boosting iterations per second of body time; on
                     predict-csv, model terms applied (terms x invocations)
    rows_per_s       rows predicted per second of body time
    call_tail_ms     tail latency of the workload's unit call: a train call
                     (a grid cell or a path), or on predict-csv one
                     `reboost predict` invocation
    predict_tail_ms  tail latency of one predict call: a validation-curve
                     replay (sweeps), model.predict of a path
                     (dictionary-path), or a `reboost predict` invocation
    peak_rss_mb      peak resident memory of the process

The tail is a fixed percentile per workload (``tail_pct``). The details
line before the result also gives the median latencies, which are not
gated: on a shared host whose speed switches between two levels, the
median of a run's calls lands on either level from run to run, while the
tail and the mean pass time vary much less.

``--trace 1`` runs one untraced pass and then traced passes, in which every
call into the layers listed in ``probes.LAYER_TARGETS`` records a span. It
prints the per-layer metrics: ``<span>.{calls,total_s,self_s}`` per pass
(per set-up for ``synthdata.gen``), the named counts, and the tracing
overhead (median traced pass minus the untraced pass). The spans are
written to ``.perfbench/<workload>/spans.npz``.

``--update-reference`` records the reference outputs of every input set
of ``--workload`` into ``perfbench/reference.json``.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
INPUT_SETS = 16
# Set-up is timed at least this often, once before the body and then again
# between passes whenever this many seconds have passed, so that its
# samples span the run rather than one moment of a host whose speed drifts.
SETUP_MIN_REPEATS = 3
SETUP_INTERVAL_S = 5.0
# a body never runs longer than this many times --seconds
BODY_CAP_FACTOR = 4


def _import_reboost():
    """Import reboost from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import reboost
    except ImportError as err:
        sys.exit(f"error: cannot import reboost from {SRC}: {err}")
    if not Path(reboost.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: reboost was imported from {reboost.__file__}, not {SRC}")


_import_reboost()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from probes import LAYER_TARGETS, Patcher, Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, check_trained_models  # noqa: E402

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "rows_per_s": "1/s",
    "call_tail_ms": "ms", "predict_tail_ms": "ms", "peak_rss_mb": "MB",
}
SETUP_SPANS = frozenset({"synthdata.gen"})
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYER_TARGETS)) + ("bench.pass",)
PER_LAYER_COUNTS = {
    "learners.evaluate.rows": "count",
    "linesearch.line_search.unbounded": "count",
    "boosters.train.attempted": "count",
    "boosters.train.failed": "count",
    "boosters.train.failed_frac": "ratio",
    "boosters.train.iterations": "count",
    "boosters.train.stopped_early": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update(PER_LAYER_COUNTS)
    return units


def environment(args, input_set: int) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "input_set": input_set,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(), "platform": platform.platform(),
    }


def time_setup(workload, input_set, workdir, probe):
    """One untraced set-up; its train calls do not count as body latencies."""
    calls, predicts = len(probe.call_ms), len(probe.predict_ms)
    t0 = time.perf_counter()
    state = workload.setup(input_set, workdir)
    elapsed = time.perf_counter() - t0
    del probe.call_ms[calls:], probe.predict_ms[predicts:]
    return elapsed, state


def set_up(workload, input_set, workdir, probe, tracer):
    """The first timed set-up, whose models are checked, then (traced run)
    one more set-up inside a ``bench.setup`` span."""
    probe.start_pass()
    elapsed, state = time_setup(workload, input_set, workdir, probe)
    errors = check_trained_models(probe)
    if tracer is not None:
        spans = Patcher()
        tracer.install(spans)
        try:
            state = tracer.wrap("bench.setup", workload.setup)(input_set, workdir)
        finally:
            spans.restore()
    return [elapsed], state, errors


def measure(workload, state, probe, tracer, seconds, setup_sample):
    """Run passes of the body; a traced run's first pass is untraced.
    ``setup_sample`` is called between passes every SETUP_INTERVAL_S."""
    passes = []  # (wall seconds, counters, failure reasons, summary)
    errors, failed = [], 0
    body = 0.0
    last_setup = time.perf_counter()
    while ((body < seconds or len(probe.call_ms) < workload.min_calls)
           and body < BODY_CAP_FACTOR * seconds):
        probe.start_pass()
        spans = Patcher()
        run_pass = workload.run_pass
        if tracer is not None and passes:
            tracer.install(spans)
            run_pass = tracer.wrap("bench.pass", run_pass)
        t0 = time.perf_counter()
        try:
            out = run_pass(state, probe)
        except Exception as err:  # the operation failed; report it, stop measuring
            failed += 1
            errors.append(f"operation failed: {type(err).__name__}: {err}")
            break
        finally:
            wall = time.perf_counter() - t0
            spans.restore()
        body += wall
        pass_errors, summary = workload.check_pass(state, out, probe)
        errors += pass_errors
        passes.append((wall, dict(probe.counts), dict(probe.reasons), summary))
        if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            setup_sample()
            last_setup = time.perf_counter()
    return passes, errors, failed


def reproduce_errors(passes) -> list[str]:
    """Every pass runs the same code on the same inputs, so its counters,
    failure reasons and checked outputs must equal the first pass's."""
    _, counts, reasons, summary = passes[0]
    errors = []
    for i, (_, c, r, s) in enumerate(passes[1:], start=2):
        if c != counts or r != reasons:
            errors.append(f"pass {i} counters {c} {r} differ from pass 1 {counts} {reasons}")
        if s != summary:
            errors.append(f"pass {i} outputs differ from pass 1")
    return errors


def reference_errors(workload_name, workload, input_set, summary) -> list[str]:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = refs.get(workload_name, {}).get(str(input_set))
    if ref is None:
        return [f"no reference for {workload_name} input set {input_set}"]
    return [f"reference: {e}" for e in workload.compare(summary, ref)]


def latency(values, pct) -> dict:
    return {"n": len(values), "tail_pct": pct,
            "p50_ms": float(np.percentile(values, 50)),
            "tail_ms": float(np.percentile(values, pct))}


def end_to_end_metrics(workload, state, setup_times, passes, probe) -> tuple[dict, dict]:
    wall = statistics.fmean(p[0] for p in passes)
    iterations, rows = workload.work(state, passes[0][1])
    calls = latency(probe.call_ms, workload.tail_pct)
    predicts = latency(probe.predict_ms, workload.tail_pct)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "iters_per_s": iterations / wall,
        "rows_per_s": rows / wall,
        "call_tail_ms": calls["tail_ms"],
        "predict_tail_ms": predicts["tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"calls": calls, "predicts": predicts}


def per_layer_metrics(tracer, passes) -> tuple[dict, list[str]]:
    roots, calls, total, self_t, work = tracer.aggregate()
    pass_rows = [i for i, r in enumerate(roots) if r == "bench.pass"]
    setup_rows = [i for i, r in enumerate(roots) if r == "bench.setup"]
    ids = {name: j for j, name in enumerate(tracer.names)}
    values, errors = {}, []
    for name in SPAN_NAMES:
        rows = setup_rows if name in SETUP_SPANS else pass_rows
        j = ids.get(name)
        if j is None:
            values.update({f"{name}.calls": 0, f"{name}.total_s": 0.0, f"{name}.self_s": 0.0})
            continue
        if len(set(calls[rows, j])) != 1:
            errors.append(f"{name} calls differ between traced passes: {calls[rows, j]}")
        values[f"{name}.calls"] = int(calls[rows[0], j])
        values[f"{name}.total_s"] = float(np.median(total[rows, j]))
        values[f"{name}.self_s"] = float(np.median(self_t[rows, j]))
    evaluate = ids.get("learners.evaluate")
    values["learners.evaluate.rows"] = 0 if evaluate is None else int(work[pass_rows[0], evaluate])
    counts = passes[1][1]
    attempted = counts.get("train.attempted", 0)
    values["linesearch.line_search.unbounded"] = counts.get("line_search.unbounded", 0)
    for key in ("attempted", "failed", "iterations", "stopped_early"):
        values[f"boosters.train.{key}"] = counts.get(f"train.{key}", 0)
    values["boosters.train.failed_frac"] = (
        counts.get("train.failed", 0) / attempted if attempted else 0.0)
    values["trace.spans"] = int(calls[pass_rows[0]].sum())
    untraced = passes[0][0]
    overhead = statistics.median(p[0] for p in passes[1:]) - untraced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / untraced
    return values, errors


def spec_errors(metrics: dict, key: str) -> list[str]:
    """The metrics printed must be exactly those BENCHMARK.json declares."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return []
    declared = {m["name"] for m in json.loads(spec_path.read_text())[key]}
    if declared != set(metrics):
        return [f"metrics {sorted(set(metrics) ^ declared)} differ from BENCHMARK.json {key}"]
    return []


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    input_set = args.seed % INPUT_SETS
    workdir = ROOT / ".perfbench" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    probes = Patcher()
    probe = Probe()
    probe.install(probes)
    try:
        setup_times, state, errors = set_up(workload, input_set, str(workdir), probe, tracer)

        def setup_sample():
            setup_times.append(time_setup(workload, input_set, str(workdir), probe)[0])

        passes, pass_errors, failed = measure(workload, state, probe, tracer, args.seconds,
                                              setup_sample)
        while len(setup_times) < SETUP_MIN_REPEATS:
            setup_sample()
    finally:
        probes.restore()
    errors += pass_errors
    if len(passes) < (2 if tracer else 1):  # a traced run needs its untraced pass too
        print(json.dumps({"errors": errors}), file=sys.stderr)
        return 1
    errors += reproduce_errors(passes)
    errors += reference_errors(args.workload, workload, input_set, passes[0][3])

    counts, reasons = passes[0][1], passes[0][2]
    attempted = counts.get("train.attempted", 0)
    details = {
        "environment": environment(args, input_set),
        "passes": len(passes),
        "pass_wall_s": [p[0] for p in passes],
        "setup_s": setup_times,
        "counters_per_pass": counts,
        "train_failures_per_pass": {
            "attempted": attempted, "failed": counts.get("train.failed", 0),
            "failed_frac": counts.get("train.failed", 0) / attempted if attempted else 0.0,
            "reasons": reasons,
        },
        "errors": errors,
    }
    if tracer is None:
        values, latencies = end_to_end_metrics(workload, state, setup_times, passes, probe)
        details["latency"] = latencies
        details["call_ms"], details["predict_ms"] = probe.call_ms, probe.predict_ms
        details["environment"]["trace_overhead_s"] = "measured by the --trace 1 run"
        units = END_TO_END
        errors += spec_errors(values, "end_to_end")
    else:
        values, layer_errors = per_layer_metrics(tracer, passes)
        errors += layer_errors
        details["environment"]["trace_overhead_s"] = values["trace.overhead_s"]
        details["missing_span_targets"] = tracer.missing
        tracer.save(workdir / "spans.npz")
        units = per_layer_units()
        errors += spec_errors(values, "per_layer")

    result = {
        "correct": not errors,
        "attempted": workload.ops_per_pass * len(passes) + failed,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details["result"] = result
    (workdir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps({"details": details}))
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not failed else 1


def update_reference(name: str) -> int:
    """Record one checked pass of every input set as the reference."""
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench" / name
    workdir.mkdir(parents=True, exist_ok=True)
    entries = {}
    for input_set in range(INPUT_SETS):
        probes, probe = Patcher(), Probe()
        probe.install(probes)
        try:
            state = workload.setup(input_set, str(workdir))
            errors = check_trained_models(probe)
            probe.start_pass()
            pass_errors, summary = workload.check_pass(
                state, workload.run_pass(state, probe), probe)
            errors += pass_errors
        finally:
            probes.restore()
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        entries[str(input_set)] = summary
        print(f"{name} input set {input_set}: recorded", file=sys.stderr)
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs[name] = entries
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.update_reference:
        return update_reference(args.workload)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
