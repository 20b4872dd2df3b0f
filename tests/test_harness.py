import logging
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reboost import harness
from reboost.boosters import (
    Plain,
    Rescale,
    ShrinkageSchedule,
    StumpLearner,
    TrainConfig,
    TreeLearner,
    train,
)
from reboost.core import Dataset, EnsembleModel, InvalidInputError, Task, TrainTrace
from reboost.harness import (
    FAMILIES,
    METHODS,
    TuningGrid,
    convergence_slope,
    metric_for_task,
    misclass_rate,
    repeat_experiment,
    rmse,
    split_dataset,
    tune,
    validation_curve,
    variant_cells,
)
from reboost.losses import LossKind
from reboost.synthdata import gen_orange


def toy_dataset(seed=0, m=80):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(m, 2))
    y = X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.standard_normal(m)
    return Dataset(X, y, Task.REGRESSION)


class TestGrids:
    def test_sizes_and_endpoints(self):
        grids = {family: values for family, (_, _, values) in FAMILIES.items()}
        assert len(grids["shrunk"]) == 20 and len(grids["epsilon"]) == 20
        assert len(grids["rescale"]) == 20
        assert grids["rescale"][0] == 1.0 and grids["rescale"][-1] == 1e6
        assert grids["shrunk"][0] == 0.01 and grids["shrunk"][-1] == 1.0
        assert grids["truncated"] == (0.5, 1.0, 2.0, 4.0)

    def test_u_grid_log_spacing(self):
        logs = np.log10(FAMILIES["rescale"][2])
        steps = np.diff(logs)
        assert np.allclose(steps, steps[0], atol=1e-9)

    def test_cells_per_family(self):
        assert len(variant_cells("plain")) == 1
        assert len(variant_cells("rescale")) == 20
        assert len(variant_cells("shrunk")) == 20
        assert len(variant_cells("epsilon")) == 20
        assert len(variant_cells("truncated")) == 4
        with pytest.raises(InvalidInputError):
            variant_cells("mystery")

    def test_grid_holds_only_the_path_length(self):
        assert [f.name for f in fields(TuningGrid)] == ["k_max"]


class TestSplitDataset:
    def test_paper_ratio_sizes(self):
        data = toy_dataset(m=100)
        tr, va, te = split_dataset(data, 0)
        assert (tr.n_samples, va.n_samples, te.n_samples) == (50, 25, 25)

    def test_same_seed_same_partition(self):
        data = toy_dataset(m=60)
        a = split_dataset(data, 9)
        b = split_dataset(data, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)

    def test_union_is_input_multiset(self):
        data = toy_dataset(m=47)
        parts = split_dataset(data, 3)
        rows = np.vstack([p.features for p in parts])
        assert np.array_equal(np.sort(rows[:, 0]), np.sort(data.features[:, 0]))

    def test_empty_part_rejected(self):
        with pytest.raises(InvalidInputError):
            split_dataset(toy_dataset(m=3), 0)
        assert [p.n_samples for p in split_dataset(toy_dataset(m=4), 0)] == [2, 1, 1]


class TestMetrics:
    def test_rmse(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)
        assert rmse([3.0], [0.0]) == pytest.approx(3.0)

    def test_misclass(self):
        assert misclass_rate([0.5, -0.5], [1.0, -1.0]) == 0.0
        assert misclass_rate([-0.5, 0.5], [1.0, -1.0]) == 1.0
        # sign(0) counts as +1
        assert misclass_rate([0.1, -0.2, 0.0], [1.0, 1.0, -1.0]) == pytest.approx(2.0 / 3.0)

    def test_misclass_label_validation(self):
        with pytest.raises(InvalidInputError):
            misclass_rate([0.1], [0.0])

    def test_metric_for_task(self):
        assert metric_for_task(Task.REGRESSION) is rmse
        assert metric_for_task(Task.CLASSIFICATION) is misclass_rate

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
                 min_size=k, max_size=k),
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n),
        st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))))
    def test_rows_score_as_one_dimensional_calls(self, drawn):
        preds, targets, labels = drawn
        for metric, truth in ((rmse, targets), (misclass_rate, labels)):
            rows = metric(np.array(preds), truth)
            singles = [metric(p, truth) for p in preds]
            assert all(type(v) is float for v in singles)
            assert rows.shape == (len(preds),)
            assert [float(v).hex() for v in rows] == [v.hex() for v in singles]

    @pytest.mark.parametrize("metric", [rmse, misclass_rate])
    @pytest.mark.parametrize("preds, targets", [
        ([[1.0, -1.0, 1.0]], [1.0, -1.0]),
        ([1.0, -1.0], [[1.0, -1.0]]),
        ([[1.0, -1.0]], [[1.0, -1.0]]),
        ([], []),
        (np.empty((0, 2)), [1.0, -1.0]),
        (np.empty((2, 0)), []),
        (np.ones((1, 1, 2)), [1.0, -1.0]),
        (1.0, 1.0),
    ], ids=["row-length-mismatch", "2-d-targets", "2-d-both", "empty", "no-rows",
            "empty-rows", "3-d-preds", "scalars"])
    def test_shape_rejections(self, metric, preds, targets):
        with pytest.raises(InvalidInputError):
            metric(preds, targets)

    def test_row_labels_validated(self):
        with pytest.raises(InvalidInputError, match=r"labels must be -1 or \+1"):
            misclass_rate([[0.1, -0.1], [0.2, 0.3]], [1.0, 0.0])


class TestPathPredictions:
    def test_prefix_matches_full_model(self):
        data = toy_dataset(1)
        model, trace = train(data, TrainConfig(12, LossKind.SQUARED,
                                               StumpLearner(), Plain()), 0)
        full = EnsembleModel.from_path(model.learners, trace,
                                       n_features=model.n_features).predict(data.features)
        assert np.allclose(full, model.predict(data.features), rtol=1e-10)

    def test_curve_matches_manual_prefixes(self):
        data = toy_dataset(2)
        val = toy_dataset(3, m=30)
        model, trace = train(data, TrainConfig(8, LossKind.SQUARED,
                                               StumpLearner(), Plain()), 0)
        curve = validation_curve(model, trace, val)
        for k in (1, 4, 8):
            preds = EnsembleModel.from_path(model.learners, trace, k,
                                            n_features=model.n_features).predict(val.features)
            assert curve[k - 1] == pytest.approx(rmse(preds, val.targets))


def replayed_curve(model, trace, val_set):
    """The per-step replay validation_curve ran before it scored its
    prefixes in buffers: one 1-D metric call after every step."""
    metric = metric_for_task(val_set.task)
    preds = np.zeros(val_set.n_samples)
    curve = []
    for rec, learner in zip(trace.records, model.learners):
        preds = (1.0 - rec.alpha) * preds + rec.beta * learner.evaluate(val_set.features)
        curve.append(metric(preds, val_set.targets))
    return np.array(curve)


def regression_path():
    config = TrainConfig(40, LossKind.SQUARED, TreeLearner(3),
                         Rescale(ShrinkageSchedule.experimental(5.0)))
    return (*train(toy_dataset(4), config, 0), toy_dataset(5, m=37))


def classification_path():
    config = TrainConfig(60, LossKind.LOGISTIC, StumpLearner(),
                         Rescale(ShrinkageSchedule.experimental(2.0)))
    return (*train(gen_orange(40, 1, 6), config, 0), gen_orange(25, 1, 7))


class TestValidationCurve:
    @pytest.mark.parametrize("make", [regression_path, classification_path])
    def test_equals_per_step_replay(self, make):
        model, trace, val = make()
        curve = validation_curve(model, trace, val)
        assert curve.dtype == np.float64 and curve.shape == (len(trace),)
        assert curve.tobytes() == replayed_curve(model, trace, val).tobytes()

    @pytest.mark.parametrize("make", [regression_path, classification_path])
    @pytest.mark.parametrize("rows", [0, 1, 3, 7])
    def test_curve_longer_than_one_buffer(self, monkeypatch, make, rows):
        # rows=0 asks for a buffer smaller than one row, which holds one anyway
        model, trace, val = make()
        monkeypatch.setattr(harness, "CURVE_BUFFER_FLOATS", rows * val.n_samples + 1)
        curve = validation_curve(model, trace, val)
        assert curve.tobytes() == replayed_curve(model, trace, val).tobytes()

    def test_empty_trace(self):
        val = toy_dataset(5, m=9)
        curve = validation_curve(EnsembleModel(2, 0.0, [], []), TrainTrace(), val)
        assert curve.dtype == np.float64 and curve.shape == (0,)

    def test_buffer_memory_is_bounded(self, monkeypatch):
        # 200 steps on 4,000 rows would be 6.4 MB of prefixes; the buffer
        # holds 16 rows (512 KB), and the metric's temporaries of its shape
        # bring the peak to about twice that
        data = toy_dataset(8)
        val = toy_dataset(9, m=4000)
        model, trace = train(data, TrainConfig(200, LossKind.SQUARED, StumpLearner(),
                                               Plain()), 0)
        monkeypatch.setattr(harness, "CURVE_BUFFER_FLOATS", 16 * val.n_samples)
        tracemalloc.start()
        try:
            validation_curve(model, trace, val)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * harness.CURVE_BUFFER_FLOATS


class TestTune:
    def test_single_cell_family(self):
        data = toy_dataset(4, m=120)
        tr, va, _ = split_dataset(data, 0)
        grid = TuningGrid(k_max=20)
        res = tune(tr, va, "plain", grid, LossKind.SQUARED, StumpLearner())
        assert res.params == "-"
        assert 1 <= res.best_k <= 20

    def test_rescale_grid_has_no_failed_cell(self, caplog):
        # the first cell, u = 1, starts with alpha_1 = 1
        data = toy_dataset(7, m=120)
        tr, va, _ = split_dataset(data, 3)
        with caplog.at_level(logging.WARNING, logger="reboost.harness"):
            tune(tr, va, "rescale", TuningGrid(k_max=10), LossKind.SQUARED, StumpLearner())
        assert not [r for r in caplog.records if "failed" in r.getMessage()]

    def test_selection_matches_exhaustive_re_evaluation(self):
        data = toy_dataset(5, m=120)
        tr, va, _ = split_dataset(data, 1)
        grid = TuningGrid(k_max=15)
        res = tune(tr, va, "truncated", grid, LossKind.SQUARED, StumpLearner())
        # independent re-run: train each cell afresh and evaluate prefixes
        best = None
        for idx, t0 in enumerate(FAMILIES["truncated"][2]):
            from reboost.boosters import Truncated
            model, trace = train(tr, TrainConfig(15, LossKind.SQUARED,
                                                 StumpLearner(), Truncated(t0)), 0)
            for k in range(1, len(trace) + 1):
                prefix = EnsembleModel.from_path(model.learners, trace, k,
                                                 n_features=model.n_features)
                m = rmse(prefix.predict(va.features), va.targets)
                key = (m, k, idx)
                if best is None or key < best:
                    best = key
        assert res.val_metric == pytest.approx(best[0], rel=1e-12)
        assert res.best_k == best[1]

    def test_never_returns_dominated_cell(self):
        data = toy_dataset(6, m=120)
        tr, va, _ = split_dataset(data, 2)
        grid = TuningGrid(k_max=10)
        res = tune(tr, va, "shrunk", grid, LossKind.SQUARED, StumpLearner())
        from reboost.boosters import Shrunk
        for nu in FAMILIES["shrunk"][2]:
            model, trace = train(tr, TrainConfig(10, LossKind.SQUARED,
                                                 StumpLearner(), Shrunk(nu)), 0)
            curve = validation_curve(model, trace, va)
            assert res.val_metric <= curve.min() + 1e-15

    @pytest.mark.parametrize("method", ["plain", "shrunk"])
    def test_returns_the_model_of_the_chosen_prefix(self, method):
        # orange at k_max 10: both methods stop before k_max on this draw
        tr, va = gen_orange(100, 1, 0), gen_orange(100, 1, 1)
        config = (LossKind.LOGISTIC, StumpLearner())
        res = tune(tr, va, method, TuningGrid(k_max=10), *config)
        assert res.best_k < 10
        assert len(res.model) == res.best_k
        variant = dict(variant_cells(method))[res.params]
        model, trace = train(tr, TrainConfig(10, *config, variant))
        prefix = EnsembleModel.from_path(model.learners, trace, res.best_k,
                                         n_features=model.n_features)
        X = gen_orange(50, 1, 2).features
        assert res.model.predict(X).tobytes() == prefix.predict(X).tobytes()
        assert res.val_metric == validation_curve(model, trace, va)[res.best_k - 1]


class TestRepeatExperiment:
    @staticmethod
    def provider(seed):
        data = toy_dataset(seed, m=90)
        return split_dataset(data, seed)

    def test_single_run_stderr_zero(self):
        rep = repeat_experiment(self.provider, ("plain",), TuningGrid(k_max=10),
                                LossKind.SQUARED, StumpLearner(), 1, 0)
        assert rep.rows[0].stderr == 0.0
        assert rep.rows[0].runs == 1

    def test_stats_match_recomputation(self):
        grid = TuningGrid(k_max=10)
        rep = repeat_experiment(self.provider, ("plain",), grid,
                                LossKind.SQUARED, StumpLearner(), 4, 100)
        per_run = []
        for seed in rep.seeds:
            tr, va, te = self.provider(seed)
            res = tune(tr, va, "plain", grid, LossKind.SQUARED, StumpLearner())
            preds = res.model.predict(te.features)
            per_run.append(rmse(preds, te.targets))
        vals = np.array(per_run)
        assert rep.rows[0].mean_metric == pytest.approx(vals.mean(), rel=1e-12)
        assert rep.rows[0].stderr == pytest.approx(vals.std(ddof=1) / 2.0, rel=1e-12)

    def test_method_with_no_completed_run_raises(self, monkeypatch):
        # shrunk and epsilon fail on every seed, truncated on the first only
        real_tune, calls = harness.tune, []

        def tune(tr, va, method, *args):
            calls.append(method)
            first_truncated = method == "truncated" and calls.count(method) == 1
            if method in ("shrunk", "epsilon") or first_truncated:
                raise harness.TuningError("every grid cell failed")
            return real_tune(tr, va, method, *args)

        monkeypatch.setattr(harness, "tune", tune)
        with pytest.raises(harness.TuningError, match=re.escape(
                "every run failed for methods: ['shrunk', 'epsilon']")):
            repeat_experiment(self.provider, ("plain", "shrunk", "truncated", "epsilon"),
                              TuningGrid(k_max=3), LossKind.SQUARED, StumpLearner(), 2, 0)
        assert calls.count("truncated") == 2

    def test_method_list_respected(self):
        rep = repeat_experiment(self.provider, METHODS[:2], TuningGrid(k_max=5),
                                LossKind.SQUARED, StumpLearner(), 1, 0)
        assert [r.method for r in rep.rows] == list(METHODS[:2])


class TestConvergenceSlope:
    def test_exact_inverse_k(self):
        ks = np.arange(1, 200, dtype=float)
        assert convergence_slope(1.0 / ks, 10, 150) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_sequence(self):
        assert convergence_slope(np.full(100, 0.7), 5, 90) == pytest.approx(0.0, abs=1e-12)

    def test_log_k_over_k_window(self):
        ks = np.arange(1, 1025, dtype=float)
        excess = np.log(np.maximum(ks, 2.0)) / ks
        slope = convergence_slope(excess, 32, 1024)
        assert -1.0 < slope < -0.8

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        excess = np.exp(rng.normal(size=300))
        a = convergence_slope(excess, 10, 250)
        b = convergence_slope(1e6 * excess, 10, 250)
        assert a == pytest.approx(b, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            convergence_slope(np.ones(10), 5, 6)
        with pytest.raises(InvalidInputError):
            convergence_slope(np.ones(10), 9, 12)

    def test_floor_applied(self):
        excess = np.zeros(50)
        slope = convergence_slope(excess, 1, 50)
        assert np.isfinite(slope)
