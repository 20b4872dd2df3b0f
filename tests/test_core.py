import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from reboost.core import (
    Dataset,
    EnsembleModel,
    InvalidInputError,
    Task,
    TraceRecord,
    TrainTrace,
    truncate_predictions,
)
from reboost.learners import DecisionStump


def stump(value_left, value_right=None, feature=0, threshold=0.0):
    if value_right is None:
        value_right = value_left
    return DecisionStump(feature, threshold, value_left, value_right)


@dataclass(frozen=True)
class CountingConstant:
    """A constant learner that appends its value to ``calls`` when evaluated;
    ``calls`` takes no part in equality or hashing."""

    value: float
    calls: list = field(compare=False)

    def evaluate(self, features) -> np.ndarray:
        self.calls.append(self.value)
        return np.full(np.atleast_2d(features).shape[0], self.value)


def random_stump(rng, n_features=3):
    return stump(rng.normal(), rng.normal(), feature=rng.integers(n_features),
                 threshold=rng.normal())


def path_trace(steps, learners=None, n_features=1):
    """The trace of a path with the given (alpha_k, beta_k) per step, over
    ``learners`` (default: the constant stump 1 at every step)."""
    trace = TrainTrace(n_features)
    for (alpha, beta), g in zip(steps, learners or [stump(1.0)] * len(steps)):
        trace.add(g, beta, alpha, 1.0)
    return trace


def random_path(rng, n_terms=5, n_features=3):
    """The trace of a random path with alpha_k in [0, 0.5)."""
    learners = [random_stump(rng, n_features) for _ in range(n_terms)]
    steps = [(0.5 * rng.random(), rng.normal()) for _ in range(n_terms)]
    return path_trace(steps, learners, n_features)


def extended(trace, steps):
    """The trace of the path followed by further (alpha, beta, learner) steps."""
    return path_trace(list(zip(trace.alphas, trace.betas)) + [(a, b) for a, b, _ in steps],
                      trace.learners + [g for _, _, g in steps], trace.n_features)


class TestDataset:
    def test_valid(self):
        d = Dataset([[1.0, 2.0], [3.0, 4.0]], [0.5, -0.5], Task.REGRESSION)
        assert d.n_samples == 2 and d.n_features == 2

    def test_rejects_nonfinite_features(self):
        with pytest.raises(InvalidInputError):
            Dataset([[np.nan, 1.0]], [0.0], Task.REGRESSION)

    def test_rejects_nonfinite_targets(self):
        with pytest.raises(InvalidInputError, match="targets contain non-finite"):
            Dataset(np.zeros((3, 1)), [1.0, np.nan, np.inf], Task.REGRESSION)
        with pytest.raises(InvalidInputError, match="targets contain non-finite"):
            Dataset(np.zeros((2, 1)), [1.0, -np.inf], Task.REGRESSION)

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [1.0, 0.5], Task.CLASSIFICATION)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset([[1.0], [2.0]], [1.0], Task.REGRESSION)

    def test_immutable(self):
        d = Dataset([[1.0], [2.0]], [1.0, -1.0], Task.CLASSIFICATION)
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0


class TestPredict:
    def test_empty_model_predicts_zero(self):
        model = EnsembleModel(2, [], [])
        assert np.all(model.predict(np.ones((4, 2))) == 0.0)

    def test_single_term_linearity(self):
        model = EnsembleModel(1, [2.0], [stump(1.0)])
        assert model.predict([[123.0]]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        model = EnsembleModel(3, [], [])
        with pytest.raises(InvalidInputError):
            model.predict(np.ones((2, 2)))

    def test_matches_iterative_evaluation(self):
        # three-term model vs step-by-step accumulation on random points
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        terms = [(rng.normal(), stump(rng.normal(), rng.normal(), feature=j))
                 for j in range(3)]
        expected = np.zeros(20)
        for coef, g in terms:
            expected += coef * g.evaluate(X)
        model = EnsembleModel(3, [c for c, _ in terms], [g for _, g in terms])
        got = model.predict(X)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_equal_learners_evaluated_once(self):
        # 50 equal (not identical) copies of one learner, interleaved with
        # 10 copies of a second, under rescales: one evaluation each
        rng = np.random.default_rng(3)
        calls = []
        steps, learners = [], []
        for i in range(50):
            steps.append((0.0, rng.normal()))
            learners.append(CountingConstant(1.5, calls))
            if i % 5 == 0:
                steps.append((0.1, rng.normal()))
                learners.append(CountingConstant(-0.25, calls))
        model = path_trace(steps, learners).model()
        got = model.predict(np.zeros((4, 1)))
        assert calls == [1.5, -0.25]
        ones = [g.value == 1.5 for g in model.learners]
        expected = (math.fsum(c for c, one in zip(model.coefs, ones) if one) * 1.5
                    + math.fsum(c for c, one in zip(model.coefs, ones) if not one) * -0.25)
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_zero_predictions_are_positive_zero(self):
        # the term evaluates to -1.0 * 0.0 = -0.0; the accumulator starts at
        # +0.0, and +0.0 + -0.0 is +0.0, so no prediction is -0.0
        model = EnsembleModel(1, [-1.0], [stump(0.0)])
        got = model.predict(np.zeros((3, 1)))
        assert got.tolist() == [0.0] * 3 and not np.signbit(got).any()

    def test_coefs_are_read_only(self):
        model = EnsembleModel(1, [2.0], [stump(1.0)])
        with pytest.raises(ValueError):
            model.coefs[0] = 3.0

    @pytest.mark.parametrize("coefs", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]],
                             ids=["fewer", "more", "2-d"])
    def test_coefs_must_match_learners(self, coefs):
        with pytest.raises(InvalidInputError, match="coefs of shape"):
            EnsembleModel(1, coefs, [stump(1.0), stump(2.0)])


class TestRescale:
    """A step with alpha_k multiplies every earlier term by (1 - alpha_k)."""

    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(1)
        trace = random_path(rng)
        before = trace.model()
        after = extended(trace, [(0.0, 2.0, stump(1.0))]).model()
        assert np.array_equal(after.coefs[:-1], before.coefs)
        assert after.coefs[-1] == 2.0

    def test_constant_model_scales(self):
        model = path_trace([(0.0, 4.0), (0.75, 0.0)], [stump(1.0), stump(5.0)]).model()
        assert model.predict([[0.0]]) == pytest.approx(1.0)

    def test_rescale_scales_all_predictions(self):
        rng = np.random.default_rng(2)
        trace = random_path(rng)
        X = rng.normal(size=(20, 3))
        before = trace.model().predict(X)
        after = extended(trace, [(0.3, 0.0, stump(1.0))]).model()
        assert np.allclose(after.predict(X), 0.7 * before, rtol=1e-12)

    def test_rescale_composition(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 3))
        a, b = 0.2, 0.45
        trace = random_path(np.random.default_rng(42))
        m1 = extended(trace, [(a, 0.0, stump(1.0)), (b, 0.0, stump(1.0))]).model()
        m2 = extended(trace, [(1.0 - (1.0 - a) * (1.0 - b), 0.0, stump(1.0))]).model()
        assert np.allclose(m1.predict(X), m2.predict(X), rtol=1e-12, atol=1e-14)

    def test_invalid_alpha(self):
        for bad in (-0.1, 1.0 + 1e-12, 1.5, float("nan")):
            for step in (1, 3):
                steps = [(0.5, 1.0)] * 3
                steps[step - 1] = (bad, 1.0)
                with pytest.raises(InvalidInputError, match=f"alpha_{step} = "):
                    path_trace(steps).model()

    def test_alpha_one_zeroes_model(self):
        rng = np.random.default_rng(6)
        trace = random_path(rng)
        model = extended(trace, [(1.0, 3.0, stump(1.0))]).model()
        assert np.array_equal(model.coefs, [0.0] * len(trace) + [3.0])
        assert np.array_equal(model.predict(rng.normal(size=(10, 3))), np.full(10, 3.0))


class TestCoefs:
    def test_no_rescale_keeps_betas(self):
        betas = [1.5, -2.0, 0.25]
        model = path_trace([(0.0, b) for b in betas]).model()
        assert np.array_equal(model.coefs, betas)

    def test_single_term(self):
        model = path_trace([(1.0, 3.0)]).model()
        assert model.coefs.tolist() == [3.0]

    def test_hand_expanded_recursion(self):
        # beta = (1, 1) with a 3/5 rescale in between: coefficients (0.4, 1)
        model = path_trace([(0.0, 1.0), (0.6, 1.0)]).model()
        assert model.coefs == pytest.approx([0.4, 1.0])

    def test_predict_matches_incremental_recursion(self):
        # f_k = (1 - alpha_k) f_{k-1} + beta_k g_k, tracked step by step
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        steps, learners = [], []
        expected = np.zeros(100)
        for alpha in (0.5, 0.1, 0.0, 0.7, 0.33, 1.0, 0.2):
            beta, g = rng.normal(), random_stump(rng)
            steps.append((alpha, beta))
            learners.append(g)
            expected = (1.0 - alpha) * expected + beta * g.evaluate(X)
        model = path_trace(steps, learners, 3).model()
        assert np.allclose(model.predict(X), expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("upto", [-1, 4])
    def test_prefix_outside_path(self, upto):
        with pytest.raises(InvalidInputError, match=f"prefix {upto} outside"):
            path_trace([(0.0, 1.0)] * 3).model(upto)

    def test_many_rescales_predict_finite(self):
        # the first coefficient shrinks by 100x per step, below the smallest double
        steps = [(0.0, 1.0)] + [(1.0 - 1e-2, 1.0)] * 500
        model = path_trace(steps).model()
        assert model.coefs[0] == 0.0
        assert np.isfinite(model.predict([[0.0]])[0])


class TestTruncate:
    def test_inside_band_unchanged(self):
        assert truncate_predictions([-0.5], 1.0)[0] == -0.5

    def test_clamps(self):
        assert truncate_predictions([1.5], 1.0)[0] == 1.0
        assert truncate_predictions([-3.0], 2.0)[0] == -2.0

    def test_invalid_level(self):
        for bad in (0.0, -1.0):
            with pytest.raises(InvalidInputError):
                truncate_predictions([1.0], bad)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(5)
        u = rng.normal(scale=3.0, size=1000)
        v = rng.normal(scale=3.0, size=1000)
        tu, tv = truncate_predictions(u, 1.7), truncate_predictions(v, 1.7)
        assert np.array_equal(truncate_predictions(tu, 1.7), tu)
        assert np.all(np.abs(tu - tv) <= np.abs(u - v) + 1e-15)


class TestTrainTrace:
    def test_orders_records(self):
        t = TrainTrace(1)
        t.add(stump(1.0), 0.1, 0.0, 1.0)
        t.add(stump(2.0), 0.2, 0.5, 0.5, "capped-beta")
        assert t.records == [TraceRecord(1, stump(1.0).describe(), 0.1, 0.0, 1.0),
                             TraceRecord(2, stump(2.0).describe(), 0.2, 0.5, 0.5, "capped-beta")]

    def test_rejects_nonfinite_risk(self):
        t = TrainTrace(1)
        t.add(stump(1.0), 0.1, 0.0, 1.0)
        for risk in (float("inf"), float("nan")):
            with pytest.raises(InvalidInputError, match="non-finite risk at iteration 2"):
                t.add(stump(1.0), 0.1, 0.0, risk)
        assert len(t) == 1 and t.risks.tolist() == [1.0]

    def test_constructor_keeps_valid_records(self):
        t = TrainTrace(4)
        assert len(t) == 0 and t.records == [] and t.stopped_early is None
        assert len(t.model()) == 0 and t.model().n_features == 4
        for k in (1, 2, 3):
            t.add(stump(float(k)), 0.1, 0.0, 1.0 / k)
        assert t.records == [TraceRecord(k, stump(float(k)).describe(), 0.1, 0.0, 1.0 / k)
                             for k in (1, 2, 3)]
        assert len(t) == 3 and t.model().n_features == 4
