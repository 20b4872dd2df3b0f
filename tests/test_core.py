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


def random_model(rng, n_terms=5, n_features=3):
    model = EnsembleModel(n_features)
    for _ in range(n_terms):
        model.add_term(rng.normal(), stump(rng.normal(), rng.normal(),
                                           feature=rng.integers(n_features),
                                           threshold=rng.normal()))
    return model


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
        model = EnsembleModel(2)
        assert np.all(model.predict(np.ones((4, 2))) == 0.0)

    def test_single_term_linearity(self):
        model = EnsembleModel(1)
        model.add_term(2.0, stump(1.0))
        assert model.predict([[123.0]]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        model = EnsembleModel(3)
        with pytest.raises(InvalidInputError):
            model.predict(np.ones((2, 2)))

    def test_matches_iterative_evaluation(self):
        # three-term model vs step-by-step accumulation on random points
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        model = EnsembleModel(3)
        terms = [(rng.normal(), stump(rng.normal(), rng.normal(), feature=j))
                 for j in range(3)]
        expected = np.zeros(20)
        for coef, g in terms:
            model.add_term(coef, g)
            expected += coef * g.evaluate(X)
        got = model.predict(X)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestRescale:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        X = rng.normal(size=(10, 3))
        before = model.predict(X)
        model.rescale(0.0)
        assert np.array_equal(model.predict(X), before)

    def test_constant_model_scales(self):
        model = EnsembleModel(1)
        model.add_term(4.0, stump(1.0))
        model.rescale(0.75)
        assert model.predict([[0.0]]) == pytest.approx(1.0)

    def test_rescale_scales_all_predictions(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, n_terms=5)
        X = rng.normal(size=(20, 3))
        before = model.predict(X)
        model.rescale(0.3)
        assert np.allclose(model.predict(X), 0.7 * before, rtol=1e-12)

    def test_rescale_composition(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 3))
        a, b = 0.2, 0.45
        m1 = random_model(np.random.default_rng(42))
        m2 = random_model(np.random.default_rng(42))
        m1.rescale(a)
        m1.rescale(b)
        m2.rescale(1.0 - (1.0 - a) * (1.0 - b))
        assert np.allclose(m1.predict(X), m2.predict(X), rtol=1e-12, atol=1e-14)

    def test_invalid_alpha(self):
        model = EnsembleModel(1)
        for bad in (-0.1, 1.0 + 1e-12, 1.5):
            with pytest.raises(InvalidInputError):
                model.rescale(bad)

    def test_alpha_one_zeroes_model(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        model.intercept = 2.5
        model.rescale(1.0)
        model.add_term(3.0, stump(1.0))
        assert np.array_equal(model.predict(rng.normal(size=(10, 3))), np.full(10, 3.0))


class TestCoefs:
    def test_no_rescale_keeps_betas(self):
        model = EnsembleModel(1)
        betas = [1.5, -2.0, 0.25]
        for b in betas:
            model.add_term(b, stump(1.0))
        assert np.array_equal(model.coefs, betas)

    def test_single_term(self):
        model = EnsembleModel(1)
        model.add_term(3.0, stump(1.0))
        assert model.coefs[0] == 3.0

    def test_hand_expanded_recursion(self):
        # beta = (1, 1) with a 3/5 rescale in between: coefficients (0.4, 1)
        model = EnsembleModel(1)
        model.add_term(1.0, stump(1.0))
        model.rescale(0.6)
        model.add_term(1.0, stump(1.0))
        assert model.coefs == pytest.approx([0.4, 1.0])

    def test_predict_matches_incremental_recursion(self):
        # f_k = (1 - alpha_k) f_{k-1} + beta_k g_k, tracked step by step
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        model = EnsembleModel(3)
        expected = np.zeros(100)
        for alpha in (0.5, 0.1, 0.0, 0.7, 0.33, 1.0, 0.2):
            beta, g = rng.normal(), stump(rng.normal(), rng.normal(),
                                          feature=rng.integers(3), threshold=rng.normal())
            model.rescale(alpha)
            model.add_term(beta, g)
            expected = (1.0 - alpha) * expected + beta * g.evaluate(X)
        assert np.allclose(model.predict(X), expected, rtol=1e-12, atol=1e-14)

    def test_many_rescales_predict_finite(self):
        model = EnsembleModel(1)
        model.add_term(1.0, stump(1.0))
        for _ in range(500):
            model.rescale(1.0 - 1e-2)  # the coefficient shrinks by 100x per call
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
        t = TrainTrace()
        t.append(TraceRecord(1, "s", 0.1, 0.0, 1.0))
        with pytest.raises(InvalidInputError):
            t.append(TraceRecord(3, "s", 0.1, 0.0, 1.0))

    def test_rejects_nonfinite_risk(self):
        t = TrainTrace()
        with pytest.raises(InvalidInputError):
            t.append(TraceRecord(1, "s", 0.1, 0.0, float("inf")))
