import numpy as np
import pytest

from reboost.core import InvalidInputError
from reboost.losses import (
    LossKind,
    empirical_risk,
    loss_derivative,
    loss_value,
    pseudo_residuals,
    risk_slope,
)

ALL_KINDS = list(LossKind)


class TestLossValue:
    def test_squared(self):
        assert loss_value(LossKind.SQUARED, 0.0, 2.0) == pytest.approx(4.0)

    def test_logistic_at_zero(self):
        assert loss_value(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(np.log(2.0))

    def test_exponential_at_zero(self):
        assert loss_value(LossKind.EXPONENTIAL, 0.0, -1.0) == pytest.approx(1.0)

    def test_classification_label_validation(self):
        for kind in (LossKind.LOGISTIC, LossKind.EXPONENTIAL):
            with pytest.raises(InvalidInputError):
                loss_value(kind, 0.0, 0.5)

    def test_logistic_overflow_safe(self):
        # adverse sign: ln(1 + e^1000) ~ 1000; favorable: ~ 0
        assert loss_value(LossKind.LOGISTIC, -1000.0, 1.0) == pytest.approx(1000.0, abs=1e-9)
        assert loss_value(LossKind.LOGISTIC, 1000.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_exponential_overflow_signals_inf(self):
        assert np.isinf(loss_value(LossKind.EXPONENTIAL, -1000.0, 1.0))


class TestLossDerivative:
    def test_point_values(self):
        assert loss_derivative(LossKind.SQUARED, 1.0, 0.0) == pytest.approx(2.0)
        assert loss_derivative(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(-0.5)
        assert loss_derivative(LossKind.EXPONENTIAL, 0.0, 1.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(10)
        f = rng.uniform(-20.0, 20.0, size=1000)
        y = (rng.choice((-1.0, 1.0), size=1000) if kind.is_classification
             else rng.uniform(-5.0, 5.0, size=1000))
        h = 1e-6
        fd = (loss_value(kind, f + h, y) - loss_value(kind, f - h, y)) / (2.0 * h)
        d = loss_derivative(kind, f, y)
        denom = np.maximum(np.abs(d), 1e-8)
        assert np.max(np.abs(d - fd) / denom) <= 1e-6


class TestConvexity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_midpoint_convexity(self, kind):
        rng = np.random.default_rng(11)
        f1 = rng.uniform(-10.0, 10.0, size=500)
        f2 = rng.uniform(-10.0, 10.0, size=500)
        y = (rng.choice((-1.0, 1.0), size=500) if kind.is_classification
             else rng.uniform(-5.0, 5.0, size=500))
        mid = loss_value(kind, 0.5 * (f1 + f2), y)
        chord = 0.5 * (loss_value(kind, f1, y) + loss_value(kind, f2, y))
        assert np.all(mid <= chord + 1e-12)


class TestEmpiricalRisk:
    def test_squared_mean(self):
        assert empirical_risk(LossKind.SQUARED, [0.0, 0.0], [1.0, -1.0]) == pytest.approx(1.0)

    def test_perfect_predictions(self):
        y = np.array([0.3, -2.0, 1.1])
        assert empirical_risk(LossKind.SQUARED, y, y) == 0.0

    def test_logistic_direct_value(self):
        got = empirical_risk(LossKind.LOGISTIC, [1.0, -1.0], [1.0, -1.0])
        assert got == pytest.approx(np.log1p(np.exp(-1.0)), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            empirical_risk(LossKind.SQUARED, [0.0], [1.0, 2.0])

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_label_validation(self, kind):
        with pytest.raises(InvalidInputError, match="labels"):
            empirical_risk(kind, np.zeros(2), np.array([1.0, 0.5]))


class TestPseudoResiduals:
    def test_squared(self):
        got = pseudo_residuals(LossKind.SQUARED, [0.0, 0.0], [1.0, -1.0])
        assert got == pytest.approx([2.0, -2.0])

    def test_exponential(self):
        assert pseudo_residuals(LossKind.EXPONENTIAL, [0.0], [1.0]) == pytest.approx([1.0])

    def test_logistic_direct_value(self):
        got = pseudo_residuals(LossKind.LOGISTIC, [2.0], [1.0])
        assert got == pytest.approx([1.0 / (1.0 + np.exp(2.0))], rel=1e-12)

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_label_validation(self, kind):
        with pytest.raises(InvalidInputError, match="labels"):
            pseudo_residuals(kind, np.zeros(2), np.array([1.0, 0.5]))

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError, match="equal lengths"):
            pseudo_residuals(LossKind.SQUARED, [0.0], [1.0, 2.0])


class TestRiskSlope:
    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_matches_central_differences(self, kind):
        # R' against a central difference of the risk, R'' against one of R'
        rng = np.random.default_rng(14)
        h = 1e-5
        for _ in range(50):
            m = int(rng.integers(5, 40))
            base, g = rng.normal(size=m), rng.normal(size=m)
            y = rng.choice((-1.0, 1.0), size=m)
            slope = risk_slope(kind, base, g, y)
            for b in rng.uniform(-2.0, 2.0, size=3):
                d1, d2 = slope(b)
                fd1 = (empirical_risk(kind, base + (b + h) * g, y)
                       - empirical_risk(kind, base + (b - h) * g, y)) / (2.0 * h)
                fd2 = (slope(b + h)[0] - slope(b - h)[0]) / (2.0 * h)
                assert d1 == pytest.approx(fd1, rel=1e-6, abs=1e-9)
                assert d2 == pytest.approx(fd2, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_label_validation(self, kind):
        with pytest.raises(InvalidInputError, match="labels"):
            risk_slope(kind, np.zeros(2), np.ones(2), np.array([1.0, 0.5]))

    def test_squared_rejected(self):
        with pytest.raises(InvalidInputError, match="margin loss"):
            risk_slope(LossKind.SQUARED, np.zeros(2), np.ones(2), np.ones(2))
