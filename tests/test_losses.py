import math
import warnings

import numpy as np
import pytest

from reboost.core import InvalidInputError
from reboost.linesearch import line_search
from reboost.losses import LossKind, _loss, _residuals, empirical_risk, risk_slope

ALL_KINDS = list(LossKind)


class TestLossValue:
    def test_squared(self):
        assert _loss(LossKind.SQUARED, 0.0, 2.0) == pytest.approx(4.0)

    def test_logistic_at_zero(self):
        assert _loss(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(np.log(2.0))

    def test_exponential_at_zero(self):
        assert _loss(LossKind.EXPONENTIAL, 0.0, -1.0) == pytest.approx(1.0)

    def test_logistic_overflow_safe(self):
        # adverse sign: ln(1 + e^1000) ~ 1000; favorable: ~ 0
        assert _loss(LossKind.LOGISTIC, -1000.0, 1.0) == pytest.approx(1000.0, abs=1e-9)
        assert _loss(LossKind.LOGISTIC, 1000.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_exponential_overflow_signals_inf(self):
        assert np.isinf(_loss(LossKind.EXPONENTIAL, -1000.0, 1.0))


class TestLossDerivative:
    def test_point_values(self):
        assert _residuals(LossKind.SQUARED, 1.0, 0.0) == pytest.approx(-2.0)
        assert _residuals(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(0.5)
        assert _residuals(LossKind.EXPONENTIAL, 0.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(10)
        f = rng.uniform(-20.0, 20.0, size=1000)
        y = (rng.choice((-1.0, 1.0), size=1000) if kind.is_classification
             else rng.uniform(-5.0, 5.0, size=1000))
        h = 1e-6
        fd = (_loss(kind, f + h, y) - _loss(kind, f - h, y)) / (2.0 * h)
        d = -_residuals(kind, f, y)
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
        mid = _loss(kind, 0.5 * (f1 + f2), y)
        chord = 0.5 * (_loss(kind, f1, y) + _loss(kind, f2, y))
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
        got = _residuals(LossKind.SQUARED, np.zeros(2), np.array([1.0, -1.0]))
        assert got == pytest.approx([2.0, -2.0])

    def test_exponential(self):
        assert _residuals(LossKind.EXPONENTIAL, np.zeros(1), np.ones(1)) == pytest.approx([1.0])

    def test_logistic_direct_value(self):
        got = _residuals(LossKind.LOGISTIC, np.array([2.0]), np.ones(1))
        assert got == pytest.approx([1.0 / (1.0 + np.exp(2.0))], rel=1e-12)


def reference_weight(x: float) -> float:
    """1 / (1 + e^-x), the logistic weight at margin -x, with libm's exp;
    0 where e^-x overflows, as the float formula gives."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Doubles between a and b, for a, b >= 0 (their bit patterns order as
    integers there)."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestLogisticWeight:
    """The logistic weight w = 1 / (1 + e^(y f)) of ``_residuals`` and
    of the ``risk_slope`` probe, computed with numpy's exp, against libm's.

    MAX_ULP was fixed before the test first ran. numpy's vectorized float64
    exp may differ from libm's by a few ULP (4 was seen against
    scipy.special.expit, which is this reference), and the add and the
    divide each round once more; 8 leaves room for that and no more.
    """

    MAX_ULP = 8

    @staticmethod
    def margins(size: int) -> np.ndarray:
        rng = np.random.default_rng(25)
        edges = [0.0, -0.0, 1e-300, -1e-300, 708.0, 709.78, 709.79, 710.0, 745.0, 746.0]
        edges += [-e for e in edges] + [800.0, -800.0]
        return np.concatenate([edges, rng.uniform(-800.0, 800.0, size),
                               rng.uniform(-40.0, 40.0, size // 4)])

    def test_residuals_within_ulp_of_libm(self):
        x = self.margins(200_000)
        expected = np.array([reference_weight(v) for v in x.tolist()])
        got = _residuals(LossKind.LOGISTIC, -x, np.ones_like(x))
        assert np.array_equal(got == 0.0, expected == 0.0)  # 0 exactly where libm gives 0
        assert int(np.max(ulp_distance(got, expected))) <= self.MAX_ULP

    def test_probe_within_ulp_of_libm(self):
        # a one-row risk at beta = 0 has R' = -w and R'' = w (1 - w) of that row
        one = np.ones(1)
        for v in self.margins(2_000).tolist():
            with np.errstate(over="ignore"):
                d1, d2 = risk_slope(LossKind.LOGISTIC, np.array([-v]), one, one)(0.0)
            w = reference_weight(v)
            assert (d1 == 0.0) == (w == 0.0), v
            assert ulp_distance(np.array([-d1]), np.array([w]))[0] <= self.MAX_ULP, v
            assert d2 == (-d1) * (1.0 + d1), v

    def test_half_at_zero(self):
        got = _residuals(LossKind.LOGISTIC, np.array([0.0, -0.0]), np.array([1.0, -1.0]))
        assert got.tolist() == [0.5, -0.5]
        one = np.ones(1)
        assert risk_slope(LossKind.LOGISTIC, np.zeros(1), one, one)(0.0) == (-0.5, 0.25)

    def test_far_margins_raise_no_warning(self):
        f = np.array([800.0, -800.0, 710.0, -710.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _residuals(LossKind.LOGISTIC, f, np.ones(4))
            assert got.tolist() == [0.0, 1.0, 0.0, 1.0]
            assert _residuals(LossKind.LOGISTIC, 800.0, 1.0) == 0.0
            # e^z overflows on the first row at every probe; on the other two
            # R' = 0 where 2 w(2 beta) = w(-beta), i.e. e^beta = u with u^3 = u + 2
            beta = line_search(LossKind.LOGISTIC, np.array([800.0, 0.0, 0.0]),
                               np.array([1.0, 1.0, 2.0]), np.array([1.0, -1.0, 1.0]))
        assert beta == pytest.approx(math.log(1.5213797068045676), rel=1e-12)

    def test_scalar_and_zero_d(self):
        for f, y in ((2.0, 1.0), (np.array(2.0), np.array(1.0)), (-2.0, -1.0)):
            got = _residuals(LossKind.LOGISTIC, f, y)
            assert np.ndim(got) == 0
            assert float(got) == y * reference_weight(-2.0)
        assert _residuals(LossKind.LOGISTIC, np.array(800.0), np.array(1.0)) == 0.0
        assert _residuals(LossKind.LOGISTIC, 0.0, 1.0) == 0.5


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
