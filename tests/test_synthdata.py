import numpy as np
import pytest
from scipy.stats import kstest

from reboost.core import InvalidInputError, InvalidSpecError, Task
from reboost.synthdata import (
    M1Spec,
    M2Spec,
    SparseDictionarySpec,
    gen_orange,
    gen_regression,
    gen_sparse_dictionary_instance,
    m1,
    m2,
)


class TestM1:
    def test_nonnegative_branch_is_zero(self):
        assert m1(1.0) == 0.0
        assert m1(0.0) == 0.0

    def test_sine_zero(self):
        assert m1(-0.25) == pytest.approx(0.0, abs=1e-12)

    def test_point_value(self):
        # 10 * sqrt(1/32) * sin(-pi/4) = -10/8
        assert m1(-1.0 / 32.0) == pytest.approx(-1.25, abs=1e-12)

    def test_vectorized(self):
        x = np.array([-1.0 / 32.0, 0.5])
        assert m1(x) == pytest.approx([-1.25, 0.0], abs=1e-12)


class TestM2:
    def test_zero_vector(self):
        assert m2(np.zeros(10)) == 0.0

    def test_all_ones_cancels(self):
        assert m2(np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_single_coordinate(self):
        x = np.zeros(10)
        x[0] = 1.0
        assert m2(x) == pytest.approx(np.sin(1.0), abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(InvalidInputError):
            m2(np.zeros(9))


class TestGenRegression:
    def test_noiseless_role_matches_target_function(self):
        data = gen_regression(M1Spec(200, 0.6), "test_noiseless", 5)
        assert np.array_equal(data.targets, m1(data.features[:, 0]))

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(InvalidInputError, match="sigma must be finite and >= 0"):
            gen_regression(M2Spec(10, sigma), "train", 0)

    def test_sigma_zero_equals_noiseless(self):
        a = gen_regression(M2Spec(100, 0.0), "train", 9)
        b = gen_regression(M2Spec(100, 0.0), "test_noiseless", 9)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.features, b.features)

    def test_seed_determinism(self):
        a = gen_regression(M2Spec(50, 0.3), "train", 11)
        b = gen_regression(M2Spec(50, 0.3), "train", 11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_dimensions(self):
        assert gen_regression(M1Spec(10, 0.0), "train", 0).n_features == 1
        assert gen_regression(M2Spec(10, 0.0), "train", 0).n_features == 10

    def test_noise_variance(self):
        # target variance = Var(m1(X)) + sigma^2; Var(m1(X)) via quadrature
        xs = np.linspace(-2.0, 2.0, 2_000_001)
        vals = m1(xs)
        mean = np.trapezoid(vals, xs) / 4.0
        var_m1 = np.trapezoid((vals - mean) ** 2, xs) / 4.0
        data = gen_regression(M1Spec(500, 0.3), "train", 21)
        expected = var_m1 + 0.09
        assert np.var(data.targets) == pytest.approx(expected, rel=0.15)

    def test_uniform_marginals(self):
        data = gen_regression(M2Spec(100_000, 0.0), "train", 13)
        for j in range(10):
            stat = kstest(data.features[:, j], "uniform", args=(-2.0, 4.0))
            assert stat.pvalue > 1e-3


class TestGenOrange:
    def test_dimension_without_noise_features(self):
        data = gen_orange(50, 0, 1)
        assert data.n_features == 2
        assert data.n_samples == 100

    def test_noise_features_appended(self):
        data = gen_orange(30, 4, 1)
        assert data.n_features == 6

    def test_annulus_condition_on_negative_class(self):
        data = gen_orange(2000, 2, 3)
        ring = data.features[data.targets == -1.0][:, :2]
        r2 = (ring * ring).sum(axis=1)
        assert np.all(r2 >= 4.5) and np.all(r2 <= 8.0)

    def test_labels_balanced(self):
        data = gen_orange(75, 0, 4)
        assert np.sum(data.targets == 1.0) == 75
        assert np.sum(data.targets == -1.0) == 75
        assert data.task is Task.CLASSIFICATION

    def test_acceptance_rate_matches_chi_square_band(self):
        # P(4.5 <= chi^2_2 <= 8) = e^{-2.25} - e^{-4}
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((1_000_000, 2))
        r2 = (pts * pts).sum(axis=1)
        rate = np.mean((r2 >= 4.5) & (r2 <= 8.0))
        assert rate == pytest.approx(np.exp(-2.25) - np.exp(-4.0), abs=5e-4)


class TestSparseDictionary:
    def test_gram_is_identity(self):
        spec = SparseDictionarySpec(256, 64, 4, 4.0)
        data, atoms, _, _ = gen_sparse_dictionary_instance(spec, 0)
        A = np.column_stack([a.evaluate(data.features) for a in atoms])
        assert np.abs(A.T @ A - np.eye(64)).max() <= 1e-10

    def test_target_is_realizable_with_stated_l1(self):
        spec = SparseDictionarySpec(128, 32, 3, 2.5)
        data, atoms, h_risk, h_l1 = gen_sparse_dictionary_instance(spec, 1)
        assert h_risk == 0.0
        assert h_l1 == 2.5
        A = np.column_stack([a.evaluate(data.features) for a in atoms])
        coefs, *_ = np.linalg.lstsq(A, data.targets, rcond=None)
        assert np.sum(np.abs(coefs)) == pytest.approx(2.5, rel=1e-10)
        assert np.sum(coefs != 0.0) >= 3
        assert np.allclose(A @ coefs, data.targets, atol=1e-12)

    def test_seed_determinism(self):
        spec = SparseDictionarySpec(64, 16, 2, 1.0)
        a = gen_sparse_dictionary_instance(spec, 5)[0]
        b = gen_sparse_dictionary_instance(spec, 5)[0]
        assert np.array_equal(a.targets, b.targets)

    def test_infeasible_specs_rejected(self):
        with pytest.raises(InvalidSpecError):
            gen_sparse_dictionary_instance(SparseDictionarySpec(16, 32, 1, 1.0), 0)
        with pytest.raises(InvalidSpecError):
            gen_sparse_dictionary_instance(SparseDictionarySpec(16, 8, 9, 1.0), 0)
        with pytest.raises(InvalidSpecError):
            gen_sparse_dictionary_instance(SparseDictionarySpec(16, 8, 2, 0.0), 0)

    @pytest.mark.parametrize("coef_norm", [np.inf, np.nan])
    def test_non_finite_coef_norm_rejected(self, coef_norm):
        with pytest.raises(InvalidSpecError, match="coef_norm must be positive and finite"):
            gen_sparse_dictionary_instance(SparseDictionarySpec(16, 8, 2, coef_norm), 0)
