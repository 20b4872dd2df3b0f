import numpy as np
import pytest

from reboost import boosters
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
    excess_risk_trace,
    train,
)
from reboost.core import (
    Dataset,
    DegenerateDirectionError,
    InvalidInputError,
    InvalidSpecError,
    Task,
)
from reboost.linesearch import line_search
from reboost.losses import LossKind, empirical_risk, pseudo_residuals
from reboost.synthdata import SparseDictionarySpec, gen_orange, gen_sparse_dictionary_instance


def regression_data(seed=0, m=40, d=3, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(m, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + noise * rng.standard_normal(m)
    return Dataset(X, y, Task.REGRESSION)


def classification_data(seed=0, m=60):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, 2))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0.0, 1.0, -1.0)
    return Dataset(X, y, Task.CLASSIFICATION)


class TestShrinkageSchedule:
    def test_theorem_preset(self):
        s = ShrinkageSchedule.theorem()
        assert s.alpha(1) == pytest.approx(0.75)
        assert s.alpha(2997) == pytest.approx(0.001)

    def test_experimental_preset(self):
        assert ShrinkageSchedule.experimental(1.0).alpha(1) == 1.0
        assert ShrinkageSchedule.experimental(1.0).alpha(3) == pytest.approx(0.5)

    def test_alpha_nonincreasing(self):
        s = ShrinkageSchedule(2.0, 1.0, 5.0)
        alphas = [s.alpha(k) for k in range(1, 200)]
        assert all(a >= b for a, b in zip(alphas[:-1], alphas[1:]))
        assert all(0.0 <= a < 1.0 for a in alphas)

    def test_out_of_range_degree_rejected_on_evaluation(self):
        s = ShrinkageSchedule(3.0, 1.0, 1.0)  # alpha_1 = 1.5
        with pytest.raises(InvalidSpecError):
            s.alpha(1)
        assert s.alpha(2) == 1.0
        assert s.alpha(3) == pytest.approx(0.75)

    def test_invalid_schedules(self):
        with pytest.raises(InvalidSpecError):
            ShrinkageSchedule(1.0, 0.0, 0.0)

    def test_variant_parameter_ranges(self):
        with pytest.raises(InvalidSpecError):
            Shrunk(0.0)
        with pytest.raises(InvalidSpecError):
            Shrunk(1.2)
        with pytest.raises(InvalidSpecError):
            Truncated(0.0)
        with pytest.raises(InvalidSpecError):
            Epsilon(-0.5)


class TestTrainBasics:
    def test_first_iteration_plain_equals_rescale(self):
        # rescaling f_0 = 0 is a no-op, so k*=1 paths coincide
        data = regression_data()
        cfg_p = TrainConfig(1, LossKind.SQUARED, StumpLearner(), Plain())
        cfg_r = TrainConfig(1, LossKind.SQUARED, StumpLearner(),
                            Rescale(ShrinkageSchedule.theorem()))
        model_p, trace_p = train(data, cfg_p, 0)
        model_r, trace_r = train(data, cfg_r, 0)
        assert trace_p.records[0].beta == trace_r.records[0].beta
        assert trace_p.records[0].risk == trace_r.records[0].risk

    def test_runs_exact_iteration_count(self):
        data = regression_data()
        _, trace = train(data, TrainConfig(17, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        assert len(trace) == 17
        assert [r.k for r in trace.records] == list(range(1, 18))

    def test_plain_risk_monotone(self):
        data = regression_data(noise=0.3)
        _, trace = train(data, TrainConfig(200, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        risks = trace.risks
        assert np.all(np.diff(risks) <= 1e-12)

    def test_loss_task_mismatch_rejected(self):
        data = regression_data()
        cfg = TrainConfig(3, LossKind.LOGISTIC, StumpLearner(), Plain())
        with pytest.raises(InvalidInputError):
            train(data, cfg, 0)

    def test_early_stop_on_constant_residuals(self):
        X = np.arange(10.0).reshape(-1, 1)
        data = Dataset(X, np.full(10, 2.0), Task.REGRESSION)
        model, trace = train(data, TrainConfig(50, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        # first stump fits the constant exactly, then no direction remains
        assert trace.stopped_early is not None
        assert len(trace) < 50

    @pytest.mark.parametrize("variant", [Rescale(ShrinkageSchedule.theorem()), Truncated(1.0)],
                             ids=["rescale", "truncated"])
    def test_early_stop_on_underflowing_direction(self, variant):
        # targets near 1e-170: the stump's leaf values are nonzero, so the
        # selector passes it, but g.g underflows to 0 in the line search
        X = np.arange(20.0).reshape(-1, 1)
        data = Dataset(X, 1e-170 * (1.0 + np.arange(20) % 3), Task.REGRESSION)
        model, trace = train(data, TrainConfig(5, LossKind.SQUARED, StumpLearner(), variant), 0)
        assert len(trace) == 0
        assert trace.stopped_early == "degenerate direction at iteration 1"
        assert np.array_equal(model.predict(X), np.zeros(20))

    def test_stopped_rescale_step_leaves_model_unscaled(self, monkeypatch):
        # a search that finds the second direction degenerate: the model
        # must stay f_1, not (1 - alpha_2) f_1
        calls = []

        def search(*args):
            calls.append(args)
            if len(calls) == 2:
                raise DegenerateDirectionError("direction is identically zero")
            return line_search(*args)

        monkeypatch.setattr(boosters, "line_search", search)
        data = regression_data()
        cfg = TrainConfig(5, LossKind.SQUARED, StumpLearner(),
                          Rescale(ShrinkageSchedule.theorem()))
        model, trace = train(data, cfg, 0)
        assert len(trace) == 1
        assert trace.stopped_early == "degenerate direction at iteration 2"
        first = trace.records[0]
        assert model.coefs.tolist() == [first.beta]
        assert empirical_risk(LossKind.SQUARED, model.predict(data.features),
                              data.targets) == first.risk

    def test_determinism(self):
        data = classification_data()
        cfg = TrainConfig(30, LossKind.LOGISTIC, StumpLearner(),
                          Rescale(ShrinkageSchedule.experimental(5.0)))
        _, t1 = train(data, cfg, 7)
        _, t2 = train(data, cfg, 7)
        assert [(r.beta, r.alpha, r.risk) for r in t1.records] == \
               [(r.beta, r.alpha, r.risk) for r in t2.records]


class TestRescaleDynamics:
    def test_stationarity_after_line_search(self):
        # at every k the directional derivative along the chosen learner
        # vanishes at the post-step predictions
        data = regression_data(seed=3, m=20)
        cfg = TrainConfig(15, LossKind.SQUARED, StumpLearner(),
                          Rescale(ShrinkageSchedule.theorem()))
        model, trace = train(data, cfg, 0)
        X, y = data.features, data.targets
        preds = np.zeros(20)
        for rec, learner in zip(trace.records, model.learners):
            g = learner.evaluate(X)
            preds = (1.0 - rec.alpha) * preds + rec.beta * g
            assert abs(np.mean(pseudo_residuals(LossKind.SQUARED, preds, y) * g)) <= 1e-6

    def test_relative_progress(self):
        # risk after the step never exceeds the risk of the rescaled base
        data = regression_data(seed=4, noise=0.5)
        cfg = TrainConfig(40, LossKind.SQUARED, StumpLearner(),
                          Rescale(ShrinkageSchedule.experimental(3.0)))
        model, trace = train(data, cfg, 0)
        X, y = data.features, data.targets
        preds = np.zeros(data.n_samples)
        for rec, learner in zip(trace.records, model.learners):
            rescaled_risk = empirical_risk(LossKind.SQUARED, (1.0 - rec.alpha) * preds, y)
            g = learner.evaluate(X)
            preds = (1.0 - rec.alpha) * preds + rec.beta * g
            assert rec.risk <= rescaled_risk + 1e-12

    def test_coefficient_expansion_matches_trace(self):
        # stored coefficients equal beta_j * prod_{i>j} (1 - alpha_i)
        data = regression_data(seed=5)
        cfg = TrainConfig(25, LossKind.SQUARED, StumpLearner(),
                          Rescale(ShrinkageSchedule.theorem()))
        model, trace = train(data, cfg, 0)
        alphas = trace.alphas
        betas = trace.betas
        expected = [b * np.prod(1.0 - alphas[j + 1:]) for j, b in enumerate(betas)]
        assert np.allclose(model.coefs, expected, rtol=1e-12)

    def test_alpha_zero_schedule_bit_equals_plain(self):
        data = regression_data(seed=6)
        cfg_r = TrainConfig(30, LossKind.SQUARED, StumpLearner(),
                            Rescale(ShrinkageSchedule(0.0, 1.0, 1.0)))
        cfg_p = TrainConfig(30, LossKind.SQUARED, StumpLearner(), Plain())
        model_r, trace_r = train(data, cfg_r, 0)
        model_p, trace_p = train(data, cfg_p, 0)
        assert [(r.beta, r.risk) for r in trace_r.records] == \
               [(r.beta, r.risk) for r in trace_p.records]
        X = data.features
        assert np.array_equal(model_r.predict(X), model_p.predict(X))


class TestVariants:
    def test_shrunk_nu_one_equals_plain(self):
        data = regression_data(seed=7)
        m_s, t_s = train(data, TrainConfig(20, LossKind.SQUARED, StumpLearner(), Shrunk(1.0)), 0)
        m_p, t_p = train(data, TrainConfig(20, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        assert [(r.beta, r.risk) for r in t_s.records] == \
               [(r.beta, r.risk) for r in t_p.records]

    def test_shrunk_records_applied_step(self):
        data = regression_data(seed=8)
        nu = 0.2
        _, t_s = train(data, TrainConfig(1, LossKind.SQUARED, StumpLearner(), Shrunk(nu)), 0)
        _, t_p = train(data, TrainConfig(1, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        assert t_s.records[0].beta == pytest.approx(nu * t_p.records[0].beta)

    def test_truncated_respects_shrinking_bound(self):
        data = regression_data(seed=9, noise=1.0)
        t0 = 0.05  # small enough that the bound binds on early iterations
        _, trace = train(data, TrainConfig(30, LossKind.SQUARED, StumpLearner(),
                                           Truncated(t0)), 0)
        for rec in trace.records:
            assert abs(rec.beta) <= t0 * rec.k ** (-2.0 / 3.0) + 1e-15

    def test_config_rejects_a_truncated_bound_that_underflows(self):
        # t_3 = 3^-1000 rounds to 0, which the line search would reject mid-run
        TrainConfig(2, LossKind.SQUARED, StumpLearner(), Truncated(1.0, 1000.0))
        with pytest.raises(InvalidSpecError, match=r"truncated bound t_3 = 0\.0 must be > 0"):
            TrainConfig(3, LossKind.SQUARED, StumpLearner(), Truncated(1.0, 1000.0))
        with pytest.raises(InvalidSpecError, match=r"= nan must be > 0"):  # k ** -e overflows
            TrainConfig(10 ** 400, LossKind.SQUARED, StumpLearner(), Truncated(1.0, 0.0))

    def test_epsilon_steps_have_exact_norm(self):
        data = regression_data(seed=10)
        eps = 0.07
        _, trace = train(data, TrainConfig(40, LossKind.SQUARED, StumpLearner(),
                                           Epsilon(eps)), 0)
        assert all(abs(rec.beta) == eps for rec in trace.records)

    def test_epsilon_descends_to_first_order(self):
        data = regression_data(seed=11)
        eps = 0.05
        model, trace = train(data, TrainConfig(10, LossKind.SQUARED, StumpLearner(),
                                               Epsilon(eps)), 0)
        X, y = data.features, data.targets
        preds = np.zeros(data.n_samples)
        for rec, learner in zip(trace.records, model.learners):
            g = learner.evaluate(X)
            u = pseudo_residuals(LossKind.SQUARED, preds, y)
            assert np.sign(rec.beta) == np.sign(np.mean(u * g))
            preds = preds + rec.beta * g

    def test_epsilon_step_takes_sign_of_residual_inner_product(self):
        # a least-squares stump or tree always has <r, g> > 0; a dictionary
        # atom can have either sign, so this path exercises the sign
        spec = SparseDictionarySpec(64, 16, 4, 4.0)
        data, atoms, _, _ = gen_sparse_dictionary_instance(spec, 0)
        eps = 0.1
        model, trace = train(data, TrainConfig(40, LossKind.SQUARED, DictionaryLearner(atoms),
                                               Epsilon(eps)), 0)
        assert len(trace) == 40
        X, y = data.features, data.targets
        preds = np.zeros(data.n_samples)
        for rec, learner in zip(trace.records, model.learners):
            g = learner.evaluate(X)
            r = pseudo_residuals(LossKind.SQUARED, preds, y)
            assert rec.beta == eps * np.sign(r @ g)
            preds = preds + rec.beta * g
        assert any(rec.beta < 0.0 for rec in trace.records)


class TestDictionaryTraining:
    def test_single_atom_exact_recovery(self):
        spec = SparseDictionarySpec(64, 16, 1, 1.0)
        data, atoms, h_risk, _ = gen_sparse_dictionary_instance(spec, 3)
        cfg = TrainConfig(5, LossKind.SQUARED, DictionaryLearner(atoms), Plain())
        _, trace = train(data, cfg, 0)
        assert trace.risks[0] <= 1e-20

    def test_excess_risk_trace(self):
        data = regression_data(seed=12)
        _, trace = train(data, TrainConfig(10, LossKind.SQUARED, StumpLearner(), Plain()), 0)
        ex = excess_risk_trace(trace, trace.risks[-1])
        assert ex[-1] == 0.0
        raw = excess_risk_trace(trace, 0.0)
        assert np.array_equal(raw, trace.risks)


class TestExponentialSeparable:
    def test_capped_step_recorded(self):
        # linearly separable labels with exponential loss: the very first
        # line search descends forever and gets capped at the bracket edge
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        data = Dataset(X, y, Task.CLASSIFICATION)
        cfg = TrainConfig(3, LossKind.EXPONENTIAL, StumpLearner(), Plain())
        model, trace = train(data, cfg, 0)
        assert trace.records[0].note == "capped-beta"
        assert abs(trace.records[0].beta) == 2.0 ** 60
        assert trace.records[0].risk == 0.0  # fully separated afterwards


class TestFarMinimizer:
    @pytest.mark.parametrize("variant", [Plain(), Shrunk(1.0), Rescale(ShrinkageSchedule(0, 1, 1))],
                             ids=["plain", "shrunk-1", "rescale-alpha-0"])
    def test_exponential_trees_on_orange_finish(self, variant):
        # later steps have minimizers beyond 1e6 in magnitude, where an
        # absolute tolerance of 1e-10 on beta is below the spacing of doubles
        data = gen_orange(60, 2, 3)
        _, trace = train(data, TrainConfig(40, LossKind.EXPONENTIAL, TreeLearner(3), variant))
        assert len(trace) == 40
        assert max(abs(r.beta) for r in trace.records) > 1e6
        assert np.isfinite(trace.risks).all()
