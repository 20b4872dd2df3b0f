"""Property tests of the numerical contracts between a training run, its
model, the model text format and the recorded-path replay, over every
training variant and every loss.

Each run draws its loss: squared loss on real targets as a regression
task, logistic or exponential loss on +-1 labels as a classification
task. Small random classification samples can be separable, so some runs
(about 1 in 10) take capped (2**60) steps and search minimizers far from 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from reboost.cli.model_io import model_from_text, model_to_text
from reboost.core import Dataset, EnsembleModel, InvalidInputError, Task
from reboost.learners import IntervalAtom
from reboost.losses import LossKind, empirical_risk
from reboost.synthdata import (
    M2Spec,
    SparseDictionarySpec,
    gen_regression,
    gen_sparse_dictionary_instance,
)

VARIANTS = {
    "plain": Plain(),
    "rescale-theorem": Rescale(ShrinkageSchedule.theorem()),
    "rescale-u1": Rescale(ShrinkageSchedule.experimental(1.0)),  # alpha_1 = 1
    "shrunk": Shrunk(0.3),
    "truncated": Truncated(0.5),
    "epsilon": Epsilon(0.05),
}
every_variant = pytest.mark.parametrize("variant", list(VARIANTS.values()), ids=list(VARIANTS))


@st.composite
def trained_runs(draw, variant):
    """(data, loss, model, trace) of one training run on random data."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m, d = draw(st.integers(8, 40)), draw(st.integers(1, 3))
    X = np.round(rng.normal(size=(m, d)), draw(st.integers(0, 3)))  # ties too
    loss = draw(st.sampled_from(list(LossKind)))
    if loss.is_classification:
        data = Dataset(X, rng.choice((-1.0, 1.0), size=m), Task.CLASSIFICATION)
    else:
        data = Dataset(X, rng.normal(size=m), Task.REGRESSION)
    kind = draw(st.sampled_from(("stump", "tree", "dictionary")))
    if kind == "stump":
        learner = StumpLearner()
    elif kind == "tree":
        learner = TreeLearner(draw(st.integers(1, 4)))
    else:
        edges = np.sort(rng.uniform(-2.0, 2.0, size=(8, 2)), axis=1)
        learner = DictionaryLearner(tuple(
            IntervalAtom(lo, hi, rng.normal(), feature=int(rng.integers(d)))
            for lo, hi in edges))
    model, trace = train(data, TrainConfig(draw(st.integers(1, 15)), loss, learner, variant))
    return data, loss, model, trace


@every_variant
@settings(max_examples=25, deadline=None)
@given(hyp=st.data())
def test_model_text_round_trip_is_exact(variant, hyp):
    data, loss, model, _ = hyp.draw(trained_runs(variant))
    loaded, *meta = model_from_text(model_to_text(model, loss, data.task, 3))
    assert meta == [loss, data.task, 3]
    assert loaded.intercept == model.intercept
    assert np.array_equal(loaded.coefs, model.coefs)
    assert np.array_equal(loaded.predict(data.features), model.predict(data.features))


@every_variant
@settings(max_examples=25, deadline=None)
@given(hyp=st.data())
def test_predict_risk_equals_trace_risk(variant, hyp):
    data, loss, model, trace = hyp.draw(trained_runs(variant))
    if not len(trace):
        return
    risk = empirical_risk(loss, model.predict(data.features), data.targets)
    # absolute slack for risks that reach 0, as a share of the zero model's risk
    zero_risk = empirical_risk(loss, np.zeros(data.n_samples), data.targets)
    assert np.isclose(risk, trace.records[-1].risk, rtol=1e-9, atol=1e-12 * zero_risk)


@every_variant
@settings(max_examples=25, deadline=None)
@given(hyp=st.data())
def test_full_path_replay_equals_predict(variant, hyp):
    data, _, model, trace = hyp.draw(trained_runs(variant))
    preds = model.predict(data.features)
    replayed = EnsembleModel.from_path(model.learners, trace,
                                       n_features=model.n_features).predict(data.features)
    scale = np.max(np.abs(preds), initial=1.0)
    assert np.allclose(replayed, preds, rtol=1e-9, atol=1e-12 * scale)


@every_variant
@settings(max_examples=25, deadline=None)
@given(hyp=st.data())
def test_every_prefix_predicts_as_the_replay(variant, hyp):
    # the replay f_k = (1 - alpha_k) f_{k-1} + beta_k g_k that validation_curve
    # scores; reassociation may move each prediction by a few ulps of the
    # largest prediction along the path so far
    data, _, model, trace = hyp.draw(trained_runs(variant))
    X = data.features
    def prefix(k):
        return EnsembleModel.from_path(model.learners, trace, k, n_features=model.n_features)

    replay = np.zeros(data.n_samples)
    assert np.array_equal(prefix(0).predict(X), replay)
    scale = 1.0
    for k, (rec, learner) in enumerate(zip(trace.records, model.learners), 1):
        replay = (1.0 - rec.alpha) * replay + rec.beta * learner.evaluate(X)
        scale = max(scale, np.max(np.abs(replay)))
        assert np.allclose(prefix(k).predict(X), replay, rtol=1e-9, atol=1e-12 * scale)
    for k in (-1, len(trace) + 1):
        with pytest.raises(InvalidInputError, match=f"prefix {k} outside the recorded path"):
            prefix(k)


def test_distinct_trees_predict_as_the_per_term_sum():
    data = gen_regression(M2Spec(200, 0.0), "train", 5)
    model, _ = train(data, TrainConfig(40, LossKind.SQUARED, TreeLearner(4),
                                       Rescale(ShrinkageSchedule.theorem())))
    assert len(set(model.learners)) == len(model) == 40
    acc = np.zeros(data.n_samples)
    for coef, tree in zip(model.coefs, model.learners):
        acc += coef * tree.evaluate(data.features)
    assert np.array_equal(model.predict(data.features), model.intercept + acc)


def test_long_dictionary_path_round_trips_and_matches_its_trace():
    # 512 re-scale steps over a few distinct atoms: predict sums each
    # atom's coefficients before evaluating it
    data, atoms, _, _ = gen_sparse_dictionary_instance(SparseDictionarySpec(), 2)
    model, trace = train(data, TrainConfig(512, LossKind.SQUARED, DictionaryLearner(atoms),
                                           Rescale(ShrinkageSchedule.theorem())))
    assert len(trace) == len(model) == 512 > len(set(model.learners))
    preds = model.predict(data.features)
    loaded = model_from_text(model_to_text(model, LossKind.SQUARED, data.task, 2))[0]
    assert np.array_equal(loaded.predict(data.features), preds)
    risk = empirical_risk(LossKind.SQUARED, preds, data.targets)
    zero_risk = empirical_risk(LossKind.SQUARED, np.zeros(data.n_samples), data.targets)
    assert np.isclose(risk, trace.records[-1].risk, rtol=1e-9, atol=1e-12 * zero_risk)
