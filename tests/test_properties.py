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
from hypothesis import event, given, settings
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
from reboost.core import Dataset, InvalidInputError, Task
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
    replayed = trace.model().predict(data.features)
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
    prefix = trace.model

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
    assert np.array_equal(model.predict(data.features), acc)


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


ORTHONORMAL_VARIANTS = {  # family -> strategy of its variants
    "plain": st.just(Plain()),
    "rescale": st.floats(0.0, 20.0).flatmap(lambda u: st.builds(
        lambda c: Rescale(ShrinkageSchedule(c, u)), st.floats(0.0, min(2.0, 1.0 + u)))),
    "shrunk": st.builds(Shrunk, st.floats(0.01, 1.0)),
    "truncated": st.builds(Truncated, st.floats(0.1, 4.0), st.floats(0.0, 1.5)),
    "epsilon": st.builds(Epsilon, st.floats(0.01, 0.5)),
}


def orthonormal_step(variant, k: int, c: np.ndarray, b: np.ndarray, j: int) -> float:
    """s_k of step k on atom j, from b after its rescale: the exact step of
    each variant when the atoms are orthonormal and the loss is squared."""
    gap = c[j] - b[j]
    if isinstance(variant, Shrunk):
        return variant.nu * gap
    if isinstance(variant, Truncated):
        t = variant.t0 * k ** -variant.exponent
        return min(max(gap, -t), t)
    if isinstance(variant, Epsilon):
        return variant.eps * np.sign(gap)
    return gap


@pytest.mark.parametrize("family", list(ORTHONORMAL_VARIANTS))
@settings(max_examples=40, deadline=None)
@given(hyp=st.data())
def test_orthonormal_dictionary_path_is_the_coefficient_recursion(family, hyp):
    # The atoms' Gram matrix is the identity, so with c = G^T y and f = G b
    # the squared-loss inner products are 2 (c - b) and a step on atom j
    # moves b_j alone: select j_k = argmax |c - b| from f_{k-1}, rescale
    # b <- (1 - alpha_k) b, then add s_k to b_j. Rounding makes the entries
    # of c - b noisy on the scale of max |c|, so an example stops being
    # compared at a near tie: the top two |c - b| within 1e-9 of max |c|.
    # That covers the end of a path too, where every entry is 0 or noise
    # and the trained path may stop or take steps of rounding size.
    variant = hyp.draw(ORTHONORMAL_VARIANTS[family])
    n = hyp.draw(st.integers(1, 40))
    spec = SparseDictionarySpec(hyp.draw(st.integers(n, 4 * n)), n,
                                hyp.draw(st.integers(1, n)), hyp.draw(st.floats(0.5, 8.0)))
    data, atoms, _, _ = gen_sparse_dictionary_instance(spec, hyp.draw(st.integers(0, 2 ** 32 - 1)))
    k_max = hyp.draw(st.integers(1, 150))
    _, trace = train(data, TrainConfig(k_max, LossKind.SQUARED, DictionaryLearner(atoms), variant))

    c = np.column_stack([a.evaluate(data.features) for a in atoms]).T @ data.targets
    tie = 1e-9 * np.max(np.abs(c))
    slot = {atom: i for i, atom in enumerate(atoms)}
    b = np.zeros(n)
    k = 0  # the last step compared
    while k < k_max:
        gap = np.abs(c - b)
        top = np.sort(gap)[::-1]
        if top[0] - (top[1] if n > 1 else 0.0) <= tie:  # a zero top entry too
            event("near tie")
            break
        k += 1
        j = int(np.argmax(gap))
        if isinstance(variant, Rescale):
            b *= 1.0 - variant.schedule.c / (k + variant.schedule.u)
        s = orthonormal_step(variant, k, c, b, j)
        b[j] += s
        assert k <= len(trace), trace.stopped_early
        assert slot[trace.learners[k - 1]] == j, k
        beta = trace.betas[k - 1]
        # a step is a difference c_j - b_j: its rounding scales with c_j
        assert abs(beta - s) <= 1e-12 * max(abs(s), abs(c[j])), (k, beta, s)
    else:
        event("whole path compared")
        assert len(trace) == k_max and trace.stopped_early is None
    per_atom = np.zeros(n)
    np.add.at(per_atom, [slot[g] for g in trace.learners[:k]], trace.model(k).coefs)
    assert np.max(np.abs(per_atom - b)) <= 1e-12 * np.max(np.abs(b), initial=0.0)


def soft_threshold_at_l1(c: np.ndarray, budget: float) -> np.ndarray:
    """S_lam(c) = sign(c) max(|c| - lam, 0), with lam >= 0 chosen so that
    ||S_lam(c)||_1 = budget (lam = 0 for a budget >= ||c||_1): the lasso
    path of an orthonormal design at that l1 norm."""
    a = np.sort(np.abs(c))[::-1]
    if budget >= a.sum():
        lam = 0.0
    else:  # lam_p is the threshold if the top p entries stay nonzero
        lams = (np.cumsum(a) - budget) / np.arange(1, a.size + 1)
        active = np.flatnonzero(a > lams)
        lam = lams[active[-1]] if active.size else a[0]  # a zero budget keeps none
    return np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)


@settings(max_examples=40, deadline=None)
@given(hyp=st.data())
def test_orthonormal_epsilon_boosting_follows_the_lasso(hyp):
    # Forward stagewise with eps steps on an orthonormal design stays within
    # eps, per coefficient, of the lasso solution of the same l1 norm
    # (Efron, Hastie, Johnstone & Tibshirani, Ann. Statist. 2004), after
    # every step. The bound eps is the claim itself, not fitted to runs. As
    # in the recursion test above, a step chosen at a near tie of |c - b|
    # (within 1e-9 of max |c|, a zero top entry too) is chosen by rounding,
    # so the comparison stops there: with c = 0.5 and eps = 2**-6, the 33rd
    # step follows a residual of about 1e-16 and overshoots c by eps + 1e-16.
    eps = hyp.draw(st.floats(0.01, 0.2))
    n = hyp.draw(st.integers(4, 40))
    spec = SparseDictionarySpec(hyp.draw(st.integers(n, 4 * n)), n,
                                hyp.draw(st.integers(1, n)), hyp.draw(st.floats(0.5, 8.0)))
    data, atoms, _, _ = gen_sparse_dictionary_instance(spec, hyp.draw(st.integers(0, 2 ** 32 - 1)))
    _, trace = train(data, TrainConfig(hyp.draw(st.integers(1, 300)), LossKind.SQUARED,
                                       DictionaryLearner(atoms), Epsilon(eps)))

    c = np.column_stack([a.evaluate(data.features) for a in atoms]).T @ data.targets
    tie = 1e-9 * np.max(np.abs(c))
    slot = {atom: i for i, atom in enumerate(atoms)}
    b = np.zeros(n)  # the coefficients of f_k, per atom
    k = 0  # the last step compared
    for atom, beta in zip(trace.learners, trace.betas):
        top = np.sort(np.abs(c - b))[::-1]
        if top[0] - top[1] <= tie:
            event("near tie")
            break
        k += 1
        b[slot[atom]] += beta
        lasso = soft_threshold_at_l1(c, np.abs(b).sum())
        assert np.max(np.abs(b - lasso)) <= eps, k
    per_atom = np.zeros(n)
    np.add.at(per_atom, [slot[g] for g in trace.learners[:k]], trace.model(k).coefs)
    assert np.array_equal(per_atom, b)
