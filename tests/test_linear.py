from __future__ import annotations

import numpy as np
import pytest

from coopattr import (
    ConfigurationError,
    LinearClassifier,
    StateError,
    TrainConfig,
    TrainingError,
    train_attribute_bank,
    train_category_bank,
)
from coopattr.linear import (
    AttributeModelBank,
    CategoryModelBank,
    _sigmoid,
    _stacked,
    attribute_accuracy_arrays,
    train_banks,
)


def _train_one(positives, negatives, config=None) -> AttributeModelBank:
    """One presence classifier fit on explicit positive and negative rows."""
    features = np.vstack([np.asarray(positives, float), np.asarray(negatives, float)])
    labels = np.r_[np.ones(len(positives), int), np.zeros(len(negatives), int)]
    return train_attribute_bank(features, labels[:, None], config, constant_fallback=False)


def _probs(bank, points) -> np.ndarray:
    """The first classifier's presence probability at each point."""
    return bank.probs_batch(np.atleast_2d(np.asarray(points, float)))[:, 0]


def _mean_logistic_loss(bank, features, labels):
    probs = _probs(bank, features)
    labels = np.asarray(labels, float)
    return float(-np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)))


def test_separable_pair_reaches_low_loss_as_regularization_vanishes():
    cfg = TrainConfig(l2=1e-9, learning_rate=1.0, max_iters=3000)
    bank = _train_one([[1.0]], [[-1.0]], cfg)
    loss = _mean_logistic_loss(bank, [[1.0], [-1.0]], [1, 0])
    assert loss < 0.1


def test_identical_positive_and_negative_point_predicts_half():
    bank = _train_one([[0.3, -0.7]], [[0.3, -0.7]])
    assert _probs(bank, [0.3, -0.7])[0] == pytest.approx(0.5)


def test_one_dim_sign_forced_by_data():
    bank = _train_one([[1.0]], [[-1.0]])
    assert bank.classifiers[0].weights[0] > 0


def test_train_binary_rejects_empty_class():
    with pytest.raises(TrainingError):
        _train_one(np.empty((0, 1)), [[1.0]])
    with pytest.raises(TrainingError):
        _train_one([[1.0]], np.empty((0, 1)))


def test_train_binary_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        _train_one([[np.nan]], [[1.0]])


def _bank(kind, weights, biases):
    return kind(tuple(LinearClassifier(np.asarray(w, float), b) for w, b in zip(weights, biases)))


def test_predict_prob_zero_score_is_half():
    bank = _bank(AttributeModelBank, [np.zeros(3)], [0.0])
    assert _probs(bank, [4.0, -1.0, 2.0])[0] == 0.5
    one_dim = _bank(AttributeModelBank, [[1.0]], [0.0])
    assert _probs(one_dim, [0.0])[0] == 0.5


def test_predict_prob_clamps_at_boundary():
    high = _bank(AttributeModelBank, [[0.0]], [1e9])
    assert _probs(high, [0.0])[0] == pytest.approx(1 - 1e-6)
    low = _bank(AttributeModelBank, [[0.0]], [-1e9])
    assert _probs(low, [0.0])[0] == pytest.approx(1e-6)


def test_predict_prob_rejects_dimension_mismatch():
    bank = _bank(AttributeModelBank, [np.zeros(2)], [0.0])
    with pytest.raises(ConfigurationError):
        _probs(bank, [1.0])


def test_predict_prob_monotone_in_score():
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    w /= np.linalg.norm(w)  # scores stay well inside the clamp
    bank = _bank(AttributeModelBank, [w], [rng.normal()])
    probs = _probs(bank, [w * t for t in np.linspace(-3, 3, 11)]).tolist()
    assert all(a < b for a, b in zip(probs, probs[1:]))


def _bias_bank(kind, raw_probs):
    def _logit(p):
        return float(np.log(p / (1 - p)))

    return _bank(kind, [np.zeros(2)] * len(raw_probs), [_logit(p) for p in raw_probs])


def test_category_posterior_uniform_when_scores_equal():
    bank = _bias_bank(CategoryModelBank, [0.3, 0.3, 0.3, 0.3])
    post = bank.posterior_batch(np.zeros((1, 2)))[0]
    assert np.allclose(post, 0.25)


def test_category_posterior_normalizes_raw_probs():
    bank = _bias_bank(CategoryModelBank, [0.9, 0.1])
    assert np.allclose(bank.posterior_batch(np.zeros((1, 2)))[0], [0.9, 0.1])
    uniform = _bias_bank(CategoryModelBank, [0.5, 0.5])
    assert np.allclose(uniform.posterior_batch(np.zeros((1, 2)))[0], [0.5, 0.5])


def test_category_posterior_sums_to_one_and_interior():
    rng = np.random.default_rng(11)
    bank = _bank(
        CategoryModelBank, [rng.normal(size=3) * 5 for _ in range(6)],
        [rng.normal() * 5 for _ in range(6)],
    )
    posts = bank.posterior_batch(rng.normal(size=(50, 3)))
    assert np.abs(posts.sum(axis=1) - 1.0).max() < 1e-9
    assert posts.min() > 0.0 and posts.max() < 1.0


def test_untrained_banks_raise_state_error():
    with pytest.raises(StateError):
        CategoryModelBank(()).posterior_batch(np.ones((1, 1)))
    with pytest.raises(StateError):
        AttributeModelBank(()).probs_batch(np.ones((1, 1)))


def test_attribute_probs_all_zero_classifiers():
    bank = _bank(AttributeModelBank, [np.zeros(2)] * 3, [0.0] * 3)
    assert np.allclose(bank.probs_batch(np.array([[1.0, -2.0]])), 0.5)


def test_attribute_probs_separable_positive_side():
    bank = train_attribute_bank(
        np.array([[1.0], [2.0], [-1.0], [-2.0]]), np.array([[1], [1], [0], [0]])
    )
    assert _probs(bank, [1.5])[0] > 0.5
    with pytest.raises(ConfigurationError):
        _probs(bank, [1.0, 2.0])


def test_attribute_bank_accuracy_counts():
    bank = train_attribute_bank(
        np.array([[1.0], [2.0], [-1.0], [-2.0]]), np.array([[1], [1], [0], [0]])
    )
    features = np.array([[3.0], [2.5], [-3.0], [3.0]])
    q = attribute_accuracy_arrays(bank, features, np.array([[1], [1], [0], [0]]))
    assert q[0] == pytest.approx(0.75)


def test_attribute_bank_accuracy_perfect_and_half_threshold():
    perfect = _bank(AttributeModelBank, [[100.0]], [0.0])
    features, truth = np.ones((4, 1)), np.ones((4, 1), dtype=np.int8)
    assert attribute_accuracy_arrays(perfect, features, truth)[0] == 1.0
    # A constant 0.5 output never predicts "present" (strict > 0.5 rule).
    constant = _bank(AttributeModelBank, [[0.0]], [0.0])
    assert attribute_accuracy_arrays(constant, features, truth)[0] == 0.0


def test_attribute_bank_accuracy_rejects_empty_or_unlabeled():
    bank = _bank(AttributeModelBank, [np.zeros(1)], [0.0])
    with pytest.raises(ConfigurationError):
        attribute_accuracy_arrays(bank, np.empty((0, 1)), np.empty((0, 1)))
    with pytest.raises(ConfigurationError):
        attribute_accuracy_arrays(bank, np.ones((1, 1)), np.empty((1, 0)))


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(8, 3)) + 1
    neg = rng.normal(size=(9, 3)) - 1
    a = _train_one(pos, neg).classifiers[0]
    b = _train_one(pos, neg).classifiers[0]
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_duplicated_training_set_keeps_sign_pattern():
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(6, 2)) + 2
    neg = rng.normal(size=(6, 2)) - 2
    once = _train_one(pos, neg)
    twice = _train_one(np.vstack([pos, pos]), np.vstack([neg, neg]))
    points = np.vstack([pos, neg])
    assert np.array_equal(_probs(once, points) > 0.5, _probs(twice, points) > 0.5)


def test_train_category_bank_one_vs_rest():
    rng = np.random.default_rng(7)
    centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    features = np.vstack([rng.normal(size=(20, 2)) * 0.3 + c for c in centers])
    categories = np.repeat([0, 1, 2], 20)
    bank = train_category_bank(features, categories, 3)
    preds = np.argmax(bank.posterior_batch(centers), axis=1)
    assert preds.tolist() == [0, 1, 2]


def test_train_category_bank_rejects_missing_category():
    features = np.array([[1.0], [2.0]])
    with pytest.raises(TrainingError):
        train_category_bank(features, np.array([0, 0]), 2)


def test_train_attribute_bank_constant_fallback():
    features = np.array([[1.0], [2.0], [3.0]])
    attributes = np.array([[1, 1], [1, 0], [1, 1]])
    bank = train_attribute_bank(features, attributes)
    assert _probs(bank, [1.5])[0] == pytest.approx(1 - 1e-6)
    with pytest.raises(TrainingError):
        train_attribute_bank(features, attributes, constant_fallback=False)


def test_attribute_accuracy_arrays_matches_example_path():
    rng = np.random.default_rng(9)
    features = rng.normal(size=(12, 2))
    attributes = (rng.random((12, 2)) < 0.5).astype(int)
    attributes[0] = [0, 1]
    attributes[1] = [1, 0]
    bank = train_attribute_bank(features, attributes)
    # One example at a time, as a per-example loop would score them.
    hits = [
        (bank.probs_batch(features[i : i + 1])[0] > 0.5) == attributes[i].astype(bool)
        for i in range(12)
    ]
    assert np.array_equal(
        np.mean(hits, axis=0), attribute_accuracy_arrays(bank, features, attributes)
    )


def _masked_sigmoid(z):
    # The earlier two-branch form, kept verbatim as the bit-level reference.
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_masked_form():
    rng = np.random.default_rng(12)
    edges = [0.0, -0.0, 800.0, -800.0, 1e-320, -1e-320]
    z = np.concatenate([rng.normal(scale=30.0, size=100_000), edges])
    with np.errstate(over="raise", invalid="raise"):
        got = _sigmoid(z)
        want = _masked_sigmoid(z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_train_banks_matches_separate_banks():
    rng = np.random.default_rng(13)
    features = rng.normal(size=(30, 4))
    categories = np.arange(30) % 3
    attributes = (rng.random((30, 3)) < 0.5).astype(np.int8)
    attributes[:, 1] = 1  # single-class column: the constant fallback runs
    # tol = 0 keeps every fit stepping to max_iters: the banks stop jointly
    # once fused, so an early stop is the one case where they may differ.
    cfg = TrainConfig(max_iters=200, tol=0.0)
    category_bank, attribute_bank = train_banks(features, categories, attributes, 3, cfg)
    pairs = [
        (category_bank, train_category_bank(features, categories, 3, cfg)),
        (attribute_bank, train_attribute_bank(features, attributes, cfg)),
    ]
    for fused, separate in pairs:
        for got, want in zip(_stacked(fused.classifiers), _stacked(separate.classifiers)):
            assert np.array_equal(got, want)
    assert attribute_bank.probs_batch(np.zeros((1, 4)))[0, 1] == pytest.approx(1 - 1e-6)


def test_train_banks_rejects_missing_category():
    features = np.array([[1.0], [2.0]])
    categories = np.array([0, 0])
    attributes = np.array([[0], [1]])
    with pytest.raises(TrainingError) as fused:
        train_banks(features, categories, attributes, 2)
    with pytest.raises(TrainingError) as separate:
        train_category_bank(features, categories, 2)
    assert str(fused.value) == str(separate.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iters", 0),
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
        ("learning_rate", float("inf")),
        ("l2", -1e-3),
        ("l2", float("nan")),
        ("tol", -1e-6),
        ("tol", float("nan")),
    ],
)
def test_train_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigurationError):
        TrainConfig(**{field: value})
