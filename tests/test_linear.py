from __future__ import annotations

import numpy as np
import pytest

from coopattr import (
    ConfigurationError,
    Example,
    LinearClassifier,
    StateError,
    TrainConfig,
    TrainingError,
    attribute_bank_accuracy,
    attribute_probs,
    category_posterior,
    train_attribute_bank,
    train_binary,
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


def _mean_logistic_loss(clf, features, labels):
    # Independent check computed from predict_prob alone.
    probs = np.array([clf.predict_prob(x) for x in features])
    labels = np.asarray(labels, float)
    return float(-np.mean(labels * np.log(probs) + (1 - labels) * np.log(1 - probs)))


def test_separable_pair_reaches_low_loss_as_regularization_vanishes():
    cfg = TrainConfig(l2=1e-9, learning_rate=1.0, max_iters=3000)
    clf = train_binary([[1.0]], [[-1.0]], cfg)
    loss = _mean_logistic_loss(clf, [[1.0], [-1.0]], [1, 0])
    assert loss < 0.1


def test_identical_positive_and_negative_point_predicts_half():
    clf = train_binary([[0.3, -0.7]], [[0.3, -0.7]])
    assert clf.predict_prob([0.3, -0.7]) == pytest.approx(0.5)


def test_one_dim_sign_forced_by_data():
    clf = train_binary([[1.0]], [[-1.0]])
    assert clf.weights[0] > 0


def test_train_binary_rejects_empty_class():
    with pytest.raises(TrainingError):
        train_binary([], [[1.0]])
    with pytest.raises(TrainingError):
        train_binary([[1.0]], [])


def test_train_binary_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        train_binary([[np.nan]], [[1.0]])


def test_predict_prob_zero_score_is_half():
    clf = LinearClassifier(np.zeros(3), 0.0)
    assert clf.predict_prob([4.0, -1.0, 2.0]) == 0.5
    clf1 = LinearClassifier(np.array([1.0]), 0.0)
    assert clf1.predict_prob([0.0]) == 0.5


def test_predict_prob_clamps_at_boundary():
    clf = LinearClassifier(np.zeros(1), 1e9)
    assert clf.predict_prob([0.0]) == pytest.approx(1 - 1e-6)
    low = LinearClassifier(np.zeros(1), -1e9)
    assert low.predict_prob([0.0]) == pytest.approx(1e-6)


def test_predict_prob_rejects_dimension_mismatch():
    clf = LinearClassifier(np.zeros(2), 0.0)
    with pytest.raises(ConfigurationError):
        clf.predict_prob([1.0])


def test_predict_prob_monotone_in_score():
    rng = np.random.default_rng(3)
    w = rng.normal(size=4)
    w /= np.linalg.norm(w)  # scores stay well inside the clamp
    clf = LinearClassifier(w, rng.normal())
    points = [w * t for t in np.linspace(-3, 3, 11)]
    probs = [clf.predict_prob(x) for x in points]
    assert all(a < b for a, b in zip(probs, probs[1:]))


def _bias_bank(kind, raw_probs):
    def _logit(p):
        return float(np.log(p / (1 - p)))

    clfs = tuple(LinearClassifier(np.zeros(2), _logit(p)) for p in raw_probs)
    return kind(clfs)


def test_category_posterior_uniform_when_scores_equal():
    bank = _bias_bank(CategoryModelBank, [0.3, 0.3, 0.3, 0.3])
    post = category_posterior(bank, [0.0, 0.0])
    assert np.allclose(post.probs, 0.25)


def test_category_posterior_normalizes_raw_probs():
    bank = _bias_bank(CategoryModelBank, [0.9, 0.1])
    post = category_posterior(bank, [0.0, 0.0])
    assert np.allclose(post.probs, [0.9, 0.1])
    uniform = _bias_bank(CategoryModelBank, [0.5, 0.5])
    assert np.allclose(category_posterior(uniform, [0.0, 0.0]).probs, [0.5, 0.5])


def test_category_posterior_sums_to_one_and_interior():
    rng = np.random.default_rng(11)
    clfs = tuple(
        LinearClassifier(rng.normal(size=3) * 5, rng.normal() * 5) for _ in range(6)
    )
    bank = CategoryModelBank(clfs)
    for _ in range(50):
        post = category_posterior(bank, rng.normal(size=3))
        assert abs(post.probs.sum() - 1.0) < 1e-9
        assert post.probs.min() > 0.0 and post.probs.max() < 1.0


def test_untrained_banks_raise_state_error():
    with pytest.raises(StateError):
        category_posterior(CategoryModelBank(()), [1.0])
    with pytest.raises(StateError):
        attribute_probs(AttributeModelBank(()), [1.0])


def test_attribute_probs_all_zero_classifiers():
    bank = AttributeModelBank(tuple(LinearClassifier(np.zeros(2), 0.0) for _ in range(3)))
    assert np.allclose(attribute_probs(bank, [1.0, -2.0]), 0.5)


def test_attribute_probs_separable_positive_side():
    bank = train_attribute_bank(
        np.array([[1.0], [2.0], [-1.0], [-2.0]]), np.array([[1], [1], [0], [0]])
    )
    assert attribute_probs(bank, [1.5])[0] > 0.5
    with pytest.raises(ConfigurationError):
        attribute_probs(bank, [1.0, 2.0])


def test_attribute_bank_accuracy_counts():
    bank = train_attribute_bank(
        np.array([[1.0], [2.0], [-1.0], [-2.0]]), np.array([[1], [1], [0], [0]])
    )
    examples = [
        Example(id=i, features=[x], true_attributes=[a])
        for i, (x, a) in enumerate([(3.0, 1), (2.5, 1), (-3.0, 0), (3.0, 0)])
    ]
    q = attribute_bank_accuracy(bank, examples)
    assert q[0] == pytest.approx(0.75)


def test_attribute_bank_accuracy_perfect_and_half_threshold():
    perfect = AttributeModelBank((LinearClassifier(np.array([100.0]), 0.0),))
    pos = [Example(id=i, features=[1.0], true_attributes=[1]) for i in range(4)]
    assert attribute_bank_accuracy(perfect, pos)[0] == 1.0
    # A constant 0.5 output never predicts "present" (strict > 0.5 rule).
    constant = AttributeModelBank((LinearClassifier(np.array([0.0]), 0.0),))
    assert attribute_bank_accuracy(constant, pos)[0] == 0.0


def test_attribute_bank_accuracy_rejects_empty_or_unlabeled():
    bank = AttributeModelBank((LinearClassifier(np.zeros(1), 0.0),))
    with pytest.raises(ConfigurationError):
        attribute_bank_accuracy(bank, [])
    with pytest.raises(ConfigurationError):
        attribute_bank_accuracy(bank, [Example(id=1, features=[1.0])])


def test_training_is_bit_deterministic():
    rng = np.random.default_rng(5)
    pos = rng.normal(size=(8, 3)) + 1
    neg = rng.normal(size=(9, 3)) - 1
    a = train_binary(pos, neg)
    b = train_binary(pos, neg)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_duplicated_training_set_keeps_sign_pattern():
    rng = np.random.default_rng(6)
    pos = rng.normal(size=(6, 2)) + 2
    neg = rng.normal(size=(6, 2)) - 2
    once = train_binary(pos, neg)
    twice = train_binary(np.vstack([pos, pos]), np.vstack([neg, neg]))
    points = np.vstack([pos, neg])
    sign_once = [once.predict_prob(x) > 0.5 for x in points]
    sign_twice = [twice.predict_prob(x) > 0.5 for x in points]
    assert sign_once == sign_twice


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
    assert bank.probs([1.5])[0] == pytest.approx(1 - 1e-6)
    with pytest.raises(TrainingError):
        train_attribute_bank(features, attributes, constant_fallback=False)


def test_attribute_accuracy_arrays_matches_example_path():
    rng = np.random.default_rng(9)
    features = rng.normal(size=(12, 2))
    attributes = (rng.random((12, 2)) < 0.5).astype(int)
    attributes[0] = [0, 1]
    attributes[1] = [1, 0]
    bank = train_attribute_bank(features, attributes)
    examples = [
        Example(id=i, features=features[i], true_attributes=attributes[i])
        for i in range(12)
    ]
    assert np.array_equal(
        attribute_bank_accuracy(bank, examples),
        attribute_accuracy_arrays(bank, features, attributes),
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
    assert attribute_bank.probs([0.0] * 4)[1] == pytest.approx(1 - 1e-6)


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
