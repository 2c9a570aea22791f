from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattr import (
    ConfigurationError,
    StateError,
    TrainConfig,
    TrainingError,
    train_attribute_bank,
    train_category_bank,
)
from coopattr.config import ExperimentConfig, world_config
from coopattr.crf import _BLOCK_ROWS
from coopattr.linear import (
    PROB_CLAMP,
    AttributeModelBank,
    CategoryModelBank,
    _fit,
    _sigmoid,
    attribute_accuracy_arrays,
    train_banks,
)
from coopattr.pool import LABELED
from coopattr.synthetic import generate_world


def _train_one(positives, negatives, config=None) -> AttributeModelBank:
    """One presence classifier fit on explicit positive and negative rows."""
    features = np.vstack([np.asarray(positives, float), np.asarray(negatives, float)])
    labels = np.r_[np.ones(len(positives), int), np.zeros(len(negatives), int)]
    return train_attribute_bank(features, labels[:, None], config)


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
    assert bank.weights[0, 0] > 0


def test_train_binary_rejects_non_finite():
    with pytest.raises(ConfigurationError):
        _train_one([[np.nan]], [[1.0]])


def _bank(kind, weights, biases):
    """A bank whose column j holds ``weights[j]`` and ``biases[j]``."""
    return kind(np.column_stack([np.asarray(w, float) for w in weights]), biases)


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
        CategoryModelBank(np.zeros((1, 0)), np.zeros(0)).posterior_batch(np.ones((1, 1)))
    with pytest.raises(StateError):
        AttributeModelBank(np.zeros((1, 0)), np.zeros(0)).probs_batch(np.ones((1, 1)))


def test_bank_holds_read_only_weight_matrix_and_bias():
    with pytest.raises(ConfigurationError):
        AttributeModelBank(np.zeros(3), np.zeros(1))
    with pytest.raises(ConfigurationError):
        AttributeModelBank(np.zeros((3, 2)), np.zeros(3))
    features = np.array([[1.0], [2.0], [3.0]])
    bank = train_attribute_bank(features, np.array([[1, 1], [0, 1], [1, 1]]))
    assert [f.name for f in fields(bank)] == ["weights", "bias"]
    assert bank.weights.shape == (1, 2) and bank.bias.shape == (2,)
    for array in (bank.weights, bank.bias):
        assert not array.flags.writeable and array.flags.c_contiguous
        with pytest.raises(ValueError):
            array[0] = 1.0
    # Column 1 is all ones: zero weights and the logit of the clamped rate.
    p = 1.0 - 1e-6
    assert np.array_equal(bank.weights[:, 1], [0.0])
    assert bank.bias[1] == math.log(p / (1.0 - p))
    for j, column in enumerate(bank.classifiers):
        assert np.array_equal(column.weights, bank.weights[:, j])
        assert column.bias == bank.bias[j]


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
    a = _train_one(pos, neg)
    b = _train_one(pos, neg)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


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
        got = _sigmoid(z.copy())  # _sigmoid overwrites its argument
        want = _masked_sigmoid(z)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sigmoid_written_into_out_is_bit_identical_to_masked_form():
    rng = np.random.default_rng(14)
    z = np.concatenate([rng.normal(scale=30.0, size=10_000), [0.0, -0.0, 800.0, -800.0]])
    out = np.full_like(z, np.nan)
    with np.errstate(over="raise", invalid="raise"):
        got = _sigmoid(z.copy(), out)
    assert got is out
    assert np.array_equal(out.view(np.int64), _masked_sigmoid(z).view(np.int64))


def _whole_probs(bank, features):
    # The earlier _probs with its pure sigmoid, verbatim: every step makes a
    # new full-size array.
    z = features @ bank.weights + bank.bias
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, z >= 0)
    e += 1.0
    numerator /= e
    return np.clip(numerator, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _whole_posterior_batch(bank, features):
    raw = _whole_probs(bank, features)
    return raw / raw.sum(axis=1, keepdims=True)


def test_in_place_link_is_bit_identical_to_whole_array_form():
    rng = np.random.default_rng(21)
    weights = rng.normal(size=(12, 10))
    bias = rng.normal(size=10)
    bias[:2] = (40.0, -40.0)  # columns at the clamp edges
    banks = (CategoryModelBank(weights, bias), AttributeModelBank(weights, bias))
    for n in (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 17):
        features = rng.normal(scale=3.0, size=(n, 12))
        features[: n // 3] *= 20.0  # whole rows beyond the clamp
        pairs = (
            (banks[0].posterior_batch(features), _whole_posterior_batch(banks[0], features)),
            (banks[1].probs_batch(features), _whole_probs(banks[1], features)),
        )
        for got, want in pairs:
            assert got.shape == want.shape == (n, 10)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if n > 1:
            probs = pairs[1][0]
            assert (probs == PROB_CLAMP).any() and (probs == 1.0 - PROB_CLAMP).any()


def test_train_banks_matches_separate_banks():
    rng = np.random.default_rng(13)
    features = rng.normal(size=(30, 4))
    categories = np.arange(30) % 3
    attributes = (rng.random((30, 3)) < 0.5).astype(np.int8)
    attributes[:, 1] = 1  # single-class column: the constant fallback runs
    cfg = TrainConfig(max_iters=200)
    category_bank, attribute_bank = train_banks(features, categories, attributes, 3, cfg)
    pairs = [
        (category_bank, train_category_bank(features, categories, 3, cfg)),
        (attribute_bank, train_attribute_bank(features, attributes, cfg)),
    ]
    for fused, separate in pairs:
        assert np.array_equal(fused.weights, separate.weights)
        assert np.array_equal(fused.bias, separate.bias)
    assert attribute_bank.probs_batch(np.zeros((1, 4)))[0, 1] == pytest.approx(1 - 1e-6)


def test_negative_category_label_is_out_of_range():
    features, categories = np.ones((3, 2)), [0, 1, -1]
    with pytest.raises(ConfigurationError, match="out of range") as separate:
        train_category_bank(features, categories, 2)
    with pytest.raises(ConfigurationError, match="out of range") as fused:
        train_banks(features, categories, np.zeros((3, 1)), 2)
    assert type(separate.value) is type(fused.value) is ConfigurationError


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
        ("max_iters", 2.5),
        ("max_iters", 500.0),
        ("learning_rate", 0.0),
        ("learning_rate", -1.0),
        ("learning_rate", float("inf")),
        ("l2", -1e-3),
        ("l2", float("nan")),
        # Below the smallest normal float32 (1.18e-38): the float32 descent
        # would take a step of 0 or a subnormal one, or drop the decay.
        ("learning_rate", 1e-46),
        ("learning_rate", 1e-39),
        ("l2", 1e-50),
        ("l2", 1e-39),
    ],
)
def test_train_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_the_smallest_normal_float32():
    tiny = float(np.finfo(np.float32).tiny)
    TrainConfig(learning_rate=tiny, l2=tiny)
    TrainConfig(l2=0.0)


def test_divergent_step_raises_training_error():
    # The labeled seeds of the trend benchmark's world 0 (the default config),
    # agent 0. Fits at learning_rate x max_iters = 250 stay below log 2 up to
    # a step of 10; a step of 50 diverges.
    domain = generate_world(world_config(ExperimentConfig(), 0)).domains[0]
    labeled = domain.pool.split == LABELED
    data = (domain.features[labeled], domain.pool.category[labeled], domain.pool.bits[labeled], 10)
    for learning_rate in (0.5, 1.0, 2.0, 5.0, 10.0):
        train_banks(*data, TrainConfig(learning_rate=learning_rate, max_iters=int(250 / learning_rate)))
    with pytest.raises(TrainingError, match=r"learning_rate 50\.0: 5 of 20 .* column 9 at 2\.91"):
        train_banks(*data, TrainConfig(learning_rate=50.0, max_iters=5))


@pytest.mark.parametrize("learning_rate", [1e20, 1e100])
def test_non_finite_final_loss_raises_training_error(learning_rate):
    # The seeds of test_divergent_step_raises_training_error. At these steps
    # the descent overflows and the weights end NaN; a NaN loss compares
    # False with log 2, so it must count as diverged too. numpy's overflow
    # warnings are silenced so that the test sees the error, not a warning.
    domain = generate_world(world_config(ExperimentConfig(), 0)).domains[0]
    labeled = domain.pool.split == LABELED
    data = (domain.features[labeled], domain.pool.category[labeled], domain.pool.bits[labeled], 10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingError, match="20 of 20 fitted columns"):
            train_banks(*data, TrainConfig(learning_rate=learning_rate, max_iters=5))


def _reference_fit(features, targets, config):
    # The earlier float64 descent, kept verbatim as the reference.
    n, dim = features.shape
    k = targets.shape[1]
    weights = np.zeros((dim, k))
    bias = np.zeros(k)
    for _ in range(config.max_iters):
        z = features @ weights
        z += bias
        residual = _sigmoid(z)
        residual -= targets
        residual /= n
        grad_w = features.T @ residual
        grad_w += config.l2 * weights
        grad_b = residual.sum(axis=0)
        weights -= config.learning_rate * grad_w
        bias -= config.learning_rate * grad_b
    return weights, bias


def _tanh_reference_fit(features, targets, config):
    # The float32 (k, n) descent with the tanh link before the half-weight
    # block, kept verbatim as the reference for the bits of ``_fit``.
    n, dim = features.shape
    k = targets.shape[1]
    x = features.astype(np.float32)
    xt = np.ascontiguousarray(x.T)
    yt = np.ascontiguousarray(targets.T, dtype=np.float32)
    weights = np.zeros((k, dim), np.float32)
    bias = np.zeros((k, 1), np.float32)
    step, l2, inv_n = (np.float32(v) for v in (config.learning_rate, config.l2, 1.0 / n))
    half = np.float32(0.5)
    for _ in range(config.max_iters):
        r = weights @ xt
        r += bias
        r *= half
        np.tanh(r, out=r)
        r *= half
        r += half
        r -= yt
        r *= inv_n
        grad_w = r @ x
        grad_w += l2 * weights
        grad_b = r.sum(axis=1, keepdims=True)
        weights -= step * grad_w
        bias -= step * grad_b
    return weights.T.astype(float, order="C"), bias[:, 0].astype(float)


def _noisy_linear_targets(n, dim, k=20):
    # Trend-sized fits: k columns of noisy linear targets.
    rng = np.random.default_rng(1000 * dim + n)
    features = rng.normal(size=(n, dim))
    targets = (features @ rng.normal(size=(dim, k)) + rng.normal(size=(n, k)) > 0).astype(float)
    return features, targets


@pytest.mark.parametrize("dim", [12, 16])
@pytest.mark.parametrize("n", [50, 100, 300, 450, 1000, 2000, 4000])
def test_float32_descent_stays_near_float64_reference(n, dim):
    # Default config, final |w| up to ~5; n = 4000 is wide_pool's fit size.
    # Each float32 step rounds w by about 2**-24 |w|; descent at this step
    # size does not amplify the errors, which add up like a random walk over
    # the 500 steps: sqrt(500) * 2**-24 ~ 1.3e-6 at |w| ~ 1. The largest
    # difference measured here is 1.6e-6 over all 14 shapes, and 3.0e-6
    # over five other seeds of the same shapes.
    features, targets = _noisy_linear_targets(n, dim)
    weights, bias = _fit(features, targets, TrainConfig())
    want_weights, want_bias = _reference_fit(features, targets, TrainConfig())
    assert weights.dtype == bias.dtype == np.float64
    assert np.abs(weights - want_weights).max() <= 1e-5
    assert np.abs(bias - want_bias).max() <= 1e-5


def test_both_banks_hold_float64_arrays():
    rng = np.random.default_rng(14)
    features = rng.normal(size=(40, 5))
    attributes = (rng.random((40, 3)) < 0.5).astype(np.int8)
    for bank in train_banks(features, np.arange(40) % 4, attributes, 4):
        for array in (bank.weights, bank.bias):
            assert array.dtype == np.float64 and array.flags.c_contiguous


@pytest.mark.parametrize("n", [50, 400, 2000])
def test_column_subsets_fit_the_bits_of_the_full_fit(n):
    # Any two or more columns fitted together give the bits of the same
    # columns of the 20-column fit. One column alone goes through BLAS's
    # matrix-vector kernel and may differ by float32 rounding: measured up
    # to 4.8e-7 over every column of these shapes.
    features, targets = _noisy_linear_targets(n, 16)
    weights, bias = _fit(features, targets, TrainConfig())
    for cols in ([0, 1], [3, 11], list(range(10)), list(range(7, 20))):
        sub_weights, sub_bias = _fit(features, targets[:, cols], TrainConfig())
        assert np.array_equal(sub_weights, weights[:, cols])
        assert np.array_equal(sub_bias, bias[cols])
    for col in range(20):
        one_weights, one_bias = _fit(features, targets[:, [col]], TrainConfig())
        assert np.abs(one_weights[:, 0] - weights[:, col]).max() <= 1e-6
        assert abs(one_bias[0] - bias[col]) <= 1e-6


@pytest.mark.parametrize("n", [2, 5, 7, 8, 9, 50, 129, 257, 410, 4000])
def test_half_weight_descent_is_bit_identical_to_the_tanh_reference(n):
    # k = 1 goes through BLAS's matrix-vector kernel, k >= 2 through gemm.
    configs = [TrainConfig(), TrainConfig(max_iters=200)]
    configs += [TrainConfig(l2=0.0), TrainConfig(l2=1e-9)]
    for dim in (1, 3, 12, 16):
        for k in (1, 2, 10, 20):
            features, targets = _noisy_linear_targets(n, dim, k)
            for config in configs:
                weights, bias = _fit(features, targets, config)
                want_weights, want_bias = _tanh_reference_fit(features, targets, config)
                assert np.array_equal(weights, want_weights), (dim, k, config)
                assert np.array_equal(bias, want_bias), (dim, k, config)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    dim=st.integers(1, 8),
    k=st.integers(1, 6),
    learning_rate=st.floats(1e-6, 0.5),
    l2=st.one_of(st.just(0.0), st.floats(1e-12, 0.1)),
    max_iters=st.integers(1, 50),
)
def test_half_weight_descent_matches_the_tanh_reference_on_drawn_fits(
    seed, n, dim, k, learning_rate, l2, max_iters
):
    # Features in [-1, 1] bound the loss's curvature by (dim + 1) / 4 + l2,
    # so every drawn step is below 2 / L and no fit diverges.
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(n, dim))
    targets = (rng.random((n, k)) < 0.5).astype(float)
    config = TrainConfig(l2=l2, learning_rate=learning_rate, max_iters=max_iters)
    weights, bias = _fit(features, targets, config)
    want_weights, want_bias = _tanh_reference_fit(features, targets, config)
    assert np.array_equal(weights, want_weights)
    assert np.array_equal(bias, want_bias)
