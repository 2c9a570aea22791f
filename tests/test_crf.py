from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattr import (
    AttributeCategoryMatrix,
    ConfigurationError,
    FeasibilityError,
    brute_force_posterior,
    crf_posterior,
    estimate_matrix_from_labels,
)
from coopattr.crf import MATRIX_CLAMP, _conditioned, crf_posterior_batch


def _enumerated_scores(rates, probs, n_categories):
    # Scalar-loop enumeration of the joint, written independently of the
    # package code; returns unnormalized per-category scores.
    rates = np.clip(np.asarray(rates, float), MATRIX_CLAMP, 1 - MATRIX_CLAMP)
    probs = np.asarray(probs, float)
    m = rates.shape[0]
    scores = []
    for i in range(n_categories):
        total = 0.0
        for config in itertools.product((0, 1), repeat=m):
            term = 1.0 / n_categories
            for j, bit in enumerate(config):
                edge = rates[j, i] if bit else 1.0 - rates[j, i]
                unary = probs[j] if bit else 1.0 - probs[j]
                term *= (edge / 0.5) * unary
            total += term
        scores.append(total)
    return np.array(scores)


def _enumerated_posterior(rates, probs, n_categories):
    scores = _enumerated_scores(rates, probs, n_categories)
    return scores / scores.sum()


def test_single_attribute_frozen_example():
    matrix = AttributeCategoryMatrix([[0.8, 0.2]])
    expected = _enumerated_posterior(matrix.values, [0.9], 2)
    assert np.allclose(expected, [0.74, 0.26], atol=1e-12)
    assert np.allclose(crf_posterior(matrix, [0.9], 2).probs, [0.74, 0.26], atol=1e-9)
    assert np.allclose(brute_force_posterior(matrix, [0.9], 2).probs, [0.74, 0.26], atol=1e-9)


def test_uninformative_matrix_gives_uniform_posterior():
    matrix = AttributeCategoryMatrix(np.full((4, 5), 0.5))
    probs = np.random.default_rng(0).uniform(0.05, 0.95, 4)
    post = crf_posterior(matrix, probs, 5)
    assert np.allclose(post.probs, 0.2, atol=1e-12)


def test_uninformative_unaries_give_uniform_posterior():
    rng = np.random.default_rng(1)
    matrix = AttributeCategoryMatrix(rng.uniform(0, 1, (6, 4)))
    post = crf_posterior(matrix, np.full(6, 0.5), 4)
    assert np.allclose(post.probs, 0.25, atol=1e-12)
    oracle = _enumerated_posterior(matrix.values, np.full(6, 0.5), 4)
    assert np.allclose(oracle, 0.25, atol=1e-12)


def test_brute_force_empty_attribute_set_is_uniform():
    matrix_free = np.zeros((0, 3))
    post = brute_force_posterior(matrix_free, np.zeros(0), 3)
    assert np.allclose(post.probs, 1 / 3)


def test_brute_force_matches_scalar_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, n = rng.integers(1, 6), rng.integers(2, 6)
        rates = rng.uniform(0, 1, (m, n))
        probs = rng.uniform(0.01, 0.99, m)
        ours = brute_force_posterior(AttributeCategoryMatrix(rates), probs, n)
        assert np.allclose(ours.probs, _enumerated_posterior(rates, probs, n), atol=1e-12)


def test_brute_force_rejects_large_attribute_count():
    with pytest.raises(FeasibilityError):
        brute_force_posterior(np.full((21, 2), 0.5), np.full(21, 0.4), 2)


def test_crf_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m, n = rng.integers(1, 11), rng.integers(2, 11)
        rates = rng.uniform(0, 1, (m, n))
        probs = rng.uniform(1e-4, 1 - 1e-4, m)
        matrix = AttributeCategoryMatrix(rates)
        a = crf_posterior(matrix, probs, n).probs
        b = brute_force_posterior(matrix, probs, n).probs
        assert np.abs(a - b).max() <= 1e-9


def test_attribute_probs_must_be_strictly_interior():
    matrix = AttributeCategoryMatrix([[0.5, 0.5]])
    with pytest.raises(ConfigurationError):
        crf_posterior(matrix, [1.0], 2)
    with pytest.raises(ConfigurationError):
        crf_posterior(matrix, [0.0], 2)
    with pytest.raises(ConfigurationError):
        crf_posterior_batch(AttributeCategoryMatrix([[0.2, 0.8], [0.6, 0.4]]),
                            np.array([[np.nan, 0.5]]), 2)


@pytest.mark.parametrize("bad", [1.5, -0.5, np.nan, np.inf])
def test_raw_matrix_entries_are_checked(bad):
    rates = np.array([[0.2, bad], [0.6, 0.4]])
    for posterior in (crf_posterior, brute_force_posterior):
        with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
            posterior(rates, [0.3, 0.7], 2)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        crf_posterior_batch(rates, np.array([[0.3, 0.7]]), 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_attribute_permutation_leaves_posterior_unchanged(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 6))
    rates = rng.uniform(0, 1, (m, n))
    probs = rng.uniform(0.01, 0.99, m)
    perm = rng.permutation(m)
    base = crf_posterior(AttributeCategoryMatrix(rates), probs, n)
    shuffled = crf_posterior(AttributeCategoryMatrix(rates[perm]), probs[perm], n)
    assert np.allclose(base.probs, shuffled.probs, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_category_permutation_permutes_posterior(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 7)), int(rng.integers(2, 6))
    rates = rng.uniform(0, 1, (m, n))
    probs = rng.uniform(0.01, 0.99, m)
    perm = rng.permutation(n)
    base = crf_posterior(AttributeCategoryMatrix(rates), probs, n)
    permuted = crf_posterior(AttributeCategoryMatrix(rates[:, perm]), probs, n)
    assert np.allclose(base.probs[perm], permuted.probs, atol=1e-12)


def test_constant_rate_attribute_contributes_nothing():
    rng = np.random.default_rng(4)
    rates = rng.uniform(0, 1, (5, 4))
    rates[2] = 0.37  # same rate for every category
    probs = rng.uniform(0.01, 0.99, 5)
    matrix = AttributeCategoryMatrix(rates)
    base = crf_posterior(matrix, probs, 4)
    for replacement in (0.05, 0.5, 0.95):
        other = probs.copy()
        other[2] = replacement
        assert np.allclose(base.probs, crf_posterior(matrix, other, 4).probs, atol=1e-12)


def test_zero_count_category_has_constant_unnormalized_score():
    rates = np.random.default_rng(5).uniform(0, 1, (3, 4))
    rates[:, 2] = 0.5  # the column a zero-count category receives
    for probs in ([0.2, 0.7, 0.9], [0.8, 0.1, 0.45]):
        scores = _enumerated_scores(rates, probs, 4)
        assert scores[2] == pytest.approx(0.25, abs=1e-12)  # (1/N) * (0.5/0.5)^M


def test_batch_matches_single_example_path():
    rng = np.random.default_rng(6)
    rates = rng.uniform(0, 1, (7, 5))
    probs = rng.uniform(0.01, 0.99, (9, 7))
    matrix = AttributeCategoryMatrix(rates)
    batch = crf_posterior_batch(matrix, probs, 5)
    for row, unary in zip(batch, probs):
        assert np.allclose(row, crf_posterior(matrix, unary, 5).probs, atol=1e-12)


def _broadcast_posterior_batch(matrix, attr_probs, n_categories):
    # The earlier (n, M, N) broadcast form of crf_posterior_batch, verbatim.
    rates, probs = _conditioned(matrix, attr_probs, n_categories)
    if probs.ndim != 2:
        raise ConfigurationError("attr_probs batch must be (n_examples, n_attributes)")
    messages = probs[:, :, None] * rates[None, :, :] + (1.0 - probs)[:, :, None] * (
        1.0 - rates
    )[None, :, :]
    log_scores = np.log(messages).sum(axis=1)
    log_scores -= log_scores.max(axis=1, keepdims=True)
    scores = np.exp(log_scores)
    return scores / scores.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_examples=st.one_of(st.just(0), st.integers(1, 300)),
    n_attributes=st.integers(0, 25),
    # Below, inside and above numpy's pairwise-sum block sizes (8 and 128).
    n_categories=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 260)),
)
def test_category_major_kernel_is_bit_identical_to_broadcast_form(
    seed, n_examples, n_attributes, n_categories
):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0, 1, (n_attributes, n_categories))
    rates[rng.random(rates.shape) < 0.1] = 0.0  # clamped at inference
    rates[rng.random(rates.shape) < 0.1] = 1.0
    probs = rng.uniform(0, 1, (n_examples, n_attributes)).clip(1e-12, 1 - 1e-12)
    probs[rng.random(probs.shape) < 0.05] = 1e-12
    probs[rng.random(probs.shape) < 0.05] = 1 - 1e-12
    expected = _broadcast_posterior_batch(rates, probs, n_categories)
    got = crf_posterior_batch(rates, probs, n_categories)
    assert got.shape == expected.shape == (n_examples, n_categories)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_estimate_matrix_counts_fractions():
    matrix = estimate_matrix_from_labels(
        np.zeros(5, int), np.array([[1], [1], [1], [0], [0]]), n_categories=2, n_attributes=1
    )
    assert matrix.values[0, 0] == pytest.approx(0.6)


def test_estimate_matrix_zero_count_category_gets_half_column():
    matrix = estimate_matrix_from_labels(
        np.array([0]), np.array([[1, 0]]), n_categories=3, n_attributes=2
    )
    assert np.allclose(matrix.values[:, 1], 0.5)
    assert np.allclose(matrix.values[:, 2], 0.5)


def test_estimate_matrix_saturated_entry_kept_exact_then_clamped_at_inference():
    matrix = estimate_matrix_from_labels(
        np.zeros(4, int), np.ones((4, 1)), n_categories=2, n_attributes=1
    )
    assert matrix.values[0, 0] == 1.0
    post = crf_posterior(matrix, [0.6], 2)  # must not produce -inf logs
    assert np.isfinite(post.probs).all()


def test_estimate_matrix_rejects_zero_dimensions():
    with pytest.raises(ConfigurationError):
        estimate_matrix_from_labels(np.zeros(0, int), np.zeros((0, 1)), 0, 1)
    with pytest.raises(ConfigurationError):
        estimate_matrix_from_labels(np.zeros(0, int), np.zeros((0, 0)), 2, 0)

