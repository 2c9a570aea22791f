from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coopattr import (
    AttributeCategoryMatrix,
    ConfigurationError,
    FeasibilityError,
    brute_force_posterior,
    crf_posterior,
    estimate_matrix_from_labels,
)
from coopattr import crf
from coopattr.crf import MATRIX_CLAMP, _conditioned, crf_argmax_batch, crf_posterior_batch
from coopattr.synthetic import PREDICTION_CLAMP


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
        # One block kernel serves both paths, so the bits are the same.
        assert np.array_equal(row, crf_posterior(matrix, unary, 5).probs)


def _broadcast_posterior_batch(matrix, attr_probs, n_categories):
    # The earlier (n, M, N) broadcast form of crf_posterior_batch, verbatim.
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 2)
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


def _whole_posterior_batch(matrix, attr_probs, n_categories):
    # The earlier one-block form of crf_posterior_batch, verbatim: (N, n)
    # slabs over the whole batch.
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 2)
    p_t = np.ascontiguousarray(probs.T)
    q_t = 1.0 - p_t
    off = 1.0 - rates
    shape = (n_categories, probs.shape[0])
    term, other, log_scores = np.empty(shape), np.empty(shape), np.zeros(shape)
    for j in range(rates.shape[0]):
        np.multiply(rates[j, :, None], p_t[j], out=term)
        np.multiply(off[j, :, None], q_t[j], out=other)
        term += other
        np.log(term, out=term)
        log_scores += term
    log_scores -= log_scores.max(axis=0)
    scores = np.exp(log_scores, out=log_scores)
    scores /= np.ascontiguousarray(scores.T).sum(axis=1)
    return np.ascontiguousarray(scores.T)


def _block_edge_sizes(block):
    return (0, 1, block - 1, block, block + 1, 2 * block + 17)


@pytest.mark.parametrize("n_attributes, n_categories", [(10, 10), (3, 20), (0, 4)])
def test_row_blocks_are_bit_identical_to_one_block(n_attributes, n_categories):
    rng = np.random.default_rng(n_attributes * 100 + n_categories)
    rates = rng.uniform(0, 1, (n_attributes, n_categories))
    rates[rng.random(rates.shape) < 0.1] = 0.0  # clamped at inference
    rates[rng.random(rates.shape) < 0.1] = 1.0
    for n in _block_edge_sizes(crf._BLOCK_ROWS):
        probs = rng.uniform(1e-6, 1 - 1e-6, (n, n_attributes))
        # The linear link's clamp edges, as the harness passes them.
        probs[rng.random(probs.shape) < 0.1] = 1e-6
        probs[rng.random(probs.shape) < 0.1] = 1 - 1e-6
        expected = _whole_posterior_batch(rates, probs, n_categories)
        got = crf_posterior_batch(rates, probs, n_categories)
        assert got.shape == expected.shape == (n, n_categories)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_small_blocks_are_bit_identical_to_one_block(monkeypatch):
    # Blocks of 7 rows cut a batch at many row offsets, none of them aligned.
    monkeypatch.setattr(crf, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(8)
    rates = rng.uniform(0, 1, (6, 9))
    for n in (6, 7, 8, 50, 301):
        probs = rng.uniform(1e-6, 1 - 1e-6, (n, 6))
        expected = _whole_posterior_batch(rates, probs, 9)
        got = crf_posterior_batch(rates, probs, 9)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _argmax_case(kind, seed, n_rows):
    """Rates, unaries and category count of one case of ``kind`` for the
    argmax kernel's oracle test."""
    rng = np.random.default_rng(seed)
    n_categories = int(rng.integers(2, 7))
    n_attributes = 0 if kind == "no_attributes" else int(rng.integers(1, 13))
    rates = rng.uniform(0, 1, (n_attributes, n_categories))
    probs = rng.uniform(0, 1, (n_rows, n_attributes)).clip(1e-6, 1 - 1e-6)
    if kind in ("tie", "near_tie"):
        rates[:, -1] = rates[:, 0]
        if kind == "near_tie":
            j = rng.integers(n_attributes)
            rates[j, -1] = np.nextafter(rates[j, -1], rng.choice([0.0, 1.0]))
    elif kind == "float32_tie":
        # The last column differs from the first in float64 by less than
        # half a float32 step, so both round to the same float32 rates.
        rates[:, 0] = rates[:, 0].astype(np.float32)
        rates[:, -1] = rates[:, 0] * (1 + rng.choice([-1, 1], n_attributes) * 2.0**-27)
    elif kind == "float32_near_tie":
        # The last column is within a few float32 steps of the first, so
        # the two products are within float32's rounding error of each other.
        rates[:, -1] = rates[:, 0] * (1 + rng.integers(-4, 5, n_attributes) * 2.0**-24)
    elif kind == "clamped":
        rates[rng.random(rates.shape) < 0.3] = 0.0
        rates[rng.random(rates.shape) < 0.3] = 1.0
        probs[rng.random(probs.shape) < 0.3] = 1e-6
        probs[rng.random(probs.shape) < 0.3] = 1 - 1e-6
    elif kind in ("underflow", "float32_underflow"):
        # Columns within 0.1% of each other. The first 60 attributes, which
        # every category rates present, scale each row's products down to
        # where floats are subnormal and lose precision: by 1e-323 to 1e-312
        # into float64's, or by 1e-40 to 1e-31 into float32's (best products
        # 1e-47 to 1e-37, normal in float64).
        lead = 60
        rates = rng.uniform(0.3, 0.7, (lead + 20, 1))
        rates = rates * (1 + rng.normal(0, 1e-3, (lead + 20, n_categories)))
        rates[:lead] = 1.0
        probs = rng.uniform(0.3, 0.7, (n_rows, lead + 20))
        low, high = (1e-323, 1e-312) if kind == "underflow" else (1e-40, 1e-31)
        scale = rng.uniform(np.log(low), np.log(high), n_rows)
        probs[:, :lead] = np.exp(scale / lead)[:, None]
    elif kind == "many_attributes":
        # Every message is at most 0.9 * 0.1 + 0.1 * 0.9 = 0.18, so with 55
        # or more attributes every float32 product is below 1e-36 and every
        # row goes to the fallback.
        n_attributes = int(rng.integers(55, 66))
        rates = rng.uniform(0.9, 1, (n_attributes, n_categories))
        probs = rng.uniform(0, 0.1, (n_rows, n_attributes)).clip(1e-6)
    elif kind == "noise_study":
        # As in the noise study: rates k/n from a few labeled examples per
        # category, half the time averaged with a second agent's, and noisy
        # 0/1 annotations clamped at PREDICTION_CLAMP.
        truth = np.where(rng.random((n_attributes, n_categories)) < 0.5, 0.8, 0.2)
        counts = rng.integers(1, 7, (2, n_categories))
        rates = rng.binomial(counts[:, None, :], truth) / counts[:, None, :]
        rates = rates.mean(axis=0) if rng.random() < 0.5 else rates[0]
        bits = rng.random((n_rows, n_attributes)) < truth[:, rng.integers(0, n_categories, n_rows)].T
        noisy = bits + rng.uniform(0, 3) * rng.standard_normal(bits.shape)
        probs = noisy.clip(PREDICTION_CLAMP, 1 - PREDICTION_CLAMP)
    return rates, probs, n_categories


_ARGMAX_KINDS = [
    "random", "tie", "near_tie", "float32_tie", "float32_near_tie", "clamped", "no_attributes",
    "underflow", "float32_underflow", "many_attributes", "noise_study",
]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(_ARGMAX_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.one_of(st.just(0), st.integers(1, 400)),
    block_rows=st.sampled_from([3, 64, crf._BLOCK_ROWS]),
)
# Pinned cases. The first two failed without the margin and without the
# underflow floor of a float64 product. The next two fail with the margin
# shrunk to (M + 1) * 2**-24, and without the float32 floor; the last two
# when 1 - p is taken after the unaries are rounded to float32.
@example(kind="near_tie", seed=1, n_rows=300, block_rows=64)
@example(kind="underflow", seed=1, n_rows=500, block_rows=64)
@example(kind="float32_near_tie", seed=392, n_rows=400, block_rows=64)
@example(kind="float32_underflow", seed=537, n_rows=400, block_rows=64)
@example(kind="clamped", seed=425, n_rows=400, block_rows=64)
@example(kind="noise_study", seed=405, n_rows=400, block_rows=64)
def test_argmax_kernel_matches_posterior_argmax(kind, seed, n_rows, block_rows):
    rates, probs, n_categories = _argmax_case(kind, seed, n_rows)
    expected = np.argmax(crf_posterior_batch(rates, probs, n_categories), axis=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_BLOCK_ROWS", block_rows)
        got = crf_argmax_batch(rates, probs, n_categories)
    assert got.dtype == np.intp
    assert np.array_equal(got, expected)


def _record_calls(patch, name, calls):
    """Patch ``crf.<name>`` to append the positional arguments of each call
    to ``calls`` before running it."""
    original = getattr(crf, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    patch.setattr(crf, name, record)


@pytest.mark.parametrize("max_attributes", [crf._ARGMAX_MAX_ATTRIBUTES, 4])
def test_argmax_kernel_sends_every_row_to_the_posterior(max_attributes, monkeypatch):
    # Float32 underflow (every product below 1e-36), or more attributes than
    # the guard's bound covers. The call conditions its inputs once and
    # scores the rows with the posterior block kernel on those rates.
    rates, probs, n_categories = _argmax_case("many_attributes", 0, 300)
    blocks, conditionings, batches = [], [], []
    monkeypatch.setattr(crf, "_ARGMAX_MAX_ATTRIBUTES", max_attributes)
    _record_calls(monkeypatch, "_posterior_block", blocks)
    _record_calls(monkeypatch, "_conditioned", conditionings)
    _record_calls(monkeypatch, "crf_posterior_batch", batches)
    got = crf_argmax_batch(rates, probs, n_categories)
    monkeypatch.undo()
    assert [len(args[2]) for args in blocks] == [300]
    assert len(conditionings) == 1
    assert batches == []
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argmax(crf_posterior_batch(rates, probs, n_categories), axis=1))


@pytest.mark.parametrize(
    "entry, rank",
    [(crf_posterior, 1), (brute_force_posterior, 1), (crf_posterior_batch, 2), (crf_argmax_batch, 2)],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_public_calls_condition_their_inputs_once(entry, rank, monkeypatch):
    # Uniform rates tie every category, so the argmax kernel leaves every
    # row undecided.
    conditionings = []
    _record_calls(monkeypatch, "_conditioned", conditionings)
    entry(np.full((3, 4), 0.5), np.full((5, 3)[-rank:], 0.4), 4)
    assert len(conditionings) == 1


def test_argmax_kernel_rejects_single_row():
    with pytest.raises(ConfigurationError):
        crf_argmax_batch(np.full((2, 3), 0.5), np.full(2, 0.5), 3)


_RANK_MESSAGES = {
    1: r"attr_probs must be a 1-D vector",
    2: r"attr_probs batch must be \(n_examples, n_attributes\)",
}


@pytest.mark.parametrize(
    "entry, rank, probs",
    [
        pytest.param(entry, rank, probs, id=f"{entry.__name__}-{np.ndim(probs)}d")
        for entry, rank in (
            (crf_posterior, 1),
            (brute_force_posterior, 1),
            (crf_posterior_batch, 2),
            (crf_argmax_batch, 2),
        )
        for probs in (0.5, np.full(2, 0.5), np.full((1, 2), 0.5), np.full((1, 1, 2), 0.5))
        if np.ndim(probs) != rank
    ],
)
def test_attribute_probs_of_the_wrong_rank_are_refused(entry, rank, probs):
    # A scalar has no last axis to count attributes on: it must be refused
    # by its rank, not fail on the shape.
    with pytest.raises(ConfigurationError, match=_RANK_MESSAGES[rank]):
        entry(np.full((2, 3), 0.5), probs, 3)


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


def test_estimate_matrix_from_empty_labeled_set_is_all_half():
    matrix = estimate_matrix_from_labels(
        np.zeros(0, int), np.zeros((0, 3)), n_categories=4, n_attributes=3
    )
    assert np.array_equal(matrix.values, np.full((3, 4), 0.5))


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

