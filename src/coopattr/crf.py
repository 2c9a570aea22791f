"""Attribute-category matrix estimation and star-graph sum-product inference.

The probabilistic model is a star: one category variable connected to M binary
attribute nodes. Each attribute's unary is the agent's predicted presence
probability; the edge to category i carries that attribute's presence rate in
category i (a matrix entry). With uniform category and attribute priors, the
category marginal is the normalized product over attributes of the two-state
message

    rate(j, i) * p(a_j present | x) + (1 - rate(j, i)) * (1 - p(a_j present | x)).

Messages are accumulated in log space to avoid underflow; the priors are
constant across categories and cancel in the normalization. The batch kernel
works category-major, one attribute at a time, on (N, n) slabs; see
:func:`crf_posterior_batch` for why that keeps every bit of the result.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, FeasibilityError
from .pool import AttributeCategoryMatrix, CategoryPosterior

#: Matrix entries are exact fractions in storage; they are clamped into
#: (0, 1) only at inference time so no message factor can be exactly zero.
MATRIX_CLAMP = 1e-6

#: Exact enumeration over 2^M attribute configurations beyond this is refused.
MAX_ENUMERATION_ATTRIBUTES = 20


def estimate_matrix_from_labels(
    categories: np.ndarray,
    attributes: np.ndarray,
    n_categories: int,
    n_attributes: int,
) -> AttributeCategoryMatrix:
    """Per-category attribute presence rates from labeled category/attribute arrays.

    Categories with zero labeled examples get an uninformative 0.5 column so
    inference stays defined if a category temporarily has no data.
    """
    if n_categories <= 0 or n_attributes <= 0:
        raise ConfigurationError("n_categories and n_attributes must be positive")
    categories = np.asarray(categories, dtype=int)
    attributes = np.asarray(attributes, dtype=float)
    if attributes.ndim != 2 or attributes.shape != (categories.shape[0], n_attributes):
        raise ConfigurationError("attributes must be (n_examples, n_attributes)")
    if categories.size and (categories.min() < 0 or categories.max() >= n_categories):
        raise ConfigurationError("category labels out of range")
    if not np.isin(attributes, (0.0, 1.0)).all():
        raise ConfigurationError("attribute labels must be binary")
    counts = np.bincount(categories, minlength=n_categories).astype(float)
    if categories.size:
        onehot = (categories[:, None] == np.arange(n_categories)).astype(float)
        sums = attributes.T @ onehot
    else:
        sums = np.zeros((n_attributes, n_categories))
    values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.5)
    return AttributeCategoryMatrix(values)


def _conditioned(matrix, attr_probs, n_categories):
    if not isinstance(matrix, AttributeCategoryMatrix):
        matrix = AttributeCategoryMatrix(matrix)
    values = matrix.values
    if values.shape[1] != n_categories:
        raise ConfigurationError(
            f"matrix has {values.shape[1]} categories, expected {n_categories}"
        )
    probs = np.asarray(attr_probs, dtype=float)
    if probs.shape[-1] != values.shape[0]:
        raise ConfigurationError(
            f"got {probs.shape[-1]} attribute probabilities for {values.shape[0]} attributes"
        )
    if not ((probs > 0.0) & (probs < 1.0)).all():
        raise ConfigurationError("attribute probabilities must lie strictly inside (0, 1)")
    return np.clip(values, MATRIX_CLAMP, 1.0 - MATRIX_CLAMP), probs


def crf_posterior_batch(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: np.ndarray,
    n_categories: int,
) -> np.ndarray:
    """Category posteriors for a batch of attribute-probability rows.

    Returns a C-contiguous (n_examples, n_categories) array whose rows sum
    to 1.

    The kernel works category-major: it keeps (n_categories, n_examples)
    slabs and adds one attribute's log-messages at a time, in ascending
    attribute order, so every ufunc runs over the contiguous example axis and
    no (n, M, N) message tensor is built. That is the order in which numpy
    reduces the middle axis of the (n, M, N) form, so the log-scores are the
    same sums, bit for bit. The normaliser is summed on a C-contiguous
    (n, N) copy: numpy sums a contiguous last axis pairwise once it has 8 or
    more elements, and a sum down the slab's first axis would group the
    terms differently and move the last bit.
    """
    rates, probs = _conditioned(matrix, attr_probs, n_categories)
    if probs.ndim != 2:
        raise ConfigurationError("attr_probs batch must be (n_examples, n_attributes)")
    p_t = np.ascontiguousarray(probs.T)
    q_t = 1.0 - p_t
    off = 1.0 - rates
    shape = (n_categories, probs.shape[0])
    term, other, log_scores = np.empty(shape), np.empty(shape), np.zeros(shape)
    # 0.0 + x == x exactly and log never returns -0.0, so starting from zeros
    # changes no bit; with no attributes every row stays uniform.
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


def crf_posterior(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: Sequence[float],
    n_categories: int,
) -> CategoryPosterior:
    """Category posterior for one example via the factorized message product."""
    probs = np.asarray(attr_probs, dtype=float)
    if probs.ndim != 1:
        raise ConfigurationError("attr_probs must be a 1-D vector")
    return CategoryPosterior(crf_posterior_batch(matrix, probs[None, :], n_categories)[0])


def brute_force_posterior(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: Sequence[float],
    n_categories: int,
) -> CategoryPosterior:
    """Exact category marginal by explicit enumeration of all 2^M attribute states.

    Test oracle for :func:`crf_posterior`; it never uses the factorized message
    product. Refuses M > 20 for feasibility.
    """
    rates, probs = _conditioned(matrix, np.asarray(attr_probs, dtype=float), n_categories)
    if probs.ndim != 1:
        raise ConfigurationError("attr_probs must be a 1-D vector")
    n_attributes = rates.shape[0]
    if n_attributes > MAX_ENUMERATION_ATTRIBUTES:
        raise FeasibilityError(
            f"enumeration over 2^{n_attributes} attribute configurations is infeasible"
        )
    if n_attributes == 0:
        return CategoryPosterior(np.full(n_categories, 1.0 / n_categories))
    configs = (
        (np.arange(2**n_attributes)[:, None] >> np.arange(n_attributes)[None, :]) & 1
    ).astype(float)
    log_rates = np.log(rates)
    log_rates_off = np.log1p(-rates)
    log_probs = np.log(probs)
    log_probs_off = np.log1p(-probs)
    per_config = configs @ log_rates + (1.0 - configs) @ log_rates_off
    per_config += (configs @ log_probs + (1.0 - configs) @ log_probs_off)[:, None]
    top = per_config.max()
    totals = np.exp(per_config - top).sum(axis=0)
    return CategoryPosterior(totals / totals.sum())
