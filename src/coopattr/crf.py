"""Attribute-category matrix estimation and star-graph sum-product inference.

The probabilistic model is a star: one category variable connected to M binary
attribute nodes. Each attribute's unary is the agent's predicted presence
probability; the edge to category i carries that attribute's presence rate in
category i (a matrix entry). With uniform category and attribute priors, the
category marginal is the normalized product over attributes of the two-state
message

    rate(j, i) * p(a_j present | x) + (1 - rate(j, i)) * (1 - p(a_j present | x)).

Two kernels share the message slabs (``_messages``): they work
category-major, one attribute at a time, on (N, b) slabs of at most
``_BLOCK_ROWS`` examples.

- :func:`crf_posterior_batch` accumulates the messages in log space, so
  nothing underflows; the priors are constant across categories and cancel
  in the normalization. It writes each block's rows into one (n, N) result;
  see its docstring for why that keeps every bit of the result.
- :func:`crf_argmax_batch` returns only each row's most probable category,
  which is all the noise study reads. It multiplies the messages into a
  running float32 product: no log, exp or normaliser, and half the bytes
  per pass of a float64 one. It must give exactly the argmax of the
  posterior, so a guard decides which rows the product may settle.

  The float64 log kernel's scores differ from the exact log-probabilities
  by at most about (M + M**2) * 16 * 2**-53. For the product, u = 2**-24:
  ``1 - p`` and ``1 - rate`` are taken in float64 and only then rounded to
  float32, so each message is a sum of two non-negative rounded products
  of rounded factors, with no cancellation and a relative error of at most
  about 4u. The product of M messages is then within a relative 5M u of
  the exact product, while its partial products stay normal floats, and
  scaling it by the margin adds one more u. So a row whose best product
  beats every other category's by a relative margin above
  (10M + 1) u + (M + M**2) * 16 * 2**-53 has one strict maximum, at the
  same category, in both kernels. The margin is 2**-14 * (M + 1): for M up
  to 2**16 it is 102 to 186 times that bound, and at least 100 times its
  compounded form (1 + u)**(10M + 1) - 1 plus the log term. The best
  product must also be at least 1e-36, above float32's smallest normal
  1.18e-38, so no partial product of the best is subnormal (each message
  is below 1), and a category whose product is subnormal is far behind it.
  The other rows (exact or near ties, float32 underflow, M = 0, and every
  row when M is above the bound) go to the float64 posterior kernel, on the
  rates the call has already conditioned. For large M the float32 products
  underflow and every row goes there (with rates and unaries uniform on
  (0, 1), most rows from M of about 120): the result is exact, only slower.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, FeasibilityError
from .pool import AttributeCategoryMatrix, CategoryPosterior, _check_int, _int_array

#: Matrix entries are exact fractions in storage; they are clamped into
#: (0, 1) only at inference time so no message factor can be exactly zero.
MATRIX_CLAMP = 1e-6

#: Exact enumeration over 2^M attribute configurations beyond this is refused.
MAX_ENUMERATION_ATTRIBUTES = 20

#: Examples per block of :func:`crf_posterior_batch`. A block's five (N, b)
#: or (M, b) slabs stay within a few hundred KB, and a noise-study call
#: (2000 rows) or a loop over a default-sized pool stays one block.
_BLOCK_ROWS = 4096

#: The guard of :func:`crf_argmax_batch`: a row's best float32 product must
#: beat every other by the relative margin ``_ARGMAX_MARGIN * (M + 1)`` and
#: be at least ``_ARGMAX_FLOOR``, and M at most ``_ARGMAX_MAX_ATTRIBUTES``;
#: the module docstring gives the error bounds.
_ARGMAX_MARGIN = 2.0**-14
_ARGMAX_FLOOR = 1e-36
_ARGMAX_MAX_ATTRIBUTES = 2**16


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
    _check_int(n_categories, "n_categories", 1)
    _check_int(n_attributes, "n_attributes", 1)
    categories = _int_array(categories, "category labels")
    attributes = np.asarray(attributes, dtype=float)
    if attributes.ndim != 2 or attributes.shape != (categories.shape[0], n_attributes):
        raise ConfigurationError("attributes must be (n_examples, n_attributes)")
    if categories.size and (categories.min() < 0 or categories.max() >= n_categories):
        raise ConfigurationError("category labels out of range")
    if not np.isin(attributes, (0.0, 1.0)).all():
        raise ConfigurationError("attribute labels must be binary")
    counts = np.bincount(categories, minlength=n_categories).astype(float)
    onehot = (categories[:, None] == np.arange(n_categories)).astype(float)
    sums = attributes.T @ onehot
    values = np.where(counts > 0, sums / np.maximum(counts, 1.0), 0.5)
    return AttributeCategoryMatrix(values)


#: The message for ``attr_probs`` of the wrong rank, by the rank expected.
_RANK_ERRORS = {
    1: "attr_probs must be a 1-D vector",
    2: "attr_probs batch must be (n_examples, n_attributes)",
}


def _conditioned(matrix, attr_probs, n_categories, ndim):
    _check_int(n_categories, "n_categories", 1)
    probs = np.asarray(attr_probs, dtype=float)
    if probs.ndim != ndim:
        raise ConfigurationError(_RANK_ERRORS[ndim])
    if not isinstance(matrix, AttributeCategoryMatrix):
        matrix = AttributeCategoryMatrix(matrix)
    values = matrix.values
    if values.shape[1] != n_categories:
        raise ConfigurationError(
            f"matrix has {values.shape[1]} categories, expected {n_categories}"
        )
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

    The rows are scored in blocks of at most ``_BLOCK_ROWS``, each written
    into its rows of the one result array, so the scratch memory is bounded
    by the block and not by the batch. Each output row depends only on its
    own input row: every step is elementwise, or a max or sum over that
    row's categories. So blocking moves no bit. (A matrix product is
    different; a row of ``X @ W`` can change with the rows it is computed
    with, which is why callers never score a pool in pieces.)

    Within a block the kernel works category-major: it keeps (n_categories,
    b) slabs and adds one attribute's log-messages at a time, in ascending
    attribute order, so every ufunc runs over the contiguous example axis and
    no (b, M, N) message tensor is built. That is the order in which numpy
    reduces the middle axis of the (b, M, N) form, so the log-scores are the
    same sums, bit for bit. The normaliser is summed on the block's
    C-contiguous (b, N) rows of the result: numpy sums a contiguous last axis
    pairwise once it has 8 or more elements, and a sum down the slab's first
    axis would group the terms differently and move the last bit.
    """
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 2)
    off = 1.0 - rates
    result = np.empty((probs.shape[0], n_categories))
    for start in range(0, probs.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        _posterior_block(rates, off, probs[block], result[block])
    return result


def _messages(rates, off, probs, dtype=np.float64):
    """Yield each attribute's two-state message to every category, in
    ascending attribute order, as the same (N, b) ``dtype`` buffer for the
    (b, M) ``probs`` rows; a consumer may overwrite it before taking the
    next. ``1 - p`` is taken in float64 and rounded to ``dtype`` once, as
    it is stored; for float64 the casts are no-ops."""
    p_t = np.ascontiguousarray(probs.T)
    q_t = np.subtract(1.0, p_t, out=np.empty(p_t.shape, dtype))
    p_t, rates, off = (a.astype(dtype, copy=False) for a in (p_t, rates, off))
    shape = (rates.shape[1], probs.shape[0])
    term, other = np.empty(shape, dtype), np.empty(shape, dtype)
    for j in range(rates.shape[0]):
        np.multiply(rates[j, :, None], p_t[j], out=term)
        np.multiply(off[j, :, None], q_t[j], out=other)
        term += other
        yield term


def _posterior_block(rates, off, probs, out) -> None:
    """Write the posteriors of the (b, M) ``probs`` rows into the C-contiguous
    (b, N) ``out``; the kernel of :func:`crf_posterior_batch`."""
    # 0.0 + x == x exactly and log never returns -0.0, so starting from zeros
    # changes no bit; with no attributes every row stays uniform.
    log_scores = np.zeros((rates.shape[1], probs.shape[0]))
    for term in _messages(rates, off, probs):
        log_scores += np.log(term, out=term)
    log_scores -= log_scores.max(axis=0)
    out[...] = np.exp(log_scores, out=log_scores).T
    out /= out.sum(axis=1, keepdims=True)


def crf_argmax_batch(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: np.ndarray,
    n_categories: int,
) -> np.ndarray:
    """The most probable category of each attribute-probability row: equal,
    row by row, to ``np.argmax(crf_posterior_batch(...), axis=1)``.

    Each block multiplies the messages into a running (N, b) float32
    product, with no log, exp or normaliser. A row whose best product beats
    every other category's by the relative margin ``_ARGMAX_MARGIN * (M +
    1)``, and is at least ``_ARGMAX_FLOOR``, is decided by its product; the
    module docstring derives both from float32's error bound. The others
    (ties, near ties, underflow, no attributes, or every row when M exceeds
    ``_ARGMAX_MAX_ATTRIBUTES``) are scored in the same block by the
    posterior kernel on the same conditioned rates; its rows depend only on
    their own input rows, so each gets :func:`crf_posterior_batch`'s argmax.
    """
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 2)
    off = 1.0 - rates
    margin = 1.0 + _ARGMAX_MARGIN * (rates.shape[0] + 1)
    # Row 0 counts each row's categories within the margin of its best
    # product; row 1 sums their indices, which is the best one when it is
    # the only one. The sums are small integers, exact in any order.
    count_and_index = np.stack((np.ones(n_categories), np.arange(n_categories)))
    result = np.empty(probs.shape[0], dtype=np.intp)
    for start in range(0, probs.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        pending = np.arange(probs[block].shape[0])  # every row, unless the product decides
        if rates.shape[0] <= _ARGMAX_MAX_ATTRIBUTES:
            product = np.ones((n_categories, pending.size), np.float32)
            for term in _messages(rates, off, probs[block], np.float32):
                product *= term
            top = product.max(axis=0)
            product *= margin
            count, result[block] = count_and_index @ (product >= top)
            pending = np.flatnonzero((count != 1) | (top < _ARGMAX_FLOOR))
        if pending.size:
            scratch = np.empty((pending.size, n_categories))
            _posterior_block(rates, off, probs[block][pending], scratch)
            result[block][pending] = np.argmax(scratch, axis=1)
    return result


def crf_posterior(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: Sequence[float],
    n_categories: int,
) -> CategoryPosterior:
    """Category posterior for one example via the factorized message product."""
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 1)
    out = np.empty((1, n_categories))
    _posterior_block(rates, 1.0 - rates, probs[None, :], out)
    return CategoryPosterior(out[0])


def brute_force_posterior(
    matrix: AttributeCategoryMatrix | np.ndarray,
    attr_probs: Sequence[float],
    n_categories: int,
) -> CategoryPosterior:
    """Exact category marginal by explicit enumeration of all 2^M attribute states.

    Test oracle for :func:`crf_posterior`; it never uses the factorized message
    product. Refuses M > 20 for feasibility.
    """
    rates, probs = _conditioned(matrix, attr_probs, n_categories, 1)
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
