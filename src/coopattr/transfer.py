"""Entropy ranking and the per-iteration transfer/prune selection rules.

Candidates arrive as arrays: one id per row and one ``(n, k)`` matrix of
combined category posteriors. They are ranked by the entropy of their row:
lowest-entropy unlabeled examples are transferred (most confident), and
highest-entropy labeled examples are pruned (least confident). Each category
group's rows at or inside its cut are ranked with one ``np.lexsort`` on
(entropy, id), so ties break toward the lower example id and runs are
reproducible.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .pool import AttributeCategoryMatrix, _check_int, _int_array


def entropy(posterior):
    """Shannon entropy in nats over the last axis, with 0 * log 0 taken as 0.

    A 1-D posterior gives a float, an ``(n, k)`` matrix one entropy per row.
    On a strictly positive row the result is bit-identical to summing only
    the positive terms. A row with exact zeros can differ from that form in
    the last bit, because the zero terms stay in the pairwise sum and change
    its grouping; the harness never scores such rows, since every posterior
    it ranks averages in the clamped, strictly positive feature posterior.
    """
    p = np.ascontiguousarray(posterior, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(p)
        terms *= p
    np.copyto(terms, 0.0, where=~(p > 0.0))
    h = -terms.sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def _first_per_category(ids, categories, keys, count: int) -> np.ndarray:
    """Row indices of the ``count`` smallest (key, id) rows of each category.

    Rows come out by ascending category, then key, then id. Only the rows at
    or inside a category's cut, its ``count``-th smallest key, are sorted:
    any other row ranks after at least ``count`` of them. A NaN key is never
    inside a finite cut and sorts last, as in one sort of the whole group.
    """
    low = categories.min(initial=0)
    picks = [np.empty(0, dtype=np.intp)]
    for category in np.flatnonzero(np.bincount(categories - low)) + low:
        rows = np.flatnonzero(categories == category)
        if rows.size > count:
            group = keys[rows]
            cut = np.partition(group, count - 1)[count - 1]
            rows = rows[~(group > cut)]
        order = np.lexsort((ids[rows], keys[rows]))
        picks.append(rows[order[:count]])
    return np.concatenate(picks)


def _rows(ids, posteriors) -> tuple[np.ndarray, np.ndarray]:
    ids = _int_array(ids, "candidate ids")
    probs = np.asarray(posteriors, dtype=float)
    if ids.ndim != 1 or probs.ndim != 2 or probs.shape[0] != ids.size:
        raise ConfigurationError("need one posterior row per candidate id")
    return ids, probs


def select_transfers(ids, posteriors, per_category_count: int) -> np.ndarray:
    """Pick the most confident unlabeled candidates per predicted category.

    ``posteriors`` holds one combined posterior row per id. Candidates are
    grouped by the row argmax; within each group the ``per_category_count``
    lowest-entropy ids win (fewer if the group is smaller). Returns one
    int64 (example_id, predicted_category) row per pick, by ascending category.
    """
    _check_int(per_category_count, "per_category_count", 1)
    ids, probs = _rows(ids, posteriors)
    categories = np.argmax(probs, axis=1)
    keep = _first_per_category(ids, categories, entropy(probs), per_category_count)
    return np.stack((ids[keep], categories[keep]), axis=1)


def derive_attribute_labels(matrix: AttributeCategoryMatrix, categories) -> np.ndarray:
    """One int8 row of attribute labels per category: 1 iff the rate exceeds 0.5.

    A scalar category gives a single row. The threshold is strict, so a rate
    of exactly 0.5 yields 0.
    """
    categories = _int_array(categories, "categories")
    if categories.size and not 0 <= categories.min() <= categories.max() < matrix.n_categories:
        raise ConfigurationError(f"category out of range for {matrix.n_categories} categories")
    return (matrix.values[:, categories].T > 0.5).astype(np.int8)


def select_prunes(ids, categories, posteriors, per_category_count: int) -> np.ndarray:
    """Pick the least confident labeled examples per assigned category.

    Row ``i`` of ``posteriors`` is the combined posterior of ``ids[i]``,
    whose assigned category is ``categories[i]``; the caller leaves out rows
    that may not be pruned (seeds). Within each category the
    ``per_category_count`` highest-entropy ids are returned, by ascending
    category, as an int64 array.
    """
    _check_int(per_category_count, "per_category_count", 1)
    ids, probs = _rows(ids, posteriors)
    categories = _int_array(categories, "categories")
    if categories.shape != ids.shape:
        raise ConfigurationError("need one assigned category per candidate id")
    keep = _first_per_category(ids, categories, -entropy(probs), per_category_count)
    return ids[keep]
