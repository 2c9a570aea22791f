"""Entropy ranking and the per-iteration transfer/prune selection rules.

Candidates arrive as arrays: one id per row and one ``(n, k)`` matrix of
combined category posteriors. They are ranked by the entropy of their row:
lowest-entropy unlabeled examples are transferred (most confident), and
highest-entropy labeled examples are pruned (least confident). Each category
group is ranked with one ``np.lexsort`` on (category, entropy, id), so ties
break toward the lower example id and runs are reproducible.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ConfigurationError
from .pool import AttributeCategoryMatrix


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
        h = -np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def _first_per_category(ids, categories, keys, count: int) -> np.ndarray:
    """Row indices of the ``count`` smallest (key, id) rows of each category.

    Rows come out by ascending category, then key, then id.
    """
    order = np.lexsort((ids, keys, categories))
    ranked = categories[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    group_start = np.repeat(starts, np.diff(np.r_[starts, ranked.size]))
    return order[np.arange(ranked.size) - group_start < count]


def _rows(ids, posteriors) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(ids, dtype=np.int64)
    probs = np.asarray(posteriors, dtype=float)
    if ids.ndim != 1 or probs.ndim != 2 or probs.shape[0] != ids.size:
        raise ConfigurationError("need one posterior row per candidate id")
    return ids, probs


def select_transfers(ids, posteriors, per_category_count: int) -> list[tuple[int, int]]:
    """Pick the most confident unlabeled candidates per predicted category.

    ``posteriors`` holds one combined posterior row per id. Candidates are
    grouped by the row argmax; within each group the ``per_category_count``
    lowest-entropy ids win (fewer if the group is smaller). Returns
    (example_id, predicted_category) pairs by ascending category.
    """
    if per_category_count < 1:
        raise ConfigurationError("per_category_count must be at least 1")
    if len(ids) == 0:
        return []
    ids, probs = _rows(ids, posteriors)
    categories = np.argmax(probs, axis=1)
    keep = _first_per_category(ids, categories, entropy(probs), per_category_count)
    return list(zip(ids[keep].tolist(), categories[keep].tolist()))


def derive_attribute_labels(matrix: AttributeCategoryMatrix, categories) -> np.ndarray:
    """One int8 row of attribute labels per category: 1 iff the rate exceeds 0.5.

    A scalar category gives a single row. The threshold is strict, so a rate
    of exactly 0.5 yields 0.
    """
    categories = np.asarray(categories, dtype=np.int64)
    if categories.size and not 0 <= categories.min() <= categories.max() < matrix.n_categories:
        raise ConfigurationError(f"category out of range for {matrix.n_categories} categories")
    return (matrix.values[:, categories].T > 0.5).astype(np.int8)


def select_prunes(
    ids,
    categories,
    posteriors,
    per_category_count: int,
    protected_ids: Iterable[int] = (),
) -> list[int]:
    """Pick the least confident labeled examples per assigned category.

    Row ``i`` of ``posteriors`` is the combined posterior of ``ids[i]``,
    whose assigned category is ``categories[i]``. Protected (seed) ids are
    never selected. Within each category the ``per_category_count``
    highest-entropy ids are returned, by ascending category.
    """
    if per_category_count < 1:
        raise ConfigurationError("per_category_count must be at least 1")
    if len(ids) == 0:
        return []
    ids, probs = _rows(ids, posteriors)
    categories = np.asarray(categories, dtype=np.int64)
    if categories.shape != ids.shape:
        raise ConfigurationError("need one assigned category per candidate id")
    protected = np.fromiter((int(i) for i in protected_ids), dtype=np.int64)
    open_rows = ~np.isin(ids, protected)
    ids, categories, probs = ids[open_rows], categories[open_rows], probs[open_rows]
    keep = _first_per_category(ids, categories, -entropy(probs), per_category_count)
    return ids[keep].tolist()
