"""Core domain types and labeled/unlabeled/test pool bookkeeping.

All types here are immutable values; operations return new states instead of
mutating, so they can be shared freely between concurrently running agents.
A pool is a set of per-row arrays over one domain's ascending example ids.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, StateError

#: Sentinel ``true_category`` for examples drawn from outside the target
#: categories. Distractors are indistinguishable to the learner but count as
#: incorrect when pool purity is measured.
DISTRACTOR = -1

#: Split codes, one per pool row.
LABELED, UNLABELED, TEST = 0, 1, 2

#: ``PoolState.category`` of a row that carries no assigned label.
UNASSIGNED = -1

#: (category, attribute bits) recorded when an example enters the labeled pool.
Assignment = tuple[int, tuple[int, ...]]


def _frozen_array(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as ``dtype``; copies only to convert."""
    out = np.asarray(values, dtype=dtype).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class CategoryPosterior:
    """A normalized distribution over the N categories for one example."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ConfigurationError("posterior must be a non-empty 1-D vector")
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
            raise ConfigurationError("posterior entries must lie in [0, 1]")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ConfigurationError("posterior entries must sum to 1 within 1e-9")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other) -> bool:
        return isinstance(other, CategoryPosterior) and np.array_equal(
            self.probs, other.probs
        )


@dataclass(frozen=True, eq=False)
class AttributeCategoryMatrix:
    """M x N table where entry (j, i) is the presence rate of attribute j in category i.

    This is the only payload agents exchange with each other. M may be 0: a
    table without attributes carries no evidence about the category.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ConfigurationError("matrix must be a 2-D array with at least one category")
        if not ((values >= 0.0) & (values <= 1.0)).all():
            raise ConfigurationError("matrix entries must lie in [0, 1]")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n_attributes(self) -> int:
        return self.values.shape[0]

    @property
    def n_categories(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, AttributeCategoryMatrix) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True, eq=False)
class PoolState:
    """Per-row pool arrays over one domain's example ids.

    Row ``r`` describes example ``ids[r]``; the ids ascend, so the rows a
    mask selects come out in id order. ``split`` holds each row's split code
    (LABELED, UNLABELED or TEST). ``category`` and ``bits`` hold the
    (category, attribute bits) a labeled row was annotated with: seeds get
    their ground truth at setup, other examples get predicted labels at
    transfer time. Unannotated rows hold UNASSIGNED and zero bits. ``seed``
    marks the initially labeled rows; they are protected from pruning so
    human-verified ground truth is never lost.

    The arrays are read-only; operations return new states. ``labeled`` and
    ``assignments`` are read-only id-keyed views, derived on first access and
    then kept, for callers outside the library that compare against
    ground truth by id; the library itself reads the arrays.
    """

    ids: np.ndarray
    split: np.ndarray
    category: np.ndarray
    bits: np.ndarray
    seed: np.ndarray

    def __post_init__(self):
        for name, dtype in (("ids", np.int64), ("split", np.int8), ("category", np.int64),
                            ("bits", np.int8), ("seed", bool)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        ids, split, category = self.ids, self.split, self.category
        if ids.ndim != 1 or (np.diff(ids) <= 0).any():
            raise ConfigurationError("pool ids must be a 1-D ascending array of distinct ids")
        n = ids.size
        if (split.shape != (n,) or category.shape != (n,) or self.seed.shape != (n,)
                or self.bits.ndim != 2 or self.bits.shape[0] != n):
            raise ConfigurationError("every pool array needs one row per id")
        if n and not LABELED <= split.min() <= split.max() <= TEST:
            raise ConfigurationError("split codes must be LABELED, UNLABELED or TEST")
        labeled = split == LABELED
        if (self.seed & ~labeled).any():
            raise ConfigurationError("seed ids must stay in the labeled set")
        if ((category != UNASSIGNED) & ~labeled).any():
            raise ConfigurationError("assignments may only cover labeled examples")

    @cached_property
    def labeled(self) -> frozenset[int]:
        return frozenset(self.ids[self.split == LABELED].tolist())

    @cached_property
    def assignments(self) -> Mapping[int, Assignment]:
        """Every annotated row's id mapped to its (category, attribute bits)."""
        rows = np.flatnonzero(self.category != UNASSIGNED)
        return MappingProxyType({
            ex_id: (category, tuple(bits))
            for ex_id, category, bits in zip(
                self.ids[rows].tolist(), self.category[rows].tolist(), self.bits[rows].tolist()
            )
        })


def _id_array(ids: Iterable[int]) -> np.ndarray:
    # A set, not np.unique: np.unique imports numpy.ma on first use.
    return np.array(sorted(set(map(int, ids))), dtype=np.int64)


def _rows(ids: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row of each wanted id in the ascending ``ids``, and whether it is there."""
    if ids.size == 0:
        return np.zeros(wanted.size, dtype=np.intp), np.zeros(wanted.size, dtype=bool)
    rows = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
    return rows, ids[rows] == wanted


def move_to_labeled(pool: PoolState, ids, categories, bits) -> PoolState:
    """Move unlabeled examples into the labeled pool with their predicted labels.

    Example ``ids[k]`` gets category ``categories[k]`` and attribute bits
    ``bits[k]``; ``bits`` broadcasts to ``(len(ids), pool width)``, so 0
    records no attribute labels. The whole batch becomes one new state. An
    empty batch returns ``pool`` itself.
    """
    ids = np.asarray(ids, dtype=np.int64)
    categories = np.asarray(categories, dtype=np.int64)
    if ids.ndim != 1 or categories.shape != ids.shape:
        raise ConfigurationError("need one category per moved id")
    if not ids.size:
        return pool
    rows, found = _rows(pool.ids, ids)
    open_rows = found & (pool.split[rows] == UNLABELED)
    if not open_rows.all():
        raise StateError(f"example {ids[~open_rows][0]} is not in the unlabeled set")
    if _id_array(ids).size < ids.size:
        raise StateError(f"an example is moved twice in one batch: {ids.tolist()}")
    if (categories < 0).any():
        raise ConfigurationError("assigned categories must be non-negative")
    width, bits = pool.bits.shape[1], np.asarray(bits)
    if bits.ndim and bits.shape[-1] != width:
        raise ConfigurationError(f"attribute labels need {width} bits, got {bits.shape[-1]}")
    try:
        labels = np.broadcast_to(bits, (ids.size, width))
    except ValueError:
        raise ConfigurationError(f"need one bit row per moved id, got {bits.shape}") from None
    if ((labels != 0) & (labels != 1)).any():
        raise ConfigurationError("attribute labels must be binary")
    split, category, new_bits = pool.split.copy(), pool.category.copy(), pool.bits.copy()
    split[rows], category[rows], new_bits[rows] = LABELED, categories, labels
    return PoolState(pool.ids, split, category, new_bits, pool.seed)


def prune_from_labeled(pool: PoolState, example_ids: Iterable[int]) -> PoolState:
    """Return low-confidence examples to the unlabeled pool, clearing their labels.

    Seed examples cannot be pruned.
    """
    ids = _id_array(example_ids)
    if not ids.size:
        return pool
    rows, found = _rows(pool.ids, ids)
    labeled = found & (pool.split[rows] == LABELED)
    if not labeled.all():
        raise StateError(f"cannot prune ids not in the labeled set: {ids[~labeled].tolist()}")
    protected = pool.seed[rows]
    if protected.any():
        raise StateError(f"cannot prune seed examples: {ids[protected].tolist()}")
    split, category, bits = pool.split.copy(), pool.category.copy(), pool.bits.copy()
    split[rows], category[rows], bits[rows] = UNLABELED, UNASSIGNED, 0
    return PoolState(pool.ids, split, category, bits, pool.seed)
