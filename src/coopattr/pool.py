"""Core domain types and labeled/unlabeled/test pool bookkeeping.

All types here are immutable values; operations return new states instead of
mutating, so they can be shared freely between concurrently running agents.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, StateError

#: Sentinel ``true_category`` for examples drawn from outside the target
#: categories. Distractors are indistinguishable to the learner but count as
#: incorrect when pool purity is measured.
DISTRACTOR = -1

#: (category, attribute bits) recorded when an example enters the labeled pool.
Assignment = tuple[int, tuple[int, ...]]


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Example:
    """One data point: a feature vector plus optional true and assigned labels."""

    id: int
    features: np.ndarray
    true_category: int | None = None
    true_attributes: np.ndarray | None = None
    assigned_category: int | None = None
    assigned_attributes: np.ndarray | None = None

    def __post_init__(self):
        feats = _frozen_array(self.features)
        if feats.ndim != 1 or feats.size == 0:
            raise ConfigurationError("features must be a non-empty 1-D vector")
        object.__setattr__(self, "features", feats)
        if self.true_attributes is not None:
            object.__setattr__(
                self, "true_attributes", _frozen_array(self.true_attributes, np.int8)
            )
        if (self.assigned_category is None) != (self.assigned_attributes is None):
            raise ConfigurationError(
                "assigned_category and assigned_attributes must be set together"
            )
        if self.assigned_attributes is not None:
            object.__setattr__(
                self,
                "assigned_attributes",
                _frozen_array(self.assigned_attributes, np.int8),
            )


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

    This is the only payload agents exchange with each other.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ConfigurationError("matrix must be a non-empty 2-D array")
        if not np.all(np.isfinite(values)) or values.min() < 0.0 or values.max() > 1.0:
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

    def column(self, category: int) -> np.ndarray:
        """Attribute presence rates for one category."""
        if not 0 <= category < self.n_categories:
            raise ConfigurationError(f"category {category} out of range")
        return self.values[:, category]

    def __eq__(self, other) -> bool:
        return isinstance(other, AttributeCategoryMatrix) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True)
class PoolState:
    """Id sets for the three splits plus the assignment record for labeled examples.

    ``seed_ids`` are the initially labeled examples; they are protected from
    pruning so human-verified ground truth is never lost. ``assignments`` maps
    every labeled example to the (category, attribute bits) it was annotated
    with; seeds get their ground truth at setup, other examples get predicted
    labels at transfer time.
    """

    labeled: frozenset[int]
    unlabeled: frozenset[int]
    test: frozenset[int]
    seed_ids: frozenset[int] = frozenset()
    assignments: Mapping[int, Assignment] = field(default_factory=dict)

    def __post_init__(self):
        if self.labeled & self.unlabeled or self.labeled & self.test or self.unlabeled & self.test:
            raise ConfigurationError("labeled, unlabeled, and test sets must be disjoint")
        if not self.seed_ids <= self.labeled:
            raise ConfigurationError("seed ids must stay in the labeled set")
        if not set(self.assignments) <= self.labeled:
            raise ConfigurationError("assignments may only cover labeled examples")

    @property
    def size(self) -> int:
        return len(self.labeled) + len(self.unlabeled) + len(self.test)


def new_pool_state(
    labeled_ids: Iterable[int],
    unlabeled_ids: Iterable[int],
    test_ids: Iterable[int],
    assignments: Mapping[int, tuple[int, Sequence[int]]] | None = None,
) -> PoolState:
    """Build the initial pool; the initially labeled ids become protected seeds."""
    labeled = frozenset(int(i) for i in labeled_ids)
    unlabeled = frozenset(int(i) for i in unlabeled_ids)
    test = frozenset(int(i) for i in test_ids)
    fixed: dict[int, Assignment] = {}
    if assignments:
        for ex_id, (category, attributes) in assignments.items():
            fixed[int(ex_id)] = (int(category), tuple(int(b) for b in attributes))
    return PoolState(
        labeled=labeled,
        unlabeled=unlabeled,
        test=test,
        seed_ids=labeled,
        assignments=fixed,
    )


def move_to_labeled(
    pool: PoolState, moves: Iterable[tuple[int, int, Sequence[int]]]
) -> PoolState:
    """Move unlabeled examples into the labeled pool with their predicted labels.

    ``moves`` holds (example_id, category, attribute bits) triples; the whole
    batch becomes one new state. An empty batch returns ``pool`` itself.
    """
    added: dict[int, Assignment] = {}
    for example_id, category, attributes in moves:
        example_id = int(example_id)
        if example_id not in pool.unlabeled:
            raise StateError(f"example {example_id} is not in the unlabeled set")
        if example_id in added:
            raise StateError(f"example {example_id} is moved twice in one batch")
        bits = tuple(int(b) for b in attributes)
        if any(b not in (0, 1) for b in bits):
            raise ConfigurationError("attribute labels must be binary")
        added[example_id] = (int(category), bits)
    if not added:
        return pool
    return PoolState(
        labeled=pool.labeled.union(added),
        unlabeled=pool.unlabeled.difference(added),
        test=pool.test,
        seed_ids=pool.seed_ids,
        assignments={**pool.assignments, **added},
    )


def prune_from_labeled(pool: PoolState, example_ids: Iterable[int]) -> PoolState:
    """Return low-confidence examples to the unlabeled pool, clearing their labels.

    Seed examples cannot be pruned.
    """
    ids = frozenset(int(i) for i in example_ids)
    if not ids:
        return pool
    if not ids <= pool.labeled:
        missing = sorted(ids - pool.labeled)
        raise StateError(f"cannot prune ids not in the labeled set: {missing}")
    protected = ids & pool.seed_ids
    if protected:
        raise StateError(f"cannot prune seed examples: {sorted(protected)}")
    assignments = {k: v for k, v in pool.assignments.items() if k not in ids}
    return PoolState(
        labeled=pool.labeled - ids,
        unlabeled=pool.unlabeled | ids,
        test=pool.test,
        seed_ids=pool.seed_ids,
        assignments=assignments,
    )
