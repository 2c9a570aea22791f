from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattr import (
    AttributeCategoryMatrix,
    CategoryPosterior,
    ConfigurationError,
    derive_attribute_labels,
    entropy,
    select_prunes,
    select_transfers,
)


# The per-row implementations the array selection replaced, kept verbatim as
# the reference the property tests compare against.
def _probs(posterior) -> np.ndarray:
    if isinstance(posterior, CategoryPosterior):
        return posterior.probs
    return np.asarray(posterior, dtype=float)


def _reference_entropy(posterior) -> float:
    """Shannon entropy in nats, with 0 * log 0 taken as 0."""
    p = _probs(posterior)
    positive = p > 0.0
    return float(-(p[positive] * np.log(p[positive])).sum())


def _reference_select_transfers(candidates, per_category_count):
    if per_category_count < 1:
        raise ConfigurationError("per_category_count must be at least 1")
    groups: dict[int, list[tuple[float, int]]] = {}
    for example_id, posterior in candidates:
        p = _probs(posterior)
        category = int(np.argmax(p))
        groups.setdefault(category, []).append((_reference_entropy(p), int(example_id)))
    chosen: list[tuple[int, int]] = []
    for category in sorted(groups):
        ranked = sorted(groups[category])[:per_category_count]
        chosen.extend((example_id, category) for _, example_id in ranked)
    return chosen


def _reference_select_prunes(candidates, per_category_count, protected_ids=()):
    if per_category_count < 1:
        raise ConfigurationError("per_category_count must be at least 1")
    protected = frozenset(int(i) for i in protected_ids)
    groups: dict[int, list[tuple[float, int]]] = {}
    for example_id, category, posterior in candidates:
        example_id = int(example_id)
        if example_id in protected:
            continue
        groups.setdefault(int(category), []).append(
            (-_reference_entropy(_probs(posterior)), example_id)
        )
    chosen: list[int] = []
    for category in sorted(groups):
        ranked = sorted(groups[category])[:per_category_count]
        chosen.extend(example_id for _, example_id in ranked)
    return chosen


def _positive_rows(rng, n, k):
    raw = rng.uniform(1e-6, 1.0, (n, k))
    return raw / raw.sum(axis=1, keepdims=True)


@st.composite
def _candidate_sets(draw):
    """Positive posteriors with duplicated rows (ties), shuffled sparse ids,
    assigned categories and a protected subset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 12))
    n_distinct = draw(st.integers(1, 40))
    rows = _positive_rows(rng, n_distinct, k)
    rows = rows[rng.integers(0, n_distinct, draw(st.integers(1, 80)))]
    n = rows.shape[0]
    ids = rng.choice(10 * n + 10, size=n, replace=False)
    rng.shuffle(ids)
    categories = rng.integers(0, k, n)
    protected = ids[rng.random(n) < draw(st.floats(0.0, 1.0))]
    count = draw(st.integers(1, 6))
    return ids, rows, categories, protected, count


@settings(max_examples=300, deadline=None)
@given(_candidate_sets())
def test_array_selection_matches_per_row_reference(case):
    ids, rows, categories, protected, count = case
    assert select_transfers(ids, rows, count) == _reference_select_transfers(
        list(zip(ids, rows)), count
    )
    assert select_prunes(ids, categories, rows, count, protected) == _reference_select_prunes(
        list(zip(ids, categories, rows)), count, protected
    )


def test_row_entropy_is_bit_identical_to_per_row_form():
    rng = np.random.default_rng(7)
    for k in range(2, 34):
        rows = _positive_rows(rng, 2000, k)
        reference = np.array([_reference_entropy(row) for row in rows])
        assert np.array_equal(entropy(rows).view(np.int64), reference.view(np.int64))
        assert entropy(rows[0]) == reference[0]
        # Exact zeros stay in the row sum, so only the last bits may move.
        rows[:, ::2] = 0.0
        reference = np.array([_reference_entropy(row) for row in rows])
        np.testing.assert_allclose(entropy(rows), reference, rtol=4 * np.finfo(float).eps)


def test_entropy_reference_values():
    assert entropy(np.full(10, 0.1)) == pytest.approx(math.log(10), abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert isinstance(entropy([0.5, 0.5]), float)
    rows = entropy([[1.0, 0.0], [0.5, 0.5]])
    assert rows.shape == (2,)
    assert rows[0] == 0.0 and rows[1] == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_extremes_characterize_uniform_and_onehot():
    rng = np.random.default_rng(0)
    for _ in range(30):
        raw = rng.uniform(0.01, 1, 6)
        p = raw / raw.sum()
        assert 0.0 <= entropy(p) <= math.log(6) + 1e-12


def _binary(*ps):
    return np.array([[p, 1 - p] for p in ps])


def test_select_transfers_takes_lowest_entropy_per_category():
    # 11 has the lowest entropy, 13 the highest.
    assert select_transfers([11, 12, 13], _binary(0.95, 0.80, 0.55), 2) == [(11, 0), (12, 0)]


def test_select_transfers_empty_group_yields_nothing():
    chosen = select_transfers([1], _binary(0.9), 2)
    assert chosen == [(1, 0)]  # no candidate predicted category 1


def test_select_transfers_without_candidates_is_empty():
    # A long run drains the unlabeled pool.
    assert select_transfers([], np.empty((0, 3)), 2) == []


def test_select_transfers_tie_breaks_to_lower_id():
    assert select_transfers([20, 7, 15], _binary(0.8, 0.8, 0.8), 2) == [(7, 0), (15, 0)]


def test_select_transfers_no_duplicates_and_respects_count():
    rng = np.random.default_rng(1)
    rows = _positive_rows(rng, 60, 4)
    chosen = select_transfers(np.arange(60), rows, 3)
    ids = [ex_id for ex_id, _ in chosen]
    assert len(ids) == len(set(ids))
    per_cat = {}
    for _, cat in chosen:
        per_cat[cat] = per_cat.get(cat, 0) + 1
    assert all(v <= 3 for v in per_cat.values())
    assert select_transfers(np.arange(60), rows, 3) == chosen  # deterministic


def test_select_transfers_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        select_transfers([], np.empty((0, 2)), 0)


def test_select_transfers_rejects_mismatched_rows():
    with pytest.raises(ConfigurationError):
        select_transfers([1, 2], _binary(0.9), 1)


def test_derive_attribute_labels_strict_threshold():
    matrix = AttributeCategoryMatrix(np.array([[0.6], [0.4], [0.5]]))
    assert derive_attribute_labels(matrix, 0).tolist() == [1, 0, 0]


def test_derive_attribute_labels_saturated_columns():
    ones = AttributeCategoryMatrix(np.ones((3, 1)))
    zeros = AttributeCategoryMatrix(np.zeros((3, 1)))
    assert derive_attribute_labels(ones, 0).tolist() == [1, 1, 1]
    assert derive_attribute_labels(zeros, 0).tolist() == [0, 0, 0]


def test_derive_attribute_labels_rejects_bad_category():
    matrix = AttributeCategoryMatrix(np.full((2, 2), 0.5))
    for categories in (2, -1, [0, 2], [-1, 1]):
        with pytest.raises(ConfigurationError):
            derive_attribute_labels(matrix, categories)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5), st.integers(0, 12))
def test_derive_attribute_labels_matches_per_category_loop(seed, m, n, k):
    # Rates mix exact 0, 0.5 and 1 with uniform draws, so the strict threshold is hit.
    rng = np.random.default_rng(seed)
    rates = np.where(rng.random((m, n)) < 0.5, rng.choice([0.0, 0.5, 1.0], (m, n)),
                     rng.uniform(0, 1, (m, n)))
    matrix = AttributeCategoryMatrix(rates)
    categories = rng.integers(0, n, k)
    got = derive_attribute_labels(matrix, categories)
    expected = [(matrix.values[:, c] > 0.5).astype(np.int8) for c in categories.tolist()]
    assert got.dtype == np.int8 and got.shape == (k, m)
    assert np.array_equal(got, np.array(expected, dtype=np.int8).reshape(k, m))


def test_select_prunes_takes_highest_entropy_non_seeds():
    rows = _binary(0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.55, 0.51)
    chosen = select_prunes(np.arange(8), np.zeros(8, dtype=int), rows, 6, protected_ids=())
    assert sorted(chosen) == [2, 3, 4, 5, 6, 7]


def test_select_prunes_protects_seeds():
    assert select_prunes([1, 2], [0, 0], _binary(0.51, 0.52), 6, protected_ids={1, 2}) == []


def test_select_prunes_tie_breaks_to_lower_id():
    rows = _binary(0.6, 0.6, 0.6)
    assert select_prunes([9, 4, 6], [1, 1, 1], rows, 2, protected_ids=()) == [4, 6]
