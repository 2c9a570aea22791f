from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattr import (
    DISTRACTOR,
    AgentDomain,
    AttributeCategoryMatrix,
    CategoryPosterior,
    ConfigurationError,
    PoolState,
    StateError,
    move_to_labeled,
    prune_from_labeled,
)
from coopattr.pool import LABELED, TEST, UNASSIGNED, UNLABELED


def _pool(labeled, unlabeled, test, width=2, seeds=None):
    """A pool over the given ids whose labeled ids are seeds; ``seeds`` maps
    a labeled id to its (category, bits), the others stay unassigned."""
    seeds = seeds or {}
    ids = sorted({*labeled, *unlabeled, *test})
    split = [LABELED if i in labeled else UNLABELED if i in unlabeled else TEST for i in ids]
    category = [seeds[i][0] if i in seeds else UNASSIGNED for i in ids]
    bits = np.zeros((len(ids), width), dtype=np.int8)
    for row, i in enumerate(ids):
        if i in seeds:
            bits[row] = seeds[i][1]
    return PoolState(ids, split, category, bits, [i in labeled for i in ids])


def _ids(pool, code):
    return set(pool.ids[pool.split == code].tolist())


def test_pool_state_holds_given_splits():
    pool = _pool({1, 2}, {3}, {4})
    assert pool.ids.tolist() == [1, 2, 3, 4]
    assert pool.split.tolist() == [LABELED, LABELED, UNLABELED, TEST]
    assert pool.labeled == {1, 2}
    assert pool.ids[pool.seed].tolist() == [1, 2]


def test_pool_state_empty():
    pool = PoolState([], [], [], np.zeros((0, 0)), [])
    assert pool.ids.size == 0 and pool.labeled == set()
    assert move_to_labeled(pool, [], [], 0) is pool


def test_pool_state_rejects_repeated_or_unsorted_id():
    split, category, bits = [LABELED, UNLABELED], [UNASSIGNED] * 2, np.zeros((2, 1))
    seed = [True, False]
    with pytest.raises(ConfigurationError):
        PoolState([1, 1], split, category, bits, seed)
    with pytest.raises(ConfigurationError):
        PoolState([2, 1], split, category, bits, seed)
    with pytest.raises(ConfigurationError):  # a seed outside the labeled set
        PoolState([1, 2], split, category, bits, [False, True])


def test_move_to_labeled_transfers_id():
    pool = _pool({1}, {3, 5}, {4}, width=3)
    moved = move_to_labeled(pool, [3], [2], [[1, 0, 1]])
    assert 3 in moved.labeled and 3 not in _ids(moved, UNLABELED)
    assert moved.assignments[3] == (2, (1, 0, 1))
    assert moved.ids[moved.seed].tolist() == [1]


def test_move_to_labeled_rejects_already_labeled():
    pool = _pool({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [1], [0], 0)


def test_move_to_labeled_rejects_test_example():
    pool = _pool({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [4], [0], 0)


def test_move_to_labeled_moves_a_batch_in_one_state():
    pool = _pool({1}, {3, 5, 6}, {4}, width=1)
    moved = move_to_labeled(pool, np.array([5, 3]), np.array([0, 1]), np.array([[1], [0]]))
    assert moved.labeled == {1, 3, 5} and _ids(moved, UNLABELED) == {6}
    assert isinstance(moved.labeled, frozenset)
    assert moved.assignments[5] == (0, (1,)) and moved.assignments[3] == (1, (0,))
    assert pool.labeled == {1} and 3 not in pool.assignments  # the input is unchanged


def test_move_to_labeled_empty_batch_is_identity():
    pool = _pool({1}, {3}, {4})
    assert move_to_labeled(pool, [], [], 0) is pool


def test_move_to_labeled_rejects_duplicate_in_batch():
    pool = _pool({1}, {3, 5}, {4})
    with pytest.raises(StateError, match="moved twice"):
        move_to_labeled(pool, [3, 5, 3], [0, 0, 1], [1, 0])


def test_move_to_labeled_rejects_unknown_id():
    pool = _pool({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [3, 99], [0, 0], [1, 0])


def test_move_to_labeled_rejects_non_binary_bits():
    pool = _pool({1}, {3}, {4}, width=1)
    with pytest.raises(ConfigurationError):
        move_to_labeled(pool, [3], [0], [[2]])


@pytest.mark.parametrize(
    "ids, categories, bits",
    [
        ([3], [0], [[1, 0, 1]]),  # three bits for a two-bit pool
        ([3], [0], [[1]]),  # one bit for a two-bit pool, not broadcast
        ([3, 5], [0, 1], [[1, 0], [0, 1], [1, 1]]),  # three bit rows for two ids
        ([3], [0], ()),  # no bits where the pool has two
        ([3, 5], [0], 0),  # one category for two ids
        ([3], 0, 0),  # a scalar category
        ([[3, 5]], [[0, 1]], 0),  # ids not a 1-D array
        ([3], [-1], 0),  # negative category
    ],
)
def test_move_to_labeled_rejects_malformed_arrays(ids, categories, bits):
    pool = _pool({1}, {3, 5}, {4})
    with pytest.raises(ConfigurationError):
        move_to_labeled(pool, ids, categories, bits)


def test_prune_returns_to_unlabeled_and_clears_assignment():
    pool = _pool({1}, {3}, {4})
    pool = move_to_labeled(pool, [3], [2], [1, 0])
    pruned = prune_from_labeled(pool, {3})
    assert 3 in _ids(pruned, UNLABELED) and 3 not in pruned.labeled
    assert 3 not in pruned.assignments


def test_prune_empty_is_identity():
    pool = _pool({1}, {3}, {4})
    assert prune_from_labeled(pool, set()) is pool


def test_prune_rejects_seed():
    pool = _pool({1}, {3}, {4})
    with pytest.raises(StateError):
        prune_from_labeled(pool, {1})


def test_prune_rejects_unknown_id():
    pool = _pool({1}, {3}, {4})
    with pytest.raises(StateError):
        prune_from_labeled(pool, {99})


def test_move_then_prune_restores_membership():
    pool = _pool({1}, {3, 7}, {4}, width=1)
    after = prune_from_labeled(move_to_labeled(pool, [7], [1], [1]), {7})
    for name in ("ids", "split", "category", "bits", "seed"):
        assert np.array_equal(getattr(after, name), getattr(pool, name))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=40))
def test_random_op_sequences_conserve_totals(ops):
    pool = _pool({0, 1}, set(range(2, 8)), {8, 9})
    for is_move, ex_id in ops:
        if is_move and ex_id in _ids(pool, UNLABELED):
            pool = move_to_labeled(pool, [ex_id], [0], [1, 0])
        elif not is_move and ex_id in pool.labeled and ex_id not in (0, 1):
            pool = prune_from_labeled(pool, {ex_id})
    assert pool.ids.tolist() == list(range(10))
    assert _ids(pool, TEST) == {8, 9}
    assert (pool.split[pool.seed] == LABELED).all() and pool.seed.sum() == 2


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.lists(st.integers(0, 9), max_size=4), st.integers(0, 3)),
        max_size=30,
    )
)
def test_array_pool_matches_set_model(ops):
    # The id-set bookkeeping the pool arrays replaced, as the reference.
    seeds = {0: (0, (1, 0)), 1: (1, (0, 1))}
    pool = _pool({0, 1}, set(range(2, 8)), {8, 9}, seeds=seeds)
    labeled, unlabeled, assignments = {0, 1}, set(range(2, 8)), dict(seeds)
    for is_move, ids, category in ops:
        ids = list(dict.fromkeys(ids))
        if is_move:
            ids = [i for i in ids if i in unlabeled]
            bits = np.array([[i % 2, 1] for i in ids], dtype=np.int8).reshape(-1, 2)
            pool = move_to_labeled(pool, ids, [category] * len(ids), bits)
            labeled |= set(ids)
            unlabeled -= set(ids)
            assignments.update({i: (category, (i % 2, 1)) for i in ids})
        else:
            ids = [i for i in ids if i in labeled and i not in seeds]
            pool = prune_from_labeled(pool, ids)
            labeled -= set(ids)
            unlabeled |= set(ids)
            for i in ids:
                del assignments[i]
        assert pool.labeled == labeled and _ids(pool, UNLABELED) == unlabeled
        assert _ids(pool, TEST) == {8, 9} and set(pool.ids[pool.seed].tolist()) == {0, 1}
        assert pool.assignments == assignments


def test_id_set_views_are_built_once_and_read_only():
    pool = _pool({1}, {3}, {4}, width=1, seeds={1: (0, [1])})
    for name in ("labeled", "assignments"):
        assert getattr(pool, name) is getattr(pool, name)
    assert pool.assignments == {1: (0, (1,))}
    with pytest.raises(TypeError):
        pool.assignments[3] = (0, (1,))


def test_example_requires_paired_assignment_fields():
    # An assignment pairs a category with one bit per attribute of the pool.
    pool = _pool({1}, {3, 5}, {4}, seeds={1: (0, [1, 0])})
    with pytest.raises(ConfigurationError):
        move_to_labeled(pool, [3], [2], [[1]])
    with pytest.raises(ConfigurationError):
        move_to_labeled(pool, [3], [-1], [[1, 0]])
    with pytest.raises(ConfigurationError):  # an assignment on an unlabeled row
        PoolState(pool.ids, pool.split, [0, 0, 1, UNASSIGNED], pool.bits, pool.seed)
    moved = move_to_labeled(pool, [3], [2], [[0, 1]])
    moved = move_to_labeled(moved, [5], [1], 0)
    assert moved.assignments == {1: (0, (1, 0)), 3: (2, (0, 1)), 5: (1, (0, 0))}


def test_example_features_are_readonly():
    domain = AgentDomain(
        0, [1, 2], [[1.0], [2.0]], [0, DISTRACTOR], [[1], [0]], _pool({1}, {2}, set(), width=1)
    )
    pool = domain.pool
    for array in (domain.ids, domain.features, domain.true_category, domain.true_bits,
                  pool.ids, pool.split, pool.category, pool.bits, pool.seed):
        with pytest.raises(ValueError):
            array[0] = 0


def test_category_posterior_validation():
    CategoryPosterior([0.5, 0.5])
    CategoryPosterior([1.0, 0.0])
    with pytest.raises(ConfigurationError):
        CategoryPosterior([0.6, 0.6])
    with pytest.raises(ConfigurationError):
        CategoryPosterior([1.2, -0.2])


def test_attribute_category_matrix_validation():
    m = AttributeCategoryMatrix([[0.2, 0.8], [1.0, 0.0]])
    assert m.n_attributes == 2 and m.n_categories == 2
    assert AttributeCategoryMatrix(np.zeros((0, 3))).n_attributes == 0
    for values in ([[1.5]], [[np.nan]], [[-0.1]], np.zeros((2, 0)), [0.5]):
        with pytest.raises(ConfigurationError):
            AttributeCategoryMatrix(values)
