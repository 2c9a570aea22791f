from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopattr import (
    DISTRACTOR,
    AttributeCategoryMatrix,
    CategoryPosterior,
    ConfigurationError,
    Example,
    StateError,
    move_to_labeled,
    new_pool_state,
    prune_from_labeled,
)


def test_new_pool_state_holds_given_sets():
    pool = new_pool_state({1, 2}, {3}, {4})
    assert pool.labeled == {1, 2}
    assert pool.unlabeled == {3}
    assert pool.test == {4}
    assert pool.seed_ids == {1, 2}


def test_new_pool_state_empty():
    pool = new_pool_state(set(), set(), set())
    assert pool.size == 0


def test_new_pool_state_rejects_overlap():
    with pytest.raises(ConfigurationError):
        new_pool_state({1}, {1}, {2})
    with pytest.raises(ConfigurationError):
        new_pool_state({1}, {2}, {2})


def test_move_to_labeled_transfers_id():
    pool = new_pool_state({1}, {3, 5}, {4})
    moved = move_to_labeled(pool, [(3, 2, [1, 0, 1])])
    assert 3 in moved.labeled and 3 not in moved.unlabeled
    assert moved.assignments[3] == (2, (1, 0, 1))
    assert moved.seed_ids == {1}


def test_move_to_labeled_rejects_already_labeled():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [(1, 0, [0])])


def test_move_to_labeled_rejects_test_example():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [(4, 0, [0])])


def test_move_to_labeled_moves_a_batch_in_one_state():
    pool = new_pool_state({1}, {3, 5, 6}, {4})
    moved = move_to_labeled(pool, [(5, 0, [1]), (3, 1, [0])])
    assert moved.labeled == {1, 3, 5} and moved.unlabeled == {6}
    assert isinstance(moved.labeled, frozenset) and isinstance(moved.unlabeled, frozenset)
    assert moved.assignments[5] == (0, (1,)) and moved.assignments[3] == (1, (0,))
    assert pool.labeled == {1} and 3 not in pool.assignments  # the input is unchanged


def test_move_to_labeled_empty_batch_is_identity():
    pool = new_pool_state({1}, {3}, {4})
    assert move_to_labeled(pool, []) is pool


def test_move_to_labeled_rejects_duplicate_in_batch():
    pool = new_pool_state({1}, {3, 5}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [(3, 0, [1]), (5, 0, [1]), (3, 1, [0])])


def test_move_to_labeled_rejects_unknown_id():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(StateError):
        move_to_labeled(pool, [(3, 0, [1]), (99, 0, [1])])


def test_move_to_labeled_rejects_non_binary_bits():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(ConfigurationError):
        move_to_labeled(pool, [(3, 0, [2])])


def test_prune_returns_to_unlabeled_and_clears_assignment():
    pool = new_pool_state({1}, {3}, {4})
    pool = move_to_labeled(pool, [(3, 2, [1, 0])])
    pruned = prune_from_labeled(pool, {3})
    assert 3 in pruned.unlabeled and 3 not in pruned.labeled
    assert 3 not in pruned.assignments


def test_prune_empty_is_identity():
    pool = new_pool_state({1}, {3}, {4})
    assert prune_from_labeled(pool, set()) is pool


def test_prune_rejects_seed():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(StateError):
        prune_from_labeled(pool, {1})


def test_prune_rejects_unknown_id():
    pool = new_pool_state({1}, {3}, {4})
    with pytest.raises(StateError):
        prune_from_labeled(pool, {99})


def test_move_then_prune_restores_membership():
    pool = new_pool_state({1}, {3, 7}, {4})
    after = prune_from_labeled(move_to_labeled(pool, [(7, 1, [1])]), {7})
    assert after.labeled == pool.labeled
    assert after.unlabeled == pool.unlabeled
    assert after.test == pool.test


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 9)), max_size=40))
def test_random_op_sequences_conserve_totals(ops):
    pool = new_pool_state({0, 1}, set(range(2, 8)), {8, 9})
    total = pool.size
    for is_move, ex_id in ops:
        if is_move and ex_id in pool.unlabeled:
            pool = move_to_labeled(pool, [(ex_id, 0, [1, 0])])
        elif not is_move and ex_id in pool.labeled and ex_id not in pool.seed_ids:
            pool = prune_from_labeled(pool, {ex_id})
    assert pool.size == total
    assert pool.labeled.isdisjoint(pool.unlabeled)
    assert pool.labeled.isdisjoint(pool.test)
    assert pool.unlabeled.isdisjoint(pool.test)
    assert pool.test == {8, 9}
    assert pool.seed_ids <= pool.labeled


def test_example_requires_paired_assignment_fields():
    with pytest.raises(ConfigurationError):
        Example(id=1, features=[1.0], assigned_category=2)
    ex = Example(id=1, features=[1.0], assigned_category=2, assigned_attributes=[1, 0])
    assert ex.assigned_attributes.tolist() == [1, 0]


def test_example_features_are_readonly():
    ex = Example(id=1, features=[1.0, 2.0], true_category=DISTRACTOR)
    with pytest.raises(ValueError):
        ex.features[0] = 5.0


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
    assert m.column(1).tolist() == [0.8, 0.0]
    with pytest.raises(ConfigurationError):
        AttributeCategoryMatrix([[1.5]])
    with pytest.raises(ConfigurationError):
        m.column(2)
