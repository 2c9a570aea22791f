from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coopattr import (
    DISTRACTOR,
    AgentDomain,
    ConfigurationError,
    NoiseStudyConfig,
    SplitSizes,
    SyntheticWorld,
    SyntheticWorldConfig,
    calibrate_noise_std,
    contrast_ground_truth_matrix,
    estimate_matrix_from_labels,
    generate_noise_dataset,
    generate_world,
    good_attribute_mask,
)
from coopattr.pool import LABELED, TEST, UNASSIGNED, UNLABELED, PoolState
from coopattr.synthetic import _STREAM_CALIBRATION


def _world_config(**overrides):
    rng = np.random.default_rng(0)
    defaults = dict(
        n_categories=4,
        n_attributes=5,
        ground_truth_matrix=rng.uniform(0.05, 0.95, (5, 4)),
        examples_per_category=SplitSizes(labeled=3, unlabeled=6, test=4),
        n_distractors=7,
        feature_dims=(6, 5),
        feature_noise_stds=(0.3, 0.3),
        attribute_flip_rate=0.0,
        rng_seed=42,
    )
    defaults.update(overrides)
    return SyntheticWorldConfig(**defaults)


def _arrays(domain):
    pool = domain.pool
    return (domain.ids, domain.features, domain.true_category, domain.true_bits,
            pool.ids, pool.split, pool.category, pool.bits, pool.seed)


def _rows(domain, ids):
    return np.searchsorted(domain.ids, ids)


def _pool(ids, split):
    """An unannotated one-bit pool whose labeled rows are seeds."""
    split = np.array(split)
    return PoolState(ids, split, np.full(split.size, UNASSIGNED), np.zeros((split.size, 1)),
                     split == LABELED)


def test_same_seed_gives_identical_worlds():
    a = generate_world(_world_config())
    b = generate_world(_world_config())
    for da, db in zip(a.domains, b.domains):
        for xa, xb in zip(_arrays(da), _arrays(db)):
            assert xa.dtype == xb.dtype and np.array_equal(xa, xb)


def test_different_seed_changes_the_world():
    a = generate_world(_world_config())
    b = generate_world(_world_config(rng_seed=43))
    assert not np.array_equal(a.domains[0].features, b.domains[0].features)


def test_world_structure_sizes_and_disjointness():
    cfg = _world_config()
    world = generate_world(cfg)
    sizes = cfg.examples_per_category
    for agent, domain in enumerate(world.domains):
        split = domain.pool.split
        assert np.count_nonzero(split == LABELED) == 4 * sizes.labeled
        assert np.count_nonzero(split == TEST) == 4 * sizes.test
        expected_distractors = (cfg.n_distractors + 1) // 2 if agent == 0 else cfg.n_distractors // 2
        assert np.count_nonzero(split == UNLABELED) == 4 * sizes.unlabeled + expected_distractors
    ids0 = set(world.domains[0].ids.tolist())
    ids1 = set(world.domains[1].ids.tolist())
    assert ids0.isdisjoint(ids1)


def test_distractors_carry_sentinel_and_only_live_unlabeled():
    world = generate_world(_world_config())
    for agent, domain in enumerate(world.domains):
        distractor = domain.true_category == DISTRACTOR
        assert distractor.sum() == (4 if agent == 0 else 3)
        assert (domain.pool.split[distractor] == UNLABELED).all()


def test_seed_examples_are_annotated_with_truth():
    world = generate_world(_world_config())
    for domain in world.domains:
        pool = domain.pool
        assert np.array_equal(pool.seed, pool.split == LABELED) and pool.seed.sum() == 12
        assert np.array_equal(pool.category[pool.seed], domain.true_category[pool.seed])
        assert np.array_equal(pool.bits[pool.seed], domain.true_bits[pool.seed])
        assert not pool.bits[~pool.seed].any()
        for ex_id, (category, bits) in pool.assignments.items():
            row = _rows(domain, ex_id)
            assert category == domain.true_category[row]
            assert list(bits) == domain.true_bits[row].tolist()


def _test_rows(domain, array):
    return array[domain.pool.split == TEST]


def test_paired_test_examples_share_attribute_draws():
    d0, d1 = generate_world(_world_config()).domains
    assert _test_rows(d0, d0.true_category).shape == (16,)
    assert np.array_equal(_test_rows(d0, d0.true_category), _test_rows(d1, d1.true_category))
    assert np.array_equal(_test_rows(d0, d0.true_bits), _test_rows(d1, d1.true_bits))


def test_agent_embeddings_differ():
    world = generate_world(_world_config(feature_dims=(6, 6), feature_noise_stds=(0.0, 0.0)))
    d0, d1 = world.domains
    for f0, f1 in zip(_test_rows(d0, d0.features)[:5], _test_rows(d1, d1.features)[:5]):
        assert not np.allclose(f0, f1)


def _first_rows(domain, n):
    """``domain`` cut to its first ``n`` rows."""
    pool = domain.pool
    return AgentDomain(
        domain.agent_id, domain.ids[:n], domain.features[:n], domain.true_category[:n],
        domain.true_bits[:n],
        PoolState(pool.ids[:n], pool.split[:n], pool.category[:n], pool.bits[:n], pool.seed[:n]),
    )


def test_world_refuses_test_splits_that_do_not_pair_row_by_row():
    world = generate_world(_world_config())
    first, second = world.domains
    assert SyntheticWorld(world.config, (first, second)).domains == (first, second)
    shorter = _first_rows(second, second.ids.size - 1)
    true_category = second.true_category.copy()
    true_category[second.pool.split == TEST] = _test_rows(second, true_category)[::-1]
    reordered = AgentDomain(
        1, second.ids, second.features, true_category, second.true_bits, second.pool
    )
    for other in (shorter, reordered):
        with pytest.raises(ConfigurationError, match="pair row by row"):
            SyntheticWorld(world.config, (first, other))


def test_noiseless_world_with_certain_attributes_repeats_features():
    matrix = np.ones((3, 2))  # every category always has every attribute
    cfg = _world_config(
        n_categories=2,
        n_attributes=3,
        ground_truth_matrix=matrix,
        feature_noise_stds=(0.0, 0.0),
        attribute_flip_rate=0.0,
        n_distractors=0,
    )
    world = generate_world(cfg)
    domain = world.domains[0]
    assert (domain.true_bits == 1).all()
    for category in (0, 1):
        feats = domain.features[domain.true_category == category]
        assert len(feats) > 1 and (feats == feats[0]).all()


def test_flip_rate_zero_and_degenerate_rate_pin_attributes():
    matrix = np.zeros((2, 2))
    matrix[0, :] = 1.0
    cfg = _world_config(
        n_categories=2, n_attributes=2, ground_truth_matrix=matrix,
        attribute_flip_rate=0.0, n_distractors=0,
    )
    world = generate_world(cfg)
    for domain in world.domains:
        assert domain.true_bits.tolist() == [[1, 0]] * domain.ids.size


def test_estimate_matrix_recovers_generator_rates():
    cfg = _world_config(
        examples_per_category=SplitSizes(labeled=400, unlabeled=1, test=1),
        n_distractors=0,
        attribute_flip_rate=0.0,
    )
    world = generate_world(cfg)
    domain = world.domains[0]
    labeled = domain.pool.split == LABELED
    categories = domain.true_category[labeled]
    attributes = domain.true_bits[labeled]
    estimated = estimate_matrix_from_labels(categories, attributes, 4, 5)
    assert np.abs(estimated.values - cfg.ground_truth_matrix).max() <= 3 / np.sqrt(400)


def test_good_attribute_mask_partition():
    mask = good_attribute_mask(NoiseStudyConfig(n_attributes=6))
    assert mask.dtype == bool and mask.shape == (2, 6)
    assert np.array_equal(mask[1], ~mask[0])
    expected = [[True, True, True, False, False], [False, False, False, True, True]]
    assert np.array_equal(good_attribute_mask(NoiseStudyConfig(n_attributes=5)), expected)


def test_noise_dataset_zero_noise_predictions_equal_clamped_truth():
    cfg = NoiseStudyConfig(n_categories=2, n_attributes=4, labeled_count=4, test_count=6,
                           bad_noise_std=0.0)
    data = generate_noise_dataset(cfg)
    assert data.test_noise.shape == (2, 6, 4)
    predictions = data.predictions(cfg, 0.0)
    assert predictions.shape == (2, 6, 4)
    clamped = np.clip(data.test_attributes, 1e-6, 1 - 1e-6)
    assert np.allclose(predictions, clamped[None])


def test_noise_dataset_predictions_strictly_interior():
    cfg = NoiseStudyConfig(n_categories=2, n_attributes=3, labeled_count=4, test_count=50,
                           bad_noise_std=5.0)
    preds = generate_noise_dataset(cfg).predictions(cfg, 5.0)
    assert preds.min() > 0.0 and preds.max() < 1.0


def test_noise_dataset_does_not_depend_on_bad_noise_level():
    cfg = NoiseStudyConfig(n_categories=3, n_attributes=5, labeled_count=6, test_count=9)
    low, high = (generate_noise_dataset(replace(cfg, bad_noise_std=s)) for s in (0.0, 4.0))
    for name in ("labeled_categories", "labeled_attributes", "test_categories",
                 "test_attributes", "test_noise"):
        assert np.array_equal(getattr(low, name), getattr(high, name))


def test_noise_predictions_scale_each_agents_halves():
    cfg = NoiseStudyConfig(n_attributes=5, bad_noise_std=2.0, test_count=50)
    data = generate_noise_dataset(cfg)
    sigma = np.array([[0.5, 0.5, 0.5, 2.0, 2.0], [2.0, 2.0, 2.0, 0.5, 0.5]])
    expected = data.test_attributes[None] + sigma[:, None, :] * data.test_noise
    assert np.array_equal(data.predictions(cfg, 0.5), np.clip(expected, 1e-6, 1 - 1e-6))


@pytest.mark.parametrize(
    "value, field",
    [(v, "bad_noise_std") for v in (float("nan"), float("inf"), -0.5)]
    # Below two categories or attributes an agent has no reliable attribute.
    + [(1, "n_categories"), (0, "n_categories"), (1, "n_attributes"), (0, "n_attributes")],
)
def test_noise_study_config_rejects_bad_noise_level(value, field):
    with pytest.raises(ConfigurationError):
        NoiseStudyConfig(**{field: value})


def test_calibrate_noise_std_rejects_negative_seed():
    with pytest.raises(ConfigurationError):
        calibrate_noise_std(0.9, rng_seed=-1)


def _full_scan_calibrate_noise_std(target_accuracy, rng_seed=0):
    # The earlier calibrate_noise_std, which scores every annotation at every
    # midpoint, verbatim but for the argument checks.
    n_samples = 200_000
    rng = np.random.default_rng([rng_seed, _STREAM_CALIBRATION])
    bits = rng.random(n_samples) < 0.5
    draws = rng.standard_normal(n_samples)

    def accuracy(sigma: float) -> float:
        # Clamping never moves a value across the 0.5 threshold.
        return float((((bits + sigma * draws) > 0.5) == bits).mean())

    lo, hi = 1e-9, 64.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if accuracy(mid) > target_accuracy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _accuracy_at_bracket_edge(rng_seed):
    """Accuracy at the largest calibrated noise level, 64: the lowest reachable target."""
    rng = np.random.default_rng([rng_seed, _STREAM_CALIBRATION])
    bits = rng.random(200_000) < 0.5
    draws = rng.standard_normal(200_000)
    return float((((bits + 64.0 * draws) > 0.5) == bits).mean())


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 9), st.integers(0, 2**32 - 1)),
    # Where the target sits between the lowest reachable target and 1.0.
    fraction=st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-3),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(1.0 - 1e-4, 1.0, exclude_max=True),
    ),
)
def test_calibration_matches_full_scan_bisection(seed, fraction):
    # An edge below 0.5 is not a valid target; the lowest valid one is above 0.5.
    lowest = max(_accuracy_at_bracket_edge(seed), np.nextafter(0.5, 1.0))
    target = lowest + fraction * (1.0 - lowest)
    assume(target < 1.0)
    assert calibrate_noise_std(target, rng_seed=seed) == _full_scan_calibrate_noise_std(
        target, rng_seed=seed
    )


@pytest.mark.parametrize("target", [0.92, 0.575, 0.51, 0.7, 0.98, 0.9999])
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_calibration_matches_full_scan_bisection_at_fixed_targets(target, seed):
    assert calibrate_noise_std(target, rng_seed=seed) == _full_scan_calibrate_noise_std(
        target, rng_seed=seed
    )


def test_calibration_rejects_unreachable_target():
    # At seed 0 the accuracy at noise level 64 is 0.502965: that target is
    # reachable, and a lower one names the reachable range.
    assert _accuracy_at_bracket_edge(0) == 0.502965
    assert calibrate_noise_std(0.502965) == _full_scan_calibrate_noise_std(0.502965)
    reachable = r"reachable targets lie in \[0\.502965, 1\.0\)"
    for target in (0.501, 0.5029649, 0.5000001):
        with pytest.raises(ConfigurationError, match=reachable):
            calibrate_noise_std(target)


def test_calibration_rejects_an_edge_below_one_half():
    # At seed 1653 the accuracy at noise level 64 is below chance: that edge
    # is refused as a target, and every target above 0.5 is reachable.
    edge = _accuracy_at_bracket_edge(1653)
    assert edge == 0.49967
    with pytest.raises(ConfigurationError, match=r"must be in \(0\.5, 1\.0\), got 0\.49967"):
        calibrate_noise_std(edge, rng_seed=1653)
    lowest = float(np.nextafter(0.5, 1.0))
    assert calibrate_noise_std(lowest, rng_seed=1653) == _full_scan_calibrate_noise_std(
        lowest, rng_seed=1653
    )


def test_calibration_memory_is_bounded_by_its_draws():
    # Live at the peak: the 200,000 bits (one byte each) and standard-normal
    # draws, and the two sorted halves of the draws: 3.24 MiB in all. One
    # more buffer of 200,000 floats would break the bound.
    tracemalloc.start()
    try:
        calibrate_noise_std(0.92)
        calibrate_noise_std(0.575)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_calibration_hits_target_bands():
    sigma_good = calibrate_noise_std(0.85, rng_seed=7)
    sigma_bad = calibrate_noise_std(0.575, rng_seed=7)
    assert 0.0 < sigma_good < sigma_bad
    cfg = NoiseStudyConfig(bad_noise_std=sigma_bad, test_count=4000, rng_seed=5)
    data = generate_noise_dataset(cfg)
    good0 = good_attribute_mask(cfg)[0]
    hits = (data.predictions(cfg, sigma_good)[0] > 0.5) == data.test_attributes.astype(bool)
    good_acc = hits[:, good0].mean()
    bad_acc = hits[:, ~good0].mean()
    assert good_acc > 0.80
    assert 0.50 <= bad_acc <= 0.65


def test_noise_sweep_common_random_numbers():
    cfg = NoiseStudyConfig(rng_seed=3)
    data = generate_noise_dataset(cfg)
    cols = good_attribute_mask(cfg)[0]
    truth = data.test_attributes[:, cols].astype(float)
    p_low = data.predictions(cfg, 1.0)[0][:, cols]
    p_high = data.predictions(cfg, 2.0)[0][:, cols]

    def unclipped(p):
        return (p > 1e-6) & (p < 1 - 1e-6)

    interior = unclipped(p_low) & unclipped(p_high) & (np.abs(p_low - truth) > 1e-12)
    ratio = (p_high[interior] - truth[interior]) / (p_low[interior] - truth[interior])
    assert interior.sum() > 100
    assert np.allclose(ratio, 2.0, atol=1e-9)


def test_noise_sweep_final_level_makes_attributes_indistinguishable():
    sigma_bad = calibrate_noise_std(0.575, rng_seed=1)
    cfg = NoiseStudyConfig(bad_noise_std=sigma_bad, test_count=5000, rng_seed=1)
    data = generate_noise_dataset(cfg)
    good0 = good_attribute_mask(cfg)[0]
    hits = (data.predictions(cfg, sigma_bad)[0] > 0.5) == data.test_attributes.astype(bool)
    good_acc = hits[:, good0].mean()
    bad_acc = hits[:, ~good0].mean()
    assert abs(good_acc - bad_acc) < 0.02


@pytest.mark.parametrize("n_attributes, n_categories", [(3, 5), (2, 3), (1, 2), (10, 600)])
def test_contrast_matrix_rejects_more_categories_than_separable_profiles(
    n_attributes, n_categories
):
    # At most 2**(M - 1) profiles differ pairwise in two attributes; the
    # draw loop would spin through every attempt before failing.
    bound = 2 ** (n_attributes - 1)
    with pytest.raises(ConfigurationError, match=rf"2\*\*\(n_attributes - 1\) = {bound}\b"):
        contrast_ground_truth_matrix(n_attributes, n_categories, np.random.default_rng(0))


@pytest.mark.parametrize("n_attributes", [2, 3])
def test_contrast_matrix_draws_the_largest_separable_table(n_attributes):
    # The guard admits the bound itself; the rejection draw finds it at small M.
    bound = 2 ** (n_attributes - 1)
    pattern = contrast_ground_truth_matrix(n_attributes, bound, np.random.default_rng(0)) > 0.5
    distances = (pattern[:, :, None] != pattern[:, None, :]).sum(axis=0)
    assert (distances + 2 * np.eye(bound, dtype=int)).min() >= 2


@pytest.mark.parametrize("n_attributes, n_categories", [(4, 8), (6, 20), (8, 40), (10, 100)])
def test_contrast_matrix_falls_back_to_codewords_when_draws_fail(n_attributes, n_categories):
    # At rng seed 3 no random draw separates these tables.
    matrix = contrast_ground_truth_matrix(n_attributes, n_categories, np.random.default_rng(3))
    assert matrix.shape == (n_attributes, n_categories)
    assert set(np.unique(matrix)) <= {0.1, 0.9}
    pattern = matrix > 0.5
    distances = (pattern[:, :, None] != pattern[:, None, :]).sum(axis=0)
    assert (distances + 2 * np.eye(n_categories, dtype=int)).min() >= 2


@pytest.mark.parametrize(
    "low, high",
    [(-0.5, 1.5), (0.1, 1.5), (-0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (np.nan, 0.9), (0.1, np.nan)],
)
def test_contrast_matrix_rejects_rates_outside_zero_to_one(low, high):
    with pytest.raises(ConfigurationError, match=r"0 <= low < high <= 1, got low .* and high"):
        contrast_ground_truth_matrix(4, 3, np.random.default_rng(0), low=low, high=high)


def test_contrast_matrix_admits_the_unit_interval_ends():
    matrix = contrast_ground_truth_matrix(4, 3, np.random.default_rng(0), low=0.0, high=1.0)
    assert set(np.unique(matrix)) == {0.0, 1.0}


def test_contrast_matrix_profiles_are_separated():
    rng = np.random.default_rng(0)
    matrix = contrast_ground_truth_matrix(8, 6, rng)
    assert set(np.unique(matrix)) <= {0.1, 0.9}
    pattern = matrix > 0.5
    for i in range(6):
        for j in range(i + 1, 6):
            assert (pattern[:, i] != pattern[:, j]).sum() >= 2


def test_world_config_validation():
    with pytest.raises(ConfigurationError):
        _world_config(ground_truth_matrix=np.full((2, 2), 0.5))  # wrong shape
    with pytest.raises(ConfigurationError):
        _world_config(attribute_flip_rate=1.5)
    with pytest.raises(ConfigurationError):
        _world_config(n_distractors=-1)


@pytest.mark.parametrize("field", ["feature_dims", "feature_noise_stds"])
@pytest.mark.parametrize("value", [(5,), (5, 6, 7)], ids=["one", "three"])
def test_world_config_needs_one_feature_setting_per_agent(field, value):
    # One entry would fail with an IndexError in generate_world, and a third
    # would be ignored.
    with pytest.raises(ConfigurationError, match="one entry per agent"):
        _world_config(**{field: value})


def test_agent_domain_arrays_follow_sorted_ids():
    pool = _pool([2, 5, 7], [LABELED, TEST, UNLABELED])
    domain = AgentDomain(
        0, [2, 5, 7], [[2.0, -1.0], [5.0, -1.0], [7.0, -1.0]], [0, 1, DISTRACTOR],
        np.zeros((3, 1)), pool,
    )
    assert domain.ids.tolist() == pool.ids.tolist() == [2, 5, 7]
    assert pool.split.tolist() == [LABELED, TEST, UNLABELED]
    assert domain.features[:, 0].tolist() == [2.0, 5.0, 7.0]
    with pytest.raises(ConfigurationError):  # rows out of id order
        AgentDomain(0, [7, 2, 5], domain.features, domain.true_category, domain.true_bits, pool)


def test_agent_domain_rejects_pool_id_without_example():
    with pytest.raises(ConfigurationError):
        AgentDomain(0, [1, 2], [[0.0], [0.0]], [0, 0], np.zeros((2, 1)),
                    _pool([1, 2, 3], [LABELED, UNLABELED, UNLABELED]))
    pool = _pool([1, 2], [LABELED, UNLABELED])
    for features, categories, bits in (
        ([[0.0]], [0, 0], np.zeros((2, 1))),
        ([[0.0], [0.0]], [0], np.zeros((2, 1))),
        ([[0.0], [0.0]], [0, 0], np.zeros(2)),
        (np.zeros((2, 0)), [0, 0], np.zeros((2, 1))),
    ):
        with pytest.raises(ConfigurationError):
            AgentDomain(0, [1, 2], features, categories, bits, pool)
