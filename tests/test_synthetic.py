from __future__ import annotations

import numpy as np
import pytest

from coopattr import (
    DISTRACTOR,
    AgentDomain,
    ConfigurationError,
    Example,
    NoiseStudyConfig,
    SplitSizes,
    SyntheticWorldConfig,
    calibrate_noise_std,
    contrast_ground_truth_matrix,
    estimate_matrix_from_labels,
    generate_noise_dataset,
    generate_noise_study,
    generate_world,
    good_attribute_sets,
    new_pool_state,
    noise_sweep,
    random_ground_truth_matrix,
    read_world_text,
    write_world_text,
)


def _world_config(**overrides):
    rng = np.random.default_rng(0)
    defaults = dict(
        n_categories=4,
        n_attributes=5,
        ground_truth_matrix=random_ground_truth_matrix(5, 4, rng),
        examples_per_category=SplitSizes(labeled=3, unlabeled=6, test=4),
        n_distractors=7,
        feature_dims=(6, 5),
        feature_noise_stds=(0.3, 0.3),
        attribute_flip_rate=0.0,
        rng_seed=42,
    )
    defaults.update(overrides)
    return SyntheticWorldConfig(**defaults)


def _domain_features(domain):
    return np.stack([domain.examples[i].features for i in sorted(domain.examples)])


def test_same_seed_gives_identical_worlds():
    a = generate_world(_world_config())
    b = generate_world(_world_config())
    for da, db in zip(a.domains, b.domains):
        assert da.pool == db.pool
        assert np.array_equal(_domain_features(da), _domain_features(db))
    assert a.paired_test_ids == b.paired_test_ids


def test_different_seed_changes_the_world():
    a = generate_world(_world_config())
    b = generate_world(_world_config(rng_seed=43))
    assert not np.array_equal(_domain_features(a.domains[0]), _domain_features(b.domains[0]))


def test_world_structure_sizes_and_disjointness():
    cfg = _world_config()
    world = generate_world(cfg)
    sizes = cfg.examples_per_category
    for agent, domain in enumerate(world.domains):
        assert len(domain.pool.labeled) == 4 * sizes.labeled
        assert len(domain.pool.test) == 4 * sizes.test
        expected_distractors = (cfg.n_distractors + 1) // 2 if agent == 0 else cfg.n_distractors // 2
        assert len(domain.pool.unlabeled) == 4 * sizes.unlabeled + expected_distractors
    ids0 = set(world.domains[0].examples)
    ids1 = set(world.domains[1].examples)
    assert ids0.isdisjoint(ids1)


def test_distractors_carry_sentinel_and_only_live_unlabeled():
    world = generate_world(_world_config())
    for domain in world.domains:
        for ex_id, ex in domain.examples.items():
            if ex.true_category == DISTRACTOR:
                assert ex_id in domain.pool.unlabeled
        assert all(
            domain.examples[i].true_category != DISTRACTOR for i in domain.pool.labeled
        )
        assert all(
            domain.examples[i].true_category != DISTRACTOR for i in domain.pool.test
        )


def test_seed_examples_are_annotated_with_truth():
    world = generate_world(_world_config())
    for domain in world.domains:
        for ex_id in domain.pool.labeled:
            ex = domain.examples[ex_id]
            category, bits = domain.pool.assignments[ex_id]
            assert category == ex.true_category
            assert list(bits) == ex.true_attributes.tolist()


def test_paired_test_examples_share_attribute_draws():
    world = generate_world(_world_config())
    for id0, id1 in world.paired_test_ids:
        ex0 = world.domains[0].examples[id0]
        ex1 = world.domains[1].examples[id1]
        assert ex0.true_category == ex1.true_category
        assert np.array_equal(ex0.true_attributes, ex1.true_attributes)


def test_agent_embeddings_differ():
    world = generate_world(_world_config(feature_dims=(6, 6), feature_noise_stds=(0.0, 0.0)))
    for id0, id1 in world.paired_test_ids[:5]:
        f0 = world.domains[0].examples[id0].features
        f1 = world.domains[1].examples[id1].features
        assert not np.allclose(f0, f1)


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
    by_category = {}
    for ex in domain.examples.values():
        assert ex.true_attributes.tolist() == [1, 1, 1]
        by_category.setdefault(ex.true_category, []).append(ex.features)
    for feats in by_category.values():
        for f in feats[1:]:
            assert np.array_equal(f, feats[0])


def test_flip_rate_zero_and_degenerate_rate_pin_attributes():
    matrix = np.zeros((2, 2))
    matrix[0, :] = 1.0
    cfg = _world_config(
        n_categories=2, n_attributes=2, ground_truth_matrix=matrix,
        attribute_flip_rate=0.0, n_distractors=0,
    )
    world = generate_world(cfg)
    for domain in world.domains:
        for ex in domain.examples.values():
            assert ex.true_attributes.tolist() == [1, 0]


def test_estimate_matrix_recovers_generator_rates():
    cfg = _world_config(
        examples_per_category=SplitSizes(labeled=400, unlabeled=1, test=1),
        n_distractors=0,
        attribute_flip_rate=0.0,
    )
    world = generate_world(cfg)
    domain = world.domains[0]
    ids = sorted(domain.pool.labeled)
    categories = np.array([domain.examples[i].true_category for i in ids])
    attributes = np.stack([domain.examples[i].true_attributes for i in ids])
    estimated = estimate_matrix_from_labels(categories, attributes, 4, 5)
    assert np.abs(estimated.values - cfg.ground_truth_matrix).max() <= 3 / np.sqrt(400)


def test_world_text_round_trip(tmp_path):
    world = generate_world(_world_config())
    path = tmp_path / "world.txt"
    write_world_text(world, path)
    rows = read_world_text(path)
    total = sum(len(d.examples) for d in world.domains)
    assert len(rows) == total
    agent, ex_id, split, category, bits, feats = rows[0]
    ex = world.domains[agent].examples[ex_id]
    assert category == ex.true_category
    assert np.array_equal(bits, ex.true_attributes)
    assert np.array_equal(feats, ex.features)  # repr round-trips floats exactly


def test_good_attribute_sets_partition():
    cfg = NoiseStudyConfig(n_attributes=6)
    first, second = good_attribute_sets(cfg)
    assert first | second == set(range(6))
    assert first.isdisjoint(second)
    custom = NoiseStudyConfig(n_attributes=4, agent0_good_attributes=(0, 3))
    assert good_attribute_sets(custom) == (frozenset({0, 3}), frozenset({1, 2}))


def test_generate_noise_study_zero_noise_equals_clamped_truth():
    cfg = NoiseStudyConfig(n_categories=2, n_attributes=4, labeled_count=4, test_count=4,
                           good_noise_std=0.0, bad_noise_std=0.0)
    annotations = np.array([[0, 1, 1, 0], [1, 1, 0, 0]], dtype=np.int8)
    preds = generate_noise_study(cfg, annotations)
    assert preds.shape == (2, 2, 4)
    assert np.allclose(preds, np.clip(annotations, 1e-6, 1 - 1e-6))


def test_generate_noise_study_outputs_strictly_interior():
    cfg = NoiseStudyConfig(n_categories=2, n_attributes=3, labeled_count=4, test_count=4,
                           good_noise_std=5.0, bad_noise_std=5.0)
    annotations = (np.random.default_rng(0).random((50, 3)) < 0.5).astype(np.int8)
    preds = generate_noise_study(cfg, annotations)
    assert preds.min() > 0.0 and preds.max() < 1.0


def test_calibration_hits_target_bands():
    sigma_good = calibrate_noise_std(0.85, rng_seed=7)
    sigma_bad = calibrate_noise_std(0.575, rng_seed=7)
    assert 0.0 < sigma_good < sigma_bad
    cfg = NoiseStudyConfig(good_noise_std=sigma_good, bad_noise_std=sigma_bad,
                           test_count=4000, rng_seed=5)
    data = generate_noise_dataset(cfg)
    good0, _ = good_attribute_sets(cfg)
    hits = (data.test_predictions[0] > 0.5) == data.test_attributes.astype(bool)
    good_acc = hits[:, sorted(good0)].mean()
    bad_acc = hits[:, sorted(set(range(10)) - good0)].mean()
    assert good_acc > 0.80
    assert 0.50 <= bad_acc <= 0.65


def test_noise_sweep_common_random_numbers():
    cfg = NoiseStudyConfig(rng_seed=3)
    low, high = noise_sweep([1.0, 2.0], cfg)
    good0, _ = good_attribute_sets(cfg)
    cols = sorted(good0)
    truth = low.test_attributes[:, cols].astype(float)
    p_low = low.test_predictions[0][:, cols]
    p_high = high.test_predictions[0][:, cols]

    def unclipped(p):
        return (p > 1e-6) & (p < 1 - 1e-6)

    interior = unclipped(p_low) & unclipped(p_high) & (np.abs(p_low - truth) > 1e-12)
    ratio = (p_high[interior] - truth[interior]) / (p_low[interior] - truth[interior])
    assert interior.sum() > 100
    assert np.allclose(ratio, 2.0, atol=1e-9)


def test_noise_sweep_final_level_makes_attributes_indistinguishable():
    sigma_bad = calibrate_noise_std(0.575, rng_seed=1)
    cfg = NoiseStudyConfig(bad_noise_std=sigma_bad, test_count=5000, rng_seed=1)
    (data,) = noise_sweep([sigma_bad], cfg)
    good0, _ = good_attribute_sets(cfg)
    hits = (data.test_predictions[0] > 0.5) == data.test_attributes.astype(bool)
    good_acc = hits[:, sorted(good0)].mean()
    bad_acc = hits[:, sorted(set(range(10)) - good0)].mean()
    assert abs(good_acc - bad_acc) < 0.02


def test_noise_sweep_rejects_descending_levels():
    with pytest.raises(ConfigurationError):
        noise_sweep([2.0, 1.0], NoiseStudyConfig())


def test_singleton_sweep():
    datasets = noise_sweep([0.5], NoiseStudyConfig(rng_seed=2))
    assert len(datasets) == 1


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


def test_agent_domain_arrays_follow_sorted_ids():
    examples = {i: Example(id=i, features=[float(i), -1.0]) for i in (7, 2, 5)}
    domain = AgentDomain(0, 2, examples, new_pool_state([2], [7], [5]))
    assert domain.ids.tolist() == [2, 5, 7]
    assert domain.feature_matrix[:, 0].tolist() == [2.0, 5.0, 7.0]
    assert domain.feature_matrix is domain.feature_matrix  # stacked once


def test_agent_domain_rejects_pool_id_without_example():
    examples = {i: Example(id=i, features=[0.0]) for i in (1, 2)}
    with pytest.raises(ConfigurationError):
        AgentDomain(0, 1, examples, new_pool_state([1], [2, 3], []))
