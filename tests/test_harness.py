from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopattr.crf as crf
import coopattr.harness as harness
from coopattr import (
    DISTRACTOR,
    ConfigurationError,
    LearnerVariant,
    LoopConfig,
    PoolState,
    StateError,
    SplitSizes,
    SyntheticWorldConfig,
    TrainConfig,
    TrainingError,
    compute_class_average_accuracy,
    compute_purity,
    derive_attribute_labels,
    generate_world,
    move_to_labeled,
    records_to_csv,
    run_experiment,
)
from coopattr.config import (
    ExperimentConfig,
    load_experiment_config,
    loop_config,
    noise_sweep_config,
    world_config,
)
from coopattr.linear import AttributeModelBank, CategoryModelBank
from coopattr.pool import LABELED, TEST, UNASSIGNED, UNLABELED
from coopattr.synthetic import AgentDomain, SyntheticWorld

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _small_config(**overrides):
    rng = np.random.default_rng(1)
    defaults = dict(
        n_categories=3,
        n_attributes=4,
        ground_truth_matrix=rng.uniform(0.05, 0.95, (4, 3)),
        examples_per_category=SplitSizes(labeled=4, unlabeled=6, test=4),
        n_distractors=8,
        feature_dims=(6, 5),
        feature_noise_stds=(0.4, 0.4),
        attribute_flip_rate=0.05,
        rng_seed=11,
    )
    defaults.update(overrides)
    return SyntheticWorldConfig(**defaults)


_FAST = LoopConfig(train=TrainConfig(max_iters=150))


@pytest.fixture(scope="module")
def small_world():
    return generate_world(_small_config())


def test_compute_purity_seeds_only(small_world):
    domain = small_world.domains[0]
    assert compute_purity(domain.pool, domain.true_category) == 1.0


def test_compute_purity_counts_and_distractor_rule():
    true_category = np.array([0, 1, DISTRACTOR])
    pool = PoolState([0, 1, 2], [UNLABELED] * 3, [UNASSIGNED] * 3, np.zeros((3, 0)), [False] * 3)
    # Correct; wrong category; distractor, always wrong.
    pool = move_to_labeled(pool, [0, 1, 2], [0, 0, 1], 0)
    assert compute_purity(pool, true_category) == pytest.approx(1 / 3)


def test_compute_purity_rejects_empty_pool():
    pool = PoolState([1], [UNLABELED], [UNASSIGNED], np.zeros((1, 0)), [False])
    with pytest.raises(StateError):
        compute_purity(pool, np.array([0]))


def test_class_average_accuracy_reference_cases():
    assert compute_class_average_accuracy([0, 1], [0, 1], 2) == 1.0
    # class 0 perfect, class 1 always wrong -> macro mean 0.5
    assert compute_class_average_accuracy([0, 0, 0, 0], [0, 0, 1, 1], 2) == 0.5


def test_class_average_accuracy_uniform_random_is_chance():
    rng = np.random.default_rng(0)
    truths = np.repeat(np.arange(10), 2000)
    preds = rng.integers(0, 10, truths.size)
    acc = compute_class_average_accuracy(preds, truths, 10)
    assert acc == pytest.approx(0.1, abs=0.01)


def test_class_average_accuracy_rejects_missing_category():
    with pytest.raises(ConfigurationError):
        compute_class_average_accuracy([0, 0], [0, 0], 2)


def _per_category_loop_accuracy(predictions, truths, n_categories):
    # The earlier per-category loop of compute_class_average_accuracy.
    per_category = []
    for category in range(n_categories):
        mask = truths == category
        per_category.append(float((predictions[mask] == category).mean()))
    return fmean(per_category)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 300))
def test_class_average_accuracy_matches_per_category_loop(seed, n_categories, extra):
    rng = np.random.default_rng(seed)
    truths = rng.permutation(
        np.concatenate([np.arange(n_categories), rng.integers(0, n_categories, extra)])
    )
    guesses = rng.integers(-1, n_categories + 1, truths.size)
    predictions = np.where(rng.random(truths.size) < rng.random(), truths, guesses)
    got = compute_class_average_accuracy(predictions, truths, n_categories)
    expected = _per_category_loop_accuracy(predictions, truths, n_categories)
    assert np.float64(got).view(np.int64) == np.float64(expected).view(np.int64)


def test_class_average_accuracy_checks_keep_their_messages():
    with pytest.raises(ConfigurationError, match="differ in length"):
        compute_class_average_accuracy([0, 1], [0, 1, 1], 2)
    with pytest.raises(ConfigurationError, match="target categories"):
        compute_class_average_accuracy([0, 1], [0, 2], 2)
    with pytest.raises(ConfigurationError, match="target categories"):
        compute_class_average_accuracy([0, 1], [-1, 1], 2)
    with pytest.raises(ConfigurationError, match="category 1 has no test examples"):
        compute_class_average_accuracy([0, 0, 2], [0, 0, 2], 3)


@pytest.mark.parametrize(
    "variant",
    [
        LearnerVariant.SSL_IND,
        LearnerVariant.MULTIVIEW_IND,
        LearnerVariant.ENSEMBLE_IND,
        LearnerVariant.COOPERATIVE_UNIFORM,
        LearnerVariant.COOPERATIVE_WEIGHTED,
        LearnerVariant.MAX_ACCURACY_UPPER_BOUND,
    ],
)
def test_every_variant_runs_and_records(variant, small_world):
    records = run_experiment(variant, small_world, 6, _FAST)
    assert [r.iteration for r in records] == [1, 2, 3, 4, 5, 6]
    for record in records:
        assert len(record.agents) == 2
        for m in record.agents:
            assert 0.0 <= m.accuracy <= 1.0
            assert 0.0 <= m.purity <= 1.0
            assert m.transfers >= 0 and m.prunes >= 0
            if variant in (
                LearnerVariant.SSL_IND,
                LearnerVariant.ENSEMBLE_IND,
            ):
                assert m.attribute_accuracy is None
            elif variant is not LearnerVariant.MAX_ACCURACY_UPPER_BOUND:
                assert len(m.attribute_accuracy) == 4


def test_runs_are_deterministic(small_world):
    a = run_experiment(LearnerVariant.COOPERATIVE_UNIFORM, small_world, 6, _FAST)
    b = run_experiment(LearnerVariant.COOPERATIVE_UNIFORM, small_world, 6, _FAST)
    assert a == b


def test_prunes_only_on_schedule(small_world):
    records = run_experiment(LearnerVariant.MULTIVIEW_IND, small_world, 6, _FAST)
    for record in records:
        for m in record.agents:
            if record.iteration % 5 == 0:
                assert m.prunes >= 0
            else:
                assert m.prunes == 0


def test_transfer_counts_bounded_by_config(small_world):
    cfg = LoopConfig(transfers_per_category=2, train=TrainConfig(max_iters=100))
    records = run_experiment(LearnerVariant.SSL_IND, small_world, 3, cfg)
    for record in records:
        for m in record.agents:
            assert m.transfers <= 2 * 3


def test_max_accuracy_record_is_constant(small_world):
    records = run_experiment(LearnerVariant.MAX_ACCURACY_UPPER_BOUND, small_world, 5, _FAST)
    assert all(r.agents == records[0].agents for r in records)
    for m in records[0].agents:
        assert m.purity == 1.0 and m.transfers == 0 and m.prunes == 0


def test_identity_fusion_makes_cooperative_match_multiview(small_world, monkeypatch):
    monkeypatch.setattr(harness, "fuse_uniform", lambda own, received: own)
    coop = run_experiment(LearnerVariant.COOPERATIVE_UNIFORM, small_world, 6, _FAST)
    multi = run_experiment(LearnerVariant.MULTIVIEW_IND, small_world, 6, _FAST)
    assert coop == multi


@pytest.mark.parametrize("variant", list(LearnerVariant))
def test_cooperative_agents_exchange_catm_bytes(variant, small_world, tmp_path, monkeypatch):
    # Agent 1 encodes in the worker, so each message is logged to a file that
    # both processes append to, with the pid that encoded it.
    encode, log = harness.encode_message, tmp_path / "sent"
    log.touch()

    def recording_encode(msg):
        data = encode(msg)
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {msg.agent_id} {msg.iteration} {len(data)}\n")
        return data

    monkeypatch.setattr(harness, "encode_message", recording_encode)
    run_experiment(variant, small_world, 4, _FAST)
    rows = [[int(field) for field in line.split()] for line in log.read_text().splitlines()]
    # Each agent encodes in its own process: agent 0 here, agent 1 in the worker.
    assert all((pid == os.getpid()) == (k == 0) for pid, k, _, _ in rows)
    sent = sorted(((k, t, size) for _, k, t, size in rows), key=lambda row: (row[1], row[0]))
    m, n = small_world.config.n_attributes, small_world.config.n_categories
    size = 16 + 8 * m * n
    if variant is LearnerVariant.COOPERATIVE_WEIGHTED:
        size += 8 * m
    cooperative = (LearnerVariant.COOPERATIVE_UNIFORM, LearnerVariant.COOPERATIVE_WEIGHTED)
    expected = [(k, t, size) for t in range(1, 5) for k in (0, 1)]
    assert sent == (expected if variant in cooperative else [])


def test_ensemble_pool_trajectory_matches_ssl(small_world):
    ssl = run_experiment(LearnerVariant.SSL_IND, small_world, 6, _FAST)
    ens = run_experiment(LearnerVariant.ENSEMBLE_IND, small_world, 6, _FAST)
    for r_ssl, r_ens in zip(ssl, ens):
        for m_ssl, m_ens in zip(r_ssl.agents, r_ens.agents):
            assert m_ssl.transfers == m_ens.transfers
            assert m_ssl.prunes == m_ens.prunes
            assert m_ssl.purity == m_ens.purity


def test_ensemble_agents_share_test_accuracy(small_world):
    records = run_experiment(LearnerVariant.ENSEMBLE_IND, small_world, 3, _FAST)
    for record in records:
        assert record.agents[0].accuracy == record.agents[1].accuracy


def _cloned_world(n_categories=3, n_attributes=4, seed=5):
    """Two domains with identical labeled/unlabeled/test attribute draws but
    different feature embeddings, so both agents share labeled statistics."""
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.05, 0.95, (n_attributes, n_categories))
    sizes = SplitSizes(labeled=4, unlabeled=6, test=4)
    config = SyntheticWorldConfig(
        n_categories=n_categories,
        n_attributes=n_attributes,
        ground_truth_matrix=truth,
        examples_per_category=sizes,
        n_distractors=0,
        feature_dims=(6, 6),
        feature_noise_stds=(0.0, 0.0),
        rng_seed=seed,
    )
    counts = (sizes.labeled, sizes.unlabeled, sizes.test)
    categories, splits, bits = [], [], []
    for split, count in zip((LABELED, UNLABELED, TEST), counts):
        for category in range(n_categories):
            for _ in range(count):
                categories.append(category)
                splits.append(split)
                bits.append((rng.random(n_attributes) < truth[:, category]).astype(np.int8))
    bits = np.stack(bits)
    embeddings = [rng.standard_normal((6, n_attributes)) for _ in range(2)]
    domains = []
    next_id = 0
    categories, splits = np.array(categories), np.array(splits)
    seeds = splits == LABELED
    for agent in (0, 1):
        features = (bits - 0.5) @ embeddings[agent].T
        ids = np.arange(next_id, next_id + len(categories))
        pool = PoolState(
            ids, splits, np.where(seeds, categories, UNASSIGNED), bits * seeds[:, None], seeds
        )
        domains.append(AgentDomain(agent, ids, features, categories, bits, pool))
        next_id += len(categories)
    return SyntheticWorld(config, (domains[0], domains[1]))


def test_cooperative_equals_multiview_on_iteration_one_with_cloned_agents():
    world = _cloned_world()
    coop = run_experiment(LearnerVariant.COOPERATIVE_UNIFORM, world, 2, _FAST)
    multi = run_experiment(LearnerVariant.MULTIVIEW_IND, world, 2, _FAST)
    # Identical labeled statistics make iteration 1's fusion an identity.
    assert coop[0] == multi[0]


def test_advance_agent_accounting(monkeypatch):
    world = generate_world(_small_config())
    run = harness._AgentRun(world.domains[0])
    cfg = LoopConfig(prune_every=1, train=TrainConfig(max_iters=100))
    harness._train_agent(run, world, cfg, aware=True, weighted=False)
    before = np.count_nonzero(run.pool.split == LABELED)
    calls = []

    def derive(matrix, categories):
        calls.append(np.array(categories))
        return derive_attribute_labels(matrix, categories)

    monkeypatch.setattr(harness, "derive_attribute_labels", derive)
    start = run.pool
    transfers, prunes = harness._advance_agent(run, 1, cfg, True, 3)
    assert np.count_nonzero(run.pool.split == LABELED) == before + transfers - prunes
    assert (run.pool.split[run.pool.seed] == LABELED).all()
    # One call labels the whole batch, with the bits the table gives each category.
    assert len(calls) == 1 and calls[0].size == transfers > 0
    moved = (start.split == UNLABELED) & (run.pool.split == LABELED)
    expected = derive_attribute_labels(run.matrix, run.pool.category[moved])
    assert np.array_equal(run.pool.bits[moved], expected)


def test_advance_agent_never_prunes_seeds_even_when_least_confident(monkeypatch):
    # Seed protection lives in the caller: select_prunes ranks every row it
    # gets, so _advance_agent must leave the seed rows out.
    world = generate_world(_small_config())
    run = harness._AgentRun(world.domains[0])
    unlabeled = np.flatnonzero(run.pool.split == UNLABELED)
    run.pool = move_to_labeled(run.pool, run.pool.ids[unlabeled], unlabeled % 3, 0)
    start = run.pool

    def seeds_least_confident(agent_run, features, aware, n_categories):
        seed = agent_run.pool.seed[agent_run.pool.split == LABELED]
        assert features.shape[0] == seed.size  # only the labeled rows are scored
        confident = np.tile([0.9, 0.05, 0.05], (seed.size, 1))
        return np.where(seed[:, None], 1.0 / 3.0, confident)

    monkeypatch.setattr(harness, "_agent_posterior", seeds_least_confident)
    cfg = LoopConfig(prunes_per_category=6, prune_every=1)
    transfers, prunes = harness._advance_agent(run, 1, cfg, False, 3)
    pruned = (start.split == LABELED) & (run.pool.split == UNLABELED)
    assert transfers == 0 and prunes == np.count_nonzero(pruned) == 3 * 6
    assert not (pruned & start.seed).any()
    assert (run.pool.split[start.seed] == LABELED).all()


def test_run_experiment_rejects_bad_iterations(small_world):
    with pytest.raises(ConfigurationError):
        run_experiment(LearnerVariant.SSL_IND, small_world, 0)


def test_records_to_csv_layout(small_world):
    records = run_experiment(LearnerVariant.MULTIVIEW_IND, small_world, 2, _FAST)
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,agent,accuracy,purity,attr_acc_mean,transfers,prunes"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0"
    assert float(first[2]) >= 0.0
    ssl_text = records_to_csv(run_experiment(LearnerVariant.SSL_IND, small_world, 1, _FAST))
    assert ssl_text.strip().split("\n")[1].split(",")[4] == ""


def test_noise_study_margins_positive_then_compressed():
    from coopattr import default_noise_sweep, run_noise_study

    results = run_noise_study(default_noise_sweep(n_levels=3, n_seeds=8, rng_seed=1))
    lowest, highest = results[0], results[-1]
    assert lowest.cooperative_accuracy > lowest.baseline_accuracy
    assert abs(highest.cooperative_accuracy - highest.baseline_accuracy) < 0.02
    assert highest.margin < lowest.margin


def _small_noise_sweep(levels, n_seeds=2):
    from coopattr import NoiseStudyConfig, NoiseSweepConfig

    study = NoiseStudyConfig(n_categories=4, n_attributes=5, bad_noise_std=2.0,
                             labeled_count=12, test_count=40, rng_seed=3)
    return NoiseSweepConfig(study=study, levels=levels, n_seeds=n_seeds)


def test_noise_study_levels_match_single_level_sweeps():
    # A benchmark op runs one level at a time; a whole sweep must agree with it.
    sweep = _small_noise_sweep((0.0, 0.3, 1.1, 2.0), n_seeds=3)
    alone = [
        harness.run_noise_study(harness.NoiseSweepConfig(sweep.study, (level,), sweep.n_seeds))[0]
        for level in sweep.levels
    ]
    assert harness.run_noise_study(sweep) == alone


_POSTERIOR = crf.crf_posterior_batch
_POSTERIOR_BLOCK = crf._posterior_block


def _posterior_argmax_scores(sweep, seeds):
    # The reference for harness._score_noise_seeds: its earlier form, verbatim
    # but for the module-qualified names, which takes the argmax of each full
    # posterior.
    study = sweep.study
    n_cat, n_attr = study.n_categories, study.n_attributes
    good_columns = harness.good_attribute_mask(study)
    scores = [([], [], [], []) for _ in sweep.levels]
    for k in seeds:
        data = harness.generate_noise_dataset(harness.replace(study, rng_seed=study.rng_seed + k))
        matrices = [
            harness.estimate_matrix_from_labels(
                data.labeled_categories[agent], data.labeled_attributes[agent], n_cat, n_attr
            )
            for agent in (0, 1)
        ]
        fused = harness.fuse_uniform(matrices[0], [matrices[1]])
        truth = data.test_attributes.astype(bool)
        for level, (baseline, cooperative, good_acc, bad_acc) in zip(sweep.levels, scores):
            predictions = data.predictions(study, float(level))
            for agent in (0, 1):
                unary = predictions[agent]
                own_preds = np.argmax(_POSTERIOR(matrices[agent], unary, n_cat), axis=1)
                fused_preds = np.argmax(_POSTERIOR(fused, unary, n_cat), axis=1)
                baseline.append(
                    compute_class_average_accuracy(own_preds, data.test_categories, n_cat)
                )
                cooperative.append(
                    compute_class_average_accuracy(fused_preds, data.test_categories, n_cat)
                )
                hits = (unary > 0.5) == truth
                good_acc.append(float(hits[:, good_columns[agent]].mean()))
                bad_acc.append(float(hits[:, ~good_columns[agent]].mean()))
    return scores


@pytest.mark.parametrize("config_file", [None, "noise_sweep.cfg"], ids=["default", "noise_sweep"])
def test_noise_scores_match_posterior_argmax_reference(config_file, monkeypatch):
    path = config_file and _PERFBENCH / "configs" / config_file
    sweep = noise_sweep_config(load_experiment_config(path))
    fallback_rows = []

    def posterior_block(rates, off, attr_probs, out):
        fallback_rows.append(len(attr_probs))
        return _POSTERIOR_BLOCK(rates, off, attr_probs, out)

    monkeypatch.setattr(crf, "_posterior_block", posterior_block)
    scores = harness._score_noise_seeds(sweep, range(3))
    monkeypatch.undo()
    assert scores == _posterior_argmax_scores(sweep, range(3))
    if config_file:
        # At the benchmark's sizes the product leaves some rows undecided,
        # but only a few: fewer than 0.2% of the rows scored (3 seeds, each
        # level, both agents, own and fused matrix).
        scored = 3 * len(sweep.levels) * 2 * 2 * sweep.study.test_count
        assert 0 < sum(fallback_rows) < 0.002 * scored


@pytest.mark.parametrize("level", [float("nan"), float("inf"), -0.5])
def test_noise_sweep_config_rejects_bad_level(level):
    from coopattr import NoiseStudyConfig, NoiseSweepConfig

    with pytest.raises(ConfigurationError):
        NoiseSweepConfig(study=NoiseStudyConfig(), levels=(0.5, level), n_seeds=1)


def test_frozen_configs_do_not_keep_the_callers_lists():
    from coopattr import NoiseStudyConfig, NoiseSweepConfig

    levels, dims, stds = [0.5], [6, 5], [0.4, 0.4]
    sweep = NoiseSweepConfig(study=NoiseStudyConfig(), levels=levels, n_seeds=1)
    world = _small_config(feature_dims=dims, feature_noise_stds=stds)
    # Changes after construction would otherwise skip every check.
    levels.append(-1.0)
    dims[0] = 0
    stds[1] = float("nan")
    assert sweep.levels == (0.5,)
    assert world.feature_dims == (6, 5) and world.feature_noise_stds == (0.4, 0.4)
    assert hash(sweep) == hash(NoiseSweepConfig(sweep.study, (0.5,), 1))
    hash(world)


@pytest.mark.parametrize("n_seeds", [0, 2.5, 20.0])
def test_noise_sweep_config_rejects_bad_seed_count(n_seeds):
    from coopattr import NoiseStudyConfig, NoiseSweepConfig

    with pytest.raises(ConfigurationError):
        NoiseSweepConfig(study=NoiseStudyConfig(), levels=(0.5,), n_seeds=n_seeds)


def test_default_noise_sweep_draws_data_at_its_calibration_seed():
    from coopattr import NoiseStudyConfig, default_noise_sweep

    study = NoiseStudyConfig(n_categories=4, labeled_count=12, rng_seed=0)
    sweep = default_noise_sweep(n_levels=2, n_seeds=1, rng_seed=3, study=study)
    assert sweep.study.rng_seed == 3
    assert sweep.study.n_categories == 4 and sweep.study.labeled_count == 12
    assert sweep.study.bad_noise_std == sweep.levels[-1]


def test_default_noise_sweep_rejects_negative_seed():
    from coopattr import default_noise_sweep

    with pytest.raises(ConfigurationError):
        default_noise_sweep(rng_seed=-1)


@pytest.mark.parametrize(
    "good, bad", [(0.6, 0.9), (0.7, 0.7), (float("nan"), 0.575), (0.92, 1.0)]
)
def test_default_noise_sweep_rejects_bad_target_pair(good, bad, monkeypatch):
    from coopattr import default_noise_sweep, harness

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before checking the targets")

    monkeypatch.setattr(harness, "calibrate_noise_std", no_calibration)
    with pytest.raises(ConfigurationError, match="accuracy_target"):
        default_noise_sweep(good_accuracy_target=good, bad_accuracy_target=bad)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("n_levels", 0, "noise level count must be at least 1"),
        ("n_levels", -1, "noise level count must be at least 1"),
        ("n_levels", 1.5, "noise level count must be an integer"),
        ("n_seeds", 0, "seed count must be at least 1"),
        ("n_seeds", 2.5, "seed count must be an integer"),
    ],
    ids=["0", "-1", "n_levels-1.5", "n_seeds-0", "n_seeds-2.5"],
)
def test_default_noise_sweep_rejects_no_levels_before_calibrating(
    name, value, message, monkeypatch
):
    from coopattr import default_noise_sweep, harness

    def no_calibration(*args, **kwargs):
        raise AssertionError("calibrated before checking the level and seed counts")

    monkeypatch.setattr(harness, "calibrate_noise_std", no_calibration)
    with pytest.raises(ConfigurationError, match=message):
        default_noise_sweep(**{name: value})
    # The config key of the same count is refused when the config is built.
    key = {"n_levels": "noise_levels", "n_seeds": "noise_seeds"}[name]
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(**{key: value})


_LOOPING = [v for v in LearnerVariant if v is not LearnerVariant.MAX_ACCURACY_UPPER_BOUND]


@pytest.fixture
def forks(monkeypatch):
    """The pid of each process ``os.fork`` starts during the test. None may be
    left unreaped afterwards; one that is gets killed, so that a failing case
    cannot leave it running."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    yield pids
    left = []
    for pid in pids:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue  # reaped by run_experiment
        left.append(pid)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert not left, f"workers left unreaped: {left}"


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise ``TimeoutError`` in this thread if the block runs past ``seconds``,
    even from inside a blocking wait."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _second_thread():
    """Keep another thread alive in the block: forking is unsafe there, so
    the library takes its serial path."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not harness._fork_is_safe()
        yield
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # join returns when the thread's interpreter state is gone, a moment
    # before the system stops listing the thread in /proc/self/task, which
    # the next fork check reads.
    listed = f"/proc/self/task/{thread.native_id}"
    for _ in range(1000):
        if not os.path.exists(listed):
            break
        time.sleep(0.01)


@pytest.mark.parametrize("variant", _LOOPING, ids=lambda v: v.name)
def test_forked_peer_fit_gives_the_serial_records(variant, small_world, forks):
    # The session's BLAS keeps one thread (conftest.py), so this process may fork.
    assert harness._fork_is_safe()
    forked = run_experiment(variant, small_world, 4, _FAST)
    assert len(forks) == 1
    with _second_thread():
        serial = run_experiment(variant, small_world, 4, _FAST)
    assert len(forks) == 1
    assert serial == forked


@pytest.mark.parametrize("failing_agent", [0, 1])
@pytest.mark.parametrize(
    "variant", [LearnerVariant.SSL_IND, LearnerVariant.COOPERATIVE_WEIGHTED], ids=lambda v: v.name
)
def test_fit_error_is_raised_as_a_serial_loop_raises_it(
    variant, failing_agent, small_world, forks, monkeypatch
):
    # Patched before the fork, so the worker fits through it too; the agents'
    # feature dimensions (6 and 5) tell them apart.
    dim = small_world.domains[failing_agent].features.shape[1]
    for name in ("train_category_bank", "train_banks"):

        def fit(features, *args, _original=getattr(harness, name), _name=name):
            if features.shape[1] == dim:
                raise TrainingError(f"{_name}: category 1 has no labeled examples")
            return _original(features, *args)

        monkeypatch.setattr(harness, name, fit)
    with _second_thread(), pytest.raises(TrainingError) as serial:
        run_experiment(variant, small_world, 3, _FAST)
    with pytest.raises(TrainingError) as forked:
        run_experiment(variant, small_world, 3, _FAST)
    assert len(forks) == 1
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


@pytest.mark.parametrize("failing", [{0}, {1}, {0, 1}], ids=["agent_0", "agent_1", "both"])
@pytest.mark.parametrize("name", ["select_transfers", "compute_purity"])
@pytest.mark.parametrize(
    "variant", [LearnerVariant.COOPERATIVE_WEIGHTED, LearnerVariant.ENSEMBLE_IND],
    ids=lambda v: v.name,
)
def test_phase_error_is_raised_as_a_serial_loop_raises_it(
    variant, name, failing, small_world, forks, monkeypatch
):
    # Patched before the fork, so the worker's agent calls it too. Neither
    # function sees features, so the agents are told apart by their ids, which
    # are disjoint.
    first_peer_id = small_world.domains[1].ids[0]

    def failing_call(ids_or_pool, *args, _original=getattr(harness, name)):
        ids = getattr(ids_or_pool, "ids", ids_or_pool)
        agent = int(ids[0] >= first_peer_id)
        if agent in failing:
            raise StateError(f"{name} failed for agent {agent}")
        return _original(ids_or_pool, *args)

    monkeypatch.setattr(harness, name, failing_call)
    with _second_thread(), pytest.raises(StateError) as serial:
        run_experiment(variant, small_world, 3, _FAST)
    with pytest.raises(StateError) as forked:
        run_experiment(variant, small_world, 3, _FAST)
    assert len(forks) == 1
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == f"{name} failed for agent {min(failing)}"


@pytest.mark.parametrize(
    "variant", [LearnerVariant.COOPERATIVE_WEIGHTED, LearnerVariant.ENSEMBLE_IND],
    ids=lambda v: v.name,
)
def test_advance_error_of_agent_0_comes_first_on_both_paths(
    variant, small_world, forks, monkeypatch
):
    # In iteration 1, agent 1 fails in its transfer and agent 0 later, in its
    # metrics. Both belong to the one advance phase, so agent 0's error is
    # raised, forked and serial alike.
    first_peer_id = small_world.domains[1].ids[0]
    for name, failing_agent in (("select_transfers", 1), ("compute_purity", 0)):

        def failing_call(ids_or_pool, *args, _original=getattr(harness, name), _name=name,
                         _agent=failing_agent):
            ids = getattr(ids_or_pool, "ids", ids_or_pool)
            agent = int(ids[0] >= first_peer_id)
            if agent == _agent:
                raise StateError(f"{_name} failed for agent {agent}")
            return _original(ids_or_pool, *args)

        monkeypatch.setattr(harness, name, failing_call)
    with _second_thread(), pytest.raises(StateError) as serial:
        run_experiment(variant, small_world, 3, _FAST)
    with pytest.raises(StateError) as forked:
        run_experiment(variant, small_world, 3, _FAST)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value) == "compute_purity failed for agent 0"


class _ArrayCountingPickler(pickle.Pickler):
    """Counts the numpy arrays in what it pickles."""

    arrays = 0

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            self.arrays += 1
        return NotImplemented


# The pickle framing of one iteration's two requests (an _Agent method, the
# iteration and, for advance, the message) and two replies (None or a .catm
# message, then agent 1's record), not counting the messages and posteriors
# they carry: 252-390 B on small_world, with the uniform message bounded by
# the weighted one's size.
_FRAMING_BYTES = 448


@pytest.mark.parametrize("variant", _LOOPING, ids=lambda v: v.name)
def test_only_the_message_crosses_between_the_agents(
    variant, small_world, tmp_path, forks, monkeypatch
):
    # The worker's replies are written in its own process, so both processes
    # log each pickle they send to a file: who sent it, its bytes, its arrays.
    send, log, parent = harness._send, tmp_path / "sent", os.getpid()

    def logged(fd, message):
        buffer = io.BytesIO()
        pickler = _ArrayCountingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dump(message)
        with open(log, "a") as out:
            out.write(f"{int(os.getpid() == parent)} {buffer.tell()} {pickler.arrays}\n")
        send(fd, message)

    monkeypatch.setattr(harness, "_send", logged)
    iterations = 4
    run_experiment(variant, small_world, iterations, _FAST)
    assert len(forks) == 1
    sends = [[int(field) for field in line.split()] for line in log.read_text().splitlines()]
    requests = [(size, arrays) for here, size, arrays in sends if here]
    replies = [(size, arrays) for here, size, arrays in sends if not here]
    assert len(requests) == len(replies) == 2 * iterations
    # Requests carry no array; only the ensemble's test-split posteriors
    # come back as one, once per iteration.
    assert sum(arrays for _, arrays in requests) == 0
    ensemble = variant is LearnerVariant.ENSEMBLE_IND
    assert sum(arrays for _, arrays in replies) == (iterations if ensemble else 0)
    n_categories = small_world.config.n_categories
    cooperative = variant in (LearnerVariant.COOPERATIVE_UNIFORM, LearnerVariant.COOPERATIVE_WEIGHTED)
    # Each agent's message (the weighted one's size bounds the uniform one's),
    # and the ensemble's (n_test, n_categories) float64 posteriors.
    message = 16 + 8 * small_world.config.n_attributes * (n_categories + 1) if cooperative else 0
    n_test = np.count_nonzero(small_world.domains[1].pool.split == TEST)
    posteriors = 8 * n_test * n_categories if ensemble else 0
    per_iteration = sum(size for size, _ in requests + replies) / iterations
    assert per_iteration <= 2 * message + posteriors + _FRAMING_BYTES


@pytest.mark.parametrize("fatal_call", [1, 2])
def test_dead_peer_worker_raises_state_error(fatal_call, small_world, forks, monkeypatch):
    parent, original = os.getpid(), harness.train_banks
    worker_calls = []

    def fit(*args):
        if os.getpid() != parent:
            worker_calls.append(1)  # the worker's own copy of the list
            if len(worker_calls) == fatal_call:
                os._exit(3)
        return original(*args)

    monkeypatch.setattr(harness, "train_banks", fit)
    with pytest.raises(StateError, match="worker"):
        run_experiment(LearnerVariant.MULTIVIEW_IND, small_world, 3, _FAST)
    assert len(forks) == 1


def test_stuck_peer_worker_is_reaped_after_an_error(small_world, forks, monkeypatch):
    parent = os.getpid()

    def fit(*args):
        if os.getpid() != parent:
            threading.Event().wait()  # never returns
        raise TrainingError("agent 0 failed")

    monkeypatch.setattr(harness, "train_banks", fit)
    # Without the bound, a worker that close() fails to kill hangs the session.
    with _deadline(10), pytest.raises(TrainingError, match="agent 0"):
        run_experiment(LearnerVariant.MULTIVIEW_IND, small_world, 3, _FAST)
    assert len(forks) == 1


def test_noise_study_draws_each_seed_once(tmp_path, forks, monkeypatch):
    # The worker's draws happen in its own process, so each draw is logged to
    # a file that both processes append to, with the pid that drew it.
    generate, log = harness.generate_noise_dataset, tmp_path / "draws"

    def logged(config):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {config.rng_seed}\n")
        return generate(config)

    def drawn():
        rows = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        return [(int(pid) == os.getpid(), int(seed)) for pid, seed in rows]

    monkeypatch.setattr(harness, "generate_noise_dataset", logged)
    sweep = _small_noise_sweep((0.2, 1.0, 2.0), n_seeds=5)
    assert len(harness.run_noise_study(sweep)) == 3
    assert len(forks) == 1
    draws = drawn()
    assert sorted(seed for _, seed in draws) == [3, 4, 5, 6, 7]
    # The parent draws the first n - n // 2 seeds, the worker the rest.
    assert [seed for here, seed in draws if here] == [3, 4, 5]
    with _second_thread():
        assert len(harness.run_noise_study(sweep)) == 3
    assert len(forks) == 1
    assert drawn() == [(True, seed) for seed in (3, 4, 5, 6, 7)]


@pytest.mark.parametrize("levels", [(0.2,), (0.2, 1.0, 2.0)], ids=["one_level", "three_levels"])
@pytest.mark.parametrize("n_seeds", [1, 2, 3])
def test_forked_noise_study_gives_the_serial_results(n_seeds, levels, forks):
    sweep = _small_noise_sweep(levels, n_seeds)
    forked = harness.run_noise_study(sweep)
    # One seed is not split; two or more fork one worker for the call.
    assert len(forks) == (n_seeds >= 2)
    with _second_thread():
        serial = harness.run_noise_study(sweep)
    assert len(forks) == (n_seeds >= 2)
    assert forked == serial


@pytest.mark.parametrize(
    "failing", [{5}, {4}, {3, 5}], ids=["worker_half", "parent_half", "both_halves"]
)
def test_noise_seed_error_is_raised_as_a_serial_study_raises_it(failing, forks, monkeypatch):
    # Three seeds from rng_seed 3: the parent scores 3 and 4, the worker 5.
    generate = harness.generate_noise_dataset

    def draw(config):
        if config.rng_seed in failing:
            raise ConfigurationError(f"seed {config.rng_seed} has no test examples")
        return generate(config)

    monkeypatch.setattr(harness, "generate_noise_dataset", draw)
    sweep = _small_noise_sweep((0.2, 1.0), n_seeds=3)
    with _second_thread(), pytest.raises(ConfigurationError) as serial:
        harness.run_noise_study(sweep)
    with pytest.raises(ConfigurationError) as forked:
        harness.run_noise_study(sweep)
    assert len(forks) == 1
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == f"seed {min(failing)} has no test examples"


def test_dead_noise_worker_raises_state_error(forks, monkeypatch):
    parent, generate = os.getpid(), harness.generate_noise_dataset

    def draw(config):
        if os.getpid() != parent:
            os._exit(3)
        return generate(config)

    monkeypatch.setattr(harness, "generate_noise_dataset", draw)
    with pytest.raises(StateError, match="worker"):
        harness.run_noise_study(_small_noise_sweep((0.2,), n_seeds=2))
    assert len(forks) == 1


def test_import_starts_no_process():
    # Run in a fresh interpreter: the import must fork nothing and leave out
    # the modules of processes and signals, whose import costs set-up time
    # and memory (multiprocessing ~1 MB, signal ~1 ms).
    code = (
        "import os, sys, threading\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('import started a process')\n"
        "for name in ('fork', 'forkpty', 'posix_spawn', 'posix_spawnp', 'system'):\n"
        "    setattr(os, name, refuse)\n"
        "import coopattr\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'subprocess' not in sys.modules\n"
        "assert 'signal' not in sys.modules\n"
        "assert threading.active_count() == 1\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('import left a child process')\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize(
    "field, value",
    [
        ("transfers_per_category", 0),
        ("prunes_per_category", 0),
        ("prune_every", -3),
        # Not integers: they would prune on another schedule or fail in numpy.
        ("transfers_per_category", 1.5),
        ("prunes_per_category", 2.5),
        ("prune_every", 2.5),
        ("prune_every", 5.0),
    ],
)
def test_loop_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigurationError):
        LoopConfig(**{field: value})


@pytest.mark.parametrize(
    "call",
    [
        lambda world: run_experiment(LearnerVariant.SSL_IND, world, 2.0, _FAST),
        lambda world: run_experiment(LearnerVariant.MAX_ACCURACY_UPPER_BOUND, world, 2.0, _FAST),
        lambda world: world_config(ExperimentConfig(), 1.5),
        lambda world: harness.calibrate_noise_std(0.9, rng_seed=1.5),
        lambda world: harness.default_noise_sweep(rng_seed=1.5),
    ],
    ids=["loop_iterations", "upper_bound_iterations", "world_seed", "calibration_seed", "sweep_seed"],
)
def test_non_integer_iterations_and_seeds_are_refused(call, small_world):
    # 2.0 and 1.5 must be refused as settings, not fail later inside range()
    # or numpy's seeding with a TypeError.
    with pytest.raises(ConfigurationError, match="must be an integer"):
        call(small_world)


# SHA-256 of records_to_csv for 6 iterations of each variant on small_world
# with _FAST, recorded before the fused category/attribute fit and the
# branchless sigmoid landed; a change that moves them changes results.
GOLDEN_RECORDS = {
    LearnerVariant.SSL_IND: (
        "8dbba5fb240aa43d1bf9e8f6c7c1f80f76aacb66144de81481dad6acf35af443"
    ),
    LearnerVariant.MULTIVIEW_IND: (
        "74d31f642edd182f67c4285f15d1d270012557a620573fcb51919a91652c2681"
    ),
    LearnerVariant.ENSEMBLE_IND: (
        "1b3c94348064aad1078acea4388da4ce8ef1bee3de8c8a91f0c2d15b388f4d03"
    ),
    LearnerVariant.COOPERATIVE_UNIFORM: (
        "a25c864837acda1f9161b20276ce13582f6d9366f023691f1e7c9f9c56b4bc47"
    ),
    LearnerVariant.COOPERATIVE_WEIGHTED: (
        "495e3c87082a47ed4f7d4ba7cb42d94427f211749aeb87c9718cc55514e332cd"
    ),
    LearnerVariant.MAX_ACCURACY_UPPER_BOUND: (
        "3cb59ca8fd70d1b6fcfff50ac68b4db3ac1bfa877b2606c7cb788b5f68186be3"
    ),
}


@pytest.mark.parametrize("variant", list(GOLDEN_RECORDS), ids=lambda v: v.name)
def test_records_match_golden_digest(variant, small_world):
    text = records_to_csv(run_experiment(variant, small_world, 6, _FAST))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RECORDS[variant]


# SHA-256 of records_to_csv for 3 iterations of each variant on the
# default-sized world of seed 0, recorded with the earlier per-example
# world representation.
GOLDEN_DEFAULT_RECORDS = {
    LearnerVariant.SSL_IND: (
        "f84d1db92a2c904d545ae209bb68e2c6f8174d95e4924855238950e5ed4a49be"
    ),
    LearnerVariant.MULTIVIEW_IND: (
        "decf1536f6a3e593a35b40a7fd90d3e73bb6882eb414930c6f992b7b02c87a5e"
    ),
    LearnerVariant.ENSEMBLE_IND: (
        "1af290983c1100004c2ee4bca904c9d7697e83033128d200a8071599efc28c1e"
    ),
    LearnerVariant.COOPERATIVE_UNIFORM: (
        "ac993c2833ccf7e0b99420e96eb7d1c7b067f2d72001adfca0c7c120ea8bbb7c"
    ),
    LearnerVariant.COOPERATIVE_WEIGHTED: (
        "beec31e2adaee5435b7754da9fc1a684877f8fa17a9a24d47f223e29a2d90afb"
    ),
    LearnerVariant.MAX_ACCURACY_UPPER_BOUND: (
        "4481b6aab4def1f5784a40c5099c972bba62425e65e1acd8024be2568799e10a"
    ),
}


@pytest.fixture(scope="module")
def default_world():
    return generate_world(world_config(ExperimentConfig(), 0))


@pytest.mark.parametrize("variant", list(GOLDEN_DEFAULT_RECORDS), ids=lambda v: v.name)
def test_default_size_records_match_golden_digest(variant, default_world):
    loop = loop_config(ExperimentConfig())
    text = records_to_csv(run_experiment(variant, default_world, 3, loop))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DEFAULT_RECORDS[variant]


# Kernel sets below the AVX-512 ones the golden digests were recorded with.
# "baseline": numpy's dispatch targets above its x86-64-v2 baseline switched
# off, and OpenBLAS's SSE3 kernels in place of those it would pick for this
# CPU. "avx2": numpy's AVX-512 targets off, so its x86-64-v3 (AVX2) loops run,
# among them the float32 exp of the gradient descent, with OpenBLAS's AVX2
# kernels.
_KERNEL_SETS = {
    "baseline": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
        "OPENBLAS_CORETYPE": "Prescott",
    },
    "avx2": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
        "OPENBLAS_CORETYPE": "Haswell",
    },
}


@pytest.mark.parametrize("kernels", list(_KERNEL_SETS))
def test_records_do_not_depend_on_simd_or_blas_kernels(kernels):
    # The golden digests were recorded on an AVX-512 host. A fresh
    # interpreter held to other kernels (the variables are read once, when
    # numpy loads) must give the same records. It prints which of the
    # features are off, so a host where the variables change nothing shows
    # in the log.
    code = (
        "import hashlib, json, os\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as features\n"
        "names = os.environ['NPY_DISABLE_CPU_FEATURES'].split()\n"
        "print('off:', [n for n in names if not features.get(n)])\n"
        "print('on:', [n for n in names if features.get(n)])\n"
        "import test_harness as t\n"
        "def digest(variant, world, iterations, loop):\n"
        "    text = t.records_to_csv(t.run_experiment(variant, world, iterations, loop))\n"
        "    return hashlib.sha256(text.encode()).hexdigest()\n"
        "small = t.generate_world(t._small_config())\n"
        "digests = {v.name: digest(v, small, 6, t._FAST) for v in t.GOLDEN_RECORDS}\n"
        "default = t.generate_world(t.world_config(t.ExperimentConfig(), 0))\n"
        "loop = t.loop_config(t.ExperimentConfig())\n"
        "v = t.LearnerVariant.COOPERATIVE_UNIFORM\n"
        "digests['default ' + v.name] = digest(v, default, 3, loop)\n"
        "print(json.dumps(digests))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads, **_KERNEL_SETS[kernels], "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    print(done.stdout)
    assert done.returncode == 0, done.stderr
    expected = {variant.name: digest for variant, digest in GOLDEN_RECORDS.items()}
    variant = LearnerVariant.COOPERATIVE_UNIFORM
    expected["default " + variant.name] = GOLDEN_DEFAULT_RECORDS[variant]
    assert json.loads(done.stdout.splitlines()[-1]) == expected


# The CRF scores every pool here in one block of crf._BLOCK_ROWS rows. With
# blocks of 7 rows the same runs cross many block edges and must give the
# same records; the worker forks after the patch and inherits it.
_ODD_BLOCK = 7


@pytest.mark.parametrize("variant", list(GOLDEN_RECORDS), ids=lambda v: v.name)
def test_small_crf_blocks_match_golden_digest(variant, small_world, monkeypatch):
    monkeypatch.setattr(crf, "_BLOCK_ROWS", _ODD_BLOCK)
    text = records_to_csv(run_experiment(variant, small_world, 6, _FAST))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RECORDS[variant]


@pytest.mark.parametrize("variant", list(GOLDEN_DEFAULT_RECORDS), ids=lambda v: v.name)
def test_small_crf_blocks_match_default_size_golden_digest(variant, default_world, monkeypatch):
    monkeypatch.setattr(crf, "_BLOCK_ROWS", _ODD_BLOCK)
    loop = loop_config(ExperimentConfig())
    text = records_to_csv(run_experiment(variant, default_world, 3, loop))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DEFAULT_RECORDS[variant]


_WIDE = ExperimentConfig(unlabeled_per_category=1000, n_distractors=20000, transfers_per_category=5)

# SHA-256 of records_to_csv for 2 iterations of COOPERATIVE_WEIGHTED on the
# wide-pool world of seed 0 (the benchmark's wide_pool settings), recorded
# while the CRF still scored a whole pool in one block. Its ~20,000-row
# pools span several blocks.
GOLDEN_WIDE_POOL_RECORDS = "f3b69acc847b9c90669c1dafeb6807f87a93316fb8b3c8952b9aa88ed711355b"


def test_wide_pool_records_match_golden_digest():
    world = generate_world(world_config(_WIDE, 0))
    assert np.count_nonzero(world.domains[0].pool.split == UNLABELED) > 2 * crf._BLOCK_ROWS
    records = run_experiment(LearnerVariant.COOPERATIVE_WEIGHTED, world, 2, loop_config(_WIDE))
    text = records_to_csv(records)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WIDE_POOL_RECORDS


def _scoring_agent(n_rows, n_categories=10, n_attributes=10, dim=12, seed=0):
    """An attribute-aware agent's banks and matrix, and ``n_rows`` feature rows."""
    rng = np.random.default_rng(seed)
    run = SimpleNamespace(
        category_bank=CategoryModelBank(
            rng.normal(size=(dim, n_categories)), rng.normal(size=n_categories)
        ),
        attribute_bank=AttributeModelBank(
            rng.normal(size=(dim, n_attributes)), rng.normal(size=n_attributes)
        ),
        matrix=rng.uniform(0, 1, (n_attributes, n_categories)),
    )
    return run, rng.normal(scale=2.0, size=(n_rows, dim))


def test_agent_posterior_is_bit_identical_to_the_whole_array_average():
    block = crf._BLOCK_ROWS
    for n in (0, 1, block - 1, block, block + 1, 2 * block + 17):
        run, features = _scoring_agent(n, seed=n)
        p_fc = run.category_bank.posterior_batch(features)
        p_ac = crf.crf_posterior_batch(
            run.matrix, run.attribute_bank.probs_batch(features), 10
        )
        expected = 0.5 * (p_fc + p_ac)  # the earlier form, verbatim
        got = harness._agent_posterior(run, features, True, 10)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_agent_posterior_memory_is_bounded_by_its_output_and_one_block():
    n, width = 20_000, 10
    run, features = _scoring_agent(n)
    # Live at the peak: the feature posterior (which becomes the result), the
    # attribute unaries and the CRF posterior, each n x 10 floats, plus one
    # CRF block's scratch: five slabs of _BLOCK_ROWS x 10 floats and a
    # sixth's worth of row vectors and allocator slack.
    output = n * width * 8
    bound = 3 * output + 6 * crf._BLOCK_ROWS * width * 8
    tracemalloc.start()
    try:
        result = harness._agent_posterior(run, features, True, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.nbytes == output
    assert peak <= bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


def _world_digest(world) -> str:
    digest = hashlib.sha256()
    for domain in world.domains:
        for array, dtype in (
            (domain.ids, np.int64),
            (domain.features, np.float64),
            (domain.true_category, np.int64),
            (domain.true_bits, np.int8),
            (domain.pool.split, np.int8),
        ):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


# SHA-256 over each domain's ids, features, true categories, true bits and
# initial split codes (labeled 0, unlabeled 1, test 2), recorded from the
# earlier per-example world generator.
GOLDEN_WORLDS = {
    "small_world": "a7f2c7d4c8886f52c7563ee5677cf0cfc39f6fc24370c27a025223f6d9b767b5",
    "wide_pool": "ca95a4925dfc578304706c2d2e5b60d07f384061ab8d7dd4026b7ff4f01979ea",
    # An odd distractor count splits (n + 1) // 2 and n // 2; none leaves both blocks empty.
    "7 distractors": "13007b4b799dacaceccfc30fa37a5f52642b94c09b0f8c841f33030a7d0baa8c",
    "no distractors": "c8f10def8d772ac2122b541f151049527ac293ee719fb1aa1157903e2a5108c7",
}


@pytest.mark.parametrize("name", list(GOLDEN_WORLDS))
def test_world_arrays_match_golden_digest(name):
    if name == "small_world":
        config = _small_config()
    elif name == "7 distractors":
        config = _small_config(n_distractors=7)
    elif name == "no distractors":
        config = _small_config(n_distractors=0)
    else:
        wide = ExperimentConfig(unlabeled_per_category=1000, n_distractors=20000)
        config = world_config(wide, 0)
    assert _world_digest(generate_world(config)) == GOLDEN_WORLDS[name]


def test_run_experiment_never_builds_the_examples_view():
    world = generate_world(_small_config())
    for variant in LearnerVariant:
        run_experiment(variant, world, 5, LoopConfig(train=TrainConfig(max_iters=20)))
    assert all("examples" not in vars(domain) for domain in world.domains)
    domain = world.domains[1]
    view = domain.examples
    assert list(view) == domain.ids.tolist()
    assert [r.true_category for r in view.values()] == domain.true_category.tolist()
    assert all(view[i].id == i for i in view)


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_benchmark_tracer_finds_every_wrapped_name(small_world):
    # The benchmark's traced run wraps library names from outside; a renamed
    # one would only read zero there, so its contract is checked here.
    tracer = _benchmark_tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        with tracer.op(0):
            run_experiment(LearnerVariant.COOPERATIVE_WEIGHTED, small_world, 2)
        fits, rows, _ = tracer.fit_stats(TrainConfig())
        assert fits > 0 and rows > 0
        assert tracer.counts["linear.predict_calls"] > 0
    finally:
        tracer.restore()


def test_benchmark_tracer_counts_every_transfer_and_prune(forks):
    # The tracer counts the rows select_transfers and select_prunes return
    # and unpacks each transfer as (id, category); another return shape
    # would miscount there without failing.
    cfg = load_experiment_config(_PERFBENCH / "configs" / "tiny" / "trend.cfg")
    world = generate_world(world_config(cfg, 0))

    def traced_run():
        tracer = _benchmark_tracer()
        tracer.distractors = frozenset(np.concatenate(
            [domain.ids[domain.true_category == DISTRACTOR] for domain in world.domains]
        ).tolist())
        tracer.install()
        try:
            assert tracer.missing == []
            with tracer.op(1):
                records = run_experiment(
                    LearnerVariant.COOPERATIVE_UNIFORM, world, 6, loop_config(cfg)
                )
        finally:
            tracer.restore()
        return records, tracer.counts

    # Serially both agents select in the traced process.
    with _second_thread():
        records, counts = traced_run()
    agents = [metrics for record in records for metrics in record.agents]
    assert counts["transfer.chosen"] == sum(metrics.transfers for metrics in agents)
    assert counts["transfer.pruned"] == sum(metrics.prunes for metrics in agents)
    assert 0 < counts["transfer.distractors"] <= counts["transfer.chosen"]
    # Forked, agent 1 selects in the worker, which the tracer does not see.
    records, counts = traced_run()
    assert len(forks) == 1
    first = [record.agents[0] for record in records]
    assert counts["transfer.chosen"] == sum(metrics.transfers for metrics in first)
    assert counts["transfer.pruned"] == sum(metrics.prunes for metrics in first)
    assert 0 < counts["transfer.distractors"] <= counts["transfer.chosen"]
