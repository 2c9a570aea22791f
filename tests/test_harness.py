from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coopattr.config import ExperimentConfig, load_experiment_config, loop_config, world_config
from coopattr.pool import LABELED, TEST, UNASSIGNED, UNLABELED
from coopattr.synthetic import AgentDomain, SyntheticWorld


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
def test_cooperative_agents_exchange_catm_bytes(variant, small_world, monkeypatch):
    encode = harness.encode_message
    sent = []

    def recording_encode(msg):
        data = encode(msg)
        sent.append((msg.agent_id, msg.iteration, len(data)))
        return data

    monkeypatch.setattr(harness, "encode_message", recording_encode)
    run_experiment(variant, small_world, 4, _FAST)
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
    domains, test_orders = [], []
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
        test_orders.append(ids[splits == TEST])
        next_id += len(categories)
    return SyntheticWorld(config, (domains[0], domains[1]), np.stack(test_orders, axis=1))


def test_features_for_matches_stacked_examples():
    world = _cloned_world()
    domain = world.domains[1]
    ids = domain.ids.copy()
    np.random.default_rng(3).shuffle(ids)
    row_of = {ex_id: row for row, ex_id in enumerate(domain.ids.tolist())}
    expected = np.stack([domain.features[row_of[i]] for i in ids.tolist()])
    got = harness._features_for(domain, ids)
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


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


@pytest.mark.parametrize("level", [float("nan"), float("inf"), -0.5])
def test_noise_sweep_config_rejects_bad_level(level):
    from coopattr import NoiseStudyConfig, NoiseSweepConfig

    with pytest.raises(ConfigurationError):
        NoiseSweepConfig(study=NoiseStudyConfig(), levels=(0.5, level), n_seeds=1)


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
    aware = variant is not LearnerVariant.SSL_IND
    runs = [harness._AgentRun(domain) for domain in small_world.domains]
    with pytest.raises(TrainingError) as serial:
        harness._train_agents(runs, None, small_world, _FAST, aware, weighted=aware)
    with pytest.raises(TrainingError) as forked:
        run_experiment(variant, small_world, 3, _FAST)
    assert len(forks) == 1
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value)


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
    [("transfers_per_category", 0), ("prunes_per_category", 0), ("prune_every", -3)],
)
def test_loop_config_rejects_bad_value(field, value):
    with pytest.raises(ConfigurationError):
        LoopConfig(**{field: value})


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
}


@pytest.mark.parametrize("name", list(GOLDEN_WORLDS))
def test_world_arrays_match_golden_digest(name):
    if name == "small_world":
        config = _small_config()
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


_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def test_benchmark_tracer_counts_every_transfer_and_prune():
    # The tracer counts the rows select_transfers and select_prunes return
    # and unpacks each transfer as (id, category); another return shape
    # would miscount there without failing.
    cfg = load_experiment_config(_PERFBENCH / "configs" / "tiny" / "trend.cfg")
    world = generate_world(world_config(cfg, 0))
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
    agents = [metrics for record in records for metrics in record.agents]
    counts = tracer.counts
    assert counts["transfer.chosen"] == sum(metrics.transfers for metrics in agents)
    assert counts["transfer.pruned"] == sum(metrics.prunes for metrics in agents)
    assert 0 < counts["transfer.distractors"] <= counts["transfer.chosen"]
