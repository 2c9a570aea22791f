"""The bootstrap iteration loop for every learner variant, plus metrics.

Loop order within one iteration is fixed: train models on the current labeled
pool, exchange and fuse matrices at the communication barrier (cooperative
variants only), score the unlabeled pool, transfer, prune on schedule, then
record metrics. Runs are fully deterministic: the same variant, world, and
config always produce identical records.

At the barrier each cooperative agent sends its matrix, plus its accuracy
vector Q for weighted fusion, as one ``encode_message`` byte string (the
``.catm`` wire format), and fuses its own matrix with the
``decode_message`` of its peer's bytes. The float64 round trip is exact.

Where forking is safe (``_fork_is_safe``: Linux, one thread in the
process), work is split with one forked worker process (``_PeerWorker``).
In the loop, each iteration the worker fits agent 1's banks while this
process fits agent 0's; everything else, the barrier included, runs here in
the same order as the serial loop that runs otherwise. In the noise study,
the worker scores the later half of the seeds while this process scores the
earlier half, and its per-seed scores are appended after this process's.
Either way the results are the same as without the worker.

Variants:

* ``SSL_IND``: plain self-training per agent, feature-category view only.
* ``MULTIVIEW_IND``: adds the attribute view; scoring uses the mean of both
  views; no communication.
* ``ENSEMBLE_IND``: two SSL_IND learners whose test predictions average the
  two agents' feature-view posteriors over paired test examples.
* ``COOPERATIVE_UNIFORM``: multi-view plus entrywise mean fusion of the two
  agents' matrices each iteration.
* ``COOPERATIVE_WEIGHTED``: multi-view plus per-attribute row overwrite by
  attribute-classifier reliability measured on the original seed set.
* ``MAX_ACCURACY_UPPER_BOUND``: the multi-view learner trained once, fully
  supervised, on the labeled and unlabeled pools with ground-truth labels.
"""
from __future__ import annotations

import enum
import os
import pickle
from dataclasses import dataclass, replace
from statistics import fmean

import numpy as np

from .crf import crf_posterior_batch, estimate_matrix_from_labels
from .errors import ConfigurationError, StateError
from .linear import (
    AttributeModelBank,
    CategoryModelBank,
    TrainConfig,
    attribute_accuracy_arrays,
    train_banks,
    train_category_bank,
)
from .messages import MatrixMessage, decode_message, encode_message, fuse_uniform, fuse_weighted
from .pool import (
    DISTRACTOR,
    LABELED,
    TEST,
    UNASSIGNED,
    UNLABELED,
    PoolState,
    _int_array,
    move_to_labeled,
    prune_from_labeled,
)
from .synthetic import (
    NoiseStudyConfig,
    SyntheticWorld,
    calibrate_noise_std,
    check_accuracy_targets,
    check_noise_std,
    generate_noise_dataset,
    good_attribute_mask,
)
from .transfer import derive_attribute_labels, select_prunes, select_transfers

class LearnerVariant(enum.Enum):
    SSL_IND = "SSL_IND"
    MULTIVIEW_IND = "MULTIVIEW_IND"
    ENSEMBLE_IND = "ENSEMBLE_IND"
    COOPERATIVE_UNIFORM = "COOPERATIVE_UNIFORM"
    COOPERATIVE_WEIGHTED = "COOPERATIVE_WEIGHTED"
    MAX_ACCURACY_UPPER_BOUND = "MAX_ACCURACY_UPPER_BOUND"


_ATTRIBUTE_AWARE = {
    LearnerVariant.MULTIVIEW_IND,
    LearnerVariant.COOPERATIVE_UNIFORM,
    LearnerVariant.COOPERATIVE_WEIGHTED,
}


@dataclass(frozen=True)
class LoopConfig:
    transfers_per_category: int = 2
    prunes_per_category: int = 6
    prune_every: int = 5
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        if self.transfers_per_category < 1:
            raise ConfigurationError("transfers_per_category must be at least 1")
        if self.prunes_per_category < 1:
            raise ConfigurationError("prunes_per_category must be at least 1")
        if self.prune_every < 0:
            raise ConfigurationError("prune_every must be non-negative (0 turns pruning off)")


@dataclass(frozen=True)
class AgentMetrics:
    accuracy: float
    purity: float
    attribute_accuracy: tuple[float, ...] | None
    transfers: int
    prunes: int


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    agents: tuple[AgentMetrics, ...]


CSV_COLUMNS = ("iteration", "agent", "accuracy", "purity", "attr_acc_mean", "transfers", "prunes")


def compute_purity(pool: PoolState, true_category) -> float:
    """Fraction of the labeled pool whose assigned category matches ground truth.

    ``true_category`` holds one true category per pool row. Distractors never
    match; seeds match by construction.
    """
    labeled = pool.split == LABELED
    count = int(np.count_nonzero(labeled))
    if not count:
        raise StateError("purity is undefined for an empty labeled pool")
    assigned = pool.category[labeled]
    unassigned = assigned == UNASSIGNED
    if unassigned.any():
        raise StateError(f"labeled example {pool.ids[labeled][unassigned][0]} has no assignment")
    return int(np.count_nonzero(assigned == np.asarray(true_category)[labeled])) / count


def compute_class_average_accuracy(predictions, truths, n_categories: int) -> float:
    """Mean over categories of the per-category test accuracy."""
    predictions = _int_array(predictions, "predictions")
    truths = _int_array(truths, "truths")
    if predictions.shape != truths.shape:
        raise ConfigurationError("predictions and truths differ in length")
    if truths.size == 0 or truths.min() < 0 or truths.max() >= n_categories:
        raise ConfigurationError("every truth must be one of the target categories")
    counts = np.bincount(truths, minlength=n_categories)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ConfigurationError(f"category {missing[0]} has no test examples")
    hits = np.bincount(truths[predictions == truths], minlength=n_categories)
    return fmean((hits / counts).tolist())


class _AgentRun:
    """Mutable per-agent loop state (internal)."""

    __slots__ = ("domain", "pool", "category_bank", "attribute_bank", "matrix", "q")

    def __init__(self, domain):
        self.domain = domain
        self.pool = domain.pool
        self.category_bank = None
        self.attribute_bank = None
        self.matrix = None
        self.q = None


def _features_for(domain, ids):
    return domain.features[np.searchsorted(domain.ids, ids)]


def _labeled_rows(run, aware: bool):
    """The features, categories and (attribute-aware variants only) bits of
    the agent's labeled rows, in id order; the bits are None otherwise."""
    pool = run.pool
    labeled = pool.split == LABELED
    bits = pool.bits[labeled] if aware else None
    return run.domain.features[labeled], pool.category[labeled], bits


def _fit_banks(features, categories, attributes, n_categories: int, config: TrainConfig):
    """The category bank, and the attribute bank unless ``attributes`` is None."""
    if attributes is None:
        return (train_category_bank(features, categories, n_categories, config),)
    return train_banks(features, categories, attributes, n_categories, config)


def _fit_bank_arrays(features, categories, attributes, n_categories: int, config: TrainConfig):
    """``_fit_banks``'s banks as their (weights, bias) pairs, the form that
    crosses the process boundary."""
    banks = _fit_banks(features, categories, attributes, n_categories, config)
    return [(bank.weights, bank.bias) for bank in banks]


def _set_banks(run, world, banks, categories, attributes, weighted: bool):
    """Install freshly fitted banks, then the matrix and Q that derive from them."""
    run.category_bank = banks[0]
    if attributes is None:
        return
    run.attribute_bank = banks[1]
    n_cat, n_attr = world.config.n_categories, world.config.n_attributes
    run.matrix = estimate_matrix_from_labels(categories, attributes, n_cat, n_attr)
    if weighted:
        pool, domain = run.pool, run.domain
        run.q = attribute_accuracy_arrays(
            run.attribute_bank, domain.features[pool.seed], domain.true_bits[pool.seed]
        )


def _train_agent(run, world, cfg: LoopConfig, aware: bool, weighted: bool):
    features, categories, attributes = _labeled_rows(run, aware)
    banks = _fit_banks(features, categories, attributes, world.config.n_categories, cfg.train)
    _set_banks(run, world, banks, categories, attributes, weighted)


def _send(fd: int, message) -> None:
    view = memoryview(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view):]


def _serve(requests: int, replies: int) -> None:
    """The worker's loop: call each ``(function, args)`` request and reply
    with ``(True, value)`` or ``(False, error)``, until the parent closes its
    end of the request pipe."""
    with os.fdopen(requests, "rb") as reader:
        while True:
            try:
                function, args = pickle.load(reader)
            except EOFError:
                return
            try:
                reply = (True, function(*args))
            except Exception as error:  # re-raised by the parent, as the serial call raises it
                reply = (False, error)
            _send(replies, reply)


class _PeerWorker:
    """A forked process that does one share of the work while the caller does its own.

    Requests and replies are pickles on two pipes; only this process and its
    worker write them. A request is a module-level function and its
    arguments, and the reply is that function's value: the peer agent's
    ``_fit_bank_arrays`` in the loop, the later seeds' ``_score_noise_seeds``
    in the noise study. It is the same code on the same bytes as in this
    process, so its bits are too. ``close`` must follow, in a ``finally``.
    """

    def __init__(self):
        request_r, self._requests = os.pipe()
        self._replies, reply_w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:
            for fd in (request_r, self._requests, self._replies, reply_w):
                os.close(fd)
            raise
        if self._pid == 0:
            status = 1
            try:
                # The parent's uncollected cycles are its to finalize, not the
                # worker's (a temporary file's finalizer deletes the file).
                import gc

                gc.disable()
                os.close(self._requests)
                os.close(self._replies)
                _serve(request_r, reply_w)
                status = 0
            finally:
                # Never return into the parent's code, nor run its exit handlers.
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self._reader = os.fdopen(self._replies, "rb")

    def submit(self, function, *args) -> None:
        """Have the worker call ``function(*args)``; ``result`` returns its value."""
        try:
            _send(self._requests, (function, args))
        except BrokenPipeError as exc:
            raise StateError("the forked worker has exited") from exc

    def result(self):
        """The value of the last request, or the error it raised."""
        try:
            ok, value = pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise StateError("the forked worker exited before it replied") from exc
        if not ok:
            raise value
        return value

    def close(self) -> None:
        """Kill and reap the worker. It holds nothing worth saving, and a
        killed worker cannot keep the wait from returning."""
        import signal  # here, so that ``import coopattr`` does not load it

        try:
            os.close(self._requests)
            self._reader.close()
        finally:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)


def _fork_is_safe() -> bool:
    """Whether ``run_experiment`` and ``run_noise_study`` may fork their
    worker: the system lists this process's threads in /proc (Linux), and
    there is one. A forked child copies the locks that other threads hold but
    not the threads that would release them, and from Python 3.12 ``os.fork``
    warns in a process with more threads (an unpinned OpenBLAS keeps a pool)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _train_agents(runs, worker, world, cfg: LoopConfig, aware: bool, weighted: bool):
    """Train both agents: one after the other, or with agent 1's fit in
    ``worker`` while agent 0's runs here. A peer error surfaces after any
    error of agent 0, as in the serial loop."""
    own, peer = runs
    if worker is None:
        _train_agent(own, world, cfg, aware, weighted)
        _train_agent(peer, world, cfg, aware, weighted)
        return
    features, categories, attributes = _labeled_rows(peer, aware)
    worker.submit(
        _fit_bank_arrays, features, categories, attributes, world.config.n_categories, cfg.train
    )
    _train_agent(own, world, cfg, aware, weighted)
    banks = tuple(
        kind(weights, bias)
        for kind, (weights, bias) in zip((CategoryModelBank, AttributeModelBank), worker.result())
    )
    _set_banks(peer, world, banks, categories, attributes, weighted)


def _agent_posterior(run, features, aware: bool, n_categories: int):
    p_fc = run.category_bank.posterior_batch(features)
    if not aware:
        return p_fc
    unary = run.attribute_bank.probs_batch(features)
    p_ac = crf_posterior_batch(run.matrix, unary, n_categories)
    return 0.5 * (p_fc + p_ac)


def _advance_agent(run, t: int, cfg: LoopConfig, aware: bool, n_categories: int):
    features = run.domain.features
    transfers = 0
    unlabeled = np.flatnonzero(run.pool.split == UNLABELED)
    if unlabeled.size:
        posteriors = _agent_posterior(run, features[unlabeled], aware, n_categories)
        chosen = select_transfers(
            run.pool.ids[unlabeled], posteriors, cfg.transfers_per_category
        )
        ids, categories = chosen.T
        bits = derive_attribute_labels(run.matrix, categories) if aware else 0
        run.pool = move_to_labeled(run.pool, ids, categories, bits)
        transfers = ids.size
    prunes = 0
    if cfg.prune_every > 0 and t % cfg.prune_every == 0:
        pool = run.pool
        labeled = np.flatnonzero(pool.split == LABELED)
        posteriors = _agent_posterior(run, features[labeled], aware, n_categories)
        # Every labeled row is scored in one batch; seeds are never pruned.
        open_rows = ~pool.seed[labeled]
        rows = labeled[open_rows]
        pruned = select_prunes(
            pool.ids[rows], pool.category[rows], posteriors[open_rows], cfg.prunes_per_category
        )
        run.pool = prune_from_labeled(pool, pruned)
        prunes = pruned.size
    return transfers, prunes


def _agent_metrics(run, aware: bool, n_categories: int, moved=(0, 0), accuracy=None):
    """One agent's record, given its ``moved`` (transfers, prunes) counts. Its
    own posteriors score the test set unless ``accuracy`` (the ensemble's) is
    given; attribute accuracy is None then, and for attribute-blind agents."""
    domain = run.domain
    attribute_accuracy = None
    if accuracy is None:
        test = run.pool.split == TEST
        features = domain.features[test]
        posteriors = _agent_posterior(run, features, aware, n_categories)
        accuracy = compute_class_average_accuracy(
            np.argmax(posteriors, axis=1), domain.true_category[test], n_categories
        )
        if aware:
            rates = attribute_accuracy_arrays(run.attribute_bank, features, domain.true_bits[test])
            attribute_accuracy = tuple(rates.tolist())
    transfers, prunes = moved
    purity = compute_purity(run.pool, domain.true_category)
    return AgentMetrics(accuracy, purity, attribute_accuracy, transfers, prunes)


def _ensemble_test_accuracy(runs, world) -> float:
    pairs = world.paired_test_ids
    p0, p1 = (
        run.category_bank.posterior_batch(_features_for(run.domain, pairs[:, agent]))
        for agent, run in enumerate(runs)
    )
    first = runs[0].domain
    truths = first.true_category[np.searchsorted(first.ids, pairs[:, 0])]
    return compute_class_average_accuracy(
        np.argmax((p0 + p1) / 2, axis=1), truths, world.config.n_categories
    )


def _run_upper_bound(world, iterations: int, cfg: LoopConfig) -> list[IterationRecord]:
    n_cat = world.config.n_categories
    metrics = []
    for domain in world.domains:
        rows = (domain.pool.split != TEST) & (domain.true_category != DISTRACTOR)
        categories, attributes = domain.true_category[rows], domain.true_bits[rows]
        run = _AgentRun(domain)
        banks = _fit_banks(domain.features[rows], categories, attributes, n_cat, cfg.train)
        _set_banks(run, world, banks, categories, attributes, weighted=False)
        metrics.append(_agent_metrics(run, True, n_cat))
    frozen = tuple(metrics)
    return [IterationRecord(iteration=t, agents=frozen) for t in range(1, iterations + 1)]


def run_experiment(
    variant: LearnerVariant,
    world: SyntheticWorld,
    iterations: int,
    config: LoopConfig | None = None,
) -> list[IterationRecord]:
    """Run one learner variant on one world and return per-iteration metrics."""
    if iterations < 1:
        raise ConfigurationError("iterations must be at least 1")
    cfg = config or LoopConfig()
    if variant is LearnerVariant.MAX_ACCURACY_UPPER_BOUND:
        return _run_upper_bound(world, iterations, cfg)
    aware = variant in _ATTRIBUTE_AWARE
    weighted = variant is LearnerVariant.COOPERATIVE_WEIGHTED
    cooperative = weighted or variant is LearnerVariant.COOPERATIVE_UNIFORM
    ensemble = variant is LearnerVariant.ENSEMBLE_IND
    n_categories = world.config.n_categories
    runs = [_AgentRun(domain) for domain in world.domains]
    records = []
    worker = _PeerWorker() if _fork_is_safe() else None
    try:
        for t in range(1, iterations + 1):
            _train_agents(runs, worker, world, cfg, aware, weighted)
            if cooperative:
                sent = [
                    encode_message(MatrixMessage(k, t, run.matrix, run.q))
                    for k, run in enumerate(runs)
                ]
                for k, run in enumerate(runs):
                    received = decode_message(sent[1 - k])
                    if weighted:
                        run.matrix = fuse_weighted(
                            (run.matrix, run.q), [(received.matrix, received.accuracy_vector)]
                        )
                    else:
                        run.matrix = fuse_uniform(run.matrix, [received.matrix])
            moved = [_advance_agent(run, t, cfg, aware, n_categories) for run in runs]
            accuracy = _ensemble_test_accuracy(runs, world) if ensemble else None
            agents = tuple(
                _agent_metrics(run, aware, n_categories, m, accuracy)
                for run, m in zip(runs, moved)
            )
            records.append(IterationRecord(iteration=t, agents=agents))
    finally:
        if worker is not None:
            worker.close()
    return records


def records_to_csv(records) -> str:
    """Canonical CSV rendering; identical runs produce byte-identical text."""
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        for agent, m in enumerate(record.agents):
            attr_mean = "" if m.attribute_accuracy is None else repr(fmean(m.attribute_accuracy))
            lines.append(
                f"{record.iteration},{agent},{m.accuracy!r},{m.purity!r},"
                f"{attr_mean},{m.transfers},{m.prunes}"
            )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NoiseSweepConfig:
    study: NoiseStudyConfig
    levels: tuple[float, ...]
    n_seeds: int = 20

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ConfigurationError("sweep needs at least one noise level")
        for level in self.levels:
            check_noise_std(level)
        if self.n_seeds < 1:
            raise ConfigurationError("sweep needs at least one seed")


@dataclass(frozen=True)
class NoiseLevelResult:
    good_noise_std: float
    baseline_accuracy: float
    cooperative_accuracy: float
    good_attribute_accuracy: float
    bad_attribute_accuracy: float

    @property
    def margin(self) -> float:
        return self.cooperative_accuracy - self.baseline_accuracy


def default_noise_sweep(
    n_levels: int = 6,
    n_seeds: int = 20,
    rng_seed: int = 0,
    good_accuracy_target: float = 0.92,
    bad_accuracy_target: float = 0.575,
    study: NoiseStudyConfig | None = None,
) -> NoiseSweepConfig:
    """Sweep whose lowest level hits the target good/bad accuracy bands and whose
    highest level makes all attributes equally bad. The returned study takes
    ``rng_seed``, which also seeds the calibration, and the calibrated
    ``bad_noise_std``; its other fields come from ``study``."""
    check_accuracy_targets(good_accuracy_target, bad_accuracy_target)
    sigma_good = calibrate_noise_std(good_accuracy_target, rng_seed=rng_seed)
    sigma_bad = calibrate_noise_std(bad_accuracy_target, rng_seed=rng_seed)
    base = replace(study or NoiseStudyConfig(), rng_seed=rng_seed, bad_noise_std=sigma_bad)
    levels = tuple(float(s) for s in np.linspace(sigma_good, sigma_bad, n_levels))
    return NoiseSweepConfig(study=base, levels=levels, n_seeds=n_seeds)


def _score_noise_seeds(sweep: NoiseSweepConfig, seeds) -> list[tuple[list, list, list, list]]:
    """Per level, the baseline, cooperative, good and bad accuracy lists of
    ``seeds`` (offsets from the study's ``rng_seed``), seed-major and
    agent-minor."""
    study = sweep.study
    n_cat, n_attr = study.n_categories, study.n_attributes
    good_columns = good_attribute_mask(study)
    # Only the predictions depend on the level, so each seed's dataset and
    # matrices are made once and serve every level.
    scores = [([], [], [], []) for _ in sweep.levels]
    for k in seeds:
        data = generate_noise_dataset(replace(study, rng_seed=study.rng_seed + k))
        matrices = [
            estimate_matrix_from_labels(
                data.labeled_categories[agent], data.labeled_attributes[agent], n_cat, n_attr
            )
            for agent in (0, 1)
        ]
        fused = fuse_uniform(matrices[0], [matrices[1]])
        truth = data.test_attributes.astype(bool)
        for level, (baseline, cooperative, good_acc, bad_acc) in zip(sweep.levels, scores):
            predictions = data.predictions(study, float(level))
            for agent in (0, 1):
                unary = predictions[agent]
                own_preds = np.argmax(crf_posterior_batch(matrices[agent], unary, n_cat), axis=1)
                fused_preds = np.argmax(crf_posterior_batch(fused, unary, n_cat), axis=1)
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


def run_noise_study(sweep: NoiseSweepConfig) -> list[NoiseLevelResult]:
    """Matrix-only classification accuracy, own matrix vs the fused matrix.

    Per seed, each agent estimates its matrix from its own small
    human-annotated labeled set. At each level it then classifies the shared
    test set from its own noisy attribute predictions, once with its own matrix
    (baseline) and once with the two agents' fused matrix (cooperative).
    Feature models play no role here. Results average over agents and seeds.

    Where forking is safe and there are at least two seeds, a forked worker
    scores seeds ``[n - n // 2, n)`` while this process scores the rest;
    its scores follow this process's, so every average sees the serial order.
    """
    n = sweep.n_seeds
    worker = _PeerWorker() if n >= 2 and _fork_is_safe() else None
    try:
        if worker is None:
            scores = _score_noise_seeds(sweep, range(n))
        else:
            half = n - n // 2
            worker.submit(_score_noise_seeds, sweep, range(half, n))
            scores = _score_noise_seeds(sweep, range(half))
            for own, theirs in zip(scores, worker.result()):
                for values, later in zip(own, theirs):
                    values.extend(later)
    finally:
        if worker is not None:
            worker.close()
    return [
        NoiseLevelResult(
            good_noise_std=float(level),
            baseline_accuracy=fmean(baseline),
            cooperative_accuracy=fmean(cooperative),
            good_attribute_accuracy=fmean(good_acc),
            bad_attribute_accuracy=fmean(bad_acc),
        )
        for level, (baseline, cooperative, good_acc, bad_acc) in zip(sweep.levels, scores)
    ]
