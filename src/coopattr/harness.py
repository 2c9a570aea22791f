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
In the loop, agent 1 lives in the worker from the fork on and runs its
phases there while this process runs agent 0's; only the ``.catm`` bytes
and agent 1's record cross (``_InProcess`` runs agent 1 here otherwise).
In the noise study, the worker scores the later half of the seeds while this
process scores the earlier half, and its per-seed scores are appended after
this process's. Either way the results are the same as without the worker.

Variants:

* ``SSL_IND``: plain self-training per agent, feature-category view only.
* ``MULTIVIEW_IND``: adds the attribute view; scoring uses the mean of both
  views; no communication.
* ``ENSEMBLE_IND``: two SSL_IND learners whose test predictions average the
  two agents' feature-view posteriors, row by row of the test splits.
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

from .crf import crf_argmax_batch, crf_posterior_batch, estimate_matrix_from_labels
from .errors import ConfigurationError, StateError
from .linear import (
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
    _check_int,
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
        _check_int(self.transfers_per_category, "transfers_per_category", 1)
        _check_int(self.prunes_per_category, "prunes_per_category", 1)
        _check_int(self.prune_every, "prune_every (0 turns pruning off)", 0)


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
    _check_int(n_categories, "n_categories", 1)
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
    """Mutable per-agent loop state (internal).

    ``scratch`` holds ``_agent_posterior``'s three flat float64 buffers: the
    gathered features, then the attribute unaries (n x max(dim, M)); the
    scores, then the CRF posterior (n x max(N, M)); and the feature
    posterior, then the returned average (n x N), for n rows of a dim-wide
    domain, N categories and M attributes (M = 0 for an attribute-blind
    agent). They are made at the first scoring, in a loop the whole
    unlabeled pool, and each is replaced by a larger one only when a later
    pass needs more, so a run's later passes fault in no fresh pages.
    """

    __slots__ = ("domain", "pool", "category_bank", "attribute_bank", "matrix", "q", "scratch")

    def __init__(self, domain):
        self.domain = domain
        self.pool = domain.pool
        self.category_bank = None
        self.attribute_bank = None
        self.matrix = None
        self.q = None
        self.scratch = (np.empty(0),) * 3


def _fit_agent(run, world, features, categories, attributes, config: TrainConfig, weighted: bool):
    """Fit the category bank and, unless ``attributes`` is None, the attribute
    bank, then set the matrix and Q that derive from them."""
    n_cat, n_attr = world.config.n_categories, world.config.n_attributes
    if attributes is None:
        run.category_bank = train_category_bank(features, categories, n_cat, config)
        return
    run.category_bank, run.attribute_bank = train_banks(
        features, categories, attributes, n_cat, config
    )
    run.matrix = estimate_matrix_from_labels(categories, attributes, n_cat, n_attr)
    if weighted:
        pool, domain = run.pool, run.domain
        run.q = attribute_accuracy_arrays(
            run.attribute_bank, domain.features[pool.seed], domain.true_bits[pool.seed]
        )


def _train_agent(run, world, cfg: LoopConfig, aware: bool, weighted: bool):
    labeled = run.pool.split == LABELED
    features, categories = run.domain.features[labeled], run.pool.category[labeled]
    attributes = run.pool.bits[labeled] if aware else None
    _fit_agent(run, world, features, categories, attributes, cfg.train, weighted)


def _send(fd: int, message) -> None:
    view = memoryview(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))
    while view:
        view = view[os.write(fd, view):]


def _serve(requests: int, replies: int, bound: tuple) -> None:
    """The worker's loop: call each ``(function, args)`` request as
    ``function(*bound, *args)`` and reply with ``(True, value)`` or
    ``(False, error)``, until the parent closes its end of the request pipe."""
    with os.fdopen(requests, "rb") as reader:
        while True:
            try:
                function, args = pickle.load(reader)
            except EOFError:
                return
            try:
                reply = (True, function(*bound, *args))
            except Exception as error:  # re-raised by the parent, as the serial call raises it
                reply = (False, error)
            _send(replies, reply)


class _PeerWorker:
    """A forked process that does one share of the work while the caller does its own.

    Requests and replies are pickles on two pipes; only this process and its
    worker write them. A request is a module-level function (or an ``_Agent``
    method) and its arguments. The worker calls it after ``bound``, which it
    inherits at the fork and keeps, and replies with its value: in the loop
    ``bound`` is agent 1, whose message and record come back, and in the
    noise study it is empty and the later seeds' scores come back. It is the
    same code on the same bytes as in this process, so its bits are too.
    ``close`` must follow, in a ``finally``.
    """

    def __init__(self, *bound):
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
                _serve(request_r, reply_w, bound)
                status = 0
            finally:
                # Never return into the parent's code, nor run its exit handlers.
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self._reader = os.fdopen(self._replies, "rb")

    def submit(self, function, *args) -> None:
        """Have the worker call ``function(*bound, *args)``; ``result`` returns its value."""
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


class _InProcess:
    """``_PeerWorker``'s stand-in where forking is unsafe: ``result`` makes
    the submitted call in this process, on the same ``bound`` arguments."""

    def __init__(self, *bound):
        self._bound = bound

    def submit(self, function, *args) -> None:
        self._call = lambda: function(*self._bound, *args)

    def result(self):
        return self._call()

    def close(self) -> None:
        pass


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


def _agent_posterior(run, rows, aware: bool, n_categories: int):
    """The combined posteriors of the domain rows ``rows`` (indices in
    range, as ``np.flatnonzero`` gives them): the feature posterior, averaged
    with the CRF posterior of the attribute unaries when ``aware``.

    The unlabeled, prune and test passes all score here, in the three
    buffers of ``run.scratch`` (see ``_AgentRun``), each viewed as a
    C-contiguous (n, k) prefix. The gather goes into the first; the
    category scores into the second, their posterior into the third; the
    attribute scores into the second, their unaries into the first, whose
    features both products have read; the CRF posterior into the second;
    and the average into the third. Each matrix product covers every row of
    the pass, and every other step is elementwise or row-wise into its
    view, so the result has the bits of ``0.5 * (p_fc + p_ac)`` on freshly
    made arrays. The returned array is a view into the third buffer: it is
    valid until the next ``_agent_posterior`` call on ``run``.
    """
    features = run.domain.features
    n, dim = rows.size, features.shape[1]
    n_cat, n_attr = n_categories, run.attribute_bank.weights.shape[1] if aware else 0
    sizes = (n * max(dim, n_attr), n * max(n_cat, n_attr), n * n_cat)
    run.scratch = tuple(
        buffer if buffer.size >= size else np.empty(size)
        for buffer, size in zip(run.scratch, sizes)
    )
    gathered, scores, average = run.scratch

    def view(buffer, width):
        return buffer[: n * width].reshape(n, width)

    # "clip" keeps np.take from buffering its output; the rows are in range.
    x = np.take(features, rows, axis=0, out=view(gathered, dim), mode="clip")
    p_fc = run.category_bank.posterior_into(x, view(scores, n_cat), view(average, n_cat))
    if not aware:
        return p_fc
    unary = run.attribute_bank.probs_into(x, view(scores, n_attr), view(gathered, n_attr))
    p_ac = crf_posterior_batch(run.matrix, unary, n_cat, out=view(scores, n_cat))
    # The same bits as 0.5 * (p_fc + p_ac), in p_fc's own memory.
    p_fc += p_ac
    p_fc *= 0.5
    return p_fc


def _advance_agent(run, t: int, cfg: LoopConfig, aware: bool, n_categories: int):
    transfers = 0
    unlabeled = np.flatnonzero(run.pool.split == UNLABELED)
    if unlabeled.size:
        posteriors = _agent_posterior(run, unlabeled, aware, n_categories)
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
        posteriors = _agent_posterior(run, labeled, aware, n_categories)
        # Every labeled row is scored in one batch; seeds are never pruned.
        open_rows = ~pool.seed[labeled]
        rows = labeled[open_rows]
        pruned = select_prunes(
            pool.ids[rows], pool.category[rows], posteriors[open_rows], cfg.prunes_per_category
        )
        run.pool = prune_from_labeled(pool, pruned)
        prunes = pruned.size
    return transfers, prunes


def _agent_metrics(run, aware: bool, n_categories: int, moved=(0, 0)):
    """One agent's record, given its ``moved`` (transfers, prunes) counts, and
    a copy of the posteriors over its test split that score the record's
    accuracy. Attribute accuracy is None for attribute-blind agents."""
    domain = run.domain
    test = np.flatnonzero(run.pool.split == TEST)
    posteriors = _agent_posterior(run, test, aware, n_categories)
    accuracy = compute_class_average_accuracy(
        np.argmax(posteriors, axis=1), domain.true_category[test], n_categories
    )
    attribute_accuracy = None
    if aware:
        rates = attribute_accuracy_arrays(
            run.attribute_bank, domain.features[test], domain.true_bits[test]
        )
        attribute_accuracy = tuple(rates.tolist())
    transfers, prunes = moved
    purity = compute_purity(run.pool, domain.true_category)
    return AgentMetrics(accuracy, purity, attribute_accuracy, transfers, prunes), posteriors.copy()


class _Agent:
    """One agent of a looping run and the two phases of its iteration,
    which read nothing of the peer but its ``.catm`` bytes."""

    def __init__(self, index: int, world, variant: LearnerVariant, cfg: LoopConfig):
        self.index, self.world, self.cfg = index, world, cfg
        self.run = _AgentRun(world.domains[index])
        self.aware = variant in _ATTRIBUTE_AWARE
        self.weighted = variant is LearnerVariant.COOPERATIVE_WEIGHTED
        self.cooperative = self.weighted or variant is LearnerVariant.COOPERATIVE_UNIFORM
        self.ensemble = variant is LearnerVariant.ENSEMBLE_IND

    def train(self, t: int) -> bytes | None:
        """Fit on the labeled pool; a cooperative agent returns its message."""
        _train_agent(self.run, self.world, self.cfg, self.aware, self.weighted)
        if self.cooperative:
            return encode_message(MatrixMessage(self.index, t, self.run.matrix, self.run.q))
        return None

    def advance(self, t: int, received: bytes | None):
        """Fuse the peer's message, if there is one, then transfer and prune.
        Returns this iteration's record and, for the ensemble, the posteriors
        over this agent's test split, whose average with the peer's gives the
        ensemble's accuracy."""
        run, n_categories = self.run, self.world.config.n_categories
        if received is not None:
            msg = decode_message(received)
            if self.weighted:
                run.matrix = fuse_weighted((run.matrix, run.q), [(msg.matrix, msg.accuracy_vector)])
            else:
                run.matrix = fuse_uniform(run.matrix, [msg.matrix])
        moved = _advance_agent(run, t, self.cfg, self.aware, n_categories)
        metrics, posteriors = _agent_metrics(run, self.aware, n_categories, moved)
        return metrics, posteriors if self.ensemble else None


def _ensemble_accuracy(world, p0, p1) -> float:
    first = world.domains[0]
    truths = first.true_category[first.pool.split == TEST]
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
        _fit_agent(run, world, domain.features[rows], categories, attributes, cfg.train, False)
        metrics.append(_agent_metrics(run, True, n_cat)[0])
    frozen = tuple(metrics)
    return [IterationRecord(iteration=t, agents=frozen) for t in range(1, iterations + 1)]


def run_experiment(
    variant: LearnerVariant,
    world: SyntheticWorld,
    iterations: int,
    config: LoopConfig | None = None,
) -> list[IterationRecord]:
    """Run one learner variant on one world and return per-iteration metrics."""
    _check_int(iterations, "iterations", 1)
    cfg = config or LoopConfig()
    if variant is LearnerVariant.MAX_ACCURACY_UPPER_BOUND:
        return _run_upper_bound(world, iterations, cfg)
    # Agent 1 runs in the worker where forking is safe. In each phase its call
    # goes out, agent 0's runs here, and then its reply is read, so an error
    # of agent 0's comes first, as when one process runs both.
    own, peer = (_Agent(k, world, variant, cfg) for k in (0, 1))
    worker = _PeerWorker(peer) if _fork_is_safe() else _InProcess(peer)
    records = []
    try:
        for t in range(1, iterations + 1):
            worker.submit(_Agent.train, t)
            sent = own.train(t)
            received = worker.result()
            worker.submit(_Agent.advance, t, sent)
            (first, p0), (second, p1) = own.advance(t, received), worker.result()
            if own.ensemble:
                accuracy = _ensemble_accuracy(world, p0, p1)
                first, second = (replace(m, accuracy=accuracy) for m in (first, second))
            records.append(IterationRecord(iteration=t, agents=(first, second)))
    finally:
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
        object.__setattr__(self, "levels", tuple(self.levels))  # not the caller's list
        _check_sweep_size(len(self.levels), self.n_seeds)
        for level in self.levels:
            check_noise_std(level)


def _check_sweep_size(n_levels, n_seeds) -> None:
    """Refuse a sweep without a whole, positive number of levels and of seeds."""
    _check_int(n_levels, "a sweep's noise level count", 1)
    _check_int(n_seeds, "a sweep's seed count", 1)


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
    _check_sweep_size(n_levels, n_seeds)
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
                own_preds = crf_argmax_batch(matrices[agent], unary, n_cat)
                fused_preds = crf_argmax_batch(fused, unary, n_cat)
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
    half = n - n // 2
    worker = _PeerWorker() if n >= 2 and _fork_is_safe() else _InProcess()
    try:
        worker.submit(_score_noise_seeds, sweep, range(half, n))
        scores = _score_noise_seeds(sweep, range(half))
        for own, theirs in zip(scores, worker.result()):
            for values, later in zip(own, theirs):
                values.extend(later)
    finally:
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
