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
from dataclasses import dataclass, replace
from statistics import fmean

import numpy as np

from .crf import crf_posterior_batch, estimate_matrix_from_labels
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
    predictions = np.asarray(predictions, dtype=int)
    truths = np.asarray(truths, dtype=int)
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


def _train_agent(run, world, cfg: LoopConfig, aware: bool, weighted: bool):
    n_cat = world.config.n_categories
    n_attr = world.config.n_attributes
    pool, domain = run.pool, run.domain
    labeled = pool.split == LABELED
    features, categories = domain.features[labeled], pool.category[labeled]
    if not aware:
        run.category_bank = train_category_bank(features, categories, n_cat, cfg.train)
    else:
        attributes = pool.bits[labeled]
        run.category_bank, run.attribute_bank = train_banks(
            features, categories, attributes, n_cat, cfg.train
        )
        run.matrix = estimate_matrix_from_labels(categories, attributes, n_cat, n_attr)
        if weighted:
            run.q = attribute_accuracy_arrays(
                run.attribute_bank, domain.features[pool.seed], domain.true_bits[pool.seed]
            )


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


def _agent_test_metrics(run, aware: bool, n_categories: int):
    domain = run.domain
    test = run.pool.split == TEST
    features = domain.features[test]
    posteriors = _agent_posterior(run, features, aware, n_categories)
    accuracy = compute_class_average_accuracy(
        np.argmax(posteriors, axis=1), domain.true_category[test], n_categories
    )
    attribute_accuracy = None
    if aware:
        attribute_accuracy = tuple(
            float(v)
            for v in attribute_accuracy_arrays(
                run.attribute_bank, features, domain.true_bits[test]
            )
        )
    return accuracy, attribute_accuracy


def _ensemble_test_accuracy(runs, world) -> float:
    n_categories = world.config.n_categories
    pairs = world.paired_test_ids
    mean_posterior = None
    for agent, run in enumerate(runs):
        posterior = run.category_bank.posterior_batch(_features_for(run.domain, pairs[:, agent]))
        mean_posterior = posterior if mean_posterior is None else mean_posterior + posterior
    mean_posterior /= len(runs)
    first = runs[0].domain
    truths = first.true_category[np.searchsorted(first.ids, pairs[:, 0])]
    return compute_class_average_accuracy(
        np.argmax(mean_posterior, axis=1), truths, n_categories
    )


def _run_upper_bound(world, iterations: int, cfg: LoopConfig) -> list[IterationRecord]:
    n_cat = world.config.n_categories
    n_attr = world.config.n_attributes
    metrics = []
    for domain in world.domains:
        rows = (domain.pool.split != TEST) & (domain.true_category != DISTRACTOR)
        categories = domain.true_category[rows]
        attributes = domain.true_bits[rows]
        run = _AgentRun(domain)
        run.category_bank, run.attribute_bank = train_banks(
            domain.features[rows], categories, attributes, n_cat, cfg.train
        )
        run.matrix = estimate_matrix_from_labels(categories, attributes, n_cat, n_attr)
        accuracy, attribute_accuracy = _agent_test_metrics(run, True, n_cat)
        purity = compute_purity(domain.pool, domain.true_category)
        metrics.append(
            AgentMetrics(
                accuracy=accuracy,
                purity=purity,
                attribute_accuracy=attribute_accuracy,
                transfers=0,
                prunes=0,
            )
        )
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
    n_categories = world.config.n_categories
    runs = [_AgentRun(domain) for domain in world.domains]
    records = []
    for t in range(1, iterations + 1):
        for run in runs:
            _train_agent(run, world, cfg, aware, weighted)
        if cooperative:
            sent = [
                encode_message(MatrixMessage(k, t, run.matrix, run.q))
                for k, run in enumerate(runs)
            ]
            for k, run in enumerate(runs):
                peer = decode_message(sent[1 - k])
                if weighted:
                    run.matrix = fuse_weighted(
                        (run.matrix, run.q), [(peer.matrix, peer.accuracy_vector)]
                    )
                else:
                    run.matrix = fuse_uniform(run.matrix, [peer.matrix])
        moved = [_advance_agent(run, t, cfg, aware, n_categories) for run in runs]
        ensemble_accuracy = (
            _ensemble_test_accuracy(runs, world)
            if variant is LearnerVariant.ENSEMBLE_IND
            else None
        )
        agent_metrics = []
        for run, (transfers, prunes) in zip(runs, moved):
            if ensemble_accuracy is None:
                accuracy, attribute_accuracy = _agent_test_metrics(run, aware, n_categories)
            else:
                accuracy, attribute_accuracy = ensemble_accuracy, None
            agent_metrics.append(
                AgentMetrics(
                    accuracy=accuracy,
                    purity=compute_purity(run.pool, run.domain.true_category),
                    attribute_accuracy=attribute_accuracy,
                    transfers=transfers,
                    prunes=prunes,
                )
            )
        records.append(IterationRecord(iteration=t, agents=tuple(agent_metrics)))
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


def run_noise_study(sweep: NoiseSweepConfig) -> list[NoiseLevelResult]:
    """Matrix-only classification accuracy, own matrix vs the fused matrix.

    Per seed, each agent estimates its matrix from its own small
    human-annotated labeled set. At each level it then classifies the shared
    test set from its own noisy attribute predictions, once with its own matrix
    (baseline) and once with the two agents' fused matrix (cooperative).
    Feature models play no role here. Results average over agents and seeds.
    """
    study = sweep.study
    n_cat, n_attr = study.n_categories, study.n_attributes
    good_columns = good_attribute_mask(study)
    # Per level: baseline, cooperative, good and bad accuracy, seed-major and
    # agent-minor. Only the predictions depend on the level, so each seed's
    # dataset and matrices are made once and serve every level.
    scores = [([], [], [], []) for _ in sweep.levels]
    for k in range(sweep.n_seeds):
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
