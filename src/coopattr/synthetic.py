"""Synthetic data generation: the two-domain bootstrap world and the noise study.

The world replaces real image datasets with a generative model whose
attribute-category table is known exactly, so estimation can be checked against
truth. Both agents share the semantics (the same ground-truth table) while
their feature spaces are incompatible: each agent observes a different fixed
random linear embedding of the attribute vector plus Gaussian sensor noise.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .pool import DISTRACTOR, LABELED, TEST, UNASSIGNED, UNLABELED, PoolState, _frozen_array

#: Noisy attribute predictions are clamped into (0, 1).
PREDICTION_CLAMP = 1e-6

# Deterministic sub-stream tags appended to the seed; generation of one block
# never perturbs another.
_STREAM_EMBEDDING = 11
_STREAM_CATEGORY_BITS = 12
_STREAM_FLIPS = 13
_STREAM_DISTRACTORS = 14
_STREAM_FEATURE_NOISE = 15
_STREAM_STUDY_MATRIX = 20
_STREAM_STUDY_NOISE = 21
_STREAM_STUDY_LABELED = 22
_STREAM_STUDY_TEST = 23
_STREAM_CALIBRATION = 24


@dataclass(frozen=True)
class SplitSizes:
    """Per-category example counts for one agent's three splits."""

    labeled: int = 5
    unlabeled: int = 30
    test: int = 20


@dataclass(frozen=True, eq=False)
class SyntheticWorldConfig:
    n_categories: int
    n_attributes: int
    ground_truth_matrix: np.ndarray
    examples_per_category: SplitSizes = SplitSizes()
    n_distractors: int = 500
    feature_dims: tuple[int, int] = (16, 12)
    feature_noise_stds: tuple[float, float] = (0.45, 0.45)
    attribute_flip_rate: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        matrix = np.asarray(self.ground_truth_matrix, dtype=float)
        if matrix.shape != (self.n_attributes, self.n_categories):
            raise ConfigurationError(
                "ground_truth_matrix must be (n_attributes, n_categories)"
            )
        if not np.all(np.isfinite(matrix)) or matrix.min() < 0.0 or matrix.max() > 1.0:
            raise ConfigurationError("ground_truth_matrix entries must lie in [0, 1]")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "ground_truth_matrix", matrix)
        sizes = self.examples_per_category
        if self.n_categories < 2 or self.n_attributes < 1:
            raise ConfigurationError("need at least 2 categories and 1 attribute")
        if min(sizes.labeled, sizes.unlabeled, sizes.test) < 1:
            raise ConfigurationError("every split needs at least one example per category")
        if self.n_distractors < 0:
            raise ConfigurationError("n_distractors must be non-negative")
        if not 0.0 <= self.attribute_flip_rate < 1.0:
            raise ConfigurationError("attribute_flip_rate must be in [0, 1)")
        if min(self.feature_dims) < 1:
            raise ConfigurationError("feature dimensions must be positive")
        if not all(math.isfinite(s) and s >= 0.0 for s in self.feature_noise_stds):
            raise ConfigurationError("feature noise must be finite and non-negative")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be non-negative")


#: One row of the lazily built ``AgentDomain.examples`` view.
ExampleRecord = namedtuple("ExampleRecord", "id true_category")


@dataclass(frozen=True, eq=False)
class AgentDomain:
    """One agent's slice of the world: its examples as arrays, and its initial pool.

    Row ``r`` is example ``ids[r]``, ids ascending: ``features[r]`` is what
    the agent's sensor observes, ``true_category[r]`` and ``true_bits[r]`` the
    ground truth. The pool's rows are the same rows. The arrays are read-only.
    """

    agent_id: int
    ids: np.ndarray
    features: np.ndarray
    true_category: np.ndarray
    true_bits: np.ndarray
    pool: PoolState

    def __post_init__(self):
        for name, dtype in (("ids", np.int64), ("features", float),
                            ("true_category", np.int64), ("true_bits", np.int8)):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))
        n = self.ids.size
        if self.features.ndim != 2 or self.features.shape[0] != n or self.features.shape[1] < 1:
            raise ConfigurationError("features must be an (n_examples, feature_dim) matrix")
        bits = self.true_bits
        if self.true_category.shape != (n,) or bits.ndim != 2 or bits.shape[0] != n:
            raise ConfigurationError("true_category and true_bits need one row per id")
        if not np.array_equal(self.pool.ids, self.ids):
            raise ConfigurationError("the pool must cover exactly the domain's ids")

    @cached_property
    def examples(self) -> dict[int, ExampleRecord]:
        """Id -> ``(id, true_category)`` record, built on first use.

        A view for callers outside the library; the library reads the arrays.
        """
        ids = self.ids.tolist()
        return dict(zip(ids, map(ExampleRecord, ids, self.true_category.tolist())))


@dataclass(frozen=True, eq=False)
class SyntheticWorld:
    config: SyntheticWorldConfig
    domains: tuple[AgentDomain, AgentDomain]
    #: Test examples generated from the same attribute draw in both domains:
    #: a read-only ``(n_test, 2)`` int64 array of (agent-0 id, agent-1 id)
    #: rows. Only the cross-agent ensemble baseline relies on this pairing.
    paired_test_ids: np.ndarray

    def __post_init__(self):
        pairs = _frozen_array(self.paired_test_ids, np.int64)
        object.__setattr__(self, "paired_test_ids", pairs)


def contrast_ground_truth_matrix(
    n_attributes: int, n_categories: int, rng: np.random.Generator,
    low: float = 0.1, high: float = 0.9,
) -> np.ndarray:
    """Two-level presence rates with well-separated per-category profiles.

    Profiles are redrawn until every pair differs in at least two attributes,
    so no two categories are near-indistinguishable by attributes. At most
    2**(M - 1) profiles can be that far apart (the even-weight code). Near
    that bound random profiles rarely separate, so if every draw fails the
    profiles are distinct even-weight codewords, picked with the same ``rng``.
    """
    if not low < high:
        raise ConfigurationError("the low presence rate must be below the high one")
    if n_categories > 2 ** (n_attributes - 1):
        raise ConfigurationError(
            f"more categories than 2**(n_attributes - 1) = {2 ** (n_attributes - 1)}, "
            "the most binary profiles that differ pairwise in at least two attributes"
        )
    for _ in range(10_000):
        pattern = rng.random((n_attributes, n_categories)) < 0.5
        distances = (pattern[:, :, None] != pattern[:, None, :]).sum(axis=0)
        distances[np.diag_indices(n_categories)] = n_attributes + 1
        if distances.min() >= 2:
            return np.where(pattern, high, low)
    # Two distinct even-weight words differ in an even, nonzero number of bits.
    codes = rng.choice(2 ** (n_attributes - 1), size=n_categories, replace=False)
    bits = (codes >> np.arange(n_attributes - 1)[:, None]) & 1
    pattern = np.vstack([bits, bits.sum(axis=0) % 2]) == 1
    return np.where(pattern, high, low)


def _flip_bits(bits: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    flips = rng.random(bits.shape) < rate
    return np.logical_xor(bits, flips).astype(np.int8)


def generate_world(config: SyntheticWorldConfig) -> SyntheticWorld:
    """Sample both agents' domains deterministically from the config seed.

    Per category, each example's attribute bits are independent coin flips at
    the ground-truth rates, then corrupted at the flip rate. Features are the
    agent's embedding of the centered bits plus Gaussian noise. Distractors
    draw attributes uniformly at random and carry the DISTRACTOR sentinel.
    Test examples reuse one attribute draw in both domains so they are paired.
    """
    cfg = config
    n_cat, n_attr = cfg.n_categories, cfg.n_attributes
    sizes = cfg.examples_per_category
    seed = cfg.rng_seed
    truth = cfg.ground_truth_matrix

    embeddings = []
    for agent in (0, 1):
        rng = np.random.default_rng([seed, _STREAM_EMBEDDING, agent])
        embeddings.append(
            rng.standard_normal((cfg.feature_dims[agent], n_attr)) / math.sqrt(n_attr)
        )

    # Per-category attribute draws, fixed block order: labeled for agent 0 and
    # 1, unlabeled for agent 0 and 1, then the shared test block.
    block_counts = (sizes.labeled, sizes.labeled, sizes.unlabeled, sizes.unlabeled, sizes.test)
    labeled_bits = ([], [])
    unlabeled_bits = ([], [])
    test_bits = []
    for category in range(n_cat):
        rng = np.random.default_rng([seed, _STREAM_CATEGORY_BITS, category])
        flip_rng = np.random.default_rng([seed, _STREAM_FLIPS, category])
        blocks = []
        for count in block_counts:
            bits = (rng.random((count, n_attr)) < truth[:, category]).astype(np.int8)
            blocks.append(_flip_bits(bits, cfg.attribute_flip_rate, flip_rng))
        labeled_bits[0].append(blocks[0])
        labeled_bits[1].append(blocks[1])
        unlabeled_bits[0].append(blocks[2])
        unlabeled_bits[1].append(blocks[3])
        test_bits.append(blocks[4])

    distractor_counts = ((cfg.n_distractors + 1) // 2, cfg.n_distractors // 2)
    distractor_bits = []
    for agent in (0, 1):
        rng = np.random.default_rng([seed, _STREAM_DISTRACTORS, agent])
        distractor_bits.append(
            (rng.random((distractor_counts[agent], n_attr)) < 0.5).astype(np.int8)
        )

    domains = []
    test_ids = []
    next_id = 0
    categories = np.arange(n_cat)
    for agent in (0, 1):
        bits = np.concatenate(
            labeled_bits[agent] + unlabeled_bits[agent] + [distractor_bits[agent]] + test_bits
        )
        true_category = np.concatenate([
            np.repeat(categories, sizes.labeled),
            np.repeat(categories, sizes.unlabeled),
            np.full(distractor_counts[agent], DISTRACTOR),
            np.repeat(categories, sizes.test),
        ])
        noise_rng = np.random.default_rng([seed, _STREAM_FEATURE_NOISE, agent])
        noise = noise_rng.standard_normal((bits.shape[0], cfg.feature_dims[agent]))
        features = (bits - 0.5) @ embeddings[agent].T + cfg.feature_noise_stds[agent] * noise

        n_labeled, n_test = n_cat * sizes.labeled, n_cat * sizes.test
        ids = np.arange(next_id, next_id + bits.shape[0])
        split = np.repeat(
            np.array([LABELED, UNLABELED, TEST], dtype=np.int8),
            (n_labeled, bits.shape[0] - n_labeled - n_test, n_test),
        )
        seed_rows = split == LABELED
        pool = PoolState(
            ids=ids,
            split=split,
            category=np.where(seed_rows, true_category, UNASSIGNED),
            bits=bits * seed_rows[:, None],
            seed=seed_rows,
        )
        domains.append(AgentDomain(agent, ids, features, true_category, bits, pool))
        test_ids.append(ids[-n_test:])
        next_id += bits.shape[0]

    paired = np.stack(test_ids, axis=1)
    return SyntheticWorld(config=cfg, domains=(domains[0], domains[1]), paired_test_ids=paired)


@dataclass(frozen=True, eq=False)
class NoiseStudyConfig:
    """Controlled attribute-noise experiment: half the attributes are reliable
    per agent ("good"), the other half noisy ("bad"), swapped between agents.
    The good level is not a field: ``NoiseStudyDataset.predictions`` takes it."""

    n_categories: int = 10
    n_attributes: int = 10
    bad_noise_std: float = 2.5
    labeled_count: int = 50
    test_count: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        check_noise_std(self.bad_noise_std)
        if self.n_categories < 2 or self.n_attributes < 2:
            raise ConfigurationError("a noise study needs two categories and two attributes")
        if self.labeled_count < self.n_categories or self.test_count < self.n_categories:
            raise ConfigurationError("need at least one labeled and test example per category")
        if self.rng_seed < 0:
            raise ConfigurationError("rng_seed must be non-negative")


def check_noise_std(value: float) -> None:
    """Reject a noise level that is negative, infinite or NaN."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigurationError(f"noise levels must be finite and non-negative, got {value!r}")


def good_attribute_mask(config: NoiseStudyConfig) -> np.ndarray:
    """A ``(2, M)`` bool array whose row ``a`` marks agent ``a``'s reliable
    attributes: agent 0 has the first ``(M + 1) // 2``, agent 1 the rest, so
    each agent's bad attributes are the other's good ones."""
    first = np.arange(config.n_attributes) < (config.n_attributes + 1) // 2
    return np.stack([first, ~first])


def _balanced_categories(count: int, n_categories: int) -> np.ndarray:
    base, extra = divmod(count, n_categories)
    return np.repeat(np.arange(n_categories), base + (np.arange(n_categories) < extra))


@dataclass(frozen=True, eq=False)
class NoiseStudyDataset:
    """One sampled study instance.

    Each agent has its own human-annotated labeled set (ground-truth bits,
    random category composition), from which it estimates its matrix. The test
    set is shared; what differs per agent are its noisy attribute predictions
    on the test examples, which ``predictions`` makes from the standard-normal
    ``test_noise`` at a given noise level.
    """

    labeled_categories: np.ndarray  # (2, labeled_count)
    labeled_attributes: np.ndarray  # (2, labeled_count, n_attributes)
    test_categories: np.ndarray  # (test_count,)
    test_attributes: np.ndarray  # (test_count, n_attributes)
    test_noise: np.ndarray  # (2, test_count, n_attributes)

    def predictions(self, config: NoiseStudyConfig, good_noise_std: float) -> np.ndarray:
        """Both agents' (2, test_count, n_attributes) noisy views of the test
        annotations: annotation plus the stored draws scaled by
        ``good_noise_std`` on the agent's good attributes and ``bad_noise_std``
        on the rest, clamped into (0, 1) so each is a valid presence
        probability. Every level scales the same draws (common random numbers).
        """
        sigma = np.where(good_attribute_mask(config), good_noise_std, config.bad_noise_std)
        noisy = self.test_attributes[None, :, :] + sigma[:, None, :] * self.test_noise
        return np.clip(noisy, PREDICTION_CLAMP, 1.0 - PREDICTION_CLAMP)


def generate_noise_dataset(config: NoiseStudyConfig) -> NoiseStudyDataset:
    """Draw one study instance; no part of it depends on a noise level."""
    seed = config.rng_seed
    n_cat, n_attr = config.n_categories, config.n_attributes
    truth = contrast_ground_truth_matrix(
        n_attr, n_cat, np.random.default_rng([seed, _STREAM_STUDY_MATRIX]), low=0.2, high=0.8
    )
    labeled_cats = np.empty((2, config.labeled_count), dtype=int)
    labeled_attrs = np.empty((2, config.labeled_count, n_attr), dtype=np.int8)
    for agent in (0, 1):
        rng = np.random.default_rng([seed, _STREAM_STUDY_LABELED, agent])
        cats = np.sort(rng.integers(0, n_cat, config.labeled_count))
        labeled_cats[agent] = cats
        labeled_attrs[agent] = (
            rng.random((config.labeled_count, n_attr)) < truth[:, cats].T
        ).astype(np.int8)
    test_cats = _balanced_categories(config.test_count, n_cat)
    test_rng = np.random.default_rng([seed, _STREAM_STUDY_TEST])
    test_attrs = (
        test_rng.random((test_cats.size, n_attr)) < truth[:, test_cats].T
    ).astype(np.int8)
    noise_rng = np.random.default_rng([seed, _STREAM_STUDY_NOISE, 1])
    return NoiseStudyDataset(
        labeled_categories=labeled_cats,
        labeled_attributes=labeled_attrs,
        test_categories=test_cats,
        test_attributes=test_attrs,
        test_noise=noise_rng.standard_normal((2,) + test_attrs.shape),
    )


def check_accuracy_target(target_accuracy: float, name: str = "target accuracy") -> None:
    """Reject a binary accuracy target outside the open interval (0.5, 1.0).

    Calibration can only reach accuracies strictly between chance and
    perfect; NaN fails too.
    """
    if not 0.5 < target_accuracy < 1.0:
        raise ConfigurationError(f"{name} must be in (0.5, 1.0), got {target_accuracy!r}")


def check_accuracy_targets(good_accuracy_target: float, bad_accuracy_target: float) -> None:
    """Reject a sweep's target pair: each in (0.5, 1.0), and good above bad, so
    that the good attributes are the less noisy ones."""
    check_accuracy_target(good_accuracy_target, "good_accuracy_target")
    check_accuracy_target(bad_accuracy_target, "bad_accuracy_target")
    if not good_accuracy_target > bad_accuracy_target:
        raise ConfigurationError(
            f"good_accuracy_target ({good_accuracy_target!r}) must be above "
            f"bad_accuracy_target ({bad_accuracy_target!r})"
        )


def calibrate_noise_std(target_accuracy: float, rng_seed: int = 0) -> float:
    """Noise level whose thresholded predictions hit the target binary accuracy.

    Empirical bisection on 200,000 simulated annotations over the bracket
    [1e-9, 64]; accuracy is monotone decreasing in the noise level, from 1.0
    at zero noise toward chance (0.5). A target at or above the accuracy at
    64 is reachable; a lower one raises ``ConfigurationError``.

    Each annotation's hit is non-increasing in the noise level in floating
    point too, so the bracket shrinks the work: an annotation that hits at
    ``hi`` hits everywhere inside it and one that misses at ``lo`` misses
    everywhere, and only the rest are scored at the next midpoint. The
    midpoints, and so the result, are those of scoring every annotation.
    """
    check_accuracy_target(target_accuracy)
    if rng_seed < 0:
        raise ConfigurationError("rng_seed must be non-negative")
    n_samples = 200_000
    rng = np.random.default_rng([rng_seed, _STREAM_CALIBRATION])
    bits = rng.random(n_samples) < 0.5
    draws = rng.standard_normal(n_samples)
    lo, hi = 1e-9, 64.0

    def hits(sigma: float, scores: np.ndarray) -> np.ndarray:
        # Scores the annotations still held in bits and draws into scores.
        # Clamping never moves a value across the 0.5 threshold.
        np.multiply(draws, sigma, out=scores)
        scores += bits
        hit = scores > 0.5
        return np.equal(hit, bits, out=hit)

    hit = hits(hi, np.empty(n_samples))
    fixed = int(np.count_nonzero(hit))
    if fixed / n_samples > target_accuracy:
        raise ConfigurationError(
            f"target accuracy {target_accuracy!r} is not reachable: the accuracy "
            f"at noise level {hi!r} is {fixed / n_samples!r} (rng_seed {rng_seed}), "
            f"so reachable targets lie in [{fixed / n_samples!r}, 1.0)"
        )
    # The hits at hi are settled. Of the rest, those that hit at lo are open;
    # every annotation that hits at hi hits at lo too. The full-size score
    # buffer is freed by now, and this first copy selects by mask: either
    # kept, or an index array here, would raise the peak memory.
    np.logical_not(hit, out=hit)
    bits, draws = bits[hit], draws[hit]
    scores = np.empty(bits.size)
    hit = hits(lo, scores)
    bits, draws = bits[hit], draws[hit]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hit = hits(mid, scores[: bits.size])
        count = int(np.count_nonzero(hit))
        # (fixed + count) / n_samples is the float the full scan's mean gives.
        if (fixed + count) / n_samples > target_accuracy:
            lo = mid
        else:
            hi = mid
            fixed += count
            np.logical_not(hit, out=hit)
        # Gathering by index is faster than selecting by these random masks.
        rows = np.flatnonzero(hit)
        bits, draws = bits[rows], draws[rows]
    return 0.5 * (lo + hi)
