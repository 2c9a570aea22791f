"""Synthetic data generation: the two-domain bootstrap world and the noise study.

The world replaces real image datasets with a generative model whose
attribute-category table is known exactly, so estimation can be checked against
truth. Both agents share the semantics (the same ground-truth table) while
their feature spaces are incompatible: each agent observes a different fixed
random linear embedding of the attribute vector plus Gaussian sensor noise.
"""
from __future__ import annotations

import bisect
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .pool import (
    DISTRACTOR,
    LABELED,
    TEST,
    UNASSIGNED,
    UNLABELED,
    PoolState,
    _check_int,
    _frozen_array,
)

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

    def __post_init__(self):
        for name in ("labeled", "unlabeled", "test"):
            _check_int(getattr(self, name), f"{name} examples per category", 1)


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
        for name, minimum in (("n_categories", 2), ("n_attributes", 1),
                              ("n_distractors", 0), ("rng_seed", 0)):
            _check_int(getattr(self, name), name, minimum)
        # Tuples, so that a caller's list changed later cannot change the config.
        for name in ("feature_dims", "feature_noise_stds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.feature_dims) != 2 or len(self.feature_noise_stds) != 2:
            raise ConfigurationError("feature_dims and feature_noise_stds need one entry per agent")
        for dim in self.feature_dims:
            _check_int(dim, "a feature dimension", 1)
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
        if not 0.0 <= self.attribute_flip_rate < 1.0:
            raise ConfigurationError("attribute_flip_rate must be in [0, 1)")
        if not all(math.isfinite(s) and s >= 0.0 for s in self.feature_noise_stds):
            raise ConfigurationError("feature noise must be finite and non-negative")


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
    """Both agents' domains of one world.

    Row ``i`` of one domain's test split and row ``i`` of the other's are one
    object seen by both agents' sensors, so their true categories agree. Only
    the cross-agent ensemble baseline relies on this pairing.
    """

    config: SyntheticWorldConfig
    domains: tuple[AgentDomain, AgentDomain]

    def __post_init__(self):
        first, second = (d.true_category[d.pool.split == TEST] for d in self.domains)
        if not np.array_equal(first, second):
            raise ConfigurationError(
                "the two domains' test splits must pair row by row: "
                "the same length and the same true category in each row"
            )


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
    _check_int(n_attributes, "n_attributes", 1)
    _check_int(n_categories, "n_categories", 1)
    if not 0.0 <= low < high <= 1.0:
        raise ConfigurationError(
            f"presence rates need 0 <= low < high <= 1, got low {low!r} and high {high!r}"
        )
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


def generate_world(config: SyntheticWorldConfig) -> SyntheticWorld:
    """Sample both agents' domains deterministically from the config seed.

    Per category, each example's attribute bits are independent coin flips at
    the ground-truth rates, then corrupted at the flip rate. Features are the
    agent's embedding of the centered bits plus Gaussian noise. Distractors
    draw attributes uniformly at random and carry the DISTRACTOR sentinel.
    An agent's rows are its labeled, unlabeled, distractor and test examples,
    categories in order within each split. Row ``i`` of both test splits is
    one attribute draw, which pairs the two agents' test examples.
    """
    cfg = config
    n_cat, n_attr = cfg.n_categories, cfg.n_attributes
    sizes = cfg.examples_per_category
    seed = cfg.rng_seed
    truth = cfg.ground_truth_matrix
    n_labeled, n_test = n_cat * sizes.labeled, n_cat * sizes.test
    n_seen = n_labeled + n_cat * sizes.unlabeled
    distractor_counts = ((cfg.n_distractors + 1) // 2, cfg.n_distractors // 2)

    bits = [np.empty((n_seen + n + n_test, n_attr), dtype=np.int8) for n in distractor_counts]
    # Each split's rows as (category, example, attribute) views of both agents' bits.
    labeled, unlabeled, test = (
        [rows[part].reshape(n_cat, -1, n_attr) for rows in bits]
        for part in (slice(0, n_labeled), slice(n_labeled, n_seen), slice(-n_test, None))
    )
    # Per-category attribute draws, fixed block order: labeled for agent 0 and
    # 1, unlabeled for agent 0 and 1, then the test block both agents share.
    block_targets = (labeled[:1], labeled[1:], unlabeled[:1], unlabeled[1:], test)
    for category in range(n_cat):
        rng = np.random.default_rng([seed, _STREAM_CATEGORY_BITS, category])
        flip_rng = np.random.default_rng([seed, _STREAM_FLIPS, category])
        for targets in block_targets:
            shape = targets[0].shape[1:]
            drawn = rng.random(shape) < truth[:, category]
            drawn ^= flip_rng.random(shape) < cfg.attribute_flip_rate
            for blocks in targets:
                blocks[category] = drawn

    domains = []
    next_id = 0
    categories = np.arange(n_cat)
    for agent in (0, 1):
        rows, n_distractors = bits[agent], distractor_counts[agent]
        rng = np.random.default_rng([seed, _STREAM_DISTRACTORS, agent])
        rows[n_seen:n_seen + n_distractors] = rng.random((n_distractors, n_attr)) < 0.5
        true_category = np.concatenate([
            np.repeat(categories, sizes.labeled),
            np.repeat(categories, sizes.unlabeled),
            np.full(n_distractors, DISTRACTOR),
            np.repeat(categories, sizes.test),
        ])
        rng = np.random.default_rng([seed, _STREAM_EMBEDDING, agent])
        embedding = rng.standard_normal((cfg.feature_dims[agent], n_attr)) / math.sqrt(n_attr)
        # The float copy of the bits is freed before the noise is drawn, and
        # the noise before the next agent's copy is made.
        features = (rows - 0.5) @ embedding.T
        noise_rng = np.random.default_rng([seed, _STREAM_FEATURE_NOISE, agent])
        noise = noise_rng.standard_normal((rows.shape[0], cfg.feature_dims[agent]))
        noise *= cfg.feature_noise_stds[agent]
        features += noise
        del noise

        ids = np.arange(next_id, next_id + rows.shape[0])
        split = np.repeat(
            np.array([LABELED, UNLABELED, TEST], dtype=np.int8),
            (n_labeled, rows.shape[0] - n_labeled - n_test, n_test),
        )
        seed_rows = split == LABELED
        pool = PoolState(
            ids=ids,
            split=split,
            category=np.where(seed_rows, true_category, UNASSIGNED),
            bits=rows * seed_rows[:, None],
            seed=seed_rows,
        )
        domains.append(AgentDomain(agent, ids, features, true_category, rows, pool))
        next_id += rows.shape[0]

    return SyntheticWorld(config=cfg, domains=(domains[0], domains[1]))


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
        for name, minimum in (("n_categories", 2), ("n_attributes", 2), ("rng_seed", 0)):
            _check_int(getattr(self, name), name, minimum)
        # At least one labeled and one test example per category.
        for name in ("labeled_count", "test_count"):
            _check_int(getattr(self, name), name, self.n_categories)
        check_noise_std(self.bad_noise_std)


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

    Bisects 60 times over [1e-9, 64] on 200,000 simulated annotations; the
    accuracy falls with the noise level from 1.0 toward chance (0.5), and a
    target below the accuracy at 64 raises ``ConfigurationError``. At level
    sigma a present bit with draw d hits iff ``d * sigma + 1.0 > 0.5``, an
    absent one iff ``not d * sigma > 0.5``; clamping moves no value across
    0.5. Rounding is monotone, so over each kind's sorted draws the present
    misses and absent hits are prefixes, which binary searches count exactly.
    """
    check_accuracy_target(target_accuracy)
    _check_int(rng_seed, "rng_seed", 0)
    n_samples = 200_000
    rng = np.random.default_rng([rng_seed, _STREAM_CALIBRATION])
    bits = rng.random(n_samples) < 0.5
    draws = rng.standard_normal(n_samples)
    present = draws[bits]
    absent = draws[np.logical_not(bits, out=bits)]  # in place: no third mask at the peak
    present.sort()
    absent.sort()

    def accuracy(sigma: float) -> float:
        misses = bisect.bisect_left(present, True, key=lambda d: d * sigma + 1.0 > 0.5)
        hits = bisect.bisect_left(absent, True, key=lambda d: d * sigma > 0.5)
        return (present.size - misses + hits) / n_samples

    lo, hi = 1e-9, 64.0
    edge = accuracy(hi)
    if edge > target_accuracy:
        raise ConfigurationError(
            f"target accuracy {target_accuracy!r} is not reachable: the accuracy "
            f"at noise level {hi!r} is {edge!r} (rng_seed {rng_seed}), "
            f"so reachable targets lie in [{edge!r}, 1.0)"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if accuracy(mid) > target_accuracy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
