"""Flat key=value run configuration with documented defaults.

Config files contain one ``key = value`` per line; blank lines and ``#``
comments are ignored. Every key has a default, so an empty (or absent) file is
a complete configuration. Values are coerced to the declared field type.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .harness import LoopConfig, NoiseSweepConfig, _check_sweep_size, default_noise_sweep
from .linear import TrainConfig
from .pool import _check_int
from .synthetic import (
    NoiseStudyConfig,
    SplitSizes,
    SyntheticWorldConfig,
    check_accuracy_targets,
    contrast_ground_truth_matrix,
)

_STREAM_WORLD_MATRIX = 10


@dataclass(frozen=True)
class ExperimentConfig:
    # World shape
    n_categories: int = 10
    n_attributes: int = 10
    seeds_per_category: int = 5
    unlabeled_per_category: int = 30
    test_per_category: int = 20
    n_distractors: int = 500
    feature_dim_a: int = 16
    feature_dim_b: int = 12
    feature_noise_std_a: float = 0.45
    feature_noise_std_b: float = 0.45
    attribute_flip_rate: float = 0.05
    world_matrix_low: float = 0.10
    world_matrix_high: float = 0.90
    # Bootstrap loop
    transfers_per_category: int = LoopConfig.transfers_per_category
    prunes_per_category: int = LoopConfig.prunes_per_category
    prune_every: int = LoopConfig.prune_every
    # Classifier training
    l2: float = TrainConfig.l2
    learning_rate: float = TrainConfig.learning_rate
    max_iters: int = TrainConfig.max_iters
    # Noise study
    noise_levels: int = 6
    good_accuracy_target: float = 0.92
    bad_accuracy_target: float = 0.575
    noise_labeled_count: int = NoiseStudyConfig.labeled_count
    noise_test_count: int = NoiseStudyConfig.test_count
    noise_seeds: int = NoiseSweepConfig.n_seeds
    noise_rng_seed: int = NoiseStudyConfig.rng_seed

    def __post_init__(self):
        # Build what a run builds, so a bad value fails when the file loads;
        # each config checks its own fields. The sweep's noise levels are
        # calibrated at run time, so only their count and targets are
        # checked here.
        loop_config(self)
        world_config(self, seed=0)
        noise_study_config(self)
        _check_sweep_size(self.noise_levels, self.noise_seeds)
        check_accuracy_targets(self.good_accuracy_target, self.bad_accuracy_target)


def parse_flat_config(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def load_experiment_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    raw = parse_flat_config(text)
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
        caster = int if known[key] == "int" else float
        try:
            kwargs[key] = caster(value)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**kwargs)


def world_config(cfg: ExperimentConfig, seed: int) -> SyntheticWorldConfig:
    """World for one run; the ground-truth table is drawn from the seed."""
    _check_int(seed, "seed", 0)
    matrix = contrast_ground_truth_matrix(
        cfg.n_attributes,
        cfg.n_categories,
        np.random.default_rng([seed, _STREAM_WORLD_MATRIX]),
        low=cfg.world_matrix_low,
        high=cfg.world_matrix_high,
    )
    return SyntheticWorldConfig(
        n_categories=cfg.n_categories,
        n_attributes=cfg.n_attributes,
        ground_truth_matrix=matrix,
        examples_per_category=SplitSizes(
            labeled=cfg.seeds_per_category,
            unlabeled=cfg.unlabeled_per_category,
            test=cfg.test_per_category,
        ),
        n_distractors=cfg.n_distractors,
        feature_dims=(cfg.feature_dim_a, cfg.feature_dim_b),
        feature_noise_stds=(cfg.feature_noise_std_a, cfg.feature_noise_std_b),
        attribute_flip_rate=cfg.attribute_flip_rate,
        rng_seed=seed,
    )


def loop_config(cfg: ExperimentConfig) -> LoopConfig:
    return LoopConfig(
        transfers_per_category=cfg.transfers_per_category,
        prunes_per_category=cfg.prunes_per_category,
        prune_every=cfg.prune_every,
        train=TrainConfig(
            l2=cfg.l2, learning_rate=cfg.learning_rate, max_iters=cfg.max_iters
        ),
    )


def noise_study_config(cfg: ExperimentConfig) -> NoiseStudyConfig:
    return NoiseStudyConfig(
        n_categories=cfg.n_categories,
        n_attributes=cfg.n_attributes,
        labeled_count=cfg.noise_labeled_count,
        test_count=cfg.noise_test_count,
        rng_seed=cfg.noise_rng_seed,
    )


def noise_sweep_config(cfg: ExperimentConfig) -> NoiseSweepConfig:
    return default_noise_sweep(
        n_levels=cfg.noise_levels,
        n_seeds=cfg.noise_seeds,
        rng_seed=cfg.noise_rng_seed,
        good_accuracy_target=cfg.good_accuracy_target,
        bad_accuracy_target=cfg.bad_accuracy_target,
        study=noise_study_config(cfg),
    )
