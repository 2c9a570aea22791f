"""The one rule for counts and seeds: ``pool._check_int(value, what, minimum)``.

Every count a config holds or a public call takes must be an integer of at
least its minimum, refused with ``ConfigurationError`` otherwise, rather than
rounded or left to fail inside numpy with a bare ``TypeError``.
"""
from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from coopattr import (
    AttributeCategoryMatrix,
    ConfigurationError,
    LoopConfig,
    MatrixMessage,
    NoiseStudyConfig,
    SplitSizes,
    SyntheticWorldConfig,
    brute_force_posterior,
    compute_class_average_accuracy,
    contrast_ground_truth_matrix,
    crf_posterior,
    crf_posterior_batch,
    estimate_matrix_from_labels,
    select_prunes,
    select_transfers,
    train_banks,
    train_category_bank,
)
from coopattr.crf import crf_argmax_batch
from coopattr.harness import NoiseSweepConfig
from coopattr.linear import TrainConfig

_IDS = np.arange(6)
_POSTERIORS = np.tile([[0.7, 0.3], [0.2, 0.8]], (3, 1))
_CATEGORIES = np.array([0, 1, 0, 1, 0, 1])
_ATTRIBUTES = np.array([[1, 0], [0, 1]] * 3)
_FEATURES = np.arange(12.0).reshape(6, 2) / 12.0
_MATRIX = AttributeCategoryMatrix([[0.8, 0.3], [0.4, 0.6]])
_PROBS = np.array([0.7, 0.2])


@pytest.mark.parametrize(
    "call",
    [
        lambda: select_transfers(_IDS, _POSTERIORS, 2.0),
        lambda: select_prunes(_IDS, _CATEGORIES, _POSTERIORS, 2.0),
        lambda: estimate_matrix_from_labels(_CATEGORIES, _ATTRIBUTES, 2.0, 2),
        lambda: estimate_matrix_from_labels(_CATEGORIES, _ATTRIBUTES, 2, 2.0),
        lambda: crf_posterior(_MATRIX, _PROBS, 2.0),
        lambda: brute_force_posterior(_MATRIX, _PROBS, 2.0),
        lambda: crf_posterior_batch(_MATRIX, _PROBS[None, :], 2.0),
        lambda: crf_argmax_batch(_MATRIX, _PROBS[None, :], 2.0),
        lambda: compute_class_average_accuracy(_CATEGORIES, _CATEGORIES, 2.0),
        lambda: train_category_bank(_FEATURES, _CATEGORIES, 2.0),
        lambda: train_banks(_FEATURES, _CATEGORIES, _ATTRIBUTES, 2.0),
        lambda: contrast_ground_truth_matrix(10, 0, np.random.default_rng(0)),
        lambda: contrast_ground_truth_matrix(10, -2, np.random.default_rng(0)),
    ],
    ids=[
        "select_transfers", "select_prunes", "estimate_n_categories",
        "estimate_n_attributes", "crf_posterior", "brute_force_posterior",
        "crf_posterior_batch", "crf_argmax_batch", "class_average_accuracy",
        "train_category_bank", "train_banks", "contrast_0_categories",
        "contrast_-2_categories",
    ],
)
def test_count_arguments_are_refused(call):
    with pytest.raises(ConfigurationError, match="must be (an integer|at least 1)"):
        call()


_CONFIGS = [
    LoopConfig(),
    TrainConfig(),
    SplitSizes(),
    SyntheticWorldConfig(
        n_categories=2, n_attributes=2, ground_truth_matrix=np.full((2, 2), 0.5)
    ),
    NoiseStudyConfig(),
    NoiseSweepConfig(study=NoiseStudyConfig(), levels=(0.5,)),
    MatrixMessage(agent_id=0, iteration=1, matrix=AttributeCategoryMatrix([[0.5]])),
]


def test_every_checked_config_has_int_fields():
    for config in _CONFIGS:
        assert any(f.type == "int" for f in fields(config)), type(config).__name__


@pytest.mark.parametrize(
    "config, name",
    [(c, f.name) for c in _CONFIGS for f in fields(c) if f.type == "int"],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_every_int_field_goes_through_the_rule(config, name):
    # A field annotated int that skipped the rule would build at x + 0.5.
    with pytest.raises(ConfigurationError, match="must be an integer"):
        replace(config, **{name: getattr(config, name) + 0.5})
