"""Cooperative semi-supervised learning with attribute-table exchange.

Agents self-train on disjoint pools in incompatible feature spaces and speed
each other up by exchanging only their M x N attribute-category probability
matrices once per bootstrap iteration.
"""

from .crf import (
    brute_force_posterior,
    crf_posterior,
    crf_posterior_batch,
    estimate_matrix_from_labels,
)
from .errors import (
    ConfigurationError,
    CoopAttrError,
    DecodeError,
    FeasibilityError,
    ProtocolError,
    StateError,
    TrainingError,
)
from .harness import (
    AgentMetrics,
    IterationRecord,
    LearnerVariant,
    LoopConfig,
    NoiseLevelResult,
    NoiseSweepConfig,
    compute_class_average_accuracy,
    compute_purity,
    default_noise_sweep,
    records_to_csv,
    run_experiment,
    run_noise_study,
)
from .linear import (
    AttributeModelBank,
    CategoryModelBank,
    TrainConfig,
    train_attribute_bank,
    train_banks,
    train_category_bank,
)
from .messages import (
    MatrixMessage,
    decode_message,
    encode_message,
    fuse_uniform,
    fuse_weighted,
)
from .pool import (
    DISTRACTOR,
    AttributeCategoryMatrix,
    CategoryPosterior,
    PoolState,
    move_to_labeled,
    prune_from_labeled,
)
from .synthetic import (
    AgentDomain,
    NoiseStudyConfig,
    NoiseStudyDataset,
    SplitSizes,
    SyntheticWorld,
    SyntheticWorldConfig,
    calibrate_noise_std,
    contrast_ground_truth_matrix,
    generate_noise_dataset,
    generate_world,
    good_attribute_sets,
)
from .transfer import (
    derive_attribute_labels,
    entropy,
    select_prunes,
    select_transfers,
)

__version__ = "0.1.0"
