"""Calibrated binary linear classifiers and the per-agent model banks.

The same classifier is used for the N one-vs-rest category models and the M
attribute models. Training minimizes L2-regularized logistic loss with
deterministic full-batch gradient descent (zero initialization), so identical
inputs and config always produce bit-identical weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import ConfigurationError, StateError, TrainingError

#: Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] so no factor in
#: downstream products can reach exactly 0 or 1.
PROB_CLAMP = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-3
    learning_rate: float = 0.5
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        values = (self.l2, self.learning_rate, self.max_iters, self.tol)
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError("l2, learning_rate, max_iters and tol must be finite")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be non-negative")
        if self.tol < 0:
            raise ConfigurationError("tol must be non-negative")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z|:
    # the exponent is never positive, so nothing overflows. As 0 <= e <= 1,
    # max(e, z >= 0) is the numerator, 1 or e, without a branch per element.
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, z >= 0)
    e += 1.0
    numerator /= e
    return numerator


def _clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def _fit(features: np.ndarray, targets: np.ndarray, config: TrainConfig):
    """Gradient descent on the mean logistic loss, one target column per classifier.

    Each column's update depends only on its own weights, so fitting k
    classifiers that share the feature matrix in one call gives the same bits
    as fitting them one by one, as long as no fit stops early. The stopping
    test is joint: the call stops once every column's max-abs gradient is
    below ``tol``, so a column that converged alone keeps stepping while any
    other has not.
    """
    n, dim = features.shape
    k = targets.shape[1]
    weights = np.zeros((dim, k))
    bias = np.zeros(k)
    for _ in range(config.max_iters):
        z = features @ weights
        z += bias
        residual = _sigmoid(z)
        residual -= targets
        residual /= n
        grad_w = features.T @ residual
        grad_w += config.l2 * weights
        grad_b = residual.sum(axis=0)
        # grad_b has k entries against grad_w's d * k; a step that does not
        # stop usually fails on grad_b already.
        if np.abs(grad_b).max() < config.tol and np.abs(grad_w).max() < config.tol:
            break
        weights -= config.learning_rate * grad_w
        bias -= config.learning_rate * grad_b
    return weights, bias


def _feature_matrix(vectors, label: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ConfigurationError(f"{label} must be a non-empty list of equal-length vectors")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{label} contain non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """A linear score with a sigmoid link, clamped away from 0 and 1."""

    weights: np.ndarray
    bias: float
    trained_on_count: int = 0

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float).copy()
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", float(self.bias))

def _constant_classifier(dim: int, rate: float, count: int) -> LinearClassifier:
    p = float(_clamp(rate))
    return LinearClassifier(np.zeros(dim), math.log(p / (1.0 - p)), trained_on_count=count)


def _stacked(classifiers):
    weights = np.stack([c.weights for c in classifiers], axis=1)
    bias = np.array([c.bias for c in classifiers])
    return weights, bias


@dataclass(frozen=True)
class CategoryModelBank:
    """One one-vs-rest classifier per category; outputs a normalized posterior."""

    classifiers: tuple[LinearClassifier, ...]

    def posterior_batch(self, features: np.ndarray) -> np.ndarray:
        if not self.classifiers:
            raise StateError("category bank has not been trained")
        weights, bias = _stacked(self.classifiers)
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != weights.shape[0]:
            raise ConfigurationError("feature matrix does not match classifier dimension")
        raw = _clamp(_sigmoid(features @ weights + bias))
        return raw / raw.sum(axis=1, keepdims=True)

@dataclass(frozen=True)
class AttributeModelBank:
    """One independent presence classifier per attribute; no cross-attribute normalization."""

    classifiers: tuple[LinearClassifier, ...]

    def probs_batch(self, features: np.ndarray) -> np.ndarray:
        if not self.classifiers:
            raise StateError("attribute bank has not been trained")
        weights, bias = _stacked(self.classifiers)
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != weights.shape[0]:
            raise ConfigurationError("feature matrix does not match classifier dimension")
        return _clamp(_sigmoid(features @ weights + bias))

def _category_targets(features, categories, n_categories: int):
    """Checked features and one-hot one-vs-rest targets, one column per category."""
    if n_categories < 2:
        raise ConfigurationError("need at least two categories for one-vs-rest training")
    features = _feature_matrix(features, "features")
    categories = np.asarray(categories, dtype=int)
    if categories.shape != (features.shape[0],):
        raise ConfigurationError("one category label per feature row required")
    present = np.bincount(categories, minlength=n_categories)
    if categories.min() < 0 or categories.max() >= n_categories:
        raise ConfigurationError("category labels out of range")
    if (present == 0).any():
        empty = int(np.flatnonzero(present == 0)[0])
        raise TrainingError(f"category {empty} has no labeled examples")
    if (present == features.shape[0]).any():
        raise TrainingError("one-vs-rest training needs negatives for every category")
    return features, (categories[:, None] == np.arange(n_categories)).astype(float)


def train_category_bank(
    features: np.ndarray,
    categories: np.ndarray,
    n_categories: int,
    config: TrainConfig | None = None,
) -> CategoryModelBank:
    """Train the N one-vs-rest category classifiers in one vectorized pass.

    Each category's negatives are all labeled examples of the other categories.
    """
    config = config or TrainConfig()
    features, targets = _category_targets(features, categories, n_categories)
    weights, bias = _fit(features, targets, config)
    n = features.shape[0]
    return CategoryModelBank(
        tuple(
            LinearClassifier(weights[:, i], float(bias[i]), trained_on_count=n)
            for i in range(n_categories)
        )
    )


def train_attribute_bank(
    features: np.ndarray,
    attributes: np.ndarray,
    config: TrainConfig | None = None,
    constant_fallback: bool = True,
) -> AttributeModelBank:
    """Train the M attribute presence classifiers in one vectorized pass.

    An attribute whose labels are single-class in the pool cannot be fit; with
    ``constant_fallback`` it becomes a bias-only classifier at the clamped
    empirical rate instead of aborting the run.
    """
    config = config or TrainConfig()
    features = _feature_matrix(features, "features")
    attributes = np.asarray(attributes)
    if attributes.ndim != 2 or attributes.shape[0] != features.shape[0]:
        raise ConfigurationError("one attribute row per feature row required")
    if not np.isin(attributes, (0, 1)).all():
        raise ConfigurationError("attribute labels must be binary")
    targets = attributes.astype(float)
    n, n_attributes = targets.shape
    rates = targets.mean(axis=0)
    mixed = np.flatnonzero((rates > 0.0) & (rates < 1.0))
    if mixed.size < n_attributes and not constant_fallback:
        degenerate = int(np.flatnonzero((rates == 0.0) | (rates == 1.0))[0])
        raise TrainingError(f"attribute {degenerate} has single-class labels")
    classifiers: list[LinearClassifier | None] = [None] * n_attributes
    if mixed.size:
        weights, bias = _fit(features, targets[:, mixed], config)
        for col, j in enumerate(mixed):
            classifiers[j] = LinearClassifier(
                weights[:, col], float(bias[col]), trained_on_count=n
            )
    for j in range(n_attributes):
        if classifiers[j] is None:
            classifiers[j] = _constant_classifier(features.shape[1], float(rates[j]), n)
    return AttributeModelBank(tuple(classifiers))


def train_banks(
    features: np.ndarray,
    categories: np.ndarray,
    attributes: np.ndarray,
    n_categories: int,
    config: TrainConfig | None = None,
) -> tuple[CategoryModelBank, AttributeModelBank]:
    """Train the category and attribute banks on one labeled pool in a single fit.

    The category targets go in front of the attribute targets and the whole
    stack is fit by one ``train_attribute_bank`` call, so both banks share
    each gradient step's feature products. Categories are checked as
    ``train_category_bank`` checks them; every category column then has both
    classes, so only attribute columns can take the constant fallback. The
    weights equal those of two separate calls unless the fit stops early
    (see ``_fit``).
    """
    features, targets = _category_targets(features, categories, n_categories)
    attributes = np.asarray(attributes)
    if attributes.ndim != 2 or attributes.shape[0] != features.shape[0]:
        raise ConfigurationError("one attribute row per feature row required")
    stacked = np.hstack([targets, attributes.astype(float)])
    classifiers = train_attribute_bank(features, stacked, config).classifiers
    return (
        CategoryModelBank(classifiers[:n_categories]),
        AttributeModelBank(classifiers[n_categories:]),
    )


def attribute_accuracy_arrays(
    bank: AttributeModelBank, features: np.ndarray, attributes: np.ndarray
) -> np.ndarray:
    """Per-attribute accuracy of thresholded predictions (present iff prob > 0.5)."""
    probs = bank.probs_batch(features)
    truth = np.asarray(attributes).astype(bool)
    if truth.shape != probs.shape:
        raise ConfigurationError("attribute truth shape does not match predictions")
    if truth.shape[0] == 0:
        raise ConfigurationError("cannot measure accuracy on an empty example set")
    return ((probs > 0.5) == truth).mean(axis=0)
