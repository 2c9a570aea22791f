"""The per-agent model banks of calibrated binary linear classifiers.

A bank holds its N one-vs-rest category or M attribute models as one weight
matrix and one bias vector. Training minimizes L2-regularized logistic loss
with deterministic full-batch gradient descent (zero initialization), so
identical inputs and config always produce bit-identical weights. The
descent runs in float32 in the transposed (k, n) layout, one row per
classifier, with the logistic link taken as 0.5 tanh(z / 2) + 0.5 (within
6.0e-8 of the float64 logistic). It holds [w / 2 | b / 2] as one (k, dim + 1)
parameter block, so a step is 12 numpy calls that allocate nothing; every
rewrite scales by a power of two, so the weights are bit for bit those of
the plain tanh-link loop. The banks hold float64 (dim, k) weights, and the
divergence check and every score computed from a bank are float64. The
weights are not those of a float64 descent: they differ by up to ~3e-6,
bounded at 1e-5 (see ``_fit``). ``learning_rate`` and a non-zero ``l2`` must
be normal float32 numbers, at least 1.18e-38.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigurationError, StateError, TrainingError
from .pool import _check_int, _int_array

#: Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] so no factor in
#: downstream products can reach exactly 0 or 1.
PROB_CLAMP = 1e-6

#: The smallest normal float32, about 1.18e-38.
_FLOAT32_TINY = float(np.finfo(np.float32).tiny)


@dataclass(frozen=True)
class TrainConfig:
    l2: float = 1e-3
    learning_rate: float = 0.5
    max_iters: int = 500
    #: Not a setting: gradient descent always takes ``max_iters`` steps. The
    #: benchmark tracer counts a fit whose final max-abs gradient is below
    #: this threshold as converged.
    tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        _check_int(self.max_iters, "max_iters", 1)
        if not (math.isfinite(self.l2) and math.isfinite(self.learning_rate)):
            raise ConfigurationError("l2 and learning_rate must be finite")
        # The descent runs in float32: a smaller step or decay would round to
        # 0 or to a subnormal there, and the halved updates of ``_fit`` are
        # exact only for normal floats.
        if self.learning_rate < _FLOAT32_TINY:
            raise ConfigurationError(f"learning_rate must be at least {_FLOAT32_TINY:.3g}")
        if self.l2 < 0 or 0 < self.l2 < _FLOAT32_TINY:
            raise ConfigurationError(f"l2 must be 0 or at least {_FLOAT32_TINY:.3g}")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``z``, which it overwrites with scratch,
    written into the float64 ``out`` (a new array when None)."""
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, with e = e^-|z|:
    # the exponent is never positive, so nothing overflows. As 0 <= e <= 1,
    # max(e, z >= 0) is the numerator, 1 or e, without a branch per element;
    # ``out`` holds the comparison as 1.0 or 0.0, which max reads as it
    # reads a bool.
    positive = np.greater_equal(z, 0.0, out=out)
    e = np.abs(z, out=z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, positive, out=out)
    e += 1.0
    numerator /= e
    return numerator


def _fit(features: np.ndarray, targets: np.ndarray, config: TrainConfig):
    """``max_iters`` steps of gradient descent on the mean logistic loss, one
    target column per classifier.

    The fixed step count acts as early stopping, so there is no convergence
    test. Each column's update depends only on its own weights, so fitting
    any two or more of k columns that share the feature matrix in one call
    gives the same bits as the same columns of the k-column fit. A
    one-column fit is the exception: numpy hands its (1, n) gradient product
    to BLAS's matrix-vector kernel, which sums in another order, so its
    weights differ from the same column of a wider fit by float32 rounding
    (up to 4.8e-7 measured, bounded at 1e-6 in ``tests/test_linear.py``).
    Only ``train_attribute_bank`` with exactly one mixed attribute fits one
    column.

    The steps run in float32, which halves the bytes each pass moves, and
    in the transposed layout: scores, residuals and targets are (k, n), one
    contiguous row per classifier. The link is 0.5 tanh(z / 2) + 0.5, the
    logistic function with neither a branch nor an overflow; in float32 it
    is within 6.0e-8 of the float64 logistic at every float32 z in
    [-40, 40]. The weights come back as float64 (dim, k) for the banks, and
    everything that scores with them stays float64. The result is still
    bit-deterministic, but it is not the float64 loop's result: on
    trend-sized fits (|w| up to ~6, 500 steps) each weight and bias differs
    from it by at most ~3e-6, and ``tests/test_linear.py`` bounds that at
    1e-5.

    A step costs numpy's per-call overhead more than arithmetic, so it is
    12 calls into preallocated buffers, and it gives the bits of the plain
    loop (z = w x + b, p = 0.5 tanh(z / 2) + 0.5, r = (p - y) / n,
    w -= step (r x + l2 w), b -= step sum(r); kept in ``tests/test_linear.py``):

    - The parameters are one C-contiguous block [w / 2 | b / 2] of shape
      (k, dim + 1). Halving every product and partial sum of ``w x``,
      fused multiply-adds included, halves the result exactly, so
      ``(w / 2) x + b / 2`` is z / 2 bit for bit and no step scales z.
    - The residual chain is t = tanh(z / 2), then t + 1, minus 2 y, times
      (1 / n) / 2. Each link is twice the plain loop's (0.5 t + 0.5,
      minus y, times 1 / n) until the last multiply halves it back, and
      rounding commutes with doubling, so the residual is the same.
    - The gradient block [r x | sum(r)] takes the feature product and the
      row sums (the same pairwise sums as ``r.sum(axis=1)``) in place. The
      bias is not folded into the products as a ones column: that would
      sum in an order that depends on the BLAS kernel.
    - The decay is the block times [2 l2 ... 2 l2 | 0], which is l2 w on
      the weights. The update then adds the decay, scales the gradient by
      step / 2 and subtracts it from the halved parameters: exactly half of
      the plain loop's update.

    Scaling by a power of two is exact for normal floats, so ``TrainConfig``
    refuses a ``learning_rate`` or a non-zero ``l2`` below the smallest
    normal float32. A product that itself underflows to a subnormal can
    still round differently: learning rates within a few times that bound
    take subnormal steps and can give other bits (their weights stay below
    ~1e-36); no fit in ``tests/test_linear.py`` meets one.
    A non-finite parameter (a diverged step) may turn to NaN sooner than in
    the plain loop; the check below refuses both.

    A step too large for the loss's curvature makes descent diverge. So a
    fit raises ``TrainingError`` when a column's final L2-regularised mean
    logistic loss, computed in float64 on the float64 features, exceeds
    log 2, its value at the zero start, or is not finite.
    """
    n, dim = features.shape
    k = targets.shape[1]
    x = features.astype(np.float32)
    xt = np.ascontiguousarray(x.T)
    y2 = np.ascontiguousarray(targets.T, dtype=np.float32)
    y2 *= 2.0
    step, l2, inv_n = (np.float32(v) for v in (config.learning_rate, config.l2, 1.0 / n))
    params = np.zeros((k, dim + 1), np.float32)
    half_w, half_b = params[:, :dim], params[:, dim:]
    grad = np.empty_like(params)
    grad_w, grad_b = grad[:, :dim], grad[:, dim]
    decay = np.empty_like(params)
    decay_rate = np.zeros(dim + 1, np.float32)
    decay_rate[:dim] = 2.0 * l2
    one, residual_scale, half_step = np.float32(1.0), inv_n / 2, step / 2
    r = np.empty((k, n), np.float32)
    # Each call writes into its last argument. Local names, float32 scalars
    # and positional outputs skip a global lookup, a scalar conversion and
    # numpy's keyword parsing per call.
    matmul, tanh, add, subtract, multiply = np.matmul, np.tanh, np.add, np.subtract, np.multiply
    row_sum = np.add.reduce
    for _ in range(config.max_iters):
        matmul(half_w, xt, r)
        add(r, half_b, r)
        tanh(r, r)
        add(r, one, r)
        subtract(r, y2, r)
        multiply(r, residual_scale, r)
        matmul(r, x, grad_w)
        row_sum(r, 1, None, grad_b)
        multiply(params, decay_rate, decay)
        add(grad, decay, grad)
        multiply(grad, half_step, grad)
        subtract(params, grad, params)
    params *= 2.0
    weights, bias = params[:, :dim].T.astype(float, order="C"), params[:, dim].astype(float)
    z = features @ weights
    z += bias
    # log(1 + e^z) - y z is the logistic loss of score z for target y.
    loss = (np.logaddexp(0.0, z) - targets * z).mean(axis=0)
    loss += 0.5 * config.l2 * (weights * weights).sum(axis=0)
    # NaN compares False, so a column counts as diverged unless its loss is
    # a number no larger than log 2.
    diverged = np.flatnonzero(~(loss <= math.log(2.0)))
    if diverged.size:
        worst = int(np.argmax(loss))
        raise TrainingError(
            f"gradient descent diverged at learning_rate {config.learning_rate!r}: "
            f"{diverged.size} of {k} fitted columns end above the zero-weight loss "
            f"log 2 or at a non-finite loss, column {worst} at {loss[worst]:.3g}"
        )
    return weights, bias


def _feature_matrix(vectors, label: str) -> np.ndarray:
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ConfigurationError(f"{label} must be a non-empty list of equal-length vectors")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{label} contain non-finite values")
    return arr


_Column = NamedTuple("_Column", [("weights", np.ndarray), ("bias", float)])


@dataclass(frozen=True, eq=False)
class _LinearBank:
    """k linear scores with a sigmoid link, clamped away from 0 and 1: column
    j of ``weights`` (dim, k) and ``bias[j]`` score classifier j. Both arrays
    are read-only C-contiguous copies, the layout every fit returns."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float, order="C")
        bias = np.array(self.bias, dtype=float)
        if weights.ndim != 2 or bias.shape != weights.shape[1:]:
            raise ConfigurationError("a bank needs (dim, k) weights and k biases")
        for name, value in (("weights", weights), ("bias", bias)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def classifiers(self) -> tuple[_Column, ...]:
        """One (weights, bias) pair per column; only the benchmark tracer reads it."""
        return tuple(_Column(self.weights[:, j], float(b)) for j, b in enumerate(self.bias))

    def _fresh(self, features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The checked ``features``, and new ``scores`` and ``out`` arrays,
        as the ``_into`` methods take them."""
        if not self.bias.size:
            raise StateError(f"{type(self).__name__} has not been trained")
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.weights.shape[0]:
            raise ConfigurationError("feature matrix does not match classifier dimension")
        shape = (features.shape[0], self.bias.size)
        return features, np.empty(shape), np.empty(shape)

    def probs_into(self, features, scores, out) -> np.ndarray:
        """Write the clamped probabilities of the (n, dim) ``features`` into
        the (n, k) float64 ``out`` and return it. The scores ``X @ W + b``
        go into ``scores``, also (n, k) float64 and C-contiguous, and are
        overwritten with scratch. ``out`` may share memory with
        ``features``, which the product has read before the link writes."""
        np.matmul(features, self.weights, out=scores)
        scores += self.bias
        _sigmoid(scores, out)
        return np.clip(out, PROB_CLAMP, 1.0 - PROB_CLAMP, out=out)


class CategoryModelBank(_LinearBank):
    """One one-vs-rest classifier per category; outputs a normalized posterior."""

    def posterior_batch(self, features: np.ndarray) -> np.ndarray:
        return self.posterior_into(*self._fresh(features))

    def posterior_into(self, features, scores, out) -> np.ndarray:
        """``posterior_batch``'s rows, written into ``out`` as ``probs_into``
        writes; each row's sum goes into the start of ``scores``."""
        self.probs_into(features, scores, out)
        sums = scores.reshape(-1)[: out.shape[0], None]
        np.add.reduce(out, axis=1, keepdims=True, out=sums)
        out /= sums
        return out


class AttributeModelBank(_LinearBank):
    """One independent presence classifier per attribute; no cross-attribute normalization."""

    def probs_batch(self, features: np.ndarray) -> np.ndarray:
        return self.probs_into(*self._fresh(features))


def _category_targets(features, categories, n_categories: int):
    """Checked features and one-hot one-vs-rest targets, one column per category."""
    _check_int(n_categories, "n_categories (one-vs-rest training)", 2)
    features = _feature_matrix(features, "features")
    categories = _int_array(categories, "category labels")
    if categories.shape != (features.shape[0],):
        raise ConfigurationError("one category label per feature row required")
    if categories.min() < 0 or categories.max() >= n_categories:
        raise ConfigurationError("category labels out of range")
    present = np.bincount(categories, minlength=n_categories)
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
    return CategoryModelBank(*_fit(features, targets, config))


def train_attribute_bank(
    features: np.ndarray,
    attributes: np.ndarray,
    config: TrainConfig | None = None,
) -> AttributeModelBank:
    """Train the M attribute presence classifiers in one vectorized pass.

    An attribute whose labels are single-class in the pool cannot be fit; it
    becomes a bias-only classifier at the clamped empirical rate instead of
    aborting the run.
    """
    config = config or TrainConfig()
    features = _feature_matrix(features, "features")
    attributes = np.asarray(attributes)
    if attributes.ndim != 2 or attributes.shape[0] != features.shape[0]:
        raise ConfigurationError("one attribute row per feature row required")
    if not np.isin(attributes, (0, 1)).all():
        raise ConfigurationError("attribute labels must be binary")
    targets = attributes.astype(float)
    rates = targets.mean(axis=0)
    mixed = np.flatnonzero((rates > 0.0) & (rates < 1.0))
    weights = np.zeros((features.shape[1], targets.shape[1]))
    clamped = np.clip(rates, PROB_CLAMP, 1.0 - PROB_CLAMP)
    bias = np.array([math.log(p / (1.0 - p)) for p in clamped.tolist()])
    if mixed.size:
        weights[:, mixed], bias[mixed] = _fit(features, targets[:, mixed], config)
    return AttributeModelBank(weights, bias)


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
    weights equal those of two separate calls, except when exactly one
    attribute is mixed: its separate fit is a one-column fit (see ``_fit``).
    """
    features, targets = _category_targets(features, categories, n_categories)
    attributes = np.asarray(attributes)
    if attributes.ndim != 2 or attributes.shape[0] != features.shape[0]:
        raise ConfigurationError("one attribute row per feature row required")
    stacked = np.hstack([targets, attributes.astype(float)])
    bank = train_attribute_bank(features, stacked, config)
    return (
        CategoryModelBank(bank.weights[:, :n_categories], bank.bias[:n_categories]),
        AttributeModelBank(bank.weights[:, n_categories:], bank.bias[n_categories:]),
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
