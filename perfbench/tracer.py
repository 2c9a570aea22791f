"""Span tracer for the coopattr benchmark's traced run.

The tracer wraps the library's public functions from outside, without editing
the package. ``harness`` binds most of them with ``from ... import``, so a
function is replaced in every ``coopattr`` module namespace that holds it; the
bank methods are replaced on their classes. ``restore`` puts every original
back.

Each wrapped call records one span ``[name, start, end, parent, op]``; spans
stay in memory and are written once, at the end of the run. A span's self
time is its duration minus its children's. Counts are taken at the same
boundaries, outside the span's own interval, from arguments and results only.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, counter). A counter runs after the call and
# only reads lengths or keeps references; heavier checks wait for the report.
FUNCTIONS = (
    ("coopattr.linear", "train_category_bank", "linear.fit", "_count_category_fit"),
    ("coopattr.linear", "train_attribute_bank", "linear.fit", "_count_attribute_fit"),
    ("coopattr.linear", "attribute_accuracy_arrays", "harness.metrics", None),
    ("coopattr.crf", "crf_posterior_batch", "crf.posterior", "_count_posterior"),
    ("coopattr.crf", "estimate_matrix_from_labels", "crf.estimate", None),
    ("coopattr.transfer", "select_transfers", "transfer.select", "_count_transfers"),
    ("coopattr.transfer", "select_prunes", "transfer.prune", "_count_prunes"),
    ("coopattr.pool", "move_to_labeled", "pool.update", "_count_pool"),
    ("coopattr.pool", "prune_from_labeled", "pool.update", "_count_pool"),
    ("coopattr.messages", "fuse_uniform", "messages.fuse", "_count_fuse"),
    ("coopattr.messages", "fuse_weighted", "messages.fuse", "_count_fuse"),
    ("coopattr.messages", "encode_message", "messages.codec", "_count_wire"),
    ("coopattr.messages", "decode_message", "messages.codec", None),
    ("coopattr.synthetic", "generate_world", "synthetic.world", None),
    ("coopattr.synthetic", "generate_noise_dataset", "synthetic.noise_dataset", None),
    ("coopattr.synthetic", "calibrate_noise_std", "synthetic.calibrate", None),
    ("coopattr.harness", "compute_purity", "harness.metrics", None),
    ("coopattr.harness", "compute_class_average_accuracy", "harness.metrics", None),
)

METHODS = (
    ("coopattr.linear", "CategoryModelBank", "posterior_batch", "linear.predict", "_count_predict"),
    ("coopattr.linear", "AttributeModelBank", "probs_batch", "linear.predict", "_count_predict"),
)

OP_SPAN = "harness.op"

# Per-layer metrics in report order: (name, unit, source). A source naming a
# span sums that span's self time; any other source is a count. Spans of
# ``synthetic.world`` and ``synthetic.calibrate`` run in set-up and between
# ops, so they are reported per call; everything else per traced op.
LAYER_METRICS = (
    ("linear.fit_calls", "count/op", "count"),
    ("linear.fit_rows", "count/op", "count"),
    ("linear.fit_s", "s/op", "linear.fit"),
    ("linear.converged_frac", "ratio", "derived"),
    ("linear.predict_calls", "count/op", "count"),
    ("linear.predict_rows", "count/op", "count"),
    ("linear.predict_s", "s/op", "linear.predict"),
    ("crf.posterior_calls", "count/op", "count"),
    ("crf.posterior_cells", "count/op", "count"),
    ("crf.posterior_s", "s/op", "crf.posterior"),
    ("crf.estimate_s", "s/op", "crf.estimate"),
    ("transfer.candidates", "count/op", "count"),
    ("transfer.chosen", "count/op", "count"),
    ("transfer.yield", "ratio", "derived"),
    ("transfer.select_s", "s/op", "transfer.select"),
    ("transfer.pruned", "count/op", "count"),
    ("transfer.prune_s", "s/op", "transfer.prune"),
    ("transfer.distractor_frac", "ratio", "derived"),
    ("pool.updates", "count/op", "count"),
    ("pool.update_s", "s/op", "pool.update"),
    ("messages.fuse_calls", "count/op", "count"),
    ("messages.fuse_s", "s/op", "messages.fuse"),
    ("messages.codec_s", "s/op", "messages.codec"),
    ("messages.matrices_exchanged", "count/op", "count"),
    ("messages.wire_bytes", "B/op", "count"),
    ("synthetic.world_s", "s/call", "synthetic.world"),
    ("synthetic.noise_dataset_s", "s/op", "synthetic.noise_dataset"),
    ("synthetic.calibrate_s", "s/call", "synthetic.calibrate"),
    ("harness.metrics_s", "s/op", "harness.metrics"),
    ("harness.self_s", "s/op", OP_SPAN),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Records spans and counts around coopattr's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fits: list[tuple] = []
        self.distractors: frozenset[int] = frozenset()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every traced function and method; ``restore`` undoes it.

        A name the imported package no longer has is listed in ``missing``
        and its layer reads zero.
        """
        if self._patches:
            return
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coopattr" or name.startswith("coopattr."))
        ]
        for module_name, attr, span, counter in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self._note_missing(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, span, counter in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self._note_missing(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, span, counter))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _note_missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def _wrap(self, fn, span_name, counter_name):
        spans = self.spans
        stack = self._stack
        counter = getattr(self, counter_name) if counter_name else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if counter is not None and self._op is not None:
                counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; layer spans inside it carry ``op_id``."""
        index = len(self.spans)
        self.spans.append([OP_SPAN, 0.0, 0.0, -1, op_id])
        self._stack.append(index)
        self._op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._op = None
            self.spans[index][1] = start
            self.spans[index][2] = end

    # -- counters ---------------------------------------------------------

    def _count_category_fit(self, args, kwargs, bank):
        self.fits.append((
            _arg(args, kwargs, 0, "features"),
            _arg(args, kwargs, 1, "categories"),
            _arg(args, kwargs, 2, "n_categories"),
            _arg(args, kwargs, 3, "config"),
            bank,
        ))

    def _count_attribute_fit(self, args, kwargs, bank):
        self.fits.append((
            _arg(args, kwargs, 0, "features"),
            _arg(args, kwargs, 1, "attributes"),
            None,
            _arg(args, kwargs, 2, "config"),
            bank,
        ))

    def _count_predict(self, args, kwargs, result):
        self.counts["linear.predict_calls"] += 1
        self.counts["linear.predict_rows"] += len(result)

    def _count_posterior(self, args, kwargs, result):
        probs = _arg(args, kwargs, 1, "attr_probs")
        n_categories = _arg(args, kwargs, 2, "n_categories")
        rows, n_attributes = np.shape(probs)
        self.counts["crf.posterior_calls"] += 1
        self.counts["crf.posterior_cells"] += rows * n_attributes * n_categories

    def _count_transfers(self, args, kwargs, chosen):
        self.counts["transfer.candidates"] += len(_arg(args, kwargs, 0, "candidates"))
        self.counts["transfer.chosen"] += len(chosen)
        self.counts["transfer.distractors"] += sum(
            1 for example_id, _ in chosen if example_id in self.distractors
        )

    def _count_prunes(self, args, kwargs, pruned):
        self.counts["transfer.pruned"] += len(pruned)

    def _count_pool(self, args, kwargs, result):
        self.counts["pool.updates"] += 1

    def _count_fuse(self, args, kwargs, result):
        self.counts["messages.fuse_calls"] += 1
        self.counts["messages.matrices_exchanged"] += len(_arg(args, kwargs, 1, "received"))

    def _count_wire(self, args, kwargs, data):
        self.counts["messages.wire_bytes"] += len(data)

    # -- results ----------------------------------------------------------

    def fit_stats(self, default_config) -> tuple[int, int, int]:
        """Fits, rows x classifier columns fitted, and fits that converged.

        A fit converged when its returned weights have max-abs gradient below
        ``tol``. The gradient of the L2-regularised mean logistic loss is
        recomputed here from the wrapped call's arguments and the
        ``TrainConfig`` it used, independently of the library's stopping test.
        Attribute columns with single-class labels are not fitted, and a bank
        with no other column is no fit.
        """
        fits = rows = converged = 0
        for features, labels, n_categories, config, bank in self.fits:
            config = config or default_config
            classifiers = bank.classifiers
            if n_categories is None:
                targets = np.asarray(labels, dtype=float)
                rates = targets.mean(axis=0)
                columns = np.flatnonzero((rates > 0.0) & (rates < 1.0))
                if columns.size == 0:
                    continue
                targets = targets[:, columns]
                classifiers = [classifiers[j] for j in columns]
            else:
                targets = (np.asarray(labels)[:, None] == np.arange(n_categories)).astype(float)
            x = np.asarray(features, dtype=float)
            weights = np.stack([c.weights for c in classifiers], axis=1)
            bias = np.array([c.bias for c in classifiers])
            probs = 0.5 * (1.0 + np.tanh(0.5 * (x @ weights + bias)))
            residual = (probs - targets) / x.shape[0]
            grad_w = x.T @ residual + config.l2 * weights
            grad_b = residual.sum(axis=0)
            fits += 1
            rows += targets.size
            converged += int(max(np.abs(grad_w).max(), np.abs(grad_b).max()) < config.tol)
        return fits, rows, converged

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self seconds per span name, inside ops and outside them, and call counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside: dict[str, float] = defaultdict(float)
        outside: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            own = end - start - child_time[index]
            (inside if op is not None else outside)[name] += own
            calls[name] += 1
        return inside, outside, calls

    def op_seconds(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == OP_SPAN]

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


def layer_metrics(tracer: Tracer, default_config) -> dict[str, float]:
    """Per-layer figures of a traced run, keyed as in ``LAYER_METRICS``."""
    inside, outside, calls = tracer.self_times()
    n_ops = max(len(tracer.op_seconds()), 1)
    counts = defaultdict(float, tracer.counts)
    fits, counts["linear.fit_rows"], converged = tracer.fit_stats(default_config)
    counts["linear.fit_calls"] = fits
    chosen = counts["transfer.chosen"]
    candidates = counts["transfer.candidates"]
    derived = {
        "linear.converged_frac": converged / fits if fits else 0.0,
        "transfer.yield": chosen / candidates if candidates else 0.0,
        "transfer.distractor_frac": counts["transfer.distractors"] / chosen if chosen else 0.0,
    }
    values = {}
    for name, unit, source in LAYER_METRICS:
        if source == "derived":
            values[name] = derived[name]
        elif source == "count":
            values[name] = counts.get(name, 0.0) / n_ops
        elif unit == "s/call":
            total = inside[source] + outside[source]
            values[name] = total / calls[source] if calls[source] else 0.0
        else:
            values[name] = inside[source] / n_ops
    return values
