"""Multinomial logistic regression over fingerprint vectors, with two-branch
score fusion.

A single linear softmax layer stands in for a deep time-series classifier:
the fingerprints do the heavy lifting, and a convex model keeps training
deterministic and the gradients checkable. Training minimizes label-smoothed
cross-entropy plus an L2 penalty on the weights by mini-batch gradient
descent, holds out a stratified validation split, and keeps the epoch with
the lowest validation loss. The two-branch protocol trains one model per
preamble field and fuses by summing the branches' softmax outputs (of any
number of branches; one batched scorer gives them) and taking the argmax.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .features import FeatureVector


class TrainError(ValueError):
    pass


class PredictError(ValueError):
    pass


class FuseError(ValueError):
    pass


class EvalError(ValueError):
    pass


class ModelFileError(ValueError):
    """A model file that cannot be read or does not hold a valid model."""


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters, the classifier table of the experiment
    config; the defaults suit the Adam steps `train` takes."""

    epochs: int = 50
    batch: int = 64
    learning_rate: float = 1e-3
    l2: float = 0.1
    label_smoothing: float = 0.1
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            v, integer = getattr(self, f.name), f.type == "int"
            kind, word = (numbers.Integral, "integer") if integer else (numbers.Real, "number")
            if isinstance(v, bool) or not isinstance(v, kind) or not -np.inf < v < np.inf:
                raise ValueError(f"{f.name} must be a finite {word}, got {v!r}")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be positive")
        if self.learning_rate <= 0 or self.l2 < 0:
            raise ValueError("learning_rate must be positive and l2 nonnegative")
        if not 0.0 <= self.label_smoothing < 0.5:
            raise ValueError("label_smoothing must lie in [0, 0.5)")
        if not 0.0 <= self.validation_fraction < 0.5:
            raise ValueError("validation_fraction must lie in [0, 0.5)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class SoftmaxModel:
    """Linear softmax over standardized inputs. `input_mean`/`input_scale`
    are the training set's per-dimension statistics; fingerprint vectors
    are unit-normalized with a dominant flat component, so without the
    rescaling the discriminative directions are orders of magnitude smaller
    than the regularizer's pull."""

    weights: np.ndarray  # [num_classes, feature_dim]
    bias: np.ndarray  # [num_classes]
    classes: list[str]
    trained_on: str
    input_mean: np.ndarray | None = None
    input_scale: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.input_mean is None:
            self.input_mean = np.zeros(self.weights.shape[1])
        if self.input_scale is None:
            self.input_scale = np.ones(self.weights.shape[1])
        self.input_mean = np.asarray(self.input_mean, dtype=np.float64)
        self.input_scale = np.asarray(self.input_scale, dtype=np.float64)
        if not self.classes or len(set(self.classes)) != len(self.classes):
            raise ValueError("classes must be nonempty and unique")
        for arr in (self.weights, self.bias, self.input_mean, self.input_scale):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model parameters must be finite")

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_gradient(
    weights: np.ndarray,
    bias: np.ndarray,
    x: np.ndarray,
    y_idx: np.ndarray,
    l2: float,
    label_smoothing: float,
):
    """Mean label-smoothed cross-entropy plus (l2/2)*||W||_F^2, with its
    analytic gradients. Exposed for finite-difference verification."""
    n, _ = x.shape
    c = weights.shape[0]
    probs = _softmax(x @ weights.T + bias)
    targets = np.full((n, c), label_smoothing / c)
    targets[np.arange(n), y_idx] += 1.0 - label_smoothing
    ce = -np.sum(targets * np.log(probs)) / n
    loss = ce + 0.5 * l2 * float(np.sum(weights**2))
    delta = (probs - targets) / n
    grad_w = delta.T @ x + l2 * weights
    grad_b = delta.sum(axis=0)
    return loss, grad_w, grad_b


def _stratified_split(y_idx: np.ndarray, fraction: float, rng: np.random.Generator):
    """Per-class holdout indices; classes with fewer than 2 samples stay
    fully in training (no validation possible for them)."""
    val = []
    # the sorted classes present; np.unique would import numpy.ma
    for cls in np.flatnonzero(np.bincount(y_idx)):
        members = np.nonzero(y_idx == cls)[0]
        if members.size < 2:
            continue
        n_val = max(1, int(round(fraction * members.size)))
        n_val = min(n_val, members.size - 1)
        picked = rng.permutation(members)[:n_val]
        val.extend(picked.tolist())
    val_mask = np.zeros(y_idx.size, dtype=bool)
    val_mask[val] = True
    return ~val_mask, val_mask


def _as_matrix(features):
    # mixed extractors imply mixed dimensions too, since every extractor
    # pins its own (FeatureVector enforces that); a block contributes its rows
    x, labels = [], []
    extractor = None
    for f in features:
        if not isinstance(f, FeatureVector):
            raise TrainError("expected FeatureVector inputs")
        if f.device_hint is None:
            raise TrainError("every feature needs a device label (device_hint)")
        if extractor is None:
            extractor = f.extractor
        elif f.extractor is not extractor:
            raise TrainError(
                f"mixed extractors: {extractor.value} and {f.extractor.value}"
            )
        x.append(np.atleast_2d(f.values))
        labels.extend([f.device_hint] * len(x[-1]))
    if not labels:
        raise TrainError("no features given")
    return np.concatenate(x), labels, extractor


def train(features, cfg: TrainConfig) -> SoftmaxModel:
    """Fit the softmax model on labeled feature vectors (labels come from
    `device_hint`). Deterministic given `cfg.seed`."""
    x, labels, extractor = _as_matrix(features)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise TrainError("need at least two classes")
    class_idx = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([class_idx[l] for l in labels])
    n, dim = x.shape
    rng = np.random.default_rng(cfg.seed)
    train_mask, val_mask = _stratified_split(y_idx, cfg.validation_fraction, rng)
    if cfg.validation_fraction == 0.0 or not val_mask.any():
        train_mask = np.ones(n, dtype=bool)
        val_mask = np.zeros(n, dtype=bool)
    mean = x[train_mask].mean(axis=0)
    scale = x[train_mask].std(axis=0)
    scale[scale < 1e-12] = 1.0
    x = (x - mean) / scale
    x_tr, y_tr = x[train_mask], y_idx[train_mask]
    x_val, y_val = x[val_mask], y_idx[val_mask]

    w = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    # Adam moments of the weights and the bias, and the step count
    mw, vw, mb, vb = np.zeros_like(w), np.zeros_like(w), np.zeros_like(b), np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0
    best = (np.inf, w.copy(), b.copy())
    for _ in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        for start in range(0, order.size, cfg.batch):
            batch = order[start : start + cfg.batch]
            _, gw, gb = loss_and_gradient(w, b, x_tr[batch], y_tr[batch], cfg.l2, cfg.label_smoothing)
            t += 1
            mw = beta1 * mw + (1 - beta1) * gw
            vw = beta2 * vw + (1 - beta2) * gw**2
            mb = beta1 * mb + (1 - beta1) * gb
            vb = beta2 * vb + (1 - beta2) * gb**2
            corr1, corr2 = 1 - beta1**t, 1 - beta2**t
            w -= cfg.learning_rate * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
            b -= cfg.learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
        if x_val.shape[0] > 0:
            score, _, _ = loss_and_gradient(w, b, x_val, y_val, cfg.l2, cfg.label_smoothing)
        else:
            score, _, _ = loss_and_gradient(w, b, x_tr, y_tr, cfg.l2, cfg.label_smoothing)
        if score < best[0]:
            best = (score, w.copy(), b.copy())
    _, w, b = best
    return SoftmaxModel(weights=w, bias=b, classes=classes, trained_on=extractor.value,
                        input_mean=mean, input_scale=scale)


def _scores(model: SoftmaxModel, blocks) -> np.ndarray:
    """Softmax probabilities of every row of `blocks`, (rows, feature table
    or None for a bare vector) pairs, stacked. A model scores only the table
    it trained on. The product sums each row's terms in one order, so a row
    scores the same bits alone as in any pool (a BLAS `@` does not: its
    order depends on how many rows share the product)."""
    for x, table in blocks:
        if x.shape[1:] != (model.feature_dim,):
            raise PredictError(f"feature dim {x.shape[1:]} != model dim {model.feature_dim}")
        if table is not None and table.value != model.trained_on:
            raise EvalError(f"a model trained on {model.trained_on} features cannot score "
                            f"{table.value} features")
    x = (np.concatenate([x for x, _ in blocks]) - model.input_mean) / model.input_scale
    return _softmax(np.einsum("nd,cd->nc", x, model.weights) + model.bias)


def _same_classes(models) -> None:
    if any(m.classes != models[0].classes for m in models):
        raise FuseError("branch models disagree on the class list")


def predict_scores(model: SoftmaxModel, feature) -> np.ndarray:
    """Softmax probabilities over the model's classes: the scorer on a
    one-row batch."""
    v = feature.values if isinstance(feature, FeatureVector) else np.asarray(feature, float)
    return _scores(model, [(v[None], None)])[0]


def fuse_and_classify(models, features) -> str:
    """Sum the branch probability vectors (one feature per branch model) and
    take the argmax; ties resolve to the earliest class in the shared class
    order."""
    _same_classes(models)
    combined = sum(predict_scores(m, f) for m, f in zip(models, features, strict=True))
    return models[0].classes[int(np.argmax(combined))]


def classify(model: SoftmaxModel, feature) -> str:
    return model.classes[int(np.argmax(predict_scores(model, feature)))]


def _fused_accuracy(models, groups) -> float:
    """Fraction of rows whose summed branch probabilities peak (at the
    earliest class on ties) at their label. `groups` hold one labeled
    FeatureVector per model, whose blocks pair up row by row; labels come
    from the first branch's device_hint. One product per branch scores
    them all."""
    groups = [tuple(g) for g in groups]
    rows = [min(len(np.atleast_2d(f.values)) for f in g) for g in groups]
    labels = [g[0].device_hint for g, n in zip(groups, rows) for _ in range(n)]
    if not labels:
        raise EvalError("empty test set")
    _same_classes(models)
    combined = sum(_scores(m, [(np.atleast_2d(f.values)[:n], f.extractor)
                               for f, n in zip(branch, rows)])
                   for m, branch in zip(models, zip(*groups), strict=True))
    picked = np.argmax(combined, axis=1).tolist()
    return sum(models[0].classes[i] == label for i, label in zip(picked, labels)) / len(labels)


def evaluate(model: SoftmaxModel, features) -> float:
    """Fraction of correctly classified labeled features (every row of a
    block FeatureVector counts as one)."""
    return _fused_accuracy((model,), [(f,) for f in features])


def evaluate_fused(models, feature_groups) -> float:
    """Accuracy of the fusion of any number of branch models over feature
    groups, one FeatureVector per branch (blocks pair up row by row);
    labels come from the first branch's device_hint."""
    return _fused_accuracy(models, feature_groups)


MODEL_FORMAT_VERSION = 1


def save_model(model: SoftmaxModel, path, train_config: TrainConfig | None = None) -> None:
    # `optimizer` is echoed as a constant (training always takes Adam steps)
    # until the output formats' next version (ROADMAP item 6).
    echo = None if train_config is None else {**asdict(train_config), "optimizer": "adam"}
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "softmax_linear",
        "extractor": model.trained_on,
        "classes": model.classes,
        "feature_dim": model.feature_dim,
        "weights": model.weights.tolist(),
        "bias": model.bias.tolist(),
        "input_mean": model.input_mean.tolist(),
        "input_scale": model.input_scale.tolist(),
        "train_config": echo,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def load_model(path) -> SoftmaxModel:
    """The model `save_model` wrote to `path`; an unreadable file or one
    that holds no valid model raises `ModelFileError`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ModelFileError(f"cannot read model {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: expected a JSON object")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ModelFileError(f"{path}: unsupported model format {doc.get('format_version')}")
    try:
        return SoftmaxModel(
            weights=np.array(doc["weights"]),
            bias=np.array(doc["bias"]),
            classes=list(doc["classes"]),
            trained_on=doc["extractor"],
            input_mean=np.array(doc.get("input_mean")) if doc.get("input_mean") else None,
            input_scale=np.array(doc.get("input_scale")) if doc.get("input_scale") else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"{path}: bad model: {exc!r}") from exc
