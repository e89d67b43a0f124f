"""Shallow probes: small classifiers trained on frozen embeddings.

A probe never touches encoder weights; it sees only an (N, features)
matrix of embeddings plus integer labels. hidden_units=0 gives a linear
softmax classifier, anything larger inserts one GELU hidden layer. The
probe trains full-batch with plain (unsmoothed) cross entropy, using the
trainer module's optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import gelu, gelu_with_grad
from .trainer import adamw_update, init_adamw_state, smoothed_cross_entropy


@dataclass
class ProbeConfig:
    hidden_units: int = 0
    epochs: int = 200
    lr: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be non-negative")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")


@dataclass
class ProbeWeights:
    n_features: int
    n_classes: int
    hidden_units: int
    tensors: dict[str, np.ndarray] = field(repr=False)


def init_probe(n_features: int, n_classes: int, config: ProbeConfig) -> ProbeWeights:
    rng = np.random.default_rng(config.seed)

    def glorot(shape):
        limit = math.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, shape).astype(np.float32)

    if config.hidden_units == 0:
        tensors = {
            "W": glorot((n_features, n_classes)),
            "b": np.zeros(n_classes, dtype=np.float32),
        }
    else:
        tensors = {
            "W1": glorot((n_features, config.hidden_units)),
            "b1": np.zeros(config.hidden_units, dtype=np.float32),
            "W2": glorot((config.hidden_units, n_classes)),
            "b2": np.zeros(n_classes, dtype=np.float32),
        }
    return ProbeWeights(n_features, n_classes, config.hidden_units, tensors)


def probe_logits(embeddings: np.ndarray, probe: ProbeWeights) -> np.ndarray:
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[1] != probe.n_features:
        raise ValueError(
            f"embeddings shape {embeddings.shape} incompatible with "
            f"{probe.n_features}-feature probe"
        )
    t = probe.tensors
    if probe.hidden_units == 0:
        return embeddings @ t["W"] + t["b"]
    hidden = gelu(embeddings @ t["W1"] + t["b1"])
    return hidden @ t["W2"] + t["b2"]


def _probe_grads(embeddings, labels, probe):
    t = probe.tensors
    if probe.hidden_units == 0:
        logits = embeddings @ t["W"] + t["b"]
        loss, dlogits = smoothed_cross_entropy(logits, labels, 0.0)
        return loss, {"W": embeddings.T @ dlogits, "b": dlogits.sum(axis=0)}
    hidden, dgelu = gelu_with_grad(embeddings @ t["W1"] + t["b1"])
    logits = hidden @ t["W2"] + t["b2"]
    loss, dlogits = smoothed_cross_entropy(logits, labels, 0.0)
    dhidden = dlogits @ t["W2"].T
    dpre = dhidden * dgelu
    grads = {
        "W2": hidden.T @ dlogits,
        "b2": dlogits.sum(axis=0),
        "W1": embeddings.T @ dpre,
        "b1": dpre.sum(axis=0),
    }
    return loss, grads


def train_probe(
    embeddings: np.ndarray, labels: np.ndarray, config: ProbeConfig | None = None
) -> ProbeWeights:
    """Fit a probe full-batch; the number of classes is max(labels) + 1."""
    if config is None:
        config = ProbeConfig()
    embeddings = np.asarray(embeddings, dtype=np.float32)
    labels = np.asarray(labels)
    if embeddings.ndim != 2:
        raise ValueError("embeddings must be a 2-D (examples, features) matrix")
    if len(labels) != len(embeddings) or len(embeddings) == 0:
        raise ValueError("need one label per embedding, and at least one example")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    if len(np.unique(labels)) < 2:
        raise ValueError("probe training needs at least two distinct labels")
    n_classes = int(labels.max()) + 1

    probe = init_probe(embeddings.shape[1], n_classes, config)
    state = init_adamw_state(probe.tensors)
    for _ in range(config.epochs):
        _, grads = _probe_grads(embeddings, labels, probe)
        adamw_update(probe.tensors, grads, state, config.lr, 0.0)
    return probe


def predict_probe(embeddings: np.ndarray, probe: ProbeWeights) -> np.ndarray:
    return np.argmax(probe_logits(embeddings, probe), axis=1)


def evaluate_probe(embeddings: np.ndarray, labels: np.ndarray, probe: ProbeWeights) -> float:
    """Exact-match accuracy of the probe on the given examples."""
    labels = np.asarray(labels)
    if len(labels) != len(embeddings):
        raise ValueError("need one label per embedding")
    return float((predict_probe(embeddings, probe) == labels).mean())
