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

from .encoder import gelu, gelu_with_grad, glorot
from .trainer import adamw_update, class_count, init_adamw_state, smoothed_cross_entropy

# Hidden units at most. W1 is (features, hidden_units) float32: at the
# 1,024-wide scene embedding and 65,536 units that is 256 MiB, and a fit
# keeps about four such arrays (W1, its gradient, two AdamW moments).
MAX_HIDDEN_UNITS = 65536


@dataclass
class ProbeConfig:
    hidden_units: int = 0
    epochs: int = 200
    lr: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.hidden_units <= MAX_HIDDEN_UNITS:
            raise ValueError(f"hidden_units must lie in [0, {MAX_HIDDEN_UNITS}]")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class ProbeWeights:
    n_features: int
    n_classes: int
    hidden_units: int
    tensors: dict[str, np.ndarray] = field(repr=False)


def init_probe(n_features: int, n_classes: int, config: ProbeConfig) -> ProbeWeights:
    rng = np.random.default_rng(config.seed)
    if config.hidden_units == 0:
        tensors = {
            "W": glorot(rng, (n_features, n_classes)),
            "b": np.zeros(n_classes, dtype=np.float32),
        }
    else:
        tensors = {
            "W1": glorot(rng, (n_features, config.hidden_units)),
            "b1": np.zeros(config.hidden_units, dtype=np.float32),
            "W2": glorot(rng, (config.hidden_units, n_classes)),
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
    return _forward(embeddings, probe)[0]


def _forward(embeddings, probe, with_grad=False):
    """(logits, hidden, dgelu): hidden is None for a linear probe, dgelu without with_grad."""
    t = probe.tensors
    if probe.hidden_units == 0:
        return embeddings @ t["W"] + t["b"], None, None
    pre = embeddings @ t["W1"] + t["b1"]
    hidden, dgelu = gelu_with_grad(pre) if with_grad else (gelu(pre), None)
    return hidden @ t["W2"] + t["b2"], hidden, dgelu


def _probe_grads(embeddings, labels, probe):
    logits, hidden, dgelu = _forward(embeddings, probe, with_grad=True)
    loss, dlogits = smoothed_cross_entropy(logits, labels, 0.0)
    if hidden is None:
        return loss, {"W": embeddings.T @ dlogits, "b": dlogits.sum(axis=0)}
    dhidden = dlogits @ probe.tensors["W2"].T
    dpre = dhidden * dgelu
    return loss, {
        "W2": hidden.T @ dlogits,
        "b2": dlogits.sum(axis=0),
        "W1": embeddings.T @ dpre,
        "b1": dpre.sum(axis=0),
    }


def train_probe(
    embeddings: np.ndarray, labels: np.ndarray, config: ProbeConfig | None = None
) -> ProbeWeights:
    """Fit a probe full-batch; the number of classes is max(labels) + 1.

    Raises ValueError on bad inputs, among them a largest label not below
    the number of examples (checked before the probe is allocated), on
    the first non-finite loss, and on a non-finite optimizer state or
    non-finite logits after the last update.
    """
    if config is None:
        config = ProbeConfig()
    embeddings = np.asarray(embeddings, dtype=np.float32)
    labels = np.asarray(labels)
    if embeddings.ndim != 2:
        raise ValueError("embeddings must be a 2-D (examples, features) matrix")
    if len(labels) != len(embeddings) or len(embeddings) == 0:
        raise ValueError("need one label per embedding, and at least one example")
    n_classes = class_count(labels)

    probe = init_probe(embeddings.shape[1], n_classes, config)
    state = init_adamw_state(probe.tensors)
    for epoch in range(config.epochs):
        loss, grads = _probe_grads(embeddings, labels, probe)
        if not math.isfinite(loss):
            raise ValueError(f"probe loss is not finite at epoch {epoch}")
        adamw_update(probe.tensors, grads, state, config.lr, 0.0)
    # an overflowed moment stalls its weights without making them non-finite
    if not all(np.isfinite(t).all() for t in state.values()):
        raise ValueError("probe optimizer state overflowed")
    if not np.isfinite(probe_logits(embeddings, probe)).all():
        raise ValueError("probe logits are not finite after the last update")
    return probe


def predict_probe(embeddings: np.ndarray, probe: ProbeWeights) -> np.ndarray:
    return np.argmax(probe_logits(embeddings, probe), axis=1)


def evaluate_probe(embeddings: np.ndarray, labels: np.ndarray, probe: ProbeWeights) -> float:
    """Exact-match accuracy of the probe on the given examples."""
    labels = np.asarray(labels)
    if len(labels) != len(embeddings):
        raise ValueError("need one label per embedding")
    return float((predict_probe(embeddings, probe) == labels).mean())
