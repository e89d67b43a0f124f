"""Supervised training for the encoder, with hand-derived gradients.

The forward pass is encoder.encode, run on a batch with a cache of the
intermediates backprop needs. During training stochastic depth drops each
block's branch per example with probability 1 - survival, and kept
branches are scaled by 1 / survival so inference needs no rescaling.

This module holds the loss, the backward pass and the optimizer. The
backward pass is written out analytically layer by layer; there is no
autodiff anywhere in the package. Gradients live in a plain dict keyed by
the same tensor names the weights use, which is also what the AdamW
update and the optimizer state files consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderWeights, encode, gelu_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# tensors that receive decoupled weight decay: the projection matrices.
# Biases and norm parameters are left undecayed.
_DECAYED_LEAVES = frozenset({"P0", "U", "G", "V", "W"})


class TrainingDivergedError(ValueError):
    """The loss became NaN or infinite; `step` is the step that produced it."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"training diverged at step {step} (loss {loss})")
        self.step = step


@dataclass
class TrainConfig:
    """Optimization hyperparameters; defaults are the full-size recipe."""

    epochs: int = 140
    batch_size: int = 256
    peak_lr: float = 1e-3
    warmup_epochs: int = 10
    weight_decay: float = 0.1
    label_smoothing: float = 0.1
    survival: float = 0.9
    time_masks: int = 2
    time_mask_width: int = 25
    freq_masks: int = 2
    freq_mask_width: int = 7
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.peak_lr <= 0:
            raise ValueError("peak_lr must be positive")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if not 0.0 < self.survival <= 1.0:
            raise ValueError("survival must lie in (0, 1]")
        for name in ("time_masks", "time_mask_width", "freq_masks", "freq_mask_width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def augment(features: np.ndarray, rng: np.random.Generator, config: TrainConfig) -> np.ndarray:
    """Mask random time columns and frequency rows of one (F, T) example.

    Per mask, a width is drawn uniformly from [0, max_width] and then a
    start position; the span is zeroed. Time masks are drawn before
    frequency masks. Returns a new array.
    """
    out = features.copy()
    n_freq, n_time = out.shape
    for _ in range(config.time_masks):
        width = int(rng.integers(0, config.time_mask_width + 1))
        start = int(rng.integers(0, n_time - width + 1))
        out[:, start : start + width] = 0.0
    for _ in range(config.freq_masks):
        width = int(rng.integers(0, config.freq_mask_width + 1))
        start = int(rng.integers(0, n_freq - width + 1))
        out[start : start + width, :] = 0.0
    return out


def smoothed_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, smoothing: float
) -> tuple[float, np.ndarray]:
    """Mean label-smoothed cross entropy and its gradient w.r.t. logits.

    The target distribution puts 1 - smoothing + smoothing/K on the true
    class and smoothing/K elsewhere; the gradient is (softmax - target)/B.
    """
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    loss = float(-(target * log_probs).sum(axis=1).mean())
    dlogits = (np.exp(log_probs) - target) / n
    return loss, dlogits


def _layer_norm_bwd(dy, xhat, istd, scale):
    reduce_axes = tuple(range(dy.ndim - 1))
    dscale = (dy * xhat).sum(axis=reduce_axes)
    dshift = dy.sum(axis=reduce_axes)
    dxhat = dy * scale
    dx = istd * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dscale, dshift


def forward_batch(
    features: np.ndarray,
    weights: EncoderWeights,
    *,
    survival: float = 1.0,
    rng: np.random.Generator | None = None,
):
    """Batched classifier forward pass.

    features is (B, n_mfcc, n_frames). Returns (logits, cache); the cache
    holds every intermediate loss_and_grads needs. With survival < 1 each
    block draws one keep decision per example, block 0 first (this is the
    only rng consumption); with survival 1 no randomness is used.
    """
    cfg = weights.config
    t = weights.tensors
    if features.ndim != 3 or features.shape[1:] != (cfg.n_mfcc, cfg.n_frames):
        raise ValueError(
            f"features shape {features.shape} != (B, {cfg.n_mfcc}, {cfg.n_frames})"
        )
    scales = None
    if survival < 1.0:
        if rng is None:
            raise ValueError("stochastic depth needs an rng")
        dtype = np.result_type(features, t["P0"], t["P0.bias"])
        scales = [
            ((rng.random(len(features)) < survival) / survival).astype(dtype)
            for _ in range(cfg.depth)
        ]
    cache: dict = {}
    ts = encode(features, t, cfg.depth, scales=scales, cache=cache)
    cache["pooled"] = ts.mean(axis=1)
    logits = cache["pooled"] @ t["head.W"] + t["head.bias"]
    return logits, cache


def loss_and_grads(
    features: np.ndarray,
    labels: np.ndarray,
    weights: EncoderWeights,
    *,
    label_smoothing: float = 0.0,
    survival: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean batch loss and analytic gradients for every tensor."""
    cfg = weights.config
    t = weights.tensors
    logits, cache = forward_batch(features, weights, survival=survival, rng=rng)
    loss, dlogits = smoothed_cross_entropy(logits, labels, label_smoothing)

    grads: dict[str, np.ndarray] = {}
    grads["head.W"] = cache["pooled"].T @ dlogits
    grads["head.bias"] = dlogits.sum(axis=0)
    dpooled = dlogits @ t["head.W"].T
    dts = np.broadcast_to(dpooled[:, None, :], (len(features), cfg.n_frames, cfg.dim))
    dts = dts / cfg.n_frames
    dx, grads["final_norm.scale"], grads["final_norm.shift"] = _layer_norm_bwd(
        dts, cache["xhat_f"], cache["istd_f"], t["final_norm.scale"]
    )
    for i in reversed(range(cfg.depth)):
        p = f"block.{i}."
        bc = cache["blocks"][i]
        dout = dx
        dbranch = dout if bc["scale"] is None else dout * bc["scale"][:, None, None]
        grads[p + "V"] = np.einsum("btc,btd->cd", bc["gated"], dbranch)
        grads[p + "V.bias"] = dbranch.sum(axis=(0, 1))
        dgated = dbranch @ t[p + "V"].T
        dvalue = dgated * bc["mixed"]
        dmixed = dgated * bc["value"]
        grads[p + "G"] = np.einsum("btd,bud->tu", dmixed, bc["n2"])
        grads[p + "G.bias"] = dmixed.sum(axis=(0, 2))
        dn2 = np.matmul(t[p + "G"].T, dmixed)
        dgate, grads[p + "gate_norm.scale"], grads[p + "gate_norm.shift"] = _layer_norm_bwd(
            dn2, bc["xhat2"], bc["istd2"], t[p + "gate_norm.scale"]
        )
        dhidden = np.concatenate([dvalue, dgate], axis=-1)
        dupre = dhidden * gelu_grad(bc["upre"])
        grads[p + "U"] = np.einsum("btd,bth->dh", bc["n1"], dupre)
        grads[p + "U.bias"] = dupre.sum(axis=(0, 1))
        dn1 = dupre @ t[p + "U"].T
        dxpre, grads[p + "pre_norm.scale"], grads[p + "pre_norm.shift"] = _layer_norm_bwd(
            dn1, bc["xhat1"], bc["istd1"], t[p + "pre_norm.scale"]
        )
        dx = dout + dxpre
    grads["P0"] = np.einsum("btf,btd->fd", np.swapaxes(features, 1, 2), dx)
    grads["P0.bias"] = dx.sum(axis=(0, 1))
    return loss, grads


def matrix_params(name: str) -> bool:
    """True for tensors that get weight decay (projection matrices)."""
    return name.rsplit(".", 1)[-1] in _DECAYED_LEAVES


@dataclass
class AdamWState:
    """First/second moment accumulators plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adamw_state(tensors: dict[str, np.ndarray]) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(t) for k, t in tensors.items()},
        v={k: np.zeros_like(t) for k, t in tensors.items()},
    )


def adamw_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamWState,
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam step, in place on params and state."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1**state.step
    bc2 = 1.0 - ADAM_BETA2**state.step
    for name, grad in grads.items():
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        p = params[name]
        if weight_decay != 0.0 and matrix_params(name):
            p -= lr * weight_decay * p
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def lr_at(config: TrainConfig, epoch: float) -> float:
    """Learning rate at a fractional epoch: linear warmup, cosine decay."""
    if epoch < config.warmup_epochs:
        return config.peak_lr * epoch / config.warmup_epochs
    span = config.epochs - config.warmup_epochs
    progress = min(1.0, (epoch - config.warmup_epochs) / span) if span > 0 else 1.0
    return 0.5 * config.peak_lr * (1.0 + math.cos(math.pi * progress))


@dataclass
class StepRecord:
    step: int
    epoch: int
    lr: float
    loss: float


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    state: AdamWState | None = None
    steps: int = 0


def train(
    features: np.ndarray,
    labels: np.ndarray,
    weights: EncoderWeights,
    config: TrainConfig,
    on_step=None,
) -> TrainResult:
    """Train in place on (N, n_mfcc, n_frames) features and integer labels.

    One seeded generator drives everything random, in a fixed order per
    step: the epoch shuffle, then per-example masking draws, then one
    stochastic-depth draw per block. Same seed, same data: bitwise
    identical weights out. A non-finite loss raises TrainingDivergedError
    before that step's update; the weights then hold the previous step's
    values and should be discarded.
    """
    cfg = weights.config
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 3 or features.shape[1:] != (cfg.n_mfcc, cfg.n_frames):
        raise ValueError("features must be (N, n_mfcc, n_frames)")
    if len(labels) != len(features) or len(features) == 0:
        raise ValueError("need one label per example, and at least one example")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError(f"labels must lie in [0, {cfg.n_classes})")
    if (config.time_masks > 0 and config.time_mask_width > cfg.n_frames) or (
        config.freq_masks > 0 and config.freq_mask_width > cfg.n_mfcc
    ):
        raise ValueError("mask widths cannot exceed the feature grid")

    rng = np.random.default_rng(config.seed)
    state = init_adamw_state(weights.tensors)
    n = len(features)
    steps_per_epoch = -(-n // config.batch_size)
    result = TrainResult(state=state)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            batch = np.stack([augment(features[i], rng, config) for i in idx])
            lr = lr_at(config, step / steps_per_epoch)
            loss, grads = loss_and_grads(
                batch,
                labels[idx],
                weights,
                label_smoothing=config.label_smoothing,
                survival=config.survival,
                rng=rng,
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(step, loss)
            adamw_update(weights.tensors, grads, state, lr, config.weight_decay)
            batch_losses.append(loss)
            if on_step is not None:
                on_step(StepRecord(step=step, epoch=epoch, lr=lr, loss=loss))
            step += 1
        result.epoch_losses.append(float(np.mean(batch_losses)))
    result.steps = step
    return result


def predict(features: np.ndarray, weights: EncoderWeights, batch_size: int = 256) -> np.ndarray:
    """Argmax class per example, batched inference (no stochastic depth)."""
    out = []
    for lo in range(0, len(features), batch_size):
        logits, _ = forward_batch(features[lo : lo + batch_size], weights)
        out.append(np.argmax(logits, axis=1))
    return np.concatenate(out)


def evaluate(features: np.ndarray, labels: np.ndarray, weights: EncoderWeights) -> float:
    """Exact-match accuracy of the classifier head."""
    return float((predict(features, weights) == np.asarray(labels)).mean())
