"""Supervised training for the encoder, with hand-derived gradients.

The forward pass is encoder.encode, run on a batch with a cache of the
intermediates backprop needs. During training stochastic depth drops each
block's branch per example with probability 1 - survival, and kept
branches are scaled by 1 / survival so inference needs no rescaling.

This module holds the loss, the backward pass and the optimizer. The
backward pass is written out analytically layer by layer; there is no
autodiff anywhere in the package. It reads the GELU derivative that the
forward pass computed along with GELU itself (encoder.gelu_with_grad),
recomputes each block's two norm outputs from the cached xhat (the same
bits, without keeping them), runs the layer-norm backward pass in place
with its row means taken as encoder.layer_norm takes them, and forms
every weight gradient as one matrix product over a batch's flattened
(B * frames) rows. Gradients live in a plain dict keyed by the same
tensor names the weights use, which is also what the AdamW update and
the optimizer state files consume.

A step runs in micro-batches of _MICRO_BATCH examples. loss_and_grads
draws every block's stochastic-depth decisions for the whole batch first,
then runs forward, loss and backward on one slice at a time and adds the
slices' weight gradients together. Examples never interact (layer norm
works per frame, pooling per example), so the loss and the random stream
are those of one pass over the whole batch, and only the float summation
order of the gradients differs. Only one slice's cache is alive at a
time, so a step's memory does not grow with the batch size, and a
slice's activations stay in the CPU cache. predict runs in the same
micro-batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, EncoderWeights, encode

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# tensors that receive decoupled weight decay: the projection matrices.
# Biases and norm parameters are left undecayed.
_DECAYED_LEAVES = frozenset({"P0", "U", "G", "V", "W"})

# Examples per forward/backward pass in loss_and_grads and predict. In the
# depth-12, batch-64 training benchmark (one BLAS thread, 2-CPU host), 2, 4
# and 8 ran at 39.9, 40.7 and 40.3 audio-s/s, equal within noise, and
# peaked at 65, 74 and 88 MB RSS; 4 makes half the numpy calls of 2.
_MICRO_BATCH = 4


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


def _cross_entropy_terms(
    logits: np.ndarray, labels: np.ndarray, smoothing: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per example, sum(target * log softmax) and softmax - target.

    The target distribution puts 1 - smoothing + smoothing/K on the true
    class and smoothing/K elsewhere. Every row depends on its own logits
    only.
    """
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.full((n, k), smoothing / k, dtype=logits.dtype)
    target[np.arange(n), labels] += 1.0 - smoothing
    return (target * log_probs).sum(axis=1), np.exp(log_probs) - target


def smoothed_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, smoothing: float
) -> tuple[float, np.ndarray]:
    """Mean label-smoothed cross entropy and its gradient w.r.t. logits.

    The gradient is (softmax - target) / B; see _cross_entropy_terms for
    the target.
    """
    rows, residual = _cross_entropy_terms(logits, labels, smoothing)
    return float(-rows.mean()), residual / len(logits)


def _layer_norm_bwd(dy, xhat, istd, scale):
    """dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = dy * scale.

    The row means are np.mean's float steps (as in encoder.layer_norm) and
    the rest runs in place in dxhat: the same bits as the expression.
    """
    reduce_axes = tuple(range(dy.ndim - 1))
    n = dy.shape[-1]
    dscale = (dy * xhat).sum(axis=reduce_axes)
    dshift = dy.sum(axis=reduce_axes)
    dxhat = dy * scale
    prod = dxhat * xhat
    mean_prod = np.add.reduce(prod, axis=-1, keepdims=True)
    mean_prod /= n
    mean = np.add.reduce(dxhat, axis=-1, keepdims=True)
    mean /= n
    dxhat -= mean
    dxhat -= np.multiply(xhat, mean_prod, out=prod)
    dxhat *= istd
    return dxhat, dscale, dshift


def _flat(x: np.ndarray) -> np.ndarray:
    """(B, T, C) to (B * T, C), so a weight gradient is one matrix product."""
    return x.reshape(-1, x.shape[-1])


def _check_features(features: np.ndarray, cfg: EncoderConfig) -> None:
    if features.ndim != 3 or features.shape[1:] != (cfg.n_mfcc, cfg.n_frames):
        raise ValueError(
            f"features shape {features.shape} != (B, {cfg.n_mfcc}, {cfg.n_frames})"
        )


def _branch_scales(
    features: np.ndarray,
    weights: EncoderWeights,
    survival: float,
    rng: np.random.Generator | None,
) -> list[np.ndarray] | None:
    """Per-block (B,) stochastic-depth factors for a batch, keep / survival.

    Block 0 first, one rng.random(B) per block; this is the only rng
    consumption of a training step. With survival 1 nothing is drawn and
    the result is None.
    """
    if survival >= 1.0:
        return None
    if rng is None:
        raise ValueError("stochastic depth needs an rng")
    t = weights.tensors
    dtype = np.result_type(features, t["P0"], t["P0.bias"])
    return [
        ((rng.random(len(features)) < survival) / survival).astype(dtype)
        for _ in range(weights.config.depth)
    ]


def forward_batch(
    features: np.ndarray,
    weights: EncoderWeights,
    *,
    scales: list[np.ndarray] | None = None,
):
    """Batched classifier forward pass.

    features is (B, n_mfcc, n_frames). Returns (logits, cache); the cache
    holds every intermediate the backward pass needs. Given scales (from
    _branch_scales), block i's branch is multiplied by scales[i], its
    stochastic-depth factor per example; without, every branch is kept.
    Nothing is drawn here: loss_and_grads draws once for the whole batch
    and passes each micro-batch its slice.
    """
    cfg = weights.config
    t = weights.tensors
    _check_features(features, cfg)
    cache: dict = {}
    ts = encode(features, t, cfg.depth, scales=scales, cache=cache)
    cache["pooled"] = ts.mean(axis=1)
    logits = cache["pooled"] @ t["head.W"] + t["head.bias"]
    return logits, cache


def _backward(
    features: np.ndarray, cache: dict, dlogits: np.ndarray, weights: EncoderWeights
) -> dict[str, np.ndarray]:
    """Gradients of every tensor, from forward_batch's cache and dlogits.

    Consumes the cache: each block's entry is removed from it once that
    block's gradients are formed, so the cache shrinks as the gradients
    grow.
    """
    cfg = weights.config
    t = weights.tensors
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
        bc = cache["blocks"].pop()  # block i's; dropped once its gradients are formed
        dout = dx
        dbranch = dout if bc["scale"] is None else dout * bc["scale"][:, None, None]
        grads[p + "V"] = _flat(bc["gated"]).T @ _flat(dbranch)
        grads[p + "V.bias"] = dbranch.sum(axis=(0, 1))
        dgated = dbranch @ t[p + "V"].T
        dvalue = dgated * bc["mixed"]
        dmixed = dgated * bc["value"]
        n2 = bc["xhat2"] * t[p + "gate_norm.scale"] + t[p + "gate_norm.shift"]
        grads[p + "G"] = (dmixed @ np.swapaxes(n2, 1, 2)).sum(axis=0)
        grads[p + "G.bias"] = dmixed.sum(axis=(0, 2))
        dn2 = np.matmul(t[p + "G"].T, dmixed)
        dgate, grads[p + "gate_norm.scale"], grads[p + "gate_norm.shift"] = _layer_norm_bwd(
            dn2, bc["xhat2"], bc["istd2"], t[p + "gate_norm.scale"]
        )
        dhidden = np.concatenate([dvalue, dgate], axis=-1)
        dupre = dhidden * bc["dgelu"]
        n1 = bc["xhat1"] * t[p + "pre_norm.scale"] + t[p + "pre_norm.shift"]
        grads[p + "U"] = _flat(n1).T @ _flat(dupre)
        grads[p + "U.bias"] = dupre.sum(axis=(0, 1))
        dn1 = dupre @ t[p + "U"].T
        dxpre, grads[p + "pre_norm.scale"], grads[p + "pre_norm.shift"] = _layer_norm_bwd(
            dn1, bc["xhat1"], bc["istd1"], t[p + "pre_norm.scale"]
        )
        dx = dout + dxpre
    grads["P0"] = _flat(np.swapaxes(features, 1, 2)).T @ _flat(dx)
    grads["P0.bias"] = dx.sum(axis=(0, 1))
    return grads


def loss_and_grads(
    features: np.ndarray,
    labels: np.ndarray,
    weights: EncoderWeights,
    *,
    label_smoothing: float = 0.0,
    survival: float = 1.0,
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean batch loss and analytic gradients for every tensor.

    The stochastic-depth factors are drawn for the whole batch first
    (_branch_scales). Forward, loss rows and backward then run on
    _MICRO_BATCH examples at a time; each slice's cache is dropped before
    the next forward, and its gradients are added into the totals.
    dlogits is divided by the whole batch's size.
    """
    _check_features(features, weights.config)
    n = len(features)
    if n == 0:
        raise ValueError("empty batch")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} examples")
    scales = _branch_scales(features, weights, survival, rng)
    rows = []
    grads: dict[str, np.ndarray] = {}
    for lo in range(0, n, _MICRO_BATCH):
        part = slice(lo, lo + _MICRO_BATCH)
        logits, cache = forward_batch(
            features[part], weights, scales=None if scales is None else [s[part] for s in scales]
        )
        row, residual = _cross_entropy_terms(logits, labels[part], label_smoothing)
        rows.append(row)
        for name, grad in _backward(features[part], cache, residual / n, weights).items():
            if name in grads:
                grads[name] += grad
            else:
                grads[name] = grad
        del cache
    return float(-np.concatenate(rows).mean()), grads


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


def predict(features: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Argmax class per example, in micro-batches (no stochastic depth).

    The logits are forward_batch's, but encode runs without a cache, so no
    backward intermediates are kept.
    """
    cfg = weights.config
    t = weights.tensors
    out = []
    for lo in range(0, len(features), _MICRO_BATCH):
        batch = features[lo : lo + _MICRO_BATCH]
        _check_features(batch, cfg)
        logits = encode(batch, t, cfg.depth).mean(axis=1) @ t["head.W"] + t["head.bias"]
        out.append(np.argmax(logits, axis=1))
    return np.concatenate(out)


def evaluate(features: np.ndarray, labels: np.ndarray, weights: EncoderWeights) -> float:
    """Exact-match accuracy of the classifier head."""
    return float((predict(features, weights) == np.asarray(labels)).mean())
