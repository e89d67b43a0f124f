"""Supervised training for the encoder, with hand-derived gradients.

The encoder's forward and backward passes are encoder.encode and
encoder.encode_backward; this module holds the pooled classifier head,
the loss, stochastic depth and the optimizer. During training stochastic
depth drops each block's branch per example with probability
1 - survival, and kept branches are scaled by 1 / survival so inference
needs no rescaling. Gradients live in a plain dict keyed by the same
tensor names the weights use, and AdamW's state is a flat table of the
same names with "m."/"v." prefixes, the table an OPT1 file holds.

A step runs in encoder.micro_batches of the cached size, 2 examples.
loss_and_grads draws every block's stochastic-depth decisions for the
whole batch first, then runs forward, loss and backward on one slice at a
time, adding each weight gradient into the step's totals as soon as it is
formed. Examples never interact (layer norm works per frame, pooling per
example), so the loss and the random stream are those of one pass over
the whole batch, and only the float summation order of the gradients
differs. Only one slice's cache is alive at a time, so a step's memory
does not grow with the batch size: the cache of 2 examples and the
gradient totals set it. predict is one uncached encode call, which cuts
the uncached micro-batches of 4 itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    EncoderConfig,
    EncoderWeights,
    add_grad,
    all_finite,
    check_features,
    encode,
    encode_backward,
    micro_batches,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(ValueError):
    """The loss or a weight became NaN or infinite; `step` is the step that
    produced it, and `reason` says which.
    """

    def __init__(self, step: int, reason: str):
        super().__init__(f"training diverged at step {step} ({reason})")
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
        if not 0 < self.peak_lr < math.inf:
            raise ValueError("peak_lr must be positive and finite")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must lie in [0, 1)")
        if not 0.0 < self.survival <= 1.0:
            raise ValueError("survival must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("time_masks", "time_mask_width", "freq_masks", "freq_mask_width"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def check_mask_widths(self, cfg: EncoderConfig) -> None:
        """ValueError if a mask can be wider than cfg's (n_mfcc, n_frames) feature
        grid, or if there are more time masks than frames or more frequency
        masks than coefficients (each mask is one draw per example per step).
        """
        grid = f"{cfg.n_mfcc}x{cfg.n_frames}"
        if (self.time_masks > 0 and self.time_mask_width > cfg.n_frames) or (
            self.freq_masks > 0 and self.freq_mask_width > cfg.n_mfcc
        ):
            raise ValueError(f"mask widths cannot exceed the {grid} feature grid")
        if self.time_masks > cfg.n_frames or self.freq_masks > cfg.n_mfcc:
            raise ValueError(
                f"the {grid} feature grid takes at most {cfg.n_frames} time masks "
                f"and {cfg.n_mfcc} frequency masks"
            )


def class_count(labels: np.ndarray) -> int:
    """Largest label + 1, checked before anything is sized by it: ValueError
    unless labels are non-negative, below their count and not all equal.
    """
    labels = np.asarray(labels)
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")
    largest = int(labels.max())
    if largest >= len(labels):
        raise ValueError(
            f"largest label {largest} is not below the number of examples ({len(labels)})"
        )
    if len(np.unique(labels)) < 2:
        raise ValueError("training needs at least two distinct labels")
    return largest + 1


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

    features is (B, n_mfcc, n_frames). Returns (logits, cache): encode's
    cache plus the mean-pooled frames under "pooled". Given scales (from
    _branch_scales), block i's branch is multiplied by scales[i], its
    stochastic-depth factor per example; without, every branch is kept.
    Nothing is drawn here: loss_and_grads draws once for the whole batch
    and passes each micro-batch its slice.
    """
    cfg = weights.config
    t = weights.tensors
    check_features(features, cfg, batched=True)
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
    """Mean batch loss and analytic gradients for every tensor.

    The stochastic-depth factors are drawn for the whole batch first
    (_branch_scales). Forward, loss rows and backward (the head's
    gradients here, the encoder's from encode_backward) then run on one
    slice of micro_batches at a time; each slice's cache is dropped before
    the next forward. Every gradient is added into the step's totals as
    it is formed, so a slice never holds a full set of its own.
    dlogits is divided by the whole batch's size.
    """
    cfg, t = weights.config, weights.tensors
    check_features(features, cfg, batched=True)
    n = len(features)
    if n == 0:
        raise ValueError("empty batch")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} examples")
    scales = _branch_scales(features, weights, survival, rng)
    rows = []
    grads: dict[str, np.ndarray] = {}
    for part in micro_batches(n, cached=True):
        logits, cache = forward_batch(
            features[part], weights, scales=None if scales is None else [s[part] for s in scales]
        )
        row, residual = _cross_entropy_terms(logits, labels[part], label_smoothing)
        rows.append(row)
        dlogits = residual / n
        add_grad(grads, "head.W", cache["pooled"].T @ dlogits)
        add_grad(grads, "head.bias", dlogits.sum(axis=0))
        dpooled = dlogits @ t["head.W"].T
        dts = np.broadcast_to(dpooled[:, None, :], (len(logits), cfg.n_frames, cfg.dim))
        encode_backward(dts / cfg.n_frames, features[part], t, cache, grads)
        del cache
    return float(-np.concatenate(rows).mean()), grads


def init_adamw_state(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """AdamW's zeroed state, the table an OPT1 file holds: a uint32 (1,)
    "step", then "m.<name>" for every tensor, then "v.<name>".
    """
    state = {"step": np.zeros(1, dtype="<u4")}
    for prefix in ("m.", "v."):
        state.update({prefix + k: np.zeros_like(t) for k, t in tensors.items()})
    return state


def adamw_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: dict[str, np.ndarray],
    lr: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam step, in place on params and state.
    Only rank-2 tensors (matrices, not biases or norm parameters) decay.
    """
    state["step"] += 1
    step = int(state["step"][0])
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for name, grad in grads.items():
        m, v = state["m." + name], state["v." + name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        p = params[name]
        if weight_decay != 0.0 and p.ndim == 2:
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
    state: dict[str, np.ndarray] | None = None
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
    before that step's update, and an update that leaves a weight NaN or
    infinite raises it after the update, before on_step; either way the
    weights should be discarded.
    """
    cfg = weights.config
    features = np.asarray(features)
    labels = np.asarray(labels)
    check_features(features, cfg, batched=True)
    if len(labels) != len(features) or len(features) == 0:
        raise ValueError("need one label per example, and at least one example")
    if labels.min() < 0 or labels.max() >= cfg.n_classes:
        raise ValueError(f"labels must lie in [0, {cfg.n_classes})")
    config.check_mask_widths(cfg)

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
                raise TrainingDivergedError(step, f"loss {loss}")
            adamw_update(weights.tensors, grads, state, lr, config.weight_decay)
            # the weights only: AdamW's float32 second moment can overflow to
            # inf on a large gradient, which stalls that tensor but leaves it
            # finite
            for name, tensor in weights.tensors.items():
                if not all_finite(tensor):
                    raise TrainingDivergedError(step, f"the update left {name} non-finite")
            batch_losses.append(loss)
            if on_step is not None:
                on_step(StepRecord(step=step, epoch=epoch, lr=lr, loss=loss))
            step += 1
        result.epoch_losses.append(float(np.mean(batch_losses)))
    result.steps = step
    return result


def predict(features: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Argmax class per example (no stochastic depth).

    The logits are forward_batch's, but encode runs without a cache, so no
    backward intermediates are kept and it runs in micro-batches.
    """
    cfg = weights.config
    t = weights.tensors
    check_features(features, cfg, batched=True)
    logits = encode(features, t, cfg.depth).mean(axis=1) @ t["head.W"] + t["head.bias"]
    return np.argmax(logits, axis=1)


def evaluate(features: np.ndarray, labels: np.ndarray, weights: EncoderWeights) -> float:
    """Exact-match accuracy of the classifier head."""
    return float((predict(features, weights) == np.asarray(labels)).mean())
