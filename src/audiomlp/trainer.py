"""Supervised training for the encoder, with hand-derived gradients.

The encoder's forward and backward passes are encoder.encode and
encoder.encode_backward; this module holds the pooled classifier head,
the loss, stochastic depth and the optimizer. During training stochastic
depth drops each block's branch per example with probability
1 - survival, and kept branches are scaled by 1 / survival so inference
needs no rescaling. A dropped branch is not computed at all (encode runs
each block on its kept examples only), so it is an exact identity even
where the branch would overflow, and a block that every example of a
step dropped gets zero gradients. Gradients live in a plain dict keyed
by the same tensor names the weights use, and AdamW's state is a flat
table of the same names with "m."/"v." prefixes, the table an OPT1 file
holds.

A step runs in encoder.micro_batches of the cached size, 2 examples.
loss_and_grads draws every block's stochastic-depth decisions for the
whole batch first, then runs forward, loss and backward on one slice at
a time, adding each share into a zeroed gradient table as soon as it is
formed; encoder.finish_grads turns the totals into the step's gradients
in place. Examples never interact (layer norm works per frame, pooling
per example), so the random stream and each example's arithmetic are
those of one pass over the whole batch. The bits need not be: at small
widths OpenBLAS can change the last bit of a product's row with the row
count, and the gradients' float summation order differs. Only one
slice's cache is alive at a time, so a step's memory does not grow with
the batch size: the cache of 2 examples and the gradient table set it.
predict runs uncached encode calls on the uncached micro-batches of 4.

Both run on two CPUs where they can: the first half of the slices runs
in the calling process and the second half in one forked child, which
writes its loss rows and its own gradient table (predict: its pooled
frames) into an anonymous shared mmap. Each process holds one gradient
table, and the parent adds the child's table into its own before
finish_grads. The child runs only when the process may use 2 CPUs, has
no other thread (such as a BLAS pool) and has 2 slices or more; when it
cannot, or it fails, the parent runs the second half itself into the
same shared table, so the bits do not depend on where it ran.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    EncoderConfig,
    EncoderWeights,
    all_finite,
    check_features,
    encode,
    encode_backward,
    finish_grads,
    micro_batches,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Steps at most: AdamW's step counter is OPT1's uint32, which would wrap to
# 0, and bias correction would divide by 1 - beta1**0 = 0.
MAX_STEPS = 2**32 - 1


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

    def check_step_count(self, n_examples: int) -> None:
        """ValueError if epochs x ceil(n_examples / batch_size) steps pass MAX_STEPS."""
        steps = self.epochs * -(-n_examples // self.batch_size)
        if steps > MAX_STEPS:
            raise ValueError(
                f"{steps} steps ({self.epochs} epochs of {n_examples} examples in batches of "
                f"{self.batch_size}) exceed the optimizer's {MAX_STEPS} steps"
            )

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
    n: int, depth: int, dtype, survival: float, rng: np.random.Generator | None
) -> list[np.ndarray] | None:
    """Per-block (n,) stochastic-depth factors for a batch, keep / survival, in dtype.

    Block 0 first, one rng.random(n) per block; this is the only rng
    consumption of a training step. With survival 1 nothing is drawn and
    the result is None.
    """
    if survival >= 1.0:
        return None
    if rng is None:
        raise ValueError("stochastic depth needs an rng")
    return [((rng.random(n) < survival) / survival).astype(dtype) for _ in range(depth)]


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
    stochastic-depth factor per example, and is not computed where that
    factor is 0; without, every branch is kept.
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


def _shared_zeros(layout: dict[str, tuple[tuple[int, ...], np.dtype]]) -> dict[str, np.ndarray]:
    """Zeroed arrays of layout's {name: (shape, dtype)} in one anonymous
    shared mmap, each on a 64-byte boundary: what a forked child writes to
    them, its parent reads. tracemalloc does not count them.
    """
    sizes = [-(-np.dtype(d).itemsize * math.prod(s) // 64) * 64 for s, d in layout.values()]
    buffer = mmap.mmap(-1, max(sum(sizes), 1))
    arrays, offset = {}, 0
    for (name, (shape, dtype)), size in zip(layout.items(), sizes):
        arrays[name] = np.frombuffer(buffer, dtype, math.prod(shape), offset).reshape(shape)
        offset += size
    return arrays


def _spare_cpu() -> bool:
    """Whether a forked child could run beside this process on a CPU of its own.

    This process must be allowed at least 2 CPUs and have a single thread:
    a BLAS thread pool already spreads the products over the CPUs, and a
    forked copy of it contends with the first (2-CPU machine, 2 OpenBLAS
    threads: a depth-2 batch-32 step split across a child took 54 to 2,709
    ms, against 43 ms in one process).
    """
    try:
        return len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity mask or no /proc: not Linux
        return False


def _in_two_processes(
    parts: list[slice], run: Callable[[list[slice], bool], None], second_totals: dict
) -> None:
    """run(shard, second) on the two contiguous halves of parts, the second
    half (second=True) in one forked child when _spare_cpu().

    The second half must leave its results only in _shared_zeros arrays,
    adding into the zeroed second_totals or overwriting its own examples'
    rows. The child turns every warning and floating-point report into an
    exception, and exits non-zero on any exception. When no child ran or
    it exited non-zero, second_totals are zeroed again and the second half
    runs here after the first, so results, exceptions and warnings are
    those of one process, and no bit depends on where the second half
    ran. The child is always reaped, and killed first when this process
    unwinds from an exception of its own.
    """
    half = (len(parts) + 1) // 2
    first, second = parts[:half], parts[half:]
    pid = None
    if second and _spare_cpu():
        with contextlib.suppress(OSError):
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                reported = {k: "raise" for k, v in np.geterr().items() if v != "ignore"}
                with warnings.catch_warnings(), np.errstate(**reported):
                    warnings.simplefilter("error")
                    run(second, True)
                code = 0
            finally:
                os._exit(code)
    done = False
    try:
        run(first, False)
        if pid is not None:
            # ChildProcessError: reaped without us (SIGCHLD ignored), status unknown
            with contextlib.suppress(ChildProcessError):
                done = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
            pid = None
    finally:
        if pid is not None:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if not done:
        for total in second_totals.values():
            total[...] = 0
        run(second, True)


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
    the next forward. Every share is added into a gradient table as it is
    formed, so a slice never holds a full set of its own. The first half
    of the slices adds into this process's table, the second half into a
    shared one (_in_two_processes), which is then added into the first;
    encoder.finish_grads turns the totals into gradients in place: in
    weights.tensors order, zero where no slice reached. dlogits is divided
    by the whole batch's size. The step runs on the weights cast to its
    one dtype, that of features and weights together, so it has the bits
    of the same call on weights.astype(that dtype).
    """
    check_features(features, weights.config, batched=True)
    n = len(features)
    if n == 0:
        raise ValueError("empty batch")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} examples")
    dtype = np.result_type(features, *{x.dtype for x in weights.tensors.values()})
    weights = weights.astype(dtype)
    cfg, t = weights.config, weights.tensors
    scales = _branch_scales(n, cfg.depth, dtype, survival, rng)
    parts = micro_batches(n, cached=True)
    layout = {name: (x.shape, dtype) for name, x in t.items()}
    # every slice's loss rows, and the second half's gradient table
    second_grads = _shared_zeros({"rows": ((n,), dtype)} | (layout if len(parts) > 1 else {}))
    rows = second_grads.pop("rows")
    grads: dict[str, np.ndarray] = {}

    def run(shard: list[slice], second: bool) -> None:
        totals = second_grads if second else grads
        for part in shard:
            part_scales = None if scales is None else [s[part] for s in scales]
            logits, cache = forward_batch(features[part], weights, scales=part_scales)
            if not totals:
                # above the first cache on the heap, so glibc cannot trim the heap top
                # as each slice's cache is freed (a `train` call: 3x the page faults)
                totals.update({name: np.zeros(*spec) for name, spec in layout.items()})
            row, residual = _cross_entropy_terms(logits, labels[part], label_smoothing)
            rows[part] = row
            dlogits = residual / n
            totals["head.W"] += cache["pooled"].T @ dlogits
            totals["head.bias"] += dlogits.sum(axis=0)
            dpooled = dlogits @ t["head.W"].T
            dts = np.broadcast_to(dpooled[:, None, :], (len(logits), cfg.n_frames, cfg.dim))
            encode_backward(dts / cfg.n_frames, features[part], t, cache, totals)
            del cache

    _in_two_processes(parts, run, second_grads)
    for name, total in second_grads.items():
        grads[name] += total
    finish_grads(grads, t)
    return float(-rows.mean()), grads


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
    weights should be discarded. More than MAX_STEPS steps in all is a
    ValueError before the first.
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
    config.check_step_count(len(features))

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

    The logits are forward_batch's, but encode runs without a cache, one
    uncached micro-batch at a time, so no backward intermediates are kept.
    The second half of the micro-batches runs in a forked child when one
    can (_in_two_processes); the pooled frames of each micro-batch do not
    depend on the others, so the bits do not depend on where it ran. Like
    loss_and_grads, it runs on the weights cast to the one dtype of
    features and weights together.
    """
    check_features(features, weights.config, batched=True)
    dtype = np.result_type(features, *{x.dtype for x in weights.tensors.values()})
    weights = weights.astype(dtype)
    cfg, t = weights.config, weights.tensors
    pooled = _shared_zeros({"pooled": ((len(features), cfg.dim), dtype)})["pooled"]

    def run(shard: list[slice], second: bool) -> None:
        for part in shard:
            pooled[part] = encode(features[part], t, cfg.depth).mean(axis=1)

    _in_two_processes(micro_batches(len(features)), run, {})
    return np.argmax(pooled @ t["head.W"] + t["head.bias"], axis=1)


def evaluate(features: np.ndarray, labels: np.ndarray, weights: EncoderWeights) -> float:
    """Exact-match accuracy of the classifier head."""
    return float((predict(features, weights) == np.asarray(labels)).mean())
