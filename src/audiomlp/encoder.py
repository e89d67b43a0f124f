"""Gated-MLP encoder: MFCC frames in, per-frame timestamp embeddings out.

The model is a stack of identical blocks over a (frames, dim) sequence.
Each block pre-normalizes, expands to a hidden width with exact GELU,
splits the hidden channels into a value half and a gate half, mixes the
gate half across time with a learned frames-by-frames matrix, multiplies
the halves, projects back down, and adds the input back. A final layer
norm is applied at whatever depth embeddings are read from.

This module holds the package's only forward pass. The same functions
run one example or a batch; the trainer passes per-example
stochastic-depth factors and a cache that collects the intermediates of
its hand-written backward pass. Per block the cache holds the two layer
norms' normalized inputs and inverse deviations, the GELU derivative,
the value half, the mixed gate and the gated product; the norm outputs
are recomputed in the backward pass rather than kept. GELU (alone, or
with its derivative from the same erf) and layer norm are defined here
once and shared with the trainer and the probes.

Weights live in a flat dict of named float32 arrays. The names double as
the on-disk tensor names, the optimizer state keys and the gradient keys,
so there is exactly one naming scheme in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters; defaults are the full-size model."""

    n_mfcc: int = 40
    n_frames: int = 98
    dim: int = 64
    hidden_dim: int = 256
    depth: int = 12
    n_classes: int = 35

    def __post_init__(self):
        for name in ("n_mfcc", "n_frames", "dim", "hidden_dim", "depth", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_dim % 2 != 0:
            raise ValueError("hidden_dim must be even (it is split into halves)")

    @property
    def half_dim(self) -> int:
        return self.hidden_dim // 2


def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes, in serialization order."""
    shapes: dict[str, tuple[int, ...]] = {
        "P0": (config.n_mfcc, config.dim),
        "P0.bias": (config.dim,),
    }
    for i in range(config.depth):
        p = f"block.{i}."
        shapes[p + "pre_norm.scale"] = (config.dim,)
        shapes[p + "pre_norm.shift"] = (config.dim,)
        shapes[p + "U"] = (config.dim, config.hidden_dim)
        shapes[p + "U.bias"] = (config.hidden_dim,)
        shapes[p + "gate_norm.scale"] = (config.half_dim,)
        shapes[p + "gate_norm.shift"] = (config.half_dim,)
        shapes[p + "G"] = (config.n_frames, config.n_frames)
        shapes[p + "G.bias"] = (config.n_frames,)
        shapes[p + "V"] = (config.half_dim, config.dim)
        shapes[p + "V.bias"] = (config.dim,)
    shapes["final_norm.scale"] = (config.dim,)
    shapes["final_norm.shift"] = (config.dim,)
    shapes["head.W"] = (config.dim, config.n_classes)
    shapes["head.bias"] = (config.n_classes,)
    return shapes


@dataclass
class EncoderWeights:
    """A config plus the flat name-to-array tensor dict it describes."""

    config: EncoderConfig
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        expected = tensor_shapes(self.config)
        missing = expected.keys() - self.tensors.keys()
        extra = self.tensors.keys() - expected.keys()
        if missing or extra:
            raise ValueError(
                f"tensor set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        for name, shape in expected.items():
            if self.tensors[name].shape != shape:
                raise ValueError(
                    f"tensor {name!r} has shape {self.tensors[name].shape}, expected {shape}"
                )

    def parameter_count(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def astype(self, dtype) -> "EncoderWeights":
        return EncoderWeights(
            self.config, {k: v.astype(dtype) for k, v in self.tensors.items()}
        )

    def copy(self) -> "EncoderWeights":
        return EncoderWeights(self.config, {k: v.copy() for k, v in self.tensors.items()})


def init_weights(config: EncoderConfig | None = None, seed: int = 0) -> EncoderWeights:
    """Fresh float32 weights.

    Projection matrices (P0, U, V, head.W) draw uniform Glorot values; their
    biases start at zero. The time-mixing matrix G starts at zero with its
    bias at one, so every block begins as a near-identity: the gate path
    passes the value half through unchanged. Norm scales start at one.
    """
    if config is None:
        config = EncoderConfig()
    rng = np.random.default_rng(seed)

    def glorot(shape: tuple[int, ...]) -> np.ndarray:
        limit = math.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-limit, limit, shape).astype(np.float32)

    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if name in ("P0", "head.W") or leaf in ("U", "V"):
            tensors[name] = glorot(shape)
        elif leaf == "G":
            tensors[name] = np.zeros(shape, dtype=np.float32)
        elif name.endswith("G.bias") or leaf == "scale":
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:  # projection biases and norm shifts
            tensors[name] = np.zeros(shape, dtype=np.float32)
    return EncoderWeights(config, tensors)


def _one_plus_erf(u: np.ndarray) -> np.ndarray:
    """2 * Phi(u), twice the Gaussian CDF."""
    return 1.0 + erf(u / math.sqrt(2.0))


def gelu(u: np.ndarray) -> np.ndarray:
    """Exact GELU, u * Phi(u) with the Gaussian CDF via erf."""
    return 0.5 * u * _one_plus_erf(u)


def gelu_with_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU and its derivative Phi(u) + u * phi(u), from one erf call.

    The first result has the same bits as gelu(u).
    """
    phi2 = _one_plus_erf(u)
    pdf = np.exp(-0.5 * u * u) * (1.0 / math.sqrt(2.0 * math.pi))
    return 0.5 * u * phi2, 0.5 * phi2 + u * pdf


def layer_norm(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, cache: dict | None = None, key: str = ""
) -> np.ndarray:
    """Normalize over the last axis to zero mean, unit variance, then affine.

    With a cache dict, the normalized input and the inverse standard
    deviation are stored under "xhat" + key and "istd" + key.
    """
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * istd
    if cache is not None:
        cache["xhat" + key], cache["istd" + key] = xhat, istd
    return xhat * scale + shift


def patch_embed(features: np.ndarray, tensors: dict[str, np.ndarray]) -> np.ndarray:
    """(..., n_mfcc, frames) features to a (..., frames, dim) sequence."""
    return np.swapaxes(features, -1, -2) @ tensors["P0"] + tensors["P0.bias"]


def block_forward(
    x: np.ndarray,
    tensors: dict[str, np.ndarray],
    index: int,
    *,
    scale: np.ndarray | None = None,
    cache: dict | None = None,
) -> np.ndarray:
    """One gated-MLP block on a (frames, dim) or (B, frames, dim) sequence.

    scale, for a batch, is the per-example (B,) factor on the branch
    (stochastic depth). With a cache dict, the intermediates the backward
    pass needs are stored in it: the two norms' xhat/istd, the GELU
    derivative "dgelu", a contiguous copy of "value", "mixed", "gated"
    and "scale". The norm outputs are not kept; the backward pass
    recomputes them as xhat * scale + shift, which gives the same bits.
    """
    p = f"block.{index}."
    half = tensors[p + "U"].shape[1] // 2
    n1 = layer_norm(x, tensors[p + "pre_norm.scale"], tensors[p + "pre_norm.shift"], cache, "1")
    upre = n1 @ tensors[p + "U"] + tensors[p + "U.bias"]
    if cache is None:
        hidden = gelu(upre)
    else:
        hidden, cache["dgelu"] = gelu_with_grad(upre)
    value, gate = hidden[..., :half], hidden[..., half:]
    n2 = layer_norm(
        gate, tensors[p + "gate_norm.scale"], tensors[p + "gate_norm.shift"], cache, "2"
    )
    mixed = tensors[p + "G"] @ n2 + tensors[p + "G.bias"][:, None]
    gated = value * mixed
    branch = gated @ tensors[p + "V"] + tensors[p + "V.bias"]
    if scale is not None:
        branch = branch * scale[:, None, None]
    if cache is not None:
        # a copy, so the cache does not keep the whole GELU output alive
        cache.update(value=value.copy(), mixed=mixed, gated=gated, scale=scale)
    return x + branch


def encode(
    features: np.ndarray,
    tensors: dict[str, np.ndarray],
    depth: int,
    *,
    scales: list[np.ndarray] | None = None,
    cache: dict | None = None,
) -> np.ndarray:
    """(B, n_mfcc, frames) features to (B, frames, dim) final-normed timestamps.

    Runs the patch embedding, the first depth blocks and the final norm.
    scales[i] is block i's per-example branch factor. With a cache dict,
    cache["blocks"][i] holds block i's intermediates and the final norm's
    statistics go under "xhat_f" and "istd_f".
    """
    if cache is not None:
        cache["blocks"] = [{} for _ in range(depth)]
    x = patch_embed(features, tensors)
    for i in range(depth):
        x = block_forward(
            x,
            tensors,
            i,
            scale=None if scales is None else scales[i],
            cache=None if cache is None else cache["blocks"][i],
        )
    return layer_norm(x, tensors["final_norm.scale"], tensors["final_norm.shift"], cache, "_f")


def extract_timestamps(
    features: np.ndarray, weights: EncoderWeights, depth: int | None = None
) -> np.ndarray:
    """Timestamp embeddings: one dim-sized vector per MFCC frame.

    depth selects how many blocks to run (default: all of them); the final
    norm is applied whatever the depth, so embeddings from different depths
    live on the same scale.
    """
    config = weights.config
    if features.shape != (config.n_mfcc, config.n_frames):
        raise ValueError(
            f"features shape {features.shape} != ({config.n_mfcc}, {config.n_frames})"
        )
    if depth is None:
        depth = config.depth
    if not 0 <= depth <= config.depth:
        raise ValueError(f"depth {depth} outside [0, {config.depth}]")
    return encode(features[None], weights.tensors, depth)[0]


def toeplitz_score(matrix: np.ndarray) -> float:
    """How constant-along-diagonals a square matrix is, in [~0, 1].

    1 - (mean per-diagonal variance / total variance). Exactly Toeplitz
    gives 1.0; iid noise lands near 0. A matrix with no variance at all
    scores 1.0 by convention.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("toeplitz_score expects a square matrix")
    total = m.var()
    if total < np.finfo(np.float64).tiny:
        return 1.0
    n = m.shape[0]
    diag_vars = [m.diagonal(k).var() for k in range(-(n - 1), n)]
    return float(1.0 - np.mean(diag_vars) / total)
