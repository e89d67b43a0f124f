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
with its derivative from the same Gaussian CDF evaluation) and layer
norm are defined here once and shared with the trainer and the probes.

GELU is exact, u * Phi(u) (Hendrycks & Gimpel, arXiv 1606.08415). Phi
comes from a numpy kernel in one of two forms, picked by dtype, with
coefficients fitted by tools/fit_erfc.py and evaluated by Horner's rule.
float32 computes Phi(u) = 1/2 + 1/2 * tanh(u * Q(min(u*u, 36))) with a
7-term polynomial Q, through numpy's SIMD float32 tanh. float64, the
dtype of the gradient checks, computes erfc(z) = t * exp(-z*z + P(2t - 1))
with t = 2 / (2 + z) and P a 22-term Chebyshev series. The kernel runs
over the flattened input in blocks of _GELU_CHUNK elements, every step in
place in four reused scratch rows, so its memory beyond the outputs does
not grow with the batch. Layer norm takes its row means as np.mean does
(a pairwise sum, then a division) but without np.mean's Python wrapper,
and works in place, with the same bits.

Weights live in a flat dict of named float32 arrays. The names double as
the on-disk tensor names, the optimizer state keys and the gradient keys,
so there is exactly one naming scheme in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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


# Printed by tools/fit_erfc.py. float64: P(x) = sum_j a[j] x^j, the
# Chebyshev fit of the erfc form written in the power basis. float32:
# Q(s) = sum_j b[j] s^j of the tanh form, s = min(u*u, 36).
_ERFC_POLY_FLOAT64 = (
    -0.67179408405669,
    0.672643223977822,
    0.04734330684131619,
    -0.046895610245702636,
    -0.009872689339046403,
    0.008824938934836563,
    0.0017589330540381987,
    -0.0023458170355055803,
    -0.00014624202808531488,
    0.0006737090247067575,
    -9.376263973073957e-05,
    -0.00017442588946048787,
    7.150187066219844e-05,
    3.206545092694982e-05,
    -3.0433224591508434e-05,
    -4.0622831276593274e-07,
    8.967101290807689e-06,
    -2.353032052967996e-06,
    -1.7235125842063326e-06,
    8.549695948434355e-07,
    1.641910998273488e-07,
    -1.1818453660161765e-07,
)
# Largest error in 2 * Phi of the tanh form, |u| <= 12: 5.8e-08
_TANH_POLY_FLOAT32 = (
    0.7978849417012193,
    0.036333083332375594,
    -3.2593393392768804e-05,
    -5.5306953665936275e-05,
    3.9649025087146876e-06,
    -1.322775523327175e-07,
    1.7566170553030454e-09,
)

# Elements per block: the four scratch rows stay in cache, and no temporary
# grows with the batch (at (64, 98, 256) float32 each would be a fresh 6.4 MB
# mmap, slower than the arithmetic it holds).
_GELU_CHUNK = 1 << 15


def _horner(x: np.ndarray, poly: tuple[float, ...], acc: np.ndarray) -> None:
    """acc = sum_j poly[j] x^j, in place."""
    np.multiply(x, poly[-1], out=acc)
    acc += poly[-2]
    for a in poly[-3::-1]:
        acc *= x
        acc += a


def _normal_cdf(u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Phi(u) for a 1-d block u, returned in rows[3].

    rows is a (4, len(u)) array of u's dtype; every step writes into a row
    in place (out=), and rows[0..2] are free again on return. float32 uses
    the tanh form, other dtypes the erfc form.
    """
    z, s, x, acc = rows
    if u.dtype == np.float32:
        # Phi(u) = 1/2 + 1/2 tanh(u Q(s)), s = min(u^2, 36), Q fitted to
        # atanh(erf(u / sqrt 2)) / u. Past |u| = 6, |u Q(36)| > 10: Phi is 0 or 1
        np.multiply(u, u, out=s)
        np.minimum(s, 36.0, out=s)
        _horner(s, _TANH_POLY_FLOAT32, acc)
        acc *= u
        np.tanh(acc, out=acc)
        acc *= 0.5
        acc += 0.5
        return acc
    # z = |u| / sqrt 2, s = 2 + z and x = 2t - 1 = 4 / s - 1
    np.multiply(u, 1.0 / math.sqrt(2.0), out=z)
    np.absolute(z, out=z)
    np.add(z, 2.0, out=s)
    np.divide(4.0, s, out=x)
    x -= 1.0
    # P(x) - z^2
    _horner(x, _ERFC_POLY_FLOAT64, acc)
    np.multiply(z, z, out=x)
    acc -= x
    # erfc(z) / 2 = t / 2 * exp(P(x) - z^2) = exp(P(x) - z^2) / s
    np.exp(acc, out=acc)
    acc /= s
    # Phi(u) = 1/2 + sign(u) * (1/2 - erfc(z) / 2)
    np.subtract(0.5, acc, out=acc)
    np.copysign(acc, u, out=acc)
    acc += 0.5
    return acc


def _gelu(u: np.ndarray, with_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU of u and, with_grad, its derivative, block by block over u's elements."""
    u = np.asarray(u)
    dtype = np.promote_types(u.dtype, np.float32)
    src = np.ascontiguousarray(u, dtype=dtype).reshape(-1)
    out = np.empty(u.shape, dtype)
    grad = np.empty(u.shape, dtype) if with_grad else None
    flat_out = out.reshape(-1)
    flat_grad = None if grad is None else grad.reshape(-1)
    scratch = np.empty((4, min(src.size, _GELU_CHUNK)), dtype)
    for start in range(0, src.size, _GELU_CHUNK):
        block = slice(start, start + _GELU_CHUNK)
        x = src[block]
        rows = scratch[:, : x.size]
        cdf = _normal_cdf(x, rows)
        if flat_grad is not None:
            # Phi(u) + u phi(u), with its own exp: the GELU bits do not depend on it
            pdf = rows[0]
            np.multiply(x, x, out=pdf)
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= 1.0 / math.sqrt(2.0 * math.pi)
            pdf *= x
            np.add(cdf, pdf, out=flat_grad[block])
        np.multiply(x, cdf, out=flat_out[block])
    return out, grad


def gelu(u: np.ndarray) -> np.ndarray:
    """Exact GELU, u * Phi(u) with the Gaussian CDF Phi."""
    return _gelu(u, False)[0]


def gelu_with_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU and its derivative Phi(u) + u * phi(u), from one Phi evaluation.

    The first result has the same bits as gelu(u).
    """
    return _gelu(u, True)


def layer_norm(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, cache: dict | None = None, key: str = ""
) -> np.ndarray:
    """Normalize over the last axis to zero mean, unit variance, then affine.

    With a cache dict, the normalized input and the inverse standard
    deviation are stored under "xhat" + key and "istd" + key.
    """
    n = x.shape[-1]
    # np.mean's float steps (a pairwise row sum, then / n) without its
    # Python wrapper, and the rest in place: the same bits
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    istd = np.sqrt(var, out=var)
    np.divide(1.0, istd, out=istd)
    xhat *= istd
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
