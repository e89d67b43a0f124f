"""Gated-MLP encoder: MFCC frames in, per-frame timestamp embeddings out.

The model is a stack of identical blocks over a (frames, dim) sequence.
Each block pre-normalizes, expands to a hidden width with exact GELU,
splits the hidden channels into a value half and a gate half, mixes the
gate half across time with a learned frames-by-frames matrix, multiplies
the halves, projects back down, and adds the input back. A final layer
norm is applied at whatever depth embeddings are read from.

This module holds the package's only forward pass and the encoder's
backward pass, written out analytically (there is no autodiff). The same
functions run one example or a batch. The trainer passes per-example
stochastic-depth factors and a cache dict that encode fills and
encode_backward consumes. The cache is this module's own format:
cache["blocks"][i] holds block i's two norms' normalized inputs and
inverse deviations ("xhat1", "istd1", "xhat2", "istd2"), the GELU
derivative "dgelu", a copy of the value half "value", the mixed gate
"mixed" and the branch factors "scale"; the final norm's statistics are
"xhat_f" and "istd_f". The backward pass recomputes the norm outputs from
xhat and the gated product as value * mixed, with the same bits.

GELU is exact, u * Phi(u) (Hendrycks & Gimpel, arXiv 1606.08415).
float32, the dtype of embedding and training, computes Phi(u) = 1/2 +
1/2 * tanh(u * Q(min(u*u, 36))) through numpy's SIMD float32 tanh, with
a 7-term polynomial Q fitted at import by _fit_tanh_form and evaluated
by Horner's rule. Other dtypes (float64 is the dtype of the gradient
checks) take Phi(u) = erfc(-u / sqrt 2) / 2 from the standard library's
math.erfc, which is exact to about one ulp and needs no fitted table.
The kernel runs over the flattened input in blocks of _GELU_CHUNK
elements, in place in the output blocks and one reused scratch row, so
its memory beyond the outputs does not grow with the batch. Layer norm
and its backward pass take their row means as np.mean does (a pairwise
sum, then a division) but without np.mean's Python wrapper, and work in
place, with the same bits.

Weights live in a flat dict of named float32 arrays. The names double as
the on-disk tensor names, the optimizer state keys and the gradient keys,
so there is exactly one naming scheme in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dsp import N_FRAMES, N_MFCC

LN_EPS = 1e-5

# Examples per pass through the blocks of an uncached encode: encode runs a
# larger batch in micro_batches, and cli's embed loops over them. One BLAS
# thread, 2-CPU host: a 10 s embed took 82.0, 74.8, 69.9, 71.0 and 70.4 ms
# (medians) at 1, 2, 4, 8 and 16, and embeds of 3, 5, 6 and 10 segments
# were 0.4-5.6% slower at 2 than at 4. 4 is on the plateau.
_MICRO_BATCH = 4

# Examples per pass when a cache is kept (loss_and_grads). The cache holds
# depth blocks per example, 277 KB each at the default widths (3.3 MB per
# example at depth 12), so it, not the step's fixed gradient totals, sets a
# training step's peak. Same host: a depth-12, batch-64 step peaked at 17.1
# MiB of tracemalloc at 4 and 8.8 MiB at 2, and took 965, 966 and 1092 ms
# at 4, 2 and 1 (medians of 12 interleaved steps), so 2 and not 1.
_CACHED_MICRO_BATCH = 2

# Blocks at most. One block at the default widths is 34,982 float32 values
# (140 KB), so 1,024 blocks hold 137 MiB of weights, and training keeps
# about four times that (weights, gradients, two AdamW moments).
MAX_DEPTH = 1024


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters; defaults are the full-size model."""

    n_mfcc: int = N_MFCC
    n_frames: int = N_FRAMES
    dim: int = 64
    hidden_dim: int = 256
    depth: int = 12
    n_classes: int = 35

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")
        if self.depth > MAX_DEPTH:
            raise ValueError(f"depth must be at most {MAX_DEPTH}")
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


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform Glorot draw for a (fan_in, fan_out) float32 matrix."""
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, shape).astype(np.float32)


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
    tensors: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if name in ("P0", "head.W") or leaf in ("U", "V"):
            tensors[name] = glorot(rng, shape)
        elif leaf == "G":
            tensors[name] = np.zeros(shape, dtype=np.float32)
        elif name.endswith("G.bias") or leaf == "scale":
            tensors[name] = np.ones(shape, dtype=np.float32)
        else:  # projection biases and norm shifts
            tensors[name] = np.zeros(shape, dtype=np.float32)
    return EncoderWeights(config, tensors)


# Elements per block: the scratch row stays in cache, and no temporary grows
# with the batch (at (64, 98, 256) float32 each would be a fresh 6.4 MB mmap,
# slower than the arithmetic it holds).
_GELU_CHUNK = 1 << 15

# The float32 tanh form holds u*u at this clamp, in its fit and in the kernel
_TANH_CLAMP = 36.0

# math.erfc, element by element, as a numpy ufunc with object outputs
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _fit_tanh_form() -> tuple[float, ...]:
    """Q(s) = sum_j b[j] s^j of float32 Phi(u) = 1/2 + 1/2 tanh(u Q(min(u*u, 36))).

    A tanh form, because numpy's float32 tanh is a SIMD loop and the form
    needs no abs, divide, exp or sign step. Q(s), s = u*u, is fitted to
    atanh(erf(u / sqrt 2)) / u by least squares on Chebyshev points in
    [0, 36], weighted by u sech^2(u Q), the effect of an error in Q on
    2 * Phi; sech^2(atanh(erf z)) = erfc(z) erfc(-z). Past |u| = 6,
    u Q(36) > 10 and float32 tanh rounds to exactly +-1, so the clamp at
    36 makes Phi exactly 0 or 1 there. Q has 7 terms, as Python floats:
    numpy float64 scalars would be strong operands in the float32 kernel,
    changing its rounding and slowing each pass several times.
    """
    s = 0.5 * _TANH_CLAMP * (1.0 - np.cos(np.pi * (np.arange(200) + 0.5) / 200))
    u = np.sqrt(s)
    z = u / math.sqrt(2.0)
    upper, lower = _erfc(z).astype(np.float64), _erfc(-z).astype(np.float64)
    # atanh(erf(z)) / u from erfc, so an erf(z) near 1 keeps its digits
    target = 0.5 * np.log(lower / upper) / u
    weight = u * upper * lower
    columns = (s / _TANH_CLAMP)[:, None] ** np.arange(7)
    c = np.linalg.lstsq(weight[:, None] * columns, weight * target, rcond=None)[0]
    return tuple(float(cj) / _TANH_CLAMP**j for j, cj in enumerate(c))


_TANH_POLY_FLOAT32 = _fit_tanh_form()


def _normal_cdf(u: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """Phi(u) for a 1-d block u, written into out, with s as scratch.

    s and out have u's size and dtype, and every step works in place in
    them. float32 uses the fitted tanh form; other dtypes call math.erfc
    once per element.
    """
    if u.dtype == np.float32:
        # Phi(u) = 1/2 + 1/2 tanh(u Q(s)), s = min(u^2, 36), Q by Horner's rule
        np.multiply(u, u, out=s)
        np.minimum(s, _TANH_CLAMP, out=s)
        np.multiply(s, _TANH_POLY_FLOAT32[-1], out=out)
        out += _TANH_POLY_FLOAT32[-2]
        for a in _TANH_POLY_FLOAT32[-3::-1]:
            out *= s
            out += a
        out *= u
        np.tanh(out, out=out)
        out *= 0.5
        out += 0.5
        return
    np.divide(u, -math.sqrt(2.0), out=s)
    _erfc(s, out=out, casting="unsafe")
    out *= 0.5


def _gelu(u: np.ndarray, with_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """GELU of u and, with_grad, its derivative, block by block over u's elements."""
    u = np.asarray(u)
    src = np.ascontiguousarray(u, dtype=np.promote_types(u.dtype, np.float32)).reshape(-1)
    out = np.empty(u.shape, src.dtype)
    grad = np.empty(u.shape, src.dtype) if with_grad else None
    scratch = np.empty(min(src.size, _GELU_CHUNK), src.dtype)
    for start in range(0, src.size, _GELU_CHUNK):
        block = slice(start, start + _GELU_CHUNK)
        x, cdf = src[block], out.reshape(-1)[block]
        _normal_cdf(x, scratch[: x.size], cdf)
        if grad is not None:
            # Phi(u) + u phi(u), with its own exp: the GELU bits do not depend on it
            pdf = grad.reshape(-1)[block]
            np.multiply(x, x, out=pdf)
            pdf *= -0.5
            np.exp(pdf, out=pdf)
            pdf *= 1.0 / math.sqrt(2.0 * math.pi)
            pdf *= x
            np.add(cdf, pdf, out=pdf)
        np.multiply(x, cdf, out=cdf)
    return out, grad


def gelu(u: np.ndarray) -> np.ndarray:
    """Exact GELU, u * Phi(u) with the Gaussian CDF Phi."""
    return _gelu(u, False)[0]


def gelu_with_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU and its derivative Phi(u) + u * phi(u), from one Phi evaluation.

    The first result has the same bits as gelu(u).
    """
    return _gelu(u, True)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """np.mean(x, axis=-1, keepdims=True) without its Python wrapper.

    The same float steps, a pairwise row sum and then / n, so the same bits.
    """
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= x.shape[-1]
    return mean


def layer_norm(
    x: np.ndarray, scale: np.ndarray, shift: np.ndarray, cache: dict | None = None, key: str = ""
) -> np.ndarray:
    """Normalize over the last axis to zero mean, unit variance, then affine.

    With a cache dict, the normalized input and the inverse standard
    deviation are stored under "xhat" + key and "istd" + key. Without one,
    the affine is applied in place on the normalized input when that keeps
    its dtype, with the same bits as the cached path.
    """
    xhat = x - _row_mean(x)
    var = _row_mean(xhat * xhat)
    var += LN_EPS
    istd = np.sqrt(var, out=var)
    np.divide(1.0, istd, out=istd)
    xhat *= istd
    if cache is not None:
        cache["xhat" + key], cache["istd" + key] = xhat, istd
    elif np.result_type(xhat, scale, shift) == xhat.dtype:
        xhat *= scale
        xhat += shift
        return xhat
    return xhat * scale + shift


def layer_norm_backward(
    dy: np.ndarray, xhat: np.ndarray, istd: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dscale, dshift) of layer_norm, from dy and the cached xhat and istd.

    dx = istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) with
    dxhat = dy * scale, formed in place in dxhat: the same bits as the
    expression.
    """
    reduce_axes = tuple(range(dy.ndim - 1))
    dscale = (dy * xhat).sum(axis=reduce_axes)
    dshift = dy.sum(axis=reduce_axes)
    dxhat = dy * scale
    prod = dxhat * xhat
    mean_prod = _row_mean(prod)
    dxhat -= _row_mean(dxhat)
    dxhat -= np.multiply(xhat, mean_prod, out=prod)
    dxhat *= istd
    return dxhat, dscale, dshift


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
    (stochastic depth). With a cache dict, the block's intermediates for
    encode_backward are stored in it (listed in the module docstring).

    Bias adds, the stochastic-depth factor and the residual go in place
    into the fresh matmul outputs, and without a cache the gate product
    goes into the mixed gate. Each step keeps the bits of its expression
    form as long as the block's tensors share one dtype and scale has the
    activations' dtype, as encode's callers give them.
    """
    p = f"block.{index}."
    half = tensors[p + "U"].shape[1] // 2
    n1 = layer_norm(x, tensors[p + "pre_norm.scale"], tensors[p + "pre_norm.shift"], cache, "1")
    upre = n1 @ tensors[p + "U"]
    upre += tensors[p + "U.bias"]
    if cache is None:
        hidden = gelu(upre)
    else:
        hidden, cache["dgelu"] = gelu_with_grad(upre)
    value, gate = hidden[..., :half], hidden[..., half:]
    n2 = layer_norm(
        gate, tensors[p + "gate_norm.scale"], tensors[p + "gate_norm.shift"], cache, "2"
    )
    mixed = tensors[p + "G"] @ n2
    mixed += tensors[p + "G.bias"][:, None]
    if cache is None:
        gated = np.multiply(mixed, value, out=mixed)
    else:
        gated = value * mixed
        # a copy, so the cache does not keep the whole GELU output alive
        cache.update(value=value.copy(), mixed=mixed, scale=scale)
    branch = gated @ tensors[p + "V"]
    branch += tensors[p + "V.bias"]
    if scale is not None:
        branch *= scale[:, None, None]
    branch += x
    return branch


def micro_batches(n: int, cached: bool = False) -> list[slice]:
    """Slices covering range(n) in order, of at most _CACHED_MICRO_BATCH
    examples for a caller that keeps a cache, else _MICRO_BATCH.
    """
    size = _CACHED_MICRO_BATCH if cached else _MICRO_BATCH
    return [slice(lo, lo + size) for lo in range(0, n, size)]


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
    it collects what encode_backward reads. Without one, a larger batch
    runs one slice of micro_batches at a time, with the bits of one pass.
    """
    if cache is None and len(features) > _MICRO_BATCH:
        outputs = []
        for part in micro_batches(len(features)):
            part_scales = None if scales is None else [s[part] for s in scales]
            outputs.append(encode(features[part], tensors, depth, scales=part_scales))
        return np.concatenate(outputs)
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


def _flat(x: np.ndarray) -> np.ndarray:
    """(B, T, C) to (B * T, C), so a weight gradient is one matrix product."""
    return x.reshape(-1, x.shape[-1])


def all_finite(array: np.ndarray) -> bool:
    """True unless array holds a NaN or an infinity.

    A finite sum of squares has no NaN or Inf among its terms, so the
    exact elementwise test runs only when that sum is not finite (a NaN or
    Inf, or finite values whose squares overflow).
    """
    return math.isfinite(np.vdot(array, array)) or bool(np.isfinite(array).all())


def add_grad(totals: dict[str, np.ndarray], name: str, grad: np.ndarray) -> None:
    """totals[name] += grad, or totals[name] = grad for a name not yet in totals."""
    if name in totals:
        totals[name] += grad
    else:
        totals[name] = grad


def encode_backward(
    dts: np.ndarray, features: np.ndarray, tensors: dict[str, np.ndarray], cache: dict, grads: dict
) -> None:
    """Add the gradients of encode's tensors into the totals grads (add_grad).

    dts is the gradient of encode's output, and features and cache are the
    input and the cache of that call. Each gradient is added as soon as it
    is formed, and each cached array and temporary is dropped after its
    last use, so a block's backward holds little more than its own cache.
    The value and gate halves' gradients are written into one array, which
    the GELU derivative then scales in place.
    """
    t = tensors
    dx, dscale, dshift = layer_norm_backward(
        dts, cache["xhat_f"], cache["istd_f"], t["final_norm.scale"]
    )
    add_grad(grads, "final_norm.scale", dscale)
    add_grad(grads, "final_norm.shift", dshift)
    for i in reversed(range(len(cache["blocks"]))):
        p = f"block.{i}."
        bc = cache["blocks"].pop()
        value, mixed = bc.pop("value"), bc.pop("mixed")
        half = value.shape[-1]
        dbranch = dx if bc["scale"] is None else dx * bc["scale"][:, None, None]
        add_grad(grads, p + "V", _flat(value * mixed).T @ _flat(dbranch))
        add_grad(grads, p + "V.bias", dbranch.sum(axis=(0, 1)))
        dgated = dbranch @ t[p + "V"].T
        del dbranch
        dgelu = bc.pop("dgelu")
        dupre = np.empty(dgelu.shape, dgated.dtype)
        np.multiply(dgated, mixed, out=dupre[..., :half])
        del mixed
        dmixed = np.multiply(dgated, value, out=dgated)
        del value, dgated
        xhat2 = bc.pop("xhat2")
        n2 = xhat2 * t[p + "gate_norm.scale"] + t[p + "gate_norm.shift"]
        add_grad(grads, p + "G", (dmixed @ np.swapaxes(n2, 1, 2)).sum(axis=0))
        del n2
        add_grad(grads, p + "G.bias", dmixed.sum(axis=(0, 2)))
        dn2 = np.matmul(t[p + "G"].T, dmixed)
        del dmixed
        dgate, dscale, dshift = layer_norm_backward(
            dn2, xhat2, bc["istd2"], t[p + "gate_norm.scale"]
        )
        del dn2, xhat2
        add_grad(grads, p + "gate_norm.scale", dscale)
        add_grad(grads, p + "gate_norm.shift", dshift)
        dupre[..., half:] = dgate
        del dgate
        dupre *= dgelu
        del dgelu
        xhat1 = bc.pop("xhat1")
        n1 = xhat1 * t[p + "pre_norm.scale"] + t[p + "pre_norm.shift"]
        add_grad(grads, p + "U", _flat(n1).T @ _flat(dupre))
        del n1
        add_grad(grads, p + "U.bias", dupre.sum(axis=(0, 1)))
        dn1 = dupre @ t[p + "U"].T
        del dupre
        dxpre, dscale, dshift = layer_norm_backward(
            dn1, xhat1, bc["istd1"], t[p + "pre_norm.scale"]
        )
        del dn1, xhat1
        add_grad(grads, p + "pre_norm.scale", dscale)
        add_grad(grads, p + "pre_norm.shift", dshift)
        dx = np.add(dx, dxpre, out=dxpre)
    add_grad(grads, "P0", _flat(np.swapaxes(features, 1, 2)).T @ _flat(dx))
    add_grad(grads, "P0.bias", dx.sum(axis=(0, 1)))


def check_features(features: np.ndarray, cfg: EncoderConfig, batched: bool = False) -> None:
    """ValueError unless features is one (n_mfcc, n_frames) grid, or a (B, ...) batch of them."""
    if features.ndim != 2 + batched or features.shape[-2:] != (cfg.n_mfcc, cfg.n_frames):
        lead = "B, " if batched else ""
        raise ValueError(f"features shape {features.shape} != ({lead}{cfg.n_mfcc}, {cfg.n_frames})")


def extract_timestamps(
    features: np.ndarray, weights: EncoderWeights, depth: int | None = None
) -> np.ndarray:
    """Timestamp embeddings: one dim-sized vector per MFCC frame.

    features is one (n_mfcc, n_frames) grid, giving (n_frames, dim), or a
    (B, n_mfcc, n_frames) stack of any size, run in micro-batches, giving
    (B, n_frames, dim) with the bits of one call per grid. depth selects
    how many blocks to run (default: all); the final norm is applied at
    any depth, so embeddings from different depths share one scale.
    """
    config = weights.config
    batched = features.ndim == 3
    check_features(features, config, batched=batched)
    if depth is None:
        depth = config.depth
    if not 0 <= depth <= config.depth:
        raise ValueError(f"depth {depth} outside [0, {config.depth}]")
    if batched:
        return encode(features, weights.tensors, depth)
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
