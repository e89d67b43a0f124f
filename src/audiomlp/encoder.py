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
"xhat_f" and "istd_f". A block runs only on the examples whose branch
factor is nonzero, so a dropped branch is an exact identity: when some
examples dropped block i, its entry holds the kept examples' arrays and
their boolean mask "keep", and when every example dropped it, its entry
is empty. The backward pass recomputes the gated product as value *
mixed, with the same bits, and forms neither norm's output: each norm's
affine is taken through the product next to it (G for the gate norm, U
for the pre-norm), and column sums and row means are ones-vector GEMVs.
encode_backward adds one micro-batch's share into the step's gradient
table, and finish_grads takes the pre-norm's affine through the summed U
totals once per step, in place.

GELU is exact, u * Phi(u) (Hendrycks & Gimpel, arXiv 1606.08415).
float32, the dtype of embedding and training, computes Phi(u) = 1/2 +
1/2 * tanh(u * Q(min(u*u, 36))) through numpy's SIMD float32 tanh, with
a 7-term polynomial Q fitted at import by _fit_tanh_form and evaluated
by Horner's rule. Other dtypes (float64 is the dtype of the gradient
checks) take Phi(u) = erfc(-u / sqrt 2) / 2 from the standard library's
math.erfc, which is exact to about one ulp and needs no fitted table.
The kernel runs over the flattened input in blocks of _GELU_CHUNK
elements, in place in the output blocks and one reused scratch row, so
its memory beyond the outputs does not grow with the batch. layer_norm
and layer_norm_backward take their row means as np.mean does (a pairwise
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
# example at depth 12), so it, not the step's gradient table, sets a
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
        """These weights with every tensor in dtype; a tensor that has it is not copied."""
        return EncoderWeights(
            self.config, {k: v.astype(dtype, copy=False) for k, v in self.tensors.items()}
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
# with the input (encode passes at most 4 x 98 x 256, a probe all its rows).
# 1 << 17 made GELU alone ~30% faster at B=4, but not a `train` call (ROADMAP).
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


def _norm_input_grad(
    dxhat: np.ndarray,
    xhat: np.ndarray,
    istd: np.ndarray,
    mean_dxhat: np.ndarray,
    mean_prod: np.ndarray,
) -> np.ndarray:
    """Gradient of layer norm's input from dxhat, the gradient of its xhat.

    istd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) over the last
    axis, given the two (..., 1) row means, formed in place in dxhat with
    the bits of the expression.
    """
    dxhat -= mean_dxhat
    dxhat -= xhat * mean_prod
    dxhat *= istd
    return dxhat


def layer_norm_backward(
    dy: np.ndarray, xhat: np.ndarray, istd: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dscale, dshift) of layer_norm, from dy and the cached xhat and istd.

    dx is _norm_input_grad of dxhat = dy * scale, with row means as
    np.mean takes them.
    """
    reduce_axes = tuple(range(dy.ndim - 1))
    dscale = (dy * xhat).sum(axis=reduce_axes)
    dshift = dy.sum(axis=reduce_axes)
    dxhat = dy * scale
    mean_prod = _row_mean(dxhat * xhat)
    return _norm_input_grad(dxhat, xhat, istd, _row_mean(dxhat), mean_prod), dscale, dshift


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
    scales[i] is block i's per-example branch factor. Block i runs only on
    the examples whose factor is nonzero, so a dropped branch is an exact
    identity, and a block that every example dropped is skipped. With a
    cache dict, it collects what encode_backward reads. Without one, a
    larger batch runs one slice of micro_batches at a time, with the bits
    of one pass.
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
        scale = None if scales is None else scales[i]
        bc = None if cache is None else cache["blocks"][i]
        keep = None if scale is None else scale != 0
        if keep is None or keep.all():
            x = block_forward(x, tensors, i, scale=scale, cache=bc)
        elif keep.any():
            x[keep] = block_forward(x[keep], tensors, i, scale=scale[keep], cache=bc)
            if bc is not None:
                bc["keep"] = keep
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


def _col_sum(x: np.ndarray) -> np.ndarray:
    """x summed over every axis but the last, as a ones-vector GEMV."""
    flat = _flat(x)
    return np.ones(len(flat), flat.dtype) @ flat


def _row_dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x @ v over the last axis as one GEMV, kept as a (..., 1) column."""
    return (_flat(x) @ v).reshape(*x.shape[:-1], 1)


def _block_backward(
    dy: np.ndarray, tensors: dict[str, np.ndarray], index: int, bc: dict, grads: dict
) -> np.ndarray:
    """Add block index's step totals into grads and return the gradient of
    its input through the branch; the residual's share, dy itself, is the
    caller's.

    dy is the gradient of the block's output on the examples it ran on, and
    bc is its cache entry. Neither norm's output is formed: each norm's
    affine is taken through the product next to it. The gate norm's is
    taken here; the pre-norm's is left to finish_grads (see there), so
    the totals hold A = sum xhat1.T @ dupre under "U".
    """
    t, p = tensors, f"block.{index}."
    value, mixed = bc.pop("value"), bc.pop("mixed")
    dbranch = dy if bc["scale"] is None else dy * bc["scale"][:, None, None]
    grads[p + "V"] += _flat(value * mixed).T @ _flat(dbranch)
    grads[p + "V.bias"] += _col_sum(dbranch)
    dgated = (_flat(dbranch) @ t[p + "V"].T).reshape(value.shape)
    del dbranch
    dvalue = dgated * mixed
    del mixed
    dmixed = np.multiply(dgated, value, out=dgated)
    del value, dgated

    # mixed = G @ (xhat2 * s2 + sh2) + G.bias, so
    # dG = sum_b (dmixed_b * s2) @ xhat2_b.T + (sum_b dmixed_b @ sh2) 1.T
    s2, sh2 = t[p + "gate_norm.scale"], t[p + "gate_norm.shift"]
    xhat2 = bc.pop("xhat2")
    frames = dmixed.shape[:2]
    rows = _flat(dmixed)
    grads[p + "G.bias"] += (rows @ np.ones_like(sh2)).reshape(frames).sum(axis=0)
    shift_term = (rows @ sh2).reshape(frames).sum(axis=0)
    del rows
    dn2 = np.matmul(t[p + "G"].T, dmixed)
    dmixed *= s2
    dg = (dmixed @ np.swapaxes(xhat2, 1, 2)).sum(axis=0)
    del dmixed
    dg += shift_term[:, None]
    grads[p + "G"] += dg
    prod = dn2 * xhat2
    grads[p + "gate_norm.scale"] += _col_sum(prod)
    grads[p + "gate_norm.shift"] += _col_sum(dn2)
    # row means of dxhat2 = dn2 * s2 and of dxhat2 * xhat2, by GEMV
    mean_weights = s2 / len(s2)
    mean_prod = _row_dot(prod, mean_weights)
    del prod
    mean_dxhat = _row_dot(dn2, mean_weights)
    dn2 *= s2
    dgate = _norm_input_grad(dn2, xhat2, bc.pop("istd2"), mean_dxhat, mean_prod)
    del dn2, xhat2
    dupre = np.concatenate([dvalue, dgate], axis=-1)
    del dvalue, dgate
    dupre *= bc.pop("dgelu")

    # upre = (xhat1 * s1 + sh1) @ U + U.bias
    xhat1 = bc.pop("xhat1")
    rows = _flat(dupre)
    grads[p + "U"] += _flat(xhat1).T @ rows
    grads[p + "U.bias"] += _col_sum(dupre)
    dxhat1 = (rows @ (t[p + "U"] * t[p + "pre_norm.scale"][:, None]).T).reshape(xhat1.shape)
    del dupre, rows
    mean_weights = np.full(xhat1.shape[-1], 1.0 / xhat1.shape[-1], dxhat1.dtype)
    mean_prod = _row_dot(dxhat1 * xhat1, mean_weights)
    mean_dxhat = _row_dot(dxhat1, mean_weights)
    return _norm_input_grad(dxhat1, xhat1, bc.pop("istd1"), mean_dxhat, mean_prod)


def encode_backward(
    dts: np.ndarray, features: np.ndarray, tensors: dict[str, np.ndarray], cache: dict, grads: dict
) -> None:
    """Add one micro-batch's share of the step's gradient totals into grads.

    grads is the step's zeroed gradient table. dts is the gradient of
    encode's output, and features and cache are the input and the cache
    of that call. Each share is added as soon as it is formed, and each
    cached array and temporary is dropped after its last use, so a block's
    backward holds little more than its own cache. A block runs backward
    on the examples it ran forward on; one that every example dropped
    adds nothing. After the step's last call, finish_grads turns the
    totals into gradients.
    """
    t = tensors
    dx, dscale, dshift = layer_norm_backward(
        dts, cache["xhat_f"], cache["istd_f"], t["final_norm.scale"]
    )
    grads["final_norm.scale"] += dscale
    grads["final_norm.shift"] += dshift
    for i in reversed(range(len(cache["blocks"]))):
        bc = cache["blocks"].pop()
        if not bc:
            continue
        keep = bc.pop("keep", None)
        if keep is None:
            dxpre = _block_backward(dx, t, i, bc, grads)
            dx = np.add(dx, dxpre, out=dxpre)
        else:
            dx[keep] += _block_backward(dx[keep], t, i, bc, grads)
    grads["P0"] += _flat(np.swapaxes(features, 1, 2)).T @ _flat(dx)
    grads["P0.bias"] += _col_sum(dx)


def finish_grads(grads: dict, tensors: dict[str, np.ndarray]) -> None:
    """Turn the step's totals in grads into its gradients, in place.

    The pre-norm's affine is taken through U once per step, on the totals
    A = sum xhat1.T @ dupre and cs = sum 1.T @ dupre (U.bias's gradient),
    since upre = (xhat1 * s1 + sh1) @ U + U.bias gives dU = s1 A + sh1 cs.T,
    ds1 = rowsum(U * A) and dsh1 = U cs; so it runs once, on the totals
    of the step's last encode_backward call. (Per micro-batch of 2, the
    (dim, hidden) products would cost more than the (B * T, dim) passes
    they replace, since B * T = 196 rows is fewer than 256 columns.) A
    block that every example of the step dropped has zero totals, and
    they fold to zero gradients.
    """
    for name, u in tensors.items():
        if not name.endswith(".U"):
            continue
        p = name[:-1]
        a, cs = grads[name], grads[p + "U.bias"]
        np.einsum("ch,ch->c", u, a, out=grads[p + "pre_norm.scale"])
        np.matmul(u, cs, out=grads[p + "pre_norm.shift"])
        a *= tensors[p + "pre_norm.scale"][:, None]
        a += np.multiply.outer(tensors[p + "pre_norm.shift"], cs)


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
