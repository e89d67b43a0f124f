from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from audiomlp.encoder import (
    _GELU_CHUNK,
    LN_EPS,
    MAX_DEPTH,
    EncoderConfig,
    EncoderWeights,
    _fit_tanh_form,
    _normal_cdf,
    block_forward,
    encode,
    extract_timestamps,
    gelu,
    gelu_with_grad,
    init_weights,
    layer_norm,
    patch_embed,
    tensor_shapes,
    toeplitz_score,
)
from conftest import traced_peak_mib

TOY = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=2, n_classes=3)


def cdf_one_block(u: np.ndarray) -> np.ndarray:
    """The kernel's Phi(u) for a 1-d array, evaluated as a single block."""
    out = np.empty_like(u)
    _normal_cdf(u, np.empty_like(u), out)
    return out


class TestConfig:
    def test_defaults(self):
        cfg = EncoderConfig()
        assert (cfg.n_mfcc, cfg.n_frames, cfg.dim, cfg.hidden_dim) == (40, 98, 64, 256)
        assert cfg.depth == 12 and cfg.n_classes == 35
        assert cfg.half_dim == 128

    def test_rejects_odd_hidden(self):
        with pytest.raises(ValueError):
            EncoderConfig(hidden_dim=255)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            EncoderConfig(depth=0)

    def test_rejects_depth_above_the_bound(self):
        assert EncoderConfig(depth=MAX_DEPTH).depth == MAX_DEPTH
        with pytest.raises(ValueError, match="depth must be at most 1024"):
            EncoderConfig(depth=MAX_DEPTH + 1)


class TestInit:
    def test_shapes_and_dtype(self):
        w = init_weights(TOY, seed=1)
        shapes = tensor_shapes(TOY)
        assert set(w.tensors) == set(shapes)
        for name, t in w.tensors.items():
            assert t.shape == shapes[name]
            assert t.dtype == np.float32

    def test_special_initial_values(self):
        w = init_weights(TOY, seed=1).tensors
        np.testing.assert_array_equal(w["block.0.G"], 0.0)
        np.testing.assert_array_equal(w["block.0.G.bias"], 1.0)
        np.testing.assert_array_equal(w["block.1.pre_norm.scale"], 1.0)
        np.testing.assert_array_equal(w["block.1.pre_norm.shift"], 0.0)
        np.testing.assert_array_equal(w["final_norm.scale"], 1.0)
        for name in ("P0.bias", "block.0.U.bias", "block.0.V.bias", "head.bias"):
            np.testing.assert_array_equal(w[name], 0.0)

    def test_glorot_bounds(self):
        w = init_weights(EncoderConfig(), seed=3).tensors
        for name, fan in [("P0", 40 + 64), ("block.0.U", 64 + 256), ("block.0.V", 128 + 64), ("head.W", 64 + 35)]:
            limit = math.sqrt(6.0 / fan)
            assert np.all(np.abs(w[name]) <= limit)
            assert np.std(w[name]) > 0.1 * limit

    def test_seed_determinism(self):
        a = init_weights(TOY, seed=7)
        b = init_weights(TOY, seed=7)
        c = init_weights(TOY, seed=8)
        for name in a.tensors:
            assert a.tensors[name].tobytes() == b.tensors[name].tobytes()
        assert any(a.tensors[n].tobytes() != c.tensors[n].tobytes() for n in a.tensors)

    def test_parameter_count_toy_by_hand(self):
        cfg = EncoderConfig(n_mfcc=2, n_frames=3, dim=2, hidden_dim=4, depth=1, n_classes=2)
        # P0 6, block 38 (pre 4, U 12, gate 4, G 12, V 6), final 4, head 6
        assert init_weights(cfg).parameter_count() == 54

    def test_parameter_count_full_model(self):
        assert init_weights(EncoderConfig()).parameter_count() == 424_811

    def test_validation_missing_tensor(self):
        w = init_weights(TOY)
        bad = dict(w.tensors)
        del bad["head.W"]
        with pytest.raises(ValueError, match="head.W"):
            EncoderWeights(TOY, bad)

    def test_validation_wrong_shape(self):
        w = init_weights(TOY)
        bad = dict(w.tensors)
        bad["P0"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="P0"):
            EncoderWeights(TOY, bad)


class TestPrimitives:
    def test_gelu_fixed_points(self):
        u = np.array([0.0, 1.0, -1.0], dtype=np.float64)
        got = gelu(u)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1], 0.8413447460685429, atol=1e-12)
        np.testing.assert_allclose(got[2], -0.15865525393145705, atol=1e-12)

    def test_gelu_saturates(self):
        assert abs(gelu(np.array([10.0]))[0] - 10.0) < 1e-12
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-12

    def test_gelu_keeps_dtype(self):
        assert gelu(np.ones(3, dtype=np.float32)).dtype == np.float32

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 64))
        y = layer_norm(x, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)  # eps bias

    def test_layer_norm_affine(self):
        x = np.array([[1.0, 3.0]])
        y = layer_norm(x, np.array([2.0, 2.0]), np.array([10.0, 10.0]))
        expected = (np.array([[-1.0, 1.0]]) / math.sqrt(1.0 + 1e-5)) * 2.0 + 10.0
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_patch_embed_by_hand(self):
        tensors = {
            "P0": np.array([[1.0, 2.0], [3.0, 4.0]]),
            "P0.bias": np.array([10.0, 20.0]),
        }
        feats = np.eye(2)  # (n_mfcc=2, frames=2)
        np.testing.assert_array_equal(
            patch_embed(feats, tensors), [[11.0, 22.0], [13.0, 24.0]]
        )


class TestGeluKernel:
    @pytest.mark.parametrize("dtype, bound", [(np.float32, 4.8e-7), (np.float64, 4.5e-16)])
    def test_cdf_matches_math_erf(self, dtype, bound):
        # bounds on the error of 2 * Phi; 4.8e-7 is two float32 ulps at 2
        u = np.linspace(-12.0, 12.0, 240_001).astype(dtype)
        exact = np.array([1.0 + math.erf(v / math.sqrt(2.0)) for v in u.tolist()])
        err = np.abs(2.0 * cdf_one_block(u).astype(np.float64) - exact)
        assert err.max() <= bound, f"max error {err.max():.3g} at u = {u[err.argmax()]}"

    def test_float32_cdf_is_monotone_and_saturates(self):
        u = np.linspace(-12.0, 12.0, 2_400_001).astype(np.float32)
        cdf = cdf_one_block(u)
        assert (np.diff(cdf) >= 0).all()
        assert cdf.min() == 0.0 and cdf.max() == 1.0
        assert (cdf[u <= -6.0] == 0.0).all() and (cdf[u >= 6.0] == 1.0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "size", [0, 1, _GELU_CHUNK - 1, _GELU_CHUNK, _GELU_CHUNK + 1, 3 * _GELU_CHUNK + 7]
    )
    def test_blocks_do_not_change_bits(self, size, dtype):
        u = (3.0 * np.random.default_rng(size).standard_normal(size)).astype(dtype)
        value, grad = gelu_with_grad(u)
        assert value.dtype == grad.dtype == dtype and value.shape == grad.shape == (size,)
        assert gelu(u).tobytes() == value.tobytes()
        assert value.tobytes() == (u * cdf_one_block(u)).tobytes()

    def test_non_contiguous_and_0d_inputs(self):
        grid = np.random.default_rng(4).standard_normal((3, 2 * _GELU_CHUNK // 3 + 5))
        view = grid.astype(np.float32)[:, ::2]
        value, grad = gelu_with_grad(view)
        assert value.shape == grad.shape == view.shape
        assert gelu(view).tobytes() == value.tobytes()
        assert value.tobytes() == gelu(np.ascontiguousarray(view)).tobytes()
        scalar = np.array(-0.75)
        value, grad = gelu_with_grad(scalar)
        assert value.shape == grad.shape == ()
        assert gelu(scalar).tobytes() == value.tobytes() == gelu(scalar[None]).tobytes()

    @pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-6), (np.float64, 1e-8)])
    def test_derivative_matches_central_differences(self, dtype, atol):
        u = np.linspace(-8.0, 8.0, 4001).astype(dtype)
        h = 1e-6
        u64 = u.astype(np.float64)
        fd = (gelu(u64 + h) - gelu(u64 - h)) / (2 * h)
        np.testing.assert_allclose(gelu_with_grad(u)[1], fd, rtol=0, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_inputs(self, dtype):
        # as with an exact erf: inf * Phi(inf), -inf * 0 and inf * phi(inf)
        u = np.array([np.inf, -np.inf, np.nan], dtype)
        with np.errstate(invalid="ignore"):
            value, grad = gelu_with_grad(u)
            np.testing.assert_array_equal(gelu(u), [np.inf, np.nan, np.nan])
        np.testing.assert_array_equal(value, [np.inf, np.nan, np.nan])
        np.testing.assert_array_equal(grad, [np.nan, np.nan, np.nan])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_finite_inputs_raise_no_warning(self, dtype):
        u = np.concatenate([np.linspace(-1e4, 1e4, 20_001), [-1e4, 1e4, 0.0, -0.0]]).astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gelu(u)
            gelu_with_grad(u)

    def test_peak_memory_is_outputs_plus_one_block(self):
        """Peaks 1.02x (gelu) and 2.02x (with grad) of the input bytes.

        A whole-array evaluation with temporaries peaked at 3.0x and 5.0x.
        """
        u = np.random.default_rng(5).standard_normal((64, 98, 256)).astype(np.float32)
        for fn, limit in ((gelu, 1.05), (gelu_with_grad, 2.05)):
            ratio = traced_peak_mib(fn, u)[0] * 2**20 / u.nbytes
            assert ratio <= limit, f"{fn.__name__}: {ratio:.2f}x input"

    def test_fit_gives_the_same_python_floats_each_call(self):
        # numpy scalars would be strong float64 operands in the float32 kernel
        poly = _fit_tanh_form()
        assert len(poly) == 7 and all(type(b) is float for b in poly)
        assert _fit_tanh_form() == poly


class TestBlockIdentities:
    def _f64_weights(self, seed=0):
        return init_weights(TOY, seed=seed).astype(np.float64)

    def test_zero_v_is_identity(self):
        rng = np.random.default_rng(42)
        w = self._f64_weights()
        w.tensors["block.0.V"][:] = 0.0
        for _ in range(100):
            x = rng.standard_normal((TOY.n_frames, TOY.dim))
            out = block_forward(x, w.tensors, 0)
            assert np.max(np.abs(out - x)) <= 1e-12

    def test_unit_gate_passes_value_half(self):
        rng = np.random.default_rng(43)
        w = self._f64_weights(seed=5)
        t = w.tensors
        t["block.0.G"][:] = 0.0
        t["block.0.G.bias"][:] = 1.0
        for _ in range(100):
            x = rng.standard_normal((TOY.n_frames, TOY.dim))
            normed = layer_norm(x, t["block.0.pre_norm.scale"], t["block.0.pre_norm.shift"])
            hidden = gelu(normed @ t["block.0.U"] + t["block.0.U.bias"])
            value = hidden[:, : TOY.half_dim]
            expected = x + value @ t["block.0.V"] + t["block.0.V.bias"]
            out = block_forward(x, t, 0)
            assert np.max(np.abs(out - expected)) <= 1e-12


def _expression_layer_norm(x, scale, shift):
    """Oracle: layer_norm with its affine as an expression (new arrays)."""
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    var += LN_EPS
    istd = np.sqrt(var, out=var)
    np.divide(1.0, istd, out=istd)
    xhat *= istd
    return xhat * scale + shift


def _expression_encode(features, t, depth, scales=None):
    """Oracle: encode without a cache, every block step as an expression."""
    x = patch_embed(features, t)
    for i in range(depth):
        p = f"block.{i}."
        half = t[p + "U"].shape[1] // 2
        n1 = _expression_layer_norm(x, t[p + "pre_norm.scale"], t[p + "pre_norm.shift"])
        hidden = gelu(n1 @ t[p + "U"] + t[p + "U.bias"])
        value, gate = hidden[..., :half], hidden[..., half:]
        n2 = _expression_layer_norm(gate, t[p + "gate_norm.scale"], t[p + "gate_norm.shift"])
        mixed = t[p + "G"] @ n2 + t[p + "G.bias"][:, None]
        branch = (value * mixed) @ t[p + "V"] + t[p + "V.bias"]
        if scales is not None:
            branch = branch * scales[i][:, None, None]
        x = x + branch
    return _expression_layer_norm(x, t["final_norm.scale"], t["final_norm.shift"])


class TestInPlaceForwardBits:
    """The no-cache forward works in place with the bits of its expression form."""

    @staticmethod
    def _weights(dtype):
        # every tensor random, so no bias, gate or norm affine is an identity
        rng = np.random.default_rng(21)
        config = EncoderConfig(depth=3)
        tensors = {
            name: (0.3 * rng.standard_normal(shape)).astype(dtype)
            for name, shape in tensor_shapes(config).items()
        }
        return EncoderWeights(config, tensors)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4, 5, 9])
    def test_encode_matches_expression_form(self, dtype, batch):
        # 5 and 9 run in micro-batches and are joined; the oracle runs them whole
        w = self._weights(dtype)
        features = np.random.default_rng(22).standard_normal((batch, 40, 98)).astype(dtype)
        got = encode(features, w.tensors, 3)
        want = _expression_encode(features, w.tensors, 3)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [4, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_with_branch_factors_matches_expression_form(self, dtype, batch):
        w = self._weights(dtype)
        rng = np.random.default_rng(23)
        features = rng.standard_normal((batch, 40, 98)).astype(dtype)
        scales = [((rng.random(batch) < 0.7) / 0.7).astype(dtype) for _ in range(3)]
        got = encode(features, w.tensors, 3, scales=scales)
        want = _expression_encode(features, w.tensors, 3, scales)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(98, 64), (98, 256), (4, 98, 128)])
    def test_layer_norm_same_bits_with_and_without_cache(self, dtype, shape):
        rng = np.random.default_rng(24)
        x = (4.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        if shape == (98, 256):
            x = x[:, 128:]  # the gate half: a strided view
        n = x.shape[-1]
        scale = rng.standard_normal(n).astype(dtype)
        shift = rng.standard_normal(n).astype(dtype)
        cached = layer_norm(x, scale, shift, {})
        plain = layer_norm(x, scale, shift)
        assert plain.dtype == cached.dtype and plain.tobytes() == cached.tobytes()

    def test_layer_norm_keeps_wider_affine_dtype(self):
        x = np.random.default_rng(25).standard_normal((6, 8)).astype(np.float32)
        scale, shift = np.full(8, 1.0 + 1e-12), np.full(8, 1e-12)
        got = layer_norm(x, scale, shift)
        assert got.dtype == np.float64
        assert got.tobytes() == _expression_layer_norm(x, scale, shift).tobytes()


class TestExtract:
    def test_output_shape_and_dtype(self):
        w = init_weights(TOY, seed=2)
        feats = np.ones((4, 6), dtype=np.float32)
        ts = extract_timestamps(feats, w)
        assert ts.shape == (6, 4)
        assert ts.dtype == np.float32

    def test_f64_path(self):
        w = init_weights(TOY, seed=2).astype(np.float64)
        ts = extract_timestamps(np.ones((4, 6)), w)
        assert ts.dtype == np.float64

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_final_norm_at_every_depth(self, depth):
        rng = np.random.default_rng(9)
        w = init_weights(TOY, seed=4).astype(np.float64)
        ts = extract_timestamps(rng.standard_normal((4, 6)), w, depth=depth)
        np.testing.assert_allclose(ts.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(ts.var(axis=-1), 1.0, atol=1e-3)

    def test_depth_prefix_property(self):
        # depth k output equals running k blocks then the final norm by hand
        rng = np.random.default_rng(10)
        w = init_weights(TOY, seed=6).astype(np.float64)
        feats = rng.standard_normal((4, 6))
        x = patch_embed(feats, w.tensors)
        x = block_forward(x, w.tensors, 0)
        expected = layer_norm(x, w.tensors["final_norm.scale"], w.tensors["final_norm.shift"])
        np.testing.assert_array_equal(extract_timestamps(feats, w, depth=1), expected)

    def test_bad_depth_rejected(self):
        w = init_weights(TOY)
        feats = np.ones((4, 6), dtype=np.float32)
        for depth in (-1, 3):
            with pytest.raises(ValueError):
                extract_timestamps(feats, w, depth=depth)

    def test_bad_shape_rejected(self):
        w = init_weights(TOY)
        with pytest.raises(ValueError):
            extract_timestamps(np.ones((6, 4), dtype=np.float32), w)

    def test_deterministic(self):
        w = init_weights(TOY, seed=11)
        feats = np.full((4, 6), 0.25, dtype=np.float32)
        assert extract_timestamps(feats, w).tobytes() == extract_timestamps(feats, w).tobytes()

    @pytest.mark.parametrize("depth", [0, 5, None])
    def test_stack_equals_its_grids_one_at_a_time(self, depth):
        w = init_weights(EncoderConfig(), seed=3)
        feats = np.random.default_rng(12).standard_normal((5, 40, 98)).astype(np.float32)
        stacked = extract_timestamps(feats, w, depth)
        assert stacked.shape == (5, 98, 64)
        expected = np.stack([extract_timestamps(f, w, depth) for f in feats])
        assert stacked.tobytes() == expected.tobytes()

    def test_stack_memory_is_bounded(self):
        """A stack of 64 grids peaks at most 2x its output above a stack of 4.

        The stack runs 4 grids at a time, and only the outputs, the slices'
        and the joined one, grow with it: 3.1 MiB at B=64 against 1.5 MiB
        at B=4. One pass over all 64 grids would peak at 23.0 MiB.
        """
        w = init_weights(EncoderConfig(), seed=0)
        feats = np.random.default_rng(13).standard_normal((64, 40, 98)).astype(np.float32)
        small = traced_peak_mib(extract_timestamps, feats[:4], w)[0]
        large, out = traced_peak_mib(extract_timestamps, feats, w)
        assert large <= small + 2 * out.nbytes / 2**20, (
            f"B=64 {large:.1f} MiB, B=4 {small:.1f} MiB"
        )

    def test_stack_of_another_grid_shape_rejected(self):
        w = init_weights(EncoderConfig())
        with pytest.raises(ValueError, match=r"\(2, 6, 4\) != \(B, 40, 98\)"):
            extract_timestamps(np.ones((2, 6, 4), dtype=np.float32), w)


class TestToeplitzScore:
    def test_exact_toeplitz_scores_one(self):
        rng = np.random.default_rng(13)
        first_col = rng.standard_normal(98)
        first_row = rng.standard_normal(98)
        first_row[0] = first_col[0]
        m = np.empty((98, 98))
        for i in range(98):
            for j in range(98):
                m[i, j] = first_row[j - i] if j >= i else first_col[i - j]
        assert toeplitz_score(m) == pytest.approx(1.0, abs=1e-12)

    def test_constant_matrix_scores_one(self):
        assert toeplitz_score(np.zeros((98, 98))) == 1.0
        assert toeplitz_score(np.full((98, 98), 3.25)) == 1.0

    def test_iid_noise_scores_low(self):
        rng = np.random.default_rng(14)
        score = toeplitz_score(rng.standard_normal((98, 98)))
        assert 0.0 < score < 0.2

    def test_near_toeplitz_scores_high(self):
        rng = np.random.default_rng(15)
        base = np.add.outer(np.zeros(98), np.sin(np.arange(98)))
        diag = np.sin(np.arange(-97, 98) * 0.3)
        m = np.empty((98, 98))
        for i in range(98):
            for j in range(98):
                m[i, j] = diag[j - i + 97]
        noisy = m + 0.01 * rng.standard_normal((98, 98))
        assert toeplitz_score(noisy) > 0.9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            toeplitz_score(np.zeros((4, 5)))
