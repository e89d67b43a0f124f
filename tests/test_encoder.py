from __future__ import annotations

import math

import numpy as np
import pytest

from audiomlp.encoder import (
    EncoderConfig,
    EncoderWeights,
    block_forward,
    extract_timestamps,
    gelu,
    init_weights,
    layer_norm,
    patch_embed,
    tensor_shapes,
    toeplitz_score,
)

TOY = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=2, n_classes=3)


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
