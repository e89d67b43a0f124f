from __future__ import annotations

import dataclasses
import math
import os
import time
import warnings

import numpy as np
import pytest

from audiomlp import trainer
from audiomlp.cli import main

from audiomlp.encoder import (
    _CACHED_MICRO_BATCH,
    LN_EPS,
    EncoderConfig,
    block_forward,
    extract_timestamps,
    init_weights,
    layer_norm,
    layer_norm_backward,
)
from audiomlp.trainer import (
    MAX_STEPS,
    StepRecord,
    TrainConfig,
    TrainingDivergedError,
    _branch_scales,
    adamw_update,
    augment,
    evaluate,
    forward_batch,
    init_adamw_state,
    loss_and_grads,
    lr_at,
    predict,
    smoothed_cross_entropy,
    train,
)
from conftest import _einsum_loss_and_grads, make_wav, noise_clip, sine_clip, traced_peak_mib

TOY = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=2, n_classes=3)


def loss_only(features, labels, weights, smoothing):
    """Forward-only loss used as the finite-difference oracle."""
    logits, _ = forward_batch(features, weights)
    loss, _ = smoothed_cross_entropy(logits, labels, smoothing)
    return loss


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.epochs == 140 and cfg.batch_size == 256
        assert cfg.peak_lr == 1e-3 and cfg.warmup_epochs == 10
        assert cfg.weight_decay == 0.1 and cfg.label_smoothing == 0.1
        assert cfg.survival == 0.9
        assert (cfg.time_masks, cfg.time_mask_width) == (2, 25)
        assert (cfg.freq_masks, cfg.freq_mask_width) == (2, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"peak_lr": 0.0},
            {"warmup_epochs": 141},
            {"label_smoothing": 1.0},
            {"survival": 0.0},
            {"survival": 1.5},
            {"time_mask_width": -1},
            {"peak_lr": float("nan")},
            {"peak_lr": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_step_count_must_fit_the_optimizer_counter(self):
        # AdamW's uint32 step would wrap to 0 after MAX_STEPS
        assert MAX_STEPS == np.iinfo(init_adamw_state({})["step"].dtype).max
        TrainConfig(epochs=MAX_STEPS, batch_size=2).check_step_count(2)
        with pytest.raises(ValueError, match="4294967296 steps"):
            TrainConfig(epochs=2**31, batch_size=1).check_step_count(2)


class TestAugment:
    def test_returns_new_array(self):
        feats = np.ones((40, 98), dtype=np.float32)
        out = augment(feats, np.random.default_rng(0), TrainConfig())
        assert out is not feats
        assert np.all(feats == 1.0)

    def test_no_masks_is_identity(self):
        cfg = TrainConfig(time_masks=0, freq_masks=0)
        feats = np.random.default_rng(1).standard_normal((40, 98)).astype(np.float32)
        np.testing.assert_array_equal(augment(feats, np.random.default_rng(2), cfg), feats)

    def test_deterministic_given_seed(self):
        feats = np.random.default_rng(3).standard_normal((40, 98)).astype(np.float32)
        a = augment(feats, np.random.default_rng(5), TrainConfig())
        b = augment(feats, np.random.default_rng(5), TrainConfig())
        assert a.tobytes() == b.tobytes()

    def test_time_mask_zeroes_full_columns(self):
        cfg = TrainConfig(time_masks=1, freq_masks=0)
        feats = np.ones((40, 98), dtype=np.float32)
        out = augment(feats, np.random.default_rng(11), cfg)
        zero_cols = np.flatnonzero((out == 0).all(axis=0))
        assert len(zero_cols) <= 25
        if len(zero_cols) > 1:
            assert np.all(np.diff(zero_cols) == 1)  # one contiguous span
        # everything outside the span is untouched
        kept = np.setdiff1d(np.arange(98), zero_cols)
        assert np.all(out[:, kept] == 1.0)

    def test_freq_mask_zeroes_full_rows(self):
        cfg = TrainConfig(time_masks=0, freq_masks=1)
        feats = np.ones((40, 98), dtype=np.float32)
        out = augment(feats, np.random.default_rng(12), cfg)
        zero_rows = np.flatnonzero((out == 0).all(axis=1))
        assert len(zero_rows) <= 7

    def test_width_distribution_is_uniform_on_0_to_25(self):
        cfg = TrainConfig(time_masks=1, freq_masks=0)
        rng = np.random.default_rng(13)
        feats = np.ones((40, 98), dtype=np.float32)
        widths = []
        for _ in range(3000):
            out = augment(feats, rng, cfg)
            widths.append(int((out == 0).all(axis=0).sum()))
        widths = np.array(widths)
        assert widths.min() == 0 and widths.max() == 25
        assert 11.9 < widths.mean() < 13.1  # E[U{0..25}] = 12.5


class TestSmoothedCrossEntropy:
    def test_uniform_logits_no_smoothing(self):
        loss, dlogits = smoothed_cross_entropy(np.zeros((1, 2)), np.array([0]), 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_allclose(dlogits, [[-0.5, 0.5]], atol=1e-12)

    def test_matches_scalar_formula_with_smoothing(self):
        logits = np.array([[2.0, -1.0, 0.5]])
        target, s, k = 1, 0.1, 3
        z = math.log(sum(math.exp(v) for v in logits[0]))
        expected = 0.0
        for j in range(k):
            q = s / k + (1.0 - s if j == target else 0.0)
            expected -= q * (logits[0, j] - z)
        loss, _ = smoothed_cross_entropy(logits, np.array([target]), s)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(14)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        _, dlogits = smoothed_cross_entropy(logits, labels, 0.1)
        np.testing.assert_allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 2])
        _, dlogits = smoothed_cross_entropy(logits, labels, 0.1)
        h = 1e-6
        for i in range(4):
            for j in range(3):
                up, down = logits.copy(), logits.copy()
                up[i, j] += h
                down[i, j] -= h
                fd = (
                    smoothed_cross_entropy(up, labels, 0.1)[0]
                    - smoothed_cross_entropy(down, labels, 0.1)[0]
                ) / (2 * h)
                assert dlogits[i, j] == pytest.approx(fd, abs=1e-8)

    def test_loss_is_stable_for_huge_logits(self):
        loss, _ = smoothed_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]), 0.0)
        assert loss == pytest.approx(0.0, abs=1e-12)


def _np_mean_layer_norm(x, scale, shift):
    """Oracle: layer_norm as np.mean expressions, returning (y, xhat, istd)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    istd = 1.0 / np.sqrt(var + LN_EPS)
    xhat = centered * istd
    return xhat * scale + shift, xhat, istd


def _np_mean_layer_norm_bwd(dy, xhat, istd, scale):
    """Oracle: layer_norm_backward as np.mean expressions."""
    reduce_axes = tuple(range(dy.ndim - 1))
    dxhat = dy * scale
    dx = istd * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=reduce_axes), dy.sum(axis=reduce_axes)


class TestLayerNormBits:
    """layer_norm and layer_norm_backward give the np.mean expressions' bits."""

    @staticmethod
    def _inputs(case, dtype, rng):
        if case == "contiguous":
            return (5.0 * rng.standard_normal((98, 64)) + 2.0).astype(dtype)
        if case == "gate-half":
            return (3.0 * rng.standard_normal((98, 256))).astype(dtype)[:, 128:]
        return (7.0 * rng.standard_normal((4, 98, 128)) - 1.0).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["contiguous", "gate-half", "batch"])
    def test_forward_and_backward_match_np_mean(self, case, dtype):
        rng = np.random.default_rng(11)
        x = self._inputs(case, dtype, rng)
        n = x.shape[-1]
        scale = rng.standard_normal(n).astype(dtype)
        shift = rng.standard_normal(n).astype(dtype)
        dy = rng.standard_normal(x.shape).astype(dtype)
        cache = {}
        y = layer_norm(x, scale, shift, cache, "k")
        expected, xhat, istd = _np_mean_layer_norm(x, scale, shift)
        for got, want in ((y, expected), (cache["xhatk"], xhat), (cache["istdk"], istd)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got = layer_norm_backward(dy, xhat, istd, scale)
        for g, want in zip(got, _np_mean_layer_norm_bwd(dy, xhat, istd, scale)):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constant_row_normalizes_to_exact_zero(self, dtype):
        # rows whose sums are exact, such as the zero rows of a masked frame
        x = np.random.default_rng(12).standard_normal((3, 64)).astype(dtype)
        x[1], x[2] = 0.0, -1.5
        cache = {}
        layer_norm(x, np.ones(64, dtype), np.zeros(64, dtype), cache)
        assert not cache["xhat"][1:].any()


class TestForwardBatch:
    def test_matches_single_example_inference(self):
        rng = np.random.default_rng(16)
        w = init_weights(TOY, seed=2).astype(np.float64)
        feats = rng.standard_normal((5, 4, 6))
        logits, _ = forward_batch(feats, w)
        t = w.tensors
        for b in range(5):
            expected = extract_timestamps(feats[b], w).mean(0) @ t["head.W"] + t["head.bias"]
            np.testing.assert_allclose(logits[b], expected, atol=1e-10)

    def test_rejects_bad_shape(self):
        w = init_weights(TOY)
        with pytest.raises(ValueError):
            forward_batch(np.ones((5, 6, 4), dtype=np.float32), w)

    def test_stochastic_depth_needs_rng(self):
        w = init_weights(TOY)
        feats = np.ones((2, 4, 6), dtype=np.float32)
        with pytest.raises(ValueError):
            _branch_scales(2, TOY.depth, np.float32, 0.9, None)
        with pytest.raises(ValueError):
            loss_and_grads(feats, np.array([0, 1]), w, survival=0.9)

    def test_survival_one_draws_nothing(self):
        w = init_weights(TOY, seed=3)
        feats = np.random.default_rng(17).standard_normal((3, 4, 6)).astype(np.float32)
        rng = np.random.default_rng(0)
        assert _branch_scales(3, TOY.depth, np.float32, 1.0, rng) is None
        loss, _ = loss_and_grads(feats, np.array([0, 1, 2]), w, survival=1.0, rng=rng)
        # generator untouched: next draw equals a fresh generator's first draw
        assert rng.random() == np.random.default_rng(0).random()
        plain, _ = forward_batch(feats, w)
        assert loss == smoothed_cross_entropy(plain, np.array([0, 1, 2]), 0.0)[0]

    def test_stochastic_depth_matches_manual_replay(self):
        cfg = EncoderConfig(n_mfcc=3, n_frames=4, dim=4, hidden_dim=8, depth=1, n_classes=2)
        w = init_weights(cfg, seed=4).astype(np.float64)
        t = w.tensors
        feats = np.random.default_rng(18).standard_normal((6, 3, 4))
        survival = 0.7
        scales = _branch_scales(6, 1, np.float64, survival, np.random.default_rng(99))
        logits, _ = forward_batch(feats, w, scales=scales)
        keep = np.random.default_rng(99).random(6) < survival
        assert 0 < keep.sum() < 6  # the seed exercises both branches
        x = feats.transpose(0, 2, 1) @ t["P0"] + t["P0.bias"]
        rows = []
        for b in range(6):
            branch = block_forward(x[b], t, 0) - x[b]
            rows.append(x[b] + branch * (keep[b] / survival))
        ts = layer_norm(np.stack(rows), t["final_norm.scale"], t["final_norm.shift"])
        expected = ts.mean(axis=1) @ t["head.W"] + t["head.bias"]
        np.testing.assert_allclose(logits, expected, atol=1e-9)


class TestGradients:
    def test_rejects_mismatched_labels_and_empty_batch(self):
        w = init_weights(TOY)
        feats = np.ones((3, 4, 6), dtype=np.float32)
        with pytest.raises(ValueError, match="4 labels for 3 examples"):
            loss_and_grads(feats, np.array([0, 1, 2, 0]), w)
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_grads(feats[:0], np.array([], dtype=int), w)

    def test_analytic_matches_finite_differences_everywhere(self):
        rng = np.random.default_rng(19)
        toy = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=2, n_classes=3)
        w = init_weights(toy, seed=5).astype(np.float64)
        feats = rng.standard_normal((3, 4, 6))
        labels = np.array([0, 1, 2])
        smoothing = 0.1
        _, grads = loss_and_grads(feats, labels, w, label_smoothing=smoothing)
        assert set(grads) == set(w.tensors)
        h = 1e-5
        worst = 0.0
        for name, tensor in w.tensors.items():
            flat = tensor.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_only(feats, labels, w, smoothing)
                flat[i] = orig - h
                down = loss_only(feats, labels, w, smoothing)
                flat[i] = orig
                fd = (up - down) / (2 * h)
                rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_einsum_oracle(self, dtype):
        keep = np.random.default_rng(3).random((3, 8)) < 0.9
        assert 0 < keep.sum() < keep.size  # the seed drops some branches and keeps others
        self._assert_matches_oracle(8, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 3, 7, 11])
    def test_ragged_micro_batches_match_einsum_oracle(self, n, dtype):
        # fewer examples than one micro-batch, or a last micro-batch cut short
        assert n < _CACHED_MICRO_BATCH or n % _CACHED_MICRO_BATCH != 0
        self._assert_matches_oracle(n, dtype)

    @staticmethod
    def _assert_matches_oracle(n, dtype):
        rng = np.random.default_rng(21)
        w = init_weights(EncoderConfig(depth=3, n_classes=5), seed=7).astype(dtype)
        for tensor in w.tensors.values():
            tensor += 0.05 * rng.standard_normal(tensor.shape)
        masks = TrainConfig()  # two time and two frequency masks
        feats = np.stack(
            [augment(f, rng, masks) for f in rng.standard_normal((n, 40, 98)).astype(dtype)]
        )
        labels = rng.integers(0, 5, n)
        loss, grads = loss_and_grads(
            feats, labels, w, label_smoothing=0.1, survival=0.9, rng=np.random.default_rng(3)
        )
        ref_loss, ref = _einsum_loss_and_grads(
            feats, labels, w, 0.1, 0.9, np.random.default_rng(3)
        )
        assert loss == ref_loss
        assert grads.keys() == ref.keys() == w.tensors.keys()
        for name in ref:
            assert grads[name].dtype == ref[name].dtype == dtype
            if dtype == np.float64:
                np.testing.assert_allclose(grads[name], ref[name], rtol=1e-5, err_msg=name)
            else:
                # float32 sums of ~800 terms reorder: bound the error by the
                # tensor's largest entry, not entry by entry
                scale = np.abs(ref[name]).max()
                assert np.abs(grads[name] - ref[name]).max() <= 1e-5 * scale, name

    def test_rng_stream_and_loss_match_one_full_batch_pass(self):
        depth, n = 3, 11
        w = init_weights(EncoderConfig(depth=depth, n_classes=5), seed=7)
        rng = np.random.default_rng(23)
        feats = rng.standard_normal((n, 40, 98)).astype(np.float32)
        labels = rng.integers(0, 5, n)
        g = np.random.default_rng(4)
        loss, _ = loss_and_grads(feats, labels, w, label_smoothing=0.1, survival=0.9, rng=g)
        fresh = np.random.default_rng(4)
        for _ in range(depth):
            fresh.random(n)
        assert g.bit_generator.state == fresh.bit_generator.state
        scales = _branch_scales(n, depth, np.float32, 0.9, np.random.default_rng(4))
        logits, _ = forward_batch(feats, w, scales=scales)
        assert loss == smoothed_cross_entropy(logits, labels, 0.1)[0]

    def test_dropped_branch_gets_zero_branch_gradients(self):
        cfg = EncoderConfig(n_mfcc=3, n_frames=4, dim=4, hidden_dim=8, depth=1, n_classes=2)
        w = init_weights(cfg, seed=6).astype(np.float64)
        feats = np.random.default_rng(20).standard_normal((4, 3, 4))
        labels = np.array([0, 1, 0, 1])
        # survival tiny: with this seed every example drops the block
        rng = np.random.default_rng(7)
        survival = 1e-9
        assert not np.any(np.random.default_rng(7).random(4) < survival)
        _, grads = loss_and_grads(
            feats, labels, w, label_smoothing=0.0, survival=survival, rng=rng
        )
        assert grads.keys() == w.tensors.keys()
        block = [name for name in w.tensors if name.startswith("block.0.")]
        assert len(block) == 10
        for name in block:
            assert grads[name].shape == w.tensors[name].shape, name
            np.testing.assert_array_equal(grads[name], 0.0, err_msg=name)
        assert np.any(grads["head.W"] != 0.0)  # the head still learns

    def test_every_gradient_has_the_step_dtype(self):
        # float64 features on float32 weights promote the whole step, the
        # gradients of a block that every example dropped included
        w = init_weights(dataclasses.replace(TOY, depth=3), seed=0)
        feats = np.random.default_rng(1).standard_normal((4, 4, 6))
        labels = np.array([0, 1, 2, 0])
        scales = _branch_scales(4, 3, np.float64, 0.3, np.random.default_rng(0))
        assert [bool(s.any()) for s in scales] == [True, False, True]
        _, grads = loss_and_grads(feats, labels, w, survival=0.3, rng=np.random.default_rng(0))
        assert list(grads) == list(w.tensors)
        for name, grad in grads.items():
            assert grad.dtype == np.float64, name
            if name.startswith("block.1."):
                np.testing.assert_array_equal(grad, 0.0, err_msg=name)

    def test_dropped_branch_that_overflows_is_an_identity(self):
        # a dropped block is never run, so its infinite output cannot turn
        # the loss NaN (as inf * 0 would)
        w = init_weights(TOY, seed=8)
        feats = np.random.default_rng(25).standard_normal((3, 4, 6)).astype(np.float32)
        labels = np.array([0, 1, 2])
        ref_loss, _ = loss_and_grads(
            feats, labels, w, survival=1e-9, rng=np.random.default_rng(0)
        )
        w.tensors["block.1.U"] *= 3e38
        with np.errstate(over="raise", invalid="raise"):
            loss, grads = loss_and_grads(
                feats, labels, w, survival=1e-9, rng=np.random.default_rng(0)
            )
        assert loss == ref_loss and math.isfinite(loss)
        for name, grad in grads.items():
            assert np.isfinite(grad).all(), name

    def test_analytic_matches_finite_differences_with_dropped_branches(self):
        # fixed draws: block 0 is dropped by example 1 only, block 1 by every
        # example, block 2 by example 2, which is the whole second micro-batch
        class FixedDraws:
            """Each random(n) call returns the next of these draws."""

            def __init__(self):
                self.draws = iter([[0.1, 0.9, 0.1], [0.9, 0.9, 0.9], [0.1, 0.1, 0.9]])

            def random(self, n):
                return np.array(next(self.draws))

        assert _CACHED_MICRO_BATCH == 2
        toy = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=3, n_classes=3)
        w = init_weights(toy, seed=9).astype(np.float64)
        rng = np.random.default_rng(26)
        for tensor in w.tensors.values():
            tensor += 0.1 * rng.standard_normal(tensor.shape)
        feats = rng.standard_normal((3, 4, 6))
        labels = np.array([2, 0, 1])
        survival, smoothing = 0.5, 0.1
        scales = _branch_scales(3, 3, np.float64, survival, FixedDraws())
        _, grads = loss_and_grads(
            feats, labels, w, label_smoothing=smoothing, survival=survival, rng=FixedDraws()
        )
        assert grads.keys() == w.tensors.keys()

        def loss_with_scales():
            logits, _ = forward_batch(feats, w, scales=scales)
            return smoothed_cross_entropy(logits, labels, smoothing)[0]

        h = 1e-5
        worst = 0.0
        for name, tensor in w.tensors.items():
            flat, gflat = tensor.reshape(-1), grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_with_scales()
                flat[i] = orig - h
                down = loss_with_scales()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                if name.startswith("block.1."):
                    assert gflat[i] == 0.0 and fd == 0.0, name
                rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4


def _step_peak_mib(n, survival=0.9):
    """tracemalloc peak of one depth-12 loss_and_grads call on n examples."""
    rng = np.random.default_rng(22)
    w = init_weights(EncoderConfig(), seed=0)
    feats = rng.standard_normal((n, 40, 98)).astype(np.float32)
    labels = rng.integers(0, 35, n)
    return traced_peak_mib(
        loss_and_grads,
        feats, labels, w, label_smoothing=0.1, survival=survival, rng=np.random.default_rng(1),
    )[0]


def test_training_step_memory_is_bounded():
    """A depth-12 B=16 step peaks under 10 MiB; it is at 8.8 MiB.

    One cached micro-batch's block cache (2 examples) is alive at a time,
    the gated product is recomputed in the backward pass rather than
    cached, the backward pass drops each cached array and temporary after
    its last use, and each gradient is added into the step's gradient
    table as it is formed, so no second set of gradients is held. Micro-batches of 4
    peaked at 17.1 MiB, and one pass over all 16 examples at 56.5 MiB.
    """
    peak = _step_peak_mib(16)
    assert peak < 10, f"peak {peak:.1f} MiB"


def test_block_cache_holds_only_what_the_backward_pass_reads():
    """Per block: both norms' xhat and istd, dgelu, value, mixed, scale.

    The gated product value * mixed is recomputed by the backward pass.
    Caching it would move the B=16 peak from 8.8 to 9.8 MiB, under the
    step's 10 MiB bound, so the contents are checked here. A block that
    some examples dropped holds them for the kept examples only, plus the
    "keep" mask; a block that every example dropped holds nothing. Every
    array owns its data: a view would keep a larger buffer alive.
    """
    w = init_weights(EncoderConfig(depth=3), seed=0)
    feats = np.random.default_rng(24).standard_normal((4, 40, 98)).astype(np.float32)
    kept = np.full(4, 1 / 0.9, np.float32)
    scales = [kept, np.array([kept[0], 0.0, kept[0], 0.0], np.float32), np.zeros(4, np.float32)]
    _, cache = forward_batch(feats, w, scales=scales)
    assert set(cache) == {"blocks", "xhat_f", "istd_f", "pooled"}
    full, partial, skipped = cache["blocks"]
    read = {"xhat1", "istd1", "dgelu", "value", "xhat2", "istd2", "mixed", "scale"}
    assert set(full) == read and set(partial) == read | {"keep"} and skipped == {}
    assert partial["keep"].tolist() == [True, False, True, False]
    for bc in (full, partial):
        assert len(bc["value"]) == (bc["keep"].sum() if "keep" in bc else 4)
        for name, array in bc.items():
            assert array.base is None, name


def test_training_step_memory_is_flat_in_the_batch_size():
    """Only one micro-batch's block cache is alive at a time.

    A depth-12 step peaks at 8.35 MiB on one cached micro-batch (2
    examples) and 8.75 MiB at B=64: both hold the step's gradient table
    (1.62 MiB, allocated after the first forward pass). The gap is
    bounded by 1.1 gradient sets; a ratio bound would tighten as a
    micro-batch's own working set shrinks. (A second gradient set held
    through the micro-batches would pass here and fail
    test_training_step_memory_is_bounded.) In one pass over all 64
    examples the step peaks at 226 MiB. The one-micro-batch
    peak is taken at survival 1: a block that an example drops caches
    nothing for it, so at survival 0.9 the drawn 2 examples peak at 7.52
    MiB, while the B=64 step has a micro-batch that keeps every block.
    """
    small, large = _step_peak_mib(_CACHED_MICRO_BATCH, survival=1.0), _step_peak_mib(64)
    grad_set = init_weights(EncoderConfig()).parameter_count() * 4 / 2**20
    assert large <= small + 1.1 * grad_set, (
        f"B=64 peaks at {large:.2f} MiB, B={_CACHED_MICRO_BATCH} at {small:.2f} MiB, "
        f"one gradient set is {grad_set:.2f} MiB"
    )


def test_second_half_of_a_step_shares_one_gradient_set(monkeypatch):
    """tracemalloc does not see the shared mmap that the second half of a
    step's micro-batches adds its gradients into, so its size is pinned
    here: one gradient set and the loss rows, at any batch size.
    """
    made = []

    def shared_zeros(layout):
        made.append(real(layout))
        return made[-1]

    real = trainer._shared_zeros
    monkeypatch.setattr(trainer, "_shared_zeros", shared_zeros)
    w = init_weights(EncoderConfig(), seed=0)
    grad_set = w.parameter_count() * 4
    rng = np.random.default_rng(27)
    for n in (16, 64):
        made.clear()
        feats = rng.standard_normal((n, 40, 98)).astype(np.float32)
        _, grads = loss_and_grads(feats, rng.integers(0, 35, n), w, survival=1.0)
        (second,) = made  # the loss rows were popped from it
        assert {k: (a.shape, a.dtype) for k, a in second.items()} == {
            k: (g.shape, g.dtype) for k, g in grads.items()
        }
        assert sum(a.nbytes for a in second.values()) == grad_set
        # each array starts on a 64-byte boundary of one mapping
        rows = -(-n * 4 // 64) * 64
        mapped = len(second["P0"].base.base)
        assert mapped == rows + sum(-(-a.nbytes // 64) * 64 for a in second.values())
        assert mapped < rows + grad_set + 64 * len(second)


class TestAdamW:
    def _single(self, wd):
        params = {"w.W": np.array([[1.0]])}
        grads = {"w.W": np.array([[1.0]])}
        state = init_adamw_state(params)
        adamw_update(params, grads, state, lr=1e-3, weight_decay=wd)
        return params["w.W"][0, 0], state

    def test_first_step_without_decay(self):
        p, state = self._single(0.0)
        assert p == pytest.approx(1.0 - 1e-3 / (1.0 + 1e-8), abs=1e-12)
        assert state["step"][0] == 1

    def test_first_step_with_decay(self):
        p, _ = self._single(0.1)
        after_decay = 1.0 - 1e-3 * 0.1
        assert p == pytest.approx(after_decay - 1e-3 / (1.0 + 1e-8), abs=1e-12)

    def test_constant_gradient_moves_at_lr(self):
        params = {"x.W": np.array([[1.0]])}
        state = init_adamw_state(params)
        for _ in range(3):
            adamw_update(params, {"x.W": np.array([[1.0]])}, state, 1e-3, 0.0)
        # bias correction makes each unit-gradient step move by ~lr
        assert params["x.W"][0, 0] == pytest.approx(1.0 - 3e-3, abs=1e-6)

    def test_decay_filter_spares_biases_and_norms(self):
        params = init_weights(EncoderConfig(depth=2)).tensors
        for t in params.values():
            t[...] = 1.0
        state = init_adamw_state(params)
        adamw_update(params, {k: np.zeros_like(t) for k, t in params.items()}, state, 0.5, 0.1)
        decayed = {k for k, t in params.items() if (t != 1.0).any()}
        blocks = {f"block.{i}.{leaf}" for i in range(2) for leaf in ("U", "G", "V")}
        assert decayed == {"P0", "head.W"} | blocks

    def test_zero_gradient_with_decay_only_shrinks_matrices(self):
        params = {"a.W": np.array([[2.0]]), "a.bias": np.array([2.0])}
        state = init_adamw_state(params)
        grads = {k: np.zeros_like(t) for k, t in params.items()}
        adamw_update(params, grads, state, lr=0.5, weight_decay=0.1)
        assert params["a.W"][0, 0] == pytest.approx(2.0 * (1.0 - 0.05), abs=1e-12)
        assert params["a.bias"][0] == 2.0

    def test_updates_are_in_place(self):
        arr = np.array([[1.0]])
        params = {"z.W": arr}
        state = init_adamw_state(params)
        adamw_update(params, {"z.W": np.array([[1.0]])}, state, 1e-3, 0.0)
        assert params["z.W"] is arr and arr[0, 0] != 1.0


class TestLrSchedule:
    CFG = TrainConfig(epochs=140, warmup_epochs=10, peak_lr=1e-3)

    def test_warmup_is_linear_from_zero(self):
        assert lr_at(self.CFG, 0.0) == 0.0
        assert lr_at(self.CFG, 5.0) == pytest.approx(5e-4)
        assert lr_at(self.CFG, 9.99) < 1e-3

    def test_cosine_landmarks(self):
        assert lr_at(self.CFG, 10.0) == pytest.approx(1e-3)
        assert lr_at(self.CFG, 75.0) == pytest.approx(5e-4, abs=1e-12)
        assert lr_at(self.CFG, 140.0) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_decay_after_warmup(self):
        values = [lr_at(self.CFG, e) for e in np.linspace(10, 140, 53)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup_starts_at_peak(self):
        cfg = TrainConfig(epochs=20, warmup_epochs=0, peak_lr=2e-3)
        assert lr_at(cfg, 0.0) == pytest.approx(2e-3)


def separable_toy_data(n_per_class=8, seed=0):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for label in (0, 1):
        base = 1.0 if label == 0 else -1.0
        for _ in range(n_per_class):
            feats.append(base + 0.05 * rng.standard_normal((4, 6)))
            labels.append(label)
    return np.array(feats, dtype=np.float32), np.array(labels)


class TestTrainLoop:
    def _toy_setup(self, seed=0):
        cfg = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=1, n_classes=2)
        return init_weights(cfg, seed=seed)

    def test_overfits_separable_toy_data(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        cfg = TrainConfig(
            epochs=40, batch_size=4, peak_lr=5e-3, warmup_epochs=2, weight_decay=0.0,
            label_smoothing=0.0, survival=1.0, time_masks=0, freq_masks=0, seed=1,
        )
        result = train(feats, labels, w, cfg)
        assert result.epoch_losses[-1] < 0.1
        assert evaluate(feats, labels, w) == 1.0

    def test_bitwise_deterministic(self):
        feats, labels = separable_toy_data(seed=2)
        cfg = TrainConfig(
            epochs=3, batch_size=4, warmup_epochs=1, seed=9,
            time_mask_width=3, freq_mask_width=2,
        )
        runs = []
        for _ in range(2):
            w = self._toy_setup(seed=5)
            result = train(feats, labels, w, cfg)
            runs.append((w, result))
        wa, ra = runs[0]
        wb, rb = runs[1]
        for name in wa.tensors:
            assert wa.tensors[name].tobytes() == wb.tensors[name].tobytes()
        assert ra.epoch_losses == rb.epoch_losses

    def test_seed_changes_trajectory(self):
        feats, labels = separable_toy_data(seed=2)
        outs = []
        for seed in (1, 2):
            w = self._toy_setup(seed=5)
            cfg = TrainConfig(epochs=2, batch_size=4, warmup_epochs=1, seed=seed,
                              time_mask_width=3, freq_mask_width=2)
            train(feats, labels, w, cfg)
            outs.append(w.tensors["head.W"].tobytes())
        assert outs[0] != outs[1]

    def test_on_step_records(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        cfg = TrainConfig(epochs=2, batch_size=6, warmup_epochs=1, seed=3,
                          time_masks=0, freq_masks=0)
        records: list[StepRecord] = []
        result = train(feats, labels, w, cfg, on_step=records.append)
        steps_per_epoch = math.ceil(16 / 6)
        assert len(records) == result.steps == 2 * steps_per_epoch
        assert [r.step for r in records] == list(range(result.steps))
        assert records[0].epoch == 0 and records[-1].epoch == 1
        for r in records:
            assert r.lr == lr_at(cfg, r.step / steps_per_epoch)
            assert np.isfinite(r.loss)

    def test_epoch_loss_history_length(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        cfg = TrainConfig(epochs=4, batch_size=16, warmup_epochs=1, seed=3,
                          time_masks=0, freq_masks=0)
        result = train(feats, labels, w, cfg)
        assert len(result.epoch_losses) == 4
        assert result.state is not None and result.state["step"][0] == result.steps

    def test_rejects_label_out_of_range(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        with pytest.raises(ValueError):
            train(feats, labels + 5, w, TrainConfig(epochs=1, batch_size=4))

    def test_rejects_mask_wider_than_grid(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        cfg = TrainConfig(epochs=1, batch_size=4, warmup_epochs=0, time_mask_width=7)  # grid is 6 frames
        with pytest.raises(ValueError):
            train(feats, labels, w, cfg)

    def test_rejects_more_masks_than_the_grid_has_rows(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        for counts in ({"time_masks": 7}, {"freq_masks": 5}):  # grid is 4x6
            cfg = TrainConfig(epochs=1, batch_size=4, warmup_epochs=0, time_mask_width=3,
                              freq_mask_width=2, **counts)
            with pytest.raises(ValueError, match="at most 6 time masks and 4 frequency masks"):
                train(feats, labels, w, cfg)

    def test_mask_counts_up_to_the_grid_are_accepted(self):
        TrainConfig(time_masks=98, freq_masks=40).check_mask_widths(EncoderConfig())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_at_its_step(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        w.tensors["head.bias"][0] = np.inf  # the first loss is already NaN
        records: list[StepRecord] = []
        cfg = TrainConfig(epochs=2, batch_size=4, warmup_epochs=0, seed=3,
                          time_masks=0, freq_masks=0)
        with pytest.raises(TrainingDivergedError, match="diverged at step 0") as info:
            train(feats, labels, w, cfg, on_step=records.append)
        assert info.value.step == 0
        assert isinstance(info.value, ValueError)
        assert records == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_stops_at_its_step(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        records: list[StepRecord] = []
        cfg = TrainConfig(epochs=2, batch_size=4, peak_lr=1e300, warmup_epochs=0, seed=3,
                          time_masks=0, freq_masks=0)
        with pytest.raises(TrainingDivergedError, match=r"at step 0 \(the update left P0 ") as info:
            train(feats, labels, w, cfg, on_step=records.append)
        assert info.value.step == 0
        assert records == []

    def test_rejects_more_steps_than_the_optimizer_counts_before_any_step(self):
        feats, labels = separable_toy_data()
        w = self._toy_setup()
        before = {name: x.copy() for name, x in w.tensors.items()}
        records: list[StepRecord] = []
        cfg = TrainConfig(epochs=2**28, batch_size=1, warmup_epochs=0, time_masks=0, freq_masks=0)
        with pytest.raises(ValueError, match="exceed the optimizer's 4294967295 steps"):
            train(feats, labels, w, cfg, on_step=records.append)
        assert records == []
        for name, x in w.tensors.items():
            assert x.tobytes() == before[name].tobytes(), name

    def test_rejects_empty_dataset(self):
        w = self._toy_setup()
        with pytest.raises(ValueError):
            train(np.zeros((0, 4, 6), dtype=np.float32), np.zeros(0, int), w, TrainConfig())


class TestPredictEvaluate:
    def test_predict_shape_and_batching(self):
        feats, labels = separable_toy_data()
        w = self._weights()
        whole = predict(feats, w)
        assert whole.shape == (16,)
        # slices that start inside a micro-batch and end short of one
        parts = [predict(feats[lo:hi], w) for lo, hi in ((0, 3), (3, 10), (10, 16))]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        np.testing.assert_array_equal(whole, np.argmax(forward_batch(feats, w)[0], axis=1))

    def test_predict_matches_forward_batch(self):
        w = init_weights(EncoderConfig(depth=2), seed=4)
        feats = np.random.default_rng(6).standard_normal((11, 40, 98)).astype(np.float32)
        expected = np.argmax(forward_batch(feats, w)[0], axis=1)
        np.testing.assert_array_equal(predict(feats, w), expected)

    def test_predict_keeps_no_training_cache(self):
        # Without a cache, inference holds one block's activations of one
        # micro-batch at a time: a depth-3 B=16 call peaks at 1.8 MiB, and
        # 5.1 MiB when each block's backward intermediates are kept.
        w = init_weights(EncoderConfig(depth=3), seed=0)
        feats = np.random.default_rng(3).standard_normal((16, 40, 98)).astype(np.float32)
        peak = traced_peak_mib(predict, feats, w)[0]
        assert peak < 3, f"peak {peak:.1f} MiB"

    def test_evaluate_range(self):
        feats, labels = separable_toy_data()
        acc = evaluate(feats, labels, self._weights())
        assert 0.0 <= acc <= 1.0

    def _weights(self):
        cfg = EncoderConfig(n_mfcc=4, n_frames=6, dim=4, hidden_dim=8, depth=1, n_classes=2)
        return init_weights(cfg, seed=8)


class TestSecondProcess:
    """loss_and_grads and predict run the second half of their micro-batches
    in one forked child. The child is always reaped, it is killed when the
    parent's half raises, and a child that exits non-zero, even after it
    wrote all its results, leaves the result of one process.
    """

    @pytest.fixture(params=["loss_and_grads", "predict", "cli train"])
    def call(self, request, tmp_path, capsys):
        """A call with 4 cached or 2 uncached micro-batches, returning its outputs as bytes."""
        rng = np.random.default_rng(30)
        if request.param == "cli train":
            lines = []
            for k in range(8):
                clip = sine_clip(300.0 + 50.0 * k) if k % 2 else noise_clip(rng)
                (tmp_path / f"{k}.wav").write_bytes(make_wav(clip))
                lines.append(f"{k}.wav\t{k % 2}")
            manifest = tmp_path / "train.tsv"
            manifest.write_text("\n".join(lines) + "\n")
            out = tmp_path / "m.kwm1"
            argv = ["train", "--manifest", str(manifest), "--output", str(out), "--depth", "1",
                    "--epochs", "1", "--batch-size", "8", "--warmup-epochs", "0"]

            def run():
                code = main(argv)
                files = [out.with_suffix(s).read_bytes() for s in (".kwm1", ".opt1", ".csv")]
                return [bytes([code]), capsys.readouterr().out.encode()] + files

            return run
        w = init_weights(EncoderConfig(depth=2, n_classes=3), seed=1)
        feats = rng.standard_normal((8, 40, 98)).astype(np.float32)
        labels = rng.integers(0, 3, 8)
        if request.param == "predict":
            return lambda: [predict(feats, w).tobytes()]

        def run():
            loss, grads = loss_and_grads(
                feats, labels, w, label_smoothing=0.1, survival=0.9, rng=np.random.default_rng(2)
            )
            return [np.float64(loss).tobytes()] + [g.tobytes() for g in grads.values()]

        return run

    @pytest.mark.parametrize("mode", ["returns", "interrupted", "child fails"])
    def test_no_child_is_left(self, call, mode, monkeypatch):
        monkeypatch.setattr(trainer, "_spare_cpu", lambda: False)
        expected = call()
        monkeypatch.setattr(trainer, "_spare_cpu", lambda: True)
        parent, forks = os.getpid(), []
        real_fork, real_encode, real_exit = os.fork, trainer.encode, os._exit

        def fork():
            forks.append(1)
            return real_fork()

        def encode(*args, **kwargs):
            if mode == "interrupted" and forks:
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(60)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(trainer, "encode", encode)
        if mode == "child fails":
            # after the child wrote all its results
            monkeypatch.setattr(os, "_exit", lambda code: real_exit(1))
        start = time.monotonic()
        if mode == "interrupted":
            with pytest.raises(KeyboardInterrupt):
                call()
            assert time.monotonic() - start < 30  # the sleeping child was killed
        else:
            assert call() == expected
        assert forks
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fn", ["loss_and_grads", "predict"])
    def test_a_warning_in_the_second_half_is_the_one_process_warning(self, fn, monkeypatch):
        # only the last example overflows: the child fails, and this process
        # runs the second half again and warns as one process does
        w = init_weights(EncoderConfig(depth=1, n_classes=2), seed=3)
        feats = np.random.default_rng(32).standard_normal((8, 40, 98)).astype(np.float32)
        feats[-1] = 3e38
        labels = np.arange(8) % 2

        def outputs(spare_cpu):
            monkeypatch.setattr(trainer, "_spare_cpu", lambda: spare_cpu)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if fn == "predict":
                    out = predict(feats, w).tobytes()
                else:
                    out = np.float64(loss_and_grads(feats, labels, w)[0]).tobytes()
            return out, [(c.category, str(c.message)) for c in caught]

        one_process = outputs(False)
        assert one_process[1]
        assert outputs(True) == one_process
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
