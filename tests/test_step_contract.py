"""The training step's contract, on drawn configurations.

loss_and_grads is checked against the einsum oracle (conftest) at tiny
widths (norms over 1, 3 or 4 channels): depth 1 to 3 (EncoderConfig
takes no depth 0), 2 to 5 classes,
1 to 7 examples (ragged against the cached micro-batch of 2), float32 or
float64 features on float32 or float64 weights, survival 1, 0.5 or 1e-9,
any label smoothing, and mask counts and widths up to the whole grid.
The second half of the micro-batches runs in a forked child or in this
process, and no bit may depend on which, nor on whether the weights
were cast to the step's dtype beforehand; predict's output is that of
the one-process forward pass it replaced.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomlp import trainer
from audiomlp.encoder import EncoderConfig, encode, init_weights
from audiomlp.trainer import (
    TrainConfig,
    _branch_scales,
    augment,
    forward_batch,
    loss_and_grads,
    predict,
    smoothed_cross_entropy,
)
from conftest import _einsum_loss_and_grads


@st.composite
def steps(draw, feature_dtype, weight_dtype, survival):
    """(features, labels, weights, smoothing, survival, draw seed)."""
    cfg = EncoderConfig(
        n_mfcc=draw(st.integers(1, 4)),
        n_frames=draw(st.integers(1, 6)),
        # no norm over 2 channels: its output is +-1, and the gradient of its
        # input is float32 cancellation noise, which no tolerance can bound
        dim=draw(st.sampled_from([1, 3, 4])),
        hidden_dim=2 * draw(st.sampled_from([1, 3, 4])),
        depth=draw(st.integers(1, 3)),
        n_classes=draw(st.integers(2, 5)),
    )
    masks = TrainConfig(
        time_masks=draw(st.integers(0, cfg.n_frames)),
        time_mask_width=draw(st.integers(0, cfg.n_frames)),
        freq_masks=draw(st.integers(0, cfg.n_mfcc)),
        freq_mask_width=draw(st.integers(0, cfg.n_mfcc)),
    )
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = init_weights(cfg, seed=int(rng.integers(1000))).astype(weight_dtype)
    for tensor in weights.tensors.values():
        tensor += 0.1 * rng.standard_normal(tensor.shape)
    raw = rng.standard_normal((n, cfg.n_mfcc, cfg.n_frames))
    features = np.stack([augment(f, rng, masks) for f in raw]).astype(feature_dtype)
    labels = rng.integers(0, cfg.n_classes, n)
    smoothing = draw(st.floats(0.0, 0.9))
    return features, labels, weights, smoothing, survival, draw(st.integers(0, 2**32 - 1))


def _step(case, spare_cpu):
    features, labels, weights, smoothing, survival, seed = case
    with mock.patch.object(trainer, "_spare_cpu", return_value=spare_cpu):
        loss, grads = loss_and_grads(
            features, labels, weights, label_smoothing=smoothing, survival=survival,
            rng=np.random.default_rng(seed),
        )
        return loss, grads, predict(features, weights)


def _bits(loss, grads, predicted):
    return [np.float64(loss).tobytes(), predicted.tobytes()] + [
        g.dtype.str.encode() + g.tobytes() for g in grads.values()
    ]


@pytest.mark.parametrize("survival", [1.0, 0.5, 1e-9])
@pytest.mark.parametrize("feature_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_dtype", [np.float32, np.float64])
def test_step_contract(weight_dtype, feature_dtype, survival):
    # every dtype pair meets every survival: hypothesis's draws alone missed
    # float64 features on float32 weights with a dropped block
    @settings(max_examples=5, derandomize=True, deadline=None, database=None)
    @given(steps(feature_dtype, weight_dtype, survival), st.data())
    def check(case, data):
        _check_step(case, data)

    check()


def _check_step(case, data):
    features, labels, weights, smoothing, survival, seed = case
    t = weights.tensors
    loss, grads, predicted = _step(case, spare_cpu=True)

    ref_loss, ref = _einsum_loss_and_grads(
        features, labels, weights, smoothing, survival, np.random.default_rng(seed)
    )
    # not bit for bit: at these widths a product's rows can depend on its row
    # count (float32 (1, 4) @ (4, 2) differs from the first row of (2, 4) @
    # (4, 2) in OpenBLAS), and the oracle runs the batch in one pass
    dtype = np.result_type(features, *t.values())
    assert abs(loss - ref_loss) <= (1e-5 if dtype == np.float32 else 1e-12) * abs(ref_loss)
    assert list(grads) == list(t)
    # the oracle tests' tolerances, float64's wherever the step's dtype is
    # float64. A tensor whose gradient is nearly zero is held to a share of
    # the step's largest gradient.
    top = max(np.abs(r).max() for r in ref.values())
    for name, grad in grads.items():
        assert grad.shape == t[name].shape, name
        assert grad.dtype == dtype == ref[name].dtype, name
        if dtype == np.float64:
            np.testing.assert_allclose(grad, ref[name], rtol=1e-5, atol=1e-12 * top, err_msg=name)
        else:
            scale = max(np.abs(ref[name]).max(), 0.1 * top)
            assert np.abs(grad - ref[name]).max() <= 1e-5 * scale, name

    # same bits twice, and wherever the second half of the micro-batches ran
    assert _bits(*_step(case, spare_cpu=True)) == _bits(loss, grads, predicted)
    assert _bits(*_step(case, spare_cpu=False)) == _bits(loss, grads, predicted)
    # one dtype per step: the bits of the same step on the weights cast to it
    cast = (features, labels, weights.astype(dtype), smoothing, survival, seed)
    assert _bits(*_step(cast, spare_cpu=True)) == _bits(loss, grads, predicted)
    assert _bits(*_step(cast, spare_cpu=False)) == _bits(loss, grads, predicted)
    one_pass = encode(features, t, weights.config.depth).mean(axis=1) @ t["head.W"] + t["head.bias"]
    assert predicted.tobytes() == np.argmax(one_pass, axis=1).tobytes()

    scales = _branch_scales(
        len(features), weights.config.depth, dtype, survival, np.random.default_rng(seed)
    )
    dropped = [i for i, s in enumerate(scales or []) if not s.any()]
    for i in dropped:
        for name in t:
            if name.startswith(f"block.{i}."):
                assert not grads[name].any(), name
    if dropped:
        # a block that every example dropped is never run in a training step,
        # so an overflowing one changes no bit (predict runs every block)
        u = t[f"block.{dropped[0]}.U"]
        kept = u.copy()
        u[...] = np.finfo(u.dtype).max
        again = loss_and_grads(
            features, labels, weights, label_smoothing=smoothing, survival=survival,
            rng=np.random.default_rng(seed),
        )
        u[...] = kept
        assert _bits(*again, predicted) == _bits(loss, grads, predicted)

    if features.dtype == t["P0"].dtype == np.float64:
        def loss_at():
            logits, _ = forward_batch(features, weights, scales=scales)
            return smoothed_cross_entropy(logits, labels, smoothing)[0]

        for _ in range(3):
            name = data.draw(st.sampled_from(sorted(t)))
            flat = t[name].reshape(-1)
            i = data.draw(st.integers(0, flat.size - 1))
            if name.startswith(tuple(f"block.{j}." for j in dropped)):
                continue
            orig, h = flat[i], 1e-5
            flat[i] = orig + h
            up = loss_at()
            flat[i] = orig - h
            down = loss_at()
            flat[i] = orig
            fd, g = (up - down) / (2 * h), grads[name].reshape(-1)[i]
            assert abs(g - fd) <= 1e-4 * max(abs(g), abs(fd), 1e-6), (name, i, g, fd)
