from __future__ import annotations

import errno
import math
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from audiomlp.encoder import gelu, layer_norm, layer_norm_backward
from audiomlp.trainer import smoothed_cross_entropy

# pyproject's pytest `pythonpath` puts src/ on this process's sys.path;
# tests that start `python -m audiomlp...` in a child process need it too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of this one running or unreaped,
    such as a forked half of a training step that was never waited for.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process {'running' if pid == 0 else f'{pid} unreaped'}")


def traced_peak_mib(fn, *args, **kwargs):
    """(peak, result): the tracemalloc peak of fn(*args, **kwargs) in MiB,
    counted from the call's start, and what the call returned.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, result


def make_wav(
    samples,
    rate: int = 16000,
    *,
    encoding: str = "pcm16",
    fmt_code: int | None = None,
    bits: int | None = None,
) -> bytes:
    """Assemble RIFF/WAVE bytes. samples: 1-D mono or (frames, channels)."""
    data = np.asarray(samples, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    channels = data.shape[1]
    if encoding == "pcm16":
        code, width = 1, 2
        ints = np.clip(np.round(data * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
    elif encoding == "float32":
        code, width = 3, 4
        payload = data.astype("<f4").tobytes()
    else:
        raise ValueError(encoding)
    if fmt_code is not None:
        code = fmt_code
    if bits is not None:
        width = bits // 8
    fmt = struct.pack(
        "<HHIIHH", code, channels, rate, rate * channels * width, channels * width, width * 8
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def sine_clip(freq: float, rate: int = 16000, seconds: float = 1.0, amp: float = 0.5, phase: float = 0.0):
    t = np.arange(round(rate * seconds)) / rate
    return amp * np.sin(2.0 * np.pi * freq * t + phase)


def noise_clip(rng: np.random.Generator, rate: int = 16000, seconds: float = 1.0, amp: float = 0.5):
    return amp * rng.uniform(-1.0, 1.0, round(rate * seconds))


@pytest.fixture
def wav_factory():
    return make_wav


@pytest.fixture
def sine():
    return sine_clip


@pytest.fixture
def noise():
    return noise_clip


class _HalfWriter:
    """A file whose write() stores half of its bytes, then reports a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def disk_full(monkeypatch):
    """Every file audiomlp.formats opens fails halfway through its write."""
    real_open = open
    monkeypatch.setattr(
        "audiomlp.formats.open",
        lambda *args, **kwargs: _HalfWriter(real_open(*args, **kwargs)),
        raising=False,
    )


def _einsum_loss_and_grads(features, labels, weights, label_smoothing, survival, rng):
    """Oracle for loss_and_grads: the backward pass as first written.

    Its forward pass keeps every intermediate (the norm outputs n1/n2 and
    the GELU input upre), the GELU derivative is evaluated on its own, and
    the weight gradients are einsums. survival must be < 1.
    """
    cfg, t = weights.config, weights.tensors
    half = cfg.half_dim
    dtype = np.result_type(features, t["P0"], t["P0.bias"])
    scales = [
        ((rng.random(len(features)) < survival) / survival).astype(dtype)
        for _ in range(cfg.depth)
    ]
    x = np.swapaxes(features, 1, 2) @ t["P0"] + t["P0.bias"]
    blocks = []
    for i in range(cfg.depth):
        p = f"block.{i}."
        bc = {}
        n1 = layer_norm(x, t[p + "pre_norm.scale"], t[p + "pre_norm.shift"], bc, "1")
        upre = n1 @ t[p + "U"] + t[p + "U.bias"]
        hidden = gelu(upre)
        value, gate = hidden[..., :half], hidden[..., half:]
        n2 = layer_norm(gate, t[p + "gate_norm.scale"], t[p + "gate_norm.shift"], bc, "2")
        mixed = t[p + "G"] @ n2 + t[p + "G.bias"][:, None]
        gated = value * mixed
        x = x + (gated @ t[p + "V"] + t[p + "V.bias"]) * scales[i][:, None, None]
        bc.update(n1=n1, upre=upre, value=value, n2=n2, mixed=mixed, gated=gated)
        blocks.append(bc)
    fc = {}
    pooled = layer_norm(x, t["final_norm.scale"], t["final_norm.shift"], fc).mean(axis=1)
    loss, dlogits = smoothed_cross_entropy(
        pooled @ t["head.W"] + t["head.bias"], labels, label_smoothing
    )

    grads = {"head.W": pooled.T @ dlogits, "head.bias": dlogits.sum(axis=0)}
    dts = np.broadcast_to(
        (dlogits @ t["head.W"].T)[:, None, :], (len(features), cfg.n_frames, cfg.dim)
    ) / cfg.n_frames
    dx, grads["final_norm.scale"], grads["final_norm.shift"] = layer_norm_backward(
        dts, fc["xhat"], fc["istd"], t["final_norm.scale"]
    )
    for i in reversed(range(cfg.depth)):
        p = f"block.{i}."
        bc = blocks[i]
        dbranch = dx * scales[i][:, None, None]
        grads[p + "V"] = np.einsum("btc,btd->cd", bc["gated"], dbranch)
        grads[p + "V.bias"] = dbranch.sum(axis=(0, 1))
        dgated = dbranch @ t[p + "V"].T
        dvalue = dgated * bc["mixed"]
        dmixed = dgated * bc["value"]
        grads[p + "G"] = np.einsum("btd,bud->tu", dmixed, bc["n2"])
        grads[p + "G.bias"] = dmixed.sum(axis=(0, 2))
        dgate, grads[p + "gate_norm.scale"], grads[p + "gate_norm.shift"] = layer_norm_backward(
            np.matmul(t[p + "G"].T, dmixed), bc["xhat2"], bc["istd2"], t[p + "gate_norm.scale"]
        )
        u = bc["upre"]
        pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf, otypes=[u.dtype])(u / math.sqrt(2.0)))
        dupre = np.concatenate([dvalue, dgate], axis=-1) * (cdf + u * pdf)
        grads[p + "U"] = np.einsum("btd,bth->dh", bc["n1"], dupre)
        grads[p + "U.bias"] = dupre.sum(axis=(0, 1))
        dxpre, grads[p + "pre_norm.scale"], grads[p + "pre_norm.shift"] = layer_norm_backward(
            dupre @ t[p + "U"].T, bc["xhat1"], bc["istd1"], t[p + "pre_norm.scale"]
        )
        dx = dx + dxpre
    grads["P0"] = np.einsum("btf,btd->fd", np.swapaxes(features, 1, 2), dx)
    grads["P0.bias"] = dx.sum(axis=(0, 1))
    return loss, grads
