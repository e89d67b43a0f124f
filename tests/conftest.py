from __future__ import annotations

import errno
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

# pyproject's pytest `pythonpath` puts src/ on this process's sys.path;
# tests that start `python -m audiomlp...` in a child process need it too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


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
