"""Audio front end: WAV decoding, resampling, segmentation, MFCC features.

Everything downstream expects mono 16 kHz audio cut into exact 1 s
segments. Other rates are resampled with a polyphase Kaiser-windowed sinc
filter: for a rate ratio reduced to up/down there are only `up` distinct
kernel phases, so each call tabulates them once, and all outputs of one
phase come from a single matrix-vector product of that phase's table row
with a strided view of the input windows. A segment is
framed with a 30 ms window and 10 ms hop (no centering), run through a
Hann window, a power spectrum, a 40-filter mel bank and an orthonormal
DCT-II, producing a 40x98 matrix. These MFCC settings are fixed module
constants; the window, filterbank and DCT tables are built once at
import. All functions are pure; none keep state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TARGET_RATE = 16000
SEGMENT_SAMPLES = TARGET_RATE  # one second at the model rate
# Lowest rate decode_wav accepts. Resampling to TARGET_RATE multiplies the
# sample count by TARGET_RATE / rate, so a header claiming a few Hz would
# turn a small file into gigabytes of output.
MIN_SAMPLE_RATE = 1000

# MFCC geometry: 30 ms Hann window, 10 ms hop, power spectrum, 40 mel
# filters, 40 DCT-II coefficients.
WINDOW_SAMPLES = 480
HOP_SAMPLES = 160
FFT_SIZE = 512
N_MELS = 40
N_MFCC = 40
N_FRAMES = 1 + (SEGMENT_SAMPLES - WINDOW_SAMPLES) // HOP_SAMPLES
LOG_FLOOR = 1e-10

# Windowed-sinc resampler: zero crossings kept on each side of the kernel
# and the Kaiser shape parameter. 8 crossings per side = 16 taps per output
# sample at unit ratio; the kernel widens by 1/cutoff when downsampling.
_SINC_ZERO_CROSSINGS = 8
_KAISER_BETA = 8.0

# Power series of the Kaiser window's I0(x) = sum_k ((x/2)^2)^k / (k!)^2. Its
# terms are all positive; on 0 <= x <= _KAISER_BETA the first one left out
# is below 1e-18 of the sum.
_I0_SERIES = tuple(1.0 / math.factorial(k) ** 2 for k in range(22))


class DecodeError(ValueError):
    """Base class for WAV decoding failures."""


class MalformedWavError(DecodeError):
    """Byte stream is not a readable RIFF/WAVE container."""


class UnsupportedWavError(DecodeError):
    """Readable container, but a codec or bit depth we do not decode."""


class EmptyWavError(DecodeError):
    """Readable container with zero audio samples."""


class NonFiniteWavError(DecodeError):
    """Float samples that hold NaN or infinity."""


@dataclass
class AudioBuffer:
    """Mono audio: float amplitudes in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int


def _require_samples(audio: AudioBuffer) -> None:
    if len(audio.samples) == 0:
        raise ValueError("audio buffer is empty")
    if not np.all(np.isfinite(audio.samples)):
        raise ValueError("audio buffer contains non-finite samples")


def decode_wav(data: bytes) -> AudioBuffer:
    """Decode a RIFF/WAVE byte string to a mono AudioBuffer.

    Accepts PCM 16-bit (format 1) and IEEE float 32-bit (format 3) with any
    channel count; channels are averaged. Integer samples are scaled by
    1/32768; float samples must be finite. Rates below MIN_SAMPLE_RATE
    raise UnsupportedWavError.
    """
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("not a RIFF/WAVE container")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(f"truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise MalformedWavError("fmt chunk too short")
            fmt = {
                "code": int.from_bytes(body[0:2], "little"),
                "channels": int.from_bytes(body[2:4], "little"),
                "rate": int.from_bytes(body[4:8], "little"),
                "bits": int.from_bytes(body[14:16], "little"),
            }
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedWavError("missing fmt chunk")
    if payload is None:
        raise MalformedWavError("missing data chunk")
    if fmt["channels"] < 1:
        raise MalformedWavError("fmt declares zero channels")
    if fmt["rate"] <= 0:
        raise MalformedWavError("fmt declares non-positive sample rate")
    if fmt["rate"] < MIN_SAMPLE_RATE:
        raise UnsupportedWavError(
            f"sample rate {fmt['rate']} Hz is below the {MIN_SAMPLE_RATE} Hz floor"
        )

    if fmt["code"] == 1 and fmt["bits"] == 16:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64) / 32768.0
    elif fmt["code"] == 3 and fmt["bits"] == 32:
        raw = np.frombuffer(payload[: len(payload) - len(payload) % 4], dtype="<f4")
        if not np.all(np.isfinite(raw)):
            raise NonFiniteWavError("data chunk holds NaN or infinite samples")
        samples = raw.astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"unsupported codec: format {fmt['code']}, {fmt['bits']}-bit"
        )

    channels = fmt["channels"]
    frames = len(samples) // channels
    if frames == 0:
        raise EmptyWavError("data chunk holds no samples")
    samples = samples[: frames * channels].reshape(frames, channels).mean(axis=1)
    return AudioBuffer(samples=samples, sample_rate=fmt["rate"])


def _bessel_i0(x) -> np.ndarray:
    """Modified Bessel function I0(x) for |x| <= _KAISER_BETA, by Horner's rule."""
    y = np.square(0.5 * np.asarray(x, dtype=np.float64))
    total = np.full_like(y, _I0_SERIES[-1])
    for c in _I0_SERIES[-2::-1]:
        total *= y
        total += c
    return total


def _sinc_kernel(offsets: np.ndarray, cutoff: float, radius: float) -> np.ndarray:
    inside = np.abs(offsets) <= radius
    taper = np.zeros_like(offsets)
    arg = np.clip(1.0 - (offsets[inside] / radius) ** 2, 0.0, None)
    taper[inside] = _bessel_i0(_KAISER_BETA * np.sqrt(arg)) / _bessel_i0(_KAISER_BETA)
    return cutoff * np.sinc(cutoff * offsets) * taper


def resample(audio: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample with a Kaiser-windowed sinc kernel, one polyphase table per call.

    Output length is round(len * target / source). With the ratio reduced
    to up/down = target/source, output j = q * up + p sits at input
    position j * down / up: whole part q * down + p * down // up,
    fractional phase (p * down % up) / up. The kernel is tabulated once
    per phase p (at most one row per output), and for a fixed p the whole
    parts step by `down`, so all outputs of phase p are one matrix-vector
    product of a strided view of the input windows with that phase's row.
    The same product over an in-range indicator (1 on input samples, 0 in
    the zero padding) gives each output's divisor: the sum of the weights
    that land on real input. Constant (DC) signals therefore pass through
    unchanged, also at the edges. Identical rates return a plain copy.
    """
    _require_samples(audio)
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if audio.sample_rate == target_rate:
        return AudioBuffer(np.array(audio.samples, dtype=np.float64), target_rate)

    x = np.asarray(audio.samples, dtype=np.float64)
    n = x.size
    out_len = (n * target_rate + audio.sample_rate // 2) // audio.sample_rate
    g = math.gcd(audio.sample_rate, target_rate)
    up, down = target_rate // g, audio.sample_rate // g
    step = audio.sample_rate / target_rate
    cutoff = min(1.0, 1.0 / step)
    radius = _SINC_ZERO_CROSSINGS / cutoff
    half = int(math.ceil(radius))
    taps = np.arange(-half, half + 1)

    # windows[0, b] holds x[b - half : b + half + 1], zero outside [0, n);
    # windows[1, b] is 1 where that tap is an input sample and 0 elsewhere
    padded = np.zeros((2, n + 2 * half))
    padded[0, half : half + n] = x
    padded[1, half : half + n] = 1.0
    windows = np.lib.stride_tricks.sliding_window_view(padded, taps.size, axis=1)

    phases = np.arange(min(up, out_len))
    table = _sinc_kernel(taps - (phases * down % up / up)[:, None], cutoff, radius)
    out = np.empty(out_len, dtype=np.float64)
    for p in phases:
        count = len(range(p, out_len, up))
        dots, weights = windows[:, p * down // up :: down][:, :count] @ table[p]
        out[p::up] = dots / weights
    return AudioBuffer(samples=out, sample_rate=target_rate)


def pad_and_segment(audio: AudioBuffer) -> list[AudioBuffer]:
    """Zero-pad to the next whole second, then split into 1 s segments."""
    _require_samples(audio)
    if audio.sample_rate != TARGET_RATE:
        raise ValueError(f"expected {TARGET_RATE} Hz audio, got {audio.sample_rate}")
    n = len(audio.samples)
    total = ((n + SEGMENT_SAMPLES - 1) // SEGMENT_SAMPLES) * SEGMENT_SAMPLES
    padded = np.zeros(total, dtype=np.float64)
    padded[:n] = audio.samples
    return [
        AudioBuffer(padded[i : i + SEGMENT_SAMPLES], TARGET_RATE)
        for i in range(0, total, SEGMENT_SAMPLES)
    ]


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters, peak 1, spanning 0 Hz to Nyquist.

    Returns an (N_MELS, FFT_SIZE // 2 + 1) matrix of weights over rfft bins.
    """
    n_bins = FFT_SIZE // 2 + 1
    bin_hz = np.arange(n_bins) * TARGET_RATE / FFT_SIZE
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(TARGET_RATE / 2), N_MELS + 2))
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz[None, :] - lower) / (center - lower)
    falling = (upper - bin_hz[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def dct_matrix(n_out: int, n_in: int) -> np.ndarray:
    """Orthonormal DCT-II basis: rows are coefficients, columns inputs."""
    j = np.arange(n_in)
    k = np.arange(n_out)[:, None]
    basis = np.cos(np.pi * (2 * j[None, :] + 1) * k / (2 * n_in)) * math.sqrt(2.0 / n_in)
    basis[0] /= math.sqrt(2.0)
    return basis


# Tables for mfcc, built once.
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / WINDOW_SAMPLES)
_MEL_T = mel_filterbank().T
_DCT_T = dct_matrix(N_MFCC, N_MELS).T


def mfcc(segment: AudioBuffer) -> np.ndarray:
    """MFCCs of one 1 s segment as an (N_MFCC, N_FRAMES) float32 matrix.

    Frame t covers samples [t * HOP_SAMPLES, t * HOP_SAMPLES + WINDOW_SAMPLES),
    so a 16000-sample segment gives exactly N_FRAMES = 98 frames.
    """
    if segment.sample_rate != TARGET_RATE:
        raise ValueError(f"segment rate {segment.sample_rate} != {TARGET_RATE}")
    if len(segment.samples) != SEGMENT_SAMPLES:
        raise ValueError(
            f"expected a 1 s segment of {SEGMENT_SAMPLES} samples, "
            f"got {len(segment.samples)}"
        )
    x = np.asarray(segment.samples, dtype=np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES]
    power = np.abs(np.fft.rfft(frames * _HANN, n=FFT_SIZE)) ** 2
    log_mel = np.log(power @ _MEL_T + LOG_FLOOR)
    coeffs = log_mel @ _DCT_T
    return np.ascontiguousarray(coeffs.T, dtype=np.float32)
