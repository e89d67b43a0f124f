from __future__ import annotations

import math
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from audiomlp.dsp import (
    _SINC_ZERO_CROSSINGS,
    FFT_SIZE,
    HOP_SAMPLES,
    WINDOW_SAMPLES,
    _sinc_kernel,
    AudioBuffer,
    DecodeError,
    EmptyWavError,
    MalformedWavError,
    NonFiniteWavError,
    UnsupportedWavError,
    dct_matrix,
    decode_wav,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    pad_and_segment,
    resample,
)
from conftest import make_wav, sine_clip


class TestDecodeWav:
    def test_pcm16_exact_values(self):
        buf = decode_wav(make_wav(np.array([0.0, 0.5, -1.0, 0.25]), rate=8000))
        assert buf.sample_rate == 8000
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -1.0, 0.25])

    def test_stereo_downmix_is_mean(self):
        stereo = np.array([[0.5, -0.5], [1.0, 0.0], [-0.25, -0.75]])
        buf = decode_wav(make_wav(stereo))
        np.testing.assert_allclose(buf.samples, [0.0, 0.49998474, -0.5], atol=1e-4)

    def test_three_channel_downmix(self):
        tri = np.array([[0.25, 0.5, 0.75]])
        buf = decode_wav(make_wav(tri))
        np.testing.assert_allclose(buf.samples, [0.5], atol=1e-4)

    def test_float32_passthrough(self):
        vals = np.array([0.1, -0.9, 0.33], dtype=np.float32)
        buf = decode_wav(make_wav(vals, rate=44100, encoding="float32"))
        assert buf.sample_rate == 44100
        np.testing.assert_array_equal(buf.samples, vals.astype(np.float64))

    def test_skips_unknown_chunks_with_odd_padding(self):
        wav = bytearray(make_wav([0.5]))
        # splice a 3-byte LIST chunk (plus pad byte) between header and fmt
        extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        wav[12:12] = extra
        wav[4:8] = struct.pack("<I", int.from_bytes(wav[4:8], "little") + len(extra))
        buf = decode_wav(bytes(wav))
        np.testing.assert_array_equal(buf.samples, [0.5])

    def test_not_riff(self):
        with pytest.raises(MalformedWavError):
            decode_wav(b"OggS" + b"\x00" * 40)

    def test_too_short(self):
        with pytest.raises(MalformedWavError):
            decode_wav(b"RIFF\x00\x00")

    def test_missing_data_chunk(self):
        wav = make_wav([0.5])
        with pytest.raises(MalformedWavError):
            decode_wav(wav[: wav.index(b"data")])

    def test_truncated_data_chunk(self):
        with pytest.raises(MalformedWavError):
            decode_wav(make_wav([0.5, 0.5, 0.5])[:-2])

    def test_unsupported_codec(self):
        with pytest.raises(UnsupportedWavError):
            decode_wav(make_wav([0.5], fmt_code=2))

    def test_unsupported_bit_depth(self):
        with pytest.raises(UnsupportedWavError):
            decode_wav(make_wav([0.5], bits=8))

    def test_empty_data(self):
        with pytest.raises(EmptyWavError):
            decode_wav(make_wav(np.zeros(0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, bad):
        with pytest.raises(NonFiniteWavError):
            decode_wav(make_wav(np.array([0.5, bad, 0.25]), encoding="float32"))

    def test_zero_channels_rejected(self):
        wav = bytearray(make_wav([0.5]))
        fmt_at = bytes(wav).index(b"fmt ") + 8
        wav[fmt_at + 2 : fmt_at + 4] = b"\x00\x00"
        with pytest.raises(MalformedWavError):
            decode_wav(bytes(wav))

    def test_error_classes_share_base(self):
        for exc in (MalformedWavError, UnsupportedWavError, EmptyWavError, NonFiniteWavError):
            assert issubclass(exc, ValueError)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_decode_or_raise_decode_error(self, data):
        _assert_decodes_or_raises_decode_error(data)

    @settings(max_examples=500, deadline=None)
    @given(
        samples=st.lists(st.floats(-1.0, 1.0), max_size=12),
        channels=st.integers(1, 3),
        rate=st.sampled_from([1, 8000, 44100, 192000]),
        encoding=st.sampled_from(["pcm16", "float32"]),
        fmt_code=st.sampled_from([None, None, 2, 0xFFFE]),
        bits=st.sampled_from([None, None, 8, 24]),
        sizes=st.dictionaries(
            st.sampled_from([b"RIFF", b"fmt ", b"data"]),
            st.one_of(st.integers(0, 40), st.integers(0, 2**32 - 1)),
            max_size=3,
        ),
    )
    def test_fuzzed_chunk_sizes_decode_or_raise_decode_error(
        self, samples, channels, rate, encoding, fmt_code, bits, sizes
    ):
        frames = np.repeat(np.array(samples)[:, None], channels, axis=1)
        wav = bytearray(make_wav(frames, rate, encoding=encoding, fmt_code=fmt_code, bits=bits))
        for chunk_id, size in sizes.items():
            at = wav.index(chunk_id) + 4
            wav[at : at + 4] = struct.pack("<I", size)
        _assert_decodes_or_raises_decode_error(bytes(wav))


def _assert_decodes_or_raises_decode_error(data: bytes) -> None:
    try:
        buf = decode_wav(data)
    except DecodeError:
        return
    assert isinstance(buf, AudioBuffer)
    assert buf.samples.ndim == 1 and len(buf.samples) > 0
    assert buf.sample_rate > 0


def _direct_resample(x: np.ndarray, source: int, target: int) -> np.ndarray:
    """Oracle: one kernel evaluation per output sample, at t = j * source / target.

    Output j is the dot product of the kernel at offsets idx - t with the
    input at the taps idx around floor(t), divided by the sum of the weights
    of the taps that fall inside the input.
    """
    n = x.size
    out_len = (n * target + source // 2) // source
    step = source / target
    cutoff = min(1.0, 1.0 / step)
    radius = _SINC_ZERO_CROSSINGS / cutoff
    half = int(math.ceil(radius))
    offsets = np.arange(-half, half + 1)
    out = np.empty(out_len, dtype=np.float64)
    chunk = max(1, (1 << 22) // (2 * half + 1))
    for start in range(0, out_len, chunk):
        j = np.arange(start, min(start + chunk, out_len))
        t = j * step
        base = np.floor(t).astype(np.int64)
        idx = base[:, None] + offsets[None, :]
        weights = _sinc_kernel(idx - t[:, None], cutoff, radius)
        weights[(idx < 0) | (idx >= n)] = 0.0
        values = x[np.clip(idx, 0, n - 1)]
        out[j] = (weights * values).sum(axis=1) / weights.sum(axis=1)
    return out


class TestResample:
    def test_identity_rate_returns_copy(self):
        src = AudioBuffer(np.array([0.1, 0.2, 0.3]), 16000)
        out = resample(src, 16000)
        np.testing.assert_array_equal(out.samples, src.samples)
        out.samples[0] = 99.0
        assert src.samples[0] == 0.1

    @pytest.mark.parametrize(
        "n,source,target",
        [(16000, 16000, 8000), (16000, 22050, 16000), (441, 44100, 16000), (100, 8000, 16000)],
    )
    def test_output_length(self, n, source, target):
        out = resample(AudioBuffer(np.zeros(n), source), target)
        assert len(out.samples) == (n * target + source // 2) // source

    @pytest.mark.parametrize("source,target", [(22050, 16000), (8000, 16000), (44100, 16000)])
    def test_dc_preserved(self, source, target):
        out = resample(AudioBuffer(np.full(source, 0.625), source), target)
        assert np.max(np.abs(out.samples - 0.625)) <= 1e-12

    def test_sine_round_trip(self):
        clip = sine_clip(440.0, rate=16000)
        down = resample(AudioBuffer(clip, 16000), 8000)
        back = resample(down, 16000)
        core = slice(400, len(clip) - 400)  # skip kernel edge effects
        assert np.max(np.abs(back.samples[core] - clip[core])) < 1e-3

    def test_tone_frequency_preserved(self):
        down = resample(AudioBuffer(sine_clip(440.0, rate=16000), 16000), 8000)
        spectrum = np.abs(np.fft.rfft(down.samples))
        assert np.argmax(spectrum) == 440  # 1 Hz bins: 8000 samples at 8 kHz

    def test_above_nyquist_content_attenuated(self):
        clip = sine_clip(7000.0, rate=16000)
        down = resample(AudioBuffer(clip, 16000), 8000)
        core = down.samples[400:-400]
        rms_in = np.sqrt(np.mean(clip**2))
        assert np.sqrt(np.mean(core**2)) < 0.01 * rms_in

    def test_rejects_bad_rate_and_empty(self):
        with pytest.raises(ValueError):
            resample(AudioBuffer(np.zeros(10), 16000), 0)
        with pytest.raises(ValueError):
            resample(AudioBuffer(np.zeros(0), 16000), 8000)

    # 44101 Hz reduces to up = 16000 phases; n = 1 and n = 30 are shorter
    # than the kernel, so every output row is an edge row.
    @pytest.mark.parametrize(
        "source,target",
        [(44100, 16000), (48000, 16000), (22050, 16000), (11025, 16000),
         (8000, 16000), (44101, 16000), (16000, 8000)],
    )
    @pytest.mark.parametrize("n", [1, 30, 1000, 20011])
    def test_matches_direct_oracle(self, source, target, n):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = resample(AudioBuffer(x, source), target).samples
        expected = _direct_resample(x, source, target)
        assert got.shape == expected.shape
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        source=st.integers(1000, 200000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_oracle_at_any_rate(self, n, source, seed):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        got = resample(AudioBuffer(x, source), 16000).samples
        np.testing.assert_allclose(got, _direct_resample(x, source, 16000), rtol=0, atol=1e-9)

    def test_long_clip_memory_is_bounded(self):
        # No window is gathered per output: the work arrays are the padded
        # input, its in-range indicator and the output, so 60 s at 44.1 kHz
        # stays below three times the input's bytes (50 MB; 99 MB when each
        # output's window was gathered in chunks).
        audio = AudioBuffer(np.random.default_rng(5).uniform(-1.0, 1.0, 60 * 44100), 44100)
        tracemalloc.start()
        try:
            out = resample(audio, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.samples) == 60 * 16000
        assert peak < 3 * audio.samples.nbytes, f"peak {peak / 1e6:.1f} MB"


class TestPadAndSegment:
    def test_exact_second_untouched(self):
        clip = sine_clip(100.0)
        segs = pad_and_segment(AudioBuffer(clip, 16000))
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0].samples, clip)

    def test_just_over_a_second(self):
        clip = np.ones(16001)
        segs = pad_and_segment(AudioBuffer(clip, 16000))
        assert len(segs) == 2
        assert segs[1].samples[0] == 1.0
        assert np.count_nonzero(segs[1].samples) == 1
        assert np.count_nonzero(segs[1].samples == 0.0) == 15999

    def test_just_under_a_second(self):
        segs = pad_and_segment(AudioBuffer(np.ones(15999), 16000))
        assert len(segs) == 1
        assert segs[0].samples[-1] == 0.0
        assert segs[0].samples[15998] == 1.0

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            pad_and_segment(AudioBuffer(np.ones(8000), 8000))

    def test_all_segments_one_second(self):
        segs = pad_and_segment(AudioBuffer(np.ones(40123), 16000))
        assert [len(s.samples) for s in segs] == [16000, 16000, 16000]


class TestMelAndDct:
    def test_mel_scale_round_trip(self):
        freqs = np.array([0.0, 100.0, 440.0, 4000.0, 8000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)

    def test_mel_of_1k(self):
        # the 2595 log law is anchored near 1 kHz -> ~1000 mel
        assert abs(hz_to_mel(1000.0) - 999.99) < 0.5

    def test_filterbank_shape_and_range(self):
        fb = mel_filterbank()
        assert fb.shape == (40, 257)
        assert np.all(fb >= 0.0)
        assert np.all(fb <= 1.0 + 1e-12)
        assert np.all(fb.max(axis=1) > 0.5)

    def test_filterbank_covers_interior_bins(self):
        fb = mel_filterbank()
        coverage = fb.sum(axis=0)
        assert np.all(coverage[1:-1] > 0.0)

    def test_tone_at_center_wins_its_filter(self):
        edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(8000.0), 40 + 2))
        fb = mel_filterbank()
        for i in (5, 15, 30):
            tone = sine_clip(edges[i + 1], amp=0.9)
            frames = np.lib.stride_tricks.sliding_window_view(tone, 480)[::160]
            window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(480) / 480)
            power = np.abs(np.fft.rfft(frames * window, n=512)) ** 2
            energies = power @ fb.T
            assert np.argmax(energies.mean(axis=0)) == i

    def test_dct_orthonormal(self):
        c = dct_matrix(40, 40)
        np.testing.assert_allclose(c @ c.T, np.eye(40), atol=1e-10)

    def test_dct_matches_scipy(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(40)
        ours = dct_matrix(40, 40) @ v
        np.testing.assert_allclose(ours, scipy.fft.dct(v, type=2, norm="ortho"), atol=1e-10)

    def test_truncated_dct_rows(self):
        c = dct_matrix(13, 40)
        np.testing.assert_allclose(c, dct_matrix(40, 40)[:13], atol=0)


class TestMfccConfig:
    def test_default_geometry(self):
        assert WINDOW_SAMPLES == 480
        assert HOP_SAMPLES == 160
        assert FFT_SIZE == 512


def naive_log_mel_spectrogram(x: np.ndarray) -> np.ndarray:
    """Brute-force oracle: explicit DFT matrix, loop-built filters, loop DCT.

    The geometry is written out here (30 ms window and 10 ms hop at 16 kHz,
    512-point FFT, 40 mels, 40 coefficients) so the oracle does not share
    its settings with the code under test.
    """
    rate, win, hop, n_fft, n_mels, n_mfcc, log_floor = 16000, 480, 160, 512, 40, 40, 1e-10
    n_frames = (len(x) - win) // hop + 1
    window = np.array([0.5 - 0.5 * math.cos(2 * math.pi * i / win) for i in range(win)])
    k = np.arange(n_fft // 2 + 1)[:, None]
    i = np.arange(win)[None, :]
    cos_m = np.cos(-2 * np.pi * k * i / n_fft)
    sin_m = np.sin(-2 * np.pi * k * i / n_fft)

    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2), n_mels + 2))
    bin_hz = np.arange(n_fft // 2 + 1) * rate / n_fft
    filters = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for b, f in enumerate(bin_hz):
            if lo <= f <= mid and mid > lo:
                filters[m, b] = (f - lo) / (mid - lo)
            elif mid < f <= hi and hi > mid:
                filters[m, b] = (hi - f) / (hi - mid)

    out = np.zeros((n_mfcc, n_frames))
    for t in range(n_frames):
        frame = x[t * hop : t * hop + win] * window
        power = (cos_m @ frame) ** 2 + (sin_m @ frame) ** 2
        logmel = np.log(filters @ power + log_floor)
        for c in range(n_mfcc):
            scale = math.sqrt(1.0 / n_mels) if c == 0 else math.sqrt(2.0 / n_mels)
            out[c, t] = scale * sum(
                logmel[m] * math.cos(math.pi * (2 * m + 1) * c / (2 * n_mels))
                for m in range(n_mels)
            )
    return out


class TestMfcc:
    def test_shape_and_dtype(self):
        feats = mfcc(AudioBuffer(sine_clip(440.0), 16000))
        assert feats.shape == (40, 98)
        assert feats.dtype == np.float32

    def test_deterministic(self):
        clip = AudioBuffer(sine_clip(523.0), 16000)
        a, b = mfcc(clip), mfcc(clip)
        assert a.tobytes() == b.tobytes()

    def test_silence_hits_log_floor(self):
        feats = mfcc(AudioBuffer(np.zeros(16000), 16000))
        expected_c0 = math.log(1e-10) * math.sqrt(40.0)
        np.testing.assert_allclose(feats[0], expected_c0, rtol=1e-5)
        np.testing.assert_allclose(feats[1:], 0.0, atol=1e-4)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        clip = 0.3 * rng.standard_normal(16000) + sine_clip(880.0, amp=0.4)
        expected = naive_log_mel_spectrogram(clip)
        got = mfcc(AudioBuffer(clip, 16000))
        assert got.shape == expected.shape == (40, 98)
        assert np.max(np.abs(got - expected)) < 1e-3

    def test_rejects_wrong_rate(self):
        with pytest.raises(ValueError):
            mfcc(AudioBuffer(np.zeros(16000), 8000))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            mfcc(AudioBuffer(np.zeros(15999), 16000))
