"""Fuzz the CLI's input contract through main().

embed gets generated WAV headers (rate, channels, bits, codec, chunk
sizes) and byte-mutated KWM1 weights; probe gets byte-mutated EMB1 files
and generated label files. The cases are drawn by hypothesis,
derandomized, and all run in one child process under a 1.5 GiB address
space cap, so an input that makes the CLI allocate without bound ends in
that child. For every case the exit code is one of the documented 0-5,
stderr holds no traceback, a success prints exactly one JSON line, and
every file written holds only finite values.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from audiomlp.encoder import EncoderConfig, init_weights
from audiomlp.formats import load_embeddings, save_embeddings, save_weights
from conftest import make_wav, sine_clip

# the address space cap of test_cli.main_in_capped_child
_CAP = 3 * 2**29

# Runs main() on each argv of a JSON list read from stdin, with that case's
# stdout and stderr captured, and prints [code, stdout, stderr] per case.
_CHILD = f"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, ({_CAP}, {_CAP}))
from audiomlp.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

_U32 = st.integers(0, 2**32 - 1)


@st.composite
def wav_files(draw):
    """RIFF/WAVE bytes with a drawn set of header fields set to arbitrary values.

    The other fields are those of a PCM16 or float32 file, so a case with
    few broken fields gets past the container into the decoder and resampler.
    """
    fields = ["rate", "codec", "bits", "channels", "fmt", "data", "riff"]
    broken = draw(st.sets(st.sampled_from(fields), max_size=2))
    codec, bits = draw(st.sampled_from([(1, 16), (3, 32)]))
    if "codec" in broken:
        codec = draw(st.sampled_from([0, 1, 2, 3, 0xFFFE]))
    if "bits" in broken:
        bits = draw(st.sampled_from([0, 8, 16, 24, 32]))
    channels = draw(st.integers(0, 4) | st.just(0xFFFF)) if "channels" in broken else 1
    rate = draw(st.sampled_from([8000, 16000, 22050, 44100, 48000]))
    if "rate" in broken:
        rate = draw(_U32)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", codec, channels, rate, rate * block % 2**32, block % 2**16, bits)
    fmt_size = draw(st.integers(0, 40)) if "fmt" in broken else 16
    fmt = fmt.ljust(fmt_size, b"\0")[:fmt_size] + b"\0" * (fmt_size & 1)
    n_bytes = draw(st.integers(0, 8000))
    if draw(st.booleans()):  # a tone in the declared sample format, else noise bytes
        tone = 0.5 * np.sin(0.1 * np.arange(n_bytes))
        payload = np.round(tone * 32767).astype("<i2") if bits == 16 else tone.astype("<f4")
        payload = payload.tobytes()[:n_bytes]
    else:
        payload = np.random.default_rng(draw(_U32)).bytes(n_bytes)
    data_size = draw(_U32) if "data" in broken else n_bytes
    chunks = b"fmt " + struct.pack("<I", fmt_size) + fmt
    chunks += b"data" + struct.pack("<I", data_size) + payload
    body = b"WAVE" + chunks
    riff_size = draw(_U32) if "riff" in broken else len(body)
    return b"RIFF" + struct.pack("<I", riff_size) + body


def mutated(original: bytes, header_bytes: int):
    """original with one to four bytes overwritten, half of them in its header, then maybe cut."""
    offsets = st.integers(0, header_bytes - 1) | st.integers(0, len(original) - 1)

    def apply(edits, cut):
        data = bytearray(original)
        for offset, value in edits:
            data[offset] = value
        return bytes(data[:cut])

    edits = st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1, max_size=4)
    return st.builds(apply, edits, st.none() | st.integers(0, len(original)))


label_files = st.builds(
    lambda tokens, sep: sep.join(map(str, tokens)),
    st.lists(st.integers(0, 2), min_size=6, max_size=6)
    | st.lists(
        st.integers(-3, 8)
        | st.integers(-(2**70), 2**70)
        | st.sampled_from(["x", "1.5", "0x1", "１", "-", "1e3"]),
        max_size=10,
    ),
    st.sampled_from(["\n", " ", "\t", "\r\n"]),
)


def draw_all(strategy, n: int) -> list:
    """n derandomized draws of strategy, collected to run in one batch."""
    drawn = []

    @settings(
        max_examples=n, derandomize=True, database=None, deadline=None,
        phases=[Phase.generate], suppress_health_check=list(HealthCheck),
    )
    @given(strategy)
    def collect(value):
        drawn.append(value)

    collect()
    return drawn


def run_in_capped_child(argvs, cwd):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run(
        [sys.executable, "-c", _CHILD], input=json.dumps(argvs),
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def written_values(path) -> np.ndarray:
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", ndmin=2)
    return load_embeddings(path)  # raises on NaN or Inf


def test_embed_and_probe_keep_their_exit_code_contract(tmp_path):
    # a small model of the front end's feature geometry, so embed runs it
    weights = init_weights(EncoderConfig(dim=4, hidden_dim=8, depth=2, n_classes=3), seed=0)
    save_weights(tmp_path / "good.kwm1", weights)
    (tmp_path / "good.wav").write_bytes(make_wav(sine_clip(440.0, seconds=0.5)))
    save_embeddings(tmp_path / "good.emb1", np.random.default_rng(3).standard_normal((6, 8)))
    (tmp_path / "good.txt").write_text("0\n1\n0\n1\n0\n1\n")

    cases = []  # (argv, the file it may write)
    # one header claims 1 Hz: past the rate floor, its 40 KB would resample to 2.4 GiB
    wavs = draw_all(wav_files(), 90) + [make_wav(sine_clip(440.0, seconds=1.25), rate=1)]
    for i, wav in enumerate(wavs):
        (tmp_path / f"{i}.wav").write_bytes(wav)
        fmt = ("emb1", "csv")[i % 2]
        out = tmp_path / f"wav{i}.{fmt}"
        argv = ["embed", f"{i}.wav", "--weights", "good.kwm1", "--output", out.name]
        cases.append((argv + ["--format", fmt], out))
    kwm1 = (tmp_path / "good.kwm1").read_bytes()
    for i, data in enumerate(draw_all(mutated(kwm1, 64), 50)):
        (tmp_path / f"{i}.kwm1").write_bytes(data)
        out = tmp_path / f"kwm{i}.emb1"
        cases.append((["embed", "good.wav", "--weights", f"{i}.kwm1", "--output", out.name], out))
    emb1 = (tmp_path / "good.emb1").read_bytes()
    for i, data in enumerate(draw_all(mutated(emb1, 12), 30)):
        (tmp_path / f"{i}.emb1").write_bytes(data)
        cases.append((["probe", "--embeddings", f"{i}.emb1", "--labels", "good.txt"], None))
    for i, text in enumerate(draw_all(label_files, 30)):
        (tmp_path / f"{i}.txt").write_text(text)
        cases.append((["probe", "--embeddings", "good.emb1", "--labels", f"{i}.txt"], None))

    results = run_in_capped_child([argv for argv, _ in cases], tmp_path)
    assert len(results) == len(cases)
    for (argv, out), (code, stdout, stderr) in zip(cases, results):
        assert "Traceback" not in stderr, (argv, stderr)
        assert code in range(6), (argv, code, stderr)
        if code == 0:
            lines = stdout.splitlines()
            assert len(lines) == 1, (argv, stdout)
            json.loads(lines[0])
        if out is not None and out.exists():
            assert np.isfinite(written_values(out)).all(), argv
