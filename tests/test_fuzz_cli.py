"""Fuzz the CLI's input contract through main().

embed gets generated WAV headers (rate, channels, bits, codec, chunk
sizes) and byte-mutated KWM1 weights; probe gets byte-mutated EMB1 files
and generated label files; train gets generated manifests, output paths
and TrainConfig flags. The cases are drawn by hypothesis, derandomized,
and each test runs all of its cases in one child process under a 1.5
GiB address space cap, so an input that makes the CLI allocate without
bound ends in that child. For every case the exit code is one of the
documented 0-5, stderr holds no traceback, a success prints exactly one
JSON line, and every file written holds only finite values, but for an
OPT1 whose non-finite tensors train's one warning: line names. No train
call overwrites its manifest, and one that fails writes no KWM1 or OPT1.
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
from audiomlp.formats import (
    load_embeddings,
    load_optimizer_state,
    load_weights,
    save_embeddings,
    save_weights,
)
from conftest import make_wav, noise_clip, sine_clip

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
    # One header claims 1 Hz: past the rate floor, its 40 KB would resample to
    # 2.4 GiB. Rates that share no factor with 16 kHz make resample run 16,000
    # kernel phases: 1 s at 2,000,003 Hz (4 MB) is past the rate ceiling and
    # exits 3; 1 s at 383,987 Hz, the slowest rate below it, embeds.
    wavs = draw_all(wav_files(), 90) + [
        make_wav(sine_clip(440.0, seconds=1.25), rate=1),
        make_wav(sine_clip(440.0, rate=2_000_003), rate=2_000_003),
        make_wav(sine_clip(440.0, rate=383_987), rate=383_987),
    ]
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
    above, worst = results[len(wavs) - 2], results[len(wavs) - 1]
    assert above[0] == 3 and "above the 384000 Hz ceiling" in above[2], above
    assert worst[0] == 0, worst
    for (argv, out), (code, stdout, stderr) in zip(cases, results):
        assert "Traceback" not in stderr, (argv, stderr)
        assert code in range(6), (argv, code, stderr)
        if code == 0:
            lines = stdout.splitlines()
            assert len(lines) == 1, (argv, stdout)
            json.loads(lines[0])
        if out is not None and out.exists():
            assert np.isfinite(written_values(out)).all(), argv


# Manifests point at files beside the case directories: the three decodable
# clips in _WAVS (16 kHz tone, 16 kHz noise, 22.05 kHz stereo) and, among the
# fault lines, a file that is not a WAV and one that does not exist.
_WAVS = ["../c0.wav", "../c1.wav", "../c2.wav"]
_FAULTS = [
    b"", b"   ", b"# comment", b"no tab", b"\t0", b"\xff\t0", b"../bad.wav\t0", b"missing.wav\t1",
    b"../c0.wav\tx", b"../c0.wav\t1.5", b"../c0.wav\t", b"../c0.wav\t" + b"1" * 5000,
    b"a" * 5000 + b".wav\t0",
]
# labels that are negative or not below the number of entries
_BAD_LABELS = [-1, 6, 10**9, 2**63, 2**70]


@st.composite
def manifests(draw):
    """Two to six lines of the clips in _WAVS (paths may repeat), labelled
    0 to classes - 1 in turn for 1, 2 or 3 classes, and at most one fault line.
    """
    wavs = draw(st.lists(st.sampled_from(_WAVS), min_size=2, max_size=6))
    classes = draw(st.sampled_from([2, 3, 1]))
    lines = [f"{wav}\t{i % classes}".encode() for i, wav in enumerate(wavs)]
    bad_label = st.builds("../c1.wav\t{}".format, st.sampled_from(_BAD_LABELS)).map(str.encode)
    fault = draw(st.none() | bad_label | st.sampled_from(_FAULTS))
    if fault is not None:
        lines.insert(draw(st.integers(0, len(lines))), fault)
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


# (manifest name, --output): the output, its .opt1 or its .csv sibling may
# be the manifest
output_layouts = st.just(("train.tsv", "model.kwm1")) | st.sampled_from(
    [("train.tsv", "model"), ("train.tsv", "nodir/model.kwm1"), ("train.tsv", "model.OPT1"),
     ("model.kwm1", "model.kwm1"), ("model.opt1", "model.kwm1"), ("model.csv", "model")]
)
# every epoch count is small or past the optimizer's step bound
_FLAG_VALUES = {
    "--depth": ["1"] * 4 + ["0", "1025"],
    "--epochs": ["1", "2", "0", "-1", str(2**32)],
    "--batch-size": ["1", "2", "3", "0", str(2**70)],
    "--peak-lr": ["1e-3", "0.1", "1e38", "0", "nan", "inf"],
    "--warmup-epochs": ["0", "1", "3", "-1"],
    "--weight-decay": ["0", "0.1", "1e300", "-1", "nan"],
    "--label-smoothing": ["0", "0.5", "0.99", "1", "-0.1"],
    "--survival": ["1", "0.5", "1e-9", "0", "1.5"],
    "--time-masks": ["0", "2", "98", "99"],
    "--time-mask-width": ["0", "25", "98", "99"],
    "--freq-masks": ["0", "2", "40", "41"],
    "--freq-mask-width": ["0", "7", "40", "41"],
    "--seed": ["0", "7", "-1", str(2**70)],
}
train_flags = st.dictionaries(
    st.sampled_from(sorted(_FLAG_VALUES)), st.just(None), max_size=3
).flatmap(lambda keys: st.fixed_dictionaries({k: st.sampled_from(_FLAG_VALUES[k]) for k in keys}))


def test_train_keeps_its_exit_code_contract(tmp_path):
    (tmp_path / "c0.wav").write_bytes(make_wav(sine_clip(440.0, seconds=0.25)))
    (tmp_path / "c1.wav").write_bytes(make_wav(noise_clip(np.random.default_rng(0), seconds=0.5)))
    stereo = np.stack([sine_clip(300.0, 22050, 0.3), sine_clip(500.0, 22050, 0.3)], axis=1)
    (tmp_path / "c2.wav").write_bytes(make_wav(stereo, rate=22050))
    (tmp_path / "bad.wav").write_bytes(b"RIFF\0\0\0\0WAVEnot a chunk")

    cases = draw_all(st.tuples(manifests(), output_layouts, train_flags), 100)
    good = b"../c0.wav\t0\n../c1.wav\t1\n../c2.wav\t0\n"
    cases += [
        # AdamW's second moment overflows at depth 12: a success with a warning
        (good, ("train.tsv", "model.kwm1"), {"--depth": "12"}),
        (good + b"../c0.wav\t1000000000\n", ("train.tsv", "model.kwm1"), {}),
        (good, ("model.csv", "model.kwm1"), {}),
    ]
    argvs, before = [], []
    for i, (manifest, (manifest_name, output), flags) in enumerate(cases):
        case = tmp_path / f"case{i}"
        case.mkdir()
        (case / manifest_name).write_bytes(manifest)
        before.append(manifest)
        argv = ["train", "--manifest", f"{case.name}/{manifest_name}", "--output",
                f"{case.name}/{output}", "--depth", "1", "--epochs", "1", "--warmup-epochs", "0"]
        argvs.append(argv + [item for flag in flags.items() for item in flag])

    results = run_in_capped_child(argvs, tmp_path)
    assert len(results) == len(cases)
    warned, huge_label, csv_is_manifest = results[-3:]
    assert warned[0] == 0 and warned[2].startswith("warning: AdamW state holds"), warned
    assert huge_label[0] == 4 and "largest label 1000000000" in huge_label[2], huge_label
    assert csv_is_manifest[0] == 1 and "it is the manifest" in csv_is_manifest[2], csv_is_manifest
    succeeded = 0
    for i, ((_, (manifest_name, output), _), argv, result) in enumerate(zip(cases, argvs, results)):
        code, stdout, stderr = result
        assert "Traceback" not in stderr, (argv, stderr)
        assert code in range(6), (argv, code, stderr)
        manifest, out = tmp_path / f"case{i}" / manifest_name, tmp_path / f"case{i}" / output
        assert manifest.read_bytes() == before[i], argv  # the input is never overwritten
        kwm1, opt1, csv = out, out.with_suffix(".opt1"), out.with_suffix(".csv")
        if code != 0:
            for path in (kwm1, opt1):
                assert not path.exists() or path.samefile(manifest), (argv, path)
            continue
        succeeded += 1
        lines = stdout.splitlines()
        assert len(lines) == 1, (argv, stdout)
        json.loads(lines[0])
        weights = load_weights(kwm1)
        assert np.isfinite(np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)[:, 3]).all(), argv
        state = load_optimizer_state(opt1, weights)
        stalled = [name for name, x in state.items() if not np.isfinite(x).all()]
        warning = f"warning: AdamW state holds {len(stalled)} non-finite tensors: "
        assert stderr == (warning + ", ".join(stalled) + "\n" if stalled else ""), (argv, stderr)
    assert succeeded >= 10, succeeded
