"""Seeded input generator for the benchmark workloads.

Everything a workload reads is written here, before any workload process
starts: WAV clips, the train manifest, the probe labels, a KWM1 weights
file and a plan (plan.json) that lists the operations in order. The same
seed always gives the same files.

A workload is a sequence of *rounds*. Every round holds the same clip
lengths, rates, reductions and output formats in the same order; the
seed only picks the signals and small length jitters that never change a
clip's segment count. So the work per round is the same for every seed,
and run-to-run spread measures the machine, not the draw. The order is
fixed because a clip's latency depends on the clip before it (allocator
and cache state): after a 2 s clip at 48 kHz a 4 s clip at 44.1 kHz took
about 15% longer than after a 2 s clip at 44.1 kHz, so a seeded order
moved the 90th percentile from seed to seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

CLASSES = ("sine", "chirp", "noise", "am")

# One round of an embed workload, in order: (rate, nominal seconds,
# reduction, format) per clip. The mix puts the median and the 90th
# percentile of clip latency inside a class of identical clips, so a
# percentile never sits on the step between two clip sizes, and the order
# gives every clip of those classes the same kind of predecessor.
# embed-resample: stereo PCM16, 16 of 20 clips at 44.1 kHz, the rest at
# 48, 22.05 and 8 kHz. Median: a 1.5 s clip at 44.1 kHz; 90th percentile:
# a 2 s one, each after a 1.5 s one; a single 4 s clip lies above it.
# Clips of 3-4 s at 44.1 kHz spread about twice as much from run to run as
# clips of 1-2 s (their resampling temporaries, 18-24 MB each, do not stay
# in the cache a shared host leaves them), so no percentile rests on them.
_SHORTER = [(22050, 1.5), (48000, 1), (44100, 1), (8000, 3), (48000, 1), (44100, 1)]
RESAMPLE_ROUND = [
    (rate, s, "iterative", "emb1")
    for rate, s in [c for short in _SHORTER for c in (short, (44100, 1.5), (44100, 2))]
    + [(44100, 1.5), (44100, 4)]
]
# embed-native: mono float32 at 16 kHz; 14 of 20 are 1 s keyword-style
# clips and 6 are 2-10 s; reductions cycle; 5 of 20 are written as CSV.
# Two 1 s clips come before each long one. Median: a 1 s EMB1 clip; 90th
# percentile: a 6 s EMB1 clip, each after a 1 s EMB1 clip.
_ALGOS = ("mean", "single", "iterative")
_SHORT = [(16000, 1, _ALGOS[i % 3], "csv" if i in (5, 11) else "emb1") for i in range(14)]
_LONG = [
    (16000, s, algorithm, "csv" if s in (2, 4, 10) else "emb1")
    for s, algorithm in ((6, "iterative"), (6, "mean"), (2, "mean"), (6, "single"),
                         (4, "single"), (10, "iterative"))
]
NATIVE_ROUND = [clip for k in range(7) for clip in _SHORT[2 * k : 2 * k + 2] + _LONG[k : k + 1]]
CLIP_FORMAT = {"embed-resample": (2, "pcm16"), "embed-native": (1, "float32")}
JITTER_S = 0.1  # clips are shortened by up to this much; segment counts stay ceil(nominal)

TRAIN_EXAMPLES = 72  # one full batch of 64 plus a ragged batch of 8
TRAIN_ARGS = [
    "--depth", "12", "--batch-size", "64", "--epochs", "1", "--warmup-epochs", "0",
    "--survival", "0.9", "--label-smoothing", "0.1",
]

POOL_ROUNDS = 2  # distinct rounds generated; the loop cycles through them
MIN_CLIPS = 100  # a p90 needs ten samples beyond it

TOY = {
    "embed-resample": [(r, s, "iterative", "emb1") for r, s in ((44100, 1), (48000, 1), (22050, 1.5), (8000, 1))],
    "embed-native": [(16000, 1, "mean", "emb1"), (16000, 1, "single", "csv"), (16000, 2, "iterative", "emb1")],
    "train_examples": 10,
    "train_args": [
        "--depth", "12", "--batch-size", "8", "--epochs", "1", "--warmup-epochs", "0",
        "--survival", "0.9", "--label-smoothing", "0.1",
    ],
}


def synth(kind: str, n: int, rate: int, rng: np.random.Generator) -> np.ndarray:
    """One mono signal in [-1, 1] of n samples; frequencies stay below 0.4 * rate."""
    t = np.arange(n) / rate
    top = min(4000.0, 0.4 * rate)
    amp = rng.uniform(0.3, 0.6)
    if kind == "sine":
        return amp * np.sin(2 * np.pi * rng.uniform(200.0, top) * t + rng.uniform(0, 2 * np.pi))
    if kind == "chirp":
        f0, f1 = rng.uniform(100.0, top, size=2)
        duration = n / rate
        return amp * np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t * t / (2 * duration)))
    if kind == "noise":
        return np.clip(rng.standard_normal(n) * amp / 3, -1.0, 1.0)
    if kind == "am":
        carrier = np.sin(2 * np.pi * rng.uniform(200.0, top) * t)
        return amp * carrier * (0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(2.0, 8.0) * t))
    raise ValueError(f"unknown signal kind {kind!r}")


def write_wav(path: Path, frames: np.ndarray, rate: int, encoding: str) -> None:
    """RIFF/WAVE writer: frames is (samples, channels) in [-1, 1]."""
    channels = frames.shape[1]
    if encoding == "pcm16":
        code, width = 1, 2
        payload = np.round(np.clip(frames, -1.0, 1.0) * 32767).astype("<i2").tobytes()
    elif encoding == "float32":
        code, width = 3, 4
        payload = frames.astype("<f4").tobytes()
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    fmt = (
        code.to_bytes(2, "little")
        + channels.to_bytes(2, "little")
        + rate.to_bytes(4, "little")
        + (rate * channels * width).to_bytes(4, "little")
        + (channels * width).to_bytes(2, "little")
        + (8 * width).to_bytes(2, "little")
    )
    body = b"WAVE" + b"fmt " + len(fmt).to_bytes(4, "little") + fmt
    body += b"data" + len(payload).to_bytes(4, "little") + payload
    path.write_bytes(b"RIFF" + len(body).to_bytes(4, "little") + body)


def _clip(path, kind, seconds, rate, channels, encoding, rng):
    n = int(round(seconds * rate))
    mono = synth(kind, n, rate, rng)
    if channels == 2:
        # the right channel is a quieter, slightly noisy copy
        frames = np.stack([mono, 0.8 * mono + 0.01 * rng.standard_normal(n)], axis=1)
    else:
        frames = mono[:, None]
    write_wav(path, frames, rate, encoding)
    return n / rate


def _kinds(count, rng):
    """Balanced class labels in a seeded order."""
    return rng.permutation(np.arange(count) % len(CLASSES)).tolist()


def _pool(work, template, channels, encoding, rng):
    """POOL_ROUNDS rounds, each the template's clips in the template's order."""
    clips = []
    for r in range(POOL_ROUNDS):
        labels = _kinds(len(template), rng)
        for pos, (rate, nominal, algorithm, fmt) in enumerate(template):
            seconds = nominal - JITTER_S * rng.random()
            path = work / f"c{r}_{pos:02d}_{rate}.wav"
            duration = _clip(path, CLASSES[labels[pos]], seconds, rate, channels, encoding, rng)
            clips.append(dict(path=path.name, duration=duration, label=labels[pos],
                              rate=rate, algorithm=algorithm, format=fmt))
    return clips


def _manifest(work, name, count, rng):
    lines = []
    for i, label in enumerate(_kinds(count, rng)):
        path = work / f"{name}_{i:03d}.wav"
        _clip(path, CLASSES[label], 1.0, 16000, 1, "pcm16", rng)
        lines.append(f"{path.name}\t{label}")
    (work / f"{name}.tsv").write_text("\n".join(lines) + "\n")
    return f"{name}.tsv"


def generate(workload: str, seed: int, work: Path, toy: bool = False) -> dict:
    """Write every input of one workload run into work/ and return the plan."""
    from audiomlp.encoder import EncoderConfig, init_weights
    from audiomlp.formats import save_weights

    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(workload.encode())])
    save_weights(work / "model.kwm1", init_weights(EncoderConfig(), seed))
    plan = dict(workload=workload, seed=seed, toy=toy, weights="model.kwm1")
    if workload in CLIP_FORMAT:
        template = TOY[workload] if toy else (
            RESAMPLE_ROUND if workload == "embed-resample" else NATIVE_ROUND
        )
        channels, encoding = CLIP_FORMAT[workload]
        plan["clips"] = _pool(work, template, channels, encoding, rng)
        plan["round_size"] = len(template)
        plan["min_clips"] = len(plan["clips"]) if toy else MIN_CLIPS
        _clip(work / "warmup.wav", "sine", 1.0, template[0][0], channels, encoding, rng)
    elif workload == "train":
        count = TOY["train_examples"] if toy else TRAIN_EXAMPLES
        plan["manifest"] = _manifest(work, "train", count, rng)
        plan["examples"] = count
        plan["train_args"] = (TOY["train_args"] if toy else TRAIN_ARGS) + ["--seed", str(seed)]
        plan["warmup_manifest"] = _manifest(work, "warmup", 8, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "embed-native":
        labels = [c["label"] for c in plan["clips"] for _ in range(math.ceil(c["duration"]))]
        (work / "probe_labels.txt").write_text("\n".join(map(str, labels)) + "\n")
        plan["probe_labels"] = "probe_labels.txt"
    (work / "plan.json").write_text(json.dumps(plan, indent=1))
    return plan
