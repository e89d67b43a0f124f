"""Ablation harness: reduction algorithm x extraction depth accuracy grid.

Runs a self-contained experiment, no external data: synthetic tone clips
are embedded with a seeded random-init encoder at several depths, reduced
with each scene algorithm, and scored with a linear probe per cell. The
result is one JSON table. Run as `python -m audiomlp.ablation`.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dsp import AudioBuffer, mfcc
from .encoder import EncoderConfig, extract_timestamps, init_weights
from .formats import why_unwritable, write_file_atomic
from .probe import ProbeConfig, evaluate_probe, train_probe
from .scene import ALGORITHMS, scene_embedding

DEPTHS = (4, 8, 12)
TONE_HZ = (250.0, 500.0, 1000.0, 2000.0)


def synthetic_features(seed: int, clips_per_class: int) -> tuple[np.ndarray, np.ndarray]:
    """MFCC features for tone clips: one class per base frequency.

    Each clip is a 1 s sine at the class frequency detuned by up to 5%,
    with random phase and a little noise, so clips within a class differ.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(16000) / 16000.0
    features, labels = [], []
    for label, base_hz in enumerate(TONE_HZ):
        for _ in range(clips_per_class):
            hz = base_hz * rng.uniform(0.95, 1.05)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            clip = 0.5 * np.sin(2.0 * np.pi * hz * t + phase)
            clip += 0.01 * rng.standard_normal(16000)
            features.append(mfcc(AudioBuffer(clip, 16000)))
            labels.append(label)
    return np.stack(features), np.array(labels)


def run_grid(seed: int = 0, clips_per_class: int = 15, probe_epochs: int = 200) -> dict:
    features, labels = synthetic_features(seed, clips_per_class)
    weights = init_weights(EncoderConfig(), seed=seed)
    results = []
    for depth in DEPTHS:
        timestamps = extract_timestamps(features, weights, depth)
        for algorithm in ALGORITHMS:
            embeddings = np.stack([scene_embedding(ts, algorithm) for ts in timestamps])
            probe = train_probe(
                embeddings, labels, ProbeConfig(epochs=probe_epochs, seed=seed)
            )
            accuracy = evaluate_probe(embeddings, labels, probe)
            results.append({"algorithm": algorithm, "depth": depth, "accuracy": accuracy})
    return {
        "task": "synthetic-tones",
        "seed": seed,
        "clips_per_class": clips_per_class,
        "classes": len(TONE_HZ),
        "depths": list(DEPTHS),
        "algorithms": list(ALGORITHMS),
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="audiomlp.ablation", description="scene-algorithm x depth accuracy grid"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clips-per-class", type=int, default=15)
    parser.add_argument("--probe-epochs", type=int, default=200)
    parser.add_argument("--output", default=None, help="also write the JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.clips_per_class < 1 or args.probe_epochs < 1:
        print(
            "error: need --seed >= 0, --clips-per-class >= 1 and --probe-epochs >= 1",
            file=sys.stderr,
        )
        return 1
    # find an unwritable output now, not after the whole grid
    problem = args.output and why_unwritable(args.output)
    if problem:
        print(f"error: cannot write {args.output}: {problem}", file=sys.stderr)
        return 1
    table = run_grid(args.seed, args.clips_per_class, args.probe_epochs)
    text = json.dumps(table)
    if args.output:
        try:
            write_file_atomic(args.output, (text + "\n").encode("ascii"))
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
