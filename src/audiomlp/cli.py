"""Command line interface.

Subcommands: embed (audio to scene embeddings), train (fit the encoder on
a labeled manifest), probe (fit and score a shallow probe on saved
embeddings), inspect (summarize a weights file), interp-demo (image
downsampling comparison of the two interpolation strategies).

Exit codes: 0 success, 1 usage errors (bad flags, depth beyond the
model, an unwritable --output, a train --output ending in .opt1 or .csv)
and training runs whose loss diverges, 2 unreadable, malformed or
non-finite weight files, 3 unreadable or undecodable audio, 4 manifest
problems, 5 probe data problems (embeddings/labels that do not line up,
or fewer than two classes).
Every command prints a single JSON line with its results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .dsp import (
    TARGET_RATE,
    AudioBuffer,
    DecodeError,
    EmptyWavError,
    decode_wav,
    mfcc,
    pad_and_segment,
    resample,
)
from .encoder import EncoderConfig, EncoderWeights, extract_timestamps, init_weights, toeplitz_score
from .formats import (
    FormatError,
    ManifestError,
    format_embeddings_csv,
    load_embeddings,
    load_manifest,
    load_weights,
    save_embeddings,
    save_optimizer_state,
    save_weights,
    why_unwritable,
    write_file_atomic,
    write_pgm,
)
from .probe import ProbeConfig, evaluate_probe, train_probe
from .scene import ALGORITHMS, linear_interp_time, reduce_iterative, scene_embedding
from .trainer import TrainConfig, TrainingDivergedError, evaluate, train

EXIT_USAGE = 1
EXIT_WEIGHTS = 2
EXIT_AUDIO = 3
EXIT_MANIFEST = 4
EXIT_PROBE = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; this CLI reserves 2 for weight
    file problems, so usage failures are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _decode_at_model_rate(wav_bytes: bytes) -> AudioBuffer:
    """Decode and resample to 16 kHz; EmptyWavError if no sample is left."""
    audio = decode_wav(wav_bytes)
    if audio.sample_rate != TARGET_RATE:
        audio = resample(audio, TARGET_RATE)
        if len(audio.samples) == 0:
            raise EmptyWavError(f"audio too short for one sample at {TARGET_RATE} Hz")
    return audio


def encode_audio(
    wav_bytes: bytes,
    weights: EncoderWeights,
    algorithm: str = "iterative",
    depth: int | None = None,
) -> np.ndarray:
    """Decode, resample to 16 kHz, segment, and embed each 1 s segment.

    Returns (n_segments, scene_dim) float32, one row per segment in order.
    """
    audio = _decode_at_model_rate(wav_bytes)
    rows = []
    for segment in pad_and_segment(audio):
        timestamps = extract_timestamps(mfcc(segment), weights, depth)
        rows.append(scene_embedding(timestamps, algorithm))
    return np.stack(rows)


def _load_weights_cmd(path: str) -> EncoderWeights:
    try:
        return load_weights(path)
    except (FormatError, OSError) as exc:
        raise FormatError(f"cannot load weights {path}: {exc}") from exc


def cmd_embed(args) -> int:
    try:
        weights = _load_weights_cmd(args.weights)
    except FormatError as exc:
        return _fail(EXIT_WEIGHTS, str(exc))
    depth = args.depth
    if depth is not None and not 0 <= depth <= weights.config.depth:
        return _fail(
            EXIT_USAGE, f"--depth {depth} outside [0, {weights.config.depth}] for this model"
        )
    try:
        wav_bytes = Path(args.audio).read_bytes()
        embeddings = encode_audio(wav_bytes, weights, args.algorithm, depth)
    except (OSError, DecodeError) as exc:
        return _fail(EXIT_AUDIO, f"cannot embed {args.audio}: {exc}")
    try:
        if args.format == "csv":
            write_file_atomic(args.output, format_embeddings_csv(embeddings).encode("ascii"))
        else:
            save_embeddings(args.output, embeddings)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {args.output}: {exc}")
    print(
        json.dumps(
            {
                "segments": int(embeddings.shape[0]),
                "dim": int(embeddings.shape[1]),
                "algorithm": args.algorithm,
                "depth": weights.config.depth if depth is None else depth,
                "output": str(args.output),
            }
        )
    )
    return 0


def cmd_train(args) -> int:
    try:
        entries = load_manifest(args.manifest)
    except (ManifestError, OSError) as exc:
        return _fail(EXIT_MANIFEST, f"cannot read manifest {args.manifest}: {exc}")

    features, labels = [], []
    for wav_path, label in entries:
        try:
            audio = _decode_at_model_rate(wav_path.read_bytes())
        except (OSError, DecodeError) as exc:
            return _fail(EXIT_AUDIO, f"cannot read {wav_path}: {exc}")
        # training examples are single 1 s segments; whole files are
        # represented by their first second
        features.append(mfcc(pad_and_segment(audio)[0]))
        labels.append(label)
    labels = np.array(labels)
    n_classes = int(labels.max()) + 1
    if len(np.unique(labels)) < 2:
        return _fail(EXIT_MANIFEST, "manifest needs at least two distinct labels")
    features = np.stack(features)

    try:
        encoder_config = EncoderConfig(depth=args.depth, n_classes=n_classes)
        train_config = TrainConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            peak_lr=args.peak_lr,
            warmup_epochs=args.warmup_epochs,
            weight_decay=args.weight_decay,
            label_smoothing=args.label_smoothing,
            survival=args.survival,
            time_masks=args.time_masks,
            time_mask_width=args.time_mask_width,
            freq_masks=args.freq_masks,
            freq_mask_width=args.freq_mask_width,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    weights = init_weights(encoder_config, seed=args.seed)
    output = Path(args.output)
    if output.suffix.lower() in (".opt1", ".csv"):
        return _fail(
            EXIT_USAGE,
            f"cannot write {output}: train writes its .opt1 and .csv siblings, "
            "which would overwrite it",
        )
    # find an unwritable weights path now, not after the whole run
    for path in (output, output.with_suffix(".opt1")):
        problem = why_unwritable(path)
        if problem is not None:
            return _fail(EXIT_USAGE, f"cannot write {path}: {problem}")
    log_path = output.with_suffix(".csv")
    try:
        log = open(log_path, "w")
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {log_path}: {exc}")
    with log:
        log.write("step,epoch,lr,loss\n")

        def on_step(record):
            log.write(f"{record.step},{record.epoch},{record.lr:.9g},{record.loss:.9g}\n")

        try:
            result = train(features, labels, weights, train_config, on_step=on_step)
        except TrainingDivergedError as exc:
            return _fail(EXIT_USAGE, str(exc))
    try:
        save_weights(output, weights)
        save_optimizer_state(output.with_suffix(".opt1"), result.state)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {output}: {exc}")
    accuracy = evaluate(features, labels, weights)
    print(
        json.dumps(
            {
                "examples": len(features),
                "classes": n_classes,
                "steps": result.steps,
                "final_loss": round(result.epoch_losses[-1], 9),
                "train_accuracy": accuracy,
                "weights": str(output),
            }
        )
    )
    return 0


def cmd_probe(args) -> int:
    try:
        embeddings = load_embeddings(args.embeddings)
    except (FormatError, OSError) as exc:
        return _fail(EXIT_PROBE, f"cannot load embeddings {args.embeddings}: {exc}")
    try:
        lines = Path(args.labels).read_text().split()
        labels = np.array([int(v) for v in lines])
    except OSError as exc:
        return _fail(EXIT_PROBE, f"cannot read labels {args.labels}: {exc}")
    except ValueError:
        return _fail(EXIT_PROBE, f"labels file {args.labels} must hold one integer per line")
    try:
        config = ProbeConfig(
            hidden_units=args.hidden_units, epochs=args.epochs, lr=args.lr, seed=args.seed
        )
        probe = train_probe(embeddings, labels, config)
    except ValueError as exc:
        return _fail(EXIT_PROBE, str(exc))
    accuracy = evaluate_probe(embeddings, labels, probe)
    print(
        json.dumps(
            {
                "task": args.task,
                "algorithm": args.algorithm,
                "depth": args.depth,
                "accuracy": accuracy,
            }
        )
    )
    return 0


def cmd_inspect(args) -> int:
    try:
        weights = _load_weights_cmd(args.weights)
    except FormatError as exc:
        return _fail(EXIT_WEIGHTS, str(exc))
    cfg = weights.config
    gates = [
        round(toeplitz_score(weights.tensors[f"block.{i}.G"]), 6) for i in range(cfg.depth)
    ]
    print(
        json.dumps(
            {
                "n_mfcc": cfg.n_mfcc,
                "n_frames": cfg.n_frames,
                "dim": cfg.dim,
                "hidden_dim": cfg.hidden_dim,
                "depth": cfg.depth,
                "n_classes": cfg.n_classes,
                "parameter_count": weights.parameter_count(),
                "gate_toeplitz": gates,
            }
        )
    )
    return 0


def _ring_image(size: int) -> np.ndarray:
    """A one-pixel-wide white (255) circle on black, radius 0.4 * size."""
    center = (size - 1) / 2.0
    radius = 0.4 * size
    coords = np.arange(size) - center
    dist = np.hypot(coords[:, None], coords[None, :])
    return np.where(np.abs(dist - radius) <= 0.5, 255.0, 0.0)


def cmd_interp_demo(args) -> int:
    size, target = args.size, args.target
    if size < 2 or target < 1 or target > size:
        return _fail(EXIT_USAGE, "need size >= 2 and 1 <= target <= size")
    image = _ring_image(size)
    direct = linear_interp_time(linear_interp_time(image, target).T, target).T
    iterative = reduce_iterative(reduce_iterative(image, target).T, target).T
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for mode, array in (("direct", direct), ("iterative", iterative)):
        write_pgm(out_dir / f"{mode}.pgm", np.round(np.clip(array, 0.0, 255.0)).astype(np.uint8))
        print(
            json.dumps(
                {
                    "size": size,
                    "target": target,
                    "mode": mode,
                    "nonzero": int((np.abs(array) > 0.05).sum()),
                }
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="audiomlp", description="All-MLP audio embedding engine")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("embed", help="embed a WAV file into scene vectors")
    p.add_argument("audio", help="input WAV (PCM16 or float32)")
    p.add_argument("--weights", required=True, help="KWM1 weights file")
    p.add_argument("--output", required=True, help="where to write embeddings")
    p.add_argument("--algorithm", choices=ALGORITHMS, default="iterative")
    p.add_argument("--depth", type=int, default=None, help="blocks to run (default: all)")
    p.add_argument("--format", choices=("emb1", "csv"), default="emb1")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train an encoder on a labeled manifest")
    p.add_argument("--manifest", required=True, help="lines of wav-path<TAB>label")
    p.add_argument("--output", required=True, help="weights file to write (.opt1/.csv siblings)")
    p.add_argument("--depth", type=int, default=EncoderConfig().depth)
    p.add_argument("--epochs", type=int, default=TrainConfig().epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig().batch_size)
    p.add_argument("--peak-lr", type=float, default=TrainConfig().peak_lr)
    p.add_argument("--warmup-epochs", type=int, default=TrainConfig().warmup_epochs)
    p.add_argument("--weight-decay", type=float, default=TrainConfig().weight_decay)
    p.add_argument("--label-smoothing", type=float, default=TrainConfig().label_smoothing)
    p.add_argument("--survival", type=float, default=TrainConfig().survival)
    p.add_argument("--time-masks", type=int, default=TrainConfig().time_masks)
    p.add_argument("--time-mask-width", type=int, default=TrainConfig().time_mask_width)
    p.add_argument("--freq-masks", type=int, default=TrainConfig().freq_masks)
    p.add_argument("--freq-mask-width", type=int, default=TrainConfig().freq_mask_width)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("probe", help="fit a shallow probe on saved embeddings")
    p.add_argument("--embeddings", required=True, help="EMB1 file, one row per example")
    p.add_argument("--labels", required=True, help="text file, one integer label per line")
    p.add_argument("--hidden-units", type=int, default=0)
    p.add_argument("--epochs", type=int, default=ProbeConfig().epochs)
    p.add_argument("--lr", type=float, default=ProbeConfig().lr)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--task", default=None, help="metadata echoed into the result line")
    p.add_argument("--algorithm", default=None, help="metadata echoed into the result line")
    p.add_argument("--depth", type=int, default=None, help="metadata echoed into the result line")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("inspect", help="summarize a weights file")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("interp-demo", help="compare direct vs iterative downsampling")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--target", type=int, default=32)
    p.add_argument("--output-dir", default=".", help="where direct.pgm/iterative.pgm go")
    p.set_defaults(func=cmd_interp_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
