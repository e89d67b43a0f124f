"""Command line interface.

Subcommands: embed (audio to scene embeddings), train (fit the encoder on
a labeled manifest), probe (fit and score a shallow probe on saved
embeddings), inspect (summarize a weights file), interp-demo (image
downsampling comparison of the two interpolation strategies).

Exit codes: 0 success; 1 usage errors (bad flags, depth beyond the
model, a train depth above 1,024, train mask widths wider than the
feature grid, more train time masks than frames (98) or frequency masks
than coefficients (40), an interp-demo size above 4,096, an unwritable
--output or interp-demo --output-dir, a train --output ending in .opt1
or .csv, a train output, .opt1 or .csv path that is the manifest, a
negative train --seed, a train run of more than 4,294,967,295 steps,
epochs times batches per epoch, found before any WAV is decoded) and
diverged training runs (a non-finite loss, or an update that leaves a
weight non-finite); 2 weight files that are
unreadable, malformed, non-finite or inconsistent with their meta (a
meta depth above 1,024 among them), and for embed weights of another
feature geometry than the front end's or finite weights whose
embeddings overflow to NaN or Inf (nothing is written); 3 unreadable or
undecodable audio, rates below 1 kHz or above 384 kHz among it; 4
manifest problems, among them a label not below the number of entries;
5 probe data problems (non-finite embeddings, embeddings and labels
that do not line up, fewer than two classes, a label not below the
number of examples, a non-finite learning rate, more than 65,536 hidden
units, more than 4,294,967,295 epochs, a negative seed, a non-finite
loss, optimizer state or final logits).
Every command prints a single JSON line with its results. main owns the
overflow policy: overflow is reported by these checks and exit codes,
so main runs every command with numpy's overflow warnings off.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .dsp import (
    N_FRAMES,
    N_MFCC,
    TARGET_RATE,
    AudioBuffer,
    DecodeError,
    EmptyWavError,
    decode_wav,
    mfcc,
    pad_and_segment,
    resample,
)
from .encoder import (
    EncoderConfig,
    EncoderWeights,
    all_finite,
    extract_timestamps,
    init_weights,
    micro_batches,
    toeplitz_score,
)
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
from .trainer import TrainConfig, TrainingDivergedError, class_count, evaluate, train

EXIT_USAGE = 1
EXIT_WEIGHTS = 2
EXIT_AUDIO = 3
EXIT_MANIFEST = 4
EXIT_PROBE = 5

# interp-demo's largest --size. The ring image is size x size uint8, 16 MiB at
# 4,096; building it holds one size x size float64 distance array (128 MiB).
MAX_DEMO_SIZE = 4096


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


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """One --flag per field of a config dataclass, with the field's type and default."""
    for f in dataclasses.fields(cls):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _config_from_args(cls, args):
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


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

    MFCCs are computed and encoded one slice of encoder.micro_batches at a
    time, with the same bits per segment as one call each.
    Returns (n_segments, scene_dim) float32, one row per segment in order.
    """
    segments = pad_and_segment(_decode_at_model_rate(wav_bytes))
    rows = []
    for part in micro_batches(len(segments)):
        features = np.stack([mfcc(segment) for segment in segments[part]])
        for timestamps in extract_timestamps(features, weights, depth):
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
    cfg = weights.config
    if (cfg.n_mfcc, cfg.n_frames) != (N_MFCC, N_FRAMES):
        return _fail(
            EXIT_WEIGHTS,
            f"weights {args.weights} take ({cfg.n_mfcc}, {cfg.n_frames}) features; "
            f"embed computes ({N_MFCC}, {N_FRAMES})",
        )
    depth = args.depth
    if depth is not None and not 0 <= depth <= cfg.depth:
        return _fail(EXIT_USAGE, f"--depth {depth} outside [0, {cfg.depth}] for this model")
    try:
        wav_bytes = Path(args.audio).read_bytes()
        embeddings = encode_audio(wav_bytes, weights, args.algorithm, depth)
    except (OSError, DecodeError) as exc:
        return _fail(EXIT_AUDIO, f"cannot embed {args.audio}: {exc}")
    if not all_finite(embeddings):
        return _fail(
            EXIT_WEIGHTS, f"weights {args.weights} give NaN or infinite embeddings of {args.audio}"
        )
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
                "depth": cfg.depth if depth is None else depth,
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
    # labels, flags and output paths are checked before any WAV is decoded
    labels = np.array([label for _, label in entries])
    try:
        n_classes = class_count(labels)
    except ValueError as exc:
        return _fail(EXIT_MANIFEST, f"manifest {args.manifest}: {exc}")
    try:
        encoder_config = EncoderConfig(depth=args.depth, n_classes=n_classes)
        train_config = _config_from_args(TrainConfig, args)
        train_config.check_mask_widths(encoder_config)
        train_config.check_step_count(len(entries))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    output = Path(args.output)
    if output.suffix.lower() in (".opt1", ".csv"):
        return _fail(
            EXIT_USAGE,
            f"cannot write {output}: train writes its .opt1 and .csv siblings, "
            "which would overwrite it",
        )
    # find an unwritable output path now, not after the whole run
    for path in (output, output.with_suffix(".opt1"), output.with_suffix(".csv")):
        try:
            is_manifest = path.samefile(args.manifest)
        except OSError:  # no file there yet
            is_manifest = False
        if is_manifest:
            return _fail(EXIT_USAGE, f"cannot write {path}: it is the manifest")
        problem = why_unwritable(path)
        if problem is not None:
            return _fail(EXIT_USAGE, f"cannot write {path}: {problem}")

    features = []
    for wav_path, _ in entries:
        try:
            audio = _decode_at_model_rate(wav_path.read_bytes())
        except (OSError, DecodeError) as exc:
            return _fail(EXIT_AUDIO, f"cannot read {wav_path}: {exc}")
        # training examples are single 1 s segments; whole files are
        # represented by their first second
        features.append(mfcc(pad_and_segment(audio)[0]))
    features = np.stack(features)
    weights = init_weights(encoder_config, seed=train_config.seed)
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
    # an overflowed AdamW moment stalls its tensor's updates but leaves the weights finite
    stalled = [name for name, x in result.state.items() if not all_finite(x)]
    if stalled:
        print(
            f"warning: AdamW state holds {len(stalled)} non-finite tensors: {', '.join(stalled)}",
            file=sys.stderr,
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
        probe = train_probe(embeddings, labels, _config_from_args(ProbeConfig, args))
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
                **dataclasses.asdict(cfg),
                "parameter_count": weights.parameter_count(),
                "gate_toeplitz": gates,
            }
        )
    )
    return 0


def _ring_image(size: int) -> np.ndarray:
    """A one-pixel-wide white (255) circle on black, radius 0.4 * size, as uint8."""
    center = (size - 1) / 2.0
    radius = 0.4 * size
    coords = np.arange(size) - center
    dist = np.hypot(coords[:, None], coords[None, :])
    dist -= radius
    np.absolute(dist, out=dist)
    ring = (dist <= 0.5).view(np.uint8)
    ring *= 255
    return ring


def cmd_interp_demo(args) -> int:
    size, target = args.size, args.target
    if not 2 <= size <= MAX_DEMO_SIZE or not 1 <= target <= size:
        return _fail(EXIT_USAGE, f"need 2 <= size <= {MAX_DEMO_SIZE} and 1 <= target <= size")
    image = _ring_image(size)
    direct = linear_interp_time(linear_interp_time(image, target).T, target).T
    iterative = reduce_iterative(reduce_iterative(image, target).T, target).T
    out_dir = Path(args.output_dir)
    images = (("direct", direct), ("iterative", iterative))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for mode, array in images:
            pixels = np.round(np.clip(array, 0.0, 255.0)).astype(np.uint8)
            write_pgm(out_dir / f"{mode}.pgm", pixels)
    except OSError as exc:
        return _fail(EXIT_USAGE, f"cannot write {out_dir}: {exc}")
    for mode, array in images:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones.

    argparse does not change a parser while it parses, so every main()
    call in a process can reuse it; building it anew cost more than
    parsing an embed command line.
    """
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
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("probe", help="fit a shallow probe on saved embeddings")
    p.add_argument("--embeddings", required=True, help="EMB1 file, one row per example")
    p.add_argument("--labels", required=True, help="text file, one integer label per line")
    _add_config_flags(p, ProbeConfig)
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
    # finite inputs can overflow in the encoder, the trainer and the probe; the
    # commands' finiteness checks report it, and a RuntimeWarning would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
