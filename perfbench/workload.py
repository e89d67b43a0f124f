"""One workload process: set up, run the operation loop, check every output.

Run by run.py after the inputs exist; it is not meant to be called by
hand. Operations go through ``audiomlp.cli.main`` in this process, one at
a time (a closed loop with one client). Modes:

- ``setup``: import audiomlp, load the weights, make one warm-up
  operation and exit; run.py times the whole process.
- ``run``: set up, then run whole rounds until ``--seconds`` have passed
  and, for the embed workloads, at least the plan's ``min_clips`` clips
  were timed; then the probe calls (embed-native). The embed workloads
  run one untimed round before the timed ones.
- ``trace``: set up, then run a fixed amount of work three times: plain,
  with spans around every module call (spans.py), plain again. Reports
  per-layer totals of the traced pass and the tracing overhead.

The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0

# Reference tolerance. A refactor that only reorders float32 arithmetic
# moves embeddings by ~1e-6; a wrong kernel moves them by 1e-2 or more.
EMB_ATOL = 1e-4
EMB_RTOL = 1e-4
LOSS_RTOL = 1e-3  # final training loss, relative
ACCURACY_ATOL = 0.05  # probe accuracy may flip an example or two

EMBED_FIELDS = {"segments", "dim", "algorithm", "depth", "output"}
TRAIN_FIELDS = {"examples", "classes", "steps", "final_loss", "train_accuracy", "weights"}
PROBE_FIELDS = {"task", "algorithm", "depth", "accuracy"}
SCENE_DIM = 1024
DEPTH = 12
PROBE_REPEATS = 3  # the probe pair is timed this many times; the median is kept
# fixed work of one traced pass: embed rounds or train calls (embed-native
# always embeds its whole pool, which its probe calls need)
TRACE_WORK = {"embed-resample": 1, "train": 2}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_emb1(path: Path) -> np.ndarray:
    """EMB1 parser kept independent of audiomlp.formats."""
    data = path.read_bytes()
    _require(data[:4] == b"EMB1", f"{path.name}: bad EMB1 magic")
    rows, cols = np.frombuffer(data[4:12], dtype="<u4")
    _require(len(data) == 12 + 4 * int(rows) * int(cols), f"{path.name}: bad EMB1 size")
    return np.frombuffer(data[12:], dtype="<f4").reshape(int(rows), int(cols))


def write_emb1(path: Path, matrix: np.ndarray) -> None:
    rows, cols = matrix.shape
    header = b"EMB1" + np.array([rows, cols], dtype="<u4").tobytes()
    path.write_bytes(header + np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def expected_rows(clip: dict) -> int:
    """Whole seconds at 16 kHz: the resampler emits round(n * 16000 / rate) samples."""
    samples = int(round(clip["duration"] * clip["rate"]))
    return math.ceil((samples * 16000 + clip["rate"] // 2) // clip["rate"] / 16000)


class Workload:
    def __init__(self, plan: dict, work: Path):
        self.plan = plan
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.name = plan["workload"]
        self.cli = None
        self.tracer = None  # spans.Tracer while the traced pass runs
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []  # seconds per timed operation
        self.audio: list[float] = []  # input audio seconds per timed operation
        self.round_ends: list[int] = []  # operation count at the end of each round
        self.probe_pairs: list[float] = []
        self.digests: dict[str, str] = {}  # output key -> digest of first output
        self.first: dict[str, object] = {}  # output key -> first parsed output
        self.check_reference = plan["seed"] == REFERENCE_SEED and not plan["toy"]

    # -- running one CLI call -------------------------------------------------

    def call(self, argv: list[str]) -> tuple[int, str, str, float]:
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op_id += 1
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        return code, stdout.getvalue(), stderr.getvalue(), elapsed

    def timed(self, key: str, argv: list[str], check) -> float:
        """Run one operation, check it, count it; returns its seconds."""
        self.attempted += 1
        elapsed = 0.0
        try:
            code, out, err, elapsed = self.call(argv)
            _require(code == 0, f"exit {code}: {err.strip()[-300:]}")
            lines = out.strip().splitlines()
            _require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
            check(key, json.loads(lines[0]))
        except Exception as exc:  # every failure is counted, the loop goes on
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
        return elapsed

    def deterministic(self, key: str, payload: bytes, parsed) -> None:
        """Keep the first output of a key; later outputs must match it byte for byte."""
        digest = hashlib.sha256(payload).hexdigest()
        if key not in self.digests:
            self.digests[key] = digest
            self.first[key] = parsed
        else:
            _require(self.digests[key] == digest, f"{key}: output differs from an identical earlier call")

    # -- operations -------------------------------------------------------------

    def embed(self, clip: dict) -> float:
        ext = "csv" if clip["format"] == "csv" else "emb1"
        output = self.out / f"{Path(clip['path']).stem}.{ext}"
        argv = [
            "embed", str(self.work / clip["path"]), "--weights", str(self.work / self.plan["weights"]),
            "--output", str(output), "--algorithm", clip["algorithm"], "--format", clip["format"],
        ]

        def check(key, result):
            rows = expected_rows(clip)
            _require(EMBED_FIELDS <= result.keys(), f"missing fields in {sorted(result)}")
            _require(result["segments"] == rows and result["dim"] == SCENE_DIM, f"bad shape {result}")
            _require(result["algorithm"] == clip["algorithm"] and result["depth"] == DEPTH, f"bad echo {result}")
            _require(result["output"] == str(output), f"bad output path {result['output']}")
            payload = output.read_bytes()
            if ext == "csv":
                matrix = np.loadtxt(io.StringIO(payload.decode("ascii")), delimiter=",", ndmin=2)
            else:
                matrix = read_emb1(output)
            _require(matrix.shape == (rows, SCENE_DIM), f"file shape {matrix.shape} != ({rows}, {SCENE_DIM})")
            _require(bool(np.isfinite(matrix).all()), "non-finite embedding values")
            self.deterministic(key, payload, matrix.astype(np.float32))

        elapsed = self.timed(Path(clip["path"]).stem, argv, check)
        self.latencies.append(elapsed)
        self.audio.append(clip["duration"])
        return elapsed

    def probe_pair(self) -> float:
        labels = self.work / self.plan["probe_labels"]
        rows = [self.first.get(Path(c["path"]).stem) for c in self.plan["clips"]]
        if any(r is None for r in rows):
            self.attempted += 1
            self.failures.append("probe: some clip has no checked embeddings")
            return 0.0
        embeddings = self.work / "probe.emb1"
        if not embeddings.exists():
            write_emb1(embeddings, np.concatenate(rows))
        total = 0.0
        for kind, extra in (("linear", []), ("hidden", ["--hidden-units", "64"])):
            argv = ["probe", "--embeddings", str(embeddings), "--labels", str(labels)] + extra

            def check(key, result):
                _require(PROBE_FIELDS <= result.keys(), f"missing fields in {sorted(result)}")
                accuracy = result["accuracy"]
                _require(0.0 <= accuracy <= 1.0, f"accuracy {accuracy} outside [0, 1]")
                self.deterministic(key, repr(accuracy).encode(), accuracy)

            total += self.timed(f"probe_{kind}", argv, check)
        return total

    def train(self) -> float:
        output = self.out / "model.kwm1"
        argv = ["train", "--manifest", str(self.work / self.plan["manifest"]),
                "--output", str(output)] + self.plan["train_args"]
        n = self.plan["examples"]
        args = self.plan["train_args"]
        batch = int(args[args.index("--batch-size") + 1])
        epochs = int(args[args.index("--epochs") + 1])

        def check(key, result):
            from audiomlp.formats import load_weights

            _require(TRAIN_FIELDS <= result.keys(), f"missing fields in {sorted(result)}")
            _require(result["examples"] == n and result["classes"] == 4, f"bad counts {result}")
            _require(result["steps"] == epochs * -(-n // batch), f"bad step count {result['steps']}")
            _require(math.isfinite(result["final_loss"]), f"final_loss {result['final_loss']}")
            _require(0.0 <= result["train_accuracy"] <= 1.0, "train_accuracy outside [0, 1]")
            weights = load_weights(output)
            _require(all(np.isfinite(t).all() for t in weights.tensors.values()), "non-finite weights")
            self.deterministic(key, output.read_bytes(), result["final_loss"])

        elapsed = self.timed("train", argv, check)
        self.latencies.append(elapsed)
        self.audio.append(epochs * n * 1.0)  # every example is a 1 s clip
        return elapsed

    # -- set-up and loops -------------------------------------------------------

    def setup(self) -> None:
        """Import audiomlp, load the weights and make one warm-up operation."""
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import audiomlp
        import audiomlp.cli
        from audiomlp.formats import load_weights

        if Path(audiomlp.__file__).resolve().parent != (src / "audiomlp").resolve():
            raise SystemExit(f"audiomlp imported from {audiomlp.__file__}, not from {src}")
        self.cli = audiomlp.cli
        load_weights(self.work / self.plan["weights"])
        if self.name == "train":
            argv = ["train", "--manifest", str(self.work / self.plan["warmup_manifest"]),
                    "--output", str(self.out / "warmup.kwm1")] + self.plan["train_args"]
        else:
            argv = ["embed", str(self.work / "warmup.wav"), "--weights",
                    str(self.work / self.plan["weights"]), "--output", str(self.out / "warmup.emb1")]
        code, _, err, _ = self.call(argv)
        if code != 0:
            raise SystemExit(f"warm-up operation failed with exit {code}: {err.strip()}")

    def rounds(self):
        """Round after round of the clip pool, cycling through its rounds."""
        size = self.plan["round_size"]
        clips = self.plan["clips"]
        index = 0
        while True:
            yield clips[index * size : (index + 1) * size]
            index = (index + 1) % (len(clips) // size)

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        if self.name == "train":
            # two calls at least, so that a percentile exists
            while len(self.latencies) < 2 or time.perf_counter() - start < seconds:
                self.train()
                self.round_ends.append(len(self.latencies))
            return
        rounds = self.rounds()
        # one untimed round first: the first call of each clip size is slower
        for clip in next(rounds):
            self.embed(clip)
        self.latencies.clear()
        self.audio.clear()
        start = time.perf_counter()
        for round_clips in rounds:
            for clip in round_clips:
                self.embed(clip)
            self.round_ends.append(len(self.latencies))
            done = len(self.latencies) >= self.plan["min_clips"]
            if done and time.perf_counter() - start >= seconds:
                break
        if self.name == "embed-native":
            self.probe_pairs = [self.probe_pair() for _ in range(PROBE_REPEATS)]

    def fixed_work(self) -> float:
        """The traced run's unit of work; returns the seconds spent in CLI calls."""
        if self.name == "train":
            return sum(self.train() for _ in range(1 if self.plan["toy"] else TRACE_WORK["train"]))
        pool = len(self.plan["clips"]) // self.plan["round_size"]
        rounds = self.rounds()
        seconds = 0.0
        for _ in range(pool if self.name == "embed-native" else TRACE_WORK[self.name]):
            seconds += sum(self.embed(clip) for clip in next(rounds))
        if self.name == "embed-native":
            seconds += self.probe_pair()
        return seconds

    def reference(self, write: bool) -> None:
        """Compare first outputs with the stored reference for the default seed."""
        path = REFERENCE_DIR / f"{self.name}.npz"
        keys = self.reference_keys()
        if write:
            REFERENCE_DIR.mkdir(exist_ok=True)
            np.savez(path, **{k: np.asarray(self.first[k]) for k in keys})
            return
        self.attempted += 1
        try:
            stored = np.load(path)
            _require(sorted(stored.files) == sorted(keys), "reference keys differ from the plan")
            for key in keys:
                got, want = np.asarray(self.first[key], dtype=np.float64), stored[key]
                if key == "train":
                    ok = abs(got - want) <= LOSS_RTOL * abs(want)
                elif key.startswith("probe_"):
                    ok = abs(got - want) <= ACCURACY_ATOL
                else:
                    ok = got.shape == want.shape and np.allclose(got, want, rtol=EMB_RTOL, atol=EMB_ATOL)
                _require(bool(ok), f"{key} differs from the reference output")
        except (CheckFailed, OSError, KeyError) as exc:
            self.failures.append(f"reference: {exc}")

    def reference_keys(self) -> list[str]:
        if self.name == "train":
            return ["train"]
        round0 = self.plan["clips"][: self.plan["round_size"]]
        if self.name == "embed-resample":
            first_per_rate = {}
            for clip in round0:
                first_per_rate.setdefault(clip["rate"], Path(clip["path"]).stem)
            return sorted(first_per_rate.values())
        return [Path(c["path"]).stem for c in round0[:6]] + ["probe_linear", "probe_hidden"]


def per_layer(tracer, traced_s: float, plain_s: float) -> tuple[dict, dict]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass,
    and the full per-span table."""
    table = tracer.totals()

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    metrics = {
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.encode_audio.self_s": get("cli.encode_audio", "self_s"),
        "trainer.backward.s": get("trainer.loss_and_grads", "self_s"),
        "dsp.resample.peak_alloc_mb": tracer.peaks_mb.get("dsp.resample", 0.0),
        "trainer.loss_and_grads.peak_alloc_mb": tracer.peaks_mb.get("trainer.loss_and_grads", 0.0),
        "trace.overhead_ratio": traced_s / plain_s - 1.0,
    }
    for name in ("dsp.decode_wav", "dsp.resample", "dsp.mfcc", "dsp.pad_and_segment",
                 "encoder.extract_timestamps", "scene.scene_embedding", "formats.load_weights",
                 "formats.save_embeddings", "formats.format_embeddings_csv",
                 "formats.load_embeddings", "formats.load_manifest", "formats.save_weights",
                 "formats.save_optimizer_state", "trainer.augment", "trainer.forward_batch",
                 "trainer.adamw_update", "trainer.evaluate", "probe.train_probe",
                 "probe.evaluate_probe", "probe.adamw_update"):
        metrics[name + ".s"] = get(name, "s")
    for name in ("dsp.resample", "dsp.mfcc", "encoder.extract_timestamps",
                 "scene.scene_embedding", "trainer.augment"):
        metrics[name + ".calls"] = get(name, "calls")
    for name in ("dsp.decode_wav.bytes", "dsp.resample.out_samples",
                 "dsp.pad_and_segment.segments", "formats.bytes_written", "trainer.examples"):
        metrics[name] = tracer.counters.get(name, 0)
    calls = get("encoder.extract_timestamps", "calls")
    metrics["encoder.ms_per_segment"] = (
        1000.0 * get("encoder.extract_timestamps", "s") / calls if calls else 0.0
    )
    for module in ("cli", "dsp", "encoder", "scene", "formats", "trainer", "probe"):
        metrics[module + ".errors"] = tracer.errors.get(module, 0)
    return metrics, table


def environment() -> dict:
    import scipy

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "KWMLP_THREADS": os.environ.get("KWMLP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's first outputs as the default seed's reference")
    args = parser.parse_args()
    work = args.plan.parent
    workload = Workload(json.loads(args.plan.read_text()), work)
    workload.setup()
    if args.mode == "setup":
        return 0

    result = {}
    if args.mode == "run":
        workload.run(args.seconds)
    else:
        from spans import Tracer

        # plain, traced, plain: the mean of the plain passes cancels
        # first-call effects and drift
        plain_s = workload.fixed_work()
        with Tracer() as tracer:
            workload.tracer = tracer
            traced_s = workload.fixed_work()
        workload.tracer = None
        plain_s = (plain_s + workload.fixed_work()) / 2
        result["per_layer"], table = per_layer(tracer, traced_s, plain_s)
        result["layer_table"] = table
        result["spans"] = tracer.spans
    if args.write_reference:
        workload.reference(write=True)
    elif workload.check_reference:
        workload.reference(write=False)
    result.update(
        attempted=workload.attempted,
        failures=workload.failures,
        latencies=workload.latencies,
        audio=workload.audio,
        round_ends=workload.round_ends,
        probe_pairs=workload.probe_pairs,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
