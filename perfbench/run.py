"""audiomlp benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload embed-native --seed 0 --seconds 30 --trace 0

Steps, all inside the checkout:

1. Write the workload's inputs from --seed (inputs.py) into a fresh
   directory under perfbench/_work/.
2. Time set-up in SETUP_PROCESSES fresh processes: the wall time of a
   process that imports audiomlp (numpy and scipy with it), loads the
   weights, makes one warm-up operation and exits.
3. Start the workload process (workload.py), which sets up once more and
   runs the operation loop, checking every output.
4. Print a table of every metric with its unit, the environment record,
   and as the last line one JSON object: {"correct", "attempted",
   "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
   metrics of BENCHMARK.json, with --trace 1 the per-layer ones. A traced
   run also writes its spans and a per-layer table under perfbench/_out/.

The program's thread settings are pinned (PINNED_ENV). Exits non-zero,
printing no result, when the program's sources are missing or a process
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("embed-resample", "embed-native", "train")
SETUP_PROCESSES = 5
DEADLINE_S = 170.0

# One embed thread and one BLAS thread. Measured on a 2-CPU machine with
# a 100-clip loop of 16 kHz clips: the defaults (a pool of 2 threads and
# 2 BLAS threads) gave 52-69 audio-s/s with +-20% between runs, pinning
# both to 1 gave 77-88 audio-s/s with about +-7%. The defaults measure
# the scheduler, not the program.
PINNED_ENV = {"KWMLP_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
PIN_REASON = (
    "2-CPU machine, 100 clips of 16 kHz audio: default threads 52-69 audio-s/s (+-20%), "
    "KWMLP_THREADS=1 and OPENBLAS_NUM_THREADS=1 77-88 audio-s/s (+-7%)"
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, **PINNED_ENV)
    return subprocess.run(
        [sys.executable, str(HERE / "workload.py")] + args,
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )


def throughput(result: dict) -> float:
    """Median over rounds of input audio seconds per second inside the CLI calls.

    A round of the embed workloads is one pass over a fixed mix of clips;
    in train it is one train call. The median keeps a burst of load from
    another process on the machine out of the figure.
    """
    rates, lo = [], 0
    for hi in result["round_ends"]:
        rates.append(sum(result["audio"][lo:hi]) / sum(result["latencies"][lo:hi]))
        lo = hi
    return statistics.median(rates)


def end_to_end(result: dict, setup_samples: list[float]) -> dict[str, float]:
    latencies = result["latencies"]
    return {
        "setup_s": statistics.median(setup_samples),
        "audio_s_per_s": throughput(result),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def extras(workload: str, result: dict, traced: bool) -> list[tuple[str, float, str]]:
    """Metrics that apply to some workloads only, printed in the table."""
    rows = [("operations_timed", len(result["latencies"]), "count")]
    if workload == "embed-native" and not traced:
        rows.append(("probe_s", statistics.median(result["probe_pairs"]), "s"))
    if workload == "train" and not traced:
        rows.append(("train_examples_per_s", throughput(result), "ex/s"))
    failed = len(result["failures"])
    rows.append(("fail_ratio", failed / max(result["attempted"], 1), "ratio"))
    return rows


def write_trace(workload: str, seed: int, result: dict) -> Path:
    out = HERE / "_out"
    out.mkdir(exist_ok=True)
    stem = out / f"{workload}-seed{seed}"
    with open(f"{stem}-spans.jsonl", "w") as fh:
        for span in result["spans"]:
            fh.write(json.dumps(span) + "\n")
    lines = ["span\tcalls\ts\tself_s"]
    for name, row in sorted(result["layer_table"].items()):
        lines.append(f"{name}\t{row['calls']}\t{row['s']:.6f}\t{row['self_s']:.6f}")
    Path(f"{stem}-layers.tsv").write_text("\n".join(lines) + "\n")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="audiomlp benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="minimal sizes, for the self-test")
    parser.add_argument("--write-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    started = time.perf_counter()

    src = ROOT / "src"
    if not (src / "audiomlp" / "__init__.py").is_file():
        return fail(f"no audiomlp sources under {src}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    from inputs import generate

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        generate(args.workload, args.seed, work, toy=args.toy)
        plan = str(work / "plan.json")
        setup_samples = []
        for _ in range(SETUP_PROCESSES):
            start = time.perf_counter()
            proc = child(["--plan", plan, "--mode", "setup"], DEADLINE_S - (start - started))
            if proc.returncode != 0:
                return fail(f"set-up process failed:\n{proc.stderr}")
            setup_samples.append(time.perf_counter() - start)
        result_path = work / "result.json"
        workload_args = ["--plan", plan, "--mode", "trace" if args.trace else "run",
                         "--seconds", str(args.seconds), "--result", str(result_path)]
        if args.write_reference:
            workload_args.append("--write-reference")
        proc = child(workload_args, DEADLINE_S - (time.perf_counter() - started))
        if proc.returncode != 0:
            return fail(f"workload process failed:\n{proc.stderr}")
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        return fail(f"timed out: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    if args.trace:
        values = result["per_layer"]
        specs = spec["per_layer"]
    else:
        values = end_to_end(result, setup_samples)
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']}")
    for name, value, unit in extras(args.workload, result, bool(args.trace)):
        print(f"  {name:40s} {value:14.6g} {unit}")
    if args.trace:
        print(f"  spans and per-layer table written to {write_trace(args.workload, args.seed, result)}")
    print("env " + json.dumps(dict(result["env"], pin_reason=PIN_REASON)))
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
