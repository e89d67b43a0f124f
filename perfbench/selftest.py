"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimal size, plain and traced, and asserts that
the result line has exactly the contract's keys, that every metric named
in BENCHMARK.json is present with its unit, and that no operation
failed. It also checks that the same seed writes the same inputs and
that the benchmark refuses to run without the program's sources. Timing
is never a pass/fail condition.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "_work" / "selftest"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], (m["name"], entry)
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), m["name"]
    assert "fail_ratio" in proc.stdout
    print(f"ok  {workload:15s} trace={trace}  attempted={result['attempted']}")


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def check_inputs_repeat() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from inputs import generate

    for workload in ("embed-resample", "embed-native", "train"):
        first, second = SCRATCH / "a", SCRATCH / "b"
        generate(workload, 5, first, toy=True)
        generate(workload, 5, second, toy=True)
        assert digests(first) == digests(second), workload
        shutil.rmtree(first)
        shutil.rmtree(second)
    print("ok  same seed, same inputs")


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run("--workload", "embed-native", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without src/")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        check_refuses_without_sources()
        check_inputs_repeat()
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                check_workload(spec, workload, trace)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
