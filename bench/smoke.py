"""Smoke check of the benchmark itself.

Runs every workload at tiny sizes, traced and untraced, and asserts that the
result line has the contract's keys and carries every metric declared in
BENCHMARK.json with its declared unit.  Also checks that the benchmark fails
without printing a result where the program is absent.  Run from the root
of a checkout:

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, declared: dict) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}/trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, f"{workload}/trace {trace}: {set(got) ^ set(expected)}"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, (name, metric)
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} jobs")


def check_fails_without_program() -> None:
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(RUN.parent, bare / RUN.parent.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "regions", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok fails without src/envlp")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, declared)
    check_fails_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
