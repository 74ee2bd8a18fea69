"""End-to-end and per-layer benchmark of the envlp CLI pipeline.

Run from the root of a checkout (the directory holding ``src/envlp``):

    python3 bench/run.py --workload regions --seed 1 --seconds 35 --trace 0

Workloads: ``regions``, ``solve_heavy``, ``sweep_small`` (README.md says why).
The inputs are generated from ``--seed`` before anything is timed.  Set-up
time is sampled in separate short processes; the jobs then run in one worker
process for whole passes, stopping at the pass boundary nearest
``--seconds``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics and
the tracing overhead.  Every
metric is printed as ``name value unit``; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
full report (environment, output digests, failures) is written under
``.bench_results/``.  Exits non-zero without a result when ``src/envlp`` is
absent or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"

# The whole command must finish well inside the 180 s a run is allowed.
BUDGET_S = 165.0
# Time kept back after the timed loop for the last job, reporting and clean-up.
RESERVE_S = 40.0
PROBES = 5
PROBE_BUDGET_S = 20.0
# Single client, small dense solves: one BLAS thread keeps the second core
# free and the timings independent of thread scheduling.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Failure reasons that mean an operation went wrong against the program's own
# contract.  The others probe known defects; they count in failed_share only.
HARD_REASONS = ("raised", "exit", "recert", "digest")
CHECK_METRICS = {
    "raised": "check.exit_fail",
    "exit": "check.exit_fail",
    "recert": "check.recert_fail",
    "digest": "check.digest_fail",
    "cover": "check.cover_fail",
    "scale": "check.scale_fail",
    "monotone": "check.monotone_fail",
}
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(root: Path, workdir: Path, env: dict, timeout: float, *extra) -> str:
    argv = [sys.executable, str(WORKER), "--root", str(root), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(
            argv + ["--t0", repr(perf_counter()), *map(str, extra)],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def tail(times: list) -> tuple:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_BEYOND


def end_to_end(report: dict, setup: list) -> tuple:
    """End-to-end metrics from the untraced passes, plus tail bookkeeping."""
    plain = [o for o in report["outcomes"] if not o["traced"]]
    times = [o["seconds"] for o in plain]
    # A typical pass: each job at its median time over the passes, which
    # keeps a burst of machine noise in one pass out of the rate.
    per_job = {}
    for out in plain:
        per_job.setdefault(out["id"], []).append(out["seconds"])
    pass_s = sum(statistics.median(t) for t in per_job.values())
    value, percentile, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(per_job) / pass_s, "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (value, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return metrics, {"percentile": percentile, "samples": len(times), "beyond": beyond}


def check_metrics(outcomes: list) -> dict:
    counts = dict.fromkeys(sorted(set(CHECK_METRICS.values())), 0)
    for out in outcomes:
        for metric in {CHECK_METRICS[r] for r in out["reasons"]}:
            counts[metric] += 1
    metrics = {name: (count, "count") for name, count in counts.items()}
    failed = sum(bool(o["reasons"]) for o in outcomes)
    metrics["failed_share"] = (failed / len(outcomes), "ratio")
    metrics["cli.out_bytes"] = (statistics.mean(o["out_bytes"] for o in outcomes), "bytes/job")
    return metrics


def measure(args, root: Path, workdir: Path) -> dict:
    started = perf_counter()
    spec = workloads.build(args.workload, args.seed, workdir, tiny=args.size == "tiny")
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_VARS})

    setup, probe_digests = [], set()
    probe_start = perf_counter()
    while len(setup) < PROBES and (not setup or perf_counter() - probe_start < PROBE_BUDGET_S):
        remaining = BUDGET_S - (perf_counter() - started)
        probe = json.loads(_worker(root, workdir, env, remaining, "--probe").splitlines()[-1])
        setup.append(probe["setup_s"])
        probe_digests.add(probe["warmup_digest"])

    report_path = workdir / "report.json"
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    remaining = BUDGET_S - (perf_counter() - started)
    extra = [
        "--seconds", args.seconds,
        "--stop-after", max(args.seconds, remaining - RESERVE_S),
        "--trace", args.trace,
        "--report", report_path,
    ]
    if args.trace:
        extra += ["--spans", results / f"{stem}.spans.json"]
    _worker(root, workdir, env, remaining, *extra)
    report = json.loads(report_path.read_text())
    setup.append(report["setup_s"])

    outcomes = report["outcomes"]
    metrics, tail_info = end_to_end(report, setup)
    metrics.update(check_metrics(outcomes))
    metrics.update({k: tuple(v) for k, v in report.get("layers", {}).items()})
    failed = sum(any(r in HARD_REASONS for r in o["reasons"]) for o in outcomes)
    # The warm-up job ran in every process: its output must not depend on which.
    warmup_ok = probe_digests == {report["warmup_digest"]} and not any(
        r in HARD_REASONS for r in report["warmup_reasons"]
    )
    digests = report["digests"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": {
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "jobs": {
            "per_pass": len(spec["pass"]),
            "attempted": len(outcomes),
            "passes": len(report["passes"]),
            "traced_passes": sum(p["traced"] for p in report["passes"]),
        },
        "correct": failed == 0 and warmup_ok,
        "failed": failed,
        "tail": tail_info,
        "setup_samples": setup,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "job_seconds": [[o["id"], o["seconds"], o["traced"]] for o in outcomes],
        "failures": {o["id"]: o["reasons"] for o in outcomes if o["reasons"]},
        "errors": sorted({o["error"] for o in outcomes if "error" in o}),
        "missing": report.get("missing", []),
        "digests": {
            "workload": hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest(),
            "jobs": digests,
        },
        "passes": report["passes"],
        "result_file": str((results / f"{stem}.json").relative_to(root)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the envlp CLI pipeline.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed length of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-check sizes"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "envlp" / "__init__.py").is_file():
        print("bench: src/envlp not found; run from the root of a checkout", file=sys.stderr)
        return 2
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args, root, workdir)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    (root / result["result_file"]).write_text(json.dumps(result, indent=1) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"tail: p{result['tail']['percentile']:.2f} of {result['tail']['samples']} jobs")
    print(f"report: {result['result_file']}")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["jobs"]["attempted"],
                "failed": result["failed"],
                "metrics": {n: result["metrics"][n] for n in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
