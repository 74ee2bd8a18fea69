"""One workload process: imports ``envlp`` from the checkout and runs its jobs.

Started by run.py with the job specification that run.py generated.  Jobs
run back to back in this single process (a closed loop with one client) and
drive the program through ``envlp.cli.main([...])`` and public library calls.
With ``--probe`` the process only imports the package, runs the warm-up job
and exits, which is how run.py samples set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracing import Recorder

# Per-layer metric -> span names whose self time it sums.
SPAN_METRICS = {
    "contour.from_points_s": ("contour.from_points",),
    "contour.radial_parametrize_s": ("contour.radial_parametrize",),
    "contour.read_polygon_csv_s": ("contour.read_polygon_csv",),
    "contour.reconstruct_region_s": ("contour.reconstruct_region",),
    "qp.solve_s": ("qp.solve",),
    "solver.certify_s": ("solver.certify",),
    "fourier.evaluate_s": ("fourier.evaluate",),
    "solver.build_constraints_s": ("solver.build_constraints",),
    "fourier.phasor_matrix_s": ("fourier.phasor_matrix",),
    "solver.approximate_self_s": ("solver.approximate",),
    "solver.lift_bound_s": ("solver.lift_to_envelope", "solver.gap_bound"),
    "signals.read_signal_csv_s": ("signals.read_signal_csv",),
    "signals.write_signal_csv_s": ("signals.write_signal_csv",),
    "signals.from_samples_s": ("signals.from_samples",),
    "cli.main_self_s": ("cli.main",),
    "cli.dumps_s": ("cli.dumps",),
}
LAYERS = ("cli", "contour", "signals", "fourier", "solver", "qp", "bench")
PER_JOB_COUNTS = (
    "contour.vertices",
    "contour.rays",
    "qp.solves",
    "qp.path.warm",
    "qp.path.active_set",
    "qp.path.sweeps",
    "qp.sweep_iterations",
    "qp.not_converged",
    "solver.certify_points",
    "fourier.evaluate_terms",
)


def import_envlp(root: Path):
    """Import the package from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import envlp
    import envlp.cli
    import envlp.contour

    if Path(envlp.__file__).resolve().parent != src / "envlp":
        raise ImportError(f"envlp was imported from {envlp.__file__}, not {src}")
    return envlp


class Runner:
    """Runs single jobs and checks their outputs with the benchmark's own code."""

    def __init__(self, envlp, workdir: Path, outdir: Path):
        self.envlp = envlp
        self.workdir = workdir
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        self._inputs: dict = {}

    def _input(self, name: str, polygon: bool = False) -> np.ndarray:
        if name not in self._inputs:
            self._inputs[name] = np.loadtxt(self.workdir / name, delimiter="," if polygon else None)
        return self._inputs[name]

    def _cli(self, *argv) -> int:
        try:
            return self.envlp.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code if isinstance(exc.code, int) else 1

    def run(self, job: dict, rec: Recorder | None = None) -> dict:
        """Run one job; returns its time, failure reasons and output digest."""
        kind = getattr(self, f"_job_{job['kind']}")
        files = [self.outdir / f"{job['id']}.{suffix}" for suffix in kind.outputs]
        for path in files:
            path.unlink(missing_ok=True)
        span = rec.begin("bench.job") if rec else None
        start = perf_counter()
        try:
            state = kind(job, files)
        except Exception as exc:  # the job boundary: record, keep running
            state = {"codes": [], "error": f"{type(exc).__name__}: {exc}"}
        seconds = perf_counter() - start
        if rec:
            rec.end(span)
        outcome = {"id": job["id"], "seconds": seconds, "reasons": []}
        if "error" not in state and any(code != 0 for code in state["codes"]):
            outcome["reasons"].append("exit")
        elif "error" not in state:
            try:
                outcome["reasons"] += self._check(job, files, state)
            except Exception as exc:  # an output the checks cannot read
                state["error"] = f"check: {type(exc).__name__}: {exc}"
        if "error" in state:
            outcome["reasons"].append("raised")
            outcome["error"] = state["error"]
        digest = hashlib.sha256()
        outcome["out_bytes"] = 0
        for path in files:
            data = path.read_bytes() if path.exists() else b""
            digest.update(path.name.encode() + b"\0" + data + b"\0")
            outcome["out_bytes"] += len(data)
        outcome["digest"] = digest.hexdigest()
        if "cost" in state:
            outcome["cost"] = state["cost"]
        return outcome

    # Each job kind lists the files its CLI calls write, in digest order.

    def _job_region(self, job, files):
        signal, sidecar, result, cert = files
        codes = [self._cli("ingest", self.workdir / job["polygon"], "--samples", job["samples"], "--out", signal)]
        if codes[-1] == 0:
            codes.append(
                self._cli("approximate", signal, "--L", job["L"], "--n", job["n"], "--out", result)
            )
        if codes[-1] == 0:
            codes.append(self._cli("certify", result, signal, "--grid", job["grid"], "--out", cert))
        if codes[-1] != 0:
            return {"codes": codes}
        payload = json.loads(result.read_text())
        centroid = tuple(json.loads(sidecar.read_text())["centroid"])
        envelope = self.envlp.FourierEnvelope.from_dict(payload["subopt"])
        region = self.envlp.contour.reconstruct_region(envelope, M=job["points"], centroid=centroid)
        return {"codes": codes, "payload": payload, "region": region, "centroid": centroid}

    _job_region.outputs = ("signal.csv", "signal.json", "result.json", "cert.json")

    def _job_approximate(self, job, files):
        (result,) = files
        code = self._cli(
            "approximate", self.workdir / job["signal"], "--L", job["L"], "--n", job["n"], "--out", result
        )
        if code != 0:
            return {"codes": [code]}
        payload = json.loads(result.read_text())
        return {"codes": [code], "payload": payload, "cost": payload["cost_appopt"]}

    _job_approximate.outputs = ("result.json",)

    def _job_sweep(self, job, files):
        (out,) = files
        code = self._cli(
            "sweep",
            self.workdir / job["signal"],
            "--L",
            ",".join(map(str, job["L"])),
            "--n",
            ",".join(map(str, job["n"])),
            "--format",
            job["format"],
            "--out",
            out,
        )
        return {"codes": [code]}

    _job_sweep.outputs = ("out",)

    def _check(self, job, files, state) -> list:
        reasons = []
        if job["kind"] == "region":
            samples = np.loadtxt(files[0])
            vertices = self._input(job["polygon"], polygon=True)
            if not checks.covers(vertices, state["region"], state["centroid"]):
                reasons.append("cover")
        elif job["kind"] == "approximate":
            samples = self._input(job["signal"])
        else:
            if not checks.nested_monotone(_sweep_costs(files[0], job["format"])):
                reasons.append("monotone")
            return reasons
        payload = state["payload"]
        if not (payload["solver"]["converged"] and checks.envelope_above(payload["subopt"], samples)):
            reasons.append("recert")
        return reasons


def _sweep_costs(path: Path, fmt: str) -> dict:
    """``(L, n) -> cost_appopt`` parsed from a sweep's JSON or CSV output."""
    text = path.read_text()
    if fmt == "json":
        return {(row["L"], row["n"]): row["cost_appopt"] for row in json.loads(text)}
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    costs = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        costs[(int(row["L"]), int(row["n"]))] = float(row["cost_appopt"])
    return costs


def _check_twins(jobs: list, outcomes: list) -> None:
    """Mark scaled twins whose ``cost/s**2`` differs from their unit twin."""
    unit = {}
    for job, out in zip(jobs, outcomes):
        if job.get("scale") == 1.0 and "twin" in job and "cost" in out:
            unit[job["twin"]] = out["cost"]
    for job, out in zip(jobs, outcomes):
        if "twin" in job and job["scale"] != 1.0 and "cost" in out and job["twin"] in unit:
            if not checks.scale_equivariant(out["cost"], job["scale"], unit[job["twin"]]):
                out["reasons"].append("scale")


def run_loop(runner: Runner, spec: dict, seconds: float, stop_after: float, trace: bool) -> dict:
    """Repeat whole passes and stop at the pass boundary nearest ``seconds``.

    With tracing, untraced and traced passes alternate (at least one each),
    so both measure the same jobs.  No job starts after ``stop_after``.
    """
    rec = Recorder() if trace else None
    passes, outcomes, first_digest = [], [], {}
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            rec.install()
        done = []
        for job in spec["pass"]:
            if perf_counter() - start > stop_after:
                break
            if rec:
                rec.job = job["id"]
            done.append(runner.run(job, rec if traced else None))
        if traced:
            rec.uninstall()
        _check_twins(spec["pass"], done)
        for out in done:
            known = first_digest.setdefault(out["id"], out["digest"])
            if known != out["digest"]:
                out["reasons"].append("digest")
            out["traced"] = traced
        complete = len(done) == len(spec["pass"])
        passes.append(
            {"traced": traced, "complete": complete, "jobs": len(done), "busy_s": sum(o["seconds"] for o in done)}
        )
        outcomes += done
        elapsed = perf_counter() - start
        next_half = elapsed / len(passes) / 2.0
        enough = elapsed + next_half >= seconds and (not trace or len(passes) >= 2)
        if enough or not complete or elapsed > stop_after:
            break
    return {"passes": passes, "outcomes": outcomes, "digests": first_digest, "recorder": rec}


def layer_metrics(rec: Recorder, passes: list) -> dict:
    """Per-layer metrics of the traced passes, normalised per traced job."""
    traced_jobs = max(1, sum(p["jobs"] for p in passes if p["traced"]))
    self_times = rec.self_times()
    metrics = {}
    for name, spans in SPAN_METRICS.items():
        metrics[name] = (sum(self_times.get(s, 0.0) for s in spans) / traced_jobs, "s/job")
    for layer in LAYERS:
        total = sum(t for s, t in self_times.items() if s.split(".")[0] == layer)
        metrics[f"layer.{layer}_s"] = (total / traced_jobs, "s/job")
    counters = rec.counters
    for name in PER_JOB_COUNTS:
        metrics[name] = (counters[name] / traced_jobs, "count/job")
    metrics["qp.working_set.max"] = (counters["qp.working_set.max"], "count")
    metrics["solver.constraint_bytes"] = (counters["solver.constraint_bytes"], "bytes")
    warm = counters["qp.warm_starts"]
    metrics["qp.warm_hit_ratio"] = (counters["qp.warm_hits"] / warm if warm else 0.0, "ratio")
    gaps = rec.samples["solver.gap_rel"]
    metrics["solver.gap_rel.p50"] = (statistics.median(gaps) if gaps else 0.0, "ratio")
    traced = [p["busy_s"] for p in passes if p["traced"] and p["complete"]]
    plain = [p["busy_s"] for p in passes if not p["traced"] and p["complete"]]
    pairs = min(len(traced), len(plain))
    overhead = sum(traced[:pairs]) / sum(plain[:pairs]) - 1.0 if pairs else 0.0
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.missing"] = (len(rec.missing), "count")
    metrics["trace.observer_errors"] = (int(counters["trace.observer_errors"]), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True, help="checkout holding src/envlp")
    parser.add_argument("--workdir", type=Path, required=True, help="generated inputs and jobs.json")
    parser.add_argument("--t0", type=float, required=True, help="perf_counter() when run.py started this process")
    parser.add_argument("--probe", action="store_true", help="stop after the warm-up job")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--stop-after", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    envlp = import_envlp(args.root)
    spec = json.loads((args.workdir / "jobs.json").read_text())
    runner = Runner(envlp, args.workdir, args.workdir / f"out-{'probe' if args.probe else 'run'}")
    warm = runner.run(spec["warmup"])
    setup_s = perf_counter() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "warmup_digest": warm["digest"]}))
        return 0

    loop = run_loop(runner, spec, args.seconds, args.stop_after, bool(args.trace))
    rec = loop.pop("recorder")
    report = {
        "setup_s": setup_s,
        "warmup_reasons": warm["reasons"],
        "warmup_digest": warm["digest"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **loop,
    }
    if rec:
        report["layers"] = layer_metrics(rec, loop["passes"])
        report["missing"] = rec.missing
        if args.spans:
            args.spans.write_text(json.dumps(rec.dump()))
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
