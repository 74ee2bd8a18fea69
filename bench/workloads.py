"""Seeded inputs and job lists for the three benchmark workloads.

Everything here is plain numpy and never imports ``envlp``: the program under
test only ever sees the CSV files written by :func:`build`.  A workload is a
fixed *pass* of jobs that the worker repeats; the seed changes the shapes and
phases of the inputs, never the sizes, so every seed asks for the same amount
of work.  README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("regions", "solve_heavy", "sweep_small")

# --- regions -----------------------------------------------------------------

# (shape, vertices V, ingest samples M, L, n).  Each pass has one V=800
# polygon, four V=400 ones with the same settings (the tail lands in that
# class), six V=200 ones (the median lands there) and six small ones; the
# rotated stars at M=64/128 carry the known coverage defect.
REGIONS_PASS = (
    ("star7", 800, 1024, 16, 1024),
    ("star5", 50, 64, 4, 64),
    ("star9", 200, 128, 8, 256),
    ("star7", 400, 1024, 8, 256),
    ("spikes", 100, 2048, 16, 1024),
    ("star5", 200, 64, 16, 1024),
    ("blob", 400, 1024, 8, 256),
    ("star7", 50, 128, 8, 256),
    ("mushroom", 200, 2048, 16, 1024),
    ("star9", 400, 1024, 8, 256),
    ("star9", 100, 64, 4, 64),
    ("spikes", 200, 1024, 4, 64),
    ("mushroom", 400, 1024, 8, 256),
    ("star5", 100, 128, 16, 1024),
    ("star7", 200, 64, 8, 256),
    ("blob", 50, 2048, 4, 64),
    ("star5", 200, 128, 4, 64),
)
REGIONS_TINY = (
    ("star7", 40, 64, 4, 64),
    ("spikes", 60, 128, 4, 64),
    ("mushroom", 60, 1024, 8, 256),
)
REGIONS_WARMUP = ("star5", 50, 64, 4, 64)
REGIONS_CERTIFY_GRID = 32768
REGIONS_OUTPUT_POINTS = 4096


def _star(rng, points: int, vertices: int) -> np.ndarray:
    """Star with ``points`` tips at a random rotation, so tips fall between rays."""
    rot = rng.uniform(0.0, 2.0 * np.pi)
    inner = rng.uniform(0.4, 0.55)
    corners = 2 * points
    theta = rot + np.pi * np.arange(corners) / points
    radius = np.where(np.arange(corners) % 2 == 0, 1.0, inner)
    xy = np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))
    per_edge = max(1, vertices // corners)
    frac = np.arange(per_edge) / per_edge
    nxt = np.roll(xy, -1, axis=0)
    pts = xy[:, None, :] + frac[None, :, None] * (nxt - xy)[:, None, :]
    return pts.reshape(-1, 2)


def _spikes(rng, vertices: int, count: int = 3) -> np.ndarray:
    """Unit circle with ``count`` thin spikes at random angles off the rays."""
    width = 0.004
    tips = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(count) / count
    tips = tips + rng.uniform(-0.3, 0.3, count)
    heights = rng.uniform(1.25, 1.45, count)
    base = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(vertices - 3 * count) / (
        vertices - 3 * count
    )
    gap = np.angle(np.exp(1j * (base[:, None] - tips[None, :])))
    base = base[np.all(np.abs(gap) > 2.0 * width, axis=1)]
    angles = [base, tips - width, tips, tips + width]
    radii = [np.ones_like(base), np.ones(count), heights, np.ones(count)]
    theta = np.mod(np.concatenate(angles), 2.0 * np.pi)
    radius = np.concatenate(radii)
    order = np.argsort(theta)
    theta, radius = theta[order], radius[order]
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def _blob(rng, vertices: int) -> np.ndarray:
    """Random star-shaped polygon: jittered angles, smooth random radius."""
    theta = 2.0 * np.pi * (np.arange(vertices) + 0.8 * rng.random(vertices)) / vertices
    k = np.arange(2, 6)
    amp = rng.uniform(0.02, 0.08, k.size)
    phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
    radius = 1.0 + np.cos(np.multiply.outer(theta, k) + phase) @ amp
    radius = radius + 0.01 * rng.standard_normal(vertices)
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def _mushroom(rng, vertices: int) -> np.ndarray:
    """Disk with an overhanging cap: rays under the overhang cross three edges."""
    a = rng.uniform(0.0, 2.0 * np.pi)
    under, over = rng.uniform(0.4, 0.6), rng.uniform(0.25, 0.35)
    r_pocket, r_cap = 1.2, rng.uniform(1.45, 1.6)
    n_pocket = max(4, vertices // 10)
    n_cap = max(4, vertices // 5)
    n_disk = max(8, vertices - n_pocket - n_cap - 2)
    arcs = [
        (np.array([a]), 1.0),
        (a - under * np.arange(n_pocket + 1) / n_pocket, r_pocket),
        (a - under + (under + over) * np.arange(n_cap + 1) / n_cap, r_cap),
        (a + over + (2.0 * np.pi - over) * np.arange(n_disk) / n_disk, 1.0),
    ]
    theta = np.concatenate([t for t, _ in arcs])
    radius = np.concatenate([np.full(t.size, r) for t, r in arcs])
    return np.column_stack((radius * np.cos(theta), radius * np.sin(theta)))


def _polygon(shape: str, vertices: int, rng) -> np.ndarray:
    if shape.startswith("star"):
        return _star(rng, int(shape[4:]), vertices)
    if shape == "spikes":
        return _spikes(rng, vertices)
    if shape == "blob":
        return _blob(rng, vertices)
    if shape == "mushroom":
        return _mushroom(rng, vertices)
    raise ValueError(f"unknown shape {shape!r}")


def _region_job(job_id, row, rng, workdir: Path) -> dict:
    shape, vertices, samples, L, n = row
    pts = _polygon(shape, vertices, rng) + rng.uniform(-5.0, 5.0, 2)
    name = f"{job_id}.poly.csv"
    lines = [f"{format(float(x), '.17g')},{format(float(y), '.17g')}" for x, y in pts]
    (workdir / name).write_text("\n".join(lines) + "\n")
    return {
        "id": job_id,
        "kind": "region",
        "shape": shape,
        "vertices": int(pts.shape[0]),
        "polygon": name,
        "samples": samples,
        "L": L,
        "n": n,
        "grid": REGIONS_CERTIFY_GRID,
        "points": REGIONS_OUTPUT_POINTS,
    }


# --- signals -------------------------------------------------------------------

SIGNAL_SAMPLES = 2048
FAMILIES = ("smooth", "square", "sawtooth", "pulse", "star")


def signal(family: str, rng, m: int = SIGNAL_SAMPLES) -> np.ndarray:
    """One period of a seeded member of ``family`` on ``m`` uniform samples."""
    t = np.arange(m) / m
    u = np.mod(t - rng.random(), 1.0)
    if family == "smooth":
        k = np.arange(1, 9)
        amp = 0.5 / k * rng.uniform(0.9, 1.1, k.size)
        phase = rng.uniform(0.0, 2.0 * np.pi, k.size)
        return 1.5 + np.cos(2.0 * np.pi * np.multiply.outer(t, k) + phase) @ amp
    if family == "square":
        return 1.0 + rng.uniform(0.4, 0.6) * np.sign(np.sin(2.0 * np.pi * u))
    if family == "sawtooth":
        return 1.0 + rng.uniform(0.8, 1.2) * u
    if family == "pulse":
        return 1.0 + (np.mod(4.0 * u, 1.0) < rng.uniform(0.04, 0.06)).astype(float)
    if family == "star":
        # Radial function of a regular 5-point star seen from its centre.
        sector = 2.0 * np.pi / 5.0
        depth = rng.uniform(0.35, 0.45)
        wedge = np.abs(np.mod(2.0 * np.pi * u, sector) - sector / 2.0) / (sector / 2.0)
        return 1.0 / (1.0 + depth * (1.0 - wedge))
    raise ValueError(f"unknown signal family {family!r}")


def _write_signal(workdir: Path, name: str, values: np.ndarray) -> str:
    (workdir / name).write_text("\n".join(format(float(v), ".17g") for v in values) + "\n")
    return name


# --- solve_heavy ---------------------------------------------------------------

# Unit-scale solves that dominate the pass: every family at each (L, n), plus
# one large-n solve for peak memory.
SOLVE_SIZES = ((48, 4096), (64, 4096))
SOLVE_LARGE = ("square", 64, 16384)
# Scaled twins: (family, L, n, scales).  The unit twin always runs too.
TWINS = (
    ("smooth", 8, 256, (1e-8, 1e-6, 1e5)),
    ("square", 4, 256, (1e-8, 1e-6)),
)
SOLVE_TINY_SIZES = ((8, 256),)
SOLVE_TINY_LARGE = ("square", 16, 1024)
TWINS_TINY = (("smooth", 8, 256, (1e-8, 1e5)),)
# Signals the seed does not vary.  Whether a solve falls into the slow sweep
# path is chaotic in the input at this commit, and there it takes minutes:
# a seeded smooth signal did so at (48, 4096) for one seed in 200 (for L >= 8
# it is nearly its own envelope, a degenerate problem), and a seeded twin
# would swing a pass by seconds from seed to seed.
FIXED_FAMILIES = ("smooth", "square")


def _solve_jobs(rng, workdir: Path, tiny: bool) -> tuple[dict, list]:
    sizes = SOLVE_TINY_SIZES if tiny else SOLVE_SIZES
    large = SOLVE_TINY_LARGE if tiny else SOLVE_LARGE
    twins = TWINS_TINY if tiny else TWINS
    fixed_rng = np.random.default_rng(0)
    fixed = {f: signal(f, fixed_rng) for f in FIXED_FAMILIES}
    files = {
        f: _write_signal(workdir, f"{f}.csv", fixed[f] if f == "smooth" else signal(f, rng))
        for f in FAMILIES
    }
    heavy = []
    for L, n in sizes:
        for family in FAMILIES:
            heavy.append({"signal": files[family], "family": family, "L": L, "n": n})
    family, L, n = large
    heavy.append({"signal": files[family], "family": family, "L": L, "n": n})
    light = []
    for family, L, n, scales in twins:
        for scale in (1.0,) + tuple(scales):
            name = _write_signal(workdir, f"twin-{family}-{scale:g}.csv", fixed[family] * scale)
            light.append(
                {
                    "signal": name,
                    "family": family,
                    "L": L,
                    "n": n,
                    "scale": scale,
                    "twin": f"{family}-{L}-{n}",
                }
            )
    jobs = _interleave(heavy, light)
    for i, job in enumerate(jobs):
        job.update(id=f"s{i:02d}", kind="approximate")
    warmup = dict(light[0], id="warmup", kind="approximate")
    return warmup, jobs


def _interleave(heavy: list, light: list) -> list:
    """Spread the light jobs evenly between the heavy ones."""
    out = []
    step = len(heavy) / max(1, len(light))
    li = 0
    for i, job in enumerate(heavy):
        out.append(job)
        while li < len(light) and (li + 1) * step <= i + 1:
            out.append(light[li])
            li += 1
    return out + light[li:]


# --- sweep_small -----------------------------------------------------------------

SWEEP_L = tuple(range(1, 13))
SWEEP_N = (32, 64, 128, 256, 512, 1024)
SWEEP_FAMILIES = ("smooth", "square", "sawtooth", "star", "smooth", "square")
# Scales stay within 1e-2..1e2.  Only the smooth signals are seeded: a
# seeded discontinuous signal sent a row into the slow sweep path, or failed
# it with NotConverged after 24-43 s, for about one sweep in 200 at this
# commit (at 1e-4 one sweep in three).  solve_heavy measures that path on
# purpose; here it would make a run incorrect or let the seed set the spread.
SWEEP_SCALES = (1e-2, 1.0, 1e2)
SWEEP_TINY = ((1, 2, 3), (32, 64), ("smooth", "square"), (1e-2, 1e2))


def _sweep_jobs(rng, workdir: Path, tiny: bool) -> tuple[dict, list]:
    if tiny:
        l_values, n_values, families, scales = SWEEP_TINY
    else:
        l_values, n_values, families, scales = SWEEP_L, SWEEP_N, SWEEP_FAMILIES, SWEEP_SCALES
    fixed_rng = np.random.default_rng(0)
    jobs = []
    for i, family in enumerate(families):
        base = signal(family, rng if family == "smooth" else fixed_rng)
        for scale in scales:
            name = _write_signal(workdir, f"sweep{i}-{scale:g}.csv", base * scale)
            jobs.append(
                {
                    "id": f"w{len(jobs):02d}",
                    "kind": "sweep",
                    "signal": name,
                    "family": family,
                    "scale": scale,
                    "L": list(l_values),
                    "n": list(n_values),
                    "format": "json" if len(jobs) % 2 == 0 else "csv",
                }
            )
    warmup = dict(jobs[0], id="warmup", L=[1, 2, 3], n=[32, 64])
    return warmup, jobs


# --- entry point -------------------------------------------------------------------


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``.

    Returns the job specification the worker runs: a warm-up job and the pass.
    """
    rng = np.random.default_rng(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "regions":
        table = REGIONS_TINY if tiny else REGIONS_PASS
        jobs = [_region_job(f"r{i:02d}", row, rng, workdir) for i, row in enumerate(table)]
        warmup = _region_job("warmup", REGIONS_WARMUP, rng, workdir)
    elif workload == "solve_heavy":
        warmup, jobs = _solve_jobs(rng, workdir, tiny)
    elif workload == "sweep_small":
        warmup, jobs = _sweep_jobs(rng, workdir, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    spec = {"workload": workload, "seed": seed, "warmup": warmup, "pass": jobs}
    (workdir / "jobs.json").write_text(json.dumps(spec, indent=1))
    return spec
