"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Expected
values come from independent oracles computed in this module (scalar
enumeration with quadratic polish, dense-grid reference solves, finite
differences), never from the code paths under test.
"""

import time

import numpy as np
import pytest

from envlp import (
    PeriodicSignal,
    approximate,
    build_constraints,
    certify,
    fine_grid_opt,
    kkt_residuals,
    solve_appopt,
)
from envlp.fourier import FourierEnvelope

from conftest import smooth_signal, vertex_margins


def _report(cid, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {cid} {label}: {status} {detail}")
    assert ok, f"{cid} {label}: {detail}"


def _random_envelope(rng, max_L=8):
    L = int(rng.integers(0, max_L + 1))
    k = np.arange(1, L + 1)
    return FourierEnvelope(
        L=L,
        b0=rng.normal(),
        b_re=rng.normal(size=L) / np.maximum(k, 1),
        b_im=rng.normal(size=L) / np.maximum(k, 1),
    )


@pytest.fixture(scope="module")
def runs(cos_signal, star_signal):
    """Shared registry of pipeline runs; criteria 3, 7 and 9 audit all of them."""
    registry = []

    def record(label, sig, L, n, **kwargs):
        result = approximate(sig, L=L, n=n, **kwargs)
        registry.append((label, sig, result))
        return result

    record("cos-L1-n64", cos_signal, 1, 64)
    record("const-L1-n64", PeriodicSignal.from_samples(np.full(64, 2.0)), 1, 64)
    record("neg-const-L0-n8", PeriodicSignal.from_samples(np.full(64, -1.0)), 0, 8)
    for n in (8, 16, 32, 64, 128, 256, 512):
        record(f"star-L1-n{n}", star_signal, 1, n)
    for L in (2, 3, 4, 5):
        record(f"star-L{L}-n64", star_signal, L, 64)
    for seed in range(10):
        sig = smooth_signal(seed)
        record(f"smooth{seed}-L2-n32", sig, 2, 32)
        for n in (8, 16, 64, 128):
            record(f"smooth{seed}-L2-n{n}", sig, 2, n)
    return registry


def test_c01_analytic_optimum(cos_signal):
    # Independent oracle: with the first-harmonic coefficient written as
    # 1/2 + h, dominating the unit cosine forces DC >= 2|h|, so the optimal
    # cost solves min_h 4h^2 + 2(1/2+h)^2.  Enumerate, then polish with the
    # exact parabola vertex.
    hs = np.linspace(-0.5, 0.5, 200001)
    costs = 4 * hs ** 2 + 2 * (0.5 + hs) ** 2
    h_grid = hs[np.argmin(costs)]
    h_star = -2.0 / (2 * 6.0)  # vertex of 6h^2 + 2h + 1/2
    assert abs(h_grid - h_star) <= 1e-5
    oracle_cost = 6 * h_star ** 2 + 2 * h_star + 0.5
    oracle_b0 = 2 * abs(h_star)
    oracle_b1 = 0.5 + h_star

    start = time.perf_counter()
    env, _ = solve_appopt(cos_signal, L=1, n=64)
    elapsed = time.perf_counter() - start

    fine_cost = fine_grid_opt(cos_signal, L=1, n_fine=4096).energy()
    ok = (
        abs(env.energy() - oracle_cost) <= 2e-3
        and abs(env.b0 - oracle_b0) <= 5e-3
        and abs(env.b_re[0] - oracle_b1) <= 5e-3
        and abs(env.b_im[0]) <= 5e-3
        and abs(fine_cost - oracle_cost) <= 1e-4
        and elapsed < 1.0
    )
    _report(
        "C01",
        "analytic-optimum",
        ok,
        f"cost={env.energy():.6f} oracle={oracle_cost:.6f} "
        f"fine={fine_cost:.6f} runtime={elapsed * 1e3:.1f}ms",
    )


def test_c02_dc_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        sig = smooth_signal(seed, m=512)
        for n in (8, 16, 32, 64):
            env, _ = solve_appopt(sig, L=0, n=n)
            expected = sig.samples[:: 512 // n].max()
            worst = max(worst, abs(env.b0 - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report("C02", "dc-oracle", ok, f"worst|b0-max|={worst:.2e} runtime={elapsed:.2f}s")


def test_c03_lift_identity(runs):
    worst = 0.0
    for _label, _sig, res in runs:
        delta = (res.c + res.c_prime) / res.n
        identity = 2 * res.appopt.b0 * delta + delta ** 2
        worst = max(worst, abs((res.cost_subopt - res.cost_appopt) - identity))
    ok = worst <= 1e-12
    _report("C03", "lift-identity", ok, f"worst deviation={worst:.2e} over {len(runs)} runs")


def test_c04_sandwich():
    worst_low = worst_high = 0.0
    for seed in range(10):
        sig = smooth_signal(seed)
        res = approximate(sig, L=2, n=32)
        fine_cost = fine_grid_opt(sig, L=2, n_fine=4096).energy()
        worst_low = max(worst_low, res.cost_appopt - fine_cost)
        worst_high = max(worst_high, fine_cost - res.cost_subopt)
    ok = worst_low <= 1e-7 and worst_high <= 1e-7
    _report(
        "C04",
        "sandwich",
        ok,
        f"max(appopt-fine)={worst_low:.2e} max(fine-subopt)={worst_high:.2e}",
    )


def test_c05_nested_monotonicity(star_signal):
    worst = 0.0
    signals = [smooth_signal(seed) for seed in range(10)] + [star_signal]
    for sig in signals:
        costs = [approximate(sig, L=1, n=n).cost_appopt for n in (8, 16, 32, 64, 128)]
        for lo, hi in zip(costs, costs[1:]):
            worst = max(worst, lo - hi)
    ok = worst <= 1e-8
    _report("C05", "nested-monotonicity", ok, f"worst decrease={worst:.2e}")


def test_c06_convergence_plateau(star_signal):
    start = time.perf_counter()
    ns = (16, 32, 64, 128, 256, 512)
    costs = [approximate(star_signal, L=1, n=n).cost_appopt for n in ns]
    elapsed = time.perf_counter() - start
    rels = [abs(b - a) / a for a, b in zip(costs, costs[1:])]
    ok = max(rels) < 0.01 and elapsed < 5.0
    _report(
        "C06",
        "convergence-plateau",
        ok,
        f"max rel change={max(rels):.4%} runtime={elapsed:.2f}s",
    )


def test_c07_certification(runs):
    worst = np.inf
    uncertified = []
    for label, _sig, res in runs:
        worst = min(worst, res.min_margin)
        if not (res.certified and res.min_margin >= -1e-9):
            uncertified.append(label)
    ok = not uncertified
    _report(
        "C07",
        "envelope-certification",
        ok,
        f"min margin={worst:.2e} over {len(runs)} runs"
        + (f" failures={uncertified}" if uncertified else ""),
    )


def test_c08_derivative_bounds():
    rng = np.random.default_rng(2024)
    t = np.arange(4096) / 4096
    worst_slope_excess = -np.inf
    worst_cap_excess = -np.inf
    for _ in range(100):
        env = _random_envelope(rng)
        values = env.evaluate(t)
        grid_slope = float(np.max(np.abs(np.roll(values, -1) - values)) * 4096)
        cap = 2 * np.pi * env.L * np.sqrt(2 * env.L + 1) * np.sqrt(env.energy())
        worst_slope_excess = max(worst_slope_excess, grid_slope - env.derivative_bound())
        worst_cap_excess = max(worst_cap_excess, env.derivative_bound() - cap)
    ok = worst_slope_excess <= 0.0 and worst_cap_excess <= 1e-9
    _report(
        "C08",
        "derivative-bounds",
        ok,
        f"max(grid-exact)={worst_slope_excess:.2e} max(exact-apriori)={worst_cap_excess:.2e}",
    )


def test_c09_kkt_certificates(runs):
    worst = {"primal": 0.0, "comp": 0.0, "stat": 0.0}
    checked = 0
    for _label, sig, res in runs:
        diag = res.solver_diag
        if not diag.converged:
            continue
        problem = build_constraints(sig, res.L, res.n)
        primal, dual, comp, stat = kkt_residuals(problem, diag)
        worst["primal"] = max(worst["primal"], primal)
        worst["comp"] = max(worst["comp"], comp)
        worst["stat"] = max(worst["stat"], stat)
        checked += 1
        if dual != 0.0:
            _report("C09", "kkt-certificates", False, f"negative multiplier: {dual}")
    ok = (
        checked == len(runs)
        and worst["primal"] <= 1e-9
        and worst["stat"] <= 1e-8
        and worst["comp"] <= 1e-8
    )
    _report(
        "C09",
        "kkt-certificates",
        ok,
        f"{checked} solves, primal<={worst['primal']:.2e} "
        f"comp<={worst['comp']:.2e} stat<={worst['stat']:.2e}",
    )


def test_c10_superset_property(star_contour, star_signal, runs):
    star_runs = [
        (label, res)
        for label, sig, res in runs
        if sig is star_signal and res.certified
    ]
    assert star_runs, "no certified star results to audit"
    failures = []
    worst = np.inf
    for label, res in star_runs:
        margins, r_max = vertex_margins(res.subopt, star_contour)
        worst = min(worst, float(np.min(margins)))
        if np.any(margins < -1e-9 * r_max):
            failures.append(label)
    ok = not failures
    _report(
        "C10",
        "superset-property",
        ok,
        f"{len(star_runs)} certified star regions, worst vertex margin {worst:+.3g}"
        + (f" failures={failures}" if failures else ""),
    )
