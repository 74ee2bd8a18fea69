"""Spans and counters recorded around the public functions ``envlp`` calls through.

The program has no tracing of its own yet, so the benchmark wraps the module
and class attributes that calls are looked up through at run time (for
example ``envlp.qp.solve``, which ``envlp.solver`` calls as ``qp.solve``).
A target that no longer exists after a refactor is reported as missing and
skipped; it never stops the run.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np


def _vertices(rec, a, result, exc):
    rec.add("contour.vertices", len(a["points"]))


def _rays(rec, a, result, exc):
    rec.add("contour.rays", int(a["M"]))


def _approximate(rec, a, result, exc):
    if result is not None and result.cost_subopt:
        rec.sample("solver.gap_rel", result.gap_bound / result.cost_subopt)


def _constraints(rec, a, result, exc):
    nbytes = int(a["n"]) * (2 * int(a["L"]) + 1) * 8
    rec.counters["solver.constraint_bytes"] = max(
        rec.counters["solver.constraint_bytes"], nbytes
    )


def _qp(rec, a, result, exc):
    rec.add("qp.solves", 1)
    warm = a.get("initial_lam") is not None
    rec.add("qp.warm_starts", int(warm))
    solution = result if result is not None else getattr(exc, "solution", None)
    if solution is None:
        rec.add("qp.not_converged", 1)
        return
    iterations = int(solution.iterations)
    path = "warm" if iterations == 0 else "active_set" if iterations == 1 else "sweeps"
    rec.add(f"qp.path.{path}", 1)
    if iterations > 1:
        rec.add("qp.sweep_iterations", iterations)
    if warm and iterations == 0:
        rec.add("qp.warm_hits", 1)
    rec.add("qp.not_converged", int(not solution.converged))
    working = int(np.count_nonzero(np.asarray(solution.lam) > 0.0))
    rec.counters["qp.working_set.max"] = max(rec.counters["qp.working_set.max"], working)


def _certify(rec, a, result, exc):
    rec.add("solver.certify_points", int(a["grid_m"]))


def _evaluate(rec, a, result, exc):
    rec.add("fourier.evaluate_terms", int(np.size(a["t"])) * int(a["self"].L))


# (span name, module, attribute path, observer).  Names imported into
# ``envlp.cli`` or ``envlp.solver`` are wrapped where those modules look them up.
TARGETS = (
    ("cli.main", "envlp.cli", "main", None),
    ("cli.dumps", "envlp.cli", "dumps", None),
    ("contour.read_polygon_csv", "envlp.cli", "read_polygon_csv", None),
    ("contour.from_points", "envlp.contour", "Contour.from_points", _vertices),
    ("contour.radial_parametrize", "envlp.cli", "radial_parametrize", _rays),
    ("contour.reconstruct_region", "envlp.contour", "reconstruct_region", None),
    ("signals.read_signal_csv", "envlp.cli", "read_signal_csv", None),
    ("signals.write_signal_csv", "envlp.cli", "write_signal_csv", None),
    ("signals.from_samples", "envlp.signals", "PeriodicSignal.from_samples", None),
    ("signals.value_at", "envlp.signals", "PeriodicSignal.value_at", None),
    ("solver.approximate", "envlp.solver", "approximate", _approximate),
    ("solver.build_constraints", "envlp.solver", "build_constraints", _constraints),
    ("fourier.phasor_matrix", "envlp.solver", "phasor_matrix", None),
    ("qp.solve", "envlp.qp", "solve", _qp),
    ("solver.lift_to_envelope", "envlp.solver", "lift_to_envelope", None),
    ("solver.gap_bound", "envlp.solver", "gap_bound", None),
    ("solver.certify", "envlp.solver", "certify", _certify),
    ("fourier.evaluate", "envlp.fourier", "FourierEnvelope.evaluate", _evaluate),
)


def _resolve(module: str, path: str):
    """Return ``(owner, name, raw attribute)`` or None when it has gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, raw


class Recorder:
    """In-memory spans ``(name, start, end, parent, job)`` plus counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self.missing: list = []
        self._patches: list = []

    def add(self, key: str, value) -> None:
        self.counters[key] += value

    def sample(self, key: str, value) -> None:
        self.samples[key].append(float(value))

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.job))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        name, start, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, job)

    def _wrap(self, name, fn, observer):
        rec = self
        signature = inspect.signature(fn) if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.begin(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                rec.end(idx)
                if observer:
                    # A counter that no longer fits the call must not break it.
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        observer(rec, bound.arguments, result, exc)
                    except (TypeError, KeyError, AttributeError, ValueError):
                        rec.add("trace.observer_errors", 1)

        return wrapper

    def install(self) -> None:
        """Wrap every target that still exists; note the rest as missing."""
        self.missing = []
        for name, module, path, observer in TARGETS:
            found = _resolve(module, path)
            if found is None or not callable(getattr(found[2], "__func__", found[2])):
                self.missing.append(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(name, raw.__func__, observer))
            else:
                patched = self._wrap(name, raw, observer)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return dict(totals)

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]
