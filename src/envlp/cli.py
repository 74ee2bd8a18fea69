"""Command-line front end: approximate, ingest, sweep, certify.

Exit codes: 0 success (certified where applicable), 3 uncertified result or
failed sweep rows, 1 input errors (``ValueError``, ``OSError``) or a QP that
does not solve (``NotConverged``), 2 errors argparse reports (an unknown flag,
or a missing or malformed value).  Output is deterministic: each float is its
shortest round-trip ``repr``, which parses back bit for bit, and payloads
carry no timestamps, so identical inputs give byte-identical output on the
same numpy build and BLAS thread count; across those the last digits of a
float may differ.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product

from . import solver
from .contour import _MIN_RAYS, Contour, radial_parametrize, read_polygon_csv
from .errors import NotConverged
from .fourier import FourierEnvelope, _check_count
from .signals import PeriodicSignal, read_signal_csv, write_signal_csv

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 3

_CPRIME_FLAGS = {"exact": solver.EXACT_POSTSOLVE, "apriori": solver.APRIORI}

SWEEP_COLUMNS = (
    "L",
    "n",
    "cost_appopt",
    "cost_subopt",
    "gap_bound",
    "certified",
    "min_margin",
)


def dumps(value) -> str:
    """JSON text with two-space indents and dict order kept; each float is
    its shortest round-trip ``repr`` (as :func:`signals.format_floats`), and
    a NaN or infinity raises ``ValueError``."""
    return json.dumps(value, indent=2, allow_nan=False)


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc
    return values


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_signal(path, lipschitz) -> PeriodicSignal:
    return PeriodicSignal.from_samples(read_signal_csv(path), lipschitz_c=lipschitz)


def cmd_approximate(args) -> int:
    solver.check_run(args.L, args.n)
    sig = _load_signal(args.signal_csv, args.lipschitz)
    result = solver.approximate(
        sig,
        L=args.L,
        n=args.n,
        c_prime_mode=_CPRIME_FLAGS[args.cprime_mode],
    )
    _emit(dumps(result.to_dict()), args.out)
    return EXIT_OK if result.certified else EXIT_UNCERTIFIED


def cmd_ingest(args) -> int:
    # The sidecar goes to the --out path with a .json extension.
    if os.path.splitext(args.out)[1].lower() == ".json":
        raise ValueError(f"--out {args.out!r} is the path of its own .json sidecar")
    _check_count(args.samples, _MIN_RAYS, "--samples")
    contour = Contour.from_points(read_polygon_csv(args.polygon_csv))
    sig = radial_parametrize(contour, M=args.samples)
    sidecar = {
        "centroid": [contour.centroid[0], contour.centroid[1]],
        "star_shaped": contour.star_shaped,
        "samples": sig.m,
        "lipschitz_c": sig.lipschitz_c,
    }
    write_signal_csv(args.out, sig.samples)
    _emit(dumps(sidecar), os.path.splitext(args.out)[0] + ".json")
    return EXIT_OK


def _sweep_rows(sig: PeriodicSignal, args):
    """One result dict per (L, n) pair, L-major; failures become error rows."""
    rows = []
    for L in args.L:
        lam = None  # the multipliers of this L's last solved n
        for n in args.n:
            try:
                result = solver.approximate(
                    sig,
                    L=L,
                    n=n,
                    c_prime_mode=_CPRIME_FLAGS[args.cprime_mode],
                    initial_lam=lam,
                )
            except (NotConverged, ValueError) as exc:
                rows.append({"L": L, "n": n, "error": str(exc)})
                continue
            lam = result.solver_diag.lam
            rows.append(result.to_dict())
    return rows


def _sweep_csv(rows) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['L']},{row['n']},,,,error,")
        else:
            lines.append(",".join(json.dumps(row[k], allow_nan=False) for k in SWEEP_COLUMNS))
    return "\n".join(lines)


def cmd_sweep(args) -> int:
    if not args.L or not args.n:
        raise ValueError("sweep needs at least one L and one n")
    for flag, values in (("--L", args.L), ("--n", args.n)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{flag} lists {value} more than once")
    for L, n in product(args.L, args.n):
        solver.check_run(L, n)
    rows = _sweep_rows(_load_signal(args.signal_csv, args.lipschitz), args)
    text = _sweep_csv(rows) if args.format == "csv" else dumps(rows)
    _emit(text, args.out)
    failed = any("error" in row or not row["certified"] for row in rows)
    return EXIT_UNCERTIFIED if failed else EXIT_OK


def cmd_certify(args) -> int:
    _check_count(args.grid, solver.MIN_CERTIFY_GRID, "certification grid")
    with open(args.result_json) as handle:
        try:
            payload = json.load(handle)
        except RecursionError:
            raise ValueError(f"{args.result_json} nests JSON too deeply to read") from None
    if not isinstance(payload, dict) or "subopt" not in payload:
        raise ValueError(f"{args.result_json} is not a result written by approximate")
    subopt = FourierEnvelope.from_dict(payload["subopt"])
    sig = _load_signal(args.signal_csv, None)
    certified, min_margin = solver.certify(subopt, sig, grid_m=args.grid)
    report = {
        "certified": certified,
        "min_margin": min_margin,
        "grid_m": args.grid,
        "L": subopt.L,
    }
    _emit(dumps(report), args.out)
    return EXIT_OK if certified else EXIT_UNCERTIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="envlp",
        description="Near-optimal always-above lowpass envelopes of periodic signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    solve = argparse.ArgumentParser(add_help=False)
    solve.add_argument("signal_csv")
    solve.add_argument("--lipschitz", type=float, default=None, help="signal slope bound")
    solve.add_argument("--cprime-mode", choices=sorted(_CPRIME_FLAGS), default="exact")

    p = sub.add_parser(
        "approximate", parents=[solve, out], help="solve one (L, n) run on a signal CSV"
    )
    p.add_argument("--L", type=int, required=True, help="harmonic budget")
    p.add_argument("--n", type=int, required=True, help="constraint count")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("ingest", help="polygon CSV -> radial signal CSV (+sidecar)")
    p.add_argument("polygon_csv")
    p.add_argument("--out", required=True, help="signal CSV; the sidecar gets .json")
    p.add_argument("--samples", type=int, default=1024, help="angular sample count")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "sweep", parents=[solve, out], help="grid of (L, n) runs; JSON array or CSV table"
    )
    p.add_argument("--L", type=_int_list, required=True, help="comma list, e.g. 1,2,5")
    p.add_argument("--n", type=_int_list, required=True, help="comma list, e.g. 8,16,32")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "certify", parents=[out], help="re-check a stored result against a signal"
    )
    p.add_argument("result_json")
    p.add_argument("signal_csv")
    p.add_argument("--grid", type=int, default=solver.DEFAULT_CERTIFY_GRID)
    p.set_defaults(func=cmd_certify)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (NotConverged, OSError, ValueError) as exc:
        print(f"envlp: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
