import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from envlp import (
    Contour,
    FourierEnvelope,
    PeriodicSignal,
    cli,
    qp,
    radial_parametrize,
    read_polygon_csv,
    read_signal_csv,
    solver,
    write_signal_csv,
)
from envlp.cli import SWEEP_COLUMNS, dumps, main
from envlp.errors import NotConverged
from envlp.signals import format_floats

from conftest import count_error, overhang_disk, star_points


@pytest.fixture()
def cos_csv(tmp_path):
    t = np.arange(1024) / 1024
    path = tmp_path / "cos.csv"
    write_signal_csv(path, np.cos(2 * np.pi * t))
    return str(path)


@pytest.fixture()
def const_csv(tmp_path):
    path = tmp_path / "const.csv"
    write_signal_csv(path, np.full(64, 2.0))
    return str(path)


@pytest.fixture()
def star_csv(tmp_path):
    path = tmp_path / "star.csv"
    np.savetxt(tmp_path / "star_poly.csv", star_points(), delimiter=",")
    rc = main(["ingest", str(tmp_path / "star_poly.csv"), "--samples", "1024", "--out", str(path)])
    assert rc == 0
    return str(path)


def _bits(value):
    """``value`` with each float as its hex text, so equality is bit for bit."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


class TestFormatting:
    @pytest.mark.parametrize(
        "x, text",
        [
            (1 / 3, "0.3333333333333333"),
            (2.0, "2.0"),
            (-0.0, "-0.0"),
            (5e-324, "5e-324"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
        ],
        ids=["third", "two", "negative_zero", "subnormal", "largest"],
    )
    def test_float_is_shortest_repr(self, x, text):
        assert format_floats([x]) == format_floats(np.array([x])) == [repr(x)] == [text]
        assert float(text).hex() == x.hex()

    def test_non_finite_rejected(self):
        for values in ([float("nan")], [1.0, float("inf")], np.array([-np.inf])):
            with pytest.raises(ValueError):
                format_floats(values)
        with pytest.raises(ValueError):
            dumps({"a": [1.0, float("nan")]})

    def test_dumps_deterministic_structure(self):
        payload = {"a": 1, "b": [1.5, True, None, []], "c": {"d": "x", "e": {}}}
        assert dumps(payload) == json.dumps(payload, indent=2)
        assert json.loads(dumps(payload)) == payload


class TestApproximate:
    def test_constant_signal_certified(self, const_csv, capsys):
        rc = main(["approximate", const_csv, "--L", "1", "--n", "64"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["certified"] is True
        assert out["gap_bound"] <= 1e-8
        assert out["solver"]["converged"] is True

    def test_cosine_with_user_slope(self, cos_csv, capsys):
        rc = main(
            ["approximate", cos_csv, "--L", "1", "--n", "64", "--lipschitz", "6.2832"]
        )
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["cost_appopt"] == pytest.approx(1 / 3, abs=2e-3)
        assert out["c"] == 6.2832

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["approximate", str(tmp_path / "nope.csv"), "--L", "1", "--n", "8"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_out_of_range_samples_rejected(self, tmp_path, capsys):
        # Costs square the samples: at 1e155 they would overflow the float range.
        path = tmp_path / "huge.csv"
        t = np.arange(64) / 64
        write_signal_csv(path, 1e155 * (1.5 + np.cos(2 * np.pi * t)))
        assert main(["approximate", str(path), "--L", "2", "--n", "32"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("envlp: error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bound", ["user", "estimated"])
    def test_lift_out_of_float_range_rejected(self, cos_csv, tmp_path, capsys, bound):
        # The lifted DC squares into the cost; at (c + c')/n near 1e154 and
        # above, the cost would leave the float range.
        if bound == "user":
            argv = ["approximate", cos_csv, "--L", "1", "--n", "64", "--lipschitz", "1e160"]
        else:
            path = tmp_path / "alternating.csv"
            write_signal_csv(path, np.resize([1e150, -1e150], 16384))
            argv = ["approximate", str(path), "--L", "1", "--n", "3"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("envlp: error: ")
        assert "float range" in captured.err
        assert captured.err.count("\n") == 1

    def test_output_file_byte_identical(self, cos_csv, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            rc = main(["approximate", cos_csv, "--L", "2", "--n", "32", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestIngest:
    def test_square_signal_range(self, tmp_path, capsys):
        poly = tmp_path / "square.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], delimiter=",")
        out = tmp_path / "square_signal.csv"
        rc = main(["ingest", str(poly), "--samples", "256", "--out", str(out)])
        assert rc == 0
        values = [float(v) for v in out.read_text().split()]
        assert len(values) == 256
        # Each sample is the largest distance one ray either side of its own.
        assert min(values) == pytest.approx(0.5 / np.cos(2 * np.pi / 256), abs=1e-9)
        assert max(values) == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
        sidecar = json.loads((tmp_path / "square_signal.json").read_text())
        assert sidecar["centroid"] == pytest.approx([0.5, 0.5])
        assert sidecar["star_shaped"] is True
        # The text parses back to the values computed in process, bit for bit.
        contour = Contour(read_polygon_csv(poly))
        sig = radial_parametrize(contour, M=256)
        assert _bits(values) == _bits(sig.samples.tolist())
        assert _bits(sidecar["centroid"]) == _bits(contour.centroid)
        assert _bits(sidecar["lipschitz_c"]) == _bits(sig.lipschitz_c)

    def test_triangle_has_three_peaks(self, tmp_path):
        poly = tmp_path / "tri.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (0, 1)], delimiter=",")
        out = tmp_path / "tri_signal.csv"
        assert main(["ingest", str(poly), "--samples", "256", "--out", str(out)]) == 0
        r = np.array([float(v) for v in out.read_text().split()])
        # A corner between two rays tops two equal samples.
        peaks = sum(
            1 for i in range(256) if r[i] > r[i - 1] and r[i] >= r[(i + 1) % 256]
        )
        assert peaks == 3

    def test_two_point_polygon(self, tmp_path, capsys):
        poly = tmp_path / "bad.csv"
        poly.write_text("0,0\n1,1\n")
        out = tmp_path / "bad_signal.csv"
        assert main(["ingest", str(poly), "--samples", "256", "--out", str(out)]) == 1

    @pytest.mark.parametrize("name", ["sig.json", "sig.JSON"])
    def test_json_out_rejected(self, tmp_path, capsys, name):
        # The sidecar path of sig.json is sig.json itself.
        poly = tmp_path / "square.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], delimiter=",")
        out = tmp_path / name
        assert main(["ingest", str(poly), "--samples", "64", "--out", str(out)]) == 1
        assert "envlp: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_out_is_required(self, tmp_path, capsys):
        # Without --out there is nowhere for the signal and its sidecar to go.
        poly = tmp_path / "poly.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], delimiter=",")
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", str(poly), "--samples", "64"])
        assert exit_info.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_sidecar_flags_overhang_between_rays(self, tmp_path):
        poly = tmp_path / "overhang.csv"
        np.savetxt(poly, overhang_disk(), delimiter=",")
        out = tmp_path / "overhang_signal.csv"
        assert main(["ingest", str(poly), "--samples", "64", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "overhang_signal.json").read_text())
        assert sidecar["star_shaped"] is False

    def test_sample_cap_checked_before_casting(self, tmp_path, capsys):
        poly = tmp_path / "square.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], delimiter=",")
        out = tmp_path / "square_signal.csv"
        rc, peak = traced_peak(
            main, ["ingest", str(poly), "--samples", "1000001", "--out", str(out)]
        )
        assert rc == 1
        assert "envlp: error:" in capsys.readouterr().err
        assert peak < 4e6  # one float per ray would take 8 MB

    @pytest.mark.parametrize("samples", ["10", "1000001"])
    def test_sample_count_error_names_the_flag(self, tmp_path, capsys, samples):
        # The message used to name the library's parameter M instead.
        poly = tmp_path / "square.csv"
        np.savetxt(poly, [(0, 0), (1, 0), (1, 1), (0, 1)], delimiter=",")
        out = tmp_path / "square_signal.csv"
        assert main(["ingest", str(poly), "--samples", samples, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"envlp: error: --samples must be an integer from 64 to 1000000, got {samples}\n"
        )


def traced_peak(func, *args):
    """``func(*args)`` and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSweep:
    def test_cosine_chain_monotone(self, cos_csv, capsys):
        rc = main(["sweep", cos_csv, "--L", "1", "--n", "4,8,16,32,64"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        costs = [row["cost_appopt"] for row in rows]
        assert all(b >= a - 1e-8 for a, b in zip(costs, costs[1:]))
        assert [row["n"] for row in rows] == [4, 8, 16, 32, 64]

    def test_star_costs_non_increasing_in_budget(self, star_csv, capsys):
        rc = main(["sweep", star_csv, "--L", "1,2,3,4,5", "--n", "64"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 0
        costs = [row["cost_appopt"] for row in rows]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("n_list", [[48, 64, 96], [1024, 64, 32]])
    def test_unnested_grids_warm_start_and_match_cold(
        self, star_csv, capsys, monkeypatch, n_list
    ):
        sig = PeriodicSignal.from_samples(read_signal_csv(star_csv))
        cold = {(L, n): solver.approximate(sig, L, n) for L in (1, 5) for n in n_list}
        warm_rows = []
        real = qp.solve

        def recording(problem, initial_lam=None):
            solution = real(problem, initial_lam=initial_lam)
            warm_rows.append(solution.warm_rows)
            return solution

        monkeypatch.setattr(qp, "solve", recording)
        flags = ["--L", "1,5", "--n", ",".join(map(str, n_list))]
        assert main(["sweep", star_csv, *flags]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert warm_rows[0] == warm_rows[3] == 0
        assert min(warm_rows[1:3] + warm_rows[4:]) > 0
        for row in rows:
            ref = cold[row["L"], row["n"]]
            assert row["solver"]["converged"]
            params = FourierEnvelope.from_dict(row["appopt"]).params()
            expected = ref.appopt.params()
            assert np.max(np.abs(params - expected)) <= 1e-9 * np.max(np.abs(expected))
            for key in ("cost_appopt", "cost_subopt", "gap_bound"):
                assert row[key] == pytest.approx(getattr(ref, key), rel=1e-9)

    def test_keeps_one_multiplier_vector(self, cos_csv, capsys):
        # Only the current L's multipliers warm-start the next n, so a sweep
        # over eight budgets holds no more than one over the largest alone.
        flags = ["--n", "20000,40000"]
        _, single = traced_peak(main, ["sweep", cos_csv, "--L", "8", *flags])
        _, many = traced_peak(main, ["sweep", cos_csv, "--L", "1,2,3,4,5,6,7,8", *flags])
        capsys.readouterr()
        assert many < single + 8 * 40000  # one more length-n float vector at most

    def test_empty_n_list(self, cos_csv, capsys):
        assert main(["sweep", cos_csv, "--L", "1", "--n", ""]) == 1

    def test_pair_below_parameter_count(self, cos_csv):
        assert main(["sweep", cos_csv, "--L", "5", "--n", "8"]) == 1

    def test_failing_row_flagged_and_continues(self, cos_csv, capsys, monkeypatch):
        real = solver.approximate

        def fail_at_16(sig, L, n, **kwargs):
            if n == 16:
                raise NotConverged("qp: forced failure")
            return real(sig, L=L, n=n, **kwargs)

        monkeypatch.setattr(solver, "approximate", fail_at_16)
        rc = main(["sweep", cos_csv, "--L", "0", "--n", "8,16,32"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert "cost_appopt" in rows[0]
        assert rows[1] == {"L": 0, "n": 16, "error": "qp: forced failure"}
        assert "cost_appopt" in rows[2]

    def test_lift_out_of_float_range_is_an_error_row(self, cos_csv, capsys):
        rc = main(["sweep", cos_csv, "--L", "1", "--n", "64", "--lipschitz", "1e160"])
        rows = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert rows == [{"L": 1, "n": 64, "error": rows[0]["error"]}]
        assert "float range" in rows[0]["error"]

    def test_error_rows_in_csv_table(self, cos_csv, capsys):
        flags = ["--L", "1", "--n", "32,64", "--lipschitz", "1e160", "--format", "csv"]
        rc = main(["sweep", cos_csv, *flags])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 3
        assert lines[1:] == ["1,32,,,,error,", "1,64,,,,error,"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--L", "1,x", "--n", "64"], "bad integer list '1,x'"),
            (["--L", "1"], "the following arguments are required: --n"),
        ],
        ids=["bad_list", "missing_n"],
    )
    def test_argparse_error_exits_2(self, cos_csv, capsys, flags, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", cos_csv, *flags])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_csv_table_format(self, cos_csv, capsys):
        rc = main(["sweep", cos_csv, "--L", "1", "--n", "8,16", "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "L,n,cost_appopt,cost_subopt,gap_bound,certified,min_margin"
        assert len(lines) == 3
        assert lines[1].startswith("1,8,")

    def test_byte_identical_output(self, star_csv, tmp_path):
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        for out in (out1, out2):
            rc = main(["sweep", star_csv, "--L", "1,2", "--n", "16,32", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["approximate", "sweep"])
    @pytest.mark.parametrize(
        "signal, flags, message",
        [
            ("cos", ["--L", "65", "--n", "200"], count_error("harmonic budget", 0, 64, 65)),
            ("cos", ["--L", "1", "--n", "2"], count_error("n", 3, 10 ** 6, 2)),
            ("cos", ["--L", "1", "--n", "2000000"], count_error("n", 3, 10 ** 6, 2000000)),
            ("cos", ["--L", "1", "--n", "64", "--lipschitz", "nan"], "^slope bound"),
            # The run is checked before the signal file is opened.
            ("missing", ["--L", "65", "--n", "200"], count_error("harmonic budget", 0, 64, 65)),
        ],
        ids=["L65", "n2", "n2e6", "lipschitz_nan", "L65_missing_csv"],
    )
    def test_invalid_run_rejected_before_solving(
        self, cos_csv, tmp_path, capsys, monkeypatch, command, signal, flags, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved an invalid run")

        monkeypatch.setattr(qp, "solve", no_solve)
        path = cos_csv if signal == "cos" else str(tmp_path / "missing.csv")
        assert main([command, path] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "envlp: error: "
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert re.search(message, captured.err[len(prefix):-1])

    @pytest.mark.parametrize("command", ["approximate", "sweep"])
    def test_grid_is_not_a_solve_flag(self, cos_csv, capsys, command):
        # Only certify takes a certification grid.
        with pytest.raises(SystemExit) as exit_info:
            main([command, cos_csv, "--L", "1", "--n", "64", "--grid", "8192"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --grid 8192" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--L", "2,2", "--n", "8"], "--L lists 2 more than once"),
         (["--L", "1", "--n", "8,16,8"], "--n lists 8 more than once")],
        ids=["L", "n"],
    )
    def test_repeated_value_rejected_before_reading(self, tmp_path, capsys, flags, message):
        # The signal path does not exist: the flags are checked first.
        assert main(["sweep", str(tmp_path / "missing.csv"), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"envlp: error: {message}\n"

    def test_csv_cells_render_json_fields(self, star_csv, capsys, monkeypatch):
        flags = [star_csv, "--L", "0,1,2", "--n", "16,32"]
        assert main(["sweep", *flags]) == 0
        rows = json.loads(capsys.readouterr().out)
        tables = []
        real = cli._sweep_csv
        monkeypatch.setattr(cli, "_sweep_csv", lambda rows: tables.append(rows) or real(rows))
        assert main(["sweep", *flags, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(rows) + 1
        for row, computed, line in zip(rows, tables[0], lines[1:]):
            cells = line.split(",")
            assert cells == [json.dumps(row[key]) for key in SWEEP_COLUMNS]
            # The cells parse back to the values computed in process, bit for bit.
            parsed = [json.loads(cell) for cell in cells]
            assert _bits(parsed) == _bits([computed[key] for key in SWEEP_COLUMNS])


class TestCertify:
    def _result_file(self, cos_csv, tmp_path):
        path = tmp_path / "result.json"
        rc = main(
            ["approximate", cos_csv, "--L", "1", "--n", "64", "--out", str(path)]
        )
        assert rc == 0
        return path

    def test_denser_grid_still_certified(self, cos_csv, tmp_path, capsys):
        result = self._result_file(cos_csv, tmp_path)
        rc = main(["certify", str(result), cos_csv, "--grid", "32768"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["certified"] is True

    def test_lowered_dc_fails(self, cos_csv, tmp_path, capsys):
        result = self._result_file(cos_csv, tmp_path)
        payload = json.loads(result.read_text())
        payload["subopt"]["b0"] -= 1.0
        result.write_text(json.dumps(payload))
        rc = main(["certify", str(result), cos_csv])
        report = json.loads(capsys.readouterr().out)
        assert rc == 3
        assert report["min_margin"] < 0

    def test_mismatched_budget(self, cos_csv, tmp_path, capsys):
        result = self._result_file(cos_csv, tmp_path)
        payload = json.loads(result.read_text())
        payload["subopt"]["b_re"] = [0.1, 0.2]
        result.write_text(json.dumps(payload))
        assert main(["certify", str(result), cos_csv]) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda payload: [payload, payload],
            lambda payload: {k: v for k, v in payload.items() if k != "subopt"},
            lambda payload: {**payload, "subopt": [1.0, 0.0, 0.0]},
            lambda payload: {**payload, "subopt": {**payload["subopt"], "L": [1]}},
        ],
        ids=["sweep_array", "no_subopt", "subopt_list", "L_list"],
    )
    def test_payload_not_a_result(self, cos_csv, tmp_path, capsys, edit):
        result = self._result_file(cos_csv, tmp_path)
        result.write_text(json.dumps(edit(json.loads(result.read_text()))))
        assert main(["certify", str(result), cos_csv]) == 1
        assert "envlp: error:" in capsys.readouterr().err

    def test_deeply_nested_json_is_an_input_error(self, cos_csv, tmp_path, capsys):
        result = tmp_path / "deep.json"
        result.write_text("[" * 100000 + "]" * 100000)
        assert main(["certify", str(result), cos_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"envlp: error: {result}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "subopt",
        [
            '{"L": 1.7, "b0": 2.0, "b_re": [0.0], "b_im": [0.0]}',
            '{"L": 1e400, "b0": 2.0, "b_re": [0.0], "b_im": [0.0]}',
            '{"L": true, "b0": 2.0, "b_re": [0.0], "b_im": [0.0]}',
            '{"L": 65, "b0": 2.0, "b_re": [0.0], "b_im": [0.0]}',
            '{"L": 1, "b0": 2.0, "b_re": 0.5, "b_im": [[0.0]]}',
            '{"L": 1, "b0": 2.0, "b_re": [[0.5]], "b_im": [0.0]}',
        ],
        ids=["L_fraction", "L_overflow", "L_bool", "L_65", "coeff_scalar", "coeff_nested"],
    )
    def test_malformed_envelope_rejected(self, cos_csv, tmp_path, capsys, subopt):
        result = tmp_path / "result.json"
        result.write_text('{"subopt": ' + subopt + "}")
        assert main(["certify", str(result), cos_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "envlp: error:" in captured.err

    def test_grid_cap_checked_before_evaluating(self, cos_csv, tmp_path, capsys):
        result = self._result_file(cos_csv, tmp_path)
        capsys.readouterr()
        rc, peak = traced_peak(main, ["certify", str(result), cos_csv, "--grid", "1000001"])
        assert rc == 1
        assert "envlp: error:" in capsys.readouterr().err
        assert peak < 4e6  # one float per grid point would take 8 MB

    def test_grid_floor_checked_before_evaluating(self, cos_csv, tmp_path, capsys, monkeypatch):
        result = self._result_file(cos_csv, tmp_path)
        capsys.readouterr()

        def no_grid(*args, **kwargs):
            raise AssertionError("evaluated on an invalid grid")

        monkeypatch.setattr(solver, "_GridProblem", no_grid)
        assert main(["certify", str(result), cos_csv, "--grid", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("envlp: error: certification grid")
        assert captured.err.count("\n") == 1

    def test_grid_checked_before_reading_files(self, tmp_path, capsys):
        missing = [str(tmp_path / "missing.json"), str(tmp_path / "missing.csv")]
        assert main(["certify", *missing, "--grid", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "envlp: error: certification grid must be an integer from 16 to 1000000, got 8\n"
        )

    def test_dc_with_energy_out_of_float_range_rejected(self, cos_csv, tmp_path, capsys):
        result = self._result_file(cos_csv, tmp_path)
        payload = json.loads(result.read_text())
        payload["subopt"]["b0"] = 1e160
        result.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["certify", str(result), cos_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("envlp: error:")
        assert captured.err.count("\n") == 1


_SHARED_FLAGS = {
    "approximate": ["signal_csv", "--lipschitz", "--cprime-mode", "--out"],
    "ingest": ["polygon_csv", "--out"],
    "sweep": ["signal_csv", "--lipschitz", "--cprime-mode", "--out"],
    "certify": ["result_json", "signal_csv", "--grid", "--out"],
}


@pytest.mark.parametrize("command", sorted(_SHARED_FLAGS))
def test_help_lists_shared_flags(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for flag in _SHARED_FLAGS[command]:
        assert flag in text


_NUMPY_ONLY = r"""
import importlib.abc, json, sys

class Unavailable(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "shapely"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, Unavailable())
for name in ("scipy", "shapely"):
    try:
        __import__(name)
    except ModuleNotFoundError:
        pass
    else:
        raise SystemExit(f"{name} was importable")

from envlp.cli import main

poly, sig, result = sys.argv[1:]
codes = [
    main(["ingest", poly, "--samples", "256", "--out", sig]),
    main(["approximate", sig, "--L", "2", "--n", "32", "--out", result]),
    main(["sweep", sig, "--L", "1,2", "--n", "16,32", "--out", result + ".sweep"]),
    main(["certify", result, sig, "--out", result + ".cert"]),
]
print(json.dumps(codes))
"""


def test_cli_needs_only_numpy(tmp_path):
    # scipy and shapely are made unimportable: numpy is the only runtime
    # dependency the package declares.
    poly = tmp_path / "star_poly.csv"
    np.savetxt(poly, star_points(), delimiter=",")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [str(poly), str(tmp_path / "star.csv"), str(tmp_path / "result.json")]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ONLY, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0, 0, 0]
