import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import envlp
from envlp import (
    Contour,
    FourierEnvelope,
    PeriodicSignal,
    QpProblem,
    kkt_residuals,
    radial_parametrize,
    reconstruct_region,
    solve,
)
from envlp.cli import main

from conftest import star_points

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    assert len(set(envlp.__all__)) == len(envlp.__all__)
    missing = [name for name in envlp.__all__ if not hasattr(envlp, name)]
    assert missing == []


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, f"{README}:quick start", "exec"), namespace)
    result = namespace["result"]
    assert result.cost_appopt == pytest.approx(1 / 3, abs=1e-12)
    assert result.certified is True


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # Each line of the block, in order, on the star polygon it names.
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("envlp ")]
    assert [argv[1] for argv in commands] == ["ingest", "approximate", "sweep", "certify"]
    monkeypatch.chdir(tmp_path)
    np.savetxt("star_polygon.csv", star_points(), delimiter=",")
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


_ARC = np.linspace(-0.75 * np.pi, 0.75 * np.pi, 8)
# A horseshoe whose centroid lies in its gap, so some rays miss it.
_HORSESHOE = np.vstack(
    (2.0 * np.column_stack((np.cos(_ARC), np.sin(_ARC))),
     1.8 * np.column_stack((np.cos(_ARC[::-1]), np.sin(_ARC[::-1]))))
)
_UNIT_QP = QpProblem(q_diag=[1.0], a_rows=[[1.0]], g=[0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PeriodicSignal([1.0, 2.0]), "need at least 4 samples, got 2"),
        (
            lambda: PeriodicSignal([0.0, 1.0, np.inf, 1.0]),
            "signal samples must be finite and at most 1e+150 in magnitude",
        ),
        (
            lambda: PeriodicSignal([0.0, 1.0, 0.0, 1.0], lipschitz_c=1.0),
            "slope bound 1.0 is below the observed discrete slope 4.0",
        ),
        (
            lambda: Contour([(0, 0), (2, 2), (2, 0), (0, 1)]),
            "polygon edges 0 and 2 cross each other",
        ),
        (
            lambda: radial_parametrize(Contour(_HORSESHOE), M=64),
            "ray at angle -3.141593 missed the boundary; is the centroid inside the polygon?",
        ),
        (
            lambda: reconstruct_region(FourierEnvelope(L=0, b0=-1.0, b_re=[], b_im=[]), M=8),
            "envelope reaches -1 <= 0; radial reconstruction is undefined",
        ),
        (
            lambda: QpProblem(q_diag=[1.0, 1.0], a_rows=np.ones((1, 3)), g=[0.0]),
            "a_rows has shape (1, 3) but q_diag has length 2",
        ),
        (
            lambda: kkt_residuals(_UNIT_QP, SimpleNamespace(x=[0.0, 0.0], lam=[0.0])),
            "x has length 2, expected 1",
        ),
        (
            lambda: solve(_UNIT_QP, initial_lam=[1.0, 1.0]),
            "initial_lam has length 2, expected 1",
        ),
    ],
    ids=[
        "too_few_samples", "non_finite_sample", "slope_bound_too_small", "crossing_polygon",
        "ray_misses", "nonpositive_radius", "qp_shapes", "kkt_shapes", "warm_start_length",
    ],
)
def test_input_errors_are_plain_value_errors(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
