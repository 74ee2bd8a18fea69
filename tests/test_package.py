import re
from pathlib import Path

import pytest

import envlp

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
