"""The README's library sketch runs and gives the values its comments state."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_gives_its_commented_values():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    for comment in ("# (72, 16, 32, 0)", "# 128/88", "m[0] = 1", "# ~0.030330"):
        assert comment in code
    scope = {}
    exec(code, scope)
    assert scope["fm"].as_tuple() == pytest.approx((72, 16, 32, 0), rel=1e-12, abs=1e-12)
    assert scope["cs"] == pytest.approx(128 / 88, rel=1e-12)
    assert scope["m"][0] == 1
    assert scope["n_th"] == pytest.approx(0.030330, abs=5e-7)
