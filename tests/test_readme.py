"""The README's library sketch runs and gives the values its comments state,
and every command of its command-line examples runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from nlprobe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section_block(heading, language):
    """The first fenced code block in the given language under a README heading."""
    section = README.read_text().split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_sketch_gives_its_commented_values():
    code = section_block("Library sketch", "python")
    for comment in ("# (72, 16, 32, 0)", "# 128/88", "m[0] = 1", "# ~0.030330"):
        assert comment in code
    scope = {}
    exec(code, scope)
    assert scope["fm"].as_tuple() == pytest.approx((72, 16, 32, 0), rel=1e-12, abs=1e-12)
    assert scope["cs"] == pytest.approx(128 / 88, rel=1e-12)
    assert scope["m"][0] == 1
    assert scope["n_th"] == pytest.approx(0.030330, abs=5e-7)


COMMANDS = [shlex.split(line)[1:] for line in section_block("Command line", "sh").splitlines()
            if line.startswith("nlprobe ")]


def test_command_line_block_holds_every_subcommand():
    assert sorted({argv[0] for argv in COMMANDS}) == [
        "opt-gamma", "qfi", "scan-gamma", "scan-phase", "selftest", "threshold"
    ]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_line_example_exits_zero(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_text()
