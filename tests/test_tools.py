"""tools/same_bytes.py, on two trees that differ only in the version they print."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANS = ("scan-phase", "scan-gamma", "opt-gamma")
COMMANDS = (*SCANS, "qfi", "threshold", "selftest")


def operations(monkeypatch, tmp_path):
    """(workload, index, label) of every operation that perfbench builds at seed 1."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return {(workload, i, op.label) for workload in workloads.WORKLOADS
            for i, op in enumerate(workloads.build(workload, 1, tmp_path))}


def test_same_bytes_lists_the_scans_of_a_tree_with_another_version(monkeypatch, tmp_path):
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    init = change / "nlprobe" / "__init__.py"
    text, count = re.subn(r'^__version__ = "(.*)"$', r'__version__ = "\1.changed"', init.read_text(), flags=re.M)
    assert count == 1
    init.write_text(text)
    argv = [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT / "src"), str(change), "--seeds", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    reports = re.findall(r"^(\w+) seed 1 op (\d+) (.*)\n((?:  .*\n)+)", proc.stdout, flags=re.M)
    ops = operations(monkeypatch, tmp_path / "ops")
    scans = {op for op in ops if op[2].startswith(SCANS)}
    library = {op for op in ops if not op[2].startswith(COMMANDS)}
    listed = {(w, int(i), label) for w, i, label, _ in reports}
    assert scans and library and listed == scans
    for *_, fields in reports:
        # the --out file differs at its version line, and with it the text the operation returned
        assert re.findall(r"^  (\S+): ", fields, flags=re.M) == ["result", ".out"]
        assert "version=" in fields and ".changed" in fields
    # every library call, and every command that prints no version, reads the same on both trees
    assert proc.stdout.endswith(f"\n{len(ops)} operations, {len(scans)} differ\n")
