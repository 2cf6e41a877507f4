"""tools/same_bytes.py, on two trees that differ only in the version they
print, on two whose optimizer screens its ends at another distance, and on
two whose joint threshold search stops at another width."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANS = ("scan-phase", "scan-gamma", "opt-gamma")
COMMANDS = (*SCANS, "qfi", "threshold", "selftest")
SPEC = importlib.util.spec_from_file_location("same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_bytes)


def operations(monkeypatch, tmp_path):
    """(workload, index, label) of every operation that perfbench builds at seed 1."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return {(workload, i, op.label) for workload in workloads.WORKLOADS
            for i, op in enumerate(workloads.build(workload, 1, tmp_path))}


def changed_tree(tmp_path, module, pattern, replacement):
    """A copy of src in which one line of nlprobe/module matches pattern and is replaced."""
    change = tmp_path / "src"
    shutil.copytree(ROOT / "src", change, ignore=shutil.ignore_patterns("__pycache__"))
    path = change / "nlprobe" / module
    text, count = re.subn(pattern, replacement, path.read_text(), flags=re.M)
    assert count == 1
    path.write_text(text)
    return change


def same_bytes_on(change):
    argv = [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT / "src"), str(change), "--seeds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_the_optimizer_rows_are_one_fixed_set_over_every_target():
    rows = same_bytes.optimizer_rows()
    assert rows == same_bytes.optimizer_rows() and len(rows) == same_bytes.ROWS == 2000
    assert {kind for kind, *_ in rows} == {"f_lambda", "f_zeta", "joint"}
    assert {zeta for _, zeta, _, _ in rows} == set(range(1, 13))
    assert all(1e-2 <= lam <= 1e2 and 1e-4 <= n <= 1e8 for _, _, lam, n in rows)


def test_the_threshold_rows_are_one_fixed_set_over_every_target_and_order():
    rows = same_bytes.threshold_rows()
    assert rows == same_bytes.threshold_rows() and len(rows) == 3 * 12 * same_bytes.THRESHOLDS
    assert sorted((kind, zeta) for kind, zeta, _, _ in rows) == sorted(
        (kind, zeta) for kind in ("f_lambda", "f_zeta", "joint") for zeta in range(1, 13)
        for _ in range(same_bytes.THRESHOLDS))
    assert all(1e-2 <= lam <= 1e2 and 1e-2 <= n_hi <= 1e12 for _, _, lam, n_hi in rows)


def test_same_bytes_lists_the_scans_of_a_tree_with_another_version(monkeypatch, tmp_path):
    change = changed_tree(tmp_path, "__init__.py", r'^__version__ = "(.*)"$', r'__version__ = "\1.changed"')
    proc = same_bytes_on(change)
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
    # and so does every optimizer row and threshold row, in as many kernel calls
    for name, count in (("optimizer_rows", 2000), ("threshold_rows", len(same_bytes.threshold_rows()))):
        rows = re.search(rf"^{name}: {count} rows, 0 differ\n  parent (.*)\n  change (.*)\n", proc.stdout, flags=re.M)
        assert rows and rows[1] == rows[2] and rows[1].startswith("optimizer kernel calls by seed 0:")
    assert proc.stdout.endswith(f"\n{len(ops)} operations, 2000 optimizer rows and "
                                f"{len(same_bytes.threshold_rows())} threshold rows, {len(scans)} differ\n")


def test_same_bytes_lists_the_optimizer_rows_that_move(tmp_path):
    change = changed_tree(tmp_path, "optimizer.py", r"^GAMMA_TOL = 1e-6$", "GAMMA_TOL = 2e-6")
    proc = same_bytes_on(change)
    assert proc.returncode == 1, proc.stderr
    moved = int(re.search(r"^optimizer_rows: 2000 rows, (\d+) differ$", proc.stdout, flags=re.M)[1])
    reports = re.findall(r"^optimizer_rows seed 0 op \d+ optimize_gamma\(.*\)\n  result: (.*)\n", proc.stdout,
                         flags=re.M)
    assert 0 < moved == len(reports)
    assert all(report.startswith("largest relative difference") for report in reports)


def test_same_bytes_lists_the_threshold_rows_that_move(tmp_path):
    # a wider stop of the bisection moves joint thresholds alone, and no optimizer row
    change = changed_tree(tmp_path, "optimizer.py", r"^THRESHOLD_REL_TOL = 1e-4 ", "THRESHOLD_REL_TOL = 2e-4 ")
    proc = same_bytes_on(change)
    assert proc.returncode == 1, proc.stderr
    assert re.search(r"^optimizer_rows: 2000 rows, 0 differ$", proc.stdout, flags=re.M)
    moved = int(re.search(r"^threshold_rows: \d+ rows, (\d+) differ$", proc.stdout, flags=re.M)[1])
    reports = re.findall(r"^threshold_rows seed 0 op \d+ find_threshold\((\w+) .*\)\n  result: (.*)\n", proc.stdout,
                         flags=re.M)
    assert 0 < moved == len(reports)
    assert all(kind == "joint" and report.startswith("largest relative difference") for kind, report in reports)
