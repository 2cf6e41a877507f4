"""The benchmark tracer wraps nlprobe functions by name; every name must exist."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import nlprobe

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    # loaded from its file: perfbench is not a package, and tracing.py
    # imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_nlprobe():
    missing = [
        f"{modname}.{name}"
        for modname, names in _load_tracing().LAYERS.values()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert not missing, f"perfbench/tracing.py wraps names that nlprobe no longer has: {missing}"


def test_tracer_installs_after_the_cli_import_alone():
    # gamma_opt and joint_high_n import only nlprobe.cli before the tracer installs, and install reads
    # every layer's module from sys.modules: the CLI's import must load them all
    code = (
        "import contextlib, importlib.util, io, nlprobe.cli\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_tracing', {str(TRACING)!r})\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = nlprobe.cli.main(['qfi', '--n', '1', '--gamma', '0.5', '--zeta', '2', '--lambda', '1'])\n"
        "tracer.uninstall()\n"
        "print(code, sorted({s.name for s in tracer.take()}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlprobe.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 ['main', 'make_probe', 'reparametrize_physical']"]
