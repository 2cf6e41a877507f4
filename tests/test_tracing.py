"""The benchmark tracer wraps nlprobe functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

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
