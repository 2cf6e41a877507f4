"""List the statements of src/nlprobe that the tier-1 tests never run.

    python3 tools/line_cover.py [PYTEST_ARGS ...]

Runs the tier-1 suite (tests and perfbench, as configured in pyproject.toml)
in this interpreter through pytest.main, under a sys.settrace line tracer
that records only frames whose code lives in src/nlprobe. PYTEST_ARGS, if
given, replace the default "-q --continue-on-collection-errors". Then, for
each module, it prints how many statements it has and every statement that
never ran, by line number and source text.

A statement counts as run when any of its own lines ran: its lines minus
those of the statements nested in it (a def or class counts its decorators).
Docstrings are not statements here, nor are global, nonlocal and try (their
bodies and handlers are), which run no line of their own.

Only code that runs in this process is seen. The tests that start a
subprocess (python -c ..., the perfbench runner) count for nothing, so a
statement that only they reach is listed as never run. Tracing makes the
suite two to three times slower. The exit code is pytest's.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nlprobe"
DEFAULT_ARGS = ["-q", "--continue-on-collection-errors"]
UNCOUNTED = (ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try))


def _is_docstring(node, parent):
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(source):
    """{first line: own lines} of every counted statement of a module's source."""
    tree = ast.parse(source)
    out = {}

    def visit(parent):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.stmt):
                start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                own = set(range(start, node.end_lineno + 1))
                for child in ast.walk(node):
                    if child is not node and isinstance(child, ast.stmt):
                        own -= set(range(child.lineno, child.end_lineno + 1))
                if not (isinstance(node, UNCOUNTED) or _is_docstring(node, parent)):
                    out[start] = own
            visit(node)

    visit(tree)
    return out


def run_traced(args):
    """pytest.main(args) under the line tracer: (exit code, {file: lines that ran})."""
    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or DEFAULT_ARGS
    code, ran = run_traced(args)
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        counted = statements(source)
        hit = ran.get(str(path), set())
        missed = sorted(start for start, own in counted.items() if not own & hit)
        report.append(f"{path.relative_to(ROOT)}: {len(counted)} statements, {len(missed)} never ran\n")
        report.extend(f"  {start}: {lines[start - 1].strip()}\n" for start in missed)
    sys.stdout.write("".join(report))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
