"""Check that two source trees give the same bytes on every benchmark operation.

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC [--seeds 1 2 3]

PARENT_SRC and CHANGE_SRC are the directories that hold the nlprobe package
(the src/ of two checkouts). The operations are those that
perfbench/workloads.build makes for each workload and seed. Each tree runs
each workload's operations once, in a fresh interpreter per tree and
workload, with BLAS on one thread, PYTHONHASHSEED=0 and the same output
directory, so the --out paths in the arguments agree. For every operation
it compares the exit code, stdout, stderr and --out bytes of a CLI call,
and the repr of what a library call returned or raised. Every difference
is listed with the largest relative difference between the numbers of the
two texts, field by field; the exit code is 1 if there is any, 0 otherwise.
From the same runs it prints, per workload, tree and seed, how often a
scalar kernel that optimizer._normal_law_kernel built was called: the
optimizer's work, which a change to the refinement moves.

Then each tree runs optimize_gamma on one fixed, seeded set of ROWS random
rows (every target, zeta 1-12, lambda 1e-2..1e2, N 1e-4..1e8), and
find_threshold on another, THRESHOLDS calls for every target and zeta 1-12
(lambda 1e-2..1e2, n_hi 1e-2..1e12). Each row's result or error is compared
bit for bit (a float's repr is exact, and an error's crossings are part of
it), the optimizer rows with the kernel calls each made; the kernel calls of
each set are printed as the workloads' are.
"""

import argparse
import importlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# what separates the fields of CSV rows, key=value lines, JSON and reprs
# (a repr writes a newline as the two characters \n)
SEPARATORS = re.compile(r"(?:[\s,=:;()\[\]{}'\"]|\\n)+")
ROWS = 2000  # the random optimize_gamma rows
THRESHOLDS = 4  # the random find_threshold calls for each target and order
# the names under which the child runs the two sets of rows and the report lists them
OPTIMIZER_ROWS, THRESHOLD_ROWS = "optimizer_rows", "threshold_rows"


def count_kernel_calls(optimizer):
    """Make every scalar kernel that optimizer._normal_law_kernel builds
    count its calls in the list it returns, one element per call."""
    calls, build = [], optimizer._normal_law_kernel

    def counting(*args, **kwargs):
        kernel = build(*args, **kwargs)

        def counted(gamma):
            calls.append(None)
            return kernel(gamma)

        return counted

    optimizer._normal_law_kernel = counting
    return calls


def run_workload(src, workload, seeds, outdir):
    """Run every operation of workload for each seed with the nlprobe of src
    (in this interpreter) and return one record per operation: its label,
    the repr of its result and the bytes of the files it wrote, by suffix;
    and the optimizer's kernel calls of each seed."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    workloads = importlib.import_module("workloads")
    calls = count_kernel_calls(importlib.import_module("nlprobe.optimizer"))
    records, kernel_calls = [], {}
    for seed in seeds:
        calls.clear()
        seed_dir = outdir / str(seed)
        seed_dir.mkdir()
        for op in workloads.build(workload, seed, seed_dir):
            before = set(seed_dir.iterdir())
            try:
                result = repr(op.call())
            except Exception as exc:  # an operation that raises is compared by its error
                result = f"raised {type(exc).__name__}: {exc}"
            files = {f.suffix: f.read_bytes().decode("latin-1") for f in sorted(set(seed_dir.iterdir()) - before)}
            records.append({"seed": seed, "label": op.label, "result": result, "files": files})
        kernel_calls[seed] = len(calls)
    return {"records": records, "kernel_calls": kernel_calls}


def optimizer_rows():
    """The fixed set of random rows (kind, zeta, lambda, N): the targets in
    turn, zeta 1-12, lambda 1e-2..1e2 and N 1e-4..1e8, both log-uniform."""
    rng, kinds = random.Random(0), ("f_lambda", "f_zeta", "joint")
    return [(kinds[i % 3], rng.randint(1, 12), 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-4, 8))
            for i in range(ROWS)]


def threshold_rows():
    """The fixed set of random find_threshold calls (kind, zeta, lambda, n_hi):
    THRESHOLDS for every target and zeta 1-12, with lambda 1e-2..1e2 and
    n_hi 1e-2..1e12, both log-uniform."""
    rng = random.Random(1)
    return [(kind, zeta, 10 ** rng.uniform(-2, 2), 10 ** rng.uniform(-2, 12))
            for kind in ("f_lambda", "f_zeta", "joint") for zeta in range(1, 13) for _ in range(THRESHOLDS)]


def run_rows(src, name):
    """optimize_gamma(n, target) on every row of optimizer_rows, or for
    THRESHOLD_ROWS find_threshold(target, n_hi=n) on every row of
    threshold_rows, with the nlprobe of src (in this interpreter): one record
    per row, with the repr of what it returned or raised as its result, and
    the kernel calls of all rows. An optimize_gamma row's result also holds the
    kernel calls it made, which a change to find_threshold alone leaves as
    they are."""
    sys.path.insert(0, str(src))
    optimizer = importlib.import_module("nlprobe.optimizer")
    calls = count_kernel_calls(optimizer)
    thresholds = name == THRESHOLD_ROWS
    records, total = [], 0
    for kind, zeta, lam, n in threshold_rows() if thresholds else optimizer_rows():
        target = optimizer.OptTarget(optimizer.TargetKind(kind), optimizer.ModelSpec(lam, zeta))
        calls.clear()
        try:
            result = repr(optimizer.find_threshold(target, n_hi=n) if thresholds else optimizer.optimize_gamma(n, target))
        except Exception as exc:  # a row that raises is compared by its error
            result = f"raised {type(exc).__name__}: {exc} {getattr(exc, 'crossings', '')}"
        total += len(calls)
        model = f"{kind} zeta={zeta} lambda={lam!r}"
        label = f"find_threshold({model}, n_hi={n!r})" if thresholds else f"optimize_gamma({n!r}, {model})"
        if not thresholds:
            result += f" in {len(calls)} kernel calls"
        records.append({"seed": 0, "label": label, "result": result, "files": {}})
    return {"records": records, "kernel_calls": {0: total}}


def records_of(src, workload, seeds, outdir):
    """run_workload, or run_rows for OPTIMIZER_ROWS and THRESHOLD_ROWS, in a fresh interpreter, in an empty outdir
    (JSON turns its seeds into strings)."""
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    env = dict(os.environ, PYTHONHASHSEED="0", **dict.fromkeys(ONE_THREAD, "1"))
    env.pop("PYTHONPATH", None)
    out = outdir.with_suffix(".json")
    argv = [sys.executable, __file__, "--child", str(src), workload, str(outdir), str(out), *map(str, seeds)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} on {src} failed:\n{proc.stderr}")
    return json.loads(out.read_text())


def _excerpts(old, new):
    """Both texts from a little before their first difference (None: no such file)."""
    if old is None or new is None:
        return repr(old), repr(new)
    at = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
    return repr(old[max(at - 80, 0):at + 160]), repr(new[max(at - 80, 0):at + 160])


def largest_relative_difference(old, new):
    """The largest |a - b| / max(|a|, |b|) over the fields of two texts that
    are numbers in both and differ, as text naming the field and both values;
    nan against a number counts as inf."""
    if old is None or new is None:
        return "one side wrote no such file"
    old_fields, new_fields = SEPARATORS.split(old), SEPARATORS.split(new)
    if len(old_fields) != len(new_fields):
        return f"the texts have {len(old_fields)} and {len(new_fields)} fields"
    worst, where = 0.0, None
    for i, (a, b) in enumerate(zip(old_fields, new_fields)):
        try:
            x, y = float(a), float(b)
        except ValueError:
            continue
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        rel = abs(x - y) / max(abs(x), abs(y))
        rel = math.inf if math.isnan(rel) else rel
        if rel >= worst:
            worst, where = rel, f"{rel:.3g} at field {i} ({a} -> {b})"
    return f"largest relative difference {where}" if where else "no number differs"


def differences(parent, change):
    """One report per operation whose records differ: its label, then each
    field that differs (result or a file suffix) with its largest relative
    difference and both texts around the first difference."""
    if [r["label"] for r in parent] != [r["label"] for r in change]:
        return ["the operation lists differ"]
    reports = []
    for i, (a, b) in enumerate(zip(parent, change)):
        fields = [("result", a["result"], b["result"])]
        for suffix in sorted(set(a["files"]) | set(b["files"])):
            fields.append((suffix, a["files"].get(suffix), b["files"].get(suffix)))
        lines = ["  {}: {}\n    parent: {}\n    change: {}".format(
                     name, largest_relative_difference(old, new), *_excerpts(old, new))
                 for name, old, new in fields if old != new]
        if lines:
            reports.append("\n".join([f"seed {a['seed']} op {i} {a['label']}", *lines]))
    return reports


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "nlprobe" / "__init__.py").is_file():
            parser.error(f"{src} holds no nlprobe package")
    sys.path.insert(0, str(PERFBENCH))
    names = importlib.import_module("workloads").WORKLOADS
    total, diffs = dict.fromkeys(("operations", OPTIMIZER_ROWS, THRESHOLD_ROWS), 0), []
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        for workload in (*names, OPTIMIZER_ROWS, THRESHOLD_ROWS):
            parent = records_of(args.parent_src.resolve(), workload, args.seeds, outdir)
            change = records_of(args.change_src.resolve(), workload, args.seeds, outdir)
            found = differences(parent["records"], change["records"])
            unit = "rows" if workload in (OPTIMIZER_ROWS, THRESHOLD_ROWS) else "operations"
            total[workload if unit == "rows" else unit] += len(parent["records"])
            diffs += [f"{workload} {line}" for line in found]
            print(f"{workload}: {len(parent['records'])} {unit}, {len(found)} differ")
            for tree, run in (("parent", parent), ("change", change)):
                counts = " ".join(f"{seed}:{n}" for seed, n in run["kernel_calls"].items())
                print(f"  {tree} optimizer kernel calls by seed {counts}")
    for report in diffs:
        print(report)
    print(f"{total['operations']} operations, {total[OPTIMIZER_ROWS]} optimizer rows and "
          f"{total[THRESHOLD_ROWS]} threshold rows, {f'{len(diffs)} differ' if diffs else 'all byte-identical'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        src, workload, outdir, out, *seeds = sys.argv[2:]
        if workload in (OPTIMIZER_ROWS, THRESHOLD_ROWS):
            run = run_rows(Path(src), workload)
        else:
            run = run_workload(Path(src), workload, [int(s) for s in seeds], Path(outdir))
        Path(out).write_text(json.dumps(run))
    else:
        sys.exit(main())
