"""Time the scalar QFI kernel per call in two source trees.

    python3 tools/kernel_cost.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the directories that hold the nlprobe package
(the src/ of two checkouts). Both trees are loaded into this one interpreter,
each nlprobe package under its own name (nlprobe_parent, nlprobe_change;
the package imports its own modules only relatively), with BLAS on one
thread. For entries 0, 1 and 3 (f_ll, f_zz and the joint bound) at zeta 3
and 6, one timing builds qfi_core._normal_law_kernel at N = 10, lambda = 1
and random phases, and calls it on 1000 squeezing fractions spread over
[0, 1], which cross x = mu^2 / sigma^2 = 1; it reports the best of 5 passes
in ns per call. The two trees alternate case by case (the parent first in
even rounds), so a change in the machine's speed reaches both, and the
output is the median over the rounds of each tree with the change/parent
ratio. Two identical trees read ratios of 0.94-1.06 (2 shared vCPUs), so
read a ratio in that band as no difference.
"""

import importlib.util
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

ROUNDS = 9
CASES = [(entry, zeta) for zeta in (3, 6) for entry in (0, 1, 3)]
GAMMAS = [i / 999 for i in range(1000)]


def load_tree(src, name):
    """The nlprobe package under src, imported as the package name."""
    package = Path(src) / "nlprobe"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.qfi_core")


def time_case(qfi_core, entry, zeta):
    """Best of 5 passes over GAMMAS, in ns per kernel call."""
    rng = random.Random(zeta)
    kernel = qfi_core._normal_law_kernel(10.0, rng.uniform(0, 6.28), rng.uniform(0, 6.28),
                                         qfi_core.ModelSpec(1.0, zeta), entry=entry)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for g in GAMMAS:
            kernel(g)
        best = min(best, (time.perf_counter_ns() - t0) / len(GAMMAS))
    return best


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # read when numpy is first imported, below
    trees = {side: load_tree(os.path.abspath(src), f"nlprobe_{side}")
             for side, src in (("parent", sys.argv[1]), ("change", sys.argv[2]))}
    ns = {(side, case): [] for side in trees for case in CASES}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for case in CASES:
            for side in order:
                ns[side, case].append(time_case(trees[side], *case))
    rows = []
    for entry, zeta in CASES:
        parent = statistics.median(ns["parent", (entry, zeta)])
        change = statistics.median(ns["change", (entry, zeta)])
        rows.append({"entry": entry, "zeta": zeta, "rounds": ROUNDS, "parent_ns": round(parent, 1),
                     "change_ns": round(change, 1), "ratio": round(change / parent, 4)})
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
