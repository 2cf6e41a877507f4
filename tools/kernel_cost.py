"""Time the scalar QFI kernel per call in two source trees.

    python3 tools/kernel_cost.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the directories that hold the nlprobe package
(the src/ of two checkouts). For entries 0, 1 and 3 (f_ll, f_zz and the
joint bound) at zeta 3 and 6, one timing builds
qfi_core._normal_law_kernel at N = 10, lambda = 1 and random phases, and
calls it on 1000 squeezing fractions spread over [0, 1], which cross
x = mu^2 / sigma^2 = 1; it reports the best of 5 passes in ns per call.
Each timing runs in a fresh interpreter with BLAS on one thread, the two
trees alternate (the parent first in even rounds), and the output is the
median over the rounds of each tree with the change/parent ratio. A shared
machine can move a timing by more than the difference between two trees,
so read ratios near 1 as no difference.
"""

import json
import os
import statistics
import subprocess
import sys

ROUNDS = 9
CASES = [(entry, zeta) for zeta in (3, 6) for entry in (0, 1, 3)]
TIMING = """
import json, random, sys, time
from nlprobe.qfi_core import ModelSpec, _normal_law_kernel
entry, zeta = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(zeta)
kernel = _normal_law_kernel(10.0, rng.uniform(0, 6.28), rng.uniform(0, 6.28), ModelSpec(1.0, zeta), entry=entry)
gammas = [i / 999 for i in range(1000)]
best = float("inf")
for _ in range(5):
    t0 = time.perf_counter_ns()
    for g in gammas:
        kernel(g)
    best = min(best, (time.perf_counter_ns() - t0) / len(gammas))
print(json.dumps(best))
"""


def time_case(src, entry, zeta):
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run([sys.executable, "-c", TIMING, str(entry), str(zeta)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = {"parent": os.path.abspath(sys.argv[1]), "change": os.path.abspath(sys.argv[2])}
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
