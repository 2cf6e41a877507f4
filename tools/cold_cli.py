"""Time one-shot `python -m nlprobe.cli` processes of two source trees.

    python3 tools/cold_cli.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the directories that hold the nlprobe package
(the src/ of two checkouts). Each case is one fresh interpreter: a qfi
point, the same point with --oracle, an 8 x 8 scan-phase, a 101-point
scan-gamma, a threshold, a 17-point opt-gamma, selftest, --help,
--version, a usage error, and the bare import of nlprobe.cli. One untimed run per tree and case first writes
the byte-code caches, as an installed CLI has them. Then every case runs
RUNS times per tree, the two trees back to back (the parent first in even
rounds), with BLAS on one thread, PYTHONHASHSEED=0 and COLUMNS=80. A
timing is the wall time of the whole process, start-up included.

Prints, per case, each tree's median and quartiles in seconds, the
change/parent ratio of the medians, the number of rounds in which the
change was faster, a verdict, and whether the two trees gave the same exit
code, stdout and stderr in every run. A tree is faster only where it won
at least 9 of 10 rounds and its median is lower by more than the parent's
interquartile range; otherwise the difference is unresolved. Exits 1 if
any output differed.
"""

import json
import os
import statistics
import subprocess
import sys
import time

RUNS = 20
CLI = ["-m", "nlprobe.cli"]
QFI = ["qfi", "--n", "1", "--gamma", "0.5", "--zeta", "2", "--lambda", "1"]
CASES = {
    "qfi": CLI + QFI,
    "qfi-oracle": CLI + QFI + ["--oracle"],
    "scan-phase": CLI + ["scan-phase", "--n", "1", "--gamma", "0.5", "--zeta", "3", "--target", "f_lambda",
                         "--grid", "8"],
    "scan-gamma": CLI + ["scan-gamma", "--n", "1", "--zeta", "3", "--target", "joint"],
    "threshold": CLI + ["threshold", "--target", "f_lambda", "--zeta", "3"],
    "opt-gamma": CLI + ["opt-gamma", "--target", "f_lambda", "--zeta", "2", "--n-range", "1e-2:1e2:17"],
    "selftest": CLI + ["selftest"],
    "help": CLI + ["--help"],
    "version": CLI + ["--version"],
    "usage-error": CLI + ["qfi", "--n", "1"],
    "import": ["-c", "import nlprobe.cli"],
}


def run(src, argv):
    """Wall time, exit code, stdout and stderr of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", COLUMNS="80")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=src, capture_output=True)
    return time.perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": round(median, 5), "q1_s": round(q1, 5), "q3_s": round(q3, 5)}


def verdict(parent, change):
    """Which tree is faster by the rule in the module docstring, if either."""
    iqr = statistics.quantiles(parent, n=4, method="inclusive")
    iqr = iqr[2] - iqr[0]
    gain = statistics.median(parent) - statistics.median(change)
    if 10 * sum(c < p for p, c in zip(parent, change)) >= 9 * len(parent) and gain > iqr:
        return "change faster"
    if 10 * sum(c > p for p, c in zip(parent, change)) >= 9 * len(parent) and -gain > iqr:
        return "change slower"
    return "unresolved"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    trees = {"parent": os.path.abspath(sys.argv[1]), "change": os.path.abspath(sys.argv[2])}
    for src in trees.values():
        for argv in CASES.values():
            run(src, argv)
    times = {(side, case): [] for side in trees for case in CASES}
    outputs = {side: {} for side in trees}
    same = dict.fromkeys(CASES, True)
    for r in range(RUNS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for case, argv in CASES.items():
            for side in order:
                dt, outputs[side][case] = run(trees[side], argv)
                times[side, case].append(dt)
            same[case] &= outputs["parent"][case] == outputs["change"][case]
    rows = []
    for case in CASES:
        parent, change = times["parent", case], times["change", case]
        rows.append({
            "case": case, "runs": RUNS, "exit_code": outputs["parent"][case][0],
            "parent": summary(parent), "change": summary(change),
            "ratio": round(statistics.median(change) / statistics.median(parent), 4),
            "change_lower_in": sum(c < p for p, c in zip(parent, change)), "verdict": verdict(parent, change),
            "same_output": same[case],
        })
    print(json.dumps(rows, indent=1))
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
