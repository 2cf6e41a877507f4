"""Run every workload over several seeds and report the run-to-run spread.

    python3 perfbench/sweep.py [--seeds 1-10] [--trace 0|1]

Each run is one `perfbench/run.py` invocation of BENCHMARK.json's
run_seconds, on every workload BENCHMARK.json names. For every workload
and metric the summary gives the median over the runs and the spread the
bounds in BENCHMARK.json are judged by: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median. It
also lists the failed share of operations of each run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, shares = {}, []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed={seed}: run.py exited with {proc.returncode}")
                ok = False
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            ok &= res["correct"]
            shares.append(res["failed"] / res["attempted"])
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            summary = " ".join(f"{k}={m['value']:.5g} {m['unit']}" for k, m in res["metrics"].items())
            print(f"{workload} seed={seed} attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']} {summary}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            else:
                spread = "n/a"
            print(f"{workload} {name}: median {med:.6g} spread {spread} min {min(vals):.6g} max {max(vals):.6g}")
        print(f"{workload} failed shares: {sorted(set(round(s, 12) for s in shares))}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
