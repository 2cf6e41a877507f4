"""nlprobe benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout. The program is imported from ./src; each
run measures set-up in fresh interpreters, then runs the workload in one
more fresh interpreter (child.py) with BLAS pinned to one thread. The last
line of stdout is the JSON result: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer ones. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import workloads  # noqa: E402


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NLPROBE_JOBS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def timed_start(cmd, env):
    """Seconds from spawning cmd to its exit.

    A blocking wait returns as soon as the process ends; waiting with a
    timeout would poll and round the time up to the next 50 ms step, so the
    timeout is a timer that kills the process instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {rc}")
    return elapsed


def setup_seconds(modules, env):
    """Median wall time of fresh interpreters that import the workload's
    modules, each rescaled by the reference work timed right before and
    after it.

    One untimed start first, so that byte-code caches exist as they do for a
    CLI user.
    """
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    timed_start(cmd, env)
    samples, scaled, timings = [], [], []
    before = speed.time_reference_work()
    for _ in range(SETUP_REPEATS):
        samples.append(timed_start(cmd, env))
        after = speed.time_reference_work()
        scaled.append(speed.rescale(samples[-1], before + after))
        timings += before
        before = after
    timings += before
    return statistics.median(scaled), samples, timings


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlprobe" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no nlprobe sources under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    if args.seconds < 1:
        sys.stderr.write("perfbench: --seconds must be at least 1\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    env = child_env()

    metrics = {}
    if not args.trace:
        setup, samples, timings = setup_seconds(workloads.IMPORTS[args.workload], env)
        metrics["setup_s"] = setup
        print(f"raw: setup_s {statistics.median(samples):.6f} s from {', '.join(f'{s:.4f}' for s in samples)}; "
              f"reference_work mean {statistics.fmean(timings) * 1e3:.4f} ms")

    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: workload {args.workload} did not finish within {CHILD_TIMEOUT_S} s\n")
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: workload process exited with {proc.returncode}\n")
        return 1
    child = json.loads(lines[-1])
    metrics.update(child["metrics"])

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"]) for m in bench["per_layer" if args.trace else "end_to_end"]]
    info = child["info"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={info['rounds']} "
          f"ops_per_round={info['ops_per_round']} attempted={child['attempted']} failed={child['failed']} "
          f"correct={child['correct']} ops_varied={info['ops_varied']} check_s={info['check_s']}")
    for name, unit in names:
        extra = f"  (median of {info['op_samples']} operations)" if name == "op_p50_s" else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{extra}")
    result = {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
