"""One benchmark run in a fresh interpreter, started by run.py.

Times whole rounds of the workload's operations until --seconds have
passed, with program caches cleared before every round, then checks every
output. With --trace 1 the rounds run with spans around every public layer
function and the result holds per-layer metrics instead of end-to-end ones.
The last line of stdout is one JSON object for run.py.
"""

import argparse
import decimal
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import speed
import tracing
import workloads


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised instead of returning."""

    message: str


def clear_program_caches():
    """Empty every functools cache defined in an nlprobe module."""
    for name, module in list(sys.modules.items()):
        if name != "nlprobe" and not name.startswith("nlprobe."):
            continue
        for value in vars(module).values():
            if getattr(value, "__module__", None) == name and callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_rounds(ops, seconds, tracer):
    """Time whole rounds of ops until `seconds` have passed.

    Returns (rounds, distinct, reference-work timings, spans of the last
    traced round). A round is (op times, rescaled op times, output indexes,
    layer metrics or None); distinct[i] lists the different outputs
    operation i gave, so that memory does not grow with the number of
    rounds. The reference work is timed before each round, then again as
    soon as the operations since the last timing have run for
    speed.RECALIBRATE_AFTER_S, and after the last operation; the operations
    between two timings are rescaled by both.
    With a tracer, rounds alternate between traced and untraced (at least
    one of each), so that the tracing overhead is measured in the same
    process and time window.
    """
    rounds = []
    distinct = [[] for _ in ops]
    timings = []
    last_spans = []
    min_rounds = 1 if tracer is None else 2
    begin = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
        traced = tracer is not None and len(rounds) % 2 == 0
        clear_program_caches()
        gc.collect()
        before = speed.time_reference_work()
        if traced:
            tracer.install()
        times, scaled, group, outputs = [], [], [], []
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing operation is counted, not fatal
                out = Raised(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            times.append(dt)
            group.append(dt)
            outputs.append(out)
            if sum(group) >= speed.RECALIBRATE_AFTER_S or k == len(ops) - 1:
                after = speed.time_reference_work()
                scaled += [speed.rescale(t, before + after) for t in group]
                timings += before
                before, group = after, []
        timings += before
        picks = []
        for seen, out in zip(distinct, outputs):
            if out not in seen:
                seen.append(out)
            picks.append(seen.index(out))
        del outputs
        layers = None
        if traced:
            tracer.uninstall()
            last_spans = tracer.take()
            layers = tracing.layer_metrics(last_spans)
        rounds.append((times, scaled, picks, layers))
    return rounds, distinct, timings, last_spans


def check_rounds(ops, rounds, distinct):
    """(failed operations, per-op problems, ops whose output varied).

    Every distinct output of an operation is checked against the reference,
    with decimal arithmetic at the reference's 50 digits; an operation fails
    in each round whose output has problems.
    """
    failed = 0
    problems = []
    varied = 0
    for i, op in enumerate(ops):
        verdicts = []
        for out in distinct[i]:
            if isinstance(out, Raised):
                verdicts.append([out.message])
            else:
                try:
                    with decimal.localcontext(reference.CONTEXT):
                        verdicts.append(op.check(out))
                except Exception as exc:  # output the check cannot read
                    verdicts.append([f"unreadable output ({type(exc).__name__}: {exc})"])
        failed += sum(1 for _, _, picks, _ in rounds if verdicts[picks[i]])
        # report the worst verdict: unexpected problems before known ones
        problems.append(max(verdicts, key=lambda v: (bool(v) and not op.known(v), bool(v))))
        varied += len(verdicts) > 1
    return failed, problems, varied


def write_spans(path, spans):
    with open(path, "w") as fh:
        json.dump({"fields": list(tracing.Span._fields), "spans": [list(s) for s in spans]}, fh)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    for name in workloads.IMPORTS[args.workload]:
        importlib.import_module(name)
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    src = Path(sys.modules["nlprobe"].__file__).resolve().parents[1]
    if src != Path(__file__).resolve().parents[1] / "src":
        sys.stderr.write(f"perfbench: nlprobe was imported from {src}, not from this checkout\n")
        return 2

    tracer = tracing.Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        ops = workloads.build(args.workload, args.seed, Path(tmp))
        rounds, distinct, timings, spans = run_rounds(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            write_spans(args.out_dir / f"trace-{args.workload}-seed{args.seed}.json", spans)
        t_check = time.perf_counter()
        failed, problems, varied = check_rounds(ops, rounds, distinct)
        t_check = time.perf_counter() - t_check

    unexpected = 0
    for op, found in zip(ops, problems):
        if not found:
            continue
        known = op.known(found)
        if not known:
            unexpected += 1
        tag = f"FAILED (known fault: {op.fault})" if known else "FAILED"
        print(f"{tag}: {op.label}")
        for line in found[:3]:
            print(f"    {line}")
        if len(found) > 3:
            print(f"    ... {len(found) - 3} more")
    for op, found in zip(ops, problems):
        if op.fault and not found:
            print(f"passes now, was a known fault ({op.fault}): {op.label}")

    for i, op in enumerate(ops):
        raw, scaled = (statistics.median(r[k][i] for r in rounds) for k in (0, 1))
        print(f"op {i:3d} median {raw:9.5f} s, rescaled {scaled:9.5f} s  {op.label}")
    untraced = [r for r in rounds if r[3] is None]
    op_times = [t for r in untraced for t in r[0]]
    info = {"rounds": len(rounds), "ops_per_round": len(ops), "op_samples": len(op_times), "ops_varied": varied,
            "check_s": round(t_check, 2)}
    raw_wall = statistics.median(sum(r[0]) for r in untraced)
    print(f"raw: wall_s {raw_wall:.6f} s, op_p50_s {statistics.median(op_times):.6f} s; "
          f"reference_work mean {statistics.fmean(timings) * 1e3:.4f} ms over {len(timings)} timings")
    if tracer is None:
        metrics = {
            "wall_s": statistics.median(sum(r[1]) for r in untraced),
            "op_p50_s": statistics.median(t for r in untraced for t in r[1]),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        traced = [r for r in rounds if r[3] is not None]
        traced_wall = statistics.median(sum(r[0]) for r in traced)
        metrics = {
            "import.scipy_modules": scipy_modules,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - raw_wall,
        }
        for key in traced[0][3]:
            metrics[key] = statistics.median(r[3][key] for r in traced)
    result = {
        "correct": unexpected == 0,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
