"""The machine's current speed, from a fixed piece of Python work.

On the shared 2-vCPU machine this benchmark was built on, the same code
timed back to back ran up to 1.6x slower for tens of seconds to minutes at
a time, with CPU time slowing as much as wall time, so the vCPU runs slower
rather than waits. A run therefore times `reference_work` around the
work it measures and reports each time rescaled to the speed at which
`reference_work` takes REFERENCE_WORK_S:

    time x REFERENCE_WORK_S / mean(reference_work timings right before and after)
"""

import statistics
import time

# Typical fast-state duration of reference_work on the 2-vCPU Intel Xeon VM
# the README figures come from. A fixed constant: it only sets the unit.
REFERENCE_WORK_S = 0.0050
SAMPLES = 5  # timings taken at each calibration point
# The speed moves within seconds as well, so the reference work is timed
# again once the operations since the last timing have run this long.
RECALIBRATE_AFTER_S = 0.25


def reference_work():
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


def time_reference_work(samples=SAMPLES):
    """Wall times of `samples` back-to-back reference_work calls."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        reference_work()
        out.append(time.perf_counter() - t0)
    return out


def rescale(seconds, reference_times):
    """seconds at the speed where reference_work takes REFERENCE_WORK_S."""
    return seconds * REFERENCE_WORK_S / statistics.fmean(reference_times)
