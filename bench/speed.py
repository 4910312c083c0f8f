"""Machine speed, read from a fixed pure-Python reference loop.

On a shared VM the CPU time a fixed piece of work takes drifts by tens of
percent within a minute, as neighbours load the same cores and caches.  In
one three-minute measurement on a 2-vCPU VM, the CPU time of a fixed cfkit
job averaged over ~1 s windows varied with a coefficient of variation of
14% (fastest to slowest window 1.9x), while its ratio to a longer run of
this loop, timed in the same windows, varied by 4%.  So every op time is multiplied by the
speed factor measured around it, NOMINAL_S / (the loop's CPU time): the
benchmark reports CPU time on a machine that runs the loop in NOMINAL_S.

Ops that run in a child process (the cli workload, the set-up probes) are
scaled by the same loop run in a fresh interpreter, whose start-up cost
follows theirs more closely: over two minutes, the CPU time of
`python -m cfkit symmetry-group --group q8` children varied across windows
by 6.4%, by 2.8% relative to the in-process loop and by 1.9% relative to
the loop in a child.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# About 4 ms of dict and tuple work in fast locals.
LOOP = """
def loop():
    counts = {}
    acc = 0
    for i in range(10000):
        key = (i & 7, (i >> 3) & 7, i % 5)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) ^ i
    return acc
"""
_namespace: dict = {}
exec(LOOP, _namespace)
_loop = _namespace["loop"]
NOMINAL_S = 0.004
CHILD_NOMINAL_S = 0.040
# Take a speed sample after at least this much op CPU time.
EVERY_S = 0.25


def in_process() -> float:
    """Speed factor of this thread: NOMINAL_S over the loop's CPU time."""
    t0 = time.thread_time()
    _loop()
    return NOMINAL_S / (time.thread_time() - t0)


def in_child() -> float:
    """Speed factor of a fresh interpreter running the loop, start to exit."""
    child = subprocess.Popen(
        [sys.executable, "-c", LOOP + "loop()\n"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return CHILD_NOMINAL_S / (usage.ru_utime + usage.ru_stime)


def scale(raw: list[float], samples: list[tuple[int, float]]) -> list[float]:
    """Scale raw op times by the speed samples around them.

    samples holds (op index, speed factor), taken before op 0, between ops,
    and after the last op.  Ops between two samples use the median of the
    four nearest samples, which damps the noise of a single sample while
    still following drift on the scale of a second.
    """
    out: list[float] = []
    for j in range(len(samples) - 1):
        lo, hi = samples[j][0], samples[j + 1][0]
        factor = statistics.median(f for _, f in samples[max(0, j - 1): j + 3])
        out.extend(x * factor for x in raw[lo:hi])
    return out
