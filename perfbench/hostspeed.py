"""Host-speed reference: a fixed pure-Python task timed next to each
measurement, so that times can be reported at one nominal host speed.

A shared host drifts between speeds up to 1.8x apart, for seconds or for
minutes, and the drift moves the reference and the `kronscale` build
alike: over 40 s windows of a 6-minute trace of perm6-s2 builds on a
2-vCPU host, the median build time ranged over 73% of its median, and the
median ratio of build time to the reference time taken just before it
over 2.8%.  The task lives here, not in `kronscale`, so no change to
the program moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# reference seconds at the nominal host speed; a reported time is the
# measured time scaled by REF_S / (median reference time next to it)
REF_S = 0.0035
REPS = 3          # reference samples per sampling point


def reference_task() -> int:
    """Dict, tuple and list traffic with small-integer arithmetic, the mix
    of a circuit build and evaluation."""
    rnd = random.Random(7)
    table: dict = {}
    for i in range(3000):
        key = (rnd.randrange(1000), i & 63)
        table.setdefault(key, []).append(i * 31 % 1009)
    return sum(len(v) for v in table.values())


def sample(reps: int = REPS) -> list:
    """Seconds taken by each of `reps` runs of the reference task."""
    out = []
    gc.collect()
    for _ in range(reps):
        t = time.perf_counter()
        reference_task()
        out.append(time.perf_counter() - t)
    return out


def factor(ref_samples) -> float:
    """Multiplier from measured seconds to seconds at the nominal speed."""
    return REF_S / statistics.median(ref_samples)
