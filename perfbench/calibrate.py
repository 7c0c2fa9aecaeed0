"""Host-speed calibration.

On a shared host the same code runs up to 1.6x slower in some minutes than
in others, and whole runs land in a fast or a slow phase.  A fixed kernel,
which calls no gridmark code, is timed between ops throughout the timed
loop.  Every gated time is scaled by
``(REFERENCE_MS / median kernel time) ** EXPONENT``.  Each set-up time is
scaled by a kernel timing taken right after it, in the same process.  A
change to gridmark moves the op times but not the kernel, so the scaled
time still moves with it in proportion.

The kernel streams in place through one 32 MB array.  On the host the
benchmark was tuned on, the workloads' speed follows the bandwidth of the
caches and memory shared with other tenants much more closely than it
follows instruction throughput: a kernel of small numpy calls, an
aggregate and float formatting tracked the op times about half as well.
The op times still swing more than the kernel does: over 20 runs per
workload, log(unscaled op_ms_p50) against log(kernel median) had a slope
of 2.3 on roundtrip-512 and battery-256 and 3.4 on files-256, with
correlations of 0.81 to 0.92.  Hence EXPONENT = 2.

The kernel is always timed the same way, whatever the length of the ops
around it: a burst of DROP + KEEP calls for every SLICE_S seconds of
timed wall, of which only the last KEEP are kept.  The first call after
a gridmark op runs up to twice as long as the ones after it, so timing it
would tie the factor to how often an op ends.

The kernel, the burst pattern, REFERENCE_MS and EXPONENT are part of the
benchmark's definition: changing any of them changes every gated time.
"""

from statistics import median
from time import perf_counter

import numpy as np

REFERENCE_MS = 10.0  # warm kernel median on the 2-core Xeon VM the benchmark was tuned on
EXPONENT = 2.0
SLICE_S = 0.75  # one burst per this much timed wall: about 7% extra wall
DROP = 2  # calls at the start of a burst that re-warm the caches, not timed
KEEP = 3  # timed calls per burst

_A = np.random.default_rng(20121203).random(1 << 22)  # 32 MB, the size of roundtrip-512's fuzzy aggregate


def kernel():
    for _ in range(6):
        np.multiply(_A, -1.0, out=_A)
    return float(_A[0])


def burst(keep=KEEP):
    """Seconds of the last `keep` of DROP + `keep` kernel calls."""
    for _ in range(DROP):
        kernel()
    times = []
    for _ in range(keep):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def kernel_ms():
    """Median kernel time right now, in ms."""
    return median(burst(7)) * 1000.0


def factor(kernel_ms):
    """Scale for a time measured while the kernel took `kernel_ms`."""
    return (REFERENCE_MS / kernel_ms) ** EXPONENT


class HostClock:
    def __init__(self):
        self.samples = []
        self.bursts = 0

    def keep_up(self, timed_wall):
        """Run the bursts owed for `timed_wall` seconds of timed wall."""
        while self.bursts * SLICE_S < timed_wall:
            self.samples += burst()
            self.bursts += 1

    @property
    def kernel_ms(self):
        return median(self.samples) * 1000.0 if self.samples else float("nan")

    @property
    def factor(self):
        """Multiply a time measured in this run by this to get reference time."""
        return factor(self.kernel_ms)
