"""A fixed reference computation that measures how fast the machine runs now.

The machine the benchmark was built on is a virtual machine on a shared
host, and its speed changes by up to 1.3x for minutes at a time, in CPU
time as much as in wall time.  The worker runs this computation after every
measured round and scales the run's CPU times by REFERENCE_S over the
median time of the computation in that run.  It is the benchmark's code and
calls nothing of miloc, so a change to the program moves only the CPU times
it scales.  Like miloc, it mixes interpreted Python with small numpy
operations.

    python3 perfbench/speed.py      # print one reference time in seconds
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round figure a little above the median reference times of 0.033 to
# 0.044 s in the runs on the reference machine (README.md, Reference
# figures).  It sets only the scale of the figures, which read as CPU
# seconds, or trials per CPU second, at that speed.
REFERENCE_S = 0.05

_SMALL = [np.random.default_rng(0).standard_normal((6, 6)) for _ in range(50)]


def _work() -> float:
    total = 0.0
    for i in range(200_000):
        total += (i * 7 % 13) * 0.5
    for _ in range(40):
        for m in _SMALL:
            total += float(np.linalg.norm(m @ m.T + np.eye(6)))
    return total


def reference_cpu_s() -> float:
    """CPU time of the calling thread for one run of the reference work."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def scale(references) -> float:
    """Factor that turns a run's CPU times into times at the usual speed."""
    return REFERENCE_S / statistics.median(references)


if __name__ == "__main__":
    reference_cpu_s()
    print(f"{reference_cpu_s():.6f}")
