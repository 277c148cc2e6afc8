"""Host-speed calibration: a fixed CPU kernel timed beside the stack's work.

On a shared host the CPU time of the same work drifts by tens of percent
over minutes, as other tenants contend for caches, memory and the core's
other hardware thread. Process CPU time leaves out preemption but not
that. So every run also times :func:`sample`, a fixed kernel of the same
kind of work the stack does (interpreted Python around small NumPy
linear algebra), between ticks and around each set-up, and reports its
times scaled to the host speed at which one :func:`sample` takes
:data:`REF_S`. The kernel uses no code of the program under test, so a
change to the program cannot move the scale; a change that makes the
program slower or faster moves its scaled times exactly as much.

Measured on a 2-vCPU 2.0 GHz Xeon guest, replaying one stream nine
times: raw serving CPU time ranged over 30 %, serving time scaled by
this kernel over 8 %.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: CPU seconds one :func:`sample` takes on the reference host: the median
#: of 400 calls on the 2.0 GHz Xeon guest above.
REF_S = 0.004

_A = np.random.default_rng(0).normal(size=(40, 3))
_B = np.random.default_rng(1).normal(size=40)


def sample() -> float:
    """CPU seconds this process takes to run the fixed kernel once."""
    t0 = time.process_time()
    acc, buckets = 0.0, {}
    for i in range(300):
        buckets[i % 31] = buckets.get(i % 31, 0) + i
        x = np.linalg.lstsq(_A, _B, rcond=None)[0]
        acc += float(x[0]) + sum(v for v in (1.0, 2.0, 3.0))
    return time.process_time() - t0


def scale(samples: Sequence[float]) -> float:
    """Factor turning CPU times measured beside ``samples`` into reference
    host seconds."""
    return REF_S / statistics.fmean(samples)
