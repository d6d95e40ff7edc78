"""A fixed probe of how fast the machine runs right now.

The benchmark shares a small machine whose speed drifts by tens of
percent over seconds and minutes, so a time taken alone says as much
about the neighbours as about the program.  `probe` times a fixed piece
of interpreter and small-array numpy work, the mix the package runs,
that touches neither the package nor large allocations.  (The same
arithmetic on grid-sized arrays tracked the ops' speed somewhat better,
but the cost of its allocations depends on the state in which the
program under test leaves the allocator: 0.05 s in a worker, 0.085 s
in a fresh process.)  The benchmark
runs it before and after every timed op and scales the op's times by
REFERENCE_S over the mean of the two, which gives times "at reference
speed": the machine's speed when REFERENCE_S was measured.

The probe counts the CPU time of its own thread, with the garbage
collector off.  Other threads or processes that share the CPU with it,
such as work a change leaves running after an op returns, then take
turns with the probe without making it read slower, and their cost
stays in the op times instead of being scaled away.  Neither can the
probe pay for collecting an op's garbage.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Median probe time on the 2-core x86-64 box the baseline was taken on.
REFERENCE_S = 0.050

_Z = 0.9 * np.exp(2j * np.pi * np.arange(2048) / 2048)


def probe() -> float:
    """CPU seconds of the calling thread spent on the fixed probe work."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        s = 0
        for i in range(240_000):
            s += i * i
        z = _Z
        for _ in range(900):
            w = z * (z + 0.5) / (1.0 - 0.3 * z)
            s += int(np.abs(w).max() > 2.0)
        return time.thread_time() - t0
    finally:
        if collecting:
            gc.enable()


def factors(probes: list) -> list:
    """Scale factors for ops, each given the (before, after) probe times around it."""
    return [REFERENCE_S / (0.5 * (before + after)) for before, after in probes]
