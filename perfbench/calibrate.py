"""The benchmark's speed reference.

The machines this benchmark runs on are shared: the same repetition takes
0.9 s or 1.5 s depending on when it runs, and the speed drifts by 20-30 %
over minutes.  A fixed loop that does what the simulator does -- a heap of
tuples, generators resumed with ``send``, dictionaries with tuple keys,
small allocations -- slows down and speeds up with it (r = 0.6-0.9 per
sample; an integer loop or a memory copy does not).  Every host-clock time
is therefore taken between two runs of this loop and reported *at
reference speed*: as on a machine on which the loop takes ``CAL_REF_S``.

The loop keeps a few thousand objects alive at a time (about 2 MB): it
runs in the measured process and must stay far below the workloads'
``peak_rss_mb``.

Only the standard library is imported here: ``run.py`` calibrates around
the fresh interpreters that measure set-up before it imports anything else.
The loop is part of the benchmark's definition; changing it or its size
changes every host metric.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["CAL_REF_S", "CAL_EVENTS", "calibration_s", "at_reference_speed"]

#: What the loop takes on the reference machine (about this sandbox in a
#: quiet minute), in seconds.
CAL_REF_S = 0.2
CAL_EVENTS = 150_000
#: events pending at any time
CAL_PENDING = 4096


def _process(rank: int, table: dict):
    """A stand-in for a rank program: resumed with a value, stores it."""
    value = 0
    while True:
        value = (yield value) or 0
        table[(rank, value & 63)] = [value, rank]


def calibration_s() -> float:
    """Wall seconds of one run of the fixed loop."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}
    processes = [_process(rank, table) for rank in range(64)]
    for proc in processes:
        next(proc)
    for i in range(CAL_EVENTS):
        heapq.heappush(heap, (i * 7919 % 10007, i, processes[i & 63],
                              {"payload": i}))
        if len(heap) > CAL_PENDING:
            _when, _seq, proc, event = heapq.heappop(heap)
            proc.send(event["payload"])
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal_before: float,
                       cal_after: float) -> float:
    """``seconds`` measured between two calibration runs, as on a machine
    on which the loop takes ``CAL_REF_S``."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2.0)
