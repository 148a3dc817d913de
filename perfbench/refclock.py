"""A reference clock that cancels the host's swings in CPU speed.

On a shared 2-core VM the same pure-Python work was measured to take
anywhere from 33 to 62 ms from one minute to the next, so raw wall times of
two sets of runs of the same code disagreed by up to 40%.  Every timed
interval is therefore taken between two runs of a fixed pure-Python task,
independent of minpl, and scaled by ``NOMINAL_S / (mean of those two task
times)``: a time reported in milliseconds is the time the work would have
taken had the task run at its nominal speed.  The task allocates, hashes and
walks tuples, like the prover.  The benchmark's own files pin the run to one
CPU so that the task and the timed work run on the same core.
"""

from __future__ import annotations

import os
import time

NOMINAL_S = 0.004  # about the task's median time on the 2-core VM that set the bounds


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})


def _tree(n: int):
    if n <= 0:
        return ("leaf",)
    return ("node", _tree(n - 1), _tree(n - 2))


def _size(t) -> int:
    return 1 if t[0] == "leaf" else 1 + _size(t[1]) + _size(t[2])


def task_seconds() -> float:
    """Run the reference task once and return how long it took."""
    start = time.perf_counter()
    seen = {}
    for depth in (17, 16, 16):
        t = _tree(depth)
        seen[hash(t) ^ depth] = _size(t)
    return time.perf_counter() - start


class Gauge:
    """Scales intervals by the reference task timed before and after them."""

    def __init__(self):
        self.last = task_seconds()
        self.factors: list = []

    def factor(self) -> float:
        """Time the task again and return the scale for the interval since
        the previous call."""
        now = task_seconds()
        scale = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(scale)
        return scale
