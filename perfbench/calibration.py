"""Machine-speed reference for host times measured on a shared host.

Other tenants of a shared host slow this process by up to 2x for seconds to
minutes at a time, and they slow allocation-heavy Python more than plain
integer arithmetic. Two fixed kernels, one of each kind, are timed next to
every piece of measured work; the geometric mean of their median times,
divided by REFERENCE_S, is the host's slowdown at that moment. Dividing a
measured time by the slowdown around it gives the time the work would have
taken on the uncontended host. Neither kernel touches arithsim, so a change
to the package cannot move them.
"""

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

# Geometric mean of the two kernels' median times on the uncontended host
# (Intel Xeon, Python 3.11.7). It only sets the scale of reported times.
REFERENCE_S = 90e-6
CALIBRATION_S = 0.01


@dataclass(frozen=True)
class _Word:
    width: int
    value: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"{self.value} does not fit in {self.width} bits")


def _objects():
    """Allocation-heavy: validated frozen dataclasses and bit loops."""
    acc = 0
    for i in range(64):
        word = _Word(16, (i * 40503) & 0xFFFF)
        for j in range(8):
            acc += (word.value >> j) & 1
    return acc


def _arithmetic():
    """Interpreter-bound integer arithmetic with no allocation to speak of."""
    total = 0
    for i in range(2000):
        total += i * i
    return total


def slowdown():
    """The host's current slowdown against the reference speed."""
    objects, arithmetic = [], []
    end = perf_counter() + CALIBRATION_S
    while perf_counter() < end:
        t0 = perf_counter()
        _objects()
        t1 = perf_counter()
        _arithmetic()
        t2 = perf_counter()
        objects.append(t1 - t0)
        arithmetic.append(t2 - t1)
    return math.sqrt(statistics.median(objects) * statistics.median(arithmetic)) / REFERENCE_S


class Meter:
    """Slowdown over consecutive stretches of work.

    Calibrates once on creation and once per `lap`; a stretch of work is
    scaled by the geometric mean of the calibrations on either side of it.
    """

    def __init__(self):
        self.last = slowdown()
        self.raw_s = 0.0  # calibration time spent, for the record

    def lap(self):
        """Slowdown during the work done since the previous lap."""
        start = perf_counter()
        now = slowdown()
        self.raw_s += perf_counter() - start
        factor = math.sqrt(self.last * now)
        self.last = now
        return factor
