"""Host-speed calibration: a fixed pure-Python kernel, interleaved.

Host time on a small shared box is not repeatable raw.  Twelve fresh
processes running the same ``pingpong_small`` world gave run-CPU seconds
between 1.25 and 1.90 (coefficient of variation 0.14-0.18), and
``process_time`` tracks ``perf_counter``: it is the machine's speed that
moves, within fractions of a second, not preemption.  Bracketing the run
with one calibration reading before and one after only brought that to
0.09, because the speed changes *during* the run.

So the kernel below is run in small doses **between slices of the timed
phase** (every ``QUANTUM`` simulator events, see :class:`Pacer`), and each
slice is converted with the two readings around it::

    ref_s = sum(slice_cpu_s * CALIB_REF_S / mean(reading_before, reading_after))

which brought the same twelve-process spread to 0.02-0.04.  Host
end-to-end metrics are reported in these *reference-speed seconds*.

The kernel mixes what the simulator's hot loop is made of -- generator
resume, ``heapq`` push/pop of small lists, attribute access on
``__slots__`` objects, one list allocated per event -- over a working set
of a few tens of MiB, because a kernel that lives in the cache (an earlier
version did) speeds up and slows down less than the simulator does: on the
same noisy minute it left 0.067 of spread where this one left 0.033.  It
imports nothing from ``repro``: a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds one dose (``run()``) took on the box the benchmark was
#: defined on.  A constant of the benchmark: it fixes the unit.
CALIB_REF_S = 0.005

#: iterations of one dose
ROUNDS = 3000

#: simulator events between two doses (about 30 ms of host CPU); the
#: table drivers' idle-loop events are cheaper, see ``worlds.SIZES``
QUANTUM = 6000

_OBJECTS = 100_000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a = a
        self.b = [a, a + 1]

    def step(self, v):
        self.a = (self.a + v) & 0xFFFF
        return self.a


def _ticker():
    v = 0
    while True:
        v = yield v + 1


class _Kernel:
    """The working set, built once per process on first use."""

    def __init__(self):
        cells = [_Cell(i) for i in range(_OBJECTS)]
        self.table = {i * 7919 % 1000003: c for i, c in enumerate(cells)}
        self.keys = list(self.table)
        self.cursor = 0
        self.gen = _ticker()
        next(self.gen)

    def dose(self, rounds: int) -> None:
        table, keys, n = self.table, self.keys, len(self.keys)
        push, pop, send = heapq.heappush, heapq.heappop, self.gen.send
        heap: list[list] = []
        i, acc = self.cursor, 0
        for _ in range(rounds):
            i = (i + 7919) % n
            cell = table[keys[i]]
            acc += cell.step(i)
            push(heap, [cell.a, i, cell, (acc,), None])
            if len(heap) > 64:
                send(pop(heap)[0])
        self.cursor = i


_kernel: _Kernel | None = None


def run(rounds: int = ROUNDS) -> float:
    """One dose; returns its CPU seconds."""
    global _kernel
    if _kernel is None:
        _kernel = _Kernel()
        _kernel.dose(rounds)            # first touch of the working set
    t0 = time.process_time()
    _kernel.dose(rounds)
    return time.process_time() - t0


class Pacer:
    """Times one phase in slices with a calibration dose between them.

    Call :meth:`tick` with the work done since the last call (simulator
    events fired) wherever the phase can be interrupted; once ``quantum``
    units have accumulated the slice is closed and a reading taken.  The
    work counts are exact, so every repetition of one seed cuts the phase
    at the same places and slice *i* holds the same work each time --
    which lets ``run.py`` take the median of each slice over the
    repetitions before summing, so a burst of noise that hits one slice
    of one repetition is voted out.  :meth:`finish` closes the last
    slice.  With ``interleave=False`` only the two end readings are taken
    (the profiled repetition, where doses would land in the profile).
    """

    #: doses averaged into the reading at each end of the phase: a short
    #: phase (set-up) is converted with these two readings alone
    END_DOSES = 3

    def __init__(self, interleave: bool = True, quantum: int = QUANTUM):
        self.interleave = interleave
        self.quantum = quantum
        self.slices: list[float] = []
        self.readings: list[float] = [self._end_reading()]
        self._work = 0
        self._t = time.process_time()

    def _end_reading(self) -> float:
        return sum(run() for _ in range(self.END_DOSES)) / self.END_DOSES

    def tick(self, work: int) -> None:
        self._work += work
        if not self.interleave or self._work < self.quantum:
            return
        now = time.process_time()
        self.slices.append(now - self._t)
        self.readings.append(run())
        self._work = 0
        self._t = time.process_time()

    def finish(self) -> None:
        self.slices.append(time.process_time() - self._t)
        self.readings.append(self._end_reading())

    @property
    def cpu_s(self) -> float:
        """Raw CPU seconds of the phase, doses excluded."""
        return sum(self.slices)

    @property
    def ref_slices(self) -> list[float]:
        """Each slice in reference-speed seconds."""
        r = self.readings
        return [s * CALIB_REF_S / ((r[i] + r[i + 1]) / 2)
                for i, s in enumerate(self.slices)]

    @property
    def ref_s(self) -> float:
        """The phase in reference-speed seconds."""
        return sum(self.ref_slices)
