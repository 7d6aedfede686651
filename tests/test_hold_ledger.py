"""What a CPU charge costs the engine, in events: pinned as literals.

The hold path (``Cpu.run`` → ``begin_hold`` → its timer → ``end_hold``)
is cut for host time, never for simulated time or engine events.  Each
world here is one shape of charge the path elides hops for; its
``scheduled`` / ``fired`` / ``inlined`` / ``requeued`` / ``cancelled``
counts and final clock are the values the path booked before its
bytecodes were cut, on both substrates (the legacy loop inlines
nothing, so ``inlined`` is the only column that differs).
"""

import pytest

from repro.bench.census import YieldCensus
from repro.hw.calibration import Calibration, PRIO_KERNEL
from repro.hw.cpu import Cpu
from repro.sim.engine import Engine, Timeout
from repro.sim.units import CYCLE_PS

Q = Calibration().exec_quantum_cycles
LEDGER = ("scheduled", "fired", "inlined", "requeued", "cancelled", "now_ps")


def booked(engine):
    stats = engine.stats()
    return tuple(stats[key] for key in LEDGER)


def uncontended(engine, cpu):
    """One exec of five quanta on an idle CPU: the start, the timer and
    the wake-up it resumes inline."""
    engine.spawn(cpu.exec(5 * Q, PRIO_KERNEL))


def granted(engine, cpu):
    """A second exec queues a quantum into the first one's three (no
    cut: it is no more urgent) and is granted the CPU at the release,
    its hold opened there; the first acquire ties with the second
    process's start at tick 0, one re-queue."""
    def late():
        yield Timeout(engine, Q * CYCLE_PS + 7)
        yield from cpu.exec(2 * Q, PRIO_KERNEL)

    engine.spawn(cpu.exec(3 * Q, PRIO_KERNEL))
    engine.spawn(late())


def carried(engine, cpu):
    """A run of two segments: the hold runs on into the second at the
    first one's end, on the same timer, without a wake-up."""
    engine.spawn(cpu.run([(3 * Q, PRIO_KERNEL, False),
                          (Q + 5, PRIO_KERNEL, False)]))


#: world -> substrate -> (scheduled, fired, inlined, requeued,
#: cancelled, now_ps), as booked before the hold path's cut
BEFORE = {
    uncontended: {"fast": (3, 3, 1, 0, 0, 25_000_000),
                  "legacy": (3, 3, 0, 0, 0, 25_000_000)},
    granted: {"fast": (8, 8, 3, 1, 0, 25_000_000),
              "legacy": (8, 8, 0, 1, 0, 25_000_000)},
    carried: {"fast": (4, 4, 1, 0, 0, 20_125_000),
              "legacy": (4, 4, 0, 0, 0, 20_125_000)},
}

#: the hop each world is there for, as the census books it (fast
#: substrate: the census watches the fused loop)
ELIDED = {
    uncontended: ("Cpu.run", "Timeout", "pending"),
    granted: ("granted.<locals>.late", "Event:acquire", "granted"),
    carried: ("Cpu.run", "Timeout", "continued"),
}


@pytest.mark.parametrize("substrate", ("fast", "legacy"))
@pytest.mark.parametrize("world", list(BEFORE), ids=lambda w: w.__name__)
def test_a_charge_books_its_events_as_before(world, substrate):
    engine = Engine(substrate)
    cpu = Cpu(engine, Calibration())
    world(engine, cpu)
    with YieldCensus() as census:
        engine.run()
    assert booked(engine) == BEFORE[world][substrate]
    assert cpu.cycles_charged * CYCLE_PS == cpu.busy_ticks
    if substrate == "fast":
        assert census.by_function()[ELIDED[world]] == 1
