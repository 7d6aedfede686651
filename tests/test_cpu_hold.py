"""The CPU's three hop elisions against the CPU that takes every hop.

A charge is one timed hold on the CPU, cut back to a quantum boundary
only when a waiter the holder yields to queues or the process gate
shuts (``Cpu.cut``); and a process skips a wake-up, or a same-tick queue
entry, wherever nobody could tell (a *hop elision*):

* **pass-through**: a lock or gate that lets its caller through is asked
  but not yielded (``Engine.passes``);
* **carry-on**: one hold runs on into the next segment of its run
  (``Run.continue_hold``), through the code between two charges too
  (``Code.carry``: the code runs at the boundary, where the woken holder
  would run it);
* **grant-and-hold**: a contended hand-over opens the next holder's hold
  at the release (``Run.grant``, ``Event.skip_hop``).

**The references.**  ``HopCpu`` is the CPU with every elision off: every
segment its own hold, the holder waking at every segment end and
running the code between two charges itself, every lock and gate wait
yielded (on a ``HopEngine``, in ``Process.block_on`` too), every request
queued with no plan.  ``SlicedCpu`` is ``HopCpu`` with
every hold one quantum long: the per-quantum loops the coalesced hold
replaced.  ``wait_always`` is the always-yield form of the engine-level
pass-through (``TestPassThroughRule``).  One world (``World``), one
generator (``schedules``) and one check (``agree``) hold production to
``HopCpu`` on every draw and to ``SlicedCpu`` on the draws without
same-tick ties, on both substrates: the same log, hand-overs, ledger and
lock, and against ``HopCpu`` the same engine counters but for the hops
saved.

**The same-tick rule, for arrivals.**  A waiter that queues (or a gate
that shuts) on the very tick of a quantum boundary is served at that
boundary.  The sliced model agreed whenever the arrival ran before the
holder's own wake-up at that tick (an arrival armed at tick 0, ahead of
any quantum timer); when the holder woke first it had already started
its next quantum and the arrival waited one more — an artefact of event
order within a tick, pinned (not reproduced) by ``TestSameTickRule``.
The sliced model also arms its last quantum's timer later than a
coalesced hold does, so at a segment end same-tick events fire in
another order: the draws held to it give every arrival its own
sub-cycle offset (``ties=False``).  ``HopCpu`` holds whole segments and
agrees on every tie.

**The same-tick rule, for reads.**  A ledger read (``busy_ticks``,
``cycles_charged``) counts every whole quantum completed by its tick,
the open hold's included: what a holder waking every quantum would have
written by then, and on a boundary's tick also before the holder has
woken there.
"""

import itertools
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.census import YieldCensus
from repro.bench.testbed import make_an2_pair
from repro.hw.calibration import (
    Calibration, PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER,
)
from repro.hw.cpu import Cpu, ENDLESS, YIELD_TO_ANY
from repro.hw.link import Frame
from repro.kernel.process import Process
from repro.kernel.scheduler import RoundRobinScheduler
from repro.net.socket_api import make_stacks, tcp_pair
from repro.net.udp import UdpSocket
from repro.sim import Engine
from repro.sim.engine import Event, Timeout
from repro.sim.queues import Gate, PriorityLock
from repro.sim.units import CYCLE_PS
from repro.telemetry.hub import Telemetry

SUBSTRATES = ("fast", "legacy")
Q = Calibration().exec_quantum_cycles
Q_TICKS = Q * CYCLE_PS
#: derandomized, with a fixed budget: the same draws on every run
PROPERTY = settings(deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# the references
# ---------------------------------------------------------------------------

class HopEngine(Engine):
    """An engine on which nothing is passed through: every lock and gate
    wait is yielded, ``Process.block_on``'s too."""

    def passes(self, event):
        return False


class HopCpu(Cpu):
    """Every segment its own hold, the holder waking at each segment
    end: ``Cpu.exec`` and ``Process.compute`` as they were before a run
    of charges could be carried on as one hold, and ``run`` as the
    ``yield from a; yield from b`` sequence that stood where each run
    stands now.  Every lock and gate wait is yielded and every request
    queued with no plan, so every grant wakes its waiter.  A gated
    kernel segment is the old ``Process.syscall_enter``; a zero-cycle
    segment is no charge at all.  A spin is one hold until cut, its
    timer queued only then (by ``Cpu.cut``)."""

    def _begin(self, cycles, yield_below, gate=None):
        engine = self.engine
        self._start = engine._now
        if cycles > self._quantum:
            waiters = self.lock._waiters
            if (waiters and waiters[0][0] < yield_below) or (
                gate is not None and not gate._open
            ):
                cycles = self._quantum
            else:
                self.yield_below = yield_below
                self._end_at = engine._now + cycles * CYCLE_PS
                self.lock.hold = self
                if gate is not None:
                    self._gate = gate
                    gate.hold = self
        if cycles == ENDLESS:
            timer = Timeout.unarmed(engine)
            timer._state = Event._PENDING
        else:
            timer = Timeout(engine, cycles * CYCLE_PS)
        self._timer = timer
        return timer

    def _end(self):
        self._timer = None
        lock = self.lock
        if lock.hold is not None:
            lock.hold = None
            gate = self._gate
            if gate is not None:
                gate.hold = self._gate = None
        elapsed = self.engine._now - self._start
        self._busy_ticks += elapsed
        cycles = elapsed // CYCLE_PS
        self._cycles_charged += cycles
        return cycles

    def _exec(self, cycles, prio):
        lock = self.lock
        waiters = lock._waiters
        yield lock.acquire(prio)
        injector = self.contention
        if injector is not None:
            stolen = injector.steal()
            if stolen:
                yield Timeout(self.engine, stolen * CYCLE_PS)
                self.contention_cycles += stolen
        while True:
            yield self._begin(cycles, prio)
            cycles -= self._end()
            if cycles <= 0:
                break
            if waiters and waiters[0][0] < prio:
                lock.release()
                yield lock.acquire(prio)
        lock.release()

    def _compute(self, proc, cycles, prio):
        lock = self.lock
        while cycles > 0:
            yield proc.gate.wait()
            yield lock.acquire(prio)
            yield self._begin(cycles, YIELD_TO_ANY, proc.gate)
            cycles -= self._end()
            lock.release()

    def run(self, segments, proc=None):
        for cycles, prio, gated in segments:
            if not cycles:
                continue
            if gated and prio == PRIO_USER:
                yield from self._compute(proc, cycles, prio)
                continue
            if gated:
                yield proc.gate.wait()
            yield from self._exec(cycles, prio)

    def run_code(self, segments, proc=None):
        """``yield from a; code; yield from b``: each segment a run of its
        own, the code run as the next one is drawn."""
        return self.run(one_by_one(segments), proc)


def one_by_one(segments):
    """A code run's segments (``Cpu.run_code``) one at a time, a yielded
    tuple's too, and the last one it returns."""
    while True:
        try:
            seg = next(segments)
        except StopIteration as stop:
            if stop.value is not None:
                yield stop.value
            return
        if seg[0].__class__ is tuple:
            yield from seg
        else:
            yield seg


class SlicedCpu(HopCpu):
    """``HopCpu`` waking at every quantum boundary as well: every hold
    is one quantum, so the holder looks for waiters (and its gate) at
    each boundary, as the loops the coalesced hold replaced did (a spin
    too: one-quantum holds for ever)."""

    def _begin(self, cycles, yield_below, gate=None):
        return super()._begin(min(cycles, self._quantum), yield_below, gate)


# ---------------------------------------------------------------------------
# one world all three CPUs run in
# ---------------------------------------------------------------------------

class Prio(int):
    """A priority that remembers whose it is (for the grant log)."""

    def __new__(cls, value, owner):
        self = super().__new__(cls, value)
        self.owner = owner
        return self


class RecordingLock(PriorityLock):
    """Logs ``(tick, owner)`` each time the CPU changes hands.  The
    references re-take the free lock at every hold; taking it again
    from oneself is not a hand-over, so repeats are dropped."""

    def __init__(self, engine):
        super().__init__(engine, "cpu.lock")
        self.grants = []

    def _granted(self, priority):
        owner = getattr(priority, "owner", int(priority))
        if not self.grants or self.grants[-1][1] != owner:
            self.grants.append((self.engine.now, owner))

    def acquire(self, priority=10, plan=None):
        if not self._locked:
            self._granted(priority)
        return super().acquire(priority, plan)

    def release(self):
        if self._waiters:
            self._granted(self._waiters[0][0])
        super().release()


class Stealer:
    """The ``cpu.contention`` seam: foreign bursts from a fixed list,
    one draw per segment (as ``faults.CpuContention.steal``)."""

    def __init__(self, bursts):
        self.bursts = list(bursts)

    def steal(self):
        return self.bursts.pop(0) if self.bursts else 0


#: where a generated world stops (a spin never ends)
HORIZON = 200 * Q_TICKS


class Boom(Exception):
    """What code between charges raises (``World.code``)."""


class World:
    """One CPU (production's or a reference) and actors and probes that
    log ``(tick, who, what)`` as they go: the log is the hand-over and
    same-tick order the CPUs must agree on.  An actor is ``(name, kind,
    rounds)``; each round ``(gap, slot, segments)`` sleeps ``gap``
    cycles (ending on sub-cycle offset ``slot``, if one is given; gap
    None: on at once) and then runs its segments.  A round whose
    segments hold ``("code", what, arg)`` items is a code run
    (``Cpu.run_code``): the code runs where it stands between them
    (``World.code``)."""

    def __init__(self, substrate, cpu=Cpu, quantum_us=1024.0, steals=()):
        self.engine = eng = (Engine if cpu is Cpu else HopEngine)(substrate)
        cal = Calibration().with_changes(quantum_us=quantum_us)
        self.cpu = cpu = cpu(eng, cal)
        cpu.lock = RecordingLock(eng)
        if steals:
            cpu.contention = Stealer(steals)
        node = SimpleNamespace(cpus=[cpu],
                               telemetry=Telemetry(eng, enabled=False))
        self.kernel = SimpleNamespace(engine=eng, cal=cal, node=node,
                                      schedulers=[])
        self.procs, self.log = {}, []

    def scheduler(self):
        self.kernel.schedulers.append(RoundRobinScheduler(self.kernel))

    def note(self, who, what):
        self.log.append((self.engine.now, who, what))

    def sleep(self, gap_cycles, slot):
        gap = gap_cycles * CYCLE_PS
        if slot is not None:
            gap += (slot - (self.engine.now + gap)) % CYCLE_PS
        return Timeout(self.engine, gap)

    def spawn(self, name, kind, rounds):
        """``exec``: a bare charge; ``process``: a scheduled process that
        sleeps off the run queue between rounds; ``idle``: one that
        sleeps on it, idling through its own slices; ``spin``: one that
        computes for ever (it has no rounds)."""
        # every segment's priority names its actor: a run changing
        # priority is not a hand-over
        rounds = [(gap, slot, [item if item[0] == "code"
                               else (item[0], Prio(item[1], name), item[2])
                               for item in segments])
                  for gap, slot, segments in rounds]

        def body(proc=None):
            if kind == "spin":
                yield from proc.spin()
                return
            for gap, slot, segments in rounds:
                try:
                    if proc is None and gap is not None:
                        yield self.sleep(gap, slot)
                    elif proc is not None and (gap or slot is not None):
                        sleep = self.sleep(gap, slot)
                        if kind == "idle":
                            yield sleep
                        else:
                            yield from proc.block_on(sleep)
                    if any(item[0] == "code" for item in segments):
                        yield from self.cpu.run_code(
                            self.code_run(name, proc, segments), proc)
                    else:
                        yield from self.cpu.run(segments, proc)
                except Boom:
                    self.note(name, "raised")
                self.note(name, "done")

        if kind == "exec":
            self.procs[name] = self.engine.spawn(body(), name=name)
        else:
            self.procs[name] = proc = Process(self.kernel, name, body)
            proc.start()

    def code_run(self, name, proc, items):
        """The generator ``Cpu.run_code`` takes for ``items``: the code
        items run where they stand, the segments between two of them
        yielded one by one or as a tuple, the last segment returned."""
        group = []
        for item in items:
            if item[0] != "code":
                group.append(item)
                continue
            if group:
                yield tuple(group) if len(group) > 1 else group[0]
                group = []
            self.code(name, proc, *item[1:])
        if not group:
            return None
        if len(group) > 1:
            yield tuple(group[:-1]) if len(group) > 2 else group[0]
        return group[-1]

    def code(self, name, proc, what, arg):
        """Code between two charges of ``name``'s run: log the tick;
        queue an entry due at it; shut ``proc``'s gate for a while;
        spawn a charge that queues for the CPU at priority ``arg``;
        raise."""
        eng = self.engine
        self.note(name, what)
        if what == "tick":
            Timeout(eng, 0).add_callback(lambda _ev: self.note(name, "tock"))
        elif what == "shut":
            if proc is not None:
                proc.gate.close()
                Timeout(eng, 3 * Q_TICKS + 7).add_callback(
                    lambda _ev: proc.gate.open())
        elif what == "spawn":
            def charge():
                yield from self.cpu.exec(Q // 4, Prio(arg, name + "+"))
                self.note(name + "+", "done")
            eng.spawn(charge(), name=name + "+")
        elif what == "raise":
            raise Boom(name)

    def spawn_probe(self, what, at, slot, hops, victim):
        """At tick ``at`` cycles (+ sub-cycle ``slot``), reached through
        one timer armed at tick 0 or two (``hops``), the second armed
        when the first fires: read the ledger, queue an urgent charge, or
        shut ``victim``'s gate for a while."""
        def body():
            eng = self.engine
            tick = at * CYCLE_PS + (slot or 0)
            if hops:
                yield Timeout(eng, tick // 2)
            yield Timeout(eng, tick - eng.now)
            if what == "read":
                self.note("probe", self.ledger())
            elif what == "urgent":
                yield from self.cpu.exec(Q // 4, Prio(PRIO_INTERRUPT, "urgent"))
                self.note("urgent", "done")
            else:
                # shut, behind the scheduler's back, for a while: with
                # nobody queued for the CPU only the gate can stop a hold
                # from running on into user work
                target = self.procs.get(victim)
                if isinstance(target, Process):
                    target.gate.close()
                    self.note("shut", victim)
                    yield Timeout(eng, 3 * Q_TICKS + 7)
                    target.gate.open()
        self.engine.spawn(body(), name="probe")

    def ledger(self):
        return self.cpu.busy_ticks, self.cpu.cycles_charged

    def observe(self, until=None):
        eng = self.engine
        eng.run(until=until)
        stats = eng.stats()
        return {"log": self.log, "grants": self.cpu.lock.grants,
                "ledger": self.ledger(), "locked": self.cpu.lock.locked,
                "contention_cycles": self.cpu.contention_cycles,
                "engine": (stats["now_ps"], stats["cancelled"],
                           stats["pending"], eng.substrate == "legacy"
                           and stats["queue"]["tombstones_popped"]),
                "hops": (stats["fired"], stats["scheduled"])}


def play(schedule, substrate, cpu=Cpu):
    """``schedule`` in a world of ``cpu``'s with a round-robin scheduler:
    what it observed."""
    world = World(substrate, cpu, schedule["quantum_us"], schedule["steals"])
    world.scheduler()
    # probes first: a probe armed at tick 0 runs ahead of a boundary on
    # its tick; one that takes two timers, behind it
    for probe in schedule["probes"]:
        world.spawn_probe(*probe)
    for actor in schedule["actors"]:
        world.spawn(*actor)
    return world.observe(until=HORIZON)


def agree(schedule, reference=HopCpu):
    """Production against ``reference`` on both substrates: the same log
    (same-tick order included), hand-overs, ledger and lock.  Against
    ``HopCpu`` the engine counters too: every hop saved is one entry
    neither scheduled nor fired, and nothing else moves.  Returns what
    was observed, with ``saved``, the hops saved (``HopCpu`` only)."""
    want = None
    for substrate in SUBSTRATES:
        ref, got = play(schedule, substrate, reference), play(
            schedule, substrate)
        (ref_fired, ref_scheduled), (fired, scheduled) = (
            ref.pop("hops"), got.pop("hops"))
        if reference is HopCpu:
            got["saved"] = ref["saved"] = ref_fired - fired
            assert ref_fired - fired == ref_scheduled - scheduled >= 0
        else:   # (it takes a timer per quantum, and cuts no hold)
            del ref["engine"], got["engine"]
        assert got == ref, substrate
        ref.pop("engine", None)     # (a legacy tombstone moves the clock)
        assert ref == (want := want or ref), substrate
    return want


# ---------------------------------------------------------------------------
# generated schedules
# ---------------------------------------------------------------------------

#: charges: anything from one cycle to a hundred quanta, with whole
#: quanta, a quantum +- 1 and none over-represented
CYCLES = st.one_of(
    st.integers(1, 700),
    st.integers(1, 20_000),
    st.integers(1, 12).map(lambda k: k * Q),
    st.integers(1, 100).map(lambda k: k * Q),
    st.integers(1, 20).flatmap(
        lambda k: st.sampled_from((k * Q - 1, k * Q + 1))),
    st.just(0),
)
#: (prio, gated) of a process's segments: user work, a kernel crossing
#: (waits for the gate once), kernel and interrupt work on its behalf
PROCESS_KINDS = ((PRIO_USER, True), (PRIO_USER, True), (PRIO_KERNEL, True),
                 (PRIO_KERNEL, False), (PRIO_INTERRUPT, False),
                 (PRIO_USER, False))
PRIOS = (PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER)


#: code between charges (``World.code``), a raise the rarest
CODE = ("log", "tick", "tick", "shut", "spawn", "spawn", "raise")


@st.composite
def schedules(draw, ties=True, least=1, code=False):
    """``least`` to five actors that contend for one CPU, with runs of one to four segments
    of any priority and length, gated or not; rounds that begin at tick
    0, on a quantum boundary of whatever began there, after a gap, or at
    once when the last ends (the releaser queues again before anyone
    else runs); urgent arrivals, gate shuts and ledger reads,
    some on the tick a run that began at 0 ends a segment, ahead of its
    timer or behind it (and so on the tick of a contended release);
    contention bursts and short slices.

    With ``code`` a run may hold code at its segment boundaries, before
    its first and after its last (``World.code``).

    With ``ties`` False every arrival after tick 0 gets a sub-cycle
    offset of its own and every slice is a few ps over a whole number of
    microseconds: nothing lands on a tick where a holder wakes by
    accident (the same-tick rule).
    """
    slots = iter(range(500, CYCLE_PS, 1000))    # one offset each

    def slot(*shared):
        return draw(st.sampled_from(shared)) if ties else next(slots)

    actors, ends = [], []
    # (code is carried on through only at a boundary nothing else shares:
    # with code, fewer actors)
    n = draw(st.integers(least, 3 if code else 5))
    for i in range(n):
        kind = draw(st.sampled_from(
            ("exec", "exec", "process", "process", "idle", "spin")))
        rounds = []
        for r in range(0 if kind == "spin" else draw(st.integers(1, 3))):
            segments = [
                (draw(CYCLES), *(
                    (draw(st.sampled_from(PRIOS)), False)
                    if kind == "exec"
                    else draw(st.sampled_from(PROCESS_KINDS))))
                for _ in range(draw(st.integers(1, 4)))]
            start = draw(st.sampled_from(
                ("zero", "boundary", "gap") if r == 0 else
                ("gap", "gap", "at once")))
            if start == "zero":
                gap, slot_ = 0, None
                if kind != "exec" and draw(st.booleans()):
                    # long enough to be walked in on
                    segments[0] = (segments[0][0] + 40 * Q,
                                   *segments[0][1:])
                # where a probe lands exactly on a segment end
                ends += itertools.accumulate(c for c, _p, _g in segments)
            elif start == "boundary" and kind == "exec":
                gap, slot_ = draw(st.integers(2, 60)) * Q, None
            elif start == "at once":
                gap, slot_ = None, None
            else:
                gap, slot_ = draw(st.integers(0, 3000)), slot(
                    None, 7, 11_007, 23_333)
            if code:
                for _ in range(draw(st.integers(1, 3))):
                    segments.insert(
                        draw(st.integers(0, len(segments))),
                        ("code", draw(st.sampled_from(CODE)),
                         draw(st.sampled_from(PRIOS))))
            rounds.append((gap, slot_, segments))
        actors.append((f"a{i}", kind, rounds))
    probes = []
    for _ in range(draw(st.integers(0, 6))):
        what = draw(st.sampled_from(
            ("read", "read", "urgent", "urgent", "shut")))
        if ties and ends and draw(st.booleans()):
            at, slot_ = draw(st.sampled_from(ends)), None
        else:
            at, slot_ = draw(st.integers(1, 20_000)), slot(None, 12_345)
        probes.append((what, at, slot_, draw(st.integers(0, 1)),
                       f"a{draw(st.integers(0, n - 1))}"))
    return {
        "actors": actors, "probes": probes,
        "steals": draw(st.one_of(st.just([]), st.lists(
            st.sampled_from((0, 1, Q - 1, Q, 3 * Q + 7)), max_size=8))),
        # a few ps on a whole slice: it never ends on a tick where the
        # running process wakes (TestSameTickRule covers the slice that
        # does); short slices so that several end inside one schedule
        "quantum_us": draw(st.sampled_from(
            (20.000007, 64.000007, 1024.000007)
            + ((64.0, 1024.0) if ties else ()))),
    }


class TestDifferential:
    @given(schedules(ties=False))
    @settings(PROPERTY, max_examples=60)
    def test_generated_schedules(self, schedule):
        agree(schedule, SlicedCpu)

    def test_interrupt_arrives_mid_charge(self):
        """The textbook case, spelled out: an interrupt 3.5 quanta into
        a 10-quantum user charge is served at quantum 4."""
        schedule = {
            "actors": [
                ("user", "exec", [(2 * Q, None, [(10 * Q, PRIO_USER, False)])]),
                ("intr", "exec", [(5 * Q + Q // 2, None,
                                   [(Q // 4, PRIO_INTERRUPT, False)])]),
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        for reference in (SlicedCpu, HopCpu):
            seen = agree(schedule, reference)
        assert seen["grants"] == [
            (2 * Q_TICKS, "user"), (6 * Q_TICKS, "intr"),
            (6 * Q_TICKS + Q // 4 * CYCLE_PS, "user"),
        ]

    def test_compute_yields_to_equal_priority(self):
        """``compute`` releases between quanta, so even a PRIO_USER
        ``exec`` gets in at the next boundary; ``exec`` would not yield."""
        schedule = {
            "actors": [
                ("lib", "exec", [(3 * Q + 50, None, [(2 * Q, PRIO_USER,
                                                      False)])]),
                ("app", "process", [(0, None, [(10 * Q, PRIO_USER, True)])]),
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        for reference in (SlicedCpu, HopCpu):
            seen = agree(schedule, reference)
        assert seen["grants"][:3] == [
            (0, "app"), (4 * Q_TICKS, "lib"), (6 * Q_TICKS, "app")]

# ---------------------------------------------------------------------------
# the same-tick rule
# ---------------------------------------------------------------------------

def user_work(name, *rounds, kind="process"):
    """A process that computes ``cycles`` in each of ``rounds``, ``(gap,
    slot, cycles)``."""
    return name, kind, [(gap, slot, [(cycles, PRIO_USER, True)])
                        for gap, slot, cycles in rounds]


class Slicer:
    """The simplest round-robin there is: open a gate, sleep one slice,
    shut it, next.  Its slice timer is armed before the running
    process's quantum timers and it shuts the gate the moment it wakes,
    so a slice that ends on a quantum boundary shuts the gate *before*
    the sliced process wakes there: the tie both models agree on."""

    def __init__(self, world, slice_ticks):
        self.world, self.slice_ticks = world, slice_ticks
        world.kernel.schedulers.append(self)
        self.ready = []
        world.engine.spawn(self._loop(), name="slicer")

    def add(self, proc):
        self.ready.append(proc)

    def on_exit(self, proc):
        self.ready.remove(proc)

    def _loop(self):
        eng = self.world.engine
        turn = 0
        while self.ready:
            proc = self.ready[turn % len(self.ready)]
            turn += 1
            proc.gate.open()
            yield Timeout(eng, self.slice_ticks)
            proc.gate.close()


class TestSameTickRule:
    @pytest.mark.parametrize("lead", [0, 160, 37])
    def test_slice_end_on_a_chunk_boundary(self, lead):
        """A 1024 us slice is 204.8 quanta; after ``lead`` = 160 cycles
        of other work the slice ends exactly on quantum boundary 204."""
        def run(substrate, cpu):
            world = World(substrate, cpu)
            Slicer(world, 1024 * 1_000_000)
            for name in ("a", "b"):
                world.spawn(*user_work(name, *[(0, None, lead)] * bool(lead),
                                       (0, None, 60_000)))
            return world.observe()["log"]

        want = run("fast", SlicedCpu)
        for substrate in SUBSTRATES:
            for cpu in (SlicedCpu, HopCpu, Cpu):
                assert run(substrate, cpu) == want

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_boundary_tick_is_served_there(self, substrate):
        """The rule itself.  ``late`` reaches tick 3Q through two timers,
        the second armed *after* the sliced holder's quantum timer for
        3Q: the sliced holder woke first, saw nobody, and ran on to 4Q.
        The hold is cut on arrival, so the waiter is served at 3Q."""
        def run(cpu):
            world = World(substrate, cpu)
            eng = world.engine

            def late():
                yield Timeout(eng, 5 * Q_TICKS // 2)
                yield Timeout(eng, Q_TICKS // 2)
                yield from world.cpu.exec(Q, Prio(PRIO_INTERRUPT, "late"))

            world.spawn("user", "exec", [(0, None, [(10 * Q, PRIO_USER,
                                                     False)])])
            eng.spawn(late())
            return world.observe()["grants"]

        assert run(Cpu)[1] == run(HopCpu)[1] == (3 * Q_TICKS, "late")
        assert run(SlicedCpu)[1] == (4 * Q_TICKS, "late")

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_real_scheduler_slice_end_on_a_boundary(self, substrate):
        """``RoundRobinScheduler`` wakes through an ``AnyOf``, one queue
        hop later than the process it is about to stop; on a tie the
        sliced process had slipped through the still-open gate and ran
        one more quantum *after* the context switch.  Now the gate shuts
        on the boundary and the process stops there."""
        def run(cpu):
            world = World(substrate, cpu)
            world.scheduler()
            for name in ("a", "b"):
                world.spawn(*user_work(name, (0, None, 160),
                                       (0, None, 60_000)))
            return world.observe()["grants"]

        slice_end = 1024 * 40 * CYCLE_PS          # boundary 204 of ``a``
        switch = 25 * 40 * CYCLE_PS
        assert run(Cpu)[:3] == run(HopCpu)[:3] == [
            (0, "a"), (slice_end, PRIO_KERNEL), (slice_end + switch, "b")]
        assert run(SlicedCpu)[1:3] == [
            (slice_end, PRIO_KERNEL), (slice_end + switch, "a")]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_start_tick_waits_one_quantum(self, substrate):
        """A hold is never cut to nothing: a waiter that queues on the
        tick the hold began — two queue hops behind it, so the hold is
        already open — is served one quantum later, as ever."""
        def run(cpu):
            world = World(substrate, cpu)
            eng = world.engine

            def intr():
                yield Timeout(eng, 2 * Q_TICKS)
                yield Timeout(eng, 0)
                yield Timeout(eng, 0)
                assert world.cpu.lock.locked
                yield from world.cpu.exec(Q, Prio(PRIO_INTERRUPT, "intr"))

            world.spawn("user", "exec", [(2 * Q, None, [(10 * Q, PRIO_USER,
                                                         False)])])
            eng.spawn(intr())
            return world.observe()["grants"][:2]

        assert run(Cpu) == run(SlicedCpu) == run(HopCpu) == [
            (2 * Q_TICKS, "user"), (3 * Q_TICKS, "intr")]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_end_tick(self, substrate):
        """A waiter that queues on the tick the hold ends, after its
        timer fired but before the holder woke, finds nothing to cut."""
        schedule = {
            "actors": [
                # spawned first, so its timer fires first at 5Q
                ("intr", "exec", [(5 * Q, None, [(Q, PRIO_INTERRUPT,
                                                  False)])]),
                ("user", "exec", [(0, None, [(5 * Q, PRIO_USER, False)]),
                                  (0, 500, [(Q, PRIO_USER, False)])]),
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        def run(cpu):
            seen = play(schedule, substrate, cpu)
            return seen["log"], seen["grants"], seen["ledger"]

        assert run(Cpu) == run(HopCpu) == run(SlicedCpu)
        assert run(Cpu)[1][:2] == [(0, "user"), (5 * Q_TICKS, "intr")]

    def test_gate_alone_cuts_the_hold(self):
        """Nobody queues for the CPU when ``a``'s slice ends — ``b``
        idles through its own on a timer — so only the gate can stop
        ``a``: at the first boundary after the slice end, after which
        the CPU stands idle until ``a``'s turn comes round again."""
        slice_ticks = 64 * 1_000_000 + 7

        def run(substrate, cpu):
            world = World(substrate, cpu)
            Slicer(world, slice_ticks)
            world.spawn(*user_work("a", (0, None, 20 * Q)))
            world.spawn(*user_work("b", (100 * Q, 500, Q), kind="idle"))
            return world.observe()["log"]

        want = run("fast", SlicedCpu)
        for substrate in SUBSTRATES:
            for cpu in (SlicedCpu, HopCpu, Cpu):
                assert run(substrate, cpu) == want
        done = -(-slice_ticks // Q_TICKS)     # 13 quanta in a 12.8 slice
        assert want[0] == (2 * slice_ticks + (20 - done) * Q_TICKS, "a",
                           "done")


# ---------------------------------------------------------------------------
# the pass-through rule: ``Engine.passes`` against the yield it replaced
# ---------------------------------------------------------------------------

def wait_always(engine, event):
    """The form every site in ``src/`` had: yield whatever the lock or
    the gate hands back."""
    yield event


def wait_if_needed(engine, event):
    """The form they have now."""
    if not engine.passes(event):
        yield event


class CountingLock(PriorityLock):
    """Sees every ``acquire``, passed through or not (as ``RecordingLock``
    and any other subclass must)."""

    asked = 0

    def acquire(self, priority=10, plan=None):
        self.asked += 1
        return super().acquire(priority, plan)


class CountingGate(Gate):
    asked = 0

    def wait(self):
        self.asked += 1
        return super().wait()


def run_actors(scripts, substrate, wait, grid):
    """Every actor walks its script; the log is the ``(tick, actor,
    step)`` order in which they got through each step."""
    eng = Engine(substrate)
    lock = CountingLock(eng, "lock")
    gates = [CountingGate(eng, f"gate{i}") for i in range(len(scripts))]
    for gate, script in zip(gates, scripts):
        if script["open"]:
            gate.open()
    procs, log = [], []

    def actor(me, steps):
        for i, (op, arg, hold) in enumerate(steps):
            held = False
            try:
                if op == "sleep":
                    yield Timeout(eng, arg * grid)
                elif op == "acquire":
                    yield from wait(eng, lock.acquire(arg))
                    held = True
                    log.append((eng.now, me, i, "granted"))
                    if hold:
                        yield Timeout(eng, hold * grid)
                elif op == "gate":
                    yield from wait(eng, gates[me].wait())
                elif op == "tombstone":
                    # a cancelled timer: on a heap it stays, due at its
                    # tick, until the loop pops it
                    Timeout(eng, arg * grid).cancel()
                elif op == "toggle":
                    gate = gates[arg % len(gates)]
                    gate.close() if gate.is_open else gate.open()
            finally:
                if held:
                    lock.release()
            log.append((eng.now, me, i, op))

    for me, script in enumerate(scripts):
        procs.append(eng.spawn(actor(me, script["steps"]), name=f"a{me}"))
    eng.run()
    return {
        # (not ``eng.now``: a trailing tombstone moves the legacy clock)
        "log": log, "locked": lock.locked,
        "asked": (lock.asked, [gate.asked for gate in gates]),
        "open": [gate.is_open for gate in gates],
        "alive": [not proc.triggered for proc in procs],
    }, eng.stats()["fired"]


#: delays on a coarse grid, so that actors meet on a tick all the time
STEPS = st.one_of(
    st.tuples(st.just("sleep"), st.integers(0, 4), st.just(0)),
    st.tuples(st.just("acquire"),
              st.sampled_from((PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER)),
              st.integers(0, 3)),
    st.tuples(st.just("gate"), st.just(0), st.just(0)),
    st.tuples(st.just("tombstone"), st.integers(0, 4), st.just(0)),
    st.tuples(st.just("toggle"), st.integers(0, 5), st.just(0)),
)
ACTORS = st.lists(
    st.fixed_dictionaries({"open": st.booleans(),
                           "steps": st.lists(STEPS, min_size=1, max_size=8)}),
    min_size=1, max_size=5)


class TestPassThroughRule:
    #: ticks per grid step: everything inside the calendar queue's due
    #: heap (a cancelled timer leaves a tombstone on both substrates),
    #: and spread over its wheel (on ``fast`` the cancel removes it)
    GRIDS = (7, 300_000_007)

    @given(ACTORS, st.sampled_from(GRIDS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_schedules(self, scripts, grid):
        self.check(scripts, grid)

    @staticmethod
    def check(scripts, grid):
        want, want_fired = run_actors(scripts, "fast", wait_always, grid)
        for substrate in SUBSTRATES:
            ref, ref_fired = run_actors(scripts, substrate, wait_always, grid)
            got, fired = run_actors(scripts, substrate, wait_if_needed, grid)
            assert ref == want, substrate
            assert got == want, substrate
            # a process that waits for nothing is not a dispatch, asked
            # or yielded, alone at its tick or re-queued behind a sibling
            assert ref_fired == fired == want_fired, substrate

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_alone_at_a_tick_it_passes(self, substrate):
        eng = Engine(substrate)
        lock = PriorityLock(eng)
        seen = []

        def proc():
            yield Timeout(eng, 5)
            seen.append(eng.passes(lock.acquire()))
            seen.append(eng.passes(lock.acquire()))     # held: must wait
            seen.append(eng.passes(Timeout(eng, 0)))    # not the shared event

        eng.spawn(proc())
        eng.run()
        assert seen == [True, False, False]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    @pytest.mark.parametrize("sibling", ["timer", "tombstone"])
    def test_anything_else_due_at_the_tick_and_it_does_not(self, substrate,
                                                           sibling):
        """A live sibling must run first; a tombstone in the heap would
        pop first (silently) — the same test ``_send_step`` applies, so
        the same answer."""
        eng = Engine(substrate)
        gate = Gate(eng)
        gate.open()
        seen = []

        def proc():
            yield Timeout(eng, 5)
            other = Timeout(eng, 0)
            if sibling == "tombstone":
                other.cancel()
            seen.append(eng.passes(gate.wait()))

        eng.spawn(proc())
        eng.run()
        assert seen == [False]


# ---------------------------------------------------------------------------
# event budget and the ledger between wake-ups
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestEventBudget:
    CHARGE = 10_000   # 50 quanta

    def test_uncontended_exec_is_one_timer(self, substrate):
        eng = Engine(substrate)
        cpu = Cpu(eng, Calibration())
        eng.spawn(cpu.exec(self.CHARGE))
        eng.run()
        assert eng.now == self.CHARGE * CYCLE_PS
        assert cpu.cycles_charged == self.CHARGE
        # start, the timer, the wake-up: the lock is asked and lets the
        # charge through without a yield (4 while the grant was yielded;
        # sliced: 102, two per quantum)
        assert eng.stats()["fired"] == 3

    def test_a_same_tick_sibling_still_gets_the_hop(self, substrate):
        """With something else due at the tick of the acquire the grant
        is yielded as it always was: the charge takes the lock at once
        but opens its hold one queue hop later, behind the sibling."""
        eng = Engine(substrate)
        cpu = Cpu(eng, Calibration())
        seen = []

        def sibling():
            seen.append((cpu.lock.locked, cpu._timer is not None))
            return
            yield

        eng.spawn(cpu.exec(self.CHARGE))
        eng.spawn(sibling())
        with YieldCensus() as census:
            eng.run()
        assert seen == [(True, False)]
        assert eng.now == self.CHARGE * CYCLE_PS
        # the sibling's start; the hop it costs the charge is a queue
        # entry, booked as a re-queue: ``fired`` does not say which
        # ticks happened to be shared
        stats = eng.stats()
        assert (stats["fired"], stats["requeued"]) == (3 + 1, 1)
        if substrate == "fast":     # the census watches the fused loop
            assert census.by_function() == {
                ("Cpu.run", "Event:done", "hop"): 1,
                ("Cpu.run", "Timeout", "pending"): 1,
            }

    def test_fired_does_not_say_which_ticks_coincide(self, substrate):
        """Two nodes on one engine doing the same work: started on one
        tick they run in lockstep and every pass-through of one ties
        with the other's; a tick apart none does.  The re-queues differ,
        the events fired do not (``events_per_packet`` of the 20-node
        benchmark world spread 0.7 between seeds while they did)."""
        def run(offset):
            eng = Engine(substrate)

            def node(start):
                cpu = Cpu(eng, Calibration())
                yield Timeout(eng, start)
                for _ in range(5):
                    yield from cpu.exec(3 * Q)

            eng.spawn(node(1000))
            eng.spawn(node(1000 + offset))
            eng.run()
            return eng.stats()

        lockstep, apart = run(0), run(1)
        assert (lockstep["requeued"], apart["requeued"]) == (10, 0)
        assert lockstep["fired"] == apart["fired"]
        assert lockstep["scheduled"] == apart["scheduled"]

    def test_uncontended_compute_is_one_timer(self, substrate):
        world = World(substrate)
        world.scheduler()
        world.spawn(*user_work("app", (0, None, self.CHARGE)))
        world.engine.run()
        assert world.log == [(self.CHARGE * CYCLE_PS, "app", "done")]
        assert world.cpu.busy_ticks == self.CHARGE * CYCLE_PS
        # the scheduler's and the process's starts, the dispatch through
        # the gate (the lock then lets it through unyielded), one timer,
        # one wake-up, the exit (8 while the lock's grant was yielded;
        # sliced: 204, four per quantum); the slice timer is cancelled,
        # not fired
        stats = world.engine.stats()
        assert (stats["fired"], stats["cancelled"]) == (6, 1)

    def test_one_urgent_arrival_splits_once(self, substrate):
        eng = Engine(substrate)
        cpu = Cpu(eng, Calibration())

        def intr():
            yield Timeout(eng, 7 * Q_TICKS + 123)
            yield from cpu.exec(Q, PRIO_INTERRUPT)

        eng.spawn(cpu.exec(self.CHARGE))
        eng.spawn(intr())
        eng.run()
        assert eng.now == (self.CHARGE + Q) * CYCLE_PS
        stats = eng.stats()
        # one reschedule (one queue entry withdrawn), after which the
        # two parts of the charge and the interrupt are a timer and a
        # wake-up each (sliced: 109).  Nothing here passes through: the
        # first acquire ties with the interrupt's start at tick 0 (one
        # re-queue), the other two really wait for the CPU, and each is
        # granted with its hold opened at the release (12 while every
        # hand-over woke its waiter first)
        assert cpu.cycles_charged == self.CHARGE + Q
        assert (stats["fired"], stats["cancelled"], stats["requeued"]) \
            == (10, 1, 1)

    def test_ledger_mid_hold_reads_whole_quanta(self, substrate):
        """Between wake-ups the ledger reads what a holder waking every
        quantum would have written by then."""
        mid = 7 * Q_TICKS + Q_TICKS // 3
        seen = {}
        for sliced in (True, False):
            eng = Engine(substrate)
            cpu = (SlicedCpu if sliced else Cpu)(eng, Calibration())
            eng.spawn(cpu.exec(self.CHARGE))
            eng.run(until=mid)
            seen[sliced] = (cpu.cycles_charged, cpu.busy_ticks, cpu.busy_us)
            eng.run()
            assert cpu.cycles_charged == self.CHARGE
            assert cpu.busy_ticks == self.CHARGE * CYCLE_PS
        assert seen[False] == seen[True] == (7 * Q, 7 * Q_TICKS,
                                             7 * Q_TICKS / 1_000_000)

    def test_uncontended_send_is_one_run(self, substrate):
        """``sys_net_send`` on an idle node: the user path, the crossing
        in and the descriptor writes carried on one into the next, and on
        through the doorbell into the crossing out, whose timer and
        wake-up end it.  Five events a send, and the frame's arrival at
        the far NIC (no endpoint: dropped) one more; seven while the
        doorbell woke the sender."""
        def fired(sends):
            tb = make_an2_pair(engine=Engine(substrate))
            ck = tb.client_kernel

            def client(proc):
                for _ in range(sends):
                    yield from ck.sys_net_send(
                        proc, tb.client_nic, Frame(b"ping", vci=77))

            ck.spawn_process("client", client)
            tb.run()
            assert tb.server_nic.rx_dropped == sends
            return tb.engine.stats()["fired"]

        assert fired(3) - fired(2) == 6

    def test_uncontended_receive_is_one_run(self, substrate):
        """A library receive on an idle pair is one run from the poll
        check on, every charge carried on into the next and one wake-up
        at its end.  TCP with no handler, per 4-byte write: the server's
        receive (poll check, receive path, header prediction, the
        checksum's two charges, the ring copy, the ACK's build, its four
        send charges, then ``read``'s copy-out and wake-up path: 13
        charges) and the client's receive of the ACK (six, the last the
        write's closing charge), 50 events with the sends and the
        interrupts; UDP, per datagram: poll check, receive path, parse,
        the checksum's two charges and the copy-out, 24 events with the
        send (each woken holder between two of them costs one more)."""
        def session(n, tcp):
            tb = make_an2_pair(engine=Engine(substrate))
            cstack, sstack = make_stacks(tb)
            if tcp:
                client, server = tcp_pair(cstack, sstack)

                def s(proc):
                    yield from server.accept(proc)
                    for _ in range(n):
                        assert (yield from server.read(proc, 4)) == b"ping"

                def c(proc):
                    yield from client.connect(proc)
                    for _ in range(n):
                        yield from client.write(proc, b"ping")
            else:
                cs = UdpSocket(cstack, 5000, rx_vci=cstack.rx_vci(sstack.ip))
                ss = UdpSocket(sstack, 80, rx_vci=sstack.rx_vci(cstack.ip))

                def s(proc):
                    for _ in range(n):
                        got = yield from ss.recvfrom(proc)
                        assert got.payload == b"ping"

                def c(proc):
                    for _ in range(n):
                        yield from cs.sendto(proc, b"ping", sstack.ip, 80)

            tb.server_kernel.spawn_process("server", s)
            tb.client_kernel.spawn_process("client", c)
            with YieldCensus() as census:
                tb.run()
            return tb.engine.stats()["fired"], census.by_function()

        for tcp, events, site, charges in (
                (True, 50, "TcpConnection._pump", 13 + 6),
                (False, 24, "UdpSocket.recvfrom", 6)):
            (before, was), (after, now) = session(3, tcp), session(4, tcp)
            assert after - before == events
            if substrate == "fast":     # the census watches the fused loop
                moved = {key[1:]: now[key] - was.get(key, 0)
                         for key in now
                         if key[0] == site and now[key] != was.get(key)}
                runs = 2 if tcp else 1
                assert moved == {("Timeout", "continued"): charges - runs,
                                 ("Timeout", "pending"): runs}

# ---------------------------------------------------------------------------
# the run rule: one hold carried on at a segment end
# ---------------------------------------------------------------------------

def hand(*actors, probes=(), steals=()):
    """A schedule spelled out, on 1024 us slices."""
    return {"actors": list(actors), "probes": list(probes),
            "steals": list(steals), "quantum_us": 1024.0}


class TestRunRule:
    @given(schedules())
    @settings(PROPERTY, max_examples=60)
    def test_generated_runs(self, schedule):
        agree(schedule)

    @pytest.mark.parametrize("hops", [0, 1])
    @pytest.mark.parametrize("what", ["read", "urgent"])
    def test_arrival_on_a_segment_end(self, what, hops):
        """A reader or an urgent waiter on the tick one segment ends and
        the next begins, ahead of the segment's timer (``hops`` 0) or
        behind it (1): either way nobody can tell a continued hold."""
        seen = agree(hand(
            ("a0", "process", [(0, None, [
                (3 * Q + 50, PRIO_USER, True), (60, PRIO_KERNEL, True),
                (100, PRIO_KERNEL, False), (2 * Q, PRIO_USER, True)])]),
            probes=[(what, 3 * Q + 50 + 60, None, hops, "a0"),
                    ("read", 3 * Q + 50 + 60 + 100 + Q // 2, None, 0,
                     "a0")]))
        assert ("a0", "done") in [entry[1:] for entry in seen["log"]]

    @pytest.mark.parametrize("hops", [0, 1])
    def test_gate_shut_during_a_kernel_crossing(self, hops):
        """The crossing is not cut by its gate, so the hold runs to the
        crossing's end with the gate shut and nobody waiting for the
        CPU: the user work after it must wait for the gate, not run on."""
        seen = agree(hand(
            ("a0", "process", [(0, None, [
                (20, PRIO_USER, True), (3 * Q, PRIO_KERNEL, True),
                (2 * Q, PRIO_USER, True)])]),
            probes=[("shut", 20 + Q, 12_345, hops, "a0"),
                    # just after the crossing's end: a probe on that
                    # tick would be a sibling, and nothing carries on
                    ("read", 20 + 3 * Q, 12_345, 0, "a0")]))
        done = [tick for tick, who, what in seen["log"]
                if (who, what) == ("a0", "done")]
        # shut from Q + 20 cycles (+ 12 345 ps) for 3 quanta (+ 7 ps)
        assert done == [(4 * Q + 20 + 2 * Q) * CYCLE_PS + 12_345 + 7]

    def test_contention_draws_at_every_segment(self):
        """An injector draws a burst as each segment starts: a run with
        one installed is never carried on."""
        seen = agree(hand(
            ("a0", "exec", [(0, None, [
                (Q, PRIO_KERNEL, False), (Q + 3, PRIO_INTERRUPT, False)])]),
            steals=[Q, 2 * Q]))
        assert seen["contention_cycles"] == 3 * Q
        assert seen["log"] == [((5 * Q + 3) * CYCLE_PS, "a0", "done")]

    def test_a_clipped_hold_is_not_carried_on(self):
        """``a0`` computes first and gives way to ``x`` at its first
        quantum; it gets the CPU back only after its gate has shut, so its
        long user segment takes one quantum and gives way again.  The
        kernel work after it must wait for the rest of it, not follow
        that quantum."""
        seen = agree(hand(
            ("x", "exec", [(0, None, [(2 * Q, PRIO_KERNEL, False)])]),
            ("a0", "process", [(0, None, [
                (3 * Q, PRIO_USER, True), (Q, PRIO_KERNEL, False)])]),
            probes=[("shut", Q, 12_345, 0, "a0")]))
        assert [entry for entry in seen["log"] if entry[1] == "a0"] == [
            # Q, then Q with the gate shut, then Q once it opens at
            # 4Q + 12 352 ps, then the kernel work
            ((6 * Q) * CYCLE_PS + 12_345 + 7, "a0", "done")]

    def test_a_waiter_takes_the_cpu_at_the_segment_end(self):
        """``x`` queues during ``a0``'s first segment without cutting it
        (it is less urgent): the lock goes to ``x`` when that segment
        ends, so ``a0``'s second one waits its turn."""
        seen = agree(hand(
            ("a0", "exec", [(0, None, [(2 * Q, PRIO_INTERRUPT, False),
                                       (Q, PRIO_INTERRUPT, False)])]),
            ("x", "exec", [(Q // 2, 7, [(Q, PRIO_KERNEL, False)])])))
        assert [who for _tick, who, _what in seen["log"]] == ["x", "a0"]

    def test_a_hold_cut_by_its_gate_is_not_carried_on(self):
        """The gate shuts a quantum into ``a0``'s user segment, which is
        cut at its next boundary with nobody waiting for the CPU: the
        kernel work after it must wait for the rest of it."""
        seen = agree(hand(
            ("a0", "process", [(0, None, [
                (3 * Q, PRIO_USER, True), (Q, PRIO_KERNEL, False)])]),
            probes=[("shut", Q, 12_345, 0, "a0")]))
        # 2Q before the cut, the last Q once the gate opens again at
        # 4Q + 12 352 ps, then the kernel work
        assert seen["log"][-1] == (
            6 * Q * CYCLE_PS + 12_345 + 7, "a0", "done")

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_fired_does_not_say_which_ticks_coincide(self, substrate):
        """Two nodes running the same runs: in lockstep every segment end
        ties with the other node's and none is carried on (each wake-up
        a re-queue), a tick apart every one is; the events fired agree."""
        def run(offset):
            eng = Engine(substrate)

            def node(start):
                cpu = Cpu(eng, Calibration())
                yield Timeout(eng, start)
                for _ in range(5):
                    yield from cpu.run([(3 * Q, PRIO_KERNEL, False),
                                        (Q + 7, PRIO_INTERRUPT, False)])

            eng.spawn(node(1000))
            eng.spawn(node(1000 + offset))
            eng.run()
            return eng.stats()

        lockstep, apart = run(0), run(1)
        assert lockstep["requeued"] > apart["requeued"] == 0
        assert lockstep["fired"] == apart["fired"]
        assert lockstep["scheduled"] == apart["scheduled"]

    def test_a_spin_is_one_timer_per_charge(self):
        """Alone on its CPU a spin is one hold that nothing cuts: it
        fires no event of its own (the scheduler's only process keeps
        its slice, whose timer lies beyond the horizon), and the ledger
        still reads every whole quantum it has run."""
        eng = Engine()
        cal = Calibration()
        cpu = Cpu(eng, cal)
        kernel = SimpleNamespace(
            engine=eng, cal=cal, schedulers=[], node=SimpleNamespace(
                cpus=[cpu], telemetry=Telemetry(eng, enabled=False)))
        kernel.schedulers.append(RoundRobinScheduler(kernel))
        Process(kernel, "spin", lambda proc: proc.spin()).start()
        eng.run(until=100 * Q_TICKS)
        assert cpu.cycles_charged == 100 * Q
        # the scheduler's and the process's starts, nothing else
        assert eng.stats()["fired"] == 2

# ---------------------------------------------------------------------------
# the code rule: a hold carried on through the code between two charges
# ---------------------------------------------------------------------------

def code_hand(what, arg=PRIO_INTERRUPT, kind="process", probes=()):
    """``a0`` runs user work, code, a kernel crossing and user work again;
    ``x`` charges on past the whole of it, from a tick of its own."""
    return hand(
        ("a0", kind, [(0, None, [
            (3 * Q + 50, PRIO_USER, kind != "exec"), ("code", what, arg),
            (60, PRIO_KERNEL, kind != "exec"), (2 * Q, PRIO_USER,
                                                kind != "exec")])]),
        ("x", "exec", [(9 * Q, 11_007, [(Q, PRIO_KERNEL, False)])]),
        probes=list(probes))


class TestCodeRule:
    @given(schedules(code=True))
    @settings(PROPERTY, max_examples=200)
    def test_generated_code_runs(self, schedule):
        agree(schedule)

    @pytest.mark.parametrize("kind", ["process", "exec"])
    @pytest.mark.parametrize("what", ["log", "tick", "shut", "spawn"])
    def test_each_code_alone(self, what, kind):
        """Each kind of code between two charges, nothing else due at
        the boundary: carried on through when it leaves nothing due
        there, the holder woken to it otherwise."""
        seen = agree(code_hand(what, kind=kind))
        assert ("a0", what) in [entry[1:] for entry in seen["log"]]
        if what in ("log", "shut"):
            assert seen["saved"] >= 1

    @pytest.mark.parametrize("kind", ["process", "exec"])
    def test_code_that_raises(self, kind):
        """The holder raises it where it takes the next segment: the
        segment before is charged in full, nothing after it."""
        seen = agree(code_hand("raise", kind=kind))
        assert ("a0", "raised") in [entry[1:] for entry in seen["log"]]
        assert seen["ledger"][1] == 3 * Q + 50 + Q

    @pytest.mark.parametrize("hops", [0, 1])
    @pytest.mark.parametrize("what", ["read", "urgent"])
    def test_arrival_on_the_boundary(self, what, hops):
        """A reader or an urgent waiter on the tick the code runs, ahead
        of the segment's timer or behind it."""
        agree(code_hand("tick", probes=[(what, 3 * Q + 50, None, hops,
                                         "a0")]))

    def test_code_after_the_last_segment(self):
        """A run that ends in code: it runs at the last boundary and the
        holder goes on from it."""
        agree(hand(("a0", "process", [(0, None, [
            (3 * Q, PRIO_USER, True), ("code", "spawn", PRIO_KERNEL),
            ("code", "tick", 0)])])))


# ---------------------------------------------------------------------------
# the grant rule: a contended hand-over opens the next holder's hold where
# its wake-up would have
# ---------------------------------------------------------------------------

class TestGrantRule:
    @given(schedules(least=2))
    @settings(PROPERTY, max_examples=60)
    def test_generated_hand_overs(self, schedule):
        agree(schedule)

    def test_a_contended_hand_over_is_one_wake_up(self):
        """``b`` queues behind ``a``; when ``a`` is done the hold ``b``
        asked for opens at once, and ``b`` wakes only at its end."""
        assert agree(hand(
            ("a", "exec", [(0, None, [(3 * Q, PRIO_KERNEL, False)])]),
            ("b", "exec", [(Q, 7, [(2 * Q + 5, PRIO_KERNEL, False)])]),
        ))["saved"] == 1

    @pytest.mark.parametrize("kind", ["exec", "process"])
    def test_an_urgent_arrival_on_the_release_tick(self, kind):
        """``a`` releases to ``b`` on the tick an urgent charge arrives,
        queued behind ``a``'s timer.  ``b``'s wake-up would pop after
        that arrival, find it queued and clip its hold to a quantum; a
        hold opened at the release would instead be cut once it queues
        (a timer withdrawn the hop path never armed): the grant must
        leave the hop to it."""
        b = (Q, 7, [(2 * Q + 5, *((PRIO_USER, True) if kind == "process"
                                   else (PRIO_KERNEL, False)))])
        agree(hand(
            ("a", "exec", [(0, None, [(3 * Q, PRIO_KERNEL, False)])]),
            ("b", kind, [b]),
            probes=[("urgent", 3 * Q, None, 1, "a")]))

    @pytest.mark.parametrize("user", [True, False])
    def test_a_releaser_that_queues_again_at_once(self, user):
        """The cut-versus-clip case.  ``r`` hands the CPU to ``w`` and
        asks for it again before anyone else runs, more urgently.  The
        hop path's ``w`` woke to find ``r`` queued and clipped its hold
        to one quantum; the hold opened for it at the grant does the
        same, because it opens where that wake-up would have run: no
        hold is cut, so no timer is withdrawn that the hop path kept
        (``agree`` compares the cancels too)."""
        w = ("w", "process", [(Q // 2, 7, [(5 * Q, PRIO_USER, True)])]) \
            if user else ("w", "exec", [(Q // 2, 7, [(5 * Q, PRIO_KERNEL,
                                                       False)])])
        seen = agree(hand(
            ("r", "exec", [(0, None, [(Q, PRIO_INTERRUPT, False)]),
                           (None, None, [(Q, PRIO_INTERRUPT, False)])]),
            w))
        assert seen["saved"] >= 1
        assert [(tick // Q_TICKS, who) for tick, who in seen["grants"]] == [
            (0, "r"), (1, "w"), (2, "r"), (3, "w")]

    def test_a_releaser_that_steps_through_its_gate(self):
        """``r`` hands the CPU to ``w`` at the end of its user work and
        goes on, in the same dispatch, into a kernel crossing: its gate
        is open, but the hop the grant saved is due first, so ``r``
        steps aside for it.  ``w``'s hold opens, and ``r``'s request cuts
        it (a timer withdrawn); walking through the gate instead, ``r``
        would queue first and ``w``'s hold be clipped."""
        seen = agree(hand(
            ("r", "process", [(0, None, [(2 * Q, PRIO_USER, True),
                                         (Q, PRIO_KERNEL, True)])]),
            ("w", "exec", [(Q, 7, [(3 * Q, PRIO_USER, False)])])))
        assert seen["saved"] >= 1
        assert [(tick // Q_TICKS, who) for tick, who in seen["grants"]] == [
            (0, "r"), (2, "w"), (3, "r"), (4, "w")]

    def test_contention_keeps_the_hop(self):
        """An injector draws its burst when the waiter wakes: no grant
        opens a hold for it."""
        assert agree(hand(
            ("a", "exec", [(0, None, [(3 * Q, PRIO_KERNEL, False)])]),
            ("b", "exec", [(Q, 7, [(2 * Q, PRIO_KERNEL, False)])]),
            steals=[0, Q]))["saved"] == 0


# ---------------------------------------------------------------------------
# nothing throws into a charge
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_closing_a_charge_does_nothing(substrate):
    """No wait of a charge can fail, so ``Cpu.run`` has no arm for a
    holder thrown out of one.  Closing the generators of a holder in the
    middle of its hold and of a waiter queued behind it, as collecting
    a finished world does, withdraws no timer, settles no ledger and
    hands the CPU to nobody."""
    eng = Engine(substrate)
    cpu = Cpu(eng, Calibration())
    holder = eng.spawn(cpu.exec(20 * Q, PRIO_KERNEL))

    def waiter():
        yield Timeout(eng, Q_TICKS)
        yield from cpu.exec(Q, PRIO_USER)

    queued = eng.spawn(waiter())
    eng.run(until=5 * Q_TICKS + Q_TICKS // 3)

    def state():
        return (eng.stats(), cpu.lock.locked, list(cpu.lock._waiters),
                cpu.cycles_charged)

    before = state()
    assert before[1] and len(before[2]) == 1
    holder.gen.close()
    queued.gen.close()
    assert state() == before


class TestFig4Tie:
    """Fig. 4's ``2 procs / oblivious RR`` cell, DESIGN.md §6: the server
    runs the suspended application beside one compute-bound dummy.  The
    dummy's spin has no charge end of its own, so the slice end cuts its
    hold and the context switch follows at that boundary, as in every
    other cell of the column.  Charged in 200 us segments instead, one
    segment end lands on the very tick a 1024 us slice does: the dummy
    wakes there, takes the CPU again through the still-open gate and
    queues behind the context switch, which moves the cell."""

    @staticmethod
    def cell():
        from repro.bench.workloads import remote_increment

        return remote_increment(mode="user", suspended=True, nprocs=2,
                                scheduler="oblivious", iters=8,
                                warmup=2).rt_us

    def test_the_spinning_dummy_keeps_the_cell(self):
        assert self.cell() == 1114.0

    def test_segmented_charges_would_move_it(self, monkeypatch):
        """A spin charged in endless 200 us segments ties with the slice
        end, and the round trips come out 0.625 us longer."""
        def segmented(proc):
            return proc.cpu.run(itertools.repeat(
                (proc.cal.us_to_cycles(200.0), PRIO_USER, True)), proc)

        monkeypatch.setattr(Process, "spin", segmented)
        assert self.cell() == 1114.625
