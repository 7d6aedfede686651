"""The coalesced CPU hold against the sliced model it replaced.

``Cpu.exec`` and ``Process.compute`` used to cut every charge into
200-cycle quanta and wake at each boundary to look for waiters; now a
charge is one timer, cut back to a boundary only when a waiter the
holder yields to queues or the scheduler shuts the process gate.  The
sliced loops survive here, in ``SlicedCpu`` / ``SlicedProcess``, as the
reference: on both substrates the two models must hand the CPU over in
the same order at the same ticks and write the same ledgers.

**The same-tick rule.**  A waiter that queues (or a gate that shuts) on
the very tick of a quantum boundary is served at that boundary.  The
sliced model agreed whenever the arrival ran before the holder's own
wake-up at that tick, which is how every tie in the generated schedules
is built (arrival timers are armed at tick 0, ahead of any slice
timer); when the holder woke first it had already started its next
quantum and the arrival waited one more — an artefact of event order
within a tick, pinned (not reproduced) by ``TestSameTickRule``.  Every
other arrival in a generated schedule carries its own sub-cycle offset,
so it cannot land on a tick where the holder wakes by accident.

**The pass-through rule.**  A lock or gate that lets its caller through
is asked but no longer yielded, unless something else is due at that
tick (``Engine.passes``).  The always-yield form survives here as
``wait_always``; ``TestPassThroughRule`` runs generated actor scripts —
pass-throughs alone at a tick, beside a sibling, beside a cancelled
timer's tombstone, under ``SimProcess.interrupt`` — through both forms
on both substrates and requires one resume order.  (``SlicedCpu`` /
``SlicedProcess`` keep yielding too, so every differential above also
compares the two forms.)

**The run rule.**  A run of back-to-back charges (``Cpu.run``) is one
hold, carried on at a segment end without waking the holder wherever
nobody could tell (``Cpu.continue_hold``).  The split sequence it
replaced — every charge its own hold, ``yield from a; yield from b`` —
survives here as ``SplitCpu``; ``TestRunRule`` runs generated runs of
mixed-priority segments against waiters, gate closes, interrupts,
contention and ledger reads, some landing exactly on a segment end
before and after its timer, through both on both substrates, and
requires one log.

**The grant rule.**  A charge that queues for the CPU leaves its hold
with the request, and a release whose hop nobody could see has the
engine open that hold where the waiter's wake-up would have run
(``Cpu.grant``).  The hop it replaced survives here as ``HopLock``,
which drops the charge so that every grant wakes its waiter;
``TestGrantRule`` runs generated contention — releasers that queue
again at once, long user holds, gate shuts, kills — through both on both
substrates and requires one log and the same engine counters but for
the hops saved.  ``TestInterruptedWaiter`` covers a waiter thrown out
of that queue.
"""

import itertools
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bench.census import YieldCensus
from repro.hw.calibration import (
    Calibration, PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER,
)
from repro.hw.cpu import Cpu
from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler import RoundRobinScheduler
from repro.sim import Engine, Interrupt
from repro.sim.engine import Timeout
from repro.sim.queues import Gate, PriorityLock
from repro.sim.units import CYCLE_PS
from repro.telemetry.hub import Telemetry

SUBSTRATES = ("fast", "legacy")
Q = Calibration().exec_quantum_cycles
Q_TICKS = Q * CYCLE_PS


# ---------------------------------------------------------------------------
# the sliced reference: the loops this PR deleted from src/, verbatim but
# for the ledger's new private names
# ---------------------------------------------------------------------------

class SlicedCpu(Cpu):
    def exec(self, cycles, prio=PRIO_USER):
        engine, lock = self.engine, self.lock
        waiters = lock._waiters
        yield lock.acquire(prio)
        try:
            injector = self.contention
            if injector is not None:
                stolen = injector.steal()
                if stolen:
                    yield Timeout(engine, stolen * CYCLE_PS)
                    self.contention_cycles += stolen
            remaining = cycles
            while remaining > 0:
                slice_cycles = min(remaining, Q)
                start = engine._now
                yield Timeout(engine, slice_cycles * CYCLE_PS)
                self._busy_ticks += engine._now - start
                self._cycles_charged += slice_cycles
                remaining -= slice_cycles
                if remaining > 0 and waiters and waiters[0][0] < prio:
                    lock.release()
                    yield lock.acquire(prio)
        finally:
            lock.release()

    def run(self, segments, proc=None):
        # ungated runs only (the scheduler's context switch): user work
        # is SlicedProcess.compute
        for cycles, prio, _gated in segments:
            yield from self.exec(cycles, prio)


class SlicedProcess(Process):
    def compute(self, cycles):
        cpu, engine, lock = self.cpu, self.engine, self.cpu.lock
        remaining = int(cycles)
        while remaining > 0:
            yield self.gate.wait()
            chunk = min(remaining, Q)
            ustart = engine._now
            yield lock.acquire(PRIO_USER)
            start = engine._now
            try:
                yield Timeout(engine, chunk * CYCLE_PS)
                cpu._busy_ticks += engine._now - start
                cpu._cycles_charged += chunk
            finally:
                lock.release()
            self.user_ticks += engine._now - ustart
            remaining -= chunk


# ---------------------------------------------------------------------------
# a one-CPU world both models run in
# ---------------------------------------------------------------------------

class Prio(int):
    """A priority that remembers whose it is (for the grant log)."""

    def __new__(cls, value, owner):
        self = super().__new__(cls, value)
        self.owner = owner
        return self


class RecordingLock(PriorityLock):
    """Logs ``(tick, owner)`` each time the CPU changes hands.  The
    sliced ``compute`` re-takes the free lock at every chunk; taking it
    again from oneself is not a hand-over, so repeats are dropped."""

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
    one draw per ``exec`` call (as ``faults.CpuContention.steal``)."""

    def __init__(self, bursts):
        self.bursts = list(bursts)

    def steal(self):
        return self.bursts.pop(0) if self.bursts else 0


class World:
    def __init__(self, substrate, sliced, cal=Calibration(), steals=()):
        self.engine = eng = Engine(substrate)
        self.cpu = cpu = (SlicedCpu if sliced else Cpu)(eng, cal)
        cpu.lock = RecordingLock(eng)
        if steals:
            cpu.contention = Stealer(steals)
        self.process_cls = SlicedProcess if sliced else Process
        node = SimpleNamespace(cpus=[cpu],
                               telemetry=Telemetry(eng, enabled=False))
        self.kernel = SimpleNamespace(engine=eng, cal=cal, node=node,
                                      schedulers=[])
        self.procs = {}
        self.finish = []        #: (name, tick) in completion order
        self.interrupted = []   #: (name, tick)

    def scheduler(self):
        self.kernel.schedulers.append(RoundRobinScheduler(self.kernel))

    def sleep_until_slot(self, gap_cycles, slot):
        """A sleep of at least ``gap_cycles`` ending on sub-cycle offset
        ``slot`` — a tick no quantum boundary of an earlier hold falls
        on (``slot`` None: exactly ``gap_cycles`` from now)."""
        eng = self.engine
        gap = gap_cycles * CYCLE_PS
        if slot is not None:
            gap += (slot - (eng.now + gap)) % CYCLE_PS
        return Timeout(eng, gap)

    def spawn_exec(self, name, prio, rounds):
        def body():
            for gap, slot, charge in rounds:
                try:
                    yield self.sleep_until_slot(gap, slot)
                    yield from self.cpu.exec(charge, Prio(prio, name))
                except Interrupt:
                    self.interrupted.append((name, self.engine.now))
                self.finish.append((name, self.engine.now))
        self.procs[name] = self.engine.spawn(body(), name=name)

    def start_compute(self, name, rounds, blocks=True):
        """A scheduled process; between rounds it sleeps off the run
        queue (``blocks``) or on it, idling through its own slices."""
        def body(proc):
            for gap, slot, charge in rounds:
                try:
                    if gap or slot is not None:
                        sleep = self.sleep_until_slot(gap, slot)
                        if blocks:
                            yield from proc.block_on(sleep)
                        else:
                            yield sleep
                    yield from proc.compute(charge)
                except Interrupt:
                    self.interrupted.append((name, self.engine.now))
                self.finish.append((name, self.engine.now))
        proc = self.process_cls(self.kernel, name, body)
        self.procs[name] = proc
        proc.start()

    def spawn_killer(self, victim, gap, slot):
        """Throw an Interrupt at ``victim`` if it is sitting on a timer
        then (mid-hold, mid-steal or between rounds) — not while it is
        queued for the CPU, where the sliced reference leaves the lock's
        wait queue pointing at a dead waiter (``Cpu.run`` withdraws its
        request: ``TestInterruptedWaiter``)."""
        def body():
            yield self.sleep_until_slot(gap, slot)
            target = self.procs[victim]
            if isinstance(target, Process):
                if target.state is not ProcessState.READY:
                    return
                target = target.sim_proc
            waiting_on = target._waiting_on
            # (a timer that fired at this tick is no longer sat on: the
            # hop that resumes the victim is queued)
            if target.alive and isinstance(waiting_on, Timeout) and (
                    not waiting_on.triggered):
                target.interrupt("kill")
        self.engine.spawn(body(), name="killer")

    def observe(self):
        self.engine.run()
        cpu = self.cpu
        return {
            "finish": self.finish,
            "grants": cpu.lock.grants,
            "interrupted": self.interrupted,
            "cycles_charged": cpu.cycles_charged,
            "busy_ticks": cpu.busy_ticks,
            "contention_cycles": cpu.contention_cycles,
            "user_ticks": {name: p.user_ticks
                           for name, p in self.procs.items()
                           if isinstance(p, Process)},
        }


def run_schedule(schedule, substrate, sliced):
    cal = Calibration().with_changes(quantum_us=schedule["quantum_us"])
    world = World(substrate, sliced, cal, schedule["steals"])
    world.scheduler()
    # sleepers first: their timers are armed at tick 0 ahead of any hold,
    # which is what makes an arrival on a boundary run before the
    # sliced holder's wake-up there (see the module docstring)
    for name, kind, prio, rounds in schedule["contenders"]:
        if kind == "exec":
            world.spawn_exec(name, prio, rounds)
    if schedule["kill"] is not None:
        world.spawn_killer(*schedule["kill"])
    for name, kind, prio, rounds in schedule["contenders"]:
        if kind != "exec":
            world.start_compute(name, rounds, blocks=kind == "compute")
    return world.observe()


def assert_all_agree(schedule):
    want = run_schedule(schedule, "fast", sliced=True)
    for substrate in SUBSTRATES:
        for sliced in (True, False):
            got = run_schedule(schedule, substrate, sliced)
            assert got == want, (substrate, "sliced" if sliced else "hold")
    return want


# ---------------------------------------------------------------------------
# generated schedules
# ---------------------------------------------------------------------------

#: charges: anything from one cycle to a hundred quanta, with whole
#: quanta and quantum +- 1 over-represented
CHARGES = st.one_of(
    st.integers(1, 20_000),
    st.integers(1, 100).map(lambda k: k * Q),
    st.integers(1, 20).flatmap(
        lambda k: st.sampled_from((k * Q - 1, k * Q + 1))),
)


@st.composite
def schedules(draw):
    n = draw(st.integers(2, 6))
    slots = iter(range(500, CYCLE_PS, 1000))  # one sub-cycle offset each
    contenders = []
    for i in range(n):
        # "compute" sleeps off the run queue between rounds, "spin" on it
        kind = draw(st.sampled_from(("exec", "exec", "compute", "spin")))
        prio = draw(st.sampled_from(
            (PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER)))
        rounds = []
        for r in range(draw(st.integers(1, 3))):
            charge = draw(CHARGES)
            if r == 0 and kind != "exec" and draw(st.booleans()):
                # computes from tick 0, long enough to be walked in on
                rounds.append((0, None, charge + 40 * Q))
            elif r == 0 and kind == "exec" and draw(st.booleans()):
                # exactly on a quantum boundary of whatever began at 0
                rounds.append((draw(st.integers(2, 60)) * Q, None, charge))
            else:
                rounds.append((draw(st.integers(0, 3000)), next(slots),
                               charge))
        contenders.append((f"c{i}", kind, prio, rounds))
    kill = None
    if draw(st.booleans()):
        kill = (f"c{draw(st.integers(0, n - 1))}",
                draw(st.integers(1, 30_000)), next(slots))
    return {
        "contenders": contenders,
        "steals": draw(st.lists(
            st.sampled_from((0, 0, 1, Q - 1, Q, 3 * Q + 7)), max_size=8)),
        "kill": kill,
        # 1024 us and a few ps: a slice never ends on a tick where the
        # running process wakes (TestSameTickRule covers the slice that
        # does); short slices so that several end inside one schedule
        "quantum_us": draw(st.sampled_from((1024.000007, 64.000007,
                                            20.000007))),
    }


class TestDifferential:
    @given(schedules())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_schedules(self, schedule):
        assert_all_agree(schedule)

    def test_interrupt_arrives_mid_charge(self):
        """The textbook case, spelled out: an interrupt 3.5 quanta into
        a 10-quantum user charge is served at quantum 4."""
        schedule = {
            "contenders": [
                ("user", "exec", PRIO_USER, [(2 * Q, None, 10 * Q)]),
                ("intr", "exec", PRIO_INTERRUPT,
                 [(5 * Q + Q // 2, None, Q // 4)]),
            ],
            "steals": [], "kill": None, "quantum_us": 1024.0,
        }
        seen = assert_all_agree(schedule)
        assert seen["grants"] == [
            (2 * Q_TICKS, "user"), (6 * Q_TICKS, "intr"),
            (6 * Q_TICKS + Q // 4 * CYCLE_PS, "user"),
        ]

    def test_compute_yields_to_equal_priority(self):
        """``compute`` releases between quanta, so even a PRIO_USER
        ``exec`` gets in at the next boundary; ``exec`` would not yield."""
        schedule = {
            "contenders": [
                ("lib", "exec", PRIO_USER, [(3 * Q + 50, None, 2 * Q)]),
                ("app", "compute", PRIO_USER, [(0, None, 10 * Q)]),
            ],
            "steals": [], "kill": None, "quantum_us": 1024.0,
        }
        seen = assert_all_agree(schedule)
        assert seen["grants"][:3] == [
            (0, PRIO_USER), (4 * Q_TICKS, "lib"), (6 * Q_TICKS, PRIO_USER)]

    def test_interrupt_thrown_mid_hold_charges_whole_quanta(self):
        schedule = {
            "contenders": [
                ("lib", "exec", PRIO_USER, [(0, 500, 10 * Q)]),
                ("app", "compute", PRIO_USER,
                 [(0, None, 3 * Q), (10, 1500, 10 * Q)]),
            ],
            "steals": [], "kill": ("app", 20 * Q, 2500),
            "quantum_us": 1024.0,
        }
        seen = assert_all_agree(schedule)
        assert [name for name, _ in seen["interrupted"]] == ["app"]
        # all of ``lib``, ``app``'s first round, and the six whole quanta
        # of its second that were over when the interrupt came
        assert seen["cycles_charged"] == (10 + 3 + 6) * Q


# ---------------------------------------------------------------------------
# the same-tick rule
# ---------------------------------------------------------------------------

class Slicer:
    """The simplest round-robin there is: open a gate, sleep one slice,
    shut it, next.  Its slice timer is armed before the running
    process's chunk timers and it shuts the gate the moment it wakes, so
    a slice that ends on a chunk boundary shuts the gate *before* the
    sliced process wakes there: the tie both models agree on."""

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
        of other work the slice ends exactly on chunk boundary 204."""
        def run(substrate, sliced):
            world = World(substrate, sliced)
            Slicer(world, 1024 * 1_000_000)
            for name in ("a", "b"):
                rounds = [(0, None, 60_000)]
                if lead:
                    rounds.insert(0, (0, None, lead))
                world.start_compute(name, rounds)
            return world.observe()

        want = run("fast", True)
        for substrate in SUBSTRATES:
            for sliced in (True, False):
                assert run(substrate, sliced) == want

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_boundary_tick_is_served_there(self, substrate):
        """The rule itself.  ``late`` reaches tick 3Q through two timers,
        the second armed *after* the sliced holder's slice timer for 3Q:
        the sliced holder woke first, saw nobody, and ran on to 4Q.  The
        hold is cut on arrival, so the waiter is served at 3Q."""
        def run(sliced):
            world = World(substrate, sliced)
            eng, cpu = world.engine, world.cpu

            def late():
                yield Timeout(eng, 5 * Q_TICKS // 2)
                yield Timeout(eng, Q_TICKS // 2)
                yield from cpu.exec(Q, Prio(PRIO_INTERRUPT, "late"))

            world.spawn_exec("user", PRIO_USER, [(0, None, 10 * Q)])
            eng.spawn(late())
            return world.observe()["grants"]

        assert run(sliced=False)[1] == (3 * Q_TICKS, "late")
        assert run(sliced=True)[1] == (4 * Q_TICKS, "late")

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_real_scheduler_slice_end_on_a_boundary(self, substrate):
        """``RoundRobinScheduler`` wakes through an ``AnyOf``, one queue
        hop later than the process it is about to stop; on a tie the
        sliced process had slipped through the still-open gate and ran
        one more quantum *after* the context switch.  Now the gate shuts
        on the boundary and the process stops there."""
        def run(sliced):
            world = World(substrate, sliced)
            world.scheduler()
            for name in ("a", "b"):
                world.start_compute(name, [(0, None, 160),
                                           (0, None, 60_000)])
            return world.observe()["grants"]

        slice_end = 1024 * 40 * CYCLE_PS          # boundary 204 of ``a``
        switch = 25 * 40 * CYCLE_PS
        assert run(sliced=False)[:3] == [
            (0, PRIO_USER), (slice_end, PRIO_KERNEL),
            (slice_end + switch, PRIO_USER)]
        assert run(sliced=True)[1:3] == [
            (slice_end, PRIO_KERNEL), (slice_end + switch, PRIO_USER)]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_start_tick_waits_one_quantum(self, substrate):
        """A hold is never cut to nothing: a waiter that queues on the
        tick the hold began — two queue hops behind it, so the hold is
        already open — is served one quantum later, as ever."""
        def run(sliced):
            world = World(substrate, sliced)
            eng, cpu = world.engine, world.cpu

            def intr():
                yield Timeout(eng, 2 * Q_TICKS)
                yield Timeout(eng, 0)
                yield Timeout(eng, 0)
                assert cpu.lock.locked
                yield from cpu.exec(Q, Prio(PRIO_INTERRUPT, "intr"))

            world.spawn_exec("user", PRIO_USER, [(2 * Q, None, 10 * Q)])
            eng.spawn(intr())
            return world.observe()["grants"][:2]

        assert run(sliced=False) == run(sliced=True) == [
            (2 * Q_TICKS, "user"), (3 * Q_TICKS, "intr")]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_waiter_on_the_end_tick(self, substrate):
        """A waiter that queues on the tick the hold ends, after its
        timer fired but before the holder woke, finds nothing to cut."""
        def run(sliced):
            world = World(substrate, sliced)
            # armed first, so it fires first at 5Q
            world.spawn_exec("intr", PRIO_INTERRUPT, [(5 * Q, None, Q)])
            world.spawn_exec("user", PRIO_USER,
                             [(0, None, 5 * Q), (0, 500, Q)])
            return world.observe()

        assert run(sliced=False) == run(sliced=True)
        assert run(sliced=False)["grants"][:2] == [
            (0, "user"), (5 * Q_TICKS, "intr")]

    def test_gate_alone_cuts_the_hold(self):
        """Nobody queues for the CPU when ``a``'s slice ends — ``b``
        idles through its own on a timer — so only the gate can stop
        ``a``: at the first boundary after the slice end, after which
        the CPU stands idle until ``a``'s turn comes round again."""
        slice_ticks = 64 * 1_000_000 + 7

        def run(substrate, sliced):
            world = World(substrate, sliced)
            Slicer(world, slice_ticks)
            world.start_compute("a", [(0, None, 20 * Q)])
            world.start_compute("b", [(100 * Q, 500, Q)], blocks=False)
            return world.observe()

        want = run("fast", True)
        for substrate in SUBSTRATES:
            for sliced in (True, False):
                assert run(substrate, sliced) == want
        done = -(-slice_ticks // Q_TICKS)     # 13 quanta in a 12.8 slice
        assert want["finish"][0] == (
            "a", 2 * slice_ticks + (20 - done) * Q_TICKS)


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
                elif op == "interrupt":
                    victim = procs[arg % len(procs)]
                    # on a timer or in the hop of a pass-through; not in
                    # the lock's queue, which a dead waiter would jam
                    waiting_on = victim._waiting_on
                    if isinstance(waiting_on, Timeout) or (
                            waiting_on is eng._done):
                        victim.interrupt(me)
            except Interrupt:
                log.append((eng.now, me, i, "interrupted"))
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
        "alive": [proc.alive for proc in procs],
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
    st.tuples(st.just("interrupt"), st.integers(0, 5), st.just(0)),
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

    def test_self_interrupt_after_an_interrupted_hold(self):
        """Found by the generated schedules: actor 1 interrupts actor 0
        in its grant's hop, actor 0 opens its hold and only then takes
        the interrupt.  The hold's timer stayed ``_waiting_on``, so with
        the gate passed through (no yield to clear it) actor 0 saw
        itself on a timer and interrupted itself: delivering an interrupt
        must detach whatever the process waits on by then."""
        self.check([
            {"open": False, "steps": [("acquire", 0, 1), ("gate", 0, 0),
                                      ("interrupt", 0, 0), ("sleep", 0, 0)]},
            {"open": False, "steps": [("toggle", 0, 0), ("interrupt", 0, 0)]},
        ], 7)

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
        world = World(substrate, sliced=False)
        world.scheduler()
        world.start_compute("app", [(0, None, self.CHARGE)])
        world.engine.run()
        assert world.finish == [("app", self.CHARGE * CYCLE_PS)]
        assert world.procs["app"].user_ticks == self.CHARGE * CYCLE_PS
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

    def test_interrupt_mid_hold_withdraws_the_timer(self, substrate):
        eng = Engine(substrate)
        cpu = Cpu(eng, Calibration())
        victim = eng.spawn(cpu.exec(self.CHARGE))

        def killer():
            yield Timeout(eng, 3 * Q_TICKS + 5)
            victim.interrupt()

        eng.spawn(killer())
        eng.run()
        assert cpu.cycles_charged == 3 * Q
        assert cpu.busy_ticks == 3 * Q_TICKS
        assert not cpu.lock.locked and cpu.lock.hold is None
        assert eng.stats()["cancelled"] == 1


# ---------------------------------------------------------------------------
# the run rule: one hold carried on at a segment end, against the split
# sequence it replaced
# ---------------------------------------------------------------------------

class SplitCpu(Cpu):
    """Every segment its own hold, the holder waking at each segment
    end: ``Cpu.exec`` and ``Process.compute`` as they were before a run
    of charges could be carried on as one hold (verbatim but for names),
    and ``run`` as the ``yield from a; yield from b`` sequence that stood
    where each run stands now.  A gated kernel segment is the old
    ``Process.syscall_enter``; a zero-cycle segment is no charge at all;
    user work takes the CPU at its segment's priority object (which
    ``RunWorld`` uses to name the actor) rather than the bare constant."""

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
        self._timer = timer = Timeout(engine, cycles * CYCLE_PS)
        return timer

    def _end(self):
        timer = self._timer
        self._timer = None
        lock = self.lock
        if lock.hold is not None:
            lock.hold = None
            gate = self._gate
            if gate is not None:
                gate.hold = self._gate = None
        elapsed = self.engine._now - self._start
        if not timer._state:
            timer.cancel()
            elapsed -= elapsed % self._quantum_ticks
        self._busy_ticks += elapsed
        cycles = elapsed // CYCLE_PS
        self._cycles_charged += cycles
        return cycles

    def _exec(self, cycles, prio):
        lock = self.lock
        waiters = lock._waiters
        passes = self.engine.passes
        granted = lock.acquire(prio)
        if not passes(granted):
            yield granted
        try:
            injector = self.contention
            if injector is not None:
                stolen = injector.steal()
                if stolen:
                    yield Timeout(self.engine, stolen * CYCLE_PS)
                    self.contention_cycles += stolen
            while True:
                timer = self._begin(cycles, prio)
                try:
                    yield timer
                finally:
                    cycles -= self._end()
                if cycles <= 0:
                    break
                if waiters and waiters[0][0] < prio:
                    lock.release()
                    granted = lock.acquire(prio)
                    if not passes(granted):
                        yield granted
        finally:
            lock.release()

    def _compute(self, proc, cycles, prio=PRIO_USER):
        engine = self.engine
        lock = self.lock
        gate = proc.gate
        passes = engine.passes
        remaining = cycles
        while remaining > 0:
            scheduled = gate.wait()
            if not passes(scheduled):
                yield scheduled
            ustart = engine._now
            granted = lock.acquire(prio)
            if not passes(granted):
                yield granted
            start = engine._now
            timer = self._begin(remaining, float("inf"), gate)
            try:
                yield timer
            finally:
                charged = self._end()
                lock.release()
                if charged:
                    proc.user_ticks += start - ustart + charged * CYCLE_PS
                remaining -= charged

    def run(self, segments, proc=None):
        for cycles, prio, gated in segments:
            if not cycles:
                continue
            if gated and prio == PRIO_USER:
                yield from self._compute(proc, cycles, prio)
                continue
            if gated:
                scheduled = proc.gate.wait()
                if not self.engine.passes(scheduled):
                    yield scheduled
            yield from self._exec(cycles, prio)


#: segment lengths: under a quantum, whole quanta, a quantum +- 1, none
SEGMENT_CYCLES = st.one_of(
    st.integers(1, 700),
    st.integers(1, 12).map(lambda k: k * Q),
    st.sampled_from((Q - 1, Q + 1, 0)),
)
#: (prio, gated) of a process's segments: user work, a kernel crossing
#: (waits for the gate once), kernel and interrupt work on its behalf
PROCESS_KINDS = ((PRIO_USER, True), (PRIO_USER, True), (PRIO_KERNEL, True),
                 (PRIO_KERNEL, False), (PRIO_INTERRUPT, False),
                 (PRIO_USER, False))
HORIZON = 200 * Q_TICKS


class RunWorld:
    """One CPU, a round-robin scheduler with short slices, and actors
    that log (tick, who, what) as they go: the log is the hand-over and
    same-tick order both forms must agree on."""

    def __init__(self, substrate, split, schedule, lock=RecordingLock):
        self.engine = eng = Engine(substrate)
        cal = Calibration().with_changes(quantum_us=schedule["quantum_us"])
        self.cpu = cpu = (SplitCpu if split else Cpu)(eng, cal)
        cpu.lock = lock(eng)
        if schedule["steals"]:
            cpu.contention = Stealer(schedule["steals"])
        node = SimpleNamespace(cpus=[cpu],
                               telemetry=Telemetry(eng, enabled=False))
        self.kernel = SimpleNamespace(engine=eng, cal=cal, node=node,
                                      schedulers=[])
        self.kernel.schedulers.append(RoundRobinScheduler(self.kernel))
        self.procs, self.log = {}, []
        # probes first: a probe armed at tick 0 runs ahead of a segment
        # end on its tick; one that takes two timers, behind it
        for probe in schedule["probes"]:
            self.spawn_probe(*probe)
        for name, kind, rounds in schedule["actors"]:
            # every segment's priority names its actor: a run changing
            # priority is not a hand-over
            rounds = [(gap, slot, [(c, Prio(prio, name), gated)
                                   for c, prio, gated in segments])
                      for gap, slot, segments in rounds]
            (self.start_process if kind != "exec" else self.spawn_exec)(
                name, kind, rounds)

    def ledger(self):
        return (self.cpu.busy_ticks, self.cpu.cycles_charged,
                tuple(p.user_ticks for p in self.procs.values()
                      if isinstance(p, Process)))

    def note(self, who, what):
        self.log.append((self.engine.now, who, what))

    def arrive(self, at_cycles, slot, hops):
        """From tick 0, timers to tick ``at_cycles`` (+ sub-cycle
        ``slot``): one armed now, or two, the second armed when the first
        fires."""
        eng = self.engine
        at = at_cycles * CYCLE_PS + (slot or 0)
        if hops:
            yield Timeout(eng, at // 2)
        yield Timeout(eng, at - eng.now)

    def sleep(self, gap_cycles, slot):
        """A sleep of ``gap_cycles`` from now, ending on sub-cycle offset
        ``slot`` if one is given."""
        gap = gap_cycles * CYCLE_PS
        if slot is not None:
            gap += (slot - (self.engine.now + gap)) % CYCLE_PS
        return Timeout(self.engine, gap)

    def spawn_exec(self, name, _kind, rounds):
        def body():
            for gap, slot, segments in rounds:
                try:
                    if gap is not None:     # (None: on at once)
                        yield self.sleep(gap, slot)
                    yield from self.cpu.run(segments)
                except Interrupt:
                    self.note(name, "interrupted")
                self.note(name, "done")
        self.procs[name] = self.engine.spawn(body(), name=name)

    def start_process(self, name, kind, rounds):
        def body(proc):
            if kind == "spin":
                cycles = rounds[0][2][0][0] or 1
                try:
                    yield from proc.spin(cycles)
                except Interrupt:
                    self.note(name, "interrupted")
                return
            for gap, slot, segments in rounds:
                try:
                    if gap or slot is not None:
                        yield from proc.block_on(self.sleep(gap, slot))
                    yield from self.cpu.run(segments, proc)
                except Interrupt:
                    self.note(name, "interrupted")
                self.note(name, "done")
        proc = Process(self.kernel, name, body)
        self.procs[name] = proc
        proc.start()

    def spawn_probe(self, what, at, slot, hops, victim):
        def body():
            yield from self.arrive(at, slot, hops)
            if what == "read":
                self.note("probe", self.ledger())
            elif what == "urgent":
                yield from self.cpu.exec(Q // 4, Prio(PRIO_INTERRUPT, "urgent"))
                self.note("urgent", "done")
            elif what == "shut":
                # a gate shut behind the scheduler's back, for a while:
                # with nobody queued for the CPU, only the gate can stop
                # a hold from running on into user work
                target = self.procs.get(victim)
                if isinstance(target, Process):
                    target.gate.close()
                    self.note("shut", victim)
                    yield Timeout(self.engine, 3 * Q_TICKS + 7)
                    target.gate.open()
            else:   # kill, if it sits on a timer (as spawn_killer)
                target = self.procs.get(victim)
                if isinstance(target, Process):
                    if target.state is not ProcessState.READY:
                        return
                    target = target.sim_proc
                waiting_on = getattr(target, "_waiting_on", None)
                if target is not None and target.alive and isinstance(
                        waiting_on, Timeout) and not waiting_on.triggered:
                    target.interrupt("kill")
                    self.note("kill", victim)
        self.engine.spawn(body(), name="probe")

    def observe(self):
        self.engine.run(until=HORIZON)
        # copies: a spin never ends, and when the world is collected its
        # generators are closed, releasing the lock once more
        return {"log": list(self.log), "grants": list(self.cpu.lock.grants),
                "ledger": self.ledger(),
                "contention_cycles": self.cpu.contention_cycles}


@st.composite
def run_schedules(draw):
    actors, ends = [], []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("process", "process", "exec", "spin")))
        rounds = []
        for r in range(draw(st.integers(1, 3))):
            segments = []
            for _ in range(draw(st.integers(1, 4))):
                prio, gated = (draw(st.sampled_from(PROCESS_KINDS))
                               if kind != "exec" else
                               (draw(st.sampled_from(
                                   (PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER))),
                                False))
                segments.append((draw(SEGMENT_CYCLES), prio, gated))
            at = 0 if r == 0 and draw(st.booleans()) else draw(
                st.integers(0, 3000))
            slot = None if draw(st.booleans()) else draw(
                st.sampled_from((7, 11_007, 23_333)))
            rounds.append((at, slot, segments))
            if r == 0 and at == 0:
                # the segment ends of a run that starts at tick 0 on its
                # own: where a probe lands exactly on a boundary
                ends += itertools.accumulate(c for c, _p, _g in segments)
        actors.append((f"a{i}", kind, rounds))
    probes = []
    for _ in range(draw(st.integers(0, 6))):
        on_end = ends and draw(st.booleans())
        at = draw(st.sampled_from(ends)) if on_end else draw(
            st.integers(1, 20_000))
        probes.append((
            draw(st.sampled_from(("read", "read", "urgent", "kill", "shut"))),
            at, None if on_end or draw(st.booleans()) else 12_345,
            draw(st.integers(0, 1)), f"a{draw(st.integers(0, len(actors) - 1))}"))
    return {
        "actors": actors, "probes": probes,
        "steals": draw(st.one_of(st.just([]), st.lists(
            st.sampled_from((0, 1, Q - 1, 3 * Q + 7)), max_size=6))),
        "quantum_us": draw(st.sampled_from((20.000007, 64.0, 1024.0))),
    }


def run_both(schedule):
    want = RunWorld("fast", True, schedule).observe()
    for substrate, split in (("fast", False), ("legacy", True),
                             ("legacy", False)):
        got = RunWorld(substrate, split, schedule).observe()
        assert got == want, (substrate, "split" if split else "run")
    return want


class TestRunRule:
    @given(run_schedules())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_runs(self, schedule):
        run_both(schedule)

    @pytest.mark.parametrize("hops", [0, 1])
    @pytest.mark.parametrize("what", ["read", "urgent"])
    def test_arrival_on_a_segment_end(self, what, hops):
        """A reader or an urgent waiter on the tick one segment ends and
        the next begins, ahead of the segment's timer (``hops`` 0) or
        behind it (1): either way nobody can tell a continued hold."""
        schedule = {
            "actors": [("a0", "process", [(0, None, [
                (3 * Q + 50, PRIO_USER, True), (60, PRIO_KERNEL, True),
                (100, PRIO_KERNEL, False), (2 * Q, PRIO_USER, True)])])],
            "probes": [(what, 3 * Q + 50 + 60, None, hops, "a0"),
                       ("read", 3 * Q + 50 + 60 + 100 + Q // 2, None, 0,
                        "a0")],
            "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        assert ("a0", "done") in [entry[1:] for entry in seen["log"]]

    @pytest.mark.parametrize("hops", [0, 1])
    def test_gate_shut_during_a_kernel_crossing(self, hops):
        """The crossing is not cut by its gate, so the hold runs to the
        crossing's end with the gate shut and nobody waiting for the
        CPU: the user work after it must wait for the gate, not run on."""
        schedule = {
            "actors": [("a0", "process", [(0, None, [
                (20, PRIO_USER, True), (3 * Q, PRIO_KERNEL, True),
                (2 * Q, PRIO_USER, True)])])],
            "probes": [("shut", 20 + Q, 12_345, hops, "a0"),
                       # just after the crossing's end: a probe on that
                       # tick would be a sibling, and nothing carries on
                       ("read", 20 + 3 * Q, 12_345, 0, "a0")],
            "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        done = [tick for tick, who, what in seen["log"]
                if (who, what) == ("a0", "done")]
        # shut from Q + 20 cycles (+ 12 345 ps) for 3 quanta (+ 7 ps)
        assert done == [(4 * Q + 20 + 2 * Q) * CYCLE_PS + 12_345 + 7]

    def test_contention_draws_at_every_segment(self):
        """An injector draws a burst as each segment starts: a run with
        one installed is never carried on."""
        schedule = {
            "actors": [("a0", "exec", [(0, None, [
                (Q, PRIO_KERNEL, False), (Q + 3, PRIO_INTERRUPT, False)])])],
            "probes": [], "steals": [Q, 2 * Q], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        assert seen["contention_cycles"] == 3 * Q
        assert seen["log"] == [((5 * Q + 3) * CYCLE_PS, "a0", "done")]

    def test_a_clipped_hold_is_not_carried_on(self):
        """``a0`` computes first and gives way to ``x`` at its first
        quantum; it gets the CPU back only after its gate has shut, so its
        long user segment takes one quantum and gives way again.  The
        kernel work after it must wait for the rest of it, not follow
        that quantum."""
        schedule = {
            "actors": [
                ("x", "exec", [(0, None, [(2 * Q, PRIO_KERNEL, False)])]),
                ("a0", "process", [(0, None, [
                    (3 * Q, PRIO_USER, True), (Q, PRIO_KERNEL, False)])]),
            ],
            "probes": [("shut", Q, 12_345, 0, "a0")],
            "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        assert [entry for entry in seen["log"] if entry[1] == "a0"] == [
            # Q, then Q with the gate shut, then Q once it opens at
            # 4Q + 12 352 ps, then the kernel work
            ((6 * Q) * CYCLE_PS + 12_345 + 7, "a0", "done")]

    def test_a_waiter_takes_the_cpu_at_the_segment_end(self):
        """``x`` queues during ``a0``'s first segment without cutting it
        (it is less urgent): the lock goes to ``x`` when that segment
        ends, so ``a0``'s second one waits its turn."""
        schedule = {
            "actors": [
                ("a0", "exec", [(0, None, [(2 * Q, PRIO_INTERRUPT, False),
                                           (Q, PRIO_INTERRUPT, False)])]),
                ("x", "exec", [(Q // 2, 7, [(Q, PRIO_KERNEL, False)])]),
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        assert [who for _tick, who, _what in seen["log"]] == ["x", "a0"]

    def test_a_hold_cut_by_its_gate_is_not_carried_on(self):
        """The gate shuts a quantum into ``a0``'s user segment, which is
        cut at its next boundary with nobody waiting for the CPU: the
        kernel work after it must wait for the rest of it."""
        schedule = {
            "actors": [("a0", "process", [(0, None, [
                (3 * Q, PRIO_USER, True), (Q, PRIO_KERNEL, False)])])],
            "probes": [("shut", Q, 12_345, 0, "a0")],
            "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        # 2Q before the cut, the last Q once the gate opens again at
        # 4Q + 12 352 ps, then the kernel work
        assert seen["log"][-1] == (
            6 * Q * CYCLE_PS + 12_345 + 7, "a0", "done")

    def test_interrupt_in_a_continued_hold(self):
        """Thrown out of the third segment: the first two are charged in
        full, the third by its whole quanta, the fourth not at all."""
        segments = [(Q + 30, PRIO_USER, True), (45, PRIO_KERNEL, False),
                    (10 * Q, PRIO_USER, True), (Q, PRIO_USER, True)]
        schedule = {
            "actors": [("a0", "process", [(0, None, segments)])],
            "probes": [("kill", Q + 75 + 3 * Q + Q // 2, 11_007, 0, "a0")],
            "steals": [], "quantum_us": 1024.0,
        }
        seen = run_both(schedule)
        busy, cycles, (user,) = seen["ledger"]
        assert cycles == Q + 30 + 45 + 3 * Q
        assert user == (Q + 30 + 3 * Q) * CYCLE_PS

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
        """Alone on its CPU a spin carries every segment end on: one
        event per charge, and no wake-up at all (the scheduler's only
        process keeps its slice)."""
        eng = Engine()
        cal = Calibration()
        cpu = Cpu(eng, cal)
        kernel = SimpleNamespace(
            engine=eng, cal=cal, schedulers=[], node=SimpleNamespace(
                cpus=[cpu], telemetry=Telemetry(eng, enabled=False)))
        kernel.schedulers.append(RoundRobinScheduler(kernel))
        Process(kernel, "spin", lambda proc: proc.spin(Q)).start()
        with YieldCensus() as census:
            eng.run(until=100 * Q_TICKS)
        assert cpu.cycles_charged == 100 * Q
        # the hundredth timer fires on the horizon and carries on too
        assert census.by_function()[
            ("Process._wrapper", "Timeout", "continued")] == 100
        # the scheduler's and the process's starts, one timer per charge
        assert eng.stats()["fired"] == 2 + 100


# ---------------------------------------------------------------------------
# the grant rule: a contended hand-over opens the next holder's hold where
# its wake-up would have, against the wake-up hop it replaced
# ---------------------------------------------------------------------------

class HopLock(RecordingLock):
    """Every hand-over as it was before a grant could open the waiter's
    hold: the lock drops the charge a waiter leaves with its request, so
    ``release`` succeeds the waiter's event, and the waiter wakes one
    queue hop later to open its hold itself."""

    def acquire(self, priority=10, plan=None):
        return super().acquire(priority)


def run_hand_overs(schedule, substrate, lock):
    """``RunWorld``'s observables, the lock's state at the horizon and
    the engine's counters but for those a saved hop moves; and
    ``(fired, scheduled, requeued)``."""
    world = RunWorld(substrate, False, schedule, lock=lock)
    seen = world.observe()
    stats = world.engine.stats()
    seen["locked"] = world.cpu.lock.locked
    seen["engine"] = {key: stats[key] for key in (
        "now_ps", "cancelled", "inlined", "pending", "queue")}
    return seen, (stats["fired"], stats["scheduled"], stats["requeued"])


def hand_overs_agree(schedule):
    """Grant-and-hold against the hop on both substrates: the same log
    (same-tick order included), hand-overs, ledger, lock and counters.
    Every hop saved is one entry neither scheduled nor fired, and on
    ``fast`` a pass-through that stepped aside for one no longer queues
    (a re-queue, counted in neither).  Returns the hops saved."""
    want = None
    saved = set()
    for substrate in SUBSTRATES:
        ref, (ref_fired, ref_scheduled, ref_requeued) = run_hand_overs(
            schedule, substrate, HopLock)
        got, (fired, scheduled, requeued) = run_hand_overs(
            schedule, substrate, RecordingLock)
        assert got == ref, substrate
        saved.add(ref_fired - fired)
        assert ref_fired - fired == ref_scheduled - scheduled >= 0
        assert requeued <= ref_requeued if substrate == "fast" else (
            requeued == ref_requeued)
        # (the legacy loop inlines nothing, and its queue is another)
        del ref["engine"]
        assert ref == (want := want or ref), substrate
    (hops,) = saved
    return hops


@st.composite
def grant_schedules(draw):
    """Actors that contend for one CPU: runs of one to three segments of
    any priority and length (up to twelve quanta), gated or not, and
    rounds that begin at once when the last ends (``None``: the releaser
    queues again before anyone else runs), plus urgent arrivals, gate
    shuts, kills and ledger reads."""
    actors = []
    for i in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(("process", "exec", "exec")))
        rounds = []
        for r in range(draw(st.integers(1, 3))):
            segments = [
                (draw(SEGMENT_CYCLES), *(
                    draw(st.sampled_from(PROCESS_KINDS)) if kind == "process"
                    else (draw(st.sampled_from(
                        (PRIO_INTERRUPT, PRIO_KERNEL, PRIO_USER))), False)))
                for _ in range(draw(st.integers(1, 3)))]
            gap = None if r and draw(st.booleans()) else draw(
                st.integers(0, 1500))
            slot = None if gap is None or draw(st.booleans()) else draw(
                st.sampled_from((7, 11_007)))
            rounds.append((gap, slot, segments))
        actors.append((f"a{i}", kind, rounds))
    probes = [(draw(st.sampled_from(("read", "urgent", "urgent", "kill",
                                      "shut"))),
               draw(st.integers(1, 6000)),
               draw(st.sampled_from((None, 12_345))), draw(st.integers(0, 1)),
               f"a{draw(st.integers(0, len(actors) - 1))}")
              for _ in range(draw(st.integers(0, 3)))]
    return {
        "actors": actors, "probes": probes,
        "steals": draw(st.one_of(st.just([]), st.just([]), st.lists(
            st.sampled_from((0, 1, Q - 1)), max_size=4))),
        "quantum_us": draw(st.sampled_from((20.000007, 64.0, 1024.0))),
    }


class TestGrantRule:
    @given(grant_schedules())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_generated_hand_overs(self, schedule):
        hand_overs_agree(schedule)

    def test_a_contended_hand_over_is_one_wake_up(self):
        """``b`` queues behind ``a``; when ``a`` is done the hold ``b``
        asked for opens at once, and ``b`` wakes only at its end."""
        schedule = {
            "actors": [
                ("a", "exec", [(0, None, [(3 * Q, PRIO_KERNEL, False)])]),
                ("b", "exec", [(Q, 7, [(2 * Q + 5, PRIO_KERNEL, False)])]),
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        assert hand_overs_agree(schedule) == 1

    @pytest.mark.parametrize("user", [True, False])
    def test_a_releaser_that_queues_again_at_once(self, user):
        """The cut-versus-clip case.  ``r`` hands the CPU to ``w`` and
        asks for it again before anyone else runs, more urgently.  The
        hop path's ``w`` woke to find ``r`` queued and clipped its hold
        to one quantum; the hold opened for it at the grant does the
        same, because it opens where that wake-up would have run: no
        hold is cut, so no timer is withdrawn that the hop path kept
        (``hand_overs_agree`` compares the cancels too)."""
        w = ("w", "process", [(Q // 2, 7, [(5 * Q, PRIO_USER, True)])]) \
            if user else ("w", "exec", [(Q // 2, 7, [(5 * Q, PRIO_KERNEL,
                                                       False)])])
        schedule = {
            "actors": [
                ("r", "exec", [(0, None, [(Q, PRIO_INTERRUPT, False)]),
                               (None, None, [(Q, PRIO_INTERRUPT, False)])]),
                w,
            ],
            "probes": [], "steals": [], "quantum_us": 1024.0,
        }
        assert hand_overs_agree(schedule) >= 1
        seen, _ = run_hand_overs(schedule, "fast", RecordingLock)
        assert [(tick // Q_TICKS, who) for tick, who in seen["grants"]] == [
            (0, "r"), (1, "w"), (2, "r"), (3, "w")]

    def test_contention_keeps_the_hop(self):
        """An injector draws its burst when the waiter wakes: no grant
        opens a hold for it."""
        schedule = {
            "actors": [
                ("a", "exec", [(0, None, [(3 * Q, PRIO_KERNEL, False)])]),
                ("b", "exec", [(Q, 7, [(2 * Q, PRIO_KERNEL, False)])]),
            ],
            "probes": [], "steals": [0, Q], "quantum_us": 1024.0,
        }
        assert hand_overs_agree(schedule) == 0


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestInterruptedWaiter:
    """A waiter thrown out of its wait for the CPU gives up its place in
    the queue, or the CPU it was granted."""

    @staticmethod
    def world(substrate, kill_at):
        eng = Engine(substrate)
        cpu = Cpu(eng, Calibration())
        log = []

        def charge(name, start, cycles):
            yield Timeout(eng, start)
            try:
                yield from cpu.exec(cycles, PRIO_KERNEL)
            except Interrupt:
                log.append((name, "interrupted", eng.now))
            else:
                log.append((name, "done", eng.now))

        eng.spawn(charge("a", 0, 10 * Q))
        b = eng.spawn(charge("b", Q_TICKS, 4 * Q))
        eng.spawn(charge("c", 3 * Q_TICKS, Q))

        def killer():
            yield Timeout(eng, kill_at)
            b.interrupt("kill")

        eng.spawn(killer())
        eng.run()
        return cpu, log

    def test_a_queued_waiter_withdraws_its_request(self, substrate):
        """``b`` queues behind ``a`` and is interrupted there; ``c``
        queues after it.  The grant goes to ``c``, not to ``b``'s dead
        request (which left the lock held by nobody, and ``c`` waiting
        for ever)."""
        cpu, log = self.world(substrate, 2 * Q_TICKS)
        assert log == [("b", "interrupted", 2 * Q_TICKS),
                       ("a", "done", 10 * Q_TICKS),
                       ("c", "done", 11 * Q_TICKS)]
        assert not cpu.lock.locked and not cpu.lock._waiters
        assert cpu.cycles_charged == 11 * Q

    def test_a_hold_opened_at_the_grant_is_ended(self, substrate):
        """``b`` is interrupted two and a half quanta into the hold the
        grant opened for it: it is charged the two whole quanta, and
        hands the CPU on to ``c``."""
        kill_at = 10 * Q_TICKS + 5 * Q_TICKS // 2
        cpu, log = self.world(substrate, kill_at)
        assert log == [("a", "done", 10 * Q_TICKS),
                       ("b", "interrupted", kill_at),
                       ("c", "done", kill_at + Q_TICKS)]
        assert not cpu.lock.locked
        assert cpu.cycles_charged == 10 * Q + 2 * Q + Q


class TestFig4Tie:
    """Fig. 4's ``2 procs / oblivious RR`` cell, DESIGN.md §6's tie case:
    the server runs the suspended application beside one compute-bound
    dummy, whose 200 us charge ends on the very tick a 1024 us slice
    does.  The dummy wakes there, takes the CPU again through the
    still-open gate and queues behind the context switch; that is the
    cell as committed.  A spin keeps each charge's end (it carries a
    hold on into the next charge only where nobody could tell: here the
    slice timer is due on the same tick), so the cell holds."""

    @staticmethod
    def cell():
        from repro.bench.workloads import remote_increment

        return remote_increment(mode="user", suspended=True, nprocs=2,
                                scheduler="oblivious", iters=8,
                                warmup=2).rt_us

    def test_the_spinning_dummy_keeps_the_cell(self):
        assert self.cell() == 1114.625

    def test_one_endless_charge_would_move_it(self, monkeypatch):
        """Without charge ends there is no tie: the slice end cuts the
        dummy's hold, and the round trips come out 0.625 us shorter."""
        monkeypatch.setattr(Process, "spin",
                            lambda proc, cycles: proc.compute(10**12))
        assert self.cell() == 1114.0
