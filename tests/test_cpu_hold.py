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
"""

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

    def acquire(self, priority=10):
        if not self._locked:
            self._granted(priority)
        return super().acquire(priority)

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
        queued for the CPU, where the old and the new code alike leave
        the lock's wait queue pointing at a dead waiter."""
        def body():
            yield self.sleep_until_slot(gap, slot)
            target = self.procs[victim]
            if isinstance(target, Process):
                if target.state is not ProcessState.READY:
                    return
                target = target.sim_proc
            if target.alive and isinstance(target._waiting_on, Timeout):
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

    def acquire(self, priority=10):
        self.asked += 1
        return super().acquire(priority)


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
                ("Cpu.exec", "Event:done", "hop"): 1,
                ("Cpu.exec", "Timeout", "pending"): 1,
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
        # wake-up each, plus the hand-overs (sliced: 109).  Nothing here
        # passes through: the first acquire ties with the interrupt's
        # start at tick 0 (one re-queue), the other two really wait for
        # the CPU
        assert cpu.cycles_charged == self.CHARGE + Q
        assert (stats["fired"], stats["cancelled"], stats["requeued"]) \
            == (12, 1, 1)

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
