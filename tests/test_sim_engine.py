"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimError
from repro.sim import Engine, Interrupt


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0


def test_sleep_advances_clock():
    eng = Engine()

    def proc(eng):
        yield eng.sleep(100)
        return eng.now

    p = eng.spawn(proc(eng))
    eng.run()
    assert p.value == 100
    assert eng.now == 100


def test_zero_delay_timeout_fires_same_tick():
    eng = Engine()

    def proc(eng):
        yield eng.sleep(0)
        return eng.now

    p = eng.spawn(proc(eng))
    eng.run()
    assert p.value == 0


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimError):
        eng.timeout(-1)


def test_events_fire_in_schedule_order_at_same_tick():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield eng.sleep(10)
        order.append(tag)

    for tag in ("a", "b", "c"):
        eng.spawn(proc(eng, tag))
    eng.run()
    assert order == ["a", "b", "c"]


def test_process_joins_another_process():
    eng = Engine()

    def child(eng):
        yield eng.sleep(42)
        return "done"

    def parent(eng):
        result = yield eng.spawn(child(eng))
        return (result, eng.now)

    p = eng.spawn(parent(eng))
    eng.run()
    assert p.value == ("done", 42)


def test_joining_finished_process_returns_immediately():
    eng = Engine()
    def empty():
        return
        yield  # pragma: no cover - makes this a generator

    child = eng.spawn(empty())  # finishes instantly

    def parent(eng, child):
        yield eng.sleep(10)
        yield child
        return eng.now

    p = eng.spawn(parent(eng, child))
    eng.run()
    assert p.value == 10


def test_event_succeed_delivers_value():
    eng = Engine()
    ev = eng.event("x")

    def waiter(ev):
        value = yield ev
        return value

    def firer(eng, ev):
        yield eng.sleep(5)
        ev.succeed("payload")

    p = eng.spawn(waiter(ev))
    eng.spawn(firer(eng, ev))
    eng.run()
    assert p.value == "payload"


def test_event_fail_raises_in_waiter():
    eng = Engine()
    ev = eng.event()

    def waiter(ev):
        try:
            yield ev
        except ValueError as exc:
            return str(exc)

    def firer(eng, ev):
        yield eng.sleep(1)
        ev.fail(ValueError("boom"))

    p = eng.spawn(waiter(ev))
    eng.spawn(firer(eng, ev))
    eng.run()
    assert p.value == "boom"


def test_double_trigger_is_an_error():
    eng = Engine()
    ev = eng.event()
    ev.succeed(1)
    with pytest.raises(SimError):
        ev.succeed(2)


def test_unhandled_crash_propagates_from_run():
    eng = Engine()

    def bad(eng):
        yield eng.sleep(1)
        raise RuntimeError("dead")

    eng.spawn(bad(eng))
    with pytest.raises(RuntimeError, match="dead"):
        eng.run()


def test_crashes_collected_when_not_raised():
    eng = Engine()

    def bad(eng):
        yield eng.sleep(1)
        raise RuntimeError("dead")

    eng.spawn(bad(eng))
    eng.run(raise_crashes=False)
    assert len(eng.crashes) == 1


def test_yielding_non_event_is_a_crash():
    eng = Engine()

    def bad(eng):
        yield 5

    eng.spawn(bad(eng))
    with pytest.raises(SimError, match="must.*yield Event"):
        eng.run()


def test_run_until_stops_clock():
    eng = Engine()

    def proc(eng):
        yield eng.sleep(1000)

    eng.spawn(proc(eng))
    eng.run(until=300)
    assert eng.now == 300
    assert not eng.idle
    eng.run()
    assert eng.now == 1000


def test_interrupt_resumes_with_exception():
    eng = Engine()

    def sleeper(eng):
        try:
            yield eng.sleep(1_000_000)
        except Interrupt as intr:
            return ("interrupted", intr.cause, eng.now)

    def interrupter(eng, target):
        yield eng.sleep(50)
        target.interrupt("timer")

    p = eng.spawn(sleeper(eng))
    eng.spawn(interrupter(eng, p))
    eng.run()
    assert p.value == ("interrupted", "timer", 50)


def test_interrupt_of_finished_process_is_noop():
    eng = Engine()
    def empty():
        return
        yield  # pragma: no cover - makes this a generator

    p = eng.spawn(empty())
    eng.run()
    p.interrupt("late")
    eng.run()
    assert p.value is None


def test_unhandled_interrupt_terminates_quietly():
    eng = Engine()

    def sleeper(eng):
        yield eng.sleep(1_000_000)

    p = eng.spawn(sleeper(eng))

    def interrupter(eng, target):
        yield eng.sleep(10)
        target.interrupt()

    eng.spawn(interrupter(eng, p))
    eng.run()
    assert p.triggered and not eng.crashes


def test_any_of_triggers_on_first():
    eng = Engine()

    def proc(eng):
        fast = eng.sleep(10, value="fast")
        slow = eng.sleep(100, value="slow")
        result = yield eng.any_of([fast, slow])
        return (list(result.values()), eng.now)

    p = eng.spawn(proc(eng))
    eng.run()
    values, when = p.value
    assert values == ["fast"]
    assert when == 10


def test_all_of_waits_for_all():
    eng = Engine()

    def proc(eng):
        a = eng.sleep(10, value="a")
        b = eng.sleep(30, value="b")
        result = yield eng.all_of([a, b])
        return (sorted(result.values()), eng.now)

    p = eng.spawn(proc(eng))
    eng.run()
    assert p.value == (["a", "b"], 30)


def test_timeout_cancel_prevents_firing():
    eng = Engine()
    fired = []
    t = eng.timeout(10)
    t.add_callback(lambda ev: fired.append(ev))
    t.cancel()
    eng.run()
    assert fired == []


@pytest.mark.parametrize("substrate", ["fast", "legacy"])
@pytest.mark.parametrize("delay", [1_000, 3_000_000_000])  # due heap, wheel
def test_timeout_reschedule_moves_the_same_event(substrate, delay):
    eng = Engine(substrate)
    order = []

    def waiter(eng, t):
        yield t
        order.append(("moved", eng.now))

    def bystander(eng):
        yield eng.sleep(400)
        order.append(("bystander", eng.now))

    t = eng.timeout(delay, value="v")
    eng.spawn(waiter(eng, t))
    eng.spawn(bystander(eng))
    eng.run(until=100)
    t.reschedule(400)        # earlier, onto a tick that is already taken
    eng.run()
    # one firing, at the new tick, behind what was scheduled there first
    assert order == [("bystander", 400), ("moved", 400)]
    assert t.value == "v" and t.delay == 400
    stats = eng.stats()
    assert stats["cancelled"] == 1
    assert stats["queue"]["tombstones"] == 0


def test_timeout_reschedule_rejects_fired_and_past():
    eng = Engine()
    t = eng.timeout(10)
    late = eng.timeout(50)
    eng.run(until=20)
    with pytest.raises(SimError):
        t.reschedule(30)
    with pytest.raises(SimError):
        late.reschedule(5)


def test_deep_chain_of_immediate_events_does_not_recurse():
    eng = Engine()

    def proc(eng):
        for _ in range(50_000):
            yield eng.sleep(0)
        return "ok"

    p = eng.spawn(proc(eng))
    eng.run()
    assert p.value == "ok"
