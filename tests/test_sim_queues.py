"""Unit tests for Channel, PriorityLock and Gate."""

import pytest

from repro.sim import Channel, Engine, Gate, PriorityLock


@pytest.fixture
def eng():
    return Engine()


class TestChannel:
    def test_put_then_get(self, eng):
        ch = Channel(eng)
        ch.put("x")

        def proc(ch):
            item = yield ch.get()
            return item

        p = eng.spawn(proc(ch))
        eng.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, eng):
        ch = Channel(eng)

        def getter(ch):
            item = yield ch.get()
            return (item, eng.now)

        def putter(eng, ch):
            yield eng.sleep(77)
            ch.put("late")

        p = eng.spawn(getter(ch))
        eng.spawn(putter(eng, ch))
        eng.run()
        assert p.value == ("late", 77)

    def test_fifo_order(self, eng):
        ch = Channel(eng)
        for i in range(5):
            ch.put(i)
        got = []

        def getter(ch):
            for _ in range(5):
                got.append((yield ch.get()))

        eng.spawn(getter(ch))
        eng.run()
        assert got == [0, 1, 2, 3, 4]

    def test_waiters_served_in_arrival_order(self, eng):
        ch = Channel(eng)
        got = []

        def getter(ch, tag):
            item = yield ch.get()
            got.append((tag, item))

        eng.spawn(getter(ch, "first"))
        eng.spawn(getter(ch, "second"))

        def putter(eng, ch):
            yield eng.sleep(1)
            ch.put("a")
            ch.put("b")

        eng.spawn(putter(eng, ch))
        eng.run()
        assert got == [("first", "a"), ("second", "b")]

    def test_try_get(self, eng):
        ch = Channel(eng)
        assert ch.try_get() == (False, None)
        ch.put(9)
        assert ch.try_get() == (True, 9)
        assert len(ch) == 0


class TestPriorityLock:
    def test_uncontended_acquire_is_immediate(self, eng):
        lock = PriorityLock(eng)

        def proc(lock):
            yield lock.acquire()
            held = lock.locked
            lock.release()
            return held

        p = eng.spawn(proc(lock))
        eng.run()
        assert p.value is True
        assert not lock.locked

    def test_priority_orders_waiters(self, eng):
        lock = PriorityLock(eng)
        order = []

        def holder(eng, lock):
            yield lock.acquire(priority=10)
            yield eng.sleep(100)
            lock.release()

        def waiter(eng, lock, prio, tag, delay):
            yield eng.sleep(delay)
            yield lock.acquire(priority=prio)
            order.append(tag)
            lock.release()

        eng.spawn(holder(eng, lock))
        eng.spawn(waiter(eng, lock, 10, "user", 10))
        eng.spawn(waiter(eng, lock, 0, "interrupt", 20))
        eng.run()
        assert order == ["interrupt", "user"]

    def test_same_priority_fifo(self, eng):
        lock = PriorityLock(eng)
        order = []

        def holder(eng, lock):
            yield lock.acquire()
            yield eng.sleep(50)
            lock.release()

        def waiter(eng, lock, tag, delay):
            yield eng.sleep(delay)
            yield lock.acquire(priority=5)
            order.append(tag)
            lock.release()

        eng.spawn(holder(eng, lock))
        eng.spawn(waiter(eng, lock, "a", 1))
        eng.spawn(waiter(eng, lock, "b", 2))
        eng.run()
        assert order == ["a", "b"]

    def test_release_unheld_raises(self, eng):
        lock = PriorityLock(eng)
        with pytest.raises(RuntimeError):
            lock.release()


class TestGate:
    def test_closed_gate_blocks(self, eng):
        gate = Gate(eng)

        def proc(gate):
            yield gate.wait()
            return eng.now

        def opener(eng, gate):
            yield eng.sleep(33)
            gate.open()

        p = eng.spawn(proc(gate))
        eng.spawn(opener(eng, gate))
        eng.run()
        assert p.value == 33

    def test_open_gate_passes_immediately(self, eng):
        gate = Gate(eng)
        gate.open()

        def proc(gate):
            yield gate.wait()
            return eng.now

        p = eng.spawn(proc(gate))
        eng.run()
        assert p.value == 0

    def test_close_reblocks(self, eng):
        gate = Gate(eng)
        gate.open()
        gate.close()
        assert not gate.is_open

        def proc(gate):
            yield gate.wait()
            return eng.now

        def opener(eng, gate):
            yield eng.sleep(5)
            gate.open()

        p = eng.spawn(proc(gate))
        eng.spawn(opener(eng, gate))
        eng.run()
        assert p.value == 5
