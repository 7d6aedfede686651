"""Where the engine's events go: process suspensions by yield site.

    PYTHONPATH=src python -m repro.bench.census                 # pingpong_small
    PYTHONPATH=src python -m repro.bench.census planes_chaos --seed 2
    PYTHONPATH=src python -m repro.bench.census paper_tables

Every engine event is a timer firing, a callback, or a process being
resumed — and a process is resumed because it suspended.  The census
watches :meth:`Engine._send_step`, :meth:`Cpu.continue_hold` and
:meth:`Cpu.grant` from outside (no hook in any): each time a process
comes to rest it walks
the ``yield from`` chain to the innermost generator — for a CPU charge,
the one that handed it to :meth:`Cpu.run` — and books the wait there,
as ``file:line function``, with what was waited on and how:

``pending``
    the target had not triggered: a real wait.  On a ``Timeout`` that is
    two events (the timer, the wake-up); on anything else one, plus
    whatever triggers it.
``hop``
    the target had triggered already (a lock or gate that lets the
    caller through, an item already queued) but something else was due
    at the same tick, so the process queued behind it: one queue entry.
    Behind an item already queued that entry is an event fired; behind
    a lock or gate (``Event:done``) the process waited for nothing, and
    the entry is booked as ``stats()["requeued"]`` instead -- how many
    ticks two nodes happen to share differs from seed to seed, what
    ``fired`` counts does not.
``continued``
    the process's CPU hold came to the end of one charge segment and was
    carried on into the next, on the same timer: one event (the timer
    firing), no wake-up.  Booked where the process rests, on the timer.
``granted``
    a ``pending`` acquire whose grant opened the process's hold where
    its wake-up would have run: the process sleeps on through to the end
    of its charge.  The acquire and the charge cost two events together
    (the hold's timer, one wake-up) where the wake-up hop made it three.
    Re-booked from ``pending`` where the process rests, on the acquire.

A wait that never comes to rest is not listed: a pass-through the
caller did not yield (:meth:`Engine.passes`) costs nothing at all, a
triggered target with nothing else due is resumed inside ``_send_step``
and counted with the inline timer wake-ups in ``stats()["inlined"]``.
Resumes by ``throw`` (interrupts, failed events) bypass ``_send_step``
and are not counted either.

The worlds are the benchmark's (``benchmarks/perf/worlds.py``, loaded by
path, untimed), and ``paper_tables`` runs its table drivers as the
benchmark does (``benchmarks/perf/child.py``): frames and events are
summed over the worlds the drivers build.  ``tests/goldens.json`` pins
the same census for one warm delivery on an idle node (``site_budget``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter

from ..hw.cpu import Cpu
from ..sim.engine import Engine, Event

__all__ = ["YieldCensus", "yield_site", "main"]

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PERF_DIR = os.path.join(os.path.dirname(_SRC), "benchmarks", "perf")
_CHARGE = Cpu.run.__code__

WORLDS = ("pingpong_small", "bulk_stream", "scale_smp", "planes_chaos",
          "paper_tables")


def yield_site(gen) -> tuple[str, int, str]:
    """``(file, line, function)`` of the innermost generator a suspended
    process generator is stopped in — or, when that is a CPU charge
    (:meth:`Cpu.run`, which every charge is), of the one that handed the
    charge over: the charge site, not the charging machinery."""
    while True:
        inner = gen.gi_yieldfrom
        if getattr(inner, "gi_frame", None) is None \
                or inner.gi_code is _CHARGE:
            break
        gen = inner
    code = gen.gi_code
    return (code.co_filename, gen.gi_frame.f_lineno,
            getattr(code, "co_qualname", code.co_name))


def _target_kind(target: Event) -> str:
    kind = type(target).__name__
    if kind == "Event":     # "cpu.lock.acquire" -> "Event:acquire"
        kind += ":" + target.name.rpartition(".")[2]
    return kind


#: the classes ``YieldCensus.remainder`` sorts every wait into
_REMAINDER = {
    "timer": "timer waits (two events each: the timer, the wake-up)",
    "continued": "charges carried on at a segment end (one event each)",
    "granted": "acquires granted with the hold opened where the wake-up "
               "would have run (two events each with their charge: the "
               "timer, one wake-up)",
    "blocked": "lock / gate waits that really block",
    "tie": "pass-throughs that tie with a same-tick sibling",
    "other": "every other wait (channels, joins, any_of)",
}


class YieldCensus:
    """Context manager: while open, every engine's ``_send_step`` books
    where the process it advanced came to rest, every CPU's
    ``continue_hold`` the holds it carried on and its ``grant`` the
    acquires it opened a hold for."""

    def __init__(self) -> None:
        #: (file, line, function, target kind, "pending" | "hop" |
        #: "continued" | "granted") -> waits
        self.waits: Counter = Counter()

    def __enter__(self) -> "YieldCensus":
        send_step = self._send_step = Engine._send_step
        continue_hold = self._continue_hold = Cpu.continue_hold
        grant = self._grant = Cpu.grant
        waits = self.waits

        def booking_send_step(engine, proc, value):
            send_step(engine, proc, value)
            target = proc._waiting_on
            if proc._state == Event._PENDING and target is not None:
                how = "pending" if target._state == Event._PENDING else "hop"
                waits[(*yield_site(proc.gen), _target_kind(target), how)] += 1

        def booking_continue_hold(cpu):
            if not continue_hold(cpu):
                return False
            # the one waiting on the hold's timer: a process's resume
            proc = cpu._timer._callbacks[0].__self__
            waits[(*yield_site(proc.gen), "Timeout", "continued")] += 1
            return True

        def booking_grant(cpu, ev, run):
            proc = ev.sole_waiter()
            if not grant(cpu, ev, run):
                return False
            site = yield_site(proc.gen)
            rested = (*site, "Event:acquire", "pending")
            if waits[rested] > 1:
                waits[rested] -= 1
            else:   # (unbooked when it came to rest by a throw)
                waits.pop(rested, None)
            waits[(*site, "Event:acquire", "granted")] += 1
            return True

        Engine._send_step = booking_send_step
        Cpu.continue_hold = booking_continue_hold
        Cpu.grant = booking_grant
        return self

    def __exit__(self, *exc) -> None:
        Engine._send_step = self._send_step
        Cpu.continue_hold = self._continue_hold
        Cpu.grant = self._grant

    def by_function(self) -> dict[tuple[str, str, str], int]:
        """Waits keyed ``(function, target kind, how)``: stable under
        edits that move lines, which is what a pinned budget wants."""
        out: Counter = Counter()
        for (_file, _line, function, kind, how), n in self.waits.items():
            out[(function, kind, how)] += n
        return dict(out)

    def format(self, frames: int) -> str:
        """The table, busiest site first, in waits per received frame."""
        rows = sorted(self.waits.items(), key=lambda kv: (-kv[1], kv[0]))
        lines = [f"{'waits':>8s} {'/frame':>7s}  {'how':9s}  "
                 f"{'target':14s}  site"]
        for (path, line, function, kind, how), n in rows:
            where = os.path.relpath(path, os.path.join(_SRC, "repro"))
            if where.startswith(".."):
                where = os.path.relpath(path)
            lines.append(f"{n:8d} {n / frames:7.2f}  {how:9s}  {kind:14s}  "
                         f"{where}:{line} {function}")
        return "\n".join(lines)

    def remainder(self, frames: int) -> str:
        """What a further cut has to go after, per received frame."""
        groups = {label: Counter() for label in _REMAINDER}
        for (_f, _l, function, kind, how), n in self.waits.items():
            if how in ("continued", "granted"):
                label = how
            elif kind == "Timeout":
                label = "timer"
            elif kind == "Event:done":
                label = "tie"
            elif how == "pending" and kind in ("Event:acquire", "Event:wait"):
                label = "blocked"
            else:
                label = "other"
            groups[label][function] += n
        lines = []
        for label, title in _REMAINDER.items():
            by_function = groups[label]
            lines.append(f"  {title}  "
                         f"{sum(by_function.values()) / frames:.2f}")
            lines.append("    " + (", ".join(
                f"{function} {n / frames:.2f}"
                for function, n in by_function.most_common()
                if n / frames >= 0.005) or "none"))
        return "\n".join(lines)


def _perf_worlds():
    if PERF_DIR not in sys.path:
        sys.path.insert(0, PERF_DIR)
    return importlib.import_module("worlds")


def run_perf_world(name: str, seed: int):
    """Build and run one of the benchmark's worlds under the census;
    returns ``(census, frames received, engine stats)``."""
    worlds = _perf_worlds()
    inputs = worlds.generate_inputs(name, seed)
    with YieldCensus() as census:
        world = worlds.BUILDERS[name](inputs)
        world.run()
    attempted, failed, notes = world.verify()
    world.close()
    if failed:
        raise SystemExit(f"{name}: {failed}/{attempted} operations failed "
                         f"under the census: {notes}")
    return census, world.packets(), world.engine.stats()


def run_paper_tables():
    """Run the table drivers ``paper_tables`` times under the census
    (the seed does not enter them); returns ``(census, frames received,
    engine stats)`` summed over every world they build.  Engines and
    kernels are seen through ``Engine.run`` and ``Kernel.__init__`` and
    held weakly, as ``benchmarks/perf/child.py`` does: the drivers build
    and discard some sixty worlds."""
    import weakref

    from ..kernel.kernel import Kernel

    runners, _cells = _perf_worlds().load_paper_drivers(
        os.path.dirname(PERF_DIR))
    kernels = weakref.WeakSet()
    engines = weakref.WeakKeyDictionary()   #: engine -> key into ``last``
    last: dict[int, tuple[dict, int]] = {}  #: key -> (stats, frames)
    boot, engine_run = Kernel.__init__, Engine.run

    def recording_boot(self, *args, **kwargs):
        boot(self, *args, **kwargs)
        kernels.add(self)

    def recording_run(self, *args, **kwargs):
        try:
            return engine_run(self, *args, **kwargs)
        finally:
            frames = sum(nic.rx_frames for kernel in list(kernels)
                         if kernel.engine is self
                         for nic in kernel.node.nics.values())
            last[engines.setdefault(self, len(last))] = (self.stats(),
                                                         frames)

    Kernel.__init__, Engine.run = recording_boot, recording_run
    try:
        with YieldCensus() as census:
            for runner in runners:
                runner()
    finally:
        Kernel.__init__, Engine.run = boot, engine_run
    stats = {key: sum(s[key] for s, _ in last.values())
             for key in ("fired", "inlined", "requeued")}
    return census, sum(frames for _, frames in last.values()), stats


def report(name: str, seed: int) -> str:
    census, frames, stats = (run_paper_tables() if name == "paper_tables"
                             else run_perf_world(name, seed))
    continued = sum(n for key, n in census.waits.items()
                    if key[-1] == "continued")
    granted = sum(n for key, n in census.waits.items()
                  if key[-1] == "granted")
    waits = sum(census.waits.values()) - continued
    return "\n".join([
        f"{name} (seed {seed}): {frames} frames received, "
        f"{stats['fired']} events fired = {stats['fired'] / frames:.2f} "
        f"per frame",
        f"{waits / frames:.2f} waits per frame came to rest at "
        f"{len(census.waits)} sites; {stats['inlined'] / frames:.2f} "
        f"resumes per frame ran inline (counted, never queued), "
        f"{stats['requeued'] / frames:.2f} were re-queued behind a "
        f"same-tick sibling (queued, not counted), "
        f"{continued / frames:.2f} charges were carried on at a segment "
        f"end (one event, no wake-up), {granted / frames:.2f} acquires "
        f"were granted with the hold opened where the wake-up would have "
        f"run (no wake-up hop)",
        "",
        census.format(frames),
        "",
        "what is left, per received frame:",
        census.remainder(frames),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.census",
        description="Count process suspensions by yield site in one of "
                    "the benchmark's worlds.")
    parser.add_argument("world", nargs="?", default="pingpong_small",
                        choices=WORLDS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(report(args.world, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
