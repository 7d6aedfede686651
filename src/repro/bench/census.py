"""Where the engine's events go: process suspensions by yield site.

    PYTHONPATH=src python -m repro.bench.census                 # pingpong_small
    PYTHONPATH=src python -m repro.bench.census planes_chaos --seed 2

Every engine event is a timer firing, a callback, or a process being
resumed — and a process is resumed because it suspended.  The census
watches :meth:`Engine._send_step` from outside (no hook in the engine):
each time a process comes to rest it walks the ``yield from`` chain to
the innermost generator and books the wait there, as ``file:line
function``, with what was waited on and how:

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

A wait that never comes to rest is not listed: a pass-through the
caller did not yield (:meth:`Engine.passes`) costs nothing at all, a
triggered target with nothing else due is resumed inside ``_send_step``
and counted with the inline timer wake-ups in ``stats()["inlined"]``.
Resumes by ``throw`` (interrupts, failed events) bypass ``_send_step``
and are not counted either.

The worlds are the benchmark's (``benchmarks/perf/worlds.py``, loaded by
path, untimed); ``tests/test_exit_matrix.py`` pins the same census for
one warm delivery on an idle node (``SITE_BUDGET``).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections import Counter

from ..sim.engine import Engine, Event

__all__ = ["YieldCensus", "yield_site", "main"]

_SRC = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PERF_DIR = os.path.join(os.path.dirname(_SRC), "benchmarks", "perf")
WORLDS = ("pingpong_small", "bulk_stream", "scale_smp", "planes_chaos")


def yield_site(gen) -> tuple[str, int, str]:
    """``(file, line, function)`` of the innermost generator a suspended
    process generator is stopped in."""
    while getattr(gen.gi_yieldfrom, "gi_frame", None) is not None:
        gen = gen.gi_yieldfrom
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
    "blocked": "lock / gate waits that really block",
    "tie": "pass-throughs that tie with a same-tick sibling",
    "other": "every other wait (channels, joins, any_of)",
}


class YieldCensus:
    """Context manager: while open, every engine's ``_send_step`` books
    where the process it advanced came to rest."""

    def __init__(self) -> None:
        #: (file, line, function, target kind, "pending" | "hop") -> waits
        self.waits: Counter = Counter()

    def __enter__(self) -> "YieldCensus":
        original = self._original = Engine._send_step
        waits = self.waits

        def send_step(engine, proc, value):
            original(engine, proc, value)
            target = proc._waiting_on
            if proc._state == Event._PENDING and target is not None:
                how = "pending" if target._state == Event._PENDING else "hop"
                waits[(*yield_site(proc.gen), _target_kind(target), how)] += 1

        Engine._send_step = send_step
        return self

    def __exit__(self, *exc) -> None:
        Engine._send_step = self._original

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
        lines = [f"{'waits':>8s} {'/frame':>7s}  {'how':7s}  "
                 f"{'target':14s}  site"]
        for (path, line, function, kind, how), n in rows:
            where = os.path.relpath(path, os.path.join(_SRC, "repro"))
            if where.startswith(".."):
                where = os.path.relpath(path)
            lines.append(f"{n:8d} {n / frames:7.2f}  {how:7s}  {kind:14s}  "
                         f"{where}:{line} {function}")
        return "\n".join(lines)

    def remainder(self, frames: int) -> str:
        """What a further cut has to go after, per received frame."""
        groups = {label: Counter() for label in _REMAINDER}
        for (_f, _l, function, kind, how), n in self.waits.items():
            if kind == "Timeout":
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


def run_perf_world(name: str, seed: int):
    """Build and run one of the benchmark's worlds under the census;
    returns ``(census, world)``."""
    if PERF_DIR not in sys.path:
        sys.path.insert(0, PERF_DIR)
    worlds = importlib.import_module("worlds")
    inputs = worlds.generate_inputs(name, seed)
    with YieldCensus() as census:
        world = worlds.BUILDERS[name](inputs)
        world.run()
    attempted, failed, notes = world.verify()
    world.close()
    if failed:
        raise SystemExit(f"{name}: {failed}/{attempted} operations failed "
                         f"under the census: {notes}")
    return census, world


def report(name: str, seed: int) -> str:
    census, world = run_perf_world(name, seed)
    frames = world.packets()
    stats = world.engine.stats()
    waits = sum(census.waits.values())
    return "\n".join([
        f"{name} (seed {seed}): {frames} frames received, "
        f"{stats['fired']} events fired = {stats['fired'] / frames:.2f} "
        f"per frame",
        f"{waits / frames:.2f} waits per frame came to rest at "
        f"{len(census.waits)} sites; {stats['inlined'] / frames:.2f} "
        f"resumes per frame ran inline (counted, never queued), "
        f"{stats['requeued'] / frames:.2f} were re-queued behind a "
        f"same-tick sibling (queued, not counted)",
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
