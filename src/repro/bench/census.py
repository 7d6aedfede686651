"""Where the engine's events go: process suspensions by yield site;
and, with ``--bytecodes``, where the host's bytecodes go, by layer.

    PYTHONPATH=src python -m repro.bench.census                 # pingpong_small
    PYTHONPATH=src python -m repro.bench.census planes_chaos --seed 2
    PYTHONPATH=src python -m repro.bench.census paper_tables
    PYTHONPATH=src python -m repro.bench.census --bytecodes bulk_stream

Every engine event is a timer firing, a callback, or a process being
resumed — and a process is resumed because it suspended.  The census
watches :meth:`Engine._send_step`, :meth:`Run.continue_hold` and
:meth:`Run.grant` from outside (no hook in any): each time a process
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
    firing), no wake-up.  Where code stands between the two (a send's
    doorbell, a library's header build, a library receive's parse and
    ACK: ``Cpu.run_code``) the carry ran it at the boundary, where the
    woken holder would have; a run that ends in such code wakes its
    holder once, off the timer's own dispatch.  Booked where the process
    rests, on the timer: a library receive's charges at ``_pump`` (TCP,
    one ``pending`` per receive at its end) or ``recvfrom`` (UDP).
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
The census sees the fast loop's steps only: the legacy loop's
(``SimProcess._on_event``) bypass ``_send_step``.

The worlds are the benchmark's (``benchmarks/perf/worlds.py``, loaded by
path, untimed), and ``paper_tables`` runs its table drivers as the
benchmark does (``benchmarks/perf/child.py``): frames and events are
summed over the worlds the drivers build.  ``tests/goldens.json`` pins
the same census for one warm delivery on an idle node (``site_budget``).

**Bytecodes.**  ``--bytecodes`` runs the world under ``sys.settrace``
with opcode events on (:class:`BytecodeCensus`) and books every bytecode
the interpreter executes to a layer: the layer of the file its code
object was compiled from (``benchmarks/perf/layers.py``'s ``layer_of``,
the rule the benchmark folds its profile by), ``vcode.jit`` for code the
JIT translated (``<vcode-jit:...>``), and for code outside ``repro/``
(the standard library, DPF's generated matchers) the layer of the
nearest ``repro`` frame that called it.  Every bytecode is booked once,
so the layers sum to the total by construction.  It prints bytecodes per
received frame by layer, then the busiest functions -- each JIT
translation a row of its own, under its code name
``<vcode-jit:program:key>`` and with the bytes of source it compiled
from (every translation's qualified name is ``_jit_entry``).  Unlike host time
the count is exact: two runs give the same figures, under any hash seed
(the JIT's code cache is emptied before the world is built, as a fresh
process has it, and the collector is held off while the world runs).  Only ``world.run()``
is counted (``paper_tables``: the whole of each driver), at ~0.3 µs of
host time per bytecode.  ``tests/goldens.json`` pins bytecodes per warm
delivery and per uncontended CPU charge (``bytecode_budget``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
from collections import Counter

from ..hw.cpu import Cpu, Run
from ..sim.engine import Engine, Event
from ..vcode import jit

__all__ = ["YieldCensus", "BytecodeCensus", "yield_site", "main"]

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
    where the process it advanced came to rest, and every CPU run's
    ``continue_hold`` the holds it carried on and its ``grant`` the
    acquires it opened a hold for."""

    def __init__(self) -> None:
        #: (file, line, function, target kind, "pending" | "hop" |
        #: "continued" | "granted") -> waits
        self.waits: Counter = Counter()

    def __enter__(self) -> "YieldCensus":
        send_step = self._send_step = Engine._send_step
        continue_hold = self._continue_hold = Run.continue_hold
        grant = self._grant = Run.grant
        waits = self.waits

        def booking_send_step(engine, proc, value):
            target = send_step(engine, proc, value)
            if target is not None:
                how = "pending" if target._state == Event._PENDING else "hop"
                waits[(*yield_site(proc.gen), _target_kind(target), how)] += 1
            return target

        def booking_continue_hold(run):
            if not continue_hold(run):
                return False
            # the one waiting on the hold's timer: a process's resume
            proc = run.cpu._timer._callbacks[0]
            waits[(*yield_site(proc.gen), "Timeout", "continued")] += 1
            return True

        def booking_grant(run, ev):
            waiters = ev._callbacks[:]  # a grant takes the sole one
            if not grant(run, ev):
                return False
            site = yield_site(waiters[0].gen)
            rested = (*site, "Event:acquire", "pending")
            if waits[rested] > 1:
                waits[rested] -= 1
            else:   # (no row is kept at zero)
                waits.pop(rested, None)
            waits[(*site, "Event:acquire", "granted")] += 1
            return True

        Engine._send_step = booking_send_step
        Run.continue_hold = booking_continue_hold
        Run.grant = booking_grant
        return self

    def __exit__(self, *exc) -> None:
        Engine._send_step = self._send_step
        Run.continue_hold = self._continue_hold
        Run.grant = self._grant

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


#: the layer of code the JIT translated (its file is ``<vcode-jit:...>``)
JIT_LAYER = "vcode.jit"


def _is_jit(code) -> bool:
    return code.co_filename.startswith("<vcode-jit:")


def _row(code) -> str:
    """A function's row: its qualified name, or for a JIT translation
    its code name, unique to the translation."""
    return code.co_filename if _is_jit(code) else code.co_qualname


class BytecodeCensus:
    """Context manager: while open, every bytecode the interpreter runs
    is counted against the code object running it and that code's layer
    (see the module docstring).  Frames already running when it opens
    are not traced: open it around a call."""

    def __init__(self) -> None:
        #: (layer, code object) -> bytecodes
        self.counts: Counter = Counter()
        #: code of a JIT translation -> bytes of source it compiled from
        self.sources: dict = {}

    def __enter__(self) -> "BytecodeCensus":
        layers = _perf_module("layers")
        layer_of, other = layers.layer_of, layers.OTHER
        own: dict = {}      #: code -> its own layer (None: outside repro/)
        #: code (``(layer, code)`` outside repro/) -> its opcode counter
        tracers: dict = {}
        cells = self._cells = {}    #: (layer, code) -> [bytecodes]
        leave = BytecodeCensus.__exit__.__code__

        def trace(frame, event, arg):
            code = frame.f_code
            count = tracers.get(code)
            if count is None and code is not leave:
                # the code's own layer; outside repro/, the nearest
                # repro caller's
                up, name = frame, None
                while name is None and up is not None:
                    c = up.f_code
                    if c not in own:
                        own[c] = (JIT_LAYER if _is_jit(c)
                                  else layer_of(c.co_filename))
                    name = own[c]
                    up = up.f_back
                key = (name or other, code)
                own_key = code if own[code] is not None else key
                count = tracers.get(own_key)
                if count is None:
                    cell = cells[key] = [0]

                    def count(frame, event, arg):
                        if event == "opcode":
                            cell[0] += 1
                        return count
                    tracers[own_key] = count
            if count is not None:
                frame.f_trace_lines = False
                frame.f_trace_opcodes = True
            return count

        gc.collect()
        self._collecting = gc.isenabled()
        gc.disable()
        sys.settrace(trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        if self._collecting:
            gc.enable()
        for key, cell in self._cells.items():
            self.counts[key] += cell[0]
            if _is_jit(key[1]):
                self.sources[key[1]] = jit.source_bytes(key[1])

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def by_layer(self) -> dict[str, int]:
        """Bytecodes by layer, busiest first."""
        out: Counter = Counter()
        for (layer, _code), n in self.counts.items():
            out[layer] += n
        return dict(out.most_common())

    def by_function(self) -> dict[tuple[str, str], int]:
        """Bytecodes by ``(layer, qualified name)`` -- a JIT translation
        by its code name -- busiest first."""
        out: Counter = Counter()
        for (layer, code), n in self.counts.items():
            out[layer, _row(code)] += n
        return dict(out.most_common())

    def format(self, frames: int, top: int = 20) -> str:
        """Per received frame: the layers, then the ``top`` busiest
        functions with where they are defined."""
        total = self.total
        lines = [f"{'/frame':>9s} {'share':>6s}  layer"]
        for layer, n in self.by_layer().items():
            lines.append(f"{n / frames:9.1f} {100 * n / total:5.1f}%  {layer}")
        lines.append(f"{total / frames:9.1f} {100.0:5.1f}%  total")
        lines += ["", f"the {top} busiest functions, bytecodes per "
                      f"received frame:"]
        where: dict = {}
        for (layer, code) in self.counts:
            if _is_jit(code):
                where[layer, _row(code)] = \
                    f"{self.sources[code]} B of source"
                continue
            path = os.path.relpath(code.co_filename,
                                   os.path.join(_SRC, "repro"))
            if path.startswith(".."):
                path = os.path.basename(code.co_filename)
            where[layer, _row(code)] = f"{path}:{code.co_firstlineno}"
        for (layer, function), n in list(self.by_function().items())[:top]:
            lines.append(f"{n / frames:9.1f}  {layer:16s} {function}  "
                         f"({where[layer, function]})")
        return "\n".join(lines)


def _perf_module(name: str):
    if PERF_DIR not in sys.path:
        sys.path.insert(0, PERF_DIR)
    return importlib.import_module(name)


def _perf_worlds():
    return _perf_module("worlds")


def run_perf_world(name: str, seed: int, census=None):
    """Build one of the benchmark's worlds and run it under ``census`` (a
    new :class:`YieldCensus` by default); returns ``(census, frames
    received, engine stats)``.  The JIT's code cache is emptied first,
    as a fresh process has it: translations are counted bytecodes, and
    a cache left warm by an earlier run would hide them."""
    worlds = _perf_worlds()
    jit.clear_code_cache()
    world = worlds.BUILDERS[name](worlds.generate_inputs(name, seed))
    with census or YieldCensus() as census:
        world.run()
    attempted, failed, notes = world.verify()
    world.close()
    if failed:
        raise SystemExit(f"{name}: {failed}/{attempted} operations failed "
                         f"under the census: {notes}")
    return census, world.packets(), world.engine.stats()


def run_paper_tables(census=None):
    """Run the table drivers ``paper_tables`` times under ``census`` (a
    new :class:`YieldCensus` by default; the seed does not enter them);
    returns ``(census, frames received, engine stats)`` summed over every
    world they build.  Engines and
    kernels are seen through ``Engine.run`` and ``Kernel.__init__`` and
    held weakly, as ``benchmarks/perf/child.py`` does: the drivers build
    and discard some sixty worlds."""
    import weakref

    from ..kernel.kernel import Kernel

    runners, _cells = _perf_worlds().load_paper_drivers(
        os.path.dirname(PERF_DIR))
    jit.clear_code_cache()      # (as ``run_perf_world`` does)
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
        with census or YieldCensus() as census:
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


def bytecode_report(name: str, seed: int) -> str:
    census = BytecodeCensus()
    _census, frames, stats = (run_paper_tables(census)
                              if name == "paper_tables"
                              else run_perf_world(name, seed, census))
    total = census.total
    return "\n".join([
        f"{name} (seed {seed}): {frames} frames received, {total} "
        f"bytecodes = {total / frames:.1f} per frame ({stats['fired']} "
        f"events fired = {stats['fired'] / frames:.2f} per frame)",
        "",
        census.format(frames),
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.census",
        description="Count process suspensions by yield site (or, with "
                    "--bytecodes, executed bytecodes by layer) in one of "
                    "the benchmark's worlds.")
    parser.add_argument("world", nargs="?", default="pingpong_small",
                        choices=WORLDS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--bytecodes", action="store_true",
                        help="count executed bytecodes by layer instead")
    args = parser.parse_args(argv)
    print((bytecode_report if args.bytecodes else report)(args.world,
                                                          args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
