"""The goldens ledger: every value a tier-1 test pins, in one file.

    PYTHONPATH=src python -m tests.goldens [name ...]         # check
    PYTHONPATH=src python -m tests.goldens write [name ...]   # re-pin

``tests/goldens.json`` maps each leaf, ``<producer>/<path>``, to its
value: flat, sorted, one leaf per line, so ``git diff`` of the file is
the table of the leaves that moved.  A producer is one world run that
returns every leaf that run pins.  It is *exact*, or a *ceiling*: a
fresh value may fall below its leaf (lower one by hand), never rise.

``check`` (the default) prints every leaf that moved as old -> new with
its producer and exits 1; ``write`` rewrites those leaves and prints the
same table, ready for a commit message.  ``tests/test_goldens.py`` is
``check`` in tier 1.  Runs an invariant test also reads are cached.
"""

import contextlib
import functools
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from tests import test_exit_matrix as matrix

LEDGER = Path(__file__).with_name("goldens.json")

#: the engine's own dispatch counts: how the simulator got there, not
#: what was simulated.  A hop saved moves only these, so they are leaves
#: of their own and never inside a hash.
EVENT_COUNTS = ("sim.calendar.scheduled", "sim.calendar.fired",
                "sim.calendar.inlined")


def split_event_counts(doc):
    """(``doc`` without its ``EVENT_COUNTS`` samples, ``[{name: value}]``
    of them per node)."""
    nodes, events = [], []
    for node in doc["nodes"]:
        counters = node["metrics"]["counters"]
        events.append({c["name"]: c["value"] for c in counters
                       if c["name"] in EVENT_COUNTS})
        nodes.append({**node, "metrics": {**node["metrics"], "counters": [
            c for c in counters if c["name"] not in EVENT_COUNTS]}})
    return {**doc, "nodes": nodes}, events


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def canonical_capture():
    """``canonical.{telemetry,trace}.json``, as the text
    ``make_experiments_md.py --trace`` writes them, run once."""
    from repro.vcode import jit
    from tests.test_metrics_lint import _load

    jit.clear_code_cache()      # translations count; see telemetry_export
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"canonical.{kind}.json")
                 for kind in ("telemetry", "trace")]
        with contextlib.redirect_stdout(io.StringIO()):
            _load("make_experiments_md").capture_canonical_telemetry(*paths)
        return tuple(path.read_text() for path in paths)


@functools.lru_cache(maxsize=None)
def census_report(world_name):
    """``python -m repro.bench.census world_name``, seed 1."""
    from repro.bench.census import report

    return report(world_name, 1)


# ---------------------------------------------------------------------------
# producers: name -> leaves
# ---------------------------------------------------------------------------

def exit_matrix():
    """Each scenario's digest, and the engine events it fired."""
    digests, fired = matrix.run_matrix()
    leaves = {}
    for scenario, row in digests.items():
        for config, value in row.items():
            leaves[f"{scenario}/{config}"] = value
            leaves[f"{scenario}/{config}/fired"] = fired[scenario][config]
    return leaves


def event_budget():
    """Engine events per warm delivered message, on an idle node."""
    return {f"{exit_name}/{config}":
            matrix.events_per_message(exit_name, config)[-1]
            for exit_name in matrix.BUDGET_WORLDS
            for config in matrix.BUDGET_CONFIGS}


def site_budget():
    """The event budget by charge site, 1 core (``repro.bench.census``)."""
    return {f"{exit_name}/{'/'.join(site)}": n
            for exit_name in matrix.PROFILED_EXITS
            for site, n in matrix.sites_per_message(exit_name).items()}


def frame_budget():
    """Python frames entered per warm delivery on 1 core (one per call
    and one per generator resume): a per-level generator hop or a plane
    hook on the clean path shows here."""
    return {exit_name: sum(matrix.frames_per_message(exit_name).values())
            for exit_name in matrix.PROFILED_EXITS}


#: the charge ``bytecode_budget`` prices: five quanta, so the hold is
#: registered with the lock (a charge of one quantum or less is not)
CHARGE_CYCLES = 1000


def charge_bytecodes(kind):
    """Bytecodes one more uncontended charge of ``CHARGE_CYCLES`` costs
    on an idle engine: ``exec``, a bare ``Cpu.exec``; ``compute``, a
    scheduled process's ``Process.compute``.  The third charge of a loop
    less the second: the timer, its dispatch, the wake-up and the loop's
    own turn, nothing of the set-up."""
    from types import SimpleNamespace

    from repro.bench.census import BytecodeCensus
    from repro.hw.calibration import Calibration
    from repro.hw.cpu import Cpu
    from repro.kernel.process import Process
    from repro.kernel.scheduler import RoundRobinScheduler
    from repro.sim.engine import Engine
    from repro.telemetry.hub import Telemetry

    def charges(n):
        engine = Engine("fast")     # (the legacy substrate runs other code)
        cal = Calibration()
        cpu = Cpu(engine, cal)
        if kind == "exec":
            def body():
                for _ in range(n):
                    yield from cpu.exec(CHARGE_CYCLES)
            engine.spawn(body())
        else:
            node = SimpleNamespace(cpus=[cpu],
                                   telemetry=Telemetry(engine, enabled=False))
            kernel = SimpleNamespace(engine=engine, cal=cal, node=node,
                                     schedulers=[])
            kernel.schedulers.append(RoundRobinScheduler(kernel))

            def work(proc):
                for _ in range(n):
                    yield from proc.compute(CHARGE_CYCLES)
            Process(kernel, "app", work).start()
        with BytecodeCensus() as census:
            engine.run()
        return census.total

    return charges(3) - charges(2)


def fastpath_bytecodes():
    """Bytecodes one warm invocation of the TCP fast-path handler costs,
    ``Vm.run`` whole (its translation and the trusted calls it makes):
    the dearest invocation of a short ASH ping-pong, each translation's
    first left out."""
    import os
    from unittest import mock

    from repro.bench.census import BytecodeCensus
    from repro.bench.workloads import TcpConfig, tcp_pingpong
    from repro.sim.engine import SUBSTRATE_ENV
    from repro.vcode import jit
    from repro.vcode.vm import ENV_ENGINE, Vm

    run = Vm.run
    translated, counts = set(), []

    def counted(vm, program, *args, **kwargs):
        if program.name != "tcp_fastpath.sandboxed":
            return run(vm, program, *args, **kwargs)
        warm = id(program) in translated
        translated.add(id(program))
        with BytecodeCensus() as census:
            result = run(vm, program, *args, **kwargs)
        if warm:
            counts.append(census.total)
        return result

    jit.clear_code_cache()
    with mock.patch.dict(os.environ, {SUBSTRATE_ENV: "fast",
                                      ENV_ENGINE: "jit"}), \
            mock.patch.object(Vm, "run", counted):
        tcp_pingpong(TcpConfig(handler="ash"), iters=4, warmup=0)
    return max(counts)


def library_bytecodes():
    """Bytecodes one warm receive of a data segment costs on the TCP
    library path: its run whole (``Cpu.run_code`` of
    ``TcpConnection._received``, joined with ``read``'s copy-out:
    poll check, parse, checksum, ring copy, ack, replenish and copy-out,
    every shared-TCB access among them), the holder's stretches and the
    code a carry runs at a segment end alike, not what the engine runs
    while it waits: the dearest data segment of a short ping-pong
    without a handler, each connection's first left out."""
    import os
    from unittest import mock

    from repro.bench.census import BytecodeCensus
    from repro.bench.workloads import TcpConfig, tcp_pingpong
    from repro.hw.cpu import Code, Cpu
    from repro.net.tcp import TcpConnection
    from repro.sim.engine import SUBSTRATE_ENV

    run_code, fetch = Cpu.run_code, Code.fetch
    received = TcpConnection._received.__code__
    warm, counts, receiving = set(), [], {}

    def counted_run_code(cpu, segments, proc=None):
        steps = run_code(cpu, segments, proc)
        if segments.gi_code is not received:
            return steps
        return counted(segments.gi_frame.f_locals["self"], proc, steps)

    def counted(conn, proc, steps):
        rcv_nxt = conn.tcb.shared.rcv_nxt
        total = receiving[proc] = [0]
        sent = None
        while True:     # count each stretch the run's holder runs, alone
            with BytecodeCensus() as census:
                try:
                    waited = steps.send(sent)
                except StopIteration:
                    waited = steps
            total[0] += census.total
            if waited is steps:
                break
            sent = yield waited
        del receiving[proc]
        if conn.tcb.shared.rcv_nxt != rcv_nxt:     # data was placed
            if conn in warm:
                counts.append(total[0])
            warm.add(conn)

    def counted_fetch(code, run):
        """The receive's code, where a carry runs it (the engine's)."""
        total = receiving.get(run.proc)
        if total is None or sys.gettrace() is not None:
            return fetch(code, run)
        with BytecodeCensus() as census:
            seg = fetch(code, run)
        total[0] += census.total    # (counted once the census is shut)
        return seg

    with mock.patch.dict(os.environ, {SUBSTRATE_ENV: "fast"}), \
            mock.patch.object(Cpu, "run_code", counted_run_code), \
            mock.patch.object(Code, "fetch", counted_fetch):
        tcp_pingpong(TcpConfig(handler=None), iters=4, warmup=0)
    return max(counts)


def bytecode_budget():
    """Bytecodes per warm delivery on 1 core, per uncontended CPU
    charge on an idle engine (``repro.bench.census --bytecodes``), per
    warm invocation of the TCP fast-path handler and per warm receive
    of a data segment on the TCP library path, on the fast substrate:
    the host's cost of the path in executed bytecodes, exact and
    deterministic -- for CPython 3.11, whose compiler and opcodes these
    counts are of (another minor version counts other bytecodes)."""
    return {**{exit_name: sum(matrix.bytecodes_per_message(exit_name)
                              .values())
               for exit_name in matrix.PROFILED_EXITS},
            **{f"charge/{kind}": charge_bytecodes(kind)
               for kind in ("exec", "compute")},
            "tcp_fastpath": fastpath_bytecodes(),
            "tcp_library": library_bytecodes()}


def fig4_budget():
    """Engine events one Fig. 4 world fires: the suspended server beside
    three compute-bound dummies under oblivious round robin.  A spin is
    one hold until cut, so charging it in segments again (an event at
    every segment end) fails here."""
    from repro.bench.workloads import remote_increment
    from repro.sim.engine import Engine

    engines, run = [], Engine.run

    def recording_run(self, *args, **kwargs):
        if self not in engines:
            engines.append(self)
        return run(self, *args, **kwargs)

    Engine.run = recording_run
    try:
        remote_increment(mode="user", suspended=True, nprocs=4,
                         scheduler="oblivious", iters=8, warmup=2)
    finally:
        Engine.run = run
    (engine,) = engines
    return {"oblivious/4procs": engine.stats()["fired"]}


#: the example handlers whose translation size ``jit_source_bytes`` caps
SOURCE_CAPPED = ("echo", "remote_increment", "remote_write_generic",
                 "remote_write_specific", "tcp_fastpath")


def jit_source_bytes():
    """Bytes of source the JIT translates each example handler into,
    sandboxed, over three baked regions and a data cache: a translation
    that bloats fails tier 1 (the ``compile`` of it is host time spent
    on every cold start)."""
    from repro.ash import examples
    from repro.hw.calibration import DEFAULT
    from repro.net.tcp import build_tcp_fastpath
    from repro.sandbox.rewriter import Sandboxer
    from repro.vcode import jit

    builds = {"echo": examples.build_echo,
              "remote_increment": examples.build_remote_increment,
              "remote_write_generic":
                  lambda: examples.build_remote_write_generic(1),
              "remote_write_specific":
                  lambda: examples.build_remote_write_specific(1),
              "tcp_fastpath": lambda: build_tcp_fastpath(1, 2, 0)}
    regions = [(0x2000, 64), (0x3000, 64), (0x3100, 64)]
    jit.clear_code_cache()
    leaves = {}
    for name in SOURCE_CAPPED:
        program, _report = Sandboxer().sandbox(builds[name]())
        compiled = jit.get_compiled(program, DEFAULT, True, None, regions)
        leaves[program.name] = len(compiled.source)
    return leaves


def telemetry(world_name):
    """The whole export of a telemetry-on world, hashed without its event
    counts; those counts, summed over nodes; the frames it received."""
    doc, events = split_event_counts(matrix.telemetry_export(world_name)[0])
    return {"export_sha256": sha256(json.dumps(doc, sort_keys=True)),
            **{name: sum(node.get(name, 0) for node in events)
               for name in EVENT_COUNTS},
            "nic.rx_frames": sum(c["value"] for node in doc["nodes"]
                                 for c in node["metrics"]["counters"]
                                 if c["name"] == "nic.rx_frames")}


def lookups(world_name):
    """``MetricsRegistry`` lookups over the same run: the price of the
    instruments."""
    return {"registry_calls": matrix.telemetry_export(world_name)[1]}


#: the census report's per-frame summary, in the order it prints it
CENSUS_HEAD = ("frames", "events_fired", "events_per_frame",
               "waits_per_frame", "sites", "inline_per_frame",
               "requeued_per_frame", "continued_per_frame",
               "granted_per_frame")
CENSUS_LEFT = ("timer", "continued", "granted", "blocked", "tie", "other")


#: the worlds whose census is pinned: the smallest packets, and every
#: plane hook populated
CENSUS_WORLDS = ("pingpong_small", "planes_chaos")


def census(world_name):
    """The census's per-frame figures, as printed."""
    lines = census_report(world_name).splitlines()
    summary = lines[0].partition(": ")[2] + " " + lines[1]
    numbers = re.findall(r"\d+(?:\.\d+)?", summary)
    leaves = dict(zip(CENSUS_HEAD, map(json.loads, numbers)))
    rows = [line.split() for line in lines[4:lines.index("", 4)]]
    leaves["waits"] = sum(int(row[0]) for row in rows)
    for rank, row in enumerate(rows[:3], 1):
        leaves[f"rows/{rank}"] = " ".join(row[1:4] + row[5:])
    left = lines[lines.index("what is left, per received frame:") + 1:]
    for label, title in zip(CENSUS_LEFT, left[0::2]):
        leaves[f"left/{label}"] = json.loads(title.rsplit(None, 1)[1])
    leaves["left/continued/top"] = ", ".join(left[3].split(", ")[:2]).strip()
    return leaves


def canonical():
    """SHA-256 of each canonical sidecar, the telemetry one as written
    but without its event counts, which are leaves per node."""
    text, trace = canonical_capture()
    doc, events = split_event_counts(json.loads(text))
    leaves = {"telemetry_sha256": sha256(
                  json.dumps(doc, indent=2, sort_keys=True) + "\n"),
              "trace_sha256": sha256(trace)}
    for i, node in enumerate(events):
        leaves.update({f"node{i}/{name}": n for name, n in node.items()})
    return leaves


#: name -> (producer, ceiling)
PRODUCERS = {
    "exit_matrix": (exit_matrix, False),
    "event_budget": (event_budget, False),
    "site_budget": (site_budget, False),
    "frame_budget": (frame_budget, True),
    "bytecode_budget": (bytecode_budget, True),
    "jit_source_bytes": (jit_source_bytes, True),
    "fig4_budget": (fig4_budget, True),
    **{f"{kind.__name__}/{world}": (functools.partial(kind, world), ceiling)
       for kind, ceiling in ((telemetry, False), (lookups, True))
       for world in matrix.TELEMETRY_WORLDS},
    **{f"census.{world}": (functools.partial(census, world), False)
       for world in CENSUS_WORLDS},
    "canonical": (canonical, False),
}


# ---------------------------------------------------------------------------
# the ledger
# ---------------------------------------------------------------------------

def load():
    return json.loads(LEDGER.read_text())


def moved(name, ledger):
    """``[(producer, leaf, pinned, fresh)]`` for every leaf of ``name``
    whose fresh value differs from the ledger (``None`` where a side has
    no such leaf), but for a ceiling's falls."""
    produce, ceiling = PRODUCERS[name]
    fresh = {f"{name}/{key}": value for key, value in produce().items()}
    pinned = {leaf: value for leaf, value in ledger.items()
              if leaf.startswith(name + "/")}
    return [(name, leaf, pinned.get(leaf), fresh.get(leaf))
            for leaf in sorted(pinned.keys() | fresh.keys())
            if pinned.get(leaf) != fresh.get(leaf)
            and not (ceiling and leaf in pinned and leaf in fresh
                     and fresh[leaf] < pinned[leaf])]


def table(rows):
    """``leaf  old -> new  [producer]``, one line per moved leaf."""
    width = max(len(leaf) for _name, leaf, _old, _new in rows)
    return "\n".join(
        f"{leaf:{width}s}  {old} -> {new}  "
        f"[{name}{', ceiling' if PRODUCERS[name][1] else ''}]"
        for name, leaf, old, new in rows)


def main(argv):
    write = argv[:1] == ["write"]
    names = argv[1:] if write else argv
    unknown = sorted(set(names) - set(PRODUCERS))
    if unknown:
        print(f"unknown producer(s) {unknown}; known: {sorted(PRODUCERS)}")
        return 2
    ledger = load()
    rows = [row for name in names or PRODUCERS for row in moved(name, ledger)]
    print(table(rows) if rows else "no leaf moved")
    if not write:
        return 1 if rows else 0
    for _name, leaf, _old, new in rows:
        if new is None:
            del ledger[leaf]
        else:
            ledger[leaf] = new
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} moved leaves to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
