"""``python -m repro.bench.census --bytecodes``: the host's cost of a run
in executed bytecodes, by layer -- exact, so it can be pinned.

On the benchmark's ``pingpong_small`` world at its smoke size: two runs
count alike, the layers sum to the total by construction, and a loop
planted in one layer moves that layer's count and no other's.
``tests/goldens.json`` pins the same count per warm delivery and per
uncontended CPU charge (``bytecode_budget``); the slow tier holds each
of the benchmark's five worlds at full size to a ceiling per received
frame (``FRAME_CEILINGS``).
"""

import functools
import json
import re
from pathlib import Path
from unittest import mock

import pytest

from repro.bench import census
from repro.bench.census import BytecodeCensus, run_perf_world
from repro.kernel import dpf

WORLD = "pingpong_small"

#: bytecodes per received frame of each benchmark world at full size,
#: seed 1, as ``python -m repro.bench.census --bytecodes <world>`` prints
#: them (CPython 3.11): ceilings, lowered by hand when a change brings
#: one down
FRAME_CEILINGS = {
    "pingpong_small": 12447.5,
    "bulk_stream": 12656.2,
    "scale_smp": 11853.7,
    "planes_chaos": 13711.3,
    "paper_tables": 15968.6,
}


def smoke_size():
    """The world at its smoke size, as ``benchmarks/perf`` sizes it."""
    sizes = census._perf_worlds().SIZES[WORLD]
    return mock.patch.dict(sizes, full=sizes["smoke"])


def count():
    """The census of one smoke-size run, and the frames it received."""
    with smoke_size():
        counted, frames, _stats = run_perf_world(WORLD, 1, BytecodeCensus())
    return counted, frames


@functools.lru_cache(maxsize=None)
def first_run():
    return count()


def test_two_runs_count_alike(capsys):
    """The second run goes through the command line: every layer, and
    the total, agree."""
    with smoke_size():
        assert census.main(["--bytecodes", WORLD]) == 0
    out = capsys.readouterr().out
    counted, frames = first_run()
    head = re.match(r".*: (\d+) frames received, (\d+) bytecodes", out)
    assert head and (int(head[1]), int(head[2])) == (frames, counted.total)
    printed = {line.split()[2]: float(line.split()[0])
               for line in out.splitlines()
               if re.match(r"\s+\d+\.\d +\d+\.\d%  \S+$", line)}
    assert printed.pop("total") == round(counted.total / frames, 1)
    assert printed == {layer: round(n / frames, 1)
                       for layer, n in counted.by_layer().items()}


def test_layers_sum_to_the_total():
    counted, frames = first_run()
    layers = counted.by_layer()
    assert frames > 0 and counted.total > 0
    assert sum(layers.values()) == counted.total
    assert sum(counted.by_function().values()) == counted.total
    # the simulator's own machinery and the JIT's translations are
    # layers of their own
    assert {"sim.engine", "sim.queues", "hw.cpu", "vcode.jit"} <= set(layers)


def test_a_planted_loop_moves_its_layer_only(monkeypatch):
    """A loop compiled as if it were ``kernel/dpf.py`` runs around every
    classification: ``kernel.dpf`` gains exactly its bytecodes, per
    call, and every other layer counts what it did."""
    source = ("def classify(self, packet):\n"
              "    calls.append(packet)\n"
              "    for _ in range(50):\n"
              "        pass\n"
              "    return original(self, packet)\n")
    calls = []
    namespace = {"original": dpf.DpfEngine.classify, "calls": calls}
    exec(compile(source, dpf.__file__, "exec"), namespace)
    before, _frames = first_run()
    monkeypatch.setattr(dpf.DpfEngine, "classify", namespace["classify"])
    planted, _frames = count()
    moved = {layer for layer in before.by_layer().keys()
             | planted.by_layer().keys()
             if before.by_layer().get(layer) != planted.by_layer().get(layer)}
    assert moved == {"kernel.dpf"}
    # as many per call as the planted code takes: the same every call
    extra = planted.by_layer()["kernel.dpf"] - before.by_layer()["kernel.dpf"]
    assert calls and extra % len(calls) == 0 and extra // len(calls) > 100


def test_design_quotes_the_pinned_charge_budgets():
    """DESIGN.md's host-cost paragraph quotes what one uncontended
    charge costs; the ledger's ceilings are those figures."""
    root = Path(__file__).resolve().parent.parent
    ledger = json.loads((root / "tests" / "goldens.json").read_text())
    text = " ".join((root / "DESIGN.md").read_text().split())
    quoted = re.search(r"at (\d+) per `exec` and (\d+) per `compute`", text)
    assert quoted and tuple(map(int, quoted.groups())) == (
        ledger["bytecode_budget/charge/exec"],
        ledger["bytecode_budget/charge/compute"])


def test_each_translation_is_a_row_of_its_own():
    """Every translation's function is ``_jit_entry``: ``paper_tables``
    runs at least four programs through the JIT, and each is a row of
    its own under its code name, printed with its bytes of source."""
    counted, frames, _stats = census.run_paper_tables(BytecodeCensus())
    rows = [(layer, function) for layer, function in counted.by_function()
            if function.startswith("<vcode-jit:")]
    assert len(rows) >= 4
    assert {layer for layer, _function in rows} == {census.JIT_LAYER}
    assert "_jit_entry" not in {function for _layer, function
                                in counted.by_function()}
    printed = counted.format(frames, top=len(counted.by_function()))
    for _layer, row in rows:
        assert re.search(re.escape(row) + r"  \([1-9]\d* B of source\)$",
                         printed, re.M), row


@pytest.mark.slow
@pytest.mark.parametrize("world", sorted(FRAME_CEILINGS))
def test_bytecodes_per_frame_do_not_rise(world):
    """The host's cost of each benchmark world, in bytecodes per
    received frame, stays at or under its ceiling (~20 s a world)."""
    counted = BytecodeCensus()
    if world == "paper_tables":
        _census, frames, _stats = census.run_paper_tables(counted)
    else:
        _census, frames, _stats = run_perf_world(world, 1, counted)
    assert round(counted.total / frames, 1) <= FRAME_CEILINGS[world]
