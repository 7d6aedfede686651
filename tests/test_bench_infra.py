"""Tests for the benchmark infrastructure: tables, testbeds, datapath."""

import json
import math
import os

import pytest

from repro.bench.results import BenchTable, results_dir
from repro.bench.testbed import make_an2_pair, make_eth_pair
from repro.bench.micro import copy_throughput, ilp_throughput
from repro.hw.calibration import Calibration
from repro.net.checksum import le_word_sum
from repro.net.datapath import DataPath

from tests.test_metrics_lint import _load as _load_script


class TestBenchTable:
    def test_add_and_value(self):
        t = BenchTable(name="t", title="T", columns=["a", "b"])
        t.add_row("x", a=1.0, b=2.0)
        assert t.value("x", "a") == 1.0
        with pytest.raises(KeyError):
            t.value("missing", "a")

    def test_format_includes_paper_rows(self):
        t = BenchTable(name="t", title="T", columns=["v"])
        t.add_row("x", v=1.23)
        t.add_paper_row("x", v=1.5)
        text = t.format()
        assert "1.23" in text and "(paper)" in text and "1.5" in text

    def test_save_load_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.results.results_dir", lambda: str(tmp_path)
        )
        t = BenchTable(name="roundtrip", title="T", columns=["v"])
        t.add_row("x", v=3.0)
        t.note("hello")
        t.save()
        back = BenchTable.load("roundtrip")
        assert back.value("x", "v") == 3.0
        assert back.notes == ["hello"]

    def test_format_handles_non_floats(self):
        t = BenchTable(name="t", title="T", columns=["v"])
        t.add_row("x", v="n/a")
        assert "n/a" in t.format()


class TestTestbeds:
    def test_an2_pair_wiring(self):
        tb = make_an2_pair()
        assert tb.client.kernel is tb.client_kernel
        assert tb.server.kernel is tb.server_kernel
        assert tb.client_nic.link is tb.link
        assert tb.server_nic.link is tb.link
        assert tb.client_nic.link_end != tb.server_nic.link_end

    def test_eth_pair_wiring(self):
        tb = make_eth_pair()
        assert tb.client_nic.medium == "ethernet"
        assert tb.link.min_frame == tb.cal.eth_min_frame

    def test_custom_calibration_propagates(self):
        cal = Calibration(cpu_mhz=80.0)
        tb = make_an2_pair(cal)
        assert tb.client.cal.cpu_mhz == 80.0
        assert tb.server_kernel.cal.cpu_mhz == 80.0


class TestDataPath:
    def setup_method(self):
        self.tb = make_an2_pair()
        self.dp = DataPath(self.tb.server)
        self.mem = self.tb.server.memory
        self.src = self.mem.alloc("dpsrc", 4096)
        self.dst = self.mem.alloc("dpdst", 4096)
        self.data = bytes(range(256)) * 16
        self.mem.write(self.src.base, self.data)

    def test_copy_moves_bytes_and_charges(self):
        cycles = self.dp.copy(self.src.base, self.dst.base, 4096)
        assert self.mem.read(self.dst.base, 4096) == self.data
        # ~2 cycles/byte uncached (Table III's 20 MB/s anchor)
        assert 1.7 * 4096 <= cycles <= 2.3 * 4096

    def test_copy_handles_odd_lengths(self):
        cycles = self.dp.copy(self.src.base, self.dst.base, 103)
        assert self.mem.read(self.dst.base, 103) == self.data[:103]
        assert cycles > 0

    def test_checksum_matches_le_reference(self):
        acc, _cycles = self.dp.checksum(self.src.base, 4096)
        assert acc == le_word_sum(self.data)

    def test_checksum_odd_length_pads(self):
        acc, _ = self.dp.checksum(self.src.base, 7)
        assert acc == le_word_sum(self.data[:7])

    def test_integrated_cheaper_than_separate(self):
        c_copy = self.dp.copy(self.src.base, self.dst.base, 4096)
        _, c_ck = self.dp.checksum(self.dst.base, 4096)
        self.tb.server.dcache.flush_all()
        acc, c_int = self.dp.copy_checksum_integrated(
            self.src.base, self.dst.base, 4096
        )
        assert acc == le_word_sum(self.data)
        assert c_int < c_copy + c_ck

    def test_copy_in_writes_and_charges(self):
        cycles = self.dp.copy_in(self.dst.base, b"staged payload!!")
        assert self.mem.read(self.dst.base, 16) == b"staged payload!!"
        assert cycles > 0
        assert self.dp.copy_in(self.dst.base, b"") == 0


class TestMicroSanity:
    def test_copy_throughput_keys(self):
        result = copy_throughput()
        assert set(result) == {
            "single copy", "double copy", "double copy (uncached)"
        }
        assert all(v > 0 and not math.isnan(v) for v in result.values())

    def test_ilp_throughput_strategies(self):
        result = ilp_throughput()
        assert set(result) == {
            "Separate", "Separate/uncached", "C integrated", "DILP"
        }

    def test_faster_cpu_scales_throughput(self):
        slow = copy_throughput(Calibration(cpu_mhz=40.0))["single copy"]
        fast = copy_throughput(Calibration(cpu_mhz=80.0))["single copy"]
        assert fast == pytest.approx(2 * slow, rel=0.01)


# ---------------------------------------------------------------------------
# freshness: committed artefacts equal what the code computes today
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _committed(name):
    with open(os.path.join(ROOT, f"BENCH_{name}.json")) as fh:
        return json.load(fh)


def test_experiments_complexity_table_is_fresh():
    """EXPERIMENTS.md's Sec V-F table is line counts of ``src/``: it rots
    with every source change unless something fails when it does.
    Regenerate with ``python benchmarks/make_experiments_md.py``."""
    gen = _load_script("make_experiments_md")
    with open(os.path.join(ROOT, "EXPERIMENTS.md")) as fh:
        committed = fh.read()
    assert gen.complexity_section() in committed


def test_canonical_sidecars_are_fresh(tmp_path):
    """``benchmarks/results/canonical.{telemetry,trace}.json`` equal,
    byte for byte, what ``make_experiments_md.py --trace`` writes today
    (they sat stale from PR 12 to PR 15: nothing recomputed them)."""
    from repro.vcode import jit

    jit.clear_code_cache()      # translations count; see telemetry_export
    fresh = {"telemetry": tmp_path / "m.json", "trace": tmp_path / "t.json"}
    _load_script("make_experiments_md").capture_canonical_telemetry(
        str(fresh["telemetry"]), str(fresh["trace"]))
    for kind, path in fresh.items():
        with open(os.path.join(results_dir(), f"canonical.{kind}.json"),
                  "rb") as fh:
            assert path.read_bytes() == fh.read(), kind


#: SHA-256 of the merged metrics document of each telemetry-on world of
#: ``tests/test_exit_matrix.py``: crash-lifetime counters and
#: per-tenant labels.  First pinned on the code that pushed every total
#: (71066a58... / 31a2d76b...); collecting them moved no sample — the
#: two hashes changed only because four counters that were pre-created
#: and still zero (``kernel.demux_misses``, ``kernel.livelock_deferrals``,
#: ``sched.packet_boosts``, ``sched.context_switches``) no longer export
#: a zero-valued sample (7 and 8 samples per document; CHANGES, PR 19).
#: Re-pinned (from deb83b68... / ccefb384...) on untouched ``src/`` with
#: the packet-buffer pool's samples left out of the hashed document, so
#: deleting the pool could be shown to move nothing else (CHANGES, PR 20),
#: and once more (from 533672ad... / b00ec3e0...) with the engine's event
#: counts moved out to ``EXPORT_EVENTS`` (CHANGES, PR 21)
EXPORT_SHA256 = {
    "chaos_ash":
        "939ff641253eb7e8ccab417d8763395b201d5ab9f38b3f887322e1c79d344fb2",
    "tenant_flood":
        "e395b667c3973bbc332720dc05ec832c621c022bae43f257d5fe34eb42b609c6",
}

#: the engine's own dispatch counts, hashed with nothing: they say how
#: the simulator got there, not what was simulated, and fall whenever a
#: queue hop is saved — (6712, 6553, 3956) and (2493, 2424, 1461) until
#: a lock or gate that lets its caller through stopped being yielded
#: (CHANGES, PR 21: all three fall together, by 2330 and by 856), then
#: (4382, 4223, 1626) and (1637, 1568, 605) while the hop of one that
#: ties with a same-tick sibling was counted as fired, not ``requeued``
EVENT_COUNTS = ("sim.calendar.scheduled", "sim.calendar.fired",
                "sim.calendar.inlined")
EXPORT_EVENTS = {
    "chaos_ash": (4251, 4092, 1626),
    "tenant_flood": (1605, 1536, 605),
}


def split_event_counts(doc):
    """(``doc`` without its ``EVENT_COUNTS`` samples, their values)."""
    events = dict.fromkeys(EVENT_COUNTS, 0)
    nodes = []
    for node in doc["nodes"]:
        counters = node["metrics"]["counters"]
        for sample in counters:
            if sample["name"] in events:
                events[sample["name"]] += sample["value"]
        nodes.append({**node, "metrics": {
            **node["metrics"],
            "counters": [c for c in counters if c["name"] not in events]}})
    return {**doc, "nodes": nodes}, tuple(events.values())


@pytest.mark.parametrize("world_name", sorted(EXPORT_SHA256))
def test_telemetry_export_of_pinned_world(world_name):
    import hashlib

    from tests.test_exit_matrix import telemetry_export

    doc, _lookups = telemetry_export(world_name)
    # what a run exports, collected totals included, is in KNOWN_METRICS
    lint = _load_script("check_metrics_lint")
    for node in doc["nodes"]:
        assert lint.lint_snapshot(node["metrics"], where=node["source"]) == []
    doc, events = split_event_counts(doc)
    blob = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() \
        == EXPORT_SHA256[world_name]
    assert events == EXPORT_EVENTS[world_name]


@pytest.mark.parametrize(
    "name", ["table1", "table3", "table4", "table5", "fig4", "sec5d"])
def test_committed_paper_table_is_fresh(name):
    """The six tables cheap enough to recompute on every run (0.5 s in
    all) must equal ``benchmarks/results/<name>.json`` row for row:
    ``fig4_scheduling.json`` sat stale for four PRs because nothing
    compared it.  Regenerate with ``python -m repro.bench <name>`` and
    ``make_experiments_md.py``."""
    from repro.bench.__main__ import EXPERIMENTS, _load_runner

    table = _load_runner(*EXPERIMENTS[name])()
    assert table.rows == BenchTable.load(table.name).rows


#: per plane bench: its script, and the cheapest committed cell
#: recomputed on ``fast`` by the script's own cell function, at the
#: committed size -> (fresh, committed).  Fairness takes the 16-flow
#: config, the one that went stale.
PLANE_CELLS = {
    "crash": ("bench_crash", lambda m, doc: (
        m.crash_transfer("fast", doc["transfer_bytes"]), doc["baseline"])),
    "faults": ("bench_faults", lambda m, doc: (
        m.lossy_transfer("fast", "drop", 0.0, doc["transfer_bytes"]),
        doc["curves"]["drop"][0])),
    "fairness": ("bench_fairness", lambda m, doc: (
        m.run_fairness("fast", 16, 48_000), doc["configs"][0])),
    "tenancy": ("bench_tenancy", lambda m, doc: (
        m.tenant_noisy_neighbor(substrate="fast", intensity_fps=0,
                                protected=True,
                                total_kb=doc["configs"][0]["total_kb"]),
        doc["configs"][0]["protected"])),
    "liveops": ("sweep_driver", lambda m, doc: (
        m.run_tcp_bulk("fast", nbytes=doc["transfer_bytes"]),
        doc["grid"][0]["observables"])),
}


@pytest.mark.parametrize("name", sorted(PLANE_CELLS))
def test_committed_plane_bench_cell_is_fresh(name):
    """Every leaf the cell function returns equals the committed
    ``BENCH_<name>.json`` (which adds labels of its own beside them).
    Regenerate with ``python benchmarks/<script>.py``."""
    script, cell = PLANE_CELLS[name]
    fresh, committed = cell(_load_script(script), _committed(name))
    fresh = json.loads(json.dumps(fresh))       # tuples -> lists, as stored
    assert fresh == {key: committed[key] for key in fresh}


@pytest.mark.slow
@pytest.mark.parametrize("name,script", [
    ("crash", "bench_crash"), ("faults", "bench_faults"),
    ("fairness", "bench_fairness"), ("tenancy", "bench_tenancy"),
    ("scale", "bench_scale"), ("liveops", "sweep_driver"),
])
def test_plane_bench_regenerates_its_committed_artefact(name, script,
                                                        tmp_path):
    """Through the real command line: a ``--quick`` round trip passes
    its gates, and the full run reproduces every leaf of the committed
    file that is not a host measurement."""
    from repro.bench.results import plane_main

    mod = _load_script(script)
    trend = _load_script("check_bench_trend")
    out = tmp_path / "fresh.json"

    def run(*flags):
        code = plane_main(name, mod.bench, mod.GATES,
                          getattr(mod, "EXTRA_ARGS", ()),
                          argv=[*flags, "--out", str(out)])
        with open(out) as fh:
            return code, json.load(fh)

    code, doc = run("--quick")
    assert code == 0 and doc["quick"] is True
    code, doc = run()
    assert code == 0

    def model_leaves(doc):
        return {path: value for path, value in trend.walk_leaves(doc)
                if trend.classify(path) != "wallclock"
                and path.rsplit(".", 1)[-1] not in ("speedup", "python")}

    assert model_leaves(doc) == model_leaves(_committed(name))


def test_census_report_of_pingpong_small():
    """``python -m repro.bench.census`` end to end on the benchmark's
    own world (loaded by path from ``benchmarks/perf``): the figures
    ROADMAP's event-budget item quotes are what it prints."""
    from repro.bench.census import report

    lines = report("pingpong_small", 1).splitlines()
    assert lines[0] == ("pingpong_small (seed 1): 3911 frames received, "
                        "142305 events fired = 36.39 per frame")
    assert lines[1].startswith("22.93 waits per frame came to rest at "
                               "17 sites; 12.85 resumes per frame ran inline")
    assert "2.29 were re-queued behind a same-tick sibling" in lines[1]
    rows = [line.split(None, 4) for line in lines[4:21]]
    assert [(row[1], row[2], row[3], row[4].split()[1]) for row in rows[:5]] \
        == [("6.86", "pending", "Timeout", "Process.compute"),
            ("5.99", "pending", "Timeout", "Cpu.exec"),
            ("2.76", "pending", "Event:acquire", "Cpu.exec"),
            ("2.51", "pending", "Event:acquire", "Process.compute"),
            ("2.29", "hop", "Event:done", "Process.compute")]
    assert sum(int(row[0]) for row in rows) == 89667
    left = lines[lines.index("what is left, per received frame:") + 1:]
    assert [line.rsplit(None, 1)[1] for line in left[0::2]] \
        == ["12.85", "6.16", "2.29", "1.63"]
    assert left[1].strip() == "Process.compute 6.86, Cpu.exec 5.99"
