"""Tests for the benchmark infrastructure: tables, testbeds, datapath."""

import json
import math
import os
import sys

import pytest

from repro.bench.results import BenchTable
from repro.bench.testbed import make_an2_pair, make_eth_pair
from repro.bench.micro import copy_throughput, ilp_throughput
from repro.hw.calibration import Calibration
from repro.net.checksum import le_word_sum
from repro.net.datapath import DataPath
from repro.net.stack import NetStack

from tests.test_byte_ranges import integrated_copy_checksum
from tests.test_exit_matrix import TELEMETRY_WORLDS, telemetry_export
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

    def test_bench_main_writes_sidecars_where_told(self, tmp_path,
                                                   monkeypatch):
        """``bench_*.py --trace --metrics-out M --trace-out T``: the
        table lands in the results directory, both sidecars where the
        command line says, and both pass the schema checker."""
        from repro.bench.telemetry_cli import bench_main
        from repro.bench.workloads import udp_pingpong

        monkeypatch.setattr(
            "repro.bench.results.results_dir", lambda: str(tmp_path))
        metrics = tmp_path / "cli.telemetry.json"
        trace = tmp_path / "cli.trace.json"
        monkeypatch.setattr("sys.argv", [
            "bench_cli.py", "--trace", "--metrics-out", str(metrics),
            "--trace-out", str(trace)])

        def run():
            table = BenchTable(name="cli", title="T", columns=["us"])
            table.add_row("udp", us=udp_pingpong(iters=1, warmup=0))
            return table

        bench_main(run)
        assert BenchTable.load("cli").rows == run().rows
        checker = _load_script("check_metrics_schema")
        assert checker.main([str(metrics), str(trace)]) == 0


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
        integrated = integrated_copy_checksum(self.tb.server)
        self.tb.server.dcache.flush_all()
        acc, c_int = integrated(self.src.base, self.dst.base, 4096)
        assert acc == le_word_sum(self.data)
        assert c_int < c_copy + c_ck

    def test_building_stacks_compiles_nothing(self, monkeypatch):
        """A DILP engine is compiled where it runs, not per stack: a
        testbed and four stacks on it compile no pipe list."""
        from repro.pipes import compiler

        calls = []
        original = compiler.compile_pl

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__dict__", {}).get("compile_pl") is original:
                monkeypatch.setattr(mod, "compile_pl", spy)
        tb = make_an2_pair()
        for k in range(4):
            NetStack(tb.client_kernel, tb.client_nic, f"10.0.0.{k + 1}",
                     an2_peers={"10.0.0.9": (1, 2)})
        eth = make_eth_pair()
        NetStack(eth.server_kernel, eth.server_nic, "10.0.0.2",
                 mac=b"\x02\x00\x00\x00\x00\x02")
        assert calls == []

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


@pytest.mark.parametrize("world_name", sorted(TELEMETRY_WORLDS))
def test_telemetry_export_of_pinned_world(world_name):
    """What a run exports, collected totals included, validates: every
    metric is declared under its block (the export itself is pinned in
    ``tests/goldens.json``)."""
    doc, _lookups = telemetry_export(world_name)
    checker = _load_script("check_metrics_schema")
    assert checker.validate_metrics(doc) == []


@pytest.mark.parametrize("name", [
    "table1", "fig3", "table3", "table4", "table5", "fig4", "sec5d",
    "ablation-dilp", "ablation-budget", "ablation-sandbox",
    "ablation-livelock",
    *(pytest.param(name, marks=pytest.mark.slow)
      for name in ("table2", "table6", "ext-tcp-params"))])
def test_committed_paper_table_is_fresh(name):
    """Every paper table, ablation and extension equals
    ``benchmarks/results/<name>.json`` row for row (``fig4_scheduling.json``
    sat stale for four PRs because nothing compared it); the three that
    take seconds are in the slow tier.  Regenerate with ``python -m
    repro.bench <name>`` and ``make_experiments_md.py``."""
    from repro.bench.__main__ import EXPERIMENTS, _load_runner

    table = _load_runner(*EXPERIMENTS[name])()
    assert table.rows == BenchTable.load(table.name).rows


def _first_row(kind, **labels):
    """The first committed ``BENCH_planes.json`` row of a kind (and labels)."""
    return next(r for r in _committed("planes")["rows"]
                if r["workload"] == kind
                and labels.items() <= r["labels"].items())


#: a row of each workload kind but scale (seconds each: the slow tier's),
#: named for the plane it stresses, and the first impaired transfer;
#: fairness is the 16-flow row, the one that went stale
PLANE_CELLS = {
    "crash": lambda: _first_row("transfer"),
    "faults": lambda: _first_row("transfer", scenario="drop"),
    "liveops": lambda: _first_row("canary"),
    "tenancy": lambda: _first_row("tenant"),
    "abort": lambda: _first_row("abort"),
    "fairness": lambda: _first_row("fairness"),
}


@pytest.mark.parametrize("name", sorted(PLANE_CELLS))
def test_committed_plane_bench_cell_is_fresh(name):
    """The row's cell function, rerun on ``fast`` from the kwargs the
    row records, returns the committed observables.  Regenerate with
    ``python benchmarks/bench_planes.py``."""
    row = PLANE_CELLS[name]()
    fresh = _load_script("bench_planes").CELLS[row["workload"]](
        substrate="fast", **row["kwargs"])
    fresh = json.loads(json.dumps(fresh))       # tuples -> lists, as stored
    assert fresh == row["observables"]


def test_readme_quotes_the_committed_plane_figures():
    """README's SACK speedup, isolation ratios, worst Jain index and
    core-sweep scaling are the committed ``BENCH_planes.json`` figures."""
    doc = _committed("planes")
    speedup, = (r["sack_speedup"] for r in doc["rows"] if r["labels"]
                == {"scenario": "drop", "rate": 0.2, "sack": True})
    summary = doc["summary"]
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = " ".join(fh.read().split())
    for quoted in (f"~{speedup:.1f}× at 20 % drop",
                   f"≈ {summary['min_protected_isolation_ratio']:.2f}×",
                   f"≈ {summary['min_unprotected_isolation_ratio']:.2f}×",
                   f"worst row {summary['min_jain_index']}",
                   f"{summary['sweep_linear_fraction']}× of linear"):
        assert quoted in readme


def test_each_moved_gate_fails_the_run(tmp_path):
    """Jain's index, the core sweep, the overflow spills and the
    calendar tombstones are ``GATES`` entries: the committed summary
    passes them, and breaking any one makes ``plane_main`` exit 1."""
    from repro.bench.results import plane_main

    planes = _load_script("bench_planes")
    for broken in ({}, {"all_fairness_within_bounds": False},
                   {"sweep_linear_fraction": planes.LINEAR_FLOOR - 0.001},
                   {"largest_overflow_spills": planes.MAX_OVERFLOW_SPILLS + 1},
                   {"zero_calendar_tombstones": False}):
        summary = dict(_committed("planes")["summary"], **broken)
        code = plane_main("planes", lambda quick: {"summary": summary},
                          planes.GATES, argv=["--out", str(tmp_path / "p")])
        assert code == (1 if broken else 0), broken


def _model_leaves(doc, path=""):
    """Every leaf but the ``python`` header, which names the host's
    interpreter, not the model."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {path: doc}
    return {leaf: value for key, sub in items if key != "python"
            for leaf, value in _model_leaves(sub, f"{path}/{key}").items()}


def _part(doc, name):
    """What one regeneration id checks: the fairness or scale rows, or
    (``planes``) the header, the summary and every other row."""
    if name in ("fairness", "scale"):
        return [r for r in doc["rows"] if r["workload"] == name]
    return dict(doc, rows=[r for r in doc["rows"]
                           if r["workload"] not in ("fairness", "scale")])


@pytest.mark.slow
@pytest.mark.parametrize("name", ["planes", "fairness", "scale"])
def test_plane_bench_regenerates_its_committed_artefact(name,
                                                        regenerated_planes):
    """Through the real command line, the full run passes its gates and
    reproduces every leaf of the committed ``BENCH_planes.json`` (but
    the ``python`` header), exactly: one id per part of the grid, all
    reading one regeneration."""
    code, doc = regenerated_planes
    assert code == 0
    assert (_model_leaves(_part(doc, name))
            == _model_leaves(_part(_committed("planes"), name)))


def test_census_report_of_pingpong_small():
    """``python -m repro.bench.census`` end to end on the benchmark's
    own world (loaded by path from ``benchmarks/perf``): the report's
    shape.  Its figures are pinned in ``tests/goldens.json``."""
    from tests.goldens import CENSUS_LEFT, census_report

    lines = census_report("pingpong_small").splitlines()
    assert lines[0].startswith("pingpong_small (seed 1): ")
    rows = [line.split() for line in lines[4:lines.index("", 4)]]
    assert all(len(row) == 6
               and row[2] in ("pending", "hop", "continued", "granted")
               for row in rows)
    # a charge is booked at its charge site, not inside the CPU model
    assert not any("Cpu.run" in row[5] for row in rows)
    left = lines[lines.index("what is left, per received frame:") + 1:]
    assert len(left) == 2 * len(CENSUS_LEFT)
