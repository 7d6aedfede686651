"""Tests for the benchmark infrastructure: tables, testbeds, datapath."""

import math
import os

import pytest

from repro.bench.results import BenchTable, results_dir
from repro.bench.testbed import make_an2_pair, make_eth_pair
from repro.bench.micro import copy_throughput, ilp_throughput
from repro.hw.calibration import Calibration
from repro.net.checksum import le_word_sum
from repro.net.datapath import DataPath


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


def test_experiments_complexity_table_is_fresh():
    """EXPERIMENTS.md's Sec V-F table is line counts of ``src/``: it rots
    with every source change unless something fails when it does.
    Regenerate with ``python benchmarks/make_experiments_md.py``."""
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md",
        os.path.join(root, "benchmarks", "make_experiments_md.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    with open(os.path.join(root, "EXPERIMENTS.md")) as fh:
        committed = fh.read()
    assert gen.complexity_section() in committed
