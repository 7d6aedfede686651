"""Self-checks of the benchmark: ``pytest benchmarks/perf -q``.

Everything that runs the program runs it at smoke size.  Not part of the
tier-1 suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import compare                                                # noqa: E402
import layers                                                 # noqa: E402
import metrics as M                                           # noqa: E402
from worlds import WORKLOADS                                  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORLD_WORKLOADS = [w for w in WORKLOADS if w != "paper_tables"]


def _script(name: str, *args: str) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, name), *args],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- the catalogue and BENCHMARK.json ---------------------------------------

def test_benchmark_json_lists_exactly_the_catalogue(benchmark_json):
    want = M.benchmark_json()
    assert benchmark_json["end_to_end"] == want["end_to_end"]
    assert benchmark_json["per_layer"] == want["per_layer"]
    assert [w["name"] for w in benchmark_json["workloads"]] == list(WORKLOADS)
    assert benchmark_json["paths"] == ["benchmarks/perf"]
    assert set(benchmark_json) == {"command", "paths", "run_seconds",
                                   "workloads", "end_to_end", "per_layer"}


def test_names_units_and_limits(benchmark_json):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in benchmark_json[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in benchmark_json["end_to_end"])
    setup = {m["name"]: m for m in benchmark_json["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"]
                                 for m in benchmark_json["end_to_end"])
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in benchmark_json["workloads"])
    assert isinstance(benchmark_json["run_seconds"], int)


# -- profile folding ----------------------------------------------------------

def test_fold_charges_foreign_frames_to_their_repro_caller():
    eng = ("/x/src/repro/sim/engine.py", 10, "_run_fast")
    tcp = ("/x/src/repro/net/tcp/tcp.py", 20, "write")
    heap = ("~", 0, "<built-in method _heapq.heappush>")
    closure = ("/x/benchmarks/perf/worlds.py", 30, "client")
    root = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        eng: (1, 1, 2.0, 10.0, {}),
        tcp: (5, 5, 3.0, 4.0, {closure: (5, 5, 3.0, 4.0)}),
        # the builtin ran 0.6 s under the engine and 0.2 s under tcp
        heap: (9, 9, 0.8, 0.8, {eng: (6, 6, 0.6, 0.6),
                                tcp: (3, 3, 0.2, 0.2)}),
        # the workload closure is resumed by the engine
        closure: (5, 5, 1.0, 5.0, {eng: (5, 5, 1.0, 5.0)}),
        root: (1, 1, 0.5, 0.5, {}),
    }
    buckets, total = layers.fold(stats)
    assert total == pytest.approx(7.3)
    assert sum(buckets.values()) == pytest.approx(total)
    assert buckets["sim.engine"] == pytest.approx(2.0 + 0.6 + 1.0)
    assert buckets["net.tcp"] == pytest.approx(3.0 + 0.2)
    assert buckets[layers.OTHER] == pytest.approx(0.5)


def test_layer_of_picks_the_most_specific_layer():
    assert layers.layer_of("/r/src/repro/net/tcp/sack.py") == "net.tcp"
    assert layers.layer_of("/r/src/repro/net/udp.py") == "net"
    assert layers.layer_of("/r/src/repro/hw/nic/rss.py") == "hw.nic"
    assert layers.layer_of("/r/src/repro/bench/workloads.py") == layers.OTHER
    assert layers.layer_of("/usr/lib/python3/heapq.py") is None


# -- compare.py ---------------------------------------------------------------

def test_verdicts():
    v = compare.verdict
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert v(steady, [1.03, 1.02, 1.04, 1.03, 1.05], "lower", 0.10, False) == "same"
    assert v(steady, [1.20, 1.21, 1.19, 1.22, 1.20], "lower", 0.10, False) == "worse"
    assert v(steady, [0.80, 0.81, 0.79, 0.82, 0.80], "lower", 0.10, False) == "better"
    noisy = [0.8, 1.3, 1.0, 0.7, 1.4]
    assert v(steady, noisy, "lower", 0.10, False) == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    assert v([2.0, 2.6, 3.1, 2.2, 2.9], [1.0, 1.3, 1.1, 1.4, 1.2],
             "lower", 0.10, False) == "better"
    # an unsteady calibration leaves host seconds unresolved
    assert v(steady, steady, "lower", 0.10, False, steady=False) == "unresolved"
    # exact statistics are compared as counts
    assert v([77.5], [77.5], "lower", 0.02, True) == "same"
    assert v([77.5], [77.6], "lower", 0.02, True) == "worse"
    assert v([4.3], [4.4], "higher", 0.0, True) == "better"


# -- run.py's two lanes -------------------------------------------------------

def test_lanes_record_every_repetition_within_the_limits(monkeypatch):
    import random
    import threading
    import time

    import run

    started, lock = [], threading.Lock()

    def fake_rep(workload, seed, smoke, **kw):
        with lock:
            started.append(threading.get_ident())
            serial = len(started)
        time.sleep(random.Random(serial).uniform(0.0, 0.004))
        return {"serial": serial, "run_cpu_s": 0.0, "run_ref_s": 0.0}

    monkeypatch.setattr(run, "run_rep", fake_rep)
    monkeypatch.setattr(run, "LANES", 4)       # more workers than cores
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # time enough for far more than MAX_REPS: the cap must hold
        capped = run.timed_reps("w", 1, seconds=60.0, smoke=False)
        assert run.MAX_REPS - 3 <= len(capped) <= run.MAX_REPS
        # no time at all: every lane still works until MIN_REPS are in
        started.clear()
        floor = run.timed_reps("w", 1, seconds=0.0, smoke=False)
        assert run.MIN_REPS <= len(floor) <= run.MIN_REPS + 3
        for reps in (capped, floor):           # none lost, none twice
            assert sorted(r["serial"] for r in reps) == \
                list(range(1, len(reps) + 1))
        assert len(set(started)) > 1
        started.clear()
        assert len(run.timed_reps("w", 1, 60.0, smoke=True)) == 4
    finally:
        sys.setswitchinterval(old)


# -- the program, at smoke size -------------------------------------------------

@pytest.mark.parametrize("workload", ["pingpong_small", "paper_tables"])
def test_driver_form_emits_exactly_the_listed_metrics(workload, benchmark_json):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = _script("run.py", "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", str(trace), "--smoke")
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert isinstance(line["attempted"], int) and line["attempted"] >= 1
        listed = {m["name"]: m["unit"] for m in benchmark_json[key]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == listed
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())
        if trace:
            shares = [m["value"] for n, m in line["metrics"].items()
                      if n.startswith("trace.") and n.endswith(".self_share")]
            assert sum(shares) == pytest.approx(1.0, abs=0.02)
            assert line["metrics"]["trace.other.self_share"]["value"] <= 0.05
            # reported; at smoke size (0.1 s runs) too noisy to bound below
            assert line["metrics"]["trace.overhead_ratio"]["value"] > 0.0
            with open(os.path.join(HERE, "out",
                                   f"{workload}.trace.json")) as fh:
                trace_doc = json.load(fh)
            names = {s["name"] for s in trace_doc["spans"]}
            assert {"setup", "setup.nodes", "setup.installs", "run",
                    "verify"} <= names
            by_id = {s["id"]: s for s in trace_doc["spans"]}
            assert all(s["parent"] is None or s["parent"] in by_id
                       for s in trace_doc["spans"])
        else:
            assert all(m["value"] != 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORLD_WORKLOADS)
def test_simulated_statistics_repeat_per_seed_and_move_with_it(workload):
    first = _script("child.py", "--workload", workload, "--seed", "1", "--smoke")
    again = _script("child.py", "--workload", workload, "--seed", "1", "--smoke")
    other = _script("child.py", "--workload", workload, "--seed", "2", "--smoke")
    for rep in (first, again, other):
        assert rep["failed"] == 0 and rep["attempted"] >= 1, rep["notes"]
    assert first["sim"] == again["sim"]
    assert first["digest"] == again["digest"]
    assert first["counts"] == again["counts"]
    # another seed is other payloads (always) and other staggers, hence
    # other timings.  Not on planes_chaos: its staggers and fault schedule
    # are constants of the workload (worlds.CHAOS_FAULT_SEED says what a
    # seeded schedule cost), so a hold-out seed there changes bytes only
    assert first["digest"] != other["digest"]
    assert (first["sim"] == other["sim"]) == (workload == "planes_chaos")


def test_planes_chaos_really_runs_its_planes():
    rep = _script("child.py", "--workload", "planes_chaos", "--seed", "1",
                  "--smoke")
    counts = rep["counts"]
    assert counts["sim.faults.injected"] > 0
    assert counts["ash.tenancy.clipped_frames"] > 0
    assert counts["net.tcp.retransmits"] + counts["net.tcp.fast_recoveries"] > 0


def test_a_failed_output_check_reaches_the_tally(tmp_path):
    """A world whose echo is corrupted must count failed operations."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import worlds\n"
        "from repro.net import udp\n"
        "real = udp.UdpSocket.sendto\n"
        "def corrupt(self, proc, payload, ip, port):\n"
        "    if self.endpoint.name.endswith('udps'):\n"
        "        payload = bytes(len(payload))\n"
        "    return real(self, proc, payload, ip, port)\n"
        "udp.UdpSocket.sendto = corrupt\n"
        "w = worlds.build_pingpong_small(\n"
        "    worlds.generate_inputs('pingpong_small', 1, smoke=True))\n"
        "w.run(); a, f, notes = w.verify(); print(a, f)\n"
    ) % (os.path.join(REPO, "src"), HERE)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    attempted, failed = map(int, proc.stdout.split())
    # four UDP flows x 8 rounds echo zeros instead of the payload
    assert attempted == 80 and failed == 32


def test_compare_rows_over_two_smoke_passes(tmp_path):
    paths = []
    for i in (0, 1):
        path = str(tmp_path / f"r{i}.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--out", path],
            capture_output=True, text=True, cwd=REPO, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "all output checks passed" in proc.stdout
        paths.append(path)
    a, b = (json.load(open(p)) for p in paths)
    exact = {name for name, spec in M.END_TO_END.items() if spec[3]}
    exact |= set(M.UNGATED_END_TO_END)
    seen = set()
    for workload, name, _a, _b, _spec, verdict in compare.rows(a, b):
        assert name != "output_checks", workload
        if name in exact:
            assert verdict == "same", (workload, name)
            seen.add((workload, name))
    assert {(w, n) for w in WORKLOADS for n in M.END_TO_END
            if M.END_TO_END[n][3]} <= seen
    assert ("paper_tables", "paper_err_max_pct") in seen

    # a side whose output checks failed, or a workload B lacks, is ``worse``
    # even when every figure reads the same
    def check_rows(b_doc):
        return [(w, v) for w, name, _a, _b, _spec, v in compare.rows(a, b_doc)
                if name == "output_checks"]

    b["workloads"]["bulk_stream"].update(
        correct=False, notes=["digest differs between repetitions"])
    assert check_rows(b) == [("bulk_stream", "worse")]
    del b["workloads"]["bulk_stream"]
    assert check_rows(b) == [("bulk_stream", "worse")]
    broken = str(tmp_path / "broken.json")
    with open(broken, "w") as fh:
        json.dump(b, fh)
    assert compare.main([paths[0], paths[0]]) == 0   # host noise aside
    assert compare.main([paths[0], broken]) == 1
