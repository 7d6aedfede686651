"""Determinism: identical runs produce identical virtual timings.

The paper de-noised its DECstations by relinking kernels and taking the
best of ten runs; our substitute is a fully deterministic simulator —
which these tests pin down, because every reproduced table relies on it.
The second half pins *substrate invariance*: the fast event engine
(calendar queue, fused dispatch loop, zero-copy packet pool) must
produce bit-identical simulated observables to the legacy heap engine.
"""

import os
import sys

import pytest

from repro.bench import workloads as W
from repro.bench.workloads import TcpConfig

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
))

from bench_scale import ScaleWorld, bench  # noqa: E402


def test_raw_latency_bitwise_repeatable():
    a = W.raw_pingpong_kernel(iters=6, warmup=1)
    b = W.raw_pingpong_kernel(iters=6, warmup=1)
    assert a == b


def test_udp_pingpong_repeatable():
    a = W.udp_pingpong(iters=5, warmup=1)
    b = W.udp_pingpong(iters=5, warmup=1)
    assert a == b


def test_tcp_session_repeatable_including_fastpath():
    cfg = TcpConfig(handler="ash")
    a = W.tcp_pingpong(config=cfg, iters=5, warmup=1)
    b = W.tcp_pingpong(config=cfg, iters=5, warmup=1)
    assert a == b


def test_remote_increment_repeatable_across_modes():
    for mode in ("ash", "upcall", "user"):
        a = W.remote_increment(mode=mode, iters=4, warmup=1).rt_us
        b = W.remote_increment(mode=mode, iters=4, warmup=1).rt_us
        assert a == b, mode


def test_congestion_control_repeatable_under_loss():
    """The cwnd/ssthresh event stream — the congestion controller's
    entire observable behaviour — is a pure function of the seed."""
    def run():
        _tb, _plane, xfer = W.chaos_transfer(
            24_000, 11, faults=[{"site": "link", "target": "link",
                                 "drop": 0.1}])
        return xfer.client.congestion_digest(), xfer.server.congestion_digest()

    assert run() == run()


def test_calibration_change_actually_changes_results():
    """Guard against the cost model silently not being consulted."""
    from repro.hw.calibration import Calibration

    base = W.udp_pingpong(iters=4, warmup=1)
    slower = W.udp_pingpong(
        cal=Calibration(an2_hw_oneway_us=96.0), iters=4, warmup=1
    )
    assert slower > base + 90.0  # ~2x the one-way hardware latency


# -- substrate invariance ---------------------------------------------------

def _world_observables(substrate):
    world = ScaleWorld(substrate, pairs=1, flows=3, rounds=4, size=2048)
    world.run()
    return world


def test_substrates_produce_identical_cycles():
    """Every simulated observable — per-flow round-trip times, cache
    hits/misses, interrupt and frame counts — must match between the
    calendar-queue fast path and the legacy heap engine."""
    fast = _world_observables("fast")
    legacy = _world_observables("legacy")
    assert fast.rt_ps == legacy.rt_ps
    assert fast.digest() == legacy.digest()


def test_substrates_agree_on_dispatch_ledger():
    """The fused fast loop elides queue hops but must account for them:
    scheduled/fired/cancelled counters stay equal across substrates."""
    fast = _world_observables("fast")
    legacy = _world_observables("legacy")
    fs, ls = fast.engine.stats(), legacy.engine.stats()
    for key in ("scheduled", "fired", "cancelled"):
        assert fs[key] == ls[key], key
    assert fs["inlined"] > 0          # the fast loop actually elides
    assert ls["inlined"] == 0
    # nothing left behind on either queue
    assert fs["queue"]["tombstones"] == 0
    assert fs["pending"] == 0 and ls["pending"] == 0


def test_scale_bench_smoke():
    """The quick benchmark config runs end to end and agrees."""
    out = bench(quick=True)
    assert out["summary"]["all_cycles_identical"]
    assert out["configs"][0]["fast"]["packets"] > 0


@pytest.mark.slow
def test_scale_bench_full_sweep():
    """The committed sweep: every config cycle-identical."""
    out = bench(quick=False)
    assert out["summary"]["all_cycles_identical"]
