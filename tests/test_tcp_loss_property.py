"""Randomized loss/reorder testing of TCP (seeded, deterministic).

Loss is injected through the FaultPlane link seam
(:class:`repro.sim.faults.LinkImpairment`) rather than by
monkeypatching ``link.send`` — the drop schedule is a pure function of
the plane seed and the frame sequence, so every seed reproduces its
loss pattern exactly.
"""

import pytest

from repro.bench.workloads import chaos_transfer


def run_lossy_transfer(seed: int, loss_rate: float, nbytes: int,
                       use_ash: bool = False) -> bytes:
    """Transfer nbytes under random loss; returns what the server got.

    ``chaos_transfer`` keeps the handshake reliable so sessions always
    establish, and its client lingers long enough to answer
    retransmissions arriving at the fully backed-off cadence
    (MAX_RTO_BACKOFF * rto_us) several times over: the reply's ack may
    have been lost."""
    _tb, plane, xfer = chaos_transfer(
        nbytes, seed, mode="ash" if use_ash else None,
        faults=[{"site": "link", "target": "link", "drop": loss_rate}])
    assert plane.total("drop") > 0, "loss pattern never fired"
    return xfer.got


@pytest.mark.parametrize("seed", [1, 7, 42, 1337])
def test_library_path_survives_random_loss(seed):
    run_lossy_transfer(seed=seed, loss_rate=0.08, nbytes=48_000)


@pytest.mark.parametrize("seed", [1, 3])
def test_fastpath_survives_random_loss(seed):
    """Loss makes the ASH header-prediction miss (out-of-order seq):
    those segments fall back to the library, which must interleave
    correctly with kernel-handled ones."""
    run_lossy_transfer(seed=seed, loss_rate=0.06, nbytes=40_000,
                       use_ash=True)


def test_heavy_loss_eventually_completes():
    run_lossy_transfer(seed=5, loss_rate=0.2, nbytes=16_000)


@pytest.mark.parametrize("mode", [None, "ash", "upcall"])
def test_varying_payload_survives_loss(mode):
    """``seeded_payload`` is one repeated byte and cannot show a
    misplaced segment; this payload can.  Seed 7 reassembles four
    out-of-order segments on the library path, seed 1 loses two behind
    the fast path: both delivered the right number of wrong bytes while
    the reassembly drain's *charged* copy (from a stand-in address) ran
    after the bytes were written instead of before."""
    import random

    for seed in (1, 7):
        chaos_transfer(40_000, seed, mode=mode,
                       faults=[{"site": "link", "target": "link",
                                "drop": 0.06}],
                       data=random.Random(seed).randbytes(40_000))
