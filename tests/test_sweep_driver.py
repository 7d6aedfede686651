"""Tier-1 gate: the plane bench's grid, quick and committed.

``benchmarks/bench_planes.py --quick`` runs a corner of the grid (every
workload kind, clean and crashed, both substrates) and must hold every
summary gate: bit-identity across substrates, zero order violations,
every crash recovered within its pinned bound, zero loss under forced
aborts, correct rollout verdicts, zero canary losses, the protected
victim above its isolation floor, Jain's floor, no calendar tombstones,
the core sweep near linear and the overflow-spill budget.  The
committed full grid in ``BENCH_planes.json`` must hold the same gates
row by row.
"""

import json

from tests.test_bench_infra import _committed, _load_script


def _assert_every_gate(planes, doc):
    assert all(holds(doc["summary"]) for holds, _message in planes.GATES)
    assert {r["workload"] for r in doc["rows"]} == set(planes.CELLS)
    assert any(r["observables"].get("crashes") for r in doc["rows"])
    for r in doc["rows"]:
        assert r["identical"], r["labels"]
        assert all(r["met"].values()), (r["workload"], r["labels"])


def test_smoke_grid_green(tmp_path):
    from repro.bench.results import plane_main

    planes = _load_script("bench_planes")
    out = tmp_path / "planes.json"
    assert plane_main("planes", planes.bench, planes.GATES,
                      argv=["--quick", "--out", str(out)]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["quick"] is True
    _assert_every_gate(planes, doc)


def test_committed_full_grid_baseline_schema_clean():
    """The checked-in full grid holds every gate, and covers every pinned
    recovery bound and every protected tenant row's isolation floor."""
    planes = _load_script("bench_planes")
    doc = _committed("planes")
    assert doc["quick"] is False
    _assert_every_gate(planes, doc)
    for scenario, bound in planes.RECOVERY_BOUND_US.items():
        workload, name = scenario.split("/")
        row, = (r for r in doc["rows"] if r["workload"] == workload
                and r["labels"].get("scenario") == name)
        assert row["observables"]["recovery_us"] <= bound, scenario
    protected = [r for r in doc["rows"] if r["workload"] == "tenant"
                 and r["labels"]["arm"] == "protected"
                 and r["labels"]["intensity_fps"]]
    assert protected
    for r in protected:
        assert r["victim_intact"], r["labels"]
        assert r["isolation_ratio"] >= planes.ISOLATION_FLOOR, r["labels"]
