"""The telemetry-export schema check, wired in as a regular test.

``benchmarks/check_metrics_schema.py`` is the CI gate for sidecar
files; these tests run the same validator in-process so exporter drift
fails the suite even when no sidecar has been regenerated, and pin the
crash/recovery-plane metrics into the export contract.
"""

from repro import telemetry

from tests.test_metrics_lint import _load


def test_recovery_plane_metrics_are_pinned_counters():
    checker = _load("check_metrics_schema")
    for name in (
        "crash.crashes", "crash.recoveries", "crash.lost_messages",
        "crash.filters_reinstalled", "crash.ash_reinstalls",
        "mem.alloc_failures", "cpu.contention_cycles",
        "degradation.order_violations",
    ):
        assert checker.KNOWN_METRICS.get(name) == "counters", name


def test_fault_run_export_validates_and_carries_recovery_counters():
    """A crash + pressure + contention run exports a schema-valid
    document whose counters include the whole recovery plane."""
    from tests.test_faults import cpu, crash, crash_tcp_transfer, mem

    checker = _load("check_metrics_schema")
    with telemetry.session() as sess:
        crash_tcp_transfer(
            "fast", seed=79, nbytes=24_000,
            faults=[crash(), mem(rate=0.1, sites=("rx_refill",)),
                    cpu(rate=0.1, burst_cycles=1_000)])
    doc = sess.export_metrics()
    assert checker.validate_metrics(doc) == []
    counters = {
        c["name"]
        for node in doc["nodes"]
        for c in node["metrics"]["counters"]
    }
    for name in ("crash.crashes", "crash.recoveries",
                 "mem.alloc_failures", "cpu.contention_cycles",
                 "faults.injected"):
        assert name in counters, f"{name} missing from export"
    # the invariant held, so its violation counter must NOT have fired
    assert "degradation.order_violations" not in counters


def test_committed_sidecars_validate(tmp_path):
    """The canonical sidecars, committed as digests in
    ``tests/goldens.json``, parse against the current schema, file by
    file and through the CLI."""
    from tests.goldens import canonical_capture

    checker = _load("check_metrics_schema")
    paths = []
    for kind, text in zip(("telemetry", "trace"), canonical_capture()):
        paths.append(tmp_path / f"canonical.{kind}.json")
        paths[-1].write_text(text)
        assert checker.validate_file(str(paths[-1])) == [], kind
    assert checker.main([str(path) for path in paths]) == 0
