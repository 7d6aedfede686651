"""The telemetry-export schema check, wired in as a regular test.

``benchmarks/check_metrics_schema.py`` is the CI gate for sidecar
files; these tests run the same validator in-process so exporter drift
fails the suite even when no sidecar has been regenerated.
"""

from repro import telemetry

from tests.test_metrics_lint import _load


def test_undeclared_metric_fails_validation():
    """A sample whose name ``DECLARED`` lacks is an error, as is a
    declared one exported under the wrong block."""
    checker = _load("check_metrics_schema")
    metrics = {"counters": [{"name": "rogue.metric", "value": 1}],
               "gauges": [{"name": "crash.crashes", "value": 1}],
               "histograms": []}
    doc = {"schema": telemetry.SCHEMA, "version": telemetry.SCHEMA_VERSION,
           "source": "n0", "sim_time_ps": 0, "metrics": metrics,
           "spans": {"created": 0, "finished": 0, "open": 0, "dropped": 0}}
    assert checker.validate_metrics(doc) == [
        "nodes[0].counters[0]: 'rogue.metric' is not a declared metric",
        "nodes[0].gauges[0]: 'crash.crashes' must be exported under "
        "'counters', found under 'gauges'",
    ]


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
