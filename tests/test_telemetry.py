"""Tests for the telemetry subsystem: registry, spans, accounting, export."""

import json

import pytest

from repro import telemetry
from repro.bench.testbed import (
    CLIENT_TO_SERVER_VCI,
    make_an2_pair,
)
from repro.bench.workloads import am_flow, udp_pingpong
from repro.hw.link import Frame
from repro.sandbox.budget import budget_cycles
from repro.sim.engine import Engine
from repro.telemetry import (
    CHROME_SCHEMA,
    SCHEMA,
    SCHEMA_VERSION,
    MetricsRegistry,
    Telemetry,
)

from tests.test_metrics_lint import _load


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("rx", nic="an2").inc()
        reg.counter("rx", nic="an2").inc(2)
        reg.gauge("depth").set(7)
        h = reg.histogram("lat", buckets=(1, 10, 100))
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert reg.value("rx", nic="an2") == 3
        assert reg.value("depth") == 7
        assert h.count == 4
        assert h.counts == [1, 1, 1, 1]  # one per bucket + overflow
        assert h.max == 500
        assert h.mean == pytest.approx((0.5 + 5 + 50 + 500) / 4)

    def test_same_name_different_labels_are_distinct(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("rx", nic="a").inc()
        reg.counter("rx", nic="b").inc(5)
        assert reg.value("rx", nic="a") == 1
        assert reg.value("rx", nic="b") == 5

    def test_disabled_registry_is_a_no_op(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("rx")
        h = reg.histogram("lat")
        c.inc(100)
        h.observe(42)
        reg.gauge("g").set(9)
        assert c.value == 0
        assert h.count == 0
        assert reg.value("g") == 0

    def test_snapshot_is_sorted_and_json_serializable(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("z").inc()
        reg.counter("a").inc()
        snap = reg.snapshot()
        names = [c["name"] for c in snap["counters"]]
        assert names == sorted(names)
        json.dumps(snap)  # must not raise

    def test_collectors_run_at_snapshot_iff_enabled_then(self):
        """A collected total is its owner's ledger, read when somebody
        looks: whole (looking twice never double-counts), absent while
        still zero, and not consulted by a disabled registry."""
        ledger = {"rx": 0, "depth": 4}
        consulted = []

        def collect(reg):
            consulted.append(ledger["rx"])
            reg.total("rx", ledger["rx"], nic="a")
            reg.gauge("depth").set(ledger["depth"])

        reg = MetricsRegistry(enabled=False)
        reg.add_collector(collect)
        ledger["rx"] = 3
        assert reg.snapshot() == {"counters": [], "gauges": [],
                                  "histograms": []}
        assert consulted == []
        reg.enabled = True                    # mid-run: the whole ledger
        assert reg.value("rx", nic="a") == 3
        ledger["rx"] = 5
        for _ in range(2):
            assert reg.snapshot()["counters"] == [
                {"name": "rx", "labels": {"nic": "a"}, "value": 5}]
        assert consulted == [3, 5, 5]

        fresh = MetricsRegistry(enabled=True)
        fresh.add_collector(lambda r: r.total("rx", 0, nic="a"))
        assert fresh.snapshot()["counters"] == []     # zero: no sample
        assert fresh.snapshot()["gauges"] == []

    def test_hub_enabled_after_the_run_reports_the_run(self):
        """Totals live in the components: a standalone NIC counts with
        no hub at all, and a node's hub collects whatever its NIC, the
        dispatch stage and its kernel counted before it was switched
        on."""
        tb = make_an2_pair()
        ep = tb.server_kernel.create_endpoint_an2(
            tb.server_nic, CLIENT_TO_SERVER_VCI)
        for i in range(3):
            tb.client_nic.transmit(
                Frame(bytes([i]) * 8, vci=CLIENT_TO_SERVER_VCI))
        tb.run()
        tel = tb.server.telemetry
        assert not tel.enabled and len(ep.ring) == 3
        tel.enable()
        assert tel.registry.value("nic.rx_frames", nic="an2") == 3
        assert tel.registry.value("nic.rx_bytes", nic="an2") == 24
        assert tel.registry.value("kernel.rx_interrupts") == 3
        assert tel.registry.value("rss.steered", nic="an2", core="0") == 3
        assert tb.client.telemetry.registry.snapshot()["counters"] == []


# ---------------------------------------------------------------------------
# spans on a UDP echo round trip
# ---------------------------------------------------------------------------

class TestUdpSpans:
    def test_stage_ordering_and_latency_histograms(self):
        with telemetry.session() as sess:
            udp_pingpong(iters=1, warmup=0)
        by_source = {t.source: t for t in sess.telemetries}
        assert {"server", "client"} <= set(by_source)
        server = by_source["server"]

        finished = [s for s in server.spans.spans if s.finished]
        assert finished, "the server must have finished at least one span"
        span = finished[0]
        names = span.stage_names()
        # the receive pipeline in canonical order
        assert names[0] == "nic_rx"
        assert names[1] == "demux"
        assert "ring_enqueue" in names
        assert "copy" in names                      # app-buffer copy
        assert names[-1] == "app_consume"
        assert span.outcome == "app"
        # stage order implies monotonic simulated time
        times = [t for _s, t in span.events]
        assert times == sorted(times)
        assert all(t >= span.start for t in times)

        # per-stage latency histograms were fed on finish
        for stage in ("demux", "ring_enqueue", "app_consume"):
            h = server.registry.value("stage.latency_us", stage=stage)
            assert h.count >= 1
        # and the flow counters line up with one message each way (plus
        # whatever the reply generated on the client)
        assert server.registry.value("udp.rx_datagrams", port=7000) == 1
        assert server.registry.value("udp.tx_datagrams", port=7000) == 1

    def test_disabled_run_creates_no_spans(self):
        tb = make_an2_pair()
        assert not tb.server.telemetry.enabled
        assert tb.server.telemetry.spans.spans == []


# ---------------------------------------------------------------------------
# ASH cycle accounting
# ---------------------------------------------------------------------------

class TestAshCycleAccounting:
    def _run_increment(self):
        tb = make_an2_pair()
        for node in (tb.server, tb.client):
            node.telemetry.enable()
        sk = tb.server_kernel
        flow = am_flow(tb)

        def client(proc):
            for _ in range(3):
                yield from flow.request(proc)

        tb.client_kernel.spawn_process("client", client)
        tb.run()
        return tb, sk, flow.ash_id

    def test_budget_account_and_stats(self):
        tb, sk, ash_id = self._run_increment()
        entry = sk.ash_system.entry(ash_id)
        account = entry.account
        assert account.invocations == 3
        assert account.cycles_total > 0
        assert account.cycles_max >= account.cycles_last > 0
        assert account.budget == budget_cycles(sk.cal)
        assert account.overruns == 0          # tiny handler, huge budget
        assert 0 < account.remaining_last < account.budget

        stats = sk.stats()
        handler = stats["ash"]["handlers"][0]
        assert handler["invocations"] == handler["consumed"] == 3
        assert handler["cycles"]["cycles_total"] == account.cycles_total
        assert handler["sandbox"]["added_insns"] > 0
        assert stats["rx_interrupts"] >= 3
        assert "metrics" in stats and "spans" in stats

        tel = tb.server.telemetry
        name = entry.program.name
        assert tel.registry.value("ash.invocations", handler=name) == 3
        assert (tel.registry.value("ash.cycles_total", handler=name)
                == account.cycles_total)
        hist = tel.registry.value("ash.cycles", handler=name)
        assert hist.count == 3
        # the sandbox-check overhead estimate is nonzero and below total
        overhead = tel.registry.value(
            "ash.sandbox_overhead_cycles_est", handler=name
        )
        assert 0 < overhead < account.cycles_total
        # spans on the ASH path finish with the "ash" outcome
        outcomes = {s.outcome for s in tel.spans.spans if s.finished}
        assert "ash" in outcomes
        # the reply transmit is tagged onto the request's span
        ash_spans = [s for s in tel.spans.spans if s.outcome == "ash"]
        assert any("nic_tx" in s.stage_names() for s in ash_spans)


# ---------------------------------------------------------------------------
# DILP pipe-fusion accounting
# ---------------------------------------------------------------------------

class TestDilpAccounting:
    def test_fusion_savings_metrics(self):
        from repro.hw.memory import PhysicalMemory
        from repro.pipes import (
            PIPE_WRITE,
            compile_pl,
            mk_byteswap_pipe,
            mk_cksum_pipe,
            pipel,
        )

        pl = pipel(name="t")
        mk_cksum_pipe(pl)
        mk_byteswap_pipe(pl)
        pipeline = compile_pl(pl, PIPE_WRITE)
        engine = Engine()
        tel = Telemetry(engine, source="n", enabled=True)
        pipeline.telemetry = tel

        mem = PhysicalMemory(1 << 20)
        src = mem.alloc("src", 4096)
        dst = mem.alloc("dst", 4096)
        mem.write(src.base, bytes(range(256)) * 4)
        cycles = pipeline.run_fast(mem, src.base, dst.base, 1024)

        loop = pipeline.program.name
        assert tel.registry.value("dilp.runs", loop=loop) == 1
        assert tel.registry.value("dilp.bytes", loop=loop) == 1024
        assert tel.registry.value("dilp.cycles", loop=loop) == cycles
        saved = tel.registry.value("dilp.saved_cycles", loop=loop)
        # two fused pipes share one traversal: saved = 1x the scaffold
        assert saved == pipeline.overhead_cycles(1024)
        assert 0 < pipeline.overhead_cycles(1024) < pipeline.loop_cycles(1024)
        # a single-pipe (or empty) list fuses nothing
        solo = compile_pl(pipel(name="solo"), PIPE_WRITE)
        assert solo.fusion_saved_cycles(1024) == 0


# ---------------------------------------------------------------------------
# export + schema validation
# ---------------------------------------------------------------------------

class TestExport:
    def test_metrics_and_chrome_exports_validate(self):
        checker = _load("check_metrics_schema")
        with telemetry.session() as sess:
            udp_pingpong(iters=1, warmup=0)
        metrics_doc = sess.export_metrics()
        chrome_doc = sess.export_chrome()

        assert metrics_doc["schema"] == SCHEMA
        assert metrics_doc["version"] == SCHEMA_VERSION
        assert checker.validate_metrics(metrics_doc) == []

        assert chrome_doc["schema"] == CHROME_SCHEMA
        assert checker.validate_chrome(chrome_doc) == []
        phases = {e["ph"] for e in chrome_doc["traceEvents"]}
        assert "X" in phases and "M" in phases
        # every node became a named process
        proc_names = {
            e["args"]["name"] for e in chrome_doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert {"server", "client"} <= proc_names

    def test_schema_checker_rejects_garbage(self):
        checker = _load("check_metrics_schema")
        assert checker.validate_metrics({"schema": "nope"})
        assert checker.validate_chrome({"schema": "nope"})
        bad = {
            "schema": SCHEMA, "version": SCHEMA_VERSION,
            "nodes": [{"source": 3}],
        }
        assert checker.validate_metrics(bad)

    def test_format_table_renders(self):
        with telemetry.session() as sess:
            udp_pingpong(iters=1, warmup=0)
        text = sess.telemetries[0].format_table()
        assert "telemetry[" in text
        assert "spans:" in text


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestDeterminism:
    def test_identical_runs_export_identical_snapshots(self):
        docs = []
        for _ in range(2):
            with telemetry.session() as sess:
                udp_pingpong(iters=1, warmup=0)
            docs.append(json.dumps(sess.export_metrics(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_telemetry_does_not_change_results(self):
        baseline = udp_pingpong(iters=2, warmup=1)
        with telemetry.session():
            traced = udp_pingpong(iters=2, warmup=1)
        assert traced == baseline


# ---------------------------------------------------------------------------
# run-wide session plumbing
# ---------------------------------------------------------------------------

class TestSession:
    def test_session_scopes_the_default(self):
        engine = Engine()
        with telemetry.session() as sess:
            inside = Telemetry(engine, source="inside")
        outside = Telemetry(engine, source="outside")
        assert inside.enabled
        assert not outside.enabled
        assert [t.source for t in sess.telemetries] == ["inside"]

    def test_disabled_session_is_a_no_op(self):
        engine = Engine()
        with telemetry.session(enabled=False) as sess:
            tel = Telemetry(engine, source="n")
        assert not tel.enabled
        assert sess.telemetries == []


# ---------------------------------------------------------------------------
# histogram mechanics, span retention, mid-run enable flips
# ---------------------------------------------------------------------------

class TestHistogramBuckets:
    def test_bisect_bucketing_matches_upper_bound_semantics(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(1, 10, 100))
        for v in (0.5, 1, 1.01, 10, 99, 100, 100.01, 5000):
            h.observe(v)
        # bounds are upper-inclusive; past the last bound -> overflow
        assert h.counts == [2, 2, 2, 2]

    def test_exported_shape_has_explicit_inf_overflow(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(1, 10, 100))
        h.observe(12345)
        data = h.snapshot()
        assert data["buckets"] == [1, 10, 100, float("inf")]
        assert len(data["buckets"]) == len(data["counts"])
        assert data["counts"][-1] == 1

    def test_quantiles_from_snapshot(self):
        from repro.telemetry import LOG2_US_BUCKETS, hist_quantile

        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=LOG2_US_BUCKETS)
        for v in range(1, 101):  # 1..100 us, uniform
            h.observe(float(v))
        data = h.snapshot()
        assert hist_quantile(data, 0.5) == 64.0      # 2^6 covers 33..64
        assert hist_quantile(data, 0.99) == 128.0
        assert h.quantile(0.5) == 64.0
        assert hist_quantile({"count": 0, "buckets": [], "counts": [],
                              "max": 0}, 0.5) == 0.0

    def test_overflow_quantile_reports_observed_max(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(1, 2))
        h.observe(500.0)
        assert h.quantile(0.5) == 500.0  # +inf bucket -> recorded max


class TestSpanRetention:
    def test_max_retained_keeps_oldest_drops_newest(self, monkeypatch):
        """The retention policy is retain-first/drop-newest: the spans
        list is the *head* of the run, later spans only bump counters.
        (Head retention keeps startup behaviour — the part that never
        re-occurs — while steady state is summarized by histograms.)"""
        from repro.telemetry import spans as spans_mod

        monkeypatch.setattr(spans_mod, "MAX_RETAINED", 3)
        tel = Telemetry(Engine(), source="n", enabled=True)
        tracker = tel.spans
        for i in range(5):
            span = tracker.begin(f"s{i}", i)
            tracker.finish(span, i + 1)
        assert [s.name for s in tracker.spans] == ["s0", "s1", "s2"]
        assert tracker.dropped == 2
        assert tracker.finished == 5  # counting never stops
        snap = tracker.snapshot()
        assert snap["created"] == 5 and snap["dropped"] == 2

    def test_tx_flow_retention_mirrors_span_policy(self, monkeypatch):
        from repro.telemetry import spans as spans_mod

        monkeypatch.setattr(spans_mod, "MAX_RETAINED", 2)
        tel = Telemetry(Engine(), source="n", enabled=True)
        tracker = tel.spans
        for i in range(4):
            tracker.note_tx_flow(trace_id=i + 1, t=i)
        assert tracker.tx_flows == [(1, 0), (2, 1)]
        assert tracker.dropped == 2


class TestEnableFlipMidRun:
    def test_cached_instruments_survive_disable_enable(self):
        """Call sites cache instruments at setup; flipping the shared
        ``enabled`` flag must stop/resume recording through those same
        objects without invalidating them."""
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("rx")
        g = reg.gauge("depth")
        h = reg.histogram("lat", buckets=(1, 10))
        c.inc(2); g.set(5); h.observe(3)

        reg.enabled = False
        c.inc(100); g.set(100); h.observe(100)
        assert c.value == 2 and g.value == 5
        assert h.count == 1

        reg.enabled = True
        c.inc(); g.add(1); h.observe(0.5)
        assert c.value == 3 and g.value == 6
        assert h.count == 2 and h.counts[0] == 1
        # the registry still hands back the very same objects
        assert reg.counter("rx") is c
        assert reg.histogram("lat") is h

    def test_hub_flip_gates_flows_and_flight_recorder(self):
        tel = Telemetry(Engine(), source="n", enabled=True)
        stats = tel.slo.flow((1, 2, 3, 4))
        stats.goodput(10)
        tel.flight.record("tick", 1)
        tel.disable()
        stats.goodput(100)          # same cached FlowStats object
        tel.flight.record("tick", 2)
        tel.enable()
        stats.goodput(1)
        tel.flight.record("tick", 3)
        assert tel.registry.value(
            "flow.goodput_bytes", flow=stats.label) == 11
        assert [e["t"] for e in tel.flight.events] == [1, 3]

    def test_hub_toggle_keeps_metrics_and_spans_in_step(self):
        """``Telemetry.enabled`` is a plain attribute: ``enable`` and
        ``disable`` move it with the registry's flag, so the metrics
        (gated by the registry) and the spans (gated by the hub) record
        over the same stretches."""
        tel = Telemetry(Engine(), source="n", enabled=False)
        counter = tel.registry.counter("rx")

        def one_of_each(t):
            counter.inc()
            span = tel.spans.begin("rx", t)
            tel.spans.finish(span, t + 1000)

        for t, (state, flip) in enumerate((
                (False, tel.enable), (True, tel.disable),
                (False, tel.enable), (True, None))):
            assert tel.enabled is tel.registry.enabled is state
            one_of_each(t * 10_000)
            if flip is not None:
                flip()
        assert counter.value == 2
        assert tel.registry.histogram("span.duration_us").count == 2
        assert [e["kind"] for e in tel.flight.events] == ["span", "span"]


class TestMergeSkew:
    def test_merge_rejects_schema_version_skew(self):
        from repro.telemetry.export import merge_snapshots

        engine = Engine()
        good = Telemetry(engine, source="a", enabled=True).snapshot()
        stale = Telemetry(engine, source="b", enabled=True).snapshot()
        stale["version"] = 99
        merge_snapshots([good])  # same-version merge is fine
        with pytest.raises(ValueError) as exc:
            merge_snapshots([good, stale])
        # the error names the offending node and both versions
        assert "node[1]" in str(exc.value) and "'b'" in str(exc.value)
        assert "v99" in str(exc.value)

    def test_merge_rejects_foreign_schema(self):
        from repro.telemetry.export import merge_snapshots

        alien = {"schema": "someone-elses", "version": SCHEMA_VERSION}
        with pytest.raises(ValueError, match="schema-version skew"):
            merge_snapshots([alien])
