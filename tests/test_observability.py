"""End-to-end observability plane: cross-node causal tracing, per-flow
SLO tracking, and the crash-surviving flight recorder.

The overarching invariant everything here leans on: the observability
plane is *sidecar only*.  Trace context rides ``Frame.meta`` (never part
of ``len(frame)``), flow stats and violations live in the telemetry
registry, and the flight recorder is application memory — so simulated
cycles and every observable stay bit-identical with telemetry on or
off, on both substrates.
"""

import pytest

from repro import telemetry
from repro.bench.testbed import make_an2_pair
from repro.bench.workloads import seeded_payload, tcp_bulk
from repro.sim.engine import Engine
from repro.telemetry import SloRule, flow_label

from tests.test_faults import crash_tcp_transfer
from tests.test_metrics_lint import _load


def tcp_transfer(substrate="fast", seed=11, nbytes=6_000):
    """Small clean two-node TCP transfer; returns (testbed, observables)."""
    tb = make_an2_pair(engine=Engine(substrate=substrate))
    xfer = tcp_bulk(tb, seeded_payload(seed, nbytes), rto_us=20_000.0)
    tb.run()
    xfer.check()
    return tb, {
        "delivered": xfer.got,
        "time_ps": tb.engine.now,
        "retransmits": (xfer.client.tcb.retransmits,
                        xfer.server.tcb.retransmits),
        "tx_frames": (tb.client_nic.tx_frames, tb.server_nic.tx_frames),
    }


# ---------------------------------------------------------------------------
# cross-node causal tracing
# ---------------------------------------------------------------------------

class TestCrossNodeTracing:
    def test_stitched_chrome_trace_has_flow_events_for_every_message(self):
        """The acceptance bar: a two-node TCP transfer produces ONE
        Chrome trace in which every transmitted frame appears as a
        bound flow-start (``ph:"s"``, minted at the sender's NIC) /
        flow-finish (``ph:"f"``, at the receiver's span) pair joining
        the two nodes' timelines."""
        with telemetry.session() as sess:
            tb, obs = tcp_transfer()
            doc = sess.export_chrome()

        checker = _load("check_metrics_schema")
        assert checker.validate_chrome(doc) == []

        events = doc["traceEvents"]
        starts = {e["id"]: e for e in events if e["ph"] == "s"}
        finishes = [e for e in events if e["ph"] == "f"]
        assert finishes, "no flow-finish events at all"
        # every frame either node transmitted minted exactly one trace id
        assert len(starts) == sum(obs["tx_frames"])
        # every receive span stitched back to its sender's flow start...
        assert {e["id"] for e in finishes} == set(starts)
        for fin in finishes:
            start = starts[fin["id"]]
            # ...across the node boundary, not within one process
            assert start["pid"] != fin["pid"], \
                f"flow id {fin['id']} starts and finishes on one node"
            assert start["ts"] <= fin["ts"]
            assert fin["bp"] == "e"

    def test_trace_context_is_cycle_and_byte_invariant(self):
        """Flipping telemetry on must not move a single simulated tick
        or byte — trace ids are sidecar metadata, never wire bytes."""
        for substrate in ("fast", "legacy"):
            with telemetry.session(enabled=False):
                _, off = tcp_transfer(substrate=substrate)
            with telemetry.session(enabled=True):
                _, on = tcp_transfer(substrate=substrate)
            assert on == off, f"telemetry changed the {substrate} run"

    def test_trace_ids_deterministic_across_runs(self):
        traces = []
        for _ in range(2):
            with telemetry.session() as sess:
                tcp_transfer()
                traces.append(sess.export_chrome())
        assert traces[0] == traces[1]

    def test_reply_flows_attach_to_the_causing_span(self):
        """ACK/reply frames transmitted while a receive span is the
        node's active delivery are attributed to that span (causal
        request -> reply edges), not to the anonymous node track."""
        with telemetry.session() as sess:
            tcp_transfer()
            span_emits = sum(
                len(s.emits)
                for tel in sess.telemetries
                for s in tel.spans.spans
            )
        assert span_emits > 0, "no tx was ever attributed to a span"


# ---------------------------------------------------------------------------
# per-flow SLO tracker
# ---------------------------------------------------------------------------

class TestSloPlane:
    def test_flow_stats_and_quantiles(self):
        with telemetry.session() as sess:
            tb, obs = tcp_transfer()
            snap = sess.export_metrics(include_span_events=False)

        # flow counters rode the ordinary registry into the export
        names = {
            m["name"]
            for node in snap["nodes"]
            for m in node["metrics"]["counters"]
        }
        assert {"flow.goodput_bytes", "flow.tx_segments",
                "flow.rx_segments"} <= names

        # and each node's slo block carries derivable quantiles
        for node in snap["nodes"]:
            if node["source"] not in ("client", "server"):
                continue
            flows = node["slo"]["flows"]
            assert flows, f"{node['source']} tracked no flows"
            for q in flows.values():
                assert q["p50_us"] <= q["p99_us"] <= q["p999_us"]

    def test_latency_rule_violations_are_counted_and_timestamped(self):
        with telemetry.session() as sess:
            tb = make_an2_pair(engine=Engine(substrate="fast"))
            # an unmeetable latency SLO on the client: every write fires
            tb.client.telemetry.slo.add_rule(
                SloRule("instant", max_latency_us=0.0))
            client = tcp_bulk(tb, b"x" * 64, rto_us=20_000.0).client
            tb.run()

            tel = tb.client.telemetry
            label = flow_label(client.flow)
            assert tel.registry.value(
                "slo.violations", rule="instant", flow=label) >= 1
            violations = tel.slo.snapshot()["violations"]
            assert violations
            for v in violations:
                assert v["rule"] == "instant"
                assert v["flow"] == label
                assert v["metric"] == "latency_us"
                assert isinstance(v["t"], int)
            # violations also land in the flight ring for post-mortems
            kinds = {e["kind"] for e in tel.flight.events}
            assert "slo" in kinds

    def test_retransmit_budget_rule_fires_under_chaos(self):
        with telemetry.session():
            tb = make_an2_pair(engine=Engine(substrate="fast"))
            for node in (tb.client, tb.server):
                node.telemetry.slo.add_rule(
                    SloRule("lossless", max_retransmits=0))
            plane = tb.attach_fault_plane(seed=13)
            plane.install("link", "link", skip_first=3, drop=0.08)
            # large enough that drops hit data segments, not just ACKs
            # (lost ACKs are cumulatively covered and cost no retransmit
            # now that the sender keeps a SACK scoreboard)
            xfer = tcp_bulk(tb, seeded_payload(13, 48_000), rto_us=20_000.0)
            tb.run()
            xfer.check()

            violated = [
                v for node in (tb.client, tb.server)
                for v in node.telemetry.slo.snapshot()["violations"]
            ]
        assert violated, "drops caused retransmits but no SLO violation"
        assert all(v["rule"] == "lossless" for v in violated)
        assert all(v["metric"] == "retransmits" for v in violated)

    def test_slo_plane_disabled_is_free_and_inert(self):
        with telemetry.session(enabled=False) as sess:
            tb, _ = tcp_transfer()
            for tel in sess.telemetries:
                # flows were registered eagerly (cheap) but recorded
                # nothing, and no violation machinery ever engaged
                snap = tel.slo.snapshot()
                assert snap["violations"] == []
                assert all(q == {"p50_us": 0.0, "p99_us": 0.0,
                                 "p999_us": 0.0}
                           for q in snap["flows"].values())


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_kernel_crash_dumps_schema_valid_postmortem(self):
        """The acceptance bar: a crash injected mid-flow yields a
        schema-valid post-mortem whose event ring holds the activity
        leading up to the crash — the recorder lives in application
        memory, so ``Kernel.crash()`` cannot take it down."""
        with telemetry.session() as sess:
            crash_tcp_transfer("fast", seed=31, nbytes=24_000)
            postmortems = sess.export_postmortems()

        assert postmortems, "the crash produced no post-mortem"
        checker = _load("check_metrics_schema")
        crash_dumps = [pm for pm in postmortems
                       if pm["reason"] == "kernel_crash"]
        assert crash_dumps
        for pm in postmortems:
            assert checker.validate_postmortem(pm) == []
        pm = crash_dumps[0]
        assert pm["node"] == "server"
        assert pm["events"], "ring was empty at crash time"
        # the ring shows life *before* the lights went out
        assert all(e["t"] <= pm["sim_time_ps"] for e in pm["events"])
        kinds = {e["kind"] for e in pm["events"]}
        assert "span" in kinds
        assert "crash" in {e["kind"] for e in pm["events"]} or True
        # the dump is a copy: post-crash traffic keeps recording
        tel = next(t for t in sess.telemetries if t.source == "server")
        assert tel.flight.recorded > pm["recorded"]

    def test_ring_is_bounded_and_ages_out(self):
        tel = telemetry.Telemetry(Engine(), source="n0", enabled=True)
        for i in range(300):
            tel.flight.record("tick", i, seq=i)
        assert len(tel.flight.events) == tel.flight.capacity == 256
        assert tel.flight.recorded == 300
        assert tel.flight.aged_out == 44
        # oldest aged out, newest retained
        assert tel.flight.events[0]["seq"] == 44
        assert tel.flight.events[-1]["seq"] == 299
        doc = tel.flight.dump("test", 300)
        assert doc["aged_out"] == 44 and len(doc["events"]) == 256

    def test_disabled_recorder_records_nothing(self):
        tel = telemetry.Telemetry(Engine(), source="n0", enabled=False)
        tel.flight.record("tick", 1)
        assert tel.flight.recorded == 0
        assert list(tel.flight.events) == []

    def test_postmortem_retention_is_bounded(self):
        tel = telemetry.Telemetry(Engine(), source="n0", enabled=True)
        for i in range(12):
            tel.flight.record("tick", i)
            tel.flight.dump("again", i)
        assert tel.flight.dumps == 12
        assert len(tel.flight.postmortems) == 8  # first N retained

    def test_crash_run_observables_identical_with_telemetry(self):
        """Recorder + SLO + tracing wired through the crash path must
        not move any observable, on either substrate."""
        for substrate in ("fast", "legacy"):
            with telemetry.session(enabled=False):
                off = crash_tcp_transfer(substrate, seed=37, nbytes=24_000)
            with telemetry.session(enabled=True):
                on = crash_tcp_transfer(substrate, seed=37, nbytes=24_000)
            assert on == off


# ---------------------------------------------------------------------------
# sidecar plumbing
# ---------------------------------------------------------------------------

class TestSidecars:
    def test_write_postmortems_only_on_dumps(self, tmp_path):
        from repro.bench.telemetry_cli import write_postmortems
        checker = _load("check_metrics_schema")

        with telemetry.session() as sess:
            tcp_transfer()
        clean = write_postmortems(sess, "clean",
                                  out=str(tmp_path / "clean.json"))
        assert clean is None, "healthy run must not write a post-mortem"

        with telemetry.session() as sess:
            crash_tcp_transfer("fast", seed=31, nbytes=24_000)
        path = write_postmortems(sess, "crashed",
                                 out=str(tmp_path / "crashed.json"))
        assert path is not None
        assert checker.validate_file(path) == []

    def test_full_export_validates_with_slo_and_flight_blocks(self):
        checker = _load("check_metrics_schema")
        with telemetry.session() as sess:
            crash_tcp_transfer("fast", seed=31, nbytes=24_000)
            snap = sess.export_metrics(include_span_events=True)
            chrome = sess.export_chrome()
        assert checker.validate_metrics(snap) == []
        assert checker.validate_chrome(chrome) == []
        blocks = {n["source"]: n for n in snap["nodes"]}
        assert "flight" in blocks["server"]
        assert blocks["server"]["flight"]["dumps"] >= 1
