"""The benchmark's metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root lists the same names; the test
in this directory fails when the two drift apart.

Two clocks.  *Simulated* statistics (``exact=True``) are pure functions
of the model and the seed: two runs of one commit and one seed must agree
to the last digit, and ``compare.py`` treats any movement as a model
change.  *Host* statistics are reference-speed seconds (see ``calib.py``)
or MiB and are compared against their bound.

The driver gates the eight ``END_TO_END`` metrics, which every workload
reports and which are never 0.  It measures each run on another seed and
wants the spread over ten seeds inside the bound, so a simulated
statistic's bound here is three times the widest spread ten seeds gave it
(README.md has the table), not the issue's 0: 0 is what ``compare.py``
applies between two files of one seed.  The issue's three other
end-to-end figures cannot be gated as a ratio to the parent's median:
``failed_ops_ratio`` is 0 on a correct program (the driver gates the
``failed`` count itself) and the two ``paper_err_*`` exist on
``paper_tables`` only (there a cell further than
``worlds.PAPER_TOLERANCE_PCT`` from the paper counts into ``failed``).
They keep their names in the per-layer set, 0 where a workload has no
such figure, and ``run.py`` prints them beside the gated ones.
"""

from __future__ import annotations

from layers import LAYERS, OTHER

#: name -> (unit, better, bound, exact)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25, False),
    "run_s": ("s", "lower", 0.20, False),
    "peak_rss_mib": ("MiB", "lower", 0.05, False),
    "sim_elapsed_us": ("sim_us", "lower", 0.01, True),
    "sim_op_us_p50": ("sim_us", "lower", 0.01, True),
    "sim_op_us_p99": ("sim_us", "lower", 0.05, True),
    "sim_goodput_mbps": ("Mb/s", "higher", 0.01, True),
    "events_per_packet": ("count", "lower", 0.002, True),
}

#: end-to-end figures the driver cannot gate (see the module docstring)
UNGATED_END_TO_END = {
    "failed_ops_ratio": ("ratio", "lower"),
    "paper_err_median_pct": ("%", "lower"),
    "paper_err_max_pct": ("%", "lower"),
}

#: the issue's table order, for the human report
REPORT_ORDER = (
    "setup_s", "run_s", "peak_rss_mib", "sim_elapsed_us", "sim_op_us_p50",
    "sim_op_us_p99", "sim_goodput_mbps", "events_per_packet",
    "failed_ops_ratio", "paper_err_median_pct", "paper_err_max_pct",
)

PROBES = {
    "sim.engine.timer_ns_per_event": ("ns", "lower"),
    "sim.engine.resume_ns_per_event": ("ns", "lower"),
    "sim.engine.legacy_over_fast": ("ratio", "higher"),
    "sim.queues.calendar_push_pop_ns_occ100": ("ns", "lower"),
    "sim.queues.calendar_push_pop_ns_occ1k": ("ns", "lower"),
    "sim.queues.calendar_cancel_ns": ("ns", "lower"),
    "sim.queues.heap_push_pop_ns_occ1k": ("ns", "lower"),
    "sim.faults.link_hook_ns_per_frame": ("ns", "lower"),
    "hw.memory.construct_ms_16mib": ("ms", "lower"),
    "hw.memory.copy_range_ns_per_kib": ("ns", "lower"),
    "hw.cache.touch_range_ns_per_kib": ("ns", "lower"),
    "hw.cache.load_ns": ("ns", "lower"),
    "hw.nic.rss.steer_ns_per_frame": ("ns", "lower"),
    "kernel.dpf.classify_ns_f10": ("ns", "lower"),
    "kernel.dpf.classify_ns_f1000": ("ns", "lower"),
    "kernel.dpf.insert_us": ("us", "lower"),
    "kernel.kernel.raw_deliver_us_per_frame": ("us", "lower"),
    "vcode.vm.interp_ns_per_insn": ("ns", "lower"),
    "vcode.jit.warm_ns_per_invocation": ("ns", "lower"),
    "vcode.jit.cold_translate_us": ("us", "lower"),
    "vcode.jit.warm_over_interp": ("ratio", "lower"),
    "sandbox.rewriter.sandbox_us": ("us", "lower"),
    "sandbox.verifier.verify_us": ("us", "lower"),
    "pipes.compiler.compile_us": ("us", "lower"),
    "pipes.compiler.run_vm_ns_per_kib": ("ns", "lower"),
    "pipes.compiler.run_fast_ns_per_kib": ("ns", "lower"),
    "ash.system.download_us": ("us", "lower"),
    "ash.system.rinc_host_us_per_rt": ("us", "lower"),
    "ash.tenancy.check_ns_per_frame": ("ns", "lower"),
    "net.checksum.inet_ns_per_kib_64b": ("ns", "lower"),
    "net.checksum.inet_ns_per_kib_8kib": ("ns", "lower"),
    "net.headers.pack_parse_ns": ("ns", "lower"),
    "net.tcp.segment.build_parse_ns": ("ns", "lower"),
    "net.tcp.sack.scoreboard_ns_per_ack": ("ns", "lower"),
    "net.tcp.sack.reassembly_ns_per_seg": ("ns", "lower"),
    "telemetry.metrics.counter_inc_ns": ("ns", "lower"),
    "telemetry.metrics.hist_observe_ns": ("ns", "lower"),
    "telemetry.spans.begin_finish_ns": ("ns", "lower"),
    "telemetry.on_over_off": ("ratio", "lower"),
}

HOST = {
    "host.calib_s": ("s", "lower"),
    "host.calib_cv": ("ratio", "lower"),
    "host.setup_wall_s": ("s", "lower"),
    "host.run_wall_s": ("s", "lower"),
    "host.events_per_s": ("1/s", "higher"),
    "host.packets_per_s": ("1/s", "higher"),
}

#: exact model counts per workload.  ``higher`` marks the three that show
#: a plane or a handler really ran; a drop to 0 there is the bad direction.
COUNTS = {
    "sim.engine.events_fired": ("count", "lower"),
    "sim.engine.cancelled": ("count", "lower"),
    "sim.queues.overflow_spills": ("count", "lower"),
    "sim.queues.peak_pending": ("count", "lower"),
    "hw.nic.rx_frames": ("count", "lower"),
    "hw.nic.rx_dropped": ("count", "lower"),
    "hw.nic.pktbuf_peak": ("count", "lower"),
    "hw.cache.miss_ratio": ("ratio", "lower"),
    "kernel.kernel.rx_interrupts": ("count", "lower"),
    "kernel.kernel.ash_abort_fallbacks": ("count", "lower"),
    "kernel.scheduler.context_switches": ("count", "lower"),
    "ash.system.invocations": ("count", "higher"),
    "vcode.jit.translations": ("count", "lower"),
    "net.tcp.retransmits": ("count", "lower"),
    "net.tcp.fast_recoveries": ("count", "lower"),
    "sim.faults.injected": ("count", "higher"),
    "ash.tenancy.clipped_frames": ("count", "higher"),
}

TRACE = {
    **{f"trace.{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    **{f"trace.{layer}.self_us_per_packet": ("us", "lower")
       for layer in LAYERS},
    f"trace.{OTHER}.self_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

PER_LAYER = {**UNGATED_END_TO_END, **PROBES, **HOST, **COUNTS, **TRACE}

#: ``host.calib_cv`` above this: the box was too unsteady for the run's
#: host seconds to be read as pass or fail
CALIB_CV_LIMIT = 0.25


def benchmark_json() -> dict:
    """The ``end_to_end`` / ``per_layer`` sections BENCHMARK.json must carry."""
    return {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _exact) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
