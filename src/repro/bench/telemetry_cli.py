"""Standalone benchmark entry points with telemetry sidecars.

Every ``benchmarks/bench_*.py`` file can be run directly::

    PYTHONPATH=src python benchmarks/bench_table1_raw_latency.py
    PYTHONPATH=src python benchmarks/bench_table1_raw_latency.py --trace

Without flags the experiment runs exactly as under pytest (telemetry
stays off, numbers are bit-identical).  With ``--trace`` the whole run
executes inside a telemetry session and deterministic sidecars land
next to the results JSON:

* ``<name>.telemetry.json`` — the multi-node metrics/spans snapshot
  (``repro-telemetry`` schema; ``benchmarks/check_metrics_schema.py``
  validates it, and refuses a metric ``telemetry.metrics.DECLARED``
  does not name),
* ``<name>.trace.json`` — Chrome ``trace_event`` output for
  ``chrome://tracing`` / Perfetto, with cross-node flow events,
* ``<name>.postmortem.json`` — only when a flight recorder dumped
  (kernel crash, involuntary ASH abort, ProtocolError): the bundle of
  post-mortems (``repro-flightrec-bundle`` schema).

``--metrics-out PATH`` / ``--trace-out PATH`` redirect the metrics and
Chrome-trace sidecars respectively (either implies ``--trace``).
"""

from __future__ import annotations

import argparse
import os
from typing import Callable, Optional

from .. import telemetry
from .results import BenchTable, results_dir

__all__ = ["bench_main", "write_sidecars", "write_postmortems"]


def write_sidecars(
    sess: "telemetry.Session",
    name: str,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
) -> tuple[str, str]:
    """Write the metrics + Chrome-trace sidecars for a finished session.

    Returns the two paths.  Span event lists are elided from the metrics
    sidecar (the Chrome trace carries the full timelines) so the file
    stays reviewable.
    """
    metrics_path = metrics_out or os.path.join(
        results_dir(), f"{name}.telemetry.json"
    )
    trace_path = trace_out or os.path.join(
        results_dir(), f"{name}.trace.json"
    )
    telemetry.write_json(
        metrics_path, sess.export_metrics(include_span_events=False)
    )
    telemetry.write_json(trace_path, sess.export_chrome())
    return metrics_path, trace_path


def write_postmortems(
    sess: "telemetry.Session", name: str, out: Optional[str] = None
) -> Optional[str]:
    """Bundle every flight-recorder dump into one sidecar.

    Returns the path, or None when nothing was dumped (the common,
    healthy case — no file is written).
    """
    postmortems = sess.export_postmortems()
    if not postmortems:
        return None
    path = out or os.path.join(results_dir(), f"{name}.postmortem.json")
    telemetry.write_json(path, {
        "schema": telemetry.FLIGHT_BUNDLE_SCHEMA,
        "version": telemetry.FLIGHT_SCHEMA_VERSION,
        "postmortems": postmortems,
    })
    return path


def bench_main(run_fn: Callable[[], BenchTable]) -> BenchTable:
    """Run one table-producing experiment from the command line."""
    parser = argparse.ArgumentParser(
        description=run_fn.__doc__ or "run one reproduction benchmark"
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="run with telemetry enabled and write metrics/trace sidecars",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="where to write the metrics sidecar (implies --trace)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="where to write the Chrome-trace sidecar (implies --trace)",
    )
    args = parser.parse_args()
    want = (args.trace or args.metrics_out is not None
            or args.trace_out is not None)

    with telemetry.session(enabled=want) as sess:
        table = run_fn()
    print(table.format())
    table.save()
    if want:
        metrics_path, trace_path = write_sidecars(
            sess, table.name, args.metrics_out, args.trace_out
        )
        print(f"telemetry: {metrics_path}")
        print(f"trace:     {trace_path}")
        pm_path = write_postmortems(sess, table.name)
        if pm_path is not None:
            print(f"postmortem: {pm_path}")
    return table
