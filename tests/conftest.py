"""Fixtures shared by more than one test module."""

import json

import pytest


@pytest.fixture(scope="session")
def regenerated_planes(tmp_path_factory):
    """``bench_planes.py``'s full grid through its real command line,
    once per session (its 100-node sweep takes a minute): ``(exit code,
    document)``.  Tier 1 runs the ``--quick`` round trip
    (``tests/test_sweep_driver.py``)."""
    from repro.bench.results import plane_main
    from tests.test_metrics_lint import _load

    planes = _load("bench_planes")
    out = tmp_path_factory.mktemp("planes") / "fresh.json"

    code = plane_main("planes", planes.bench, planes.GATES,
                      argv=["--out", str(out)])
    with open(out) as fh:
        return code, json.load(fh)
