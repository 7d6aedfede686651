"""Every pinned value equals what the code computes today.

One test per producer of ``tests/goldens.py``; a failure names each
leaf that moved, old -> new.  The exit matrix's digests and ``fired``
counts are checked apart, in ``tests/test_exit_matrix.py``.  Re-pin a
deliberate move with ``PYTHONPATH=src python -m tests.goldens write``
and commit the table it prints.
"""

import os
import subprocess
import sys

import pytest

from tests import goldens

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "name", [name for name in goldens.PRODUCERS if name != "exit_matrix"])
def test_golden(name):
    rows = goldens.moved(name, goldens.load())
    assert not rows, "leaves moved:\n" + goldens.table(rows)


def test_results_do_not_depend_on_the_hash_seed():
    """Digests, counts and both canonical sidecars are the same under
    two hash seeds: nothing iterates a set or a dict keyed by strings in
    an order the seed decides.  The two processes run side by side."""
    names = ["exit_matrix", "canonical",
             *(f"{kind}/{world}" for kind in ("telemetry", "lookups")
               for world in goldens.matrix.TELEMETRY_WORLDS)]
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    procs = {seed: subprocess.Popen(
        [sys.executable, "-m", "tests.goldens", *names], cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for seed in ("0", "12345")}
    for seed, proc in procs.items():
        out = proc.communicate(timeout=300)[0]
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out}"
