"""Tier-1 gate: metric emitters and the export schema cannot drift.

``benchmarks/check_metrics_lint.py`` statically cross-checks every
``counter("...")`` / ``gauge("...")`` / ``histogram("...")`` call site
and every collector's ``total("...")`` write under ``src/`` against
``check_metrics_schema.KNOWN_METRICS`` — both directions — and refuses
a ledger ``+=`` mirrored into a pushed counter.  This file runs that
lint as part of the ordinary suite and pins its detection behaviour on
synthetic trees.
"""

import importlib.util
import os


def _load(name):
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", f"{name}.py",
    )
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_source_tree_is_clean():
    """Every emitted metric is registered under the right kind, and
    every registered metric still has an emitter."""
    lint = _load("check_metrics_lint")
    assert lint.lint() == []
    assert lint.main([]) == 0


def test_registry_covers_only_real_kinds():
    schema = _load("check_metrics_schema")
    assert set(schema.KNOWN_METRICS.values()) <= {
        "counters", "gauges", "histograms"
    }


def test_unregistered_call_site_is_flagged(tmp_path):
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        'tel.counter("rogue.metric", op="x").inc()\n'
    )
    errors = lint.lint(root=str(tmp_path), registry={})
    assert len(errors) == 1
    assert "rogue.metric" in errors[0]
    assert "KNOWN_METRICS" in errors[0]


def test_kind_mismatch_is_flagged(tmp_path):
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text('tel.gauge("x.depth").set(3)\n')
    errors = lint.lint(root=str(tmp_path),
                       registry={"x.depth": "counters"})
    assert len(errors) == 1
    assert "emitted as gauges, registered as counters" in errors[0]


def test_stale_registry_entry_is_flagged(tmp_path):
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text("pass\n")
    errors = lint.lint(root=str(tmp_path),
                       registry={"ghost.metric": "counters"})
    assert len(errors) == 1
    assert "no emitter" in errors[0]


def test_indirect_emission_via_literal_satisfies_registry(tmp_path):
    """Names emitted through a variable (e.g. the tenancy collector's
    key -> ``tenant.*`` table) count as live as long as the literal
    appears somewhere in the tree."""
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        'totals = {"sim.x.fired": 3}\n'
        "for name, n in totals.items():\n"
        "    hub.counter(name).inc(n)\n"
    )
    errors = lint.lint(root=str(tmp_path),
                       registry={"sim.x.fired": "counters"})
    assert errors == []


def test_multiline_call_site_is_seen(tmp_path):
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        "tel.counter(\n"
        '    "wrapped.metric",\n'
        "    outcome=o).inc()\n"
    )
    errors = lint.lint(root=str(tmp_path), registry={})
    assert len(errors) == 1 and "wrapped.metric" in errors[0]


def test_unregistered_collected_total_is_flagged(tmp_path):
    """A collector is an emitter like any call site: unknown name and
    wrong kind fail, statically and in what a registry exports."""
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        "def _collect(self, reg):\n"
        '    reg.total("rogue.total", self.n, nic=self.name)\n'
        '    reg.total("x.depth", self.depth)\n'
    )
    errors = lint.lint(root=str(tmp_path), registry={"x.depth": "gauges"})
    assert len(errors) == 2
    assert "rogue.total" in errors[0] and "KNOWN_METRICS" in errors[0]
    assert "emitted as counters, registered as gauges" in errors[1]

    from repro.telemetry import MetricsRegistry

    reg = MetricsRegistry()
    reg.add_collector(lambda r: r.total("rogue.total", 3))
    reg.add_collector(lambda r: r.total("x.depth", 2))
    errors = lint.lint_snapshot(reg.snapshot(), registry={"x.depth": "gauges"})
    assert len(errors) == 2
    assert "rogue.total" in errors[0] and "x.depth" in errors[1]


def test_mirrored_ledger_is_flagged(tmp_path):
    """``self.n += 1`` then ``counter(...).inc()``: one fact written
    twice per message, whether or not a guard sits between them."""
    lint = _load("check_metrics_lint")
    (tmp_path / "mod.py").write_text(
        "def rx(self):\n"
        "    self.rx_frames += 1\n"
        "    tel = self.telemetry\n"
        "    if tel is not None and tel.enabled:\n"
        '        tel.counter("x.rx_frames").inc()\n'
        "def steer(self, core):\n"
        "    self.steered[core] += 1\n"
        "    self._m_steered.inc()\n"
        "def fine(self):\n"
        "    self.rx_frames += 1\n"
        "    self.ring.append(1)\n"
    )
    registry = {"x.rx_frames": "counters"}
    errors = lint.lint(root=str(tmp_path), registry=registry,
                       mirrors_kept={})
    assert len(errors) == 2
    assert "mod.py:2: rx() counts one fact twice" in errors[0]
    assert "mod.py:7: steer()" in errors[1]
    # a survivor is named with its reason; a stale name is itself an error
    kept = {("mod.py", "rx"): "why", ("mod.py", "steer"): "why"}
    assert lint.lint(root=str(tmp_path), registry=registry,
                     mirrors_kept=kept) == []
    kept["mod.py", "gone"] = "why"
    errors = lint.lint(root=str(tmp_path), registry=registry,
                       mirrors_kept=kept)
    assert len(errors) == 1 and "no longer mirrors" in errors[0]
