"""Tier-1 census: every metric is declared once, emitted, and read.

``repro.telemetry.metrics.DECLARED`` maps each metric to its export
block.  A source scan in the style of ``tests/test_one_definition.py``:

1. every ``counter/gauge/histogram(`` call and collector ``total(``
   write under ``src/`` names a string literal declared under that kind;
2. every declared name is emitted somewhere under ``src/``;
3. every declared name is read by ``tests/`` (not ``goldens.json`` or
   this file), ``benchmarks/`` (not the schema checker), ``examples/``,
   README.md, DESIGN.md or EXPERIMENTS.md;
4. one ledger per fact: no attribute ``+=`` followed within three
   statements by a counter ``.inc()`` (bare or under an ``if`` guard).
   Keep the attribute and export it from a collector; the survivors are
   :data:`MIRRORS_KEPT`, each with the reason it cannot be collected.
"""

import ast
import glob
import importlib.util
import os
import re

from repro.telemetry.metrics import DECLARED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: emitting method -> the export block its metric lands in
EMITTERS = {"counter": "counters", "gauge": "gauges",
            "histogram": "histograms", "total": "counters"}

#: where a declared metric counts as read (rule 3)
READERS = ("tests/**/*.py", "benchmarks/**/*.py", "examples/**/*.py",
           "README.md", "DESIGN.md", "EXPERIMENTS.md")
NOT_READERS = {"benchmarks/check_metrics_schema.py",
               "tests/test_metrics_lint.py"}

#: (file under src/, function) -> why the attribute it ``+=``-increments
#: beside a pushed counter cannot be collected instead
MIRRORS_KEPT = {
    ("repro/vcode/jit.py", "get_compiled"):
        "JitStats is process-wide, vcode.jit.* is per node",
    ("repro/kernel/upcall.py", "dispatch"):
        "UpcallHandler is an application object keyed by nothing: several "
        "may share the name upcall.*{handler} is labelled with",
    ("repro/kernel/kernel.py", "_note_delivery"):
        "the ledger is one int, degradation.order_violations is labelled "
        "by outcome and skipped level (and must stay 0)",
    ("repro/ash/liveops.py", "_swap"):
        "one RolloutController per rollout, liveops.swaps is per node",
}


def _load(name):
    """Import ``benchmarks/<name>.py`` as a module."""
    path = os.path.join(ROOT, "benchmarks", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def emits(tree):
    """``(line, block, name or None)`` of every emitting call, in line
    order; the name is None unless it is a string literal.  The emitters
    themselves forward their ``name`` parameter and are not emit sites."""
    skip = {id(call) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in EMITTERS
            for call in ast.walk(fn)}
    for call in sorted((node for node in ast.walk(tree)
                        if isinstance(node, ast.Call) and id(node) not in skip
                        and getattr(node.func, "attr", None) in EMITTERS),
                       key=lambda call: call.lineno):
        arg = call.args[0] if call.args else None
        literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        yield (call.lineno, EMITTERS[call.func.attr],
               arg.value if literal else None)


def _is_inc(stmt):
    call = getattr(stmt, "value", None)
    return (isinstance(stmt, ast.Expr) and isinstance(call, ast.Call)
            and getattr(call.func, "attr", None) == "inc")


def _is_ledger_add(stmt):
    """``x.attr += n`` or ``x.attr[key] += n``."""
    target = getattr(stmt, "target", None)
    if isinstance(target, ast.Subscript):
        target = target.value
    return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
            and isinstance(target, ast.Attribute))


def mirrors(tree):
    """``(function, line)`` of every ledger ``+=`` that one of the next
    three statements in its block mirrors into a counter ``.inc()``."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            for block in ("body", "orelse", "finalbody"):
                stmts = getattr(node, block, None)
                for i, stmt in enumerate(stmts if isinstance(stmts, list)
                                         else ()):
                    after = [inner for nxt in stmts[i + 1:i + 4]
                             for inner in (nxt.body if isinstance(nxt, ast.If)
                                           else [nxt])]
                    if _is_ledger_add(stmt) and any(map(_is_inc, after)):
                        yield func.name, stmt.lineno


def _text(root, pattern):
    for path in sorted(glob.glob(os.path.join(root, pattern), recursive=True)):
        with open(path) as fh:
            yield os.path.relpath(path, root).replace(os.sep, "/"), fh.read()


def metric_census(root=ROOT, declared=DECLARED, mirrors_kept=MIRRORS_KEPT):
    """Every breach of the four rules, as one message each."""
    errors, emitted, mirrored = [], set(), set()
    for rel, text in _text(root, "src/**/*.py"):
        tree, rel = ast.parse(text, rel), rel[len("src/"):]
        for line, block, name in emits(tree):
            where = f"src/{rel}:{line}"
            if name is None:
                errors.append(f"{where}: metric name is not a string literal")
            elif name not in declared:
                errors.append(f"{where}: {name!r} is not declared")
            elif declared[name] != block:
                errors.append(f"{where}: {name!r} emitted as {block}, "
                              f"declared as {declared[name]}")
            emitted.add(name)
        for func, line in mirrors(tree):
            mirrored.add((rel, func))
            if (rel, func) not in mirrors_kept:
                errors.append(f"src/{rel}:{line}: {func}() counts one fact "
                              f"twice: a ledger += mirrored into .inc()")
    read = "\n".join(text for pattern in READERS
                     for rel, text in _text(root, pattern)
                     if rel not in NOT_READERS)
    for name in sorted(declared):
        if name not in emitted:
            errors.append(f"{name!r} is declared but never emitted")
        if not re.search(rf"(?<![\w.]){re.escape(name)}(?!\w)", read):
            errors.append(f"{name!r} is declared but nothing reads it")
    for rel, func in sorted(set(mirrors_kept) - mirrored):
        errors.append(f"MIRRORS_KEPT entry {rel}:{func}() no longer "
                      f"mirrors anything")
    return errors


def test_source_tree_is_clean():
    assert metric_census() == []


def test_registry_covers_only_real_kinds():
    assert set(DECLARED.values()) <= set(EMITTERS.values())


def _plant(tmp_path, source, declared, read=None):
    """The census over ``src/mod.py`` holding *source*, beside a README
    naming *read* (by default every declared name)."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(source)
    (tmp_path / "README.md").write_text(" ".join(read or declared))
    return metric_census(str(tmp_path), declared, {})


def test_unregistered_call_site_is_flagged(tmp_path):
    assert _plant(tmp_path, 'tel.counter("rogue.metric", op="x").inc()\n'
                  "tel.counter(name).inc()\n", {}) == [
        "src/mod.py:1: 'rogue.metric' is not declared",
        "src/mod.py:2: metric name is not a string literal"]


def test_kind_mismatch_is_flagged(tmp_path):
    assert _plant(tmp_path, 'tel.gauge("x.depth").set(3)\n',
                  {"x.depth": "counters"}) == [
        "src/mod.py:1: 'x.depth' emitted as gauges, declared as counters"]


def test_stale_registry_entry_is_flagged(tmp_path):
    assert _plant(tmp_path, 'tel.counter("x.unread").inc()\n',
                  {"x.ghost": "counters", "x.unread": "counters"},
                  read=["x.ghost"]) == [
        "'x.ghost' is declared but never emitted",
        "'x.unread' is declared but nothing reads it"]


def test_multiline_call_site_is_seen(tmp_path):
    assert _plant(tmp_path, 'tel.counter(\n    "wrapped.metric",\n'
                  "    outcome=o).inc()\n", {}) == [
        "src/mod.py:1: 'wrapped.metric' is not declared"]


def test_unregistered_collected_total_is_flagged(tmp_path):
    """A collector's ``total(`` is an emit site like any call."""
    assert _plant(tmp_path, "def _collect(self, reg):\n"
                  '    reg.total("rogue.total", self.n, nic=self.name)\n'
                  '    reg.total("x.depth", self.depth)\n',
                  {"x.depth": "gauges"}) == [
        "src/mod.py:2: 'rogue.total' is not declared",
        "src/mod.py:3: 'x.depth' emitted as counters, declared as gauges"]


def test_mirrored_ledger_is_flagged(tmp_path):
    """One fact written twice, guarded or not; a kept survivor passes,
    and a stale MIRRORS_KEPT entry is itself an error."""
    errors = _plant(tmp_path, "def rx(self):\n    self.rx_frames += 1\n"
                    "    if tel.enabled:\n"
                    '        tel.counter("x.rx_frames").inc()\n'
                    "def steer(self, core):\n    self.steered[core] += 1\n"
                    "    self._m_steered.inc()\n"
                    "def fine(self):\n    self.rx_frames += 1\n"
                    "    self.ring.append(1)\n", {"x.rx_frames": "counters"})
    twice = "counts one fact twice: a ledger += mirrored into .inc()"
    assert errors == [f"src/mod.py:2: rx() {twice}",
                      f"src/mod.py:6: steer() {twice}"]
    kept = {("mod.py", "rx"): "", ("mod.py", "steer"): "",
            ("mod.py", "gone"): ""}
    assert metric_census(str(tmp_path), {"x.rx_frames": "counters"},
                         kept) == [
        "MIRRORS_KEPT entry mod.py:gone() no longer mirrors anything"]
