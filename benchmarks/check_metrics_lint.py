#!/usr/bin/env python3
"""Cross-check metric emitters in ``src/`` against the export schema.

Usage::

    python benchmarks/check_metrics_lint.py

An *emitter* is a pushing call site — ``counter("name")`` /
``gauge("name")`` / ``histogram("name")`` — or a collector's write of a
ledger total, ``total("name", value)`` (a counter; see
``repro.telemetry.metrics``).  Three rules, all fatal:

1. **source → registry**: every emitter in ``src/`` must name a metric
   in ``check_metrics_schema.KNOWN_METRICS`` — under the same kind.  A
   new metric that lands without a schema entry would export fine but
   never be validated, which is how inventories rot.
   :func:`lint_snapshot` applies the same rule to an exported document,
   which also reaches the names a collector builds at run time.
2. **registry → source**: every name in ``KNOWN_METRICS`` must appear
   as a string literal somewhere under ``src/``.  Entries with no
   emitter are stale schema and get deleted, not grandfathered.
3. **one ledger per fact**: an attribute ``+=`` may not be followed,
   within three statements, by a counter ``.inc()`` (bare or under an
   ``if ...enabled:`` guard) — that is one fact written twice per
   message.  Keep the attribute and export it from a collector.  The
   survivors are listed in :data:`MIRRORS_KEPT`, each with the reason
   its ledger cannot be collected.

Direction 2 matches bare literals (not call sites) on purpose: some
metrics are emitted indirectly — e.g. the tenancy collector maps its
counter keys to ``tenant.*`` names through a table — and those still
count as live.

Stdlib only; run by ``tests/test_metrics_lint.py`` as a tier-1 gate.
"""

from __future__ import annotations

import ast
import os
import re
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(_HERE), "src")

# \s* spans newlines so wrapped calls like
#   tel.counter(
#       "degradation.order_violations", ...)
# still resolve to a (kind, name) pair.
_CALL_RE = re.compile(
    r"\.(counter|gauge|histogram|total)\(\s*\"([^\"]+)\"", re.DOTALL
)

_KIND_BLOCK = {"counter": "counters", "gauge": "gauges",
               "histogram": "histograms", "total": "counters"}

#: (file under src/, function) -> why the attribute it ``+=``-increments
#: beside a pushed counter cannot be collected instead
MIRRORS_KEPT = {
    ("repro/vcode/jit.py", "get_compiled"):
        "JitStats is process-wide, vcode.jit.* is per node",
    ("repro/ash/system.py", "invoke"):
        "AshEntry counters die in Kernel.crash(), ash.*{handler} must not",
    ("repro/kernel/upcall.py", "dispatch"):
        "UpcallHandler is an application object keyed by nothing: several "
        "may share the name upcall.*{handler} is labelled with",
    ("repro/kernel/kernel.py", "_note_delivery"):
        "the ledger is one int, degradation.order_violations is labelled "
        "by outcome and skipped level (and must stay 0)",
    ("repro/ash/liveops.py", "_swap"):
        "one RolloutController per rollout, liveops.swaps is per node",
}


def _load_registry():
    sys.path.insert(0, _HERE)
    try:
        from check_metrics_schema import KNOWN_METRICS
    finally:
        sys.path.pop(0)
    return KNOWN_METRICS


def _python_files(root: str):
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                yield os.path.join(dirpath, fn)


def scan_call_sites(root: str = SRC_ROOT):
    """Yield (path, kind-block, metric-name) for every direct emitter."""
    for path in _python_files(root):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for match in _CALL_RE.finditer(text):
            kind, name = match.groups()
            yield path, _KIND_BLOCK[kind], name


def _check_name(errors, where, name, kind, registry) -> None:
    expected = registry.get(name)
    if expected is None:
        errors.append(
            f"{where}: metric {name!r} ({kind}) is not in KNOWN_METRICS — "
            f"add it to benchmarks/check_metrics_schema.py"
        )
    elif expected != kind:
        errors.append(
            f"{where}: metric {name!r} emitted as {kind}, registered as "
            f"{expected}"
        )


def lint_snapshot(metrics: dict, registry=None, where="snapshot") -> list[str]:
    """Rule 1 on a ``MetricsRegistry.snapshot()`` dict: what a run
    really exported, collected samples included."""
    registry = _load_registry() if registry is None else registry
    errors: list[str] = []
    for kind, samples in metrics.items():
        for sample in samples:
            _check_name(errors, where, sample["name"], kind, registry)
    return errors


def _is_inc(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "inc")


def _is_ledger_add(stmt: ast.stmt) -> bool:
    """``x.attr += n`` or ``x.attr[key] += n``."""
    if not (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)):
        return False
    target = stmt.target
    if isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute)


def _mirrored(stmts: list) -> list[int]:
    """Lines of the ledger ``+=`` statements in one block that one of
    the next three statements mirrors into a counter: an ``.inc()``
    call, bare or at the top of an ``if`` (the ``if tel.enabled:``
    guard)."""
    return [
        stmt.lineno for i, stmt in enumerate(stmts)
        if _is_ledger_add(stmt) and any(
            _is_inc(inner) for after in stmts[i + 1:i + 4]
            for inner in (after.body if isinstance(after, ast.If)
                          else [after]))
    ]


def scan_mirrors(root: str = SRC_ROOT):
    """Yield (path, function, line) of every mirrored ledger ``+=`` —
    the shape rule 3 forbids."""
    for path in _python_files(root):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                for block in ("body", "orelse", "finalbody"):
                    stmts = getattr(node, block, None)
                    if isinstance(stmts, list):
                        for line in _mirrored(stmts):
                            yield path, func.name, line


def lint(root: str = SRC_ROOT, registry=None, mirrors_kept=None) -> list[str]:
    """Return the list of drift errors (empty means clean)."""
    registry = _load_registry() if registry is None else registry
    if mirrors_kept is None:    # the list describes this repo's src/ only
        mirrors_kept = MIRRORS_KEPT if root == SRC_ROOT else {}
    errors: list[str] = []
    seen: set[str] = set()
    for path, kind, name in scan_call_sites(root):
        seen.add(name)
        _check_name(errors, os.path.relpath(path, os.path.dirname(SRC_ROOT)),
                    name, kind, registry)
    # direction 2: registry entries must appear as literals somewhere
    missing = {name for name in registry if name not in seen}
    if missing:
        corpus = []
        for path in _python_files(root):
            with open(path, encoding="utf-8") as fh:
                corpus.append(fh.read())
        blob = "\n".join(corpus)
        for name in sorted(missing):
            if f'"{name}"' not in blob and f"'{name}'" not in blob:
                errors.append(
                    f"KNOWN_METRICS entry {name!r} has no emitter under "
                    f"src/ — stale schema, delete it"
                )
    # rule 3: one ledger per fact
    found = set()
    for path, func, line in scan_mirrors(root):
        key = (os.path.relpath(path, root).replace(os.sep, "/"), func)
        found.add(key)
        if key not in mirrors_kept:
            errors.append(
                f"{key[0]}:{line}: {func}() counts one fact twice — an "
                f"attribute += mirrored into a counter .inc(); keep the "
                f"attribute and export it from a collector"
            )
    for key in sorted(set(mirrors_kept) - found):
        errors.append(
            f"MIRRORS_KEPT entry {key[0]}:{key[1]}() no longer mirrors "
            f"anything — delete it"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    del argv  # no options; the roots are fixed by repo layout
    errors = lint()
    if errors:
        print(f"FAIL metrics lint ({len(errors)} problems)")
        for error in errors:
            print(f"  - {error}")
        return 1
    registry = _load_registry()
    print(f"ok   metrics lint ({len(registry)} registered metrics, "
          f"all emitters accounted for, {len(MIRRORS_KEPT)} mirrors kept)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
