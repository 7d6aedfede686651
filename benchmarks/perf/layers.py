"""Fold a cProfile run into per-layer self time.

A layer is a module (or package) under ``src/repro/``.  Every profiled
function's self time goes to exactly one bucket:

* a function defined under ``repro/`` -> the layer of its module;
* anything else (builtins, stdlib, numpy, the workload closures in this
  directory) -> the nearest ``repro`` caller, found by walking the
  profiler's callers table upwards and splitting a callee's self time
  in proportion to the time it spent under each caller;
* what reaches the profile root without meeting a ``repro`` frame ->
  ``other``.

So the buckets sum to the profiled total exactly (up to float rounding).
"""

from __future__ import annotations

import os

#: the layers reported as ``trace.<layer>.*``, most specific prefix first
LAYERS = (
    "sim.engine", "sim.queues", "sim.faults",
    "hw.cpu", "hw.cache", "hw.memory", "hw.link", "hw.nic",
    "kernel.kernel", "kernel.process", "kernel.scheduler", "kernel.dpf",
    "kernel.upcall",
    "vcode", "sandbox", "pipes", "ash",
    "net.tcp", "net", "telemetry",
)
OTHER = "other"


def layer_of(filename: str) -> str | None:
    """Layer of a source file, or None when it is not under ``repro/``."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    mod = parts[idx + 1:]
    if not mod:
        return OTHER
    mod[-1] = mod[-1].removesuffix(".py")
    dotted = ".".join(m for m in mod if m != "__init__")
    for layer in LAYERS:
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    return OTHER   # repro.bench, repro.apps, repro.errors, ...


def fold(stats: dict) -> tuple[dict[str, float], float]:
    """``pstats.Stats(...).stats`` -> ({layer: self seconds}, total).

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers[(file, line, name)] = (cc, nc, tt, ct)``.
    """
    own: dict[tuple, str | None] = {f: layer_of(f[0]) for f in stats}
    memo: dict[tuple, dict[str, float]] = {}

    def shares(func) -> dict[str, float]:
        """How one second spent under ``func`` splits over layers: its
        own layer if it has one, else its callers' shares weighted by
        the time it spent under each."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {}      # in progress: a call cycle contributes nothing
        out: dict[str, float] = {}
        callers = stats[func][4] if func in stats else {}
        weight = 0.0
        for caller, v in callers.items():
            up = shares(caller)
            if not up:
                continue
            w = v[2] if v[2] > 0.0 else 1e-12
            weight += w
            for name, frac in up.items():
                out[name] = out.get(name, 0.0) + frac * w
        out = ({name: v / weight for name, v in out.items()} if weight
               else {OTHER: 1.0})
        memo[func] = out
        return out

    buckets = {layer: 0.0 for layer in (*LAYERS, OTHER)}
    total = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        if own[func] is not None:
            buckets[own[func]] += tt
            continue
        # split this callee's self time caller by caller, so a builtin
        # used by two layers is charged to each for its own calls
        timed = sum(v[2] for v in callers.values())
        if timed <= 0.0:
            buckets[OTHER] += tt
            continue
        for caller, v in callers.items():
            part = tt * v[2] / timed
            for name, frac in (shares(caller) or {OTHER: 1.0}).items():
                buckets[name] += part * frac
    return buckets, total
