"""The metrics registry: counters, gauges and fixed-bucket histograms.

Stdlib-only and deterministic.  **Totals are collected, events are
pushed** (DESIGN.md §6): a component that already counts something in
a ledger of its own (``nic.rx_frames``, ``pool.acquired``) registers a
*collector* once (:meth:`MetricsRegistry.add_collector`) and the
registry reads the ledger when somebody looks — nothing runs per
message, enabled or not.  What no ledger can reproduce (histogram
observations, spans, per-flow SLO counters) is pushed through an
instrument; every instrument shares its registry's ``enabled`` flag, so
a disabled ``inc()`` is one attribute load and one branch.  Instruments
are identified by ``(name, labels)`` — repeated lookups return the same
object, so a hot pushing path should bind the instrument once at setup
time and skip the dictionary lookup.

Snapshots are plain JSON-serializable dicts with deterministic ordering
(sorted by name, then label tuple): two identical simulation runs
produce byte-identical snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "US_BUCKETS",
    "CYCLE_BUCKETS",
    "BYTE_BUCKETS",
    "LOG2_US_BUCKETS",
    "hist_quantile",
]

#: default buckets for microsecond latencies (upper bounds; +inf implied)
US_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

#: default buckets for per-invocation CPU cycle counts
CYCLE_BUCKETS: tuple[float, ...] = (
    25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000,
)

#: default buckets for byte counts (message/copy sizes)
BYTE_BUCKETS: tuple[float, ...] = (
    16, 64, 256, 1024, 1500, 4096, 8192, 16384, 65536,
)

#: deterministic log2 buckets for per-flow latencies (1us .. ~1s); the
#: fixed geometric ladder makes p50/p99/p999 derivable from any
#: snapshot with bounded relative error, independent of the workload
LOG2_US_BUCKETS: tuple[float, ...] = tuple(float(1 << i) for i in range(21))


def hist_quantile(data: dict, q: float) -> float:
    """Estimate the ``q``-quantile from a histogram snapshot dict.

    Works on the exported shape (``buckets`` ends with ``+inf``): the
    answer is the upper bound of the bucket where the cumulative count
    crosses ``q * count`` (the recorded ``max`` for the overflow
    bucket), so it is an upper-bound estimate with one-bucket
    resolution.  Returns 0.0 for an empty histogram.
    """
    total = data["count"]
    if not total:
        return 0.0
    need = q * total
    cum = 0
    for bound, n in zip(data["buckets"], data["counts"]):
        cum += n
        if cum >= need and n:
            return data["max"] if bound == float("inf") else bound
    return data["max"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Instrument:
    __slots__ = ("registry", "name", "labels")

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: dict):
        self.registry = registry
        self.name = name
        self.labels = labels

    def _data(self) -> dict:
        raise NotImplementedError

    def snapshot(self) -> dict:
        out = {"name": self.name, "labels": dict(self.labels)}
        out.update(self._data())
        return out


class Counter(_Instrument):
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if self.registry.enabled:
            self.value += n

    def _data(self) -> dict:
        return {"value": self.value}


class Gauge(_Instrument):
    """A value that can go up and down (last-write-wins)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.value = 0

    def set(self, v) -> None:
        if self.registry.enabled:
            self.value = v

    def add(self, n=1) -> None:
        if self.registry.enabled:
            self.value += n

    def _data(self) -> dict:
        return {"value": self.value}


class Histogram(_Instrument):
    """A fixed-bucket histogram (cumulative-free, one count per bucket).

    ``buckets`` are upper bounds; observations beyond the last bound
    land in the implicit overflow bucket.  ``sum``/``count``/``max``
    ride along so means fall out without re-deriving.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "max")

    kind = "histogram"

    def __init__(self, registry, name, labels,
                 buckets: Sequence[float] = US_BUCKETS):
        super().__init__(registry, name, labels)
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0
        self.count = 0
        self.max = 0

    def observe(self, v) -> None:
        if not self.registry.enabled:
            return
        # bisect_left finds the first bound >= v: same bucket the old
        # linear scan picked, in O(log n); past-the-end is the overflow
        self.counts[bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (see hist_quantile)."""
        return hist_quantile(self._data(), q)

    def _data(self) -> dict:
        # the overflow bucket is explicit: the exported bounds end with
        # +inf and len(buckets) == len(counts), so consumers never have
        # to special-case a trailing implicit bucket
        return {
            "buckets": list(self.buckets) + [float("inf")],
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "max": self.max,
        }


class MetricsRegistry:
    """Per-node instrument store.

    The ``enabled`` flag is shared by reference with every instrument;
    flipping it turns the whole registry on or off without invalidating
    instruments call sites may have cached.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[tuple, _Instrument] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get(self, cls, name: str, labels: dict, **kwargs):
        key = (cls.kind, name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(self, name, labels, **kwargs)
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- collected totals ---------------------------------------------------
    def add_collector(self, collector: Callable) -> None:
        """Register ``collector(registry)``: called by :meth:`snapshot`
        and :meth:`value`, iff the registry is enabled then, to write
        its component's ledger totals with :meth:`total` / ``gauge(...)
        .set``.  It must not call ``kernel.stats()``, which embeds the
        snapshot."""
        self._collectors.append(collector)

    def total(self, name: str, value: int, **labels) -> None:
        """A collector's counter write: the ledger's total, whole.  A
        total still at zero has no sample, as a counter nobody has
        incremented yet has none."""
        if value:
            self.counter(name, **labels).value = value

    def _collect(self) -> None:
        if self.enabled:
            for collector in self._collectors:
                collector(self)

    def snapshot(self) -> dict:
        """Deterministic dump: kind -> sorted list of instrument dicts."""
        self._collect()
        out: dict[str, list] = {"counters": [], "gauges": [], "histograms": []}
        plural = {"counter": "counters", "gauge": "gauges",
                  "histogram": "histograms"}
        for key in sorted(self._instruments):
            inst = self._instruments[key]
            out[plural[inst.kind]].append(inst.snapshot())
        return out

    def value(self, name: str, **labels):
        """Convenience lookup for tests: the instrument's current value."""
        self._collect()
        for kind in ("counter", "gauge"):
            inst = self._instruments.get((kind, name, _label_key(labels)))
            if inst is not None:
                return inst.value
        inst = self._instruments.get(("histogram", name, _label_key(labels)))
        if inst is not None:
            return inst
        raise KeyError(f"no instrument {name!r} with labels {labels!r}")
