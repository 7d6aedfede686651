"""DPF: dynamic packet filters compiled at insert time.

Section IV-A: "The Aegis implementation of the packet filter engine,
DPF, uses dynamic code generation ... eliminating interpretation
overhead by compiling packet filters to executable code when they are
installed into the kernel, and by using filter constants to aggressively
optimize this executable code.  DPF is an order of magnitude faster than
the highest performance packet filter engines in the literature."

A filter is a conjunction of masked comparisons against packet bytes.
Inserting it compiles a dedicated Python function (our stand-in for
emitting machine code) with every offset and constant baked in; the
interpreted engine — kept for the ablation benchmark — walks the
predicate list instead.  The modelled demultiplex cost is ~1 µs
compiled vs ~11 µs interpreted (the paper's order of magnitude).

Beyond per-filter compilation, installed filters are merged into a
shared **discrimination tree** on common predicate prefixes (DPF's
"filters are merged into a prefix tree" idea, also PATHFINDER's): each
level tests one ``(offset, size, mask)`` field and fans out on the
field's value, so classifying a packet is a single tree walk instead of
a linear scan over every installed filter.  Filters for the same
protocol share their header-field tests and diverge only at, say, the
port number — a hash lookup per level.  The *modelled* demux cost is
unchanged (it is the paper's measured constant); the tree is a
wall-clock optimization with identical match semantics: the most
specific matching filter wins, earliest-inserted on ties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import DemuxError
from ..hw.calibration import Calibration

__all__ = ["Predicate", "Filter", "DpfEngine"]


@dataclass(frozen=True)
class Predicate:
    """``packet[offset:offset+size] & mask == value`` (big-endian)."""

    offset: int
    size: int          #: 1, 2 or 4 bytes
    value: int
    mask: int = 0xFFFFFFFF

    def __post_init__(self) -> None:
        if self.size not in (1, 2, 4):
            raise DemuxError(f"predicate size must be 1/2/4, got {self.size}")
        if self.offset < 0:
            raise DemuxError("predicate offset must be non-negative")

    def matches(self, packet: bytes) -> bool:
        end = self.offset + self.size
        if end > len(packet):
            return False
        field = int.from_bytes(packet[self.offset:end], "big")
        return (field & self.mask) == (self.value & self.mask)


@dataclass
class Filter:
    """A compiled filter: its predicates plus the generated matcher."""

    filter_id: int
    predicates: tuple[Predicate, ...]
    compiled: Callable[[bytes], bool]

    @property
    def specificity(self) -> int:
        """Total bytes examined; more specific filters win ties."""
        return sum(p.size for p in self.predicates)


def _compile(predicates: tuple[Predicate, ...]) -> Callable[[bytes], bool]:
    """Generate and compile a dedicated matcher function.

    This is the dynamic code generation step: constants are baked into
    the source so the runtime does no table walking.
    """
    lines = ["def _match(p):"]
    lines.append(f"    if len(p) < {max((q.offset + q.size for q in predicates), default=0)}:")
    lines.append("        return False")
    for q in predicates:
        end = q.offset + q.size
        lines.append(
            f"    if (int.from_bytes(p[{q.offset}:{end}], 'big') & "
            f"{q.mask & ((1 << (8 * q.size)) - 1)}) != "
            f"{q.value & q.mask & ((1 << (8 * q.size)) - 1)}:"
        )
        lines.append("        return False")
    lines.append("    return True")
    namespace: dict = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - the DCG step
    return namespace["_match"]


def _norm_key(q: Predicate) -> tuple[int, int, int]:
    """Canonical (offset, size, mask) edge key for one predicate."""
    width_mask = (1 << (8 * q.size)) - 1
    return (q.offset, q.size, q.mask & width_mask)


@dataclass
class _TreeNode:
    """One discrimination-tree level.

    ``edges`` maps an ``(offset, size, mask)`` field test to a value
    table: extract the masked field once, then a dict lookup picks the
    subtree.  ``terminals`` are filters whose every predicate lies on
    the path to this node.
    """

    edges: dict[tuple[int, int, int], dict[int, "_TreeNode"]] = field(
        default_factory=dict
    )
    terminals: list["Filter"] = field(default_factory=list)


class DpfEngine:
    """The kernel's packet-filter table."""

    def __init__(self, cal: Calibration, telemetry=None):
        self.cal = cal
        self.telemetry = telemetry
        self._filters: dict[int, Filter] = {}
        self._next_id = 1
        self.compiled_mode = True   #: False = interpreted (ablation)
        self._root = _TreeNode()

    def _tree_insert(self, filt: Filter) -> None:
        # Sorting predicates canonically maximizes shared prefixes:
        # two filters testing the same header fields share one path and
        # diverge only at the first differing value.
        node = self._root
        for q in sorted(filt.predicates,
                        key=lambda p: (p.offset, p.size, p.mask, p.value)):
            key = _norm_key(q)
            value = q.value & key[2]
            node = node.edges.setdefault(key, {}).setdefault(value, _TreeNode())
        node.terminals.append(filt)

    def _tree_rebuild(self) -> None:
        self._root = _TreeNode()
        for filt in self._filters.values():
            self._tree_insert(filt)

    def _tree_classify(self, packet: bytes) -> Optional[Filter]:
        """One walk over the shared tree; DFS because distinct field
        tests at a node are not mutually exclusive (overlapping masks)."""
        matches: list[Filter] = []
        plen = len(packet)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.terminals:
                matches.extend(node.terminals)
            for (offset, size, mask), values in node.edges.items():
                end = offset + size
                if end > plen:
                    continue
                child = values.get(int.from_bytes(packet[offset:end], "big") & mask)
                if child is not None:
                    stack.append(child)
        if not matches:
            return None
        # most specific wins; earliest-inserted (lowest id) breaks ties —
        # exactly the linear scan's strict-greater-than semantics
        return min(matches, key=lambda f: (-f.specificity, f.filter_id))

    def insert(self, predicates: list[Predicate]) -> int:
        """Install a filter; returns its id."""
        preds = tuple(predicates)
        fid = self._next_id
        self._next_id += 1
        filt = Filter(fid, preds, _compile(preds))
        self._filters[fid] = filt
        self._tree_insert(filt)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.gauge("dpf.table_size").set(len(self._filters))
        return fid

    def remove(self, filter_id: int) -> None:
        if filter_id not in self._filters:
            raise DemuxError(f"no filter {filter_id}")
        del self._filters[filter_id]
        self._tree_rebuild()
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.gauge("dpf.table_size").set(len(self._filters))

    def classify(self, packet: bytes) -> tuple[Optional[int], float]:
        """Find the matching filter.

        Returns ``(filter_id or None, demux cost in µs)``.  The most
        specific matching filter wins, as in PATHFINDER/DPF semantics.
        Compiled mode walks the shared discrimination tree; interpreted
        mode (the ablation) scans every filter's predicate list.
        """
        if self.compiled_mode:
            best = self._tree_classify(packet)
        else:
            best = None
            for filt in self._filters.values():
                hit = all(p.matches(packet) for p in filt.predicates)
                if hit and (best is None or filt.specificity > best.specificity):
                    best = filt
        cost = (
            self.cal.dpf_compiled_demux_us
            if self.compiled_mode
            else self.cal.dpf_interpreted_demux_us
        )
        return (best.filter_id if best else None), cost
