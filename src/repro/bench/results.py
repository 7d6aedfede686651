"""Result containers for the reproduction benchmarks.

Each benchmark produces a :class:`BenchTable` mirroring one paper table
or figure: labelled rows of named values, with optional paper-reported
reference values alongside for the EXPERIMENTS.md comparison.  Tables
render as aligned text (printed by the benches) and serialize to JSON
under ``benchmarks/results/``.

The plane bench, ``benchmarks/bench_planes.py``, writes a nested
``BENCH_planes.json`` at the repo root instead: one grid whose rows —
transfer, canary, tenant, abort, fairness and scale worlds — each run
on both substrates.  Running a cell on both, the document header, the
command line, the dump and the summary gates are
:func:`on_both_substrates`, :func:`plane_doc` and :func:`plane_main`.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = ["BenchTable", "ascii_chart", "results_dir",
           "on_both_substrates", "plane_doc", "plane_main"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))


def ascii_chart(
    series: dict[str, list[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str = "",
    log_y: bool = False,
) -> str:
    """Render (x, y) series as a crude terminal chart.

    Each series gets a marker character; points are plotted on a
    ``width`` x ``height`` grid scaled to the data.  Good enough to show
    Fig 3's saturation curve and Fig 4's diverging lines in the bench
    output without any plotting dependency.
    """
    import math

    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]

    def ty(v: float) -> float:
        return math.log10(max(v, 1e-9)) if log_y else v

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(map(ty, ys)), max(map(ty, ys))
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = "*o+x#@%&"
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            col = round((x - x_lo) / x_span * (width - 1))
            row = round((ty(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][col] = marker
    lines = []
    if title:
        lines.append(title)
    top = f"{y_hi:.4g}" if not log_y else f"{10 ** y_hi:.4g}"
    bot = f"{y_lo:.4g}" if not log_y else f"{10 ** y_lo:.4g}"
    label_w = max(len(top), len(bot))
    for i, row in enumerate(grid):
        label = top if i == 0 else (bot if i == height - 1 else "")
        lines.append(f"{label:>{label_w}} |" + "".join(row))
    lines.append(" " * label_w + " +" + "-" * width)
    lines.append(
        " " * label_w + f"  {x_lo:<.4g}" + " " * (width - 12) + f"{x_hi:>.4g}"
    )
    legend = "   ".join(
        f"{marker}={name}" for (name, _), marker in zip(series.items(), markers)
    )
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)


def results_dir() -> str:
    """Where benchmark JSON artifacts land (created on demand)."""
    path = os.path.join(_REPO_ROOT, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class BenchTable:
    """One reproduced table/figure."""

    name: str                     #: e.g. "table1_raw_latency"
    title: str                    #: human-readable description
    columns: list[str]            #: value column names
    unit: str = ""                #: unit note shown under the title
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: paper-reported values for the same cells, keyed like rows
    paper: dict[str, dict[str, float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_row(self, label: str, **values: Any) -> None:
        row = {"label": label}
        row.update(values)
        self.rows.append(row)

    def add_paper_row(self, label: str, **values: float) -> None:
        self.paper[label] = values

    def note(self, text: str) -> None:
        self.notes.append(text)

    def value(self, label: str, column: str) -> Any:
        for row in self.rows:
            if row["label"] == label:
                return row[column]
        raise KeyError(f"{self.name}: no row {label!r}")

    # -- rendering -------------------------------------------------------
    def format(self) -> str:
        headers = ["", *self.columns]
        body: list[list[str]] = []
        for row in self.rows:
            cells = [row["label"]]
            for col in self.columns:
                value = row.get(col, "")
                if isinstance(value, float):
                    cells.append(f"{value:.2f}")
                else:
                    cells.append(str(value))
            body.append(cells)
            ref = self.paper.get(row["label"])
            if ref:
                cells = ["  (paper)"]
                for col in self.columns:
                    value = ref.get(col)
                    cells.append("" if value is None else f"{value:g}")
                body.append(cells)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title + (f"  [{self.unit}]" if self.unit else "")]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    # -- persistence -------------------------------------------------------
    def save(self) -> str:
        path = os.path.join(results_dir(), f"{self.name}.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "name": self.name,
                    "title": self.title,
                    "unit": self.unit,
                    "columns": self.columns,
                    "rows": self.rows,
                    "paper": self.paper,
                    "notes": self.notes,
                },
                fh,
                indent=2,
            )
        return path

    @classmethod
    def load(cls, name: str) -> "BenchTable":
        path = os.path.join(results_dir(), f"{name}.json")
        with open(path) as fh:
            raw = json.load(fh)
        table = cls(
            name=raw["name"], title=raw["title"], columns=raw["columns"],
            unit=raw.get("unit", ""),
        )
        table.rows = raw["rows"]
        table.paper = raw.get("paper", {})
        table.notes = raw.get("notes", [])
        return table


# ---------------------------------------------------------------------------
# plane benches: BENCH_<name>.json at the repo root
# ---------------------------------------------------------------------------

def on_both_substrates(fn: Callable[..., Any], **kw) -> tuple[Any, bool]:
    """Run ``fn(substrate=..., **kw)`` on ``fast`` and on ``legacy``.

    Returns ``(fast_result, identical)``: the fast substrate's result is
    the one a bench records, and ``identical`` says the legacy run
    returned an equal one — so ``fn`` must return only simulated
    observables (no wall-clock readings)."""
    fast = fn(substrate="fast", **kw)
    legacy = fn(substrate="legacy", **kw)
    return fast, fast == legacy


def plane_doc(name: str, quick: bool, **fields) -> dict:
    """The header every ``BENCH_<name>.json`` starts with."""
    return {"bench": name, "quick": quick,
            "python": sys.version.split()[0], **fields}


def plane_main(name: str, bench: Callable[[bool], dict],
               gates: Sequence[tuple[Callable[[dict], bool], str]],
               argv: Optional[list[str]] = None) -> int:
    """The command line of a plane bench; returns the exit code.

    ``bench(quick)`` builds the document.  The document is written
    with sorted keys to ``--out``, by default ``BENCH_<name>.json`` at
    the repo root — except ``--quick`` runs, which default to the
    system temp dir so a smoke run cannot clobber the committed
    full-size baseline.  ``gates`` are ``(predicate, message)`` pairs
    over ``doc["summary"]``; each failing one prints its message
    (``str.format``-ed with the summary) and makes the exit code 1.
    """
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description=bench.__globals__["__doc__"].strip().splitlines()[0])
    parser.add_argument("--quick", "--smoke", action="store_true",
                        help="small sweep (CI smoke run)")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: <repo>/BENCH_"
                             f"{name}.json; <tmp>/BENCH_{name}.quick.json "
                             f"with --quick)")
    args = parser.parse_args(argv)
    quick, path = args.quick, args.out
    doc = bench(quick)
    if path is None:
        path = (os.path.join(tempfile.gettempdir(),
                             f"BENCH_{name}.quick.json") if quick
                else os.path.join(_REPO_ROOT, f"BENCH_{name}.json"))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")
    failed = [message.format(**doc["summary"])
              for holds, message in gates if not holds(doc["summary"])]
    for message in failed:
        print(f"ERROR: {message}", file=sys.stderr)
    return 1 if failed else 0
