"""Time units for the simulation.

The global simulation clock counts integer **picoseconds** so that every
quantity we care about is exact:

* one CPU cycle of the modelled 40 MHz DECstation 5000/240 is exactly
  25 000 ps,
* wire times for the 10 Mb/s Ethernet and the 155 Mb/s AN2 round to the
  picosecond with negligible error.

Keeping the clock integral makes the discrete-event engine fully
deterministic (no float-comparison ties), which in turn is what lets the
benchmark harness reproduce the paper's tables bit-for-bit across runs.
"""

from __future__ import annotations

#: Picoseconds per CPU cycle of the modelled 40 MHz CPU.
CYCLE_PS: int = 25_000

#: Picoseconds per microsecond.
US_PS: int = 1_000_000


def cycles(n: float) -> int:
    """Convert a cycle count to integer simulation ticks (picoseconds)."""
    return round(n * CYCLE_PS)


def us(x: float) -> int:
    """Convert microseconds to integer simulation ticks."""
    return round(x * US_PS)


def to_us(ticks: int) -> float:
    """Convert simulation ticks to microseconds (float, for reporting)."""
    return ticks / US_PS


def seconds(x: float) -> int:
    """Convert seconds to integer simulation ticks."""
    return round(x * 1_000_000 * US_PS)

