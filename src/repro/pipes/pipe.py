"""Pipes: tiny streaming computations for dynamic ILP.

Section II-B: "A pipe is a computation written to act on streaming
data, taking several bytes of data as input and producing several bytes
of output while performing only a tiny computation (such as a byteswap,
or an accumulation for a checksum) ... each pipe has an input and
output gauge associated with it (e.g., 8 b, 32 b, etc.) ... pipes are
associated with a number of attributes controlling the input and output
size (a pipe's 'gauge'), whether the pipe is allowed to transform its
input, and whether the pipe is commutative."

A :class:`Pipe` carries:

* a **gauge** (8, 16 or 32 bits) — the word size its body consumes and
  produces; the compiler converts between differently-gauged pipes,
* **attributes** (``P_COMMUTATIVE``, ``P_NO_MOD``),
* an **emit function** that writes the pipe's body in VCODE given
  concrete input/output/state registers (this is the "pipe_lambda"
  body of the paper's Fig. 2),
* optionally a **vectorized equivalent** (``np_apply``) used by the
  compiled fast path; pipes without one still work through the VCODE
  interpreter.

State variables (the paper's persistent registers) are named; the
:class:`~repro.pipes.pipelist.PipeList` allocates persistent registers
for them and supports the paper's export/import operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import VcodeError
from ..vcode.builder import VBuilder

__all__ = [
    "P_GAUGE8",
    "P_GAUGE16",
    "P_GAUGE32",
    "P_COMMUTATIVE",
    "P_NO_MOD",
    "Pipe",
    "gauge_dtype",
    "gauge_bytes",
]

# gauges, named after the paper's P_GAUGE32 constant
P_GAUGE8 = 8
P_GAUGE16 = 16
P_GAUGE32 = 32
_VALID_GAUGES = (P_GAUGE8, P_GAUGE16, P_GAUGE32)

# attribute flags
P_COMMUTATIVE = 0x1   #: may process message words out of order
P_NO_MOD = 0x2        #: does not alter its input (output == input)

#: emit(builder, in_reg, out_reg, state_regs) writes the pipe body
EmitFn = Callable[[VBuilder, int, int, dict[str, int]], None]
#: np_apply(words, state) -> transformed words (``words`` itself if
#: unchanged; it is a read-only view of the source); mutates state in place
NpApplyFn = Callable[[np.ndarray, dict[str, int]], np.ndarray]


def gauge_bytes(gauge: int) -> int:
    return gauge // 8


_GAUGE_DTYPES = {8: np.dtype("u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4")}


def gauge_dtype(gauge: int) -> np.dtype:
    """The little-endian numpy dtype for a gauge (MIPS LE convention)."""
    return _GAUGE_DTYPES[gauge]


@dataclass
class Pipe:
    """One composable data-manipulation stage."""

    name: str
    gauge: int
    emit: EmitFn
    attrs: int = 0
    state_vars: tuple[str, ...] = ()
    np_apply: Optional[NpApplyFn] = None
    pipe_id: int = -1   #: assigned when registered in a PipeList
    #: the stream view ``np_apply`` receives, fixed by the gauge
    dtype: np.dtype = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.gauge not in _VALID_GAUGES:
            raise VcodeError(
                f"pipe {self.name!r}: gauge must be one of {_VALID_GAUGES}"
            )
        self.dtype = gauge_dtype(self.gauge)

    @property
    def commutative(self) -> bool:
        return bool(self.attrs & P_COMMUTATIVE)

    @property
    def no_mod(self) -> bool:
        return bool(self.attrs & P_NO_MOD)

    @property
    def has_fast_path(self) -> bool:
        return self.np_apply is not None

    def __repr__(self) -> str:  # pragma: no cover
        flags = []
        if self.commutative:
            flags.append("commutative")
        if self.no_mod:
            flags.append("no_mod")
        return f"<Pipe {self.name} gauge={self.gauge} {' '.join(flags)}>"
