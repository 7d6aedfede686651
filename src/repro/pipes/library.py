"""The standard pipe library: checksum, byteswap, XOR "encryption", copy.

Each factory mirrors the paper's ``mk_cksum_pipe`` shape: it registers a
pipe in a pipe list and returns the pipe id.  Bodies are emitted in
VCODE (the reference semantics); each standard pipe also carries the
vectorized equivalent used by the compiled fast path.
"""

from __future__ import annotations

import numpy as np

from ..vcode.builder import VBuilder
from .pipe import (
    P_COMMUTATIVE,
    P_GAUGE16,
    P_GAUGE32,
    P_NO_MOD,
    Pipe,
)
from .pipelist import PipeList

__all__ = [
    "mk_cksum_pipe",
    "mk_byteswap_pipe",
    "mk_bswap16_pipe",
    "mk_xor_pipe",
    "mk_identity_pipe",
]

_MASK32 = 0xFFFFFFFF


def mk_cksum_pipe(pl: PipeList) -> int:
    """The Internet-checksum pipe of the paper's Fig. 2.

    32-bit gauge, commutative, does not modify its input.  The 32-bit
    accumulator lives in the persistent variable ``"cksum"``; export 0
    before the transfer, import and fold afterwards.
    """

    def emit(b: VBuilder, in_reg: int, out_reg: int, state: dict[str, int]) -> None:
        acc = state["cksum"]
        b.v_cksum32(acc, in_reg)          # add input to the running total
        if out_reg != in_reg:
            b.v_move(out_reg, in_reg)     # pass the input through unchanged

    def np_apply(words: np.ndarray, state: dict[str, int]) -> np.ndarray:
        total = state["cksum"] + int(np.add.reduce(words, dtype=np.uint64))
        while total > _MASK32:
            total = (total & _MASK32) + (total >> 32)
        state["cksum"] = total
        return words

    pipe = Pipe(
        name="cksum32",
        gauge=P_GAUGE32,
        emit=emit,
        attrs=P_COMMUTATIVE | P_NO_MOD,
        state_vars=("cksum",),
        np_apply=np_apply,
    )
    return pl.add(pipe)


def mk_byteswap_pipe(pl: PipeList) -> int:
    """Swap each 32-bit word between big and little endian (Fig. 1)."""

    def emit(b: VBuilder, in_reg: int, out_reg: int, state: dict[str, int]) -> None:
        b.v_bswap32(out_reg, in_reg)

    def np_apply(words: np.ndarray, state: dict[str, int]) -> np.ndarray:
        return words.byteswap()

    pipe = Pipe(name="bswap32", gauge=P_GAUGE32, emit=emit, np_apply=np_apply)
    return pl.add(pipe)


def mk_bswap16_pipe(pl: PipeList) -> int:
    """A 16-bit-gauge byteswap: exercises gauge conversion when composed
    with 32-bit pipes (the paper's checksum-vs-encryption example)."""

    def emit(b: VBuilder, in_reg: int, out_reg: int, state: dict[str, int]) -> None:
        b.v_bswap16(out_reg, in_reg)

    def np_apply(halves: np.ndarray, state: dict[str, int]) -> np.ndarray:
        return halves.byteswap()

    pipe = Pipe(name="bswap16", gauge=P_GAUGE16, emit=emit, np_apply=np_apply)
    return pl.add(pipe)


def mk_xor_pipe(pl: PipeList, key: int) -> int:
    """A toy stream "encryption" pipe: XOR every word with a key.

    Stands in for the paper's encryption example; key is captured as an
    immediate ("binding the context inside the pipe itself").
    """
    key &= _MASK32

    def emit(b: VBuilder, in_reg: int, out_reg: int, state: dict[str, int]) -> None:
        tmp = state["_key"]
        b.v_xor(out_reg, in_reg, tmp)

    def np_apply(words: np.ndarray, state: dict[str, int]) -> np.ndarray:
        return words ^ np.uint32(key)

    pipe = Pipe(
        name=f"xor32[{key:#x}]",
        gauge=P_GAUGE32,
        emit=emit,
        # Each word is transformed independently (the key is read-only
        # state), so processing out of order is safe.
        attrs=P_COMMUTATIVE,
        state_vars=("_key",),
        np_apply=np_apply,
    )
    pipe_id = pl.add(pipe)
    pl.export(pipe_id, "_key", key)
    return pipe_id


def mk_identity_pipe(pl: PipeList) -> int:
    """A pure pass-through; composing it must cost (almost) nothing."""

    def emit(b: VBuilder, in_reg: int, out_reg: int, state: dict[str, int]) -> None:
        if out_reg != in_reg:
            b.v_move(out_reg, in_reg)

    def np_apply(words: np.ndarray, state: dict[str, int]) -> np.ndarray:
        return words

    pipe = Pipe(
        name="identity",
        gauge=P_GAUGE32,
        emit=emit,
        attrs=P_COMMUTATIVE | P_NO_MOD,
        np_apply=np_apply,
    )
    return pl.add(pipe)
