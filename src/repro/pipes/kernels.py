"""Vectorized building blocks for compiled pipelines.

The paper's pipe compiler emits *native machine code*; our equivalent of
"compiling to native" is emitting numpy kernels.  These helpers
implement the data movement those kernels need:

* gauge reshaping (a byte stream viewed as 8/16/32-bit little-endian
  words, matching the VM's split order exactly),
* de-striping for the Ethernet DMA layout (Section III-C: "our Ethernet
  DMA engine stripes an N-byte contiguous packet into a 2N-byte buffer,
  alternating 16 bytes of data and 16 bytes of padding").

Every function here is semantically paired with VCODE the compiler
emits; the equivalence is property-tested.
"""

from __future__ import annotations

import numpy as np

from ..hw.nic.ethernet import STRIPE_CHUNK

__all__ = ["apply_pipe_at_gauge", "gather_striped", "scatter_striped"]


def apply_pipe_at_gauge(stream: np.ndarray, pipe, state: dict[str, int]) -> np.ndarray:
    """Run one pipe's vectorized body over a byte stream.

    ``stream`` is a uint8 array whose length is a multiple of 4.  The
    stream is viewed at the pipe's gauge in little-endian order — the
    same order the VM's gauge-conversion VCODE (low half first) sees —
    transformed, and returned as bytes again.
    """
    words = stream.view(pipe.dtype)
    out = pipe.np_apply(words, state)
    if out is words:
        return stream
    return np.ascontiguousarray(out).view(np.uint8)


def gather_striped(buf: np.ndarray, nbytes: int) -> np.ndarray:
    """Collect ``nbytes`` of payload from a striped DMA buffer.

    Payload byte ``i`` lives at buffer offset
    ``(i // 16) * 32 + (i % 16)``.
    """
    # One strided move for the padded stripes, one for the final chunk
    # (1..16 bytes, and it carries no trailing padding: the buffer is
    # exactly striped_size(nbytes) long).
    out = np.empty(nbytes, dtype=np.uint8)
    if nbytes:
        full = (nbytes - 1) // STRIPE_CHUNK
        split = full * STRIPE_CHUNK
        out[:split].reshape(full, STRIPE_CHUNK)[:] = \
            buf[:2 * split].reshape(full, 2 * STRIPE_CHUNK)[:, :STRIPE_CHUNK]
        out[split:] = buf[2 * split:2 * split + nbytes - split]
    return out


def scatter_striped(buf: np.ndarray, data: np.ndarray) -> None:
    """Inverse of :func:`gather_striped` (used by tests)."""
    nbytes = len(data)
    full, rem = divmod(nbytes, STRIPE_CHUNK)
    if full:
        chunks = buf[: full * 2 * STRIPE_CHUNK].reshape(full, 2 * STRIPE_CHUNK)
        chunks[:, :STRIPE_CHUNK] = data[: full * STRIPE_CHUNK].reshape(
            full, STRIPE_CHUNK
        )
    if rem:
        base = full * 2 * STRIPE_CHUNK
        buf[base:base + rem] = data[full * STRIPE_CHUNK:]
