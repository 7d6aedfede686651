"""The Internet checksum (RFC 1071): big-int and vectorized forms.

``inet_checksum`` returns the folded 16-bit one's-complement sum of the
data (without the final complement — callers decide, since the header
field stores the complement).  ``inet_checksum_final`` returns the
complemented value ready to store in a header.

A one's-complement sum is arithmetic modulo ``2**k - 1`` (``2**k`` is
congruent to 1, so every word of a buffer read as one big integer
carries weight 1), which gives two forms with O(1) calls per buffer:

* short buffers (headers): ``int.from_bytes`` and one ``%``,
* long buffers (payloads): one numpy reduction over 32-bit words.

Both are tested against the RFC's byte-pair loop, which lives with the
tests (``tests/test_byte_ranges.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "inet_checksum",
    "inet_checksum_final",
    "inet_checksum_numpy",
    "ones_complement_add16",
    "swab16",
    "le_word_sum",
    "le_fold_final",
]


def swab16(v: int) -> int:
    """Swap the two bytes of a 16-bit value.

    RFC 1071 (section 2B): the one's-complement sum is byte-order
    independent up to a byte swap — a sum computed over little-endian
    words equals the byte-swapped big-endian sum.  The little-endian
    MIPS checksum loops in :mod:`repro.vcode` therefore produce
    ``swab16`` of the big-endian reference value; storing the
    complement little-endian yields exactly the network-order bytes.
    """
    v &= 0xFFFF
    return ((v & 0xFF) << 8) | (v >> 8)


def ones_complement_add16(a: int, b: int) -> int:
    """16-bit one's-complement addition with end-around carry."""
    total = a + b
    return (total & 0xFFFF) + (total >> 16)


#: buffers up to this many bytes are summed as one big integer, longer
#: ones by numpy: big-int costs 0.3 us + 3 ns/B against a flat 2.2 us
#: (16-bit), 0.3 us + 5.4 ns/B against 2.3 us (32-bit: the modulus takes
#: two digits); timeit of both branches of each sum over 20 B - 8 KiB
_BIGINT_MAX16 = 640
_BIGINT_MAX32 = 384


def _fold(total: int, mask: int) -> int:
    """End-around-carry fold of a non-negative ``total`` to ``mask``'s
    width: ``total mod mask``, except that the fold only yields 0 for a
    zero sum — a non-zero multiple of ``mask`` folds to ``mask`` itself
    (one's-complement "negative zero"), hence the shift by one."""
    return total and (total - 1) % mask + 1


def _le_words_total(data) -> int:
    """Unfolded sum of ``data`` as little-endian 32-bit words, the tail
    zero-padded: one reduction on the caller's storage, no copy."""
    n = len(data)
    total = int(np.add.reduce(np.frombuffer(data, "<u4", n >> 2),
                              dtype=np.uint64))
    if n & 3:
        total += int.from_bytes(data[n & ~3:], "little")
    return total


def inet_checksum(data: bytes | bytearray | memoryview | np.ndarray) -> int:
    """Folded 16-bit one's-complement sum over big-endian 16-bit words.

    Odd-length data is zero-padded, per RFC 1071.  Accepts any
    contiguous byte buffer without copying it.
    """
    n = len(data)
    if n > _BIGINT_MAX16:
        return inet_checksum_numpy(data)
    return _fold(int.from_bytes(data, "big") << (8 * (n & 1)), 0xFFFF)


def inet_checksum_numpy(data: bytes | bytearray | memoryview | np.ndarray) -> int:
    """Vectorized equivalent of :func:`inet_checksum`.

    Sums in the little-endian domain — 32-bit words are 16-bit pairs
    with weights 1 and ``2**16``, both congruent to 1 — and swaps the
    folded result (RFC 1071 section 2B, see :func:`swab16`).
    """
    return swab16(_fold(_le_words_total(data), 0xFFFF))


def inet_checksum_final(data: bytes | bytearray | memoryview) -> int:
    """The value stored in protocol headers: the complemented sum."""
    return (~inet_checksum(data)) & 0xFFFF


def le_word_sum(data: bytes | bytearray | memoryview | np.ndarray,
                init: int = 0) -> int:
    """32-bit one's-complement sum over little-endian words, plus ``init``.

    This is exactly what the VM's ``cksum32``/the DILP checksum pipe
    accumulate, so constants fed to handlers (pre-summed pseudo-headers)
    must be computed with this function.  Data is zero-padded to a
    4-byte multiple (in a little-endian integer the padding is the
    high-order end, so it is simply absent).
    """
    if len(data) > _BIGINT_MAX32:
        return _fold(init + _le_words_total(data), 0xFFFFFFFF)
    return _fold(init + int.from_bytes(data, "little"), 0xFFFFFFFF)


def le_fold_final(acc32: int) -> int:
    """Fold a little-endian accumulator and complement it.

    Storing the result as a little-endian u16 produces the same wire
    bytes as storing :func:`inet_checksum_final` big-endian.
    """
    return (~_fold(acc32, 0xFFFF)) & 0xFFFF
