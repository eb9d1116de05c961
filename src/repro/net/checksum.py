"""The Internet checksum (RFC 1071) used by IPv4 and UDP headers."""

from __future__ import annotations


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """One's-complement 16-bit checksum over ``data``.

    Odd-length inputs are zero-padded on the right, per RFC 1071.
    ``initial`` is a partial sum to include — any non-negative int, whose
    16-bit words are summed as if they preceded ``data`` (the UDP
    pseudo-header fields go in this way, without building its bytes).
    Returns the checksum as an int in ``[0, 0xFFFF]``.

    ``2**16 ≡ 1 (mod 0xFFFF)``, so the residue of the whole buffer read
    as one big-endian integer *is* the end-around-carry sum of its 16-bit
    words — computed by the interpreter's bignum code instead of a
    byte-at-a-time loop.  The one difference: carry folding never turns a
    non-zero sum into 0 (it yields 0xFFFF) where the residue does.
    """
    total = int.from_bytes(data, "big")
    if len(data) & 1:
        total <<= 8
    total += initial
    folded = total % 0xFFFF
    if folded == 0 and total:
        folded = 0xFFFF
    return 0xFFFF - folded


def verify_checksum(data: bytes) -> bool:
    """True when ``data`` (including its embedded checksum field) sums to 0."""
    return internet_checksum(data) == 0
