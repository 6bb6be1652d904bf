"""VarInt byte codec (Section III-A).

Seven payload bits per byte plus a continuation bit; signed values use an
extra sign bit in the first byte (the paper stores edge-weight gaps, which
are not sorted, with a sign bit).  The graph codec itself runs compiled
(``decode_kernel.c``); what is left here serves the compressed graph's
header pass, the distributed layer's traffic accounting and the ladder's
micro benches.  The scalar reference routines live in ``tests/oracles.py``.

The *byte-parallel* bulk decoder (:func:`decode_region_bulk`): one mask over
the whole buffer finds terminator bytes (``(byte & 0x80) == 0``), per-value
byte spans follow from the terminator positions, and the 7-bit payload
groups are assembled with a handful of vectorized shift passes (one per byte
of the longest value present, typically 1-2).  Values longer than eight
payload bytes fall back to the scalar loop -- they cannot occur in encoder
output for int64 values below ``2**63`` but the fallback keeps the decoder
total.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_empty

MAX_VARINT64_BYTES = 10

# Longest varint the vectorized assembler handles: 9 bytes x 7 payload bits
# = 63 bits, the largest shift that cannot overflow a signed int64 lane.
_MAX_VECTOR_BYTES = 9


# thresholds for exact encoded lengths: a value needs j+1 bytes iff
# value >= 2**(7*j); int64 non-negative values top out at 9 bytes
_LEN_THRESHOLDS = np.int64(1) << (7 * np.arange(1, 9, dtype=np.int64))


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Exact per-value encoded byte counts."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varint cannot encode negative values")
    return np.searchsorted(_LEN_THRESHOLDS, values, side="right") + 1


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Vectorized sign fold of a signed VarInt (bit 0 = sign)."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values < 0, ((-values) << 1) | 1, values << 1)


def encode_stream_bulk(
    values: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """VarInt-encode every element of ``values`` into one uint8 array.

    Byte-parallel: one scatter pass per byte of the longest value present
    (typically 1-2) writes the j-th byte of every value still needing one.
    Byte-identical to the scalar encoder.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if lengths is None:
        lengths = varint_lengths(values)
    starts = np.cumsum(lengths) - lengths
    total = int(starts[-1] + lengths[-1])
    out = tracked_empty(total, np.uint8, name="varint-encode-bytes")
    for j in range(int(lengths.max())):
        sel = np.flatnonzero(lengths > j)
        payload = (values[sel] >> (7 * j)) & 0x7F
        cont = np.where(lengths[sel] > j + 1, 0x80, 0)
        byte = payload | cont
        assert int(byte.max()) <= 0xFF  # 7 payload bits + continuation bit
        out[starts[sel] + j] = byte.astype(np.uint8)
    return out


def decode_varint(buf, pos: int) -> tuple[int, int]:
    """Decode a VarInt at ``buf[pos:]``; return ``(value, new_pos)``."""
    result = 0
    shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint too long (corrupt stream?)")


def as_byte_array(buf) -> np.ndarray:
    """View ``buf`` (bytes/bytearray/memoryview/ndarray) as a uint8 array."""
    if isinstance(buf, np.ndarray):
        return buf if buf.dtype == np.uint8 else buf.view(np.uint8)
    return np.frombuffer(buf, dtype=np.uint8)


def _assemble_payloads(
    block: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Combine 7-bit payload groups into values, one shift pass per byte.

    ``block`` is an int64 view of the raw bytes; ``starts``/``lengths``
    delimit each value's span.  Values longer than ``_MAX_VECTOR_BYTES``
    must be patched by the caller (their lanes hold partial garbage here).
    """
    values = block[starts] & 0x7F
    max_len = int(lengths.max())
    for j in range(1, min(max_len, _MAX_VECTOR_BYTES)):
        sel = np.flatnonzero(lengths > j)
        if sel.size == 0:
            break
        values[sel] |= (block[starts[sel] + j] & 0x7F) << (7 * j)
    return values


def _decode_spans(block_u8, starts, lengths) -> np.ndarray:
    """Decode the values at the given spans, scalar-patching long ones."""
    block = block_u8.astype(np.int64)
    values = _assemble_payloads(block, starts, lengths)
    if int(lengths.max()) > _MAX_VECTOR_BYTES:
        for i in np.flatnonzero(lengths > _MAX_VECTOR_BYTES).tolist():
            s = int(starts[i])
            v, _ = decode_varint(bytes(block_u8[s : s + MAX_VARINT64_BYTES]), 0)
            if v >> 63:
                raise ValueError("varint too long (corrupt stream?)")
            values[i] = v
    return values


def decode_region_bulk(block_u8: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode *every* VarInt in ``block_u8``; return ``(values, starts)``.

    The block must begin and end on value boundaries (any concatenation of
    whole encoded neighborhoods does).  ``starts`` gives each value's byte
    offset within the block, which callers use to locate per-vertex
    sub-streams inside a gathered multi-vertex region.
    """
    if len(block_u8) == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    term = np.flatnonzero((block_u8 & 0x80) == 0)
    if len(term) == 0 or int(term[-1]) != len(block_u8) - 1:
        raise ValueError("varint region does not end on a value boundary")
    count = len(term)
    starts = tracked_empty(count, np.int64, name="varint-span-starts")
    starts[0] = 0
    starts[1:] = term[:-1] + 1
    lengths = term - starts + 1
    values = _decode_spans(block_u8, starts, lengths)
    return values, starts


def stream_len(values: np.ndarray) -> int:
    """Total encoded byte length of ``values`` without materialising bytes.

    Vectorised: a value needs ``ceil(bits/7)`` bytes.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return 0
    if values.min() < 0:
        raise ValueError("varint cannot encode negative values")
    # bit length: values of 0 still need 1 byte
    safe = np.maximum(values, 1)
    bits = np.floor(np.log2(safe.astype(np.float64))).astype(np.int64) + 1
    # correct potential float rounding at powers of two
    too_low = (np.int64(1) << bits) <= safe
    bits += too_low
    too_high = (np.int64(1) << (bits - 1)) > safe
    bits -= too_high
    return int(np.sum((bits + 6) // 7))
