"""VarInt byte codec (Section III-A).

Seven payload bits per byte plus a continuation bit; signed values use an
extra sign bit in the first byte (the paper stores edge-weight gaps, which
are not sorted, with a sign bit).  Scalar routines are the reference
implementation.

The hot path is the *byte-parallel* bulk decoder
(:func:`decode_stream_bulk` / :func:`decode_region_bulk`): one mask over the
whole buffer finds terminator bytes (``(byte & 0x80) == 0``), per-value byte
spans follow from the terminator positions, and the 7-bit payload groups are
assembled with a handful of vectorized shift passes (one per byte of the
longest value present, typically 1-2).  Values longer than eight payload
bytes fall back to the scalar loop -- they cannot occur in encoder output
for int64 values below ``2**63`` but the fallback keeps the decoder total.
"""

from __future__ import annotations

import numpy as np

from repro.memory.scratch import tracked_empty

MAX_VARINT64_BYTES = 10

# Longest varint the vectorized assembler handles: 9 bytes x 7 payload bits
# = 63 bits, the largest shift that cannot overflow a signed int64 lane.
_MAX_VECTOR_BYTES = 9


def varint_len(value: int) -> int:
    """Number of bytes :func:`encode_varint` produces for ``value``."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    n = 1
    value >>= 7
    while value:
        n += 1
        value >>= 7
    return n


def encode_varint(value: int, out: bytearray) -> int:
    """Append the VarInt encoding of ``value`` to ``out``; return byte count."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    n = 0
    while True:
        byte = value & 0x7F
        value >>= 7
        n += 1
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return n


# thresholds for exact encoded lengths: a value needs j+1 bytes iff
# value >= 2**(7*j); int64 non-negative values top out at 9 bytes
_LEN_THRESHOLDS = np.int64(1) << (7 * np.arange(1, 9, dtype=np.int64))


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Exact per-value encoded byte counts (vectorized :func:`varint_len`)."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and values.min() < 0:
        raise ValueError("varint cannot encode negative values")
    return np.searchsorted(_LEN_THRESHOLDS, values, side="right") + 1


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Vectorized sign fold of :func:`encode_signed_varint` (bit 0 = sign)."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values < 0, ((-values) << 1) | 1, values << 1)


def encode_stream_bulk(
    values: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """VarInt-encode every element of ``values`` into one uint8 array.

    Byte-parallel counterpart of :func:`encode_stream`: one scatter pass
    per byte of the longest value present (typically 1-2) writes the j-th
    byte of every value still needing one.  Byte-identical to the scalar
    encoder.
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


def encode_signed_varint(value: int, out: bytearray) -> int:
    """Append a signed VarInt (sign bit in bit 0 of the first byte)."""
    # The paper stores "an additional sign bit"; we fold it into the
    # least-significant bit so small magnitudes stay small either way.
    zz = ((-value) << 1) | 1 if value < 0 else value << 1
    return encode_varint(zz, out)


def decode_signed_varint(buf, pos: int) -> tuple[int, int]:
    zz, pos = decode_varint(buf, pos)
    value = zz >> 1
    if zz & 1:
        value = -value
    return value, pos


def encode_stream(values: np.ndarray, out: bytearray) -> int:
    """Append VarInt encodings of every element of ``values``; return bytes."""
    total = 0
    append = out.append
    for v in values.tolist():
        if v < 0:
            raise ValueError(f"varint cannot encode negative value {v}")
        while True:
            byte = v & 0x7F
            v >>= 7
            total += 1
            if v:
                append(byte | 0x80)
            else:
                append(byte)
                break
    return total


def decode_stream(buf, pos: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` VarInts starting at ``buf[pos:]``."""
    out = tracked_empty(count, np.int64, name="varint-decode-values")
    for i in range(count):
        result = 0
        shift = 0
        while True:
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        out[i] = result
    return out, pos


def as_byte_array(buf) -> np.ndarray:
    """View ``buf`` (bytes/bytearray/memoryview/ndarray) as a uint8 array."""
    if isinstance(buf, np.ndarray):
        return buf if buf.dtype == np.uint8 else buf.view(np.uint8)
    return np.frombuffer(buf, dtype=np.uint8)


def zigzag_decode(zz: np.ndarray) -> np.ndarray:
    """Vectorized inverse of the signed-VarInt sign fold (bit 0 = sign)."""
    zz = np.asarray(zz, dtype=np.int64)
    mag = zz >> 1
    return np.where(zz & 1, -mag, mag)


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


def decode_stream_bulk(buf, pos: int, count: int) -> tuple[np.ndarray, int]:
    """Byte-parallel equivalent of :func:`decode_stream`.

    Scans a window of the buffer for terminator bytes, widening it until
    ``count`` values are covered (streams average well under two bytes per
    value, so the initial guess of two bytes/value almost always suffices).
    """
    if count == 0:
        return np.empty(0, dtype=np.int64), pos
    data = as_byte_array(buf)
    limit = min(len(data), pos + count * MAX_VARINT64_BYTES)
    hi = min(limit, pos + 2 * count + 8)
    while True:
        window = data[pos:hi]
        term = np.flatnonzero((window & 0x80) == 0)
        if len(term) >= count or hi >= limit:
            break
        hi = limit
    if len(term) < count:
        raise ValueError("varint stream truncated (corrupt stream?)")
    ends = term[:count]
    starts = tracked_empty(count, np.int64, name="varint-span-starts")
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    nbytes = int(ends[-1]) + 1
    values = _decode_spans(window[:nbytes], starts, lengths)
    return values, pos + nbytes


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
