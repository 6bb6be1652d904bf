"""Unit + property tests for the VarInt codec: the scalar reference routines
(``tests/oracles.py``) and what ``repro.graph.varint`` keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    decode_signed_varint,
    decode_stream,
    encode_signed_varint,
    encode_stream,
    encode_varint,
    varint_len,
)
from repro.graph.varint import decode_varint, stream_len


class TestScalar:
    @pytest.mark.parametrize(
        "value,expected_len",
        [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (2**35, 6)],
    )
    def test_length_boundaries(self, value, expected_len):
        buf = bytearray()
        n = encode_varint(value, buf)
        assert n == expected_len == len(buf) == varint_len(value)

    def test_roundtrip_examples(self):
        for v in [0, 1, 127, 128, 300, 2**20, 2**40, 2**63 - 1]:
            buf = bytearray()
            encode_varint(v, buf)
            out, pos = decode_varint(buf, 0)
            assert out == v
            assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())
        with pytest.raises(ValueError):
            varint_len(-5)

    def test_corrupt_stream_detected(self):
        buf = bytes([0x80] * 11)  # continuation bits forever
        with pytest.raises(ValueError, match="too long"):
            decode_varint(buf, 0)

    def test_consecutive_values(self):
        buf = bytearray()
        values = [5, 1000, 0, 2**30]
        for v in values:
            encode_varint(v, buf)
        pos = 0
        for v in values:
            out, pos = decode_varint(buf, pos)
            assert out == v


class TestSigned:
    @pytest.mark.parametrize("v", [0, 1, -1, 63, -63, 64, -64, 2**40, -(2**40)])
    def test_roundtrip(self, v):
        buf = bytearray()
        encode_signed_varint(v, buf)
        out, pos = decode_signed_varint(buf, 0)
        assert out == v

    def test_small_magnitudes_stay_small(self):
        for v in range(-63, 64):
            buf = bytearray()
            encode_signed_varint(v, buf)
            assert len(buf) == 1


class TestStream:
    def test_stream_roundtrip(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**40, size=500)
        buf = bytearray()
        nbytes = encode_stream(values, buf)
        assert nbytes == len(buf)
        out, pos = decode_stream(buf, 0, len(values))
        assert np.array_equal(out, values)
        assert pos == len(buf)

    def test_stream_len_matches_encoding(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            values = rng.integers(0, 2**50, size=100)
            buf = bytearray()
            encode_stream(values, buf)
            assert stream_len(values) == len(buf)

    def test_stream_len_powers_of_two(self):
        # exact boundary behaviour around byte-length steps
        values = np.array(
            [2**k - 1 for k in range(1, 60)] + [2**k for k in range(1, 60)]
        )
        buf = bytearray()
        encode_stream(values, buf)
        assert stream_len(values) == len(buf)

    def test_empty_stream(self):
        assert stream_len(np.empty(0, dtype=np.int64)) == 0
        out, pos = decode_stream(b"", 0, 0)
        assert len(out) == 0 and pos == 0


class TestProperties:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200)
    def test_unsigned_roundtrip(self, v):
        buf = bytearray()
        n = encode_varint(v, buf)
        out, pos = decode_varint(buf, 0)
        assert out == v and pos == n

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    @settings(max_examples=200)
    def test_signed_roundtrip(self, v):
        buf = bytearray()
        encode_signed_varint(v, buf)
        out, _ = decode_signed_varint(buf, 0)
        assert out == v

    @given(
        st.lists(st.integers(min_value=0, max_value=2**55), max_size=50)
    )
    @settings(max_examples=100)
    def test_stream_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        buf = bytearray()
        encode_stream(arr, buf)
        assert stream_len(arr) == len(buf)
        out, _ = decode_stream(buf, 0, len(arr))
        assert np.array_equal(out, arr)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=100)
    def test_encoding_is_minimal(self, v):
        """No shorter VarInt encodes the same value (canonical encoding)."""
        assert varint_len(v) == max(1, -(-v.bit_length() // 7))
