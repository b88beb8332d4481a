"""Unit and property tests for the bit-level I/O layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.coding.bitio import BitReader, BitWriter


class TestBitWriter:
    def test_empty_writer(self):
        w = BitWriter()
        assert w.bit_length == 0
        assert w.byte_length == 0
        assert w.getvalue() == b""
        assert w.to_bits() == []

    def test_write_single_bits(self):
        w = BitWriter()
        for b in [1, 0, 1, 1]:
            w.write_bit(b)
        assert w.bit_length == 4
        assert w.to_bits() == [1, 0, 1, 1]
        # 1011 padded to 10110000
        assert w.getvalue() == bytes([0b10110000])

    def test_write_bit_rejects_non_binary(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bit(2)
        with pytest.raises(ValueError):
            w.write_bit(-1)

    def test_write_uint_msb_first(self):
        w = BitWriter()
        w.write_uint(0b1011, 4)
        assert w.to_bits() == [1, 0, 1, 1]

    def test_write_uint_with_leading_zeros(self):
        w = BitWriter()
        w.write_uint(3, 8)
        assert w.to_bits() == [0, 0, 0, 0, 0, 0, 1, 1]

    def test_write_uint_overflow_raises(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_uint(16, 4)

    def test_write_uint_zero_width_ok_for_zero(self):
        w = BitWriter()
        w.write_uint(0, 0)
        assert w.bit_length == 0

    def test_write_unary(self):
        w = BitWriter()
        w.write_unary(3)
        assert w.to_bits() == [1, 1, 1, 0]

    def test_write_unary_zero(self):
        w = BitWriter()
        w.write_unary(0)
        assert w.to_bits() == [0]

    def test_write_unary_negative_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_unary(-1)

    def test_byte_length_rounds_up(self):
        w = BitWriter()
        w.write_uint(0, 9)
        assert w.byte_length == 2

    def test_copy_is_independent(self):
        w = BitWriter()
        w.write_uint(0xAB, 8)
        clone = w.copy()
        clone.write_bit(1)
        assert w.bit_length == 8
        assert clone.bit_length == 9
        assert w.to_bits() == clone.to_bits()[:8]

    def test_multibyte_value(self):
        w = BitWriter()
        w.write_uint(0xDEAD, 16)
        assert w.getvalue() == bytes([0xDE, 0xAD])


class TestBitReader:
    def test_read_bits_in_order(self):
        r = BitReader(bytes([0b10110000]), bit_length=4)
        assert [r.read_bit() for _ in range(4)] == [1, 0, 1, 1]

    def test_read_past_end_returns_zero(self):
        r = BitReader(bytes([0xFF]), bit_length=2)
        assert r.read_bit() == 1
        assert r.read_bit() == 1
        assert r.read_bit() == 0  # padding
        assert r.exhausted

    def test_bit_length_validation(self):
        with pytest.raises(ValueError):
            BitReader(b"\x00", bit_length=9)

    def test_read_uint(self):
        r = BitReader(bytes([0xDE, 0xAD]))
        assert r.read_uint(16) == 0xDEAD

    def test_read_unary(self):
        r = BitReader.from_bits([1, 1, 0, 0])
        assert r.read_unary() == 2
        assert r.read_unary() == 0

    def test_bits_remaining(self):
        r = BitReader(b"\x00\x00", bit_length=10)
        r.read_uint(3)
        assert r.bits_remaining == 7
        assert r.bits_consumed == 3

    def test_from_bits_roundtrip(self):
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1]
        r = BitReader.from_bits(bits)
        assert [r.read_bit() for _ in range(len(bits))] == bits


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=200))
def test_property_bit_roundtrip(bits):
    """Any bit sequence written is read back identically."""
    w = BitWriter()
    w.write_bits(bits)
    r = BitReader(w.getvalue(), w.bit_length)
    assert [r.read_bit() for _ in range(len(bits))] == bits


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**32 - 1)),
        max_size=30,
    )
)
def test_property_uint_roundtrip(values):
    """write_uint/read_uint round-trip at each value's natural width."""
    widths = [max(1, v[0].bit_length()) for v in values]
    w = BitWriter()
    for (v,), width in zip(values, widths):
        w.write_uint(v, width)
    r = BitReader(w.getvalue(), w.bit_length)
    for (v,), width in zip(values, widths):
        assert r.read_uint(width) == v


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
def test_property_unary_roundtrip(values):
    w = BitWriter()
    for v in values:
        w.write_unary(v)
    r = BitReader(w.getvalue(), w.bit_length)
    for v in values:
        assert r.read_unary() == v


def test_negative_bit_length_rejected():
    """A negative length used to be accepted and read as an empty stream."""
    with pytest.raises(ValueError):
        BitReader(b"\xff", -3)


def test_megabit_mixed_width_roundtrip():
    """A stream of over 1 Mbit, in field widths from 1 to 100 bits plus
    unary runs, round-trips; the writer and reader stay linear in the
    stream length (a quadratic accumulator takes minutes here)."""
    widths = [1, 3, 7, 8, 13, 32, 64, 65, 100]
    fields = []
    total = 0
    i = 0
    while total < 1_000_000:
        width = widths[i % len(widths)]
        value = (i * 2654435761) & ((1 << width) - 1)
        fields.append((value, width))
        total += width
        i += 1
    w = BitWriter()
    for k, (value, width) in enumerate(fields):
        w.write_uint(value, width)
        if k % 1000 == 0:
            w.write_unary(k)
            total += k + 1
    assert w.bit_length == total
    r = BitReader(w.getvalue(), w.bit_length)
    for k, (value, width) in enumerate(fields):
        assert r.read_uint(width) == value
        if k % 1000 == 0:
            assert r.read_unary() == k
    assert r.bits_consumed == total
    assert r.exhausted
