"""Bit-field writer/reader primitives.

All entropy coders in :mod:`repro.coding` produce and consume bit streams
as whole fields: a field is an unsigned integer of a stated width, written
and read most-significant bit first. ``BitWriter`` packs fields into a
byte buffer; ``BitReader`` replays them in the same order. Both track the
exact bit length, which the overhead-accounting layer reports (a packet
annotation of 13 bits costs 13 bits in our accounting, even though a real
radio would pad to 2 bytes — byte-padded figures are derived views).

Neither side loops over single bits. The writer keeps the bits not yet
flushed in a small integer accumulator and moves whole bytes into its
buffer once the accumulator reaches :data:`_FLUSH_BITS`; the reader slices
the bytes a field spans and converts them with one ``int.from_bytes``.
"""

from __future__ import annotations

from typing import Iterable, List

__all__ = ["BitWriter", "BitReader"]

#: The writer flushes whole bytes once its accumulator holds this many
#: bits, so between writes it holds fewer (and after a flush, at most 7):
#: a wide field costs time linear in its width, never in the stream's.
_FLUSH_BITS = 64
#: Window of :meth:`BitReader.read_unary`'s run scan.
_WINDOW_BITS = 64
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
#: ``bytes.translate`` tables between bit values and ASCII digits.
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


class BitWriter:
    """Packs fields (MSB-first within each byte) into a growable buffer."""

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0  # bits not yet flushed, the newest in the low bits
        self._nacc = 0

    def write_uint(self, value: int, width: int) -> None:
        """Append ``value`` as a big-endian unsigned integer of ``width`` bits."""
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or width < value.bit_length():
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        if nacc >= _FLUSH_BITS:
            spare = nacc & 7
            self._bytes += (acc >> spare).to_bytes(nacc >> 3, "big")
            acc &= (1 << spare) - 1
            nacc = spare
        self._acc = acc
        self._nacc = nacc

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self.write_uint(int(bit), 1)

    def write_bits(self, bits: Iterable[int]) -> None:
        """Append each bit from ``bits`` in order, as one field."""
        raw = bytes(bits)
        if raw.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        if raw:
            self.write_uint(int(raw.translate(_BITS_TO_DIGITS), 2), len(raw))

    def write_unary(self, value: int) -> None:
        """Append ``value`` ones followed by a terminating zero."""
        if value < 0:
            raise ValueError("unary value must be >= 0")
        self.write_uint(((1 << value) - 1) << 1, value + 1)

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return (len(self._bytes) << 3) + self._nacc

    @property
    def byte_length(self) -> int:
        """Bytes needed to hold the stream (last byte zero-padded)."""
        return (self.bit_length + 7) // 8

    def getvalue(self) -> bytes:
        """Return the stream as bytes, zero-padding the trailing partial byte."""
        nacc = self._nacc
        if not nacc:
            return bytes(self._bytes)
        pad = -nacc & 7
        return bytes(self._bytes) + (self._acc << pad).to_bytes((nacc + pad) >> 3, "big")

    def to_bits(self) -> List[int]:
        """Return the exact bit sequence written (no padding)."""
        nbits = self.bit_length
        if not nbits:
            return []
        value = int.from_bytes(self.getvalue(), "big") >> (-nbits & 7)
        return list(format(value, f"0{nbits}b").encode().translate(_DIGITS_TO_BITS))

    def copy(self) -> "BitWriter":
        """Deep copy — used when an in-flight encoder state must be forked."""
        clone = BitWriter.__new__(BitWriter)
        clone._bytes = bytearray(self._bytes)
        clone._acc = self._acc
        clone._nacc = self._nacc
        return clone

    def __len__(self) -> int:
        return self.bit_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitWriter(bits={self.bit_length})"


class BitReader:
    """Replays a bit stream produced by :class:`BitWriter`.

    Reading past the end returns 0 bits and still advances
    :attr:`bits_consumed` by the full width read. Arithmetic decoding
    legitimately reads a few bits past the encoded payload (the decoder
    register is refilled beyond the final symbol), so this mirrors the
    classic implementation convention rather than raising.
    """

    def __init__(self, data: bytes, bit_length: int | None = None) -> None:
        self._data = bytes(data)
        self._bit_length = 8 * len(self._data) if bit_length is None else bit_length
        if self._bit_length < 0:
            raise ValueError(f"bit_length must be >= 0, got {self._bit_length}")
        if self._bit_length > 8 * len(self._data):
            raise ValueError("bit_length exceeds available data")
        self._pos = 0

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitReader":
        """Build a reader directly from a sequence of bits."""
        writer = BitWriter()
        writer.write_bits(bits)
        return cls(writer.getvalue(), writer.bit_length)

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as a big-endian unsigned integer.

        Bits past the end of the stream read as 0.
        """
        if width < 0:
            raise ValueError("width must be >= 0")
        start = self._pos
        end = self._pos = start + width
        stop = end if end <= self._bit_length else self._bit_length
        if stop <= start:
            return 0
        last = (stop + 7) >> 3
        chunk = int.from_bytes(self._data[start >> 3 : last], "big")
        return ((chunk >> ((last << 3) - stop)) & ((1 << (stop - start)) - 1)) << (end - stop)

    def peek_uint(self, width: int) -> int:
        """Like :meth:`read_uint`, but leaves the bits unconsumed."""
        value = self.read_uint(width)
        self._pos -= width
        return value

    def read_bit(self) -> int:
        """Return the next bit, or 0 once the stream is exhausted."""
        return self.read_uint(1)

    def read_unary(self) -> int:
        """Read a unary-coded value (count of 1s before the first 0).

        The run is scanned a window at a time; past the end the stream
        reads as zeros, which terminates every run.
        """
        count = 0
        while True:
            window = self.peek_uint(_WINDOW_BITS)
            ones = _WINDOW_BITS - (~window & _WINDOW_MASK).bit_length()
            if ones < _WINDOW_BITS:
                self._pos += ones + 1
                return count + ones
            self._pos += _WINDOW_BITS
            count += _WINDOW_BITS

    @property
    def bits_consumed(self) -> int:
        """Bits read so far (may exceed the stream length for arithmetic decode)."""
        return self._pos

    @property
    def bits_remaining(self) -> int:
        """Bits left before the reader starts returning padding zeros."""
        return max(0, self._bit_length - self._pos)

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._bit_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BitReader(pos={self._pos}, bit_length={self._bit_length})"
