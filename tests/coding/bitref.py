"""Bit-at-a-time reference codec for the differential tests.

A frozen copy of the one-bit-per-step writer, reader and Witten–Neal–Cleary
renormalization loops that the word-granular codec in :mod:`repro.coding`
replaced. The library never imports this module; the tests hold the fast
codec to the byte-identical output and the identical reader positions of
this reference.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER


class RefBitWriter:
    def __init__(self) -> None:
        self._bytes = bytearray()
        self._current = 0
        self._nbits_in_current = 0
        self._total_bits = 0

    def write_bit(self, bit: int) -> None:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self._current = (self._current << 1) | bit
        self._nbits_in_current += 1
        self._total_bits += 1
        if self._nbits_in_current == 8:
            self._bytes.append(self._current)
            self._current = 0
            self._nbits_in_current = 0

    def write_bits(self, bits: Iterable[int]) -> None:
        for bit in bits:
            self.write_bit(bit)

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {width} bits")
        for shift in range(width - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, value: int) -> None:
        if value < 0:
            raise ValueError("unary value must be >= 0")
        for _ in range(value):
            self.write_bit(1)
        self.write_bit(0)

    @property
    def bit_length(self) -> int:
        return self._total_bits

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._nbits_in_current:
            out.append(self._current << (8 - self._nbits_in_current))
        return bytes(out)

    def to_bits(self) -> List[int]:
        bits: List[int] = []
        for byte in self._bytes:
            for shift in range(7, -1, -1):
                bits.append((byte >> shift) & 1)
        for shift in range(self._nbits_in_current - 1, -1, -1):
            bits.append((self._current >> shift) & 1)
        return bits


class RefBitReader:
    def __init__(self, data: bytes, bit_length: Optional[int] = None) -> None:
        self._data = bytes(data)
        self._bit_length = 8 * len(self._data) if bit_length is None else bit_length
        if self._bit_length > 8 * len(self._data):
            raise ValueError("bit_length exceeds available data")
        self._pos = 0

    def read_bit(self) -> int:
        if self._pos >= self._bit_length:
            self._pos += 1
            return 0
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - (self._pos % 8))) & 1
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be >= 0")
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        count = 0
        while self.read_bit() == 1:
            count += 1
        return count

    @property
    def bits_consumed(self) -> int:
        return self._pos

    @property
    def bits_remaining(self) -> int:
        return max(0, self._bit_length - self._pos)

    @property
    def exhausted(self) -> bool:
        return self._pos >= self._bit_length


class RefArithmeticEncoder:
    def __init__(self) -> None:
        self._low = 0
        self._high = _TOP
        self._pending = 0
        self._writer = RefBitWriter()

    def encode_symbol(self, model, symbol: int) -> None:
        cum_lo, cum_hi, total = model.interval(symbol)
        span = self._high - self._low + 1
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        while True:
            if self._high < _HALF:
                self._emit(0)
            elif self._low >= _HALF:
                self._emit(1)
                self._low -= _HALF
                self._high -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._pending += 1
                self._low -= _QUARTER
                self._high -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1

    def _emit(self, bit: int) -> None:
        self._writer.write_bit(bit)
        for _ in range(self._pending):
            self._writer.write_bit(1 - bit)
        self._pending = 0

    @property
    def bit_length(self) -> int:
        return self._writer.bit_length

    def finish(self) -> Tuple[bytes, int]:
        self._pending += 1
        self._emit(0 if self._low < _QUARTER else 1)
        return self._writer.getvalue(), self._writer.bit_length


class RefArithmeticDecoder:
    def __init__(self, data: bytes, bit_length: Optional[int] = None) -> None:
        self._reader = RefBitReader(data, bit_length)
        self._low = 0
        self._high = _TOP
        self._value = 0
        for _ in range(_CODE_BITS):
            self._value = (self._value << 1) | self._reader.read_bit()

    def decode_symbol(self, model) -> int:
        total = model.total
        span = self._high - self._low + 1
        scaled = ((self._value - self._low + 1) * total - 1) // span
        symbol = model.symbol_for(scaled)
        cum_lo, cum_hi, total = model.interval(symbol)
        self._high = self._low + (span * cum_hi) // total - 1
        self._low = self._low + (span * cum_lo) // total
        while True:
            if self._high < _HALF:
                pass
            elif self._low >= _HALF:
                self._low -= _HALF
                self._high -= _HALF
                self._value -= _HALF
            elif self._low >= _QUARTER and self._high < _THREE_QUARTERS:
                self._low -= _QUARTER
                self._high -= _QUARTER
                self._value -= _QUARTER
            else:
                break
            self._low <<= 1
            self._high = (self._high << 1) | 1
            self._value = (self._value << 1) | self._reader.read_bit()
        return symbol

    @property
    def bits_consumed(self) -> int:
        return self._reader.bits_consumed
