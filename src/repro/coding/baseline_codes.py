"""Classical integer codes Dophy's arithmetic annotation is compared against.

The paper's encoding-efficiency experiments pit arithmetic coding of
retransmission counts against straightforward alternatives a protocol
designer would otherwise use: fixed-width fields (what plain TinyOS
annotations do), unary, Elias gamma/delta, and Golomb–Rice. All codes here
share one interface (:class:`IntegerCode`) encoding sequences of
non-negative integers to a bit stream.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.coding.bitio import BitReader, BitWriter

__all__ = [
    "IntegerCode",
    "FixedWidthCode",
    "UnaryCode",
    "EliasGammaCode",
    "EliasDeltaCode",
    "GolombRiceCode",
    "optimal_rice_parameter",
]

#: Longest run of leading zeros an Elias gamma codeword may have.
_GAMMA_MAX_ZEROS = 64


class IntegerCode(ABC):
    """A prefix-free code over non-negative integers."""

    #: Short identifier used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def encode_value(self, writer: BitWriter, value: int) -> None:
        """Append the codeword for ``value`` to ``writer``."""

    @abstractmethod
    def decode_value(self, reader: BitReader) -> int:
        """Read one codeword from ``reader`` and return its value."""

    def encode_sequence(self, values: Sequence[int]) -> BitWriter:
        """Encode ``values`` back-to-back into a fresh writer."""
        writer = BitWriter()
        for value in values:
            self.encode_value(writer, value)
        return writer

    def decode_sequence(self, reader: BitReader, count: int) -> List[int]:
        """Decode ``count`` consecutive values."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_value(reader) for _ in range(count)]

    def code_length(self, value: int) -> int:
        """Bit length of the codeword for ``value`` (default: encode and measure)."""
        writer = BitWriter()
        self.encode_value(writer, value)
        return writer.bit_length

    @staticmethod
    def _check_value(value: int) -> int:
        if not isinstance(value, (int,)) or isinstance(value, bool):
            raise TypeError(f"value must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        return value


class FixedWidthCode(IntegerCode):
    """Plain ``width``-bit binary fields — the no-compression baseline.

    Values that overflow the field raise: a real protocol would saturate,
    but silently corrupting measurements would invalidate the comparison,
    so the caller (the annotation layer) is responsible for clamping via
    its symbol aggregation.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be > 0")
        self.width = width
        self.name = f"fixed{width}"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        if value.bit_length() > self.width:
            raise ValueError(f"value {value} does not fit in {self.width} bits")
        writer.write_uint(value, self.width)

    def decode_value(self, reader: BitReader) -> int:
        return reader.read_uint(self.width)

    def code_length(self, value: int) -> int:
        return self.width


class UnaryCode(IntegerCode):
    """``value`` ones then a zero. Optimal iff P(v) = 2^-(v+1)."""

    name = "unary"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        writer.write_unary(value)

    def decode_value(self, reader: BitReader) -> int:
        return reader.read_unary()

    def code_length(self, value: int) -> int:
        return value + 1


class EliasGammaCode(IntegerCode):
    """Elias gamma over v+1 (so 0 is encodable): unary(length) + binary tail."""

    name = "elias_gamma"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        n = value + 1
        # nbits-1 zeros, then n in nbits bits: one field of 2*nbits-1 bits.
        writer.write_uint(n, 2 * n.bit_length() - 1)

    def decode_value(self, reader: BitReader) -> int:
        head = reader.peek_uint(_GAMMA_MAX_ZEROS + 1)
        if not head:
            reader.read_uint(_GAMMA_MAX_ZEROS + 1)
            raise ValueError("malformed Elias gamma code")
        zeros = _GAMMA_MAX_ZEROS + 1 - head.bit_length()
        # The zeros add nothing to the value: read them with n.
        return reader.read_uint(2 * zeros + 1) - 1

    def code_length(self, value: int) -> int:
        return 2 * (value + 1).bit_length() - 1


class EliasDeltaCode(IntegerCode):
    """Elias delta over v+1: gamma(length) + binary tail. Better for large values."""

    name = "elias_delta"

    def __init__(self) -> None:
        self._gamma = EliasGammaCode()

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        n = value + 1
        nbits = n.bit_length()
        self._gamma.encode_value(writer, nbits - 1)
        if nbits > 1:
            writer.write_uint(n - (1 << (nbits - 1)), nbits - 1)

    def decode_value(self, reader: BitReader) -> int:
        nbits = self._gamma.decode_value(reader) + 1
        n = 1 << (nbits - 1)
        if nbits > 1:
            n |= reader.read_uint(nbits - 1)
        return n - 1

    def code_length(self, value: int) -> int:
        nbits = (value + 1).bit_length()
        return self._gamma.code_length(nbits - 1) + (nbits - 1)


class GolombRiceCode(IntegerCode):
    """Rice code with parameter ``k``: unary(v >> k) + k-bit remainder.

    Near-optimal for geometric sources — the natural strong baseline for
    retransmission counts, which *are* geometric per link.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise ValueError("k must be >= 0")
        self.k = k
        self.name = f"rice{k}"

    def encode_value(self, writer: BitWriter, value: int) -> None:
        self._check_value(value)
        writer.write_unary(value >> self.k)
        if self.k:
            writer.write_uint(value & ((1 << self.k) - 1), self.k)

    def decode_value(self, reader: BitReader) -> int:
        quotient = reader.read_unary()
        remainder = reader.read_uint(self.k) if self.k else 0
        return (quotient << self.k) | remainder

    def code_length(self, value: int) -> int:
        return (value >> self.k) + 1 + self.k


def optimal_rice_parameter(mean_value: float) -> int:
    """Rice parameter minimizing expected length for a geometric source.

    Uses the standard approximation ``k = max(0, ceil(log2(mean)))`` with
    the golden-ratio refinement for small means (Kiely 2004).
    """
    if mean_value < 0:
        raise ValueError("mean_value must be >= 0")
    if mean_value < 0.2:
        return 0
    theta = mean_value / (1.0 + mean_value)  # geometric "failure" parameter
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    k = max(0, 1 + int(math.floor(math.log2(math.log(golden) / math.log(theta)))))
    return k
