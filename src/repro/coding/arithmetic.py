"""Integer arithmetic coding (Witten–Neal–Cleary style, 32-bit registers).

Dophy's annotation is an arithmetic codeword built *incrementally*: every
forwarding node narrows the interval with its own retransmission-count
symbol, and the codeword is finalized only when the packet reaches the
sink. :class:`ArithmeticEncoder` therefore exposes exactly that life
cycle — ``encode_symbol`` any number of times, ``copy`` to fork the
in-flight state (for would-be-size probes), and ``finish`` once.

The model argument is duck-typed: anything with ``interval(symbol) ->
(cum_lo, cum_hi, total)`` and ``symbol_for(scaled) -> symbol`` works, so
static :class:`~repro.coding.freq.FrequencyTable` and adaptive tables are
interchangeable, and a *sequence* of models (one per hop position) can be
used for context modelling.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple

from repro.coding.bitio import BitReader, BitWriter

__all__ = ["ArithmeticEncoder", "ArithmeticDecoder", "SymbolModel"]

_CODE_BITS = 32
_TOP = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
#: Models whose total exceeds this cannot guarantee a non-empty interval
#: for every symbol once the coder range shrinks to a quarter.
MAX_MODEL_TOTAL = 1 << (_CODE_BITS - 2)


class SymbolModel(Protocol):
    """Structural interface every frequency model implements."""

    @property
    def total(self) -> int: ...

    def interval(self, symbol: int) -> Tuple[int, int, int]: ...

    def symbol_for(self, scaled_value: int) -> int: ...


class ArithmeticEncoder:
    """Incremental arithmetic encoder.

    Bits are emitted into an internal :class:`BitWriter` as soon as they are
    determined, so ``bit_length`` during encoding reflects the bits a packet
    annotation already occupies in flight; ``finish()`` flushes the final
    disambiguation bits and returns the complete stream.
    """

    def __init__(self) -> None:
        self._low = 0
        self._high = _TOP
        self._pending = 0  # underflow bits awaiting the next resolved bit
        self._writer = BitWriter()
        self._finished = False
        self._symbols_encoded = 0

    # -- encoding ---------------------------------------------------------------

    def encode_symbol(self, model: SymbolModel, symbol: int) -> None:
        """Narrow the interval by ``symbol`` under ``model`` and emit resolved bits."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        cum_lo, cum_hi, total = model.interval(symbol)
        if total > MAX_MODEL_TOTAL:
            raise ValueError(
                f"model total {total} exceeds coder precision limit {MAX_MODEL_TOTAL}"
            )
        if cum_lo >= cum_hi:
            raise ValueError("symbol has empty interval (zero frequency)")
        low = self._low
        span = self._high - low + 1
        self._renormalize(low + (span * cum_lo) // total, low + (span * cum_hi) // total - 1)
        self._symbols_encoded += 1

    def _renormalize(self, low: int, high: int) -> None:
        # E1/E2: every leading bit low and high share is resolved; they all
        # leave in one field, shifted out of both registers at once.
        if (low ^ high) < _HALF:
            shared = _CODE_BITS - (low ^ high).bit_length()
            self._emit(low >> (_CODE_BITS - shared), shared)
            low = (low << shared) & _TOP
            high = ((high << shared) & _TOP) | ((1 << shared) - 1)
        # E3: now low < HALF <= high. Each underflow step drops the second
        # bit of both while low = 01... and high = 10..., and leaves
        # high > HALF > low, so no E1/E2 step can follow: the run's length
        # is the count of leading positions below the top where low has a
        # 1 and high a 0.
        if low >= _QUARTER and high < _THREE_QUARTERS:
            underflow = _CODE_BITS - 1 - ((~low | high) & (_HALF - 1)).bit_length()
            self._pending += underflow
            low = (low << underflow) & (_HALF - 1)
            high = ((high << underflow) & (_HALF - 1)) | _HALF | ((1 << underflow) - 1)
        self._low, self._high = low, high

    def _emit(self, bits: int, width: int) -> None:
        """Write ``width`` resolved bits as one field, with the pending
        underflow bits (the inverse of the first) right after the first."""
        pending = self._pending
        if pending:
            rest = width - 1
            first = bits >> rest
            fill = 0 if first else (1 << pending) - 1
            bits = (((first << pending) | fill) << rest) | (bits & ((1 << rest) - 1))
            width += pending
            self._pending = 0
        self._writer.write_uint(bits, width)

    def finish(self) -> Tuple[bytes, int]:
        """Flush terminal bits; return ``(payload_bytes, exact_bit_length)``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        # Two final bits pin the codeword inside [low, high].
        self._pending += 1
        self._emit(0 if self._low < _QUARTER else 1, 1)
        return self._writer.getvalue(), self._writer.bit_length

    # -- inspection ---------------------------------------------------------------

    @property
    def bit_length(self) -> int:
        """Bits already emitted (excludes pending/terminal bits)."""
        return self._writer.bit_length

    @property
    def symbols_encoded(self) -> int:
        return self._symbols_encoded

    @property
    def finished(self) -> bool:
        return self._finished

    def finalized_bit_length(self) -> int:
        """Exact length the stream would have if finished now (non-destructive)."""
        if self._finished:
            return self._writer.bit_length
        # finish() writes one bit plus the pending ones and one more.
        return self._writer.bit_length + self._pending + 2

    def copy(self) -> "ArithmeticEncoder":
        """Deep copy of the in-flight coder state (used when packets fork/probe)."""
        clone = ArithmeticEncoder.__new__(ArithmeticEncoder)
        clone._low = self._low
        clone._high = self._high
        clone._pending = self._pending
        clone._writer = self._writer.copy()
        clone._finished = self._finished
        clone._symbols_encoded = self._symbols_encoded
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArithmeticEncoder(symbols={self._symbols_encoded},"
            f" bits={self._writer.bit_length}, finished={self._finished})"
        )


class ArithmeticDecoder:
    """Decoder counterpart; decodes symbols in encode order given the same models."""

    def __init__(self, data: bytes, bit_length: Optional[int] = None) -> None:
        self._start(BitReader(data, bit_length))

    def _start(self, reader: BitReader) -> None:
        self._reader = reader
        self._low = 0
        self._high = _TOP
        self._value = reader.read_uint(_CODE_BITS)
        self._symbols_decoded = 0

    @classmethod
    def from_reader(cls, reader: BitReader) -> "ArithmeticDecoder":
        """Decode the rest of ``reader``'s stream, which must end where the
        arithmetic payload ends (reads past it return zeros)."""
        decoder = cls.__new__(cls)
        decoder._start(reader)
        return decoder

    @classmethod
    def from_encoder_output(cls, payload: Tuple[bytes, int]) -> "ArithmeticDecoder":
        """Convenience: build from the tuple :meth:`ArithmeticEncoder.finish` returns."""
        data, bit_length = payload
        return cls(data, bit_length)

    def decode_symbol(self, model: SymbolModel) -> int:
        """Decode and return the next symbol under ``model``."""
        total = model.total
        if total > MAX_MODEL_TOTAL:
            raise ValueError(
                f"model total {total} exceeds coder precision limit {MAX_MODEL_TOTAL}"
            )
        low = self._low
        span = self._high - low + 1
        symbol = model.symbol_for(((self._value - low + 1) * total - 1) // span)
        cum_lo, cum_hi, total = model.interval(symbol)
        self._renormalize(low + (span * cum_lo) // total, low + (span * cum_hi) // total - 1)
        self._symbols_decoded += 1
        return symbol

    def decode_sequence(self, model: SymbolModel, count: int) -> List[int]:
        """Decode ``count`` symbols under a single shared model."""
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_symbol(model) for _ in range(count)]

    def _renormalize(self, low: int, high: int) -> None:
        # The encoder's two runs (see ArithmeticEncoder._renormalize); the
        # value register follows low and high and is refilled from the
        # stream with one field per run.
        value = self._value
        if (low ^ high) < _HALF:
            shared = _CODE_BITS - (low ^ high).bit_length()
            low = (low << shared) & _TOP
            high = ((high << shared) & _TOP) | ((1 << shared) - 1)
            value = ((value << shared) & _TOP) | self._reader.read_uint(shared)
        if low >= _QUARTER and high < _THREE_QUARTERS:
            underflow = _CODE_BITS - 1 - ((~low | high) & (_HALF - 1)).bit_length()
            low = (low << underflow) & (_HALF - 1)
            high = ((high << underflow) & (_HALF - 1)) | _HALF | ((1 << underflow) - 1)
            value = (
                (value & _HALF)
                | ((value << underflow) & (_HALF - 1))
                | self._reader.read_uint(underflow)
            )
        self._low, self._high, self._value = low, high, value

    @property
    def symbols_decoded(self) -> int:
        return self._symbols_decoded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArithmeticDecoder(symbols={self._symbols_decoded})"
