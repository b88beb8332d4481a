"""Canonical Huffman coding over a frequency table.

The strongest per-symbol prefix-code competitor to Dophy's arithmetic
annotation: given the *same* disseminated frequency table, Huffman is
the optimal prefix code — but it still pays at least one bit per symbol,
while arithmetic coding goes below a bit on skewed sources. Comparing
"Dophy with Huffman" against "Dophy with arithmetic" isolates exactly
what the arithmetic coder contributes (see the T1 bench).

Codes are *canonical* (sorted by length, then symbol), so a decoder can
reconstruct the codebook from code lengths alone — the property real
dissemination would exploit.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.bitio import BitReader, BitWriter
from repro.coding.freq import FrequencyTable

__all__ = ["HuffmanCode"]


def _code_lengths(freqs: Sequence[int]) -> List[int]:
    """Huffman code lengths via the standard two-queue/heap construction."""
    n = len(freqs)
    if n == 1:
        return [1]
    heap: List[Tuple[int, int, Tuple[int, ...]]] = []
    counter = itertools.count()
    for sym, f in enumerate(freqs):
        heap.append((f, next(counter), (sym,)))
    heapq.heapify(heap)
    lengths = [0] * n
    while len(heap) > 1:
        fa, _, syms_a = heapq.heappop(heap)
        fb, _, syms_b = heapq.heappop(heap)
        for s in syms_a + syms_b:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, next(counter), syms_a + syms_b))
    return lengths


class HuffmanCode:
    """Canonical Huffman encoder/decoder for symbols ``0..n-1``."""

    def __init__(self, table: FrequencyTable) -> None:
        self.table = table
        self.lengths = _code_lengths([table.frequency(s) for s in range(table.num_symbols)])
        # Canonical assignment: sort by (length, symbol).
        order = sorted(range(table.num_symbols), key=lambda s: (self.lengths[s], s))
        self._codes: Dict[int, Tuple[int, int]] = {}  # symbol -> (codeword, length)
        code = 0
        prev_len = 0
        for sym in order:
            length = self.lengths[sym]
            code <<= length - prev_len
            self._codes[sym] = (code, length)
            code += 1
            prev_len = length
        # Decode trie as a flat dict (prefix-free, so (len, bits) is unique).
        self._decode: Dict[Tuple[int, int], int] = {
            (length, bits): sym for sym, (bits, length) in self._codes.items()
        }
        self._max_len = max(self.lengths)

    @classmethod
    def from_probabilities(
        cls, probabilities: Sequence[float], *, precision: int = 4096
    ) -> "HuffmanCode":
        return cls(FrequencyTable.from_probabilities(probabilities, precision=precision))

    @property
    def num_symbols(self) -> int:
        return self.table.num_symbols

    def code_length(self, symbol: int) -> int:
        return self._codes[symbol][1]

    def expected_length(self, probabilities: Optional[Sequence[float]] = None) -> float:
        """Mean codeword length under ``probabilities`` (default: the table's)."""
        probs = probabilities if probabilities is not None else self.table.probabilities()
        if len(probs) != self.num_symbols:
            raise ValueError("distribution length mismatch")
        return sum(p * self.code_length(s) for s, p in enumerate(probs))

    def encode_symbol(self, writer: BitWriter, symbol: int) -> None:
        bits, length = self._codes[symbol]
        writer.write_uint(bits, length)

    def decode_symbol(self, reader: BitReader) -> int:
        window = reader.peek_uint(self._max_len)
        for length in range(1, self._max_len + 1):
            sym = self._decode.get((length, window >> (self._max_len - length)))
            if sym is not None:
                reader.read_uint(length)
                return sym
        reader.read_uint(self._max_len)
        raise ValueError("invalid Huffman codeword")

    def encode_sequence(self, symbols: Sequence[int]) -> BitWriter:
        writer = BitWriter()
        for s in symbols:
            self.encode_symbol(writer, s)
        return writer

    def decode_sequence(self, reader: BitReader, count: int) -> List[int]:
        if count < 0:
            raise ValueError("count must be >= 0")
        return [self.decode_symbol(reader) for _ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HuffmanCode(n={self.num_symbols}, max_len={self._max_len})"
