"""Frequency models for the arithmetic coder.

A frequency model maps symbols ``0..n-1`` to integer frequencies and
answers two queries:

* encode side — the cumulative interval ``[cum_lo, cum_hi)`` of a symbol;
* decode side — which symbol owns a given scaled cumulative value.

Two implementations are provided. :class:`FrequencyTable` is immutable and
is what Dophy uses operationally: every node in an epoch encodes against
the *same* static table, so the single sink decoder stays synchronized
with the many encoders without per-packet state. The table is re-derived
periodically by the sink (see :mod:`repro.core.model`).
:class:`AdaptiveFrequencyTable` (Fenwick-tree backed, increment-on-encode)
exists for the single-stream setting and for the ablation comparing
per-packet-adaptive against Dophy's periodic static models.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence, Tuple

__all__ = ["FrequencyTable", "AdaptiveFrequencyTable"]


class FrequencyTable:
    """Immutable integer frequency table over symbols ``0..n-1``.

    Frequencies must be strictly positive: a zero-frequency symbol would be
    unencodable, and Dophy guarantees decodability of any count sequence by
    smoothing the estimated distribution (see ``from_probabilities``).
    """

    def __init__(self, frequencies: Sequence[int]) -> None:
        freqs = [int(f) for f in frequencies]
        if not freqs:
            raise ValueError("frequency table must contain at least one symbol")
        if any(f <= 0 for f in freqs):
            raise ValueError("all frequencies must be > 0")
        self._freqs: Tuple[int, ...] = tuple(freqs)
        cumulative = [0]
        for f in freqs:
            cumulative.append(cumulative[-1] + f)
        self._cum: Tuple[int, ...] = tuple(cumulative)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def uniform(cls, num_symbols: int) -> "FrequencyTable":
        """Equal-frequency table over ``num_symbols`` symbols."""
        if num_symbols <= 0:
            raise ValueError("num_symbols must be > 0")
        return cls([1] * num_symbols)

    @classmethod
    def from_counts(
        cls, counts: Sequence[int], *, smoothing: int = 1
    ) -> "FrequencyTable":
        """Build from observed symbol counts with additive smoothing.

        ``smoothing >= 1`` guarantees every symbol stays encodable even if
        it was never observed in the estimation window.
        """
        if smoothing < 1:
            raise ValueError("smoothing must be >= 1 to keep all symbols encodable")
        return cls([int(c) + smoothing for c in counts])

    @classmethod
    def from_probabilities(
        cls,
        probabilities: Sequence[float],
        *,
        precision: int = 4096,
    ) -> "FrequencyTable":
        """Quantize a probability vector to integer frequencies.

        Each symbol receives at least frequency 1 (implicit smoothing), and
        the rest of the ``precision`` budget is distributed proportionally.
        """
        probs = [float(p) for p in probabilities]
        if not probs:
            raise ValueError("probabilities must be non-empty")
        if any(p < 0 or math.isnan(p) for p in probs):
            raise ValueError("probabilities must be non-negative")
        total = sum(probs)
        if total <= 0:
            return cls.uniform(len(probs))
        if precision < len(probs):
            raise ValueError("precision must be >= number of symbols")
        budget = precision - len(probs)
        freqs = [1 + int(round(budget * p / total)) for p in probs]
        return cls(freqs)

    # -- model interface -----------------------------------------------------

    @property
    def num_symbols(self) -> int:
        return len(self._freqs)

    @property
    def total(self) -> int:
        """Sum of all frequencies (the denominator of every interval)."""
        return self._cum[-1]

    def frequency(self, symbol: int) -> int:
        self._check_symbol(symbol)
        return self._freqs[symbol]

    def interval(self, symbol: int) -> Tuple[int, int, int]:
        """Return ``(cum_lo, cum_hi, total)`` for ``symbol``."""
        self._check_symbol(symbol)
        return self._cum[symbol], self._cum[symbol + 1], self._cum[-1]

    def symbol_for(self, scaled_value: int) -> int:
        """Return the symbol whose cumulative interval contains ``scaled_value``."""
        if not 0 <= scaled_value < self.total:
            raise ValueError(
                f"scaled_value {scaled_value} out of range [0, {self.total})"
            )
        return bisect_right(self._cum, scaled_value) - 1

    def probability(self, symbol: int) -> float:
        """The probability this table assigns to ``symbol``."""
        return self.frequency(symbol) / self.total

    def probabilities(self) -> List[float]:
        total = self.total
        return [f / total for f in self._freqs]

    def entropy_bits(self) -> float:
        """Shannon entropy (bits/symbol) of the table's distribution."""
        return -sum(p * math.log2(p) for p in self.probabilities() if p > 0)

    def expected_code_length(self, true_probabilities: Sequence[float]) -> float:
        """Cross-entropy (bits/symbol) of coding ``true_probabilities`` with this model.

        This is the asymptotic per-symbol cost an arithmetic coder pays when
        the source follows ``true_probabilities`` but the code uses this
        table — the quantity Dophy's periodic model updates minimize.
        """
        if len(true_probabilities) != self.num_symbols:
            raise ValueError("distribution length mismatch")
        model = self.probabilities()
        cost = 0.0
        for p_true, p_model in zip(true_probabilities, model):
            if p_true > 0:
                cost -= p_true * math.log2(p_model)
        return cost

    def serialized_size_bits(self, *, bits_per_frequency: int = 12) -> int:
        """Bits needed to disseminate this table to the network.

        Dophy broadcasts updated models; this is the payload cost counted by
        the overhead accounting (one quantized frequency per symbol plus a
        symbol-count byte).
        """
        return 8 + self.num_symbols * bits_per_frequency

    # -- misc ------------------------------------------------------------------

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < len(self._freqs):
            raise ValueError(
                f"symbol {symbol} out of range [0, {len(self._freqs)})"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrequencyTable) and self._freqs == other._freqs

    def __hash__(self) -> int:
        return hash(self._freqs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FrequencyTable(n={self.num_symbols}, total={self.total})"


class AdaptiveFrequencyTable:
    """Fenwick-tree-backed adaptive frequency model.

    Starts uniform and increments a symbol's frequency after each
    encode/decode, so encoder and decoder adapt in lockstep *within one
    stream*. Unsuitable for Dophy's many-encoders-one-decoder deployment
    (each node would adapt on its own packets only, desynchronizing from
    the sink) — included as the natural strawman for the model-management
    ablation and for single-stream compression uses.
    """

    def __init__(self, num_symbols: int, *, increment: int = 32, max_total: int = 1 << 24) -> None:
        if num_symbols <= 0:
            raise ValueError("num_symbols must be > 0")
        if increment <= 0:
            raise ValueError("increment must be > 0")
        self._n = num_symbols
        self._increment = increment
        self._max_total = max_total
        self._freqs = [1] * num_symbols
        self._tree = [0] * (num_symbols + 1)
        for i in range(num_symbols):
            self._tree_add(i, 1)
        self._total = num_symbols

    # Fenwick primitives -------------------------------------------------------

    def _tree_add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self._n:
            self._tree[i] += delta
            i += i & (-i)

    def _prefix_sum(self, index: int) -> int:
        """Sum of frequencies of symbols < index."""
        total = 0
        i = index
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return total

    # Model interface -----------------------------------------------------------

    @property
    def num_symbols(self) -> int:
        return self._n

    @property
    def total(self) -> int:
        return self._total

    def frequency(self, symbol: int) -> int:
        self._check_symbol(symbol)
        return self._freqs[symbol]

    def interval(self, symbol: int) -> Tuple[int, int, int]:
        self._check_symbol(symbol)
        lo = self._prefix_sum(symbol)
        return lo, lo + self._freqs[symbol], self._total

    def symbol_for(self, scaled_value: int) -> int:
        if not 0 <= scaled_value < self._total:
            raise ValueError(
                f"scaled_value {scaled_value} out of range [0, {self._total})"
            )
        # Fenwick descent: find the largest index with prefix_sum <= value.
        idx = 0
        remaining = scaled_value
        bitmask = 1 << (self._n.bit_length())
        while bitmask:
            nxt = idx + bitmask
            if nxt <= self._n and self._tree[nxt] <= remaining:
                idx = nxt
                remaining -= self._tree[nxt]
            bitmask >>= 1
        return idx  # idx symbols have cumulative <= value => symbol index idx

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol`` (call after encode/decode)."""
        self._check_symbol(symbol)
        self._freqs[symbol] += self._increment
        self._tree_add(symbol, self._increment)
        self._total += self._increment
        if self._total > self._max_total:
            self._rescale()

    def _rescale(self) -> None:
        """Halve all frequencies (keeping them >= 1) to avoid overflow."""
        new_freqs = [max(1, f // 2) for f in self._freqs]
        self._freqs = new_freqs
        self._tree = [0] * (self._n + 1)
        for i, f in enumerate(new_freqs):
            self._tree_add(i, f)
        self._total = sum(new_freqs)

    def snapshot(self) -> FrequencyTable:
        """Freeze the current adaptive state into a static table."""
        return FrequencyTable(self._freqs)

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self._n:
            raise ValueError(f"symbol {symbol} out of range [0, {self._n})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AdaptiveFrequencyTable(n={self._n}, total={self._total})"
