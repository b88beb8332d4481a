"""Retransmission-count symbol sets with aggregation.

Dophy's first optimization: rather than giving every possible
retransmission count 0..max_retries its own arithmetic-coding symbol
(a large, mostly-empty model that is expensive to estimate, disseminate,
and code against), counts ``>= K`` are *aggregated* into a single escape
symbol. The exact value of an escaped count travels in a cheap
Elias-gamma extension — or, in ``censored`` mode, is not sent at all and
the estimator treats the observation as "at least K" (saving the
extension bits at a small accuracy cost; see the F3 ablation).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

__all__ = ["SymbolSet", "EncodedCount"]


class EncodedCount(NamedTuple):
    """A retransmission count mapped into the symbol alphabet."""

    symbol: int
    #: Extra value (count - K) to ship in the gamma extension; None if exact.
    escape_extra: Optional[int]


class SymbolSet:
    """Maps retransmission counts to arithmetic-coding symbols and back.

    ``aggregation_threshold`` is Dophy's K: counts ``0 .. K-1`` are
    distinct symbols; every count ``>= K`` is the escape symbol ``K``.
    ``aggregation_threshold=None`` disables aggregation — the alphabet
    spans ``0 .. max_count`` (bounded by the MAC's retry cap).
    """

    def __init__(
        self,
        max_count: int,
        aggregation_threshold: Optional[int] = None,
    ) -> None:
        if max_count < 0:
            raise ValueError("max_count must be >= 0")
        if aggregation_threshold is not None:
            if not 1 <= aggregation_threshold <= max_count:
                raise ValueError(
                    "aggregation_threshold must be in [1, max_count] or None"
                )
        self.max_count = max_count
        self.aggregation_threshold = aggregation_threshold

    # -- properties -----------------------------------------------------------------

    @property
    def aggregated(self) -> bool:
        return self.aggregation_threshold is not None

    @property
    def num_symbols(self) -> int:
        """Alphabet size (K+1 when aggregated: exact symbols + escape)."""
        if self.aggregation_threshold is None:
            return self.max_count + 1
        return self.aggregation_threshold + 1

    @property
    def escape_symbol(self) -> Optional[int]:
        """The escape symbol's index, or None when not aggregating."""
        if self.aggregation_threshold is None:
            return None
        return self.aggregation_threshold

    def is_escape(self, symbol: int) -> bool:
        return self.aggregated and symbol == self.aggregation_threshold

    # -- mapping --------------------------------------------------------------------

    def to_symbol(self, count: int) -> EncodedCount:
        """Map a retransmission count to (symbol, escape extra)."""
        if not 0 <= count <= self.max_count:
            raise ValueError(
                f"count {count} out of range [0, {self.max_count}]"
            )
        k = self.aggregation_threshold
        if k is None or count < k:
            return EncodedCount(symbol=count, escape_extra=None)
        return EncodedCount(symbol=k, escape_extra=count - k)

    def from_symbol(self, symbol: int, escape_extra: Optional[int] = None) -> int:
        """Invert :meth:`to_symbol`. ``escape_extra`` required for the escape."""
        if not 0 <= symbol < self.num_symbols:
            raise ValueError(f"symbol {symbol} out of range [0, {self.num_symbols})")
        k = self.aggregation_threshold
        if k is not None and symbol == k:
            if escape_extra is None:
                raise ValueError("escape symbol requires escape_extra")
            count = k + escape_extra
            if count > self.max_count:
                raise ValueError(
                    f"escape extra {escape_extra} exceeds max_count {self.max_count}"
                )
            return count
        if escape_extra is not None:
            raise ValueError("non-escape symbol must not carry escape_extra")
        return symbol

    def symbol_counts_range(self, symbol: int) -> Tuple[int, int]:
        """Inclusive range of counts a symbol stands for (censored-mode support)."""
        if not 0 <= symbol < self.num_symbols:
            raise ValueError(f"symbol {symbol} out of range [0, {self.num_symbols})")
        k = self.aggregation_threshold
        if k is not None and symbol == k:
            return (k, self.max_count)
        return (symbol, symbol)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymbolSet)
            and self.max_count == other.max_count
            and self.aggregation_threshold == other.aggregation_threshold
        )

    def __hash__(self) -> int:
        return hash((self.max_count, self.aggregation_threshold))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SymbolSet(max_count={self.max_count},"
            f" K={self.aggregation_threshold}, symbols={self.num_symbols})"
        )
