"""Probability-model management — Dophy's second optimization.

All nodes in an epoch encode against shared static frequency tables, so
the sink's decoder never desynchronizes from the fleet of encoders. The
sink re-estimates the symbol distribution from recently decoded
annotations and, every ``update_period`` seconds, freezes new tables,
bumps the epoch, and *disseminates* them (we account the dissemination
bits — a table broadcast costs roughly one transmission per node).

Epoch numbers ride in every packet's annotation header (a small modular
field), and the sink keeps a window of recent tables so packets encoded
just before an update still decode.

**Lossy dissemination (extension).** By default dissemination is
idealized: every node switches to a published epoch after the global
``activation_delay``. With per-node epoch tracking enabled
(:meth:`ModelManager.enable_per_node_epochs`), each node instead tracks
the latest epoch it *actually received* from broadcast/repair rounds
(delivered by the protocol layer via :meth:`deliver_epoch`) and encodes
against that. Stale nodes keep using their old tables — each node
retains its last received model, mirrored here by an encoder-side
archive of expired epochs — and the sink's ``epoch_history`` window
absorbs moderately-stale packets; packets pinned to epochs beyond the
window fail to decode with cause ``unknown_epoch``.

**Link-class contexts (extension).** With ``num_classes > 1`` the sink
additionally classifies links into quality classes (by their recent mean
retransmission symbol) and maintains one table per class: good links
encode against a sharply-peaked model, bad links against a flatter one —
sharper than any single network-wide mixture. The per-link class map is
part of each dissemination (and is charged for), and both the encoding
node (for its inbound link) and the decoder look classes up in the
*packet's* epoch, so they always agree.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.freq import FrequencyTable
from repro.core.symbols import SymbolSet
from repro.utils.validation import check_positive, check_probability

__all__ = ["ModelManager", "geometric_symbol_probabilities"]

Link = Tuple[int, int]


def geometric_symbol_probabilities(
    symbol_set: SymbolSet, expected_loss: float
) -> List[float]:
    """Symbol distribution implied by a geometric retransmission process.

    If every link lost frames iid with probability ``expected_loss``, a
    retransmission count of ``c`` occurs with probability
    ``(1-p) * p^c`` (truncated at ``max_count``); aggregated symbols sum
    the tail. This is Dophy's *prior* model — what nodes encode against
    before the sink has measured anything.
    """
    p = check_probability(expected_loss, "expected_loss")
    counts = symbol_set.max_count + 1
    raw = [(1.0 - p) * (p**c) if p < 1.0 else 0.0 for c in range(counts)]
    total = sum(raw)
    if total <= 0:
        raw = [1.0] * counts
        total = float(counts)
    raw = [x / total for x in raw]
    probs = [0.0] * symbol_set.num_symbols
    for count, mass in enumerate(raw):
        probs[symbol_set.to_symbol(count).symbol] += mass
    return probs


class ModelManager:
    """Per-epoch static models with periodic sink-side re-estimation."""

    def __init__(
        self,
        symbol_set: SymbolSet,
        *,
        initial_expected_loss: float = 0.2,
        update_period: Optional[float] = 60.0,
        estimation_window: Optional[float] = None,
        table_precision: int = 4096,
        epoch_history: int = 4,
        num_nodes_for_dissemination: int = 0,
        bits_per_frequency: int = 12,
        num_classes: int = 1,
        activation_delay: float = 0.0,
        auto_aggregation: bool = False,
    ) -> None:
        """``update_period=None`` disables updates (the static-model ablation).

        ``estimation_window`` limits re-estimation to symbols decoded in the
        last window seconds (defaults to ``update_period``), so the model
        tracks drifting links instead of averaging over all history.
        ``num_classes > 1`` enables per-link-quality-class tables.
        ``activation_delay`` models dissemination latency: a published
        epoch only becomes current *for encoders* that many seconds after
        the sink froze it (the sink itself retains all recent epochs, so
        decoding is unaffected).
        ``auto_aggregation`` re-selects the aggregation threshold K at
        every update (per-epoch symbol sets), minimizing expected
        annotation + dissemination bits per hop — see
        :mod:`repro.core.autotune`.
        """
        if update_period is not None:
            check_positive(update_period, "update_period")
        if estimation_window is not None:
            check_positive(estimation_window, "estimation_window")
        if epoch_history < 1:
            raise ValueError("epoch_history must be >= 1")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if activation_delay < 0:
            raise ValueError("activation_delay must be >= 0")
        self.symbol_set = symbol_set
        self.update_period = update_period
        self.estimation_window = (
            estimation_window if estimation_window is not None else update_period
        )
        self.table_precision = table_precision
        self.epoch_history = epoch_history
        self.num_nodes_for_dissemination = num_nodes_for_dissemination
        self.bits_per_frequency = bits_per_frequency
        self.num_classes = num_classes
        self.activation_delay = activation_delay
        self.auto_aggregation = auto_aggregation

        initial = FrequencyTable.from_probabilities(
            geometric_symbol_probabilities(symbol_set, initial_expected_loss),
            precision=table_precision,
        )
        #: epoch -> per-class tables (all classes start identical).
        self._tables: Dict[int, List[FrequencyTable]] = {0: [initial] * num_classes}
        #: epoch -> directed link -> class id (missing = class 0).
        self._class_maps: Dict[int, Dict[Link, int]] = {0: {}}
        #: epoch -> symbol set (varies only under auto_aggregation).
        self._symbol_sets: Dict[int, SymbolSet] = {0: symbol_set}
        self._epoch = 0
        #: epoch -> time at which encoders start using it.
        self._activation: Dict[int, float] = {0: 0.0}
        #: (time, link-or-None, symbol) decode observations.
        self._observations: List[Tuple[float, Optional[Link], int]] = []
        self._dissemination_bits = 0
        self._updates_performed = 0
        #: node -> latest epoch the node received (None = idealized mode).
        self._node_epoch: Optional[Dict[int, int]] = None
        #: When False, :meth:`maybe_update` does not self-charge a flood;
        #: the protocol layer charges per broadcast round instead.
        self._auto_charge_dissemination = True
        #: Encoder-side retention of epochs evicted from the sink's decode
        #: window (every node keeps the last model it received, so stale
        #: encoders can still produce well-formed annotations).
        self._archive_tables: Dict[int, List[FrequencyTable]] = {}
        self._archive_class_maps: Dict[int, Dict[Link, int]] = {}
        self._archive_symbol_sets: Dict[int, SymbolSet] = {}

    # -- encoder-facing -----------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The newest epoch (the sink's view)."""
        return self._epoch

    def current_epoch_for(self, time: float) -> int:
        """The epoch encoders use at ``time`` (respects activation delay)."""
        candidates = [
            e for e, t in self._activation.items() if t <= time and e in self._tables
        ]
        if not candidates:
            return min(self._tables)  # everything still propagating: oldest retained
        return max(candidates)

    def table(self, epoch: Optional[int] = None, class_id: int = 0) -> FrequencyTable:
        """A class's model for ``epoch`` (default: current). KeyError if expired."""
        key = self._epoch if epoch is None else epoch
        if key not in self._tables:
            raise KeyError(
                f"model epoch {key} not available (have {sorted(self._tables)})"
            )
        if not 0 <= class_id < self.num_classes:
            raise ValueError(f"class_id {class_id} out of range")
        return self._tables[key][class_id]

    def class_of(self, epoch: int, link: Link) -> int:
        """The link's quality class in ``epoch`` (0 if unclassified)."""
        if epoch not in self._class_maps:
            raise KeyError(f"model epoch {epoch} not available")
        return self._class_maps[epoch].get(link, 0)

    def table_for_link(self, epoch: int, link: Link) -> FrequencyTable:
        """The table a hop over ``link`` encodes/decodes against in ``epoch``."""
        return self.table(epoch, self.class_of(epoch, link))

    def decode_models(
        self, epoch: int
    ) -> Tuple[List[FrequencyTable], Dict[Link, int], SymbolSet]:
        """What the sink decodes one packet of ``epoch`` against: the
        per-class tables, the link -> class map (missing = class 0) and
        the symbol set. KeyError if the epoch expired."""
        tables = self._tables.get(epoch)
        if tables is None:
            raise KeyError(
                f"model epoch {epoch} not available (have {sorted(self._tables)})"
            )
        return tables, self._class_maps[epoch], self._symbol_sets[epoch]

    def symbol_set_for(self, epoch: int) -> SymbolSet:
        """The symbol alphabet of ``epoch`` (varies only under auto mode)."""
        if epoch not in self._symbol_sets:
            raise KeyError(f"model epoch {epoch} not available")
        return self._symbol_sets[epoch]

    # -- per-node epochs (lossy dissemination) -------------------------------------

    @property
    def per_node_epochs(self) -> bool:
        """True when lossy dissemination (per-node epoch tracking) is enabled."""
        return self._node_epoch is not None

    def enable_per_node_epochs(
        self, nodes: Sequence[int], *, auto_charge_dissemination: bool = False
    ) -> None:
        """Switch to per-node epoch tracking for ``nodes`` (all start at 0).

        With ``auto_charge_dissemination=False`` (the default here) the
        caller owns overhead accounting per broadcast round via
        :meth:`charge_broadcast`; :meth:`maybe_update` then publishes
        without charging.
        """
        self._node_epoch = {n: 0 for n in nodes}
        self._auto_charge_dissemination = auto_charge_dissemination

    def deliver_epoch(self, node: int, epoch: int) -> bool:
        """Record that ``node`` received ``epoch``; True if it advanced."""
        if self._node_epoch is None:
            raise RuntimeError("per-node epochs not enabled")
        if node not in self._node_epoch:
            raise KeyError(f"node {node} not tracked for dissemination")
        if epoch <= self._node_epoch[node]:
            return False  # duplicate or out-of-order repair delivery
        self._node_epoch[node] = epoch
        return True

    def epoch_of_node(self, node: int) -> int:
        """The epoch ``node`` encodes against (its latest received one)."""
        if self._node_epoch is None:
            raise RuntimeError("per-node epochs not enabled")
        return self._node_epoch[node]

    def nodes_behind(self, epoch: int) -> List[int]:
        """Tracked nodes that have not yet received ``epoch`` (stragglers)."""
        if self._node_epoch is None:
            return []
        return sorted(n for n, e in self._node_epoch.items() if e < epoch)

    def encoder_models(
        self, epoch: int
    ) -> Tuple[List[FrequencyTable], Dict[Link, int], SymbolSet]:
        """Like :meth:`decode_models`, but also sees archived epochs.

        A node pinned to an epoch the sink already expired still holds
        its own copy of that epoch's tables — it encodes consistently;
        whether the *sink* can decode is a separate question answered by
        the (history-window-limited) decode-side lookups.
        """
        tables = self._tables.get(epoch)
        if tables is not None:
            return tables, self._class_maps[epoch], self._symbol_sets[epoch]
        tables = self._archive_tables.get(epoch)
        if tables is None:
            raise KeyError(f"model epoch {epoch} unknown to any encoder")
        return tables, self._archive_class_maps[epoch], self._archive_symbol_sets[epoch]

    @property
    def epoch_field_bits(self) -> int:
        """Bits of the per-packet epoch field (modular over the history window)."""
        return max(1, math.ceil(math.log2(self.epoch_history + 1)))

    def resolve_epoch_field(self, field_value: int) -> int:
        """Map a modular epoch-field value back to an absolute epoch.

        Chooses the most recent retained epoch congruent to ``field_value``.
        """
        modulus = 1 << self.epoch_field_bits
        candidates = [
            e for e in self._tables if e % modulus == field_value % modulus
        ]
        if not candidates:
            raise KeyError(f"no retained epoch matches field value {field_value}")
        return max(candidates)

    # -- sink-facing ----------------------------------------------------------------
    #
    # Observations are retransmission *counts* (clamped to max_count); in
    # censored escape mode the sink feeds the escape's lower bound — a
    # conservative tail attribution that folds into the same tail symbol.

    def observe_symbols(self, counts: Sequence[int], time: float) -> None:
        """Record decoded counts without link attribution (single-class feed)."""
        self._observations.extend((time, None, c) for c in counts)

    def observe_hops(self, pairs: Sequence[Tuple[Link, int]], time: float) -> None:
        """Record decoded (link, count) pairs — enables class contexts."""
        self._observations.extend((time, link, c) for link, c in pairs)

    def _classify_links(
        self, per_link_counts: Dict[Link, List[int]]
    ) -> Dict[Link, int]:
        """Quantile-classify links by their mean observed count."""
        if self.num_classes == 1 or not per_link_counts:
            return {}
        means = {
            link: sum(i * c for i, c in enumerate(counts)) / max(1, sum(counts))
            for link, counts in per_link_counts.items()
        }
        ordered = sorted(means.items(), key=lambda kv: kv[1])
        n = len(ordered)
        mapping: Dict[Link, int] = {}
        for idx, (link, _) in enumerate(ordered):
            mapping[link] = min(self.num_classes - 1, idx * self.num_classes // n)
        return mapping

    def _fold(self, count_histogram: Sequence[int], symbol_set: SymbolSet) -> List[int]:
        """Fold a raw count histogram into symbol frequencies."""
        out = [0] * symbol_set.num_symbols
        for count, c in enumerate(count_histogram):
            out[symbol_set.to_symbol(count).symbol] += c
        return out

    def maybe_update(self, time: float) -> bool:
        """Re-estimate and publish a new model epoch; True if published.

        Call this on the update schedule; it is also safe to call when
        updates are disabled (returns False).
        """
        if self.update_period is None:
            return False
        window = self.estimation_window
        cutoff = time - window if window is not None else -math.inf
        max_count = self.symbol_set.max_count
        kept: List[Tuple[float, Optional[Link], int]] = []
        global_hist = [0] * (max_count + 1)
        per_link: Dict[Link, List[int]] = defaultdict(
            lambda: [0] * (max_count + 1)
        )
        for t, link, c in self._observations:
            if t >= cutoff:
                kept.append((t, link, c))
                c = min(c, max_count)
                global_hist[c] += 1
                if link is not None:
                    per_link[link][c] += 1
        self._observations = kept
        total_hops = sum(global_hist)
        if total_hops == 0:
            return False  # nothing decoded yet; keep the old model
        # The alphabet for the new epoch: re-tuned under auto mode, else
        # the same set every epoch.
        if self.auto_aggregation and max_count >= 1:
            from repro.core.autotune import choose_aggregation_threshold

            k = choose_aggregation_threshold(
                global_hist,
                max_count=max_count,
                num_nodes=self.num_nodes_for_dissemination,
                hops_per_update=float(total_hops),
                bits_per_frequency=self.bits_per_frequency,
            )
            symbol_set = SymbolSet(max_count, k)
        else:
            symbol_set = self.symbol_set_for(self._epoch)
        class_map = self._classify_links(per_link)
        tables: List[FrequencyTable] = []
        for class_id in range(self.num_classes):
            hist = [0] * (max_count + 1)
            for link, link_hist in per_link.items():
                if class_map.get(link, 0) == class_id:
                    for i, c in enumerate(link_hist):
                        hist[i] += c
            if self.num_classes == 1 or sum(hist) == 0:
                hist = global_hist  # single class / empty class -> pool
            counts = self._fold(hist, symbol_set)
            table = FrequencyTable.from_counts(counts, smoothing=1)
            # Re-quantize for a fixed dissemination size.
            tables.append(
                FrequencyTable.from_probabilities(
                    table.probabilities(), precision=self.table_precision
                )
            )
        self._epoch += 1
        self._tables[self._epoch] = tables
        self._class_maps[self._epoch] = class_map
        self._symbol_sets[self._epoch] = symbol_set
        self._activation[self._epoch] = time + self.activation_delay
        while len(self._tables) > self.epoch_history:
            victim = min(self._tables)
            # The sink's decode window drops the epoch, but encoders out
            # in the network still hold their copies — archive for them.
            self._archive_tables[victim] = self._tables.pop(victim)
            self._archive_class_maps[victim] = self._class_maps.pop(victim)
            if victim in self._symbol_sets:
                self._archive_symbol_sets[victim] = self._symbol_sets.pop(victim)
            self._activation.pop(victim, None)
        if self._auto_charge_dissemination:
            self._dissemination_bits += self.dissemination_cost_bits(tables, class_map)
        self._updates_performed += 1
        return True

    # -- cost accounting -----------------------------------------------------------

    @property
    def class_id_bits(self) -> int:
        return max(1, math.ceil(math.log2(max(2, self.num_classes))))

    def dissemination_cost_bits(
        self,
        tables: Sequence[FrequencyTable] | FrequencyTable,
        class_map: Optional[Dict[Link, int]] = None,
    ) -> int:
        """Network-wide cost of broadcasting one model update.

        A flood reaches every node once; its payload is every class's
        serialized table plus (for multi-class operation) the per-link
        class map. Cost = payload * node count (0 if dissemination
        accounting is disabled).
        """
        if isinstance(tables, FrequencyTable):
            tables = [tables]
        payload = sum(
            t.serialized_size_bits(bits_per_frequency=self.bits_per_frequency)
            for t in tables
        )
        if self.num_classes > 1 and class_map:
            # Each map entry: two node ids are implicit in a canonical link
            # ordering known network-wide, so only the class id is carried.
            payload += len(class_map) * self.class_id_bits
        return payload * max(0, self.num_nodes_for_dissemination)

    def epoch_payload_bits(self, epoch: int) -> int:
        """Per-receiver payload of broadcasting ``epoch``'s model."""
        tables = self._tables.get(epoch)
        class_map = self._class_maps.get(epoch)
        if tables is None:
            tables = self._archive_tables.get(epoch)
            class_map = self._archive_class_maps.get(epoch)
        if tables is None:
            raise KeyError(f"model epoch {epoch} unknown")
        payload = sum(
            t.serialized_size_bits(bits_per_frequency=self.bits_per_frequency)
            for t in tables
        )
        if self.num_classes > 1 and class_map:
            payload += len(class_map) * self.class_id_bits
        return payload

    def charge_broadcast(self, epoch: int, num_receivers: int) -> int:
        """Charge one broadcast/repair round of ``epoch`` to the control plane.

        Returns the bits charged (payload × receivers). Used by the
        protocol layer when per-round accounting replaces the idealized
        one-flood-per-update charge.
        """
        if num_receivers < 0:
            raise ValueError("num_receivers must be >= 0")
        bits = self.epoch_payload_bits(epoch) * num_receivers
        self._dissemination_bits += bits
        return bits

    @property
    def total_dissemination_bits(self) -> int:
        return self._dissemination_bits

    @property
    def updates_performed(self) -> int:
        return self._updates_performed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModelManager(epoch={self._epoch}, classes={self.num_classes},"
            f" updates={self._updates_performed},"
            f" dissem_bits={self._dissemination_bits})"
        )
