"""The Dophy in-packet annotation and its wire codec.

Every data packet carries one :class:`DophyAnnotation`. At each hop the
*receiver* (which learns the attempt index from the received frame's MAC
header) appends the hop's retransmission-count symbol to the running
arithmetic codeword, and (in explicit path mode) records its own node id.

Wire format (bit-packed, MSB-first):

====================  =======================================================
field                 width
====================  =======================================================
epoch                 ``model_manager.epoch_field_bits`` (modular epoch id)
hop_count             Elias gamma (short paths pay few bits)
path ids              ``hop_count * node_id_bits``   (explicit mode only)
arithmetic payload    everything to the end of the annotation
====================  =======================================================

The arithmetic section is the *last* section, so it needs no length
field — the radio frame's own length delimits it (our accounting uses
exact bit counts; byte padding would add < 8 bits uniformly to every
scheme). Escape extras are **bypass-coded**: the gamma bits of an
escaped count are fed through the arithmetic coder under a uniform
binary model, costing exactly one output bit each, which keeps the whole
annotation a single self-contained stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.coding.arithmetic import ArithmeticEncoder
from repro.coding.baseline_codes import EliasGammaCode
from repro.coding.bitio import BitWriter
from repro.coding.freq import FrequencyTable
from repro.core.config import DophyConfig
from repro.core.model import ModelManager
from repro.core.path_codec import PathRankModel
from repro.core.symbols import SymbolSet

__all__ = ["DophyAnnotation", "AnnotationCodec", "BYPASS_MODEL"]

_GAMMA = EliasGammaCode()
#: Uniform binary model for bypass-coded bits (exactly 1 bit each).
BYPASS_MODEL = FrequencyTable([1, 1])


@dataclass
class DophyAnnotation:
    """Mutable in-flight annotation state carried inside a packet."""

    epoch: int
    encoder: ArithmeticEncoder = field(default_factory=ArithmeticEncoder)
    path_ids: List[int] = field(default_factory=list)
    #: Encoder-side record of emitted symbols (diagnostics; not transmitted).
    symbols: List[int] = field(default_factory=list)

    @property
    def hop_count(self) -> int:
        return len(self.symbols)


class AnnotationCodec:
    """Encodes hops into annotations and computes wire sizes.

    One codec instance is shared by all (simulated) nodes — it holds the
    symbol set, the model manager (for per-epoch tables) and the header
    geometry. Decoding lives in :mod:`repro.core.decoder`.
    """

    def __init__(
        self,
        config: DophyConfig,
        model_manager: ModelManager,
        num_nodes: int,
        path_model: "PathRankModel | None" = None,
    ) -> None:
        self.config = config
        self.models = model_manager
        self.num_nodes = num_nodes
        self.symbol_set: SymbolSet = model_manager.symbol_set
        if config.path_encoding == "compressed" and path_model is None:
            raise ValueError("compressed path encoding requires a PathRankModel")
        self.path_model = path_model
        self.node_id_bits = (
            DophyConfig.node_id_bits(num_nodes)
            if config.path_encoding == "explicit"
            else 0
        )

    # -- encoding ---------------------------------------------------------------

    def new_annotation(
        self, time: Optional[float] = None, origin: Optional[int] = None
    ) -> DophyAnnotation:
        """Fresh annotation pinned to the model epoch active at ``time``.

        Without a time the newest epoch is used (zero-delay dissemination).
        Under lossy dissemination (per-node epoch tracking) the packet is
        pinned to ``origin``'s *locally received* epoch instead — a stale
        origin keeps encoding against the last model it actually got.
        """
        if origin is not None and self.models.per_node_epochs:
            epoch = self.models.epoch_of_node(origin)
        elif time is not None:
            epoch = self.models.current_epoch_for(time)
        else:
            epoch = self.models.current_epoch
        return DophyAnnotation(epoch=epoch)

    def annotate_hop(
        self,
        annotation: DophyAnnotation,
        sender_id: int,
        receiver_id: int,
        retx_count: int,
    ) -> None:
        """Append one hop's contribution (called at the receiving node)."""
        encoder = annotation.encoder
        mode = self.config.path_encoding
        if mode == "compressed":
            # Rank symbol first: the decoder must identify the receiver
            # before attributing the following count symbol to a link.
            rank = self.path_model.rank(sender_id, receiver_id)
            encoder.encode_symbol(self.path_model.table, rank)
        # Encoder-side lookup: nodes keep the last model they received,
        # so this also sees epochs the sink's decode window already evicted.
        tables, class_map, symbol_set = self.models.encoder_models(annotation.epoch)
        symbol, extra = symbol_set.to_symbol(min(retx_count, symbol_set.max_count))
        encoder.encode_symbol(tables[class_map.get((sender_id, receiver_id), 0)], symbol)
        annotation.symbols.append(symbol)
        if extra is not None and self.config.escape_mode == "exact":
            # Bypass-code the gamma bits of the extra into the same stream.
            gamma_bits = BitWriter()
            _GAMMA.encode_value(gamma_bits, extra)
            for bit in gamma_bits.to_bits():
                encoder.encode_symbol(BYPASS_MODEL, bit)
        if mode == "explicit":
            annotation.path_ids.append(receiver_id)

    # -- wire size / serialization ---------------------------------------------------

    def header_bits(self, annotation: DophyAnnotation) -> int:
        """Epoch field plus the gamma-coded hop count."""
        return self.models.epoch_field_bits + _GAMMA.code_length(annotation.hop_count)

    def wire_size_bits(self, annotation: DophyAnnotation) -> int:
        """Exact on-air size the annotation would have if delivered now."""
        return (
            self.header_bits(annotation)
            + annotation.hop_count * self.node_id_bits
            + annotation.encoder.finalized_bit_length()
        )

    def serialize(self, annotation: DophyAnnotation) -> Tuple[bytes, int]:
        """Produce the actual wire bits (finalizes a copy of the codeword)."""
        arith_data, arith_bits = annotation.encoder.copy().finish()
        out = BitWriter()
        epoch_bits = self.models.epoch_field_bits
        out.write_uint(annotation.epoch % (1 << epoch_bits), epoch_bits)
        _GAMMA.encode_value(out, annotation.hop_count)
        if self.config.path_encoding == "explicit":
            for node_id in annotation.path_ids:
                out.write_uint(node_id, self.node_id_bits)
        # Copy the arithmetic payload bit-exactly, as one field; it runs
        # to the end.
        payload = int.from_bytes(arith_data, "big") >> (8 * len(arith_data) - arith_bits)
        out.write_uint(payload, arith_bits)
        return out.getvalue(), out.bit_length
