"""Performance microbenchmarks: the entropy-coding hot paths.

Unlike the experiment benches (one round each), these run proper
multi-round timings — the numbers to watch when optimizing the coder.
"""

import numpy as np

from repro.coding.arithmetic import ArithmeticDecoder, ArithmeticEncoder
from repro.coding.bitio import BitReader, BitWriter
from repro.coding.freq import AdaptiveFrequencyTable, FrequencyTable
from repro.coding.huffman import HuffmanCode
from repro.core.annotation import AnnotationCodec
from repro.core.config import DophyConfig
from repro.core.decoder import decode_annotation
from repro.core.model import ModelManager
from repro.core.symbols import SymbolSet

_TABLE = FrequencyTable([900, 70, 20, 10])
_RNG = np.random.default_rng(7)
_SYMBOLS = list(_RNG.choice(4, p=[0.9, 0.07, 0.02, 0.01], size=2000))
_ENCODED = None


def _encoded():
    global _ENCODED
    if _ENCODED is None:
        enc = ArithmeticEncoder()
        for s in _SYMBOLS:
            enc.encode_symbol(_TABLE, s)
        _ENCODED = enc.finish()
    return _ENCODED


def test_perf_arithmetic_encode(benchmark):
    def encode():
        enc = ArithmeticEncoder()
        for s in _SYMBOLS:
            enc.encode_symbol(_TABLE, s)
        return enc.finish()

    data, bits = benchmark(encode)
    assert bits < len(_SYMBOLS) * 2


def test_perf_arithmetic_decode(benchmark):
    data, bits = _encoded()

    def decode():
        dec = ArithmeticDecoder(data, bits)
        return [dec.decode_symbol(_TABLE) for _ in range(len(_SYMBOLS))]

    out = benchmark(decode)
    assert out == _SYMBOLS


def test_perf_huffman_encode(benchmark):
    code = HuffmanCode(_TABLE)

    def encode():
        return code.encode_sequence(_SYMBOLS)

    writer = benchmark(encode)
    assert writer.bit_length > 0


def test_perf_adaptive_table_updates(benchmark):
    def run():
        table = AdaptiveFrequencyTable(16)
        for s in _SYMBOLS:
            table.update(s % 16)
        return table.total

    total = benchmark(run)
    assert total > len(_SYMBOLS)


def test_perf_bitio_roundtrip(benchmark):
    values = [int(v) for v in _RNG.integers(0, 2**16, size=3000)]

    def roundtrip():
        w = BitWriter()
        for v in values:
            w.write_uint(v, 16)
        r = BitReader(w.getvalue(), w.bit_length)
        return [r.read_uint(16) for _ in values]

    out = benchmark(roundtrip)
    assert out == values


def _explicit_path_annotations(num_nodes=1000, packets=300):
    """Annotated packets of a ``num_nodes``-node network in explicit path
    mode: random sink-bound paths of 1-30 hops with geometric retransmission
    counts, escapes (count >= K) included."""
    cfg = DophyConfig()
    models = ModelManager(
        SymbolSet(cfg.max_count, cfg.aggregation_threshold),
        num_nodes_for_dissemination=num_nodes,
    )
    codec = AnnotationCodec(cfg, models, num_nodes)
    rng = np.random.default_rng(11)
    packets_out = []
    for _ in range(packets):
        hops = int(rng.integers(1, 31))
        path = [int(n) for n in rng.choice(np.arange(1, num_nodes), size=hops, replace=False)]
        path.append(0)
        counts = [min(int(c), cfg.max_count) for c in rng.geometric(0.6, size=hops) - 1]
        annotation = codec.new_annotation()
        for sender, receiver, count in zip(path, path[1:], counts):
            codec.annotate_hop(annotation, sender, receiver, count)
        packets_out.append((annotation, path, counts))
    return codec, packets_out


def test_perf_annotation_serialize_decode(benchmark):
    """The sink hand-off's codec work: serialize then decode every packet."""
    codec, packets = _explicit_path_annotations()

    def handoff():
        out = []
        for annotation, path, _ in packets:
            data, bits = codec.serialize(annotation)
            out.append(decode_annotation(data, bits, codec, origin=path[0], sink=0))
        return out

    decoded = benchmark(handoff)
    for result, (_, path, counts) in zip(decoded, packets):
        assert result.path == path
        assert [hop.retx_count for hop in result.hops] == counts
