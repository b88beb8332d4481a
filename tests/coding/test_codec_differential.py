"""Differential tests: the word-granular codec against the bit-level reference.

:mod:`tests.coding.bitref` keeps the one-bit-per-step writer, reader and
renormalization loops. Every stream the library writes must be
byte-identical to the reference's, with the same exact bit length, and
every read must return the same value and leave the reader at the same
position, past the end of the stream included.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.arithmetic import MAX_MODEL_TOTAL, ArithmeticDecoder, ArithmeticEncoder
from repro.coding.bitio import BitReader, BitWriter
from repro.coding.freq import FrequencyTable
from tests.coding.bitref import (
    RefArithmeticDecoder,
    RefArithmeticEncoder,
    RefBitReader,
    RefBitWriter,
)

_write_op = st.one_of(
    st.tuples(st.just("bit"), st.integers(min_value=0, max_value=1)),
    st.integers(min_value=0, max_value=96).flatmap(
        lambda w: st.tuples(
            st.just("uint"), st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w)
        )
    ),
    st.tuples(st.just("unary"), st.integers(min_value=0, max_value=150)),
)


def _apply_write(writer, op):
    if op[0] == "bit":
        writer.write_bit(op[1])
    elif op[0] == "uint":
        writer.write_uint(op[1], op[2])
    else:
        writer.write_unary(op[1])


@settings(max_examples=200)
@given(st.lists(_write_op, max_size=60))
def test_writer_matches_reference(ops):
    fast, ref = BitWriter(), RefBitWriter()
    for op in ops:
        _apply_write(fast, op)
        _apply_write(ref, op)
        assert fast.bit_length == ref.bit_length
    assert fast.getvalue() == ref.getvalue()
    assert fast.to_bits() == ref.to_bits()
    assert fast.byte_length == len(ref.getvalue())


@settings(max_examples=100)
@given(st.lists(_write_op, max_size=30), st.lists(_write_op, max_size=30))
def test_writer_copy_matches_reference(head, tail):
    """A fork continues exactly like a writer that was never copied."""
    fast, ref = BitWriter(), RefBitWriter()
    for op in head:
        _apply_write(fast, op)
        _apply_write(ref, op)
    fork = fast.copy()
    for op in tail:
        _apply_write(fork, op)
        _apply_write(ref, op)
    assert fork.getvalue() == ref.getvalue()
    assert fork.bit_length == ref.bit_length


_read_op = st.one_of(
    st.just(("bit",)),
    st.tuples(st.just("uint"), st.integers(min_value=0, max_value=80)),
    st.just(("unary",)),
)


@settings(max_examples=300)
@given(
    st.binary(max_size=24).flatmap(
        lambda data: st.tuples(
            st.just(data), st.integers(min_value=0, max_value=8 * len(data))
        )
    ),
    st.lists(_read_op, max_size=40),
)
def test_reader_matches_reference(stream, ops):
    """Same values and positions, including reads past the end; the data
    bytes may hold set bits beyond ``bit_length``, which must read as 0."""
    data, bit_length = stream
    fast, ref = BitReader(data, bit_length), RefBitReader(data, bit_length)
    for op in ops:
        if op[0] == "bit":
            assert fast.read_bit() == ref.read_bit()
        elif op[0] == "uint":
            assert fast.read_uint(op[1]) == ref.read_uint(op[1])
        else:
            assert fast.read_unary() == ref.read_unary()
        assert fast.bits_consumed == ref.bits_consumed
        assert fast.bits_remaining == ref.bits_remaining
        assert fast.exhausted == ref.exhausted


def test_peek_does_not_consume():
    r = BitReader(bytes([0b10110000]), bit_length=4)
    assert r.peek_uint(6) == 0b101100
    assert r.bits_consumed == 0
    assert r.read_uint(6) == 0b101100
    assert r.peek_uint(3) == 0
    assert r.bits_consumed == 6


# -- arithmetic coder ---------------------------------------------------------


def _encode_both(symbols):
    """Encode ``(model, symbol)`` pairs with both coders, comparing the
    in-flight size after every symbol; return both finished streams."""
    fast, ref = ArithmeticEncoder(), RefArithmeticEncoder()
    for model, symbol in symbols:
        fast.encode_symbol(model, symbol)
        ref.encode_symbol(model, symbol)
        assert fast.bit_length == ref.bit_length
    finalized = fast.finalized_bit_length()
    out = fast.finish()
    assert finalized == out[1]
    return out, ref.finish()


def _decode_both(payload, models):
    data, nbits = payload
    fast, ref = ArithmeticDecoder(data, nbits), RefArithmeticDecoder(data, nbits)
    decoded = []
    for model in models:
        symbol = fast.decode_symbol(model)
        assert symbol == ref.decode_symbol(model)
        assert fast._reader.bits_consumed == ref.bits_consumed
        decoded.append(symbol)
    return decoded


def _roundtrip_identical(symbols):
    out, ref_out = _encode_both(symbols)
    assert out == ref_out
    models = [model for model, _ in symbols]
    assert _decode_both(out, models) == [symbol for _, symbol in symbols]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=5000), min_size=2, max_size=12),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
def test_arithmetic_matches_reference(freq_lists, data):
    models = [FrequencyTable(freqs) for freqs in freq_lists]
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(models) - 1),
                st.integers(min_value=0, max_value=11),
            ),
            max_size=200,
        )
    )
    symbols = [
        (models[m], s % models[m].num_symbols) for m, s in picks
    ]
    _roundtrip_identical(symbols)


@pytest.mark.parametrize("run", [1, 31, 32, 33, 500, 20_000])
def test_long_underflow_runs_match_reference(run):
    """The middle half of [1, 2, 1] straddles the midpoint: every symbol
    is one more E3 underflow step, so pending bits pile up ``run`` deep
    before a tail symbol resolves them."""
    straddle = FrequencyTable([1, 2, 1])
    for tail in (0, 2):
        _roundtrip_identical([(straddle, 1)] * run + [(straddle, tail)])
        _roundtrip_identical([(straddle, 0)] * 3 + [(straddle, 1)] * run)


@pytest.mark.parametrize("seed", range(6))
def test_models_at_the_precision_limit_match_reference(seed):
    """Totals at and just under MAX_MODEL_TOTAL, with a rare symbol of
    frequency 1, resolve up to 30 bits per symbol."""
    rng = random.Random(seed)
    rare = FrequencyTable([1, MAX_MODEL_TOTAL - 2, 1])
    skewed = FrequencyTable([MAX_MODEL_TOTAL - 7, 1, 2, 4])
    near = FrequencyTable([rng.randint(1, 1 << 28) for _ in range(4)])
    models = [rare, skewed, near]
    symbols = []
    for _ in range(400):
        model = rng.choice(models)
        symbols.append((model, rng.randrange(model.num_symbols)))
    _roundtrip_identical(symbols)


@settings(max_examples=150, deadline=None)
@given(
    st.binary(min_size=0, max_size=16).flatmap(
        lambda data: st.tuples(
            st.just(data), st.integers(min_value=0, max_value=8 * len(data))
        )
    ),
    st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=2, max_size=6),
    st.integers(min_value=1, max_value=60),
)
def test_arbitrary_bytes_decode_like_reference(stream, freqs, count):
    """Corrupt or random payloads decode to the same symbols (or fail
    the same way) and leave the reader at the same position."""
    data, nbits = stream
    model = FrequencyTable(freqs)
    fast, ref = ArithmeticDecoder(data, nbits), RefArithmeticDecoder(data, nbits)
    for _ in range(count):
        try:
            expected = ref.decode_symbol(model)
        except ValueError:
            with pytest.raises(ValueError):
                fast.decode_symbol(model)
            return
        assert fast.decode_symbol(model) == expected
        assert fast._reader.bits_consumed == ref.bits_consumed


def test_decoder_from_reader_continues_the_stream():
    """A decoder handed a reader mid-stream sees what a fresh decoder of
    the remaining bits sees."""
    model = FrequencyTable([5, 3, 1, 1])
    symbols = [0, 1, 3, 2, 0, 0, 1]
    enc = ArithmeticEncoder()
    for s in symbols:
        enc.encode_symbol(model, s)
    data, nbits = enc.finish()
    head = BitWriter()
    head.write_uint(0b101, 3)
    head.write_uint(int.from_bytes(data, "big") >> (8 * len(data) - nbits), nbits)
    reader = BitReader(head.getvalue(), head.bit_length)
    assert reader.read_uint(3) == 0b101
    dec = ArithmeticDecoder.from_reader(reader)
    assert dec.decode_sequence(model, len(symbols)) == symbols
