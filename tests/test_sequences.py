import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq.errors import DomainError
from oseq.sequences import (
    OrientableSequence,
    format_symbols,
    parse_sequence_file,
    parse_symbols,
    read_sequence_file,
    serialize_sequence,
    write_sequence_file,
)


def make_seq(k, n, symbols):
    return OrientableSequence(k=k, n=n, period=len(symbols),
                              symbols=np.asarray(symbols))


def test_sequence_validation():
    with pytest.raises(DomainError):
        make_seq(3, 2, [0, 1, 3])
    with pytest.raises(DomainError):
        make_seq(3, 1, [0, 1, 2])
    with pytest.raises(DomainError):
        OrientableSequence(k=3, n=2, period=4, symbols=np.array([0, 1, 2]))


def test_symbols_read_only():
    seq = make_seq(3, 2, [0, 1, 2])
    with pytest.raises(ValueError):
        seq.symbols[0] = 1


def test_format_symbols():
    assert format_symbols([0, 1, 2], 3) == "012"
    assert format_symbols([0, 10, 3], 11) == "0,10,3"


@pytest.mark.parametrize("k", [2, 10, 11])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_format_symbols_matches_per_symbol_strings(k, dtype):
    symbols = np.random.default_rng(k).integers(0, k, 5000).astype(dtype)
    items = [str(int(s)) for s in symbols]
    want = "".join(items) if k <= 10 else ",".join(items)
    assert format_symbols(symbols, k) == want
    assert format_symbols(symbols.tolist(), k) == want


def test_serialize_round_trip():
    seq = make_seq(5, 3, [0, 1, 2, 3, 4, 1])
    text = serialize_sequence(seq, method="a")
    parsed = parse_sequence_file(text)
    assert parsed.k == 5
    assert parsed.n == 3
    assert parsed.period == 6
    assert parsed.method == "a"
    assert list(parsed.symbols) == [0, 1, 2, 3, 4, 1]


def test_serialize_wide_alphabet():
    seq = make_seq(12, 2, [0, 11, 5])
    text = serialize_sequence(seq)
    assert "0,11,5" in text
    parsed = parse_sequence_file(text)
    assert list(parsed.symbols) == [0, 11, 5]


@pytest.mark.parametrize("text", [
    "",
    "0123\n",
    "k=3 n=2 period=3 method=a\n",
    "k=3 n=2 period=3 method=a\n012\n210\n",
    "k=3 n=2 period=4 method=a\n012\n",
    "k=3 n=2 period=3 method=a\n013\n",
    "k=x n=2 period=3 method=a\n012\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(DomainError):
        parse_sequence_file(text)


def test_file_round_trip(tmp_path):
    seq = make_seq(4, 3, [0, 0, 1, 1, 2, 0, 1, 2, 2, 3])
    path = tmp_path / "seq.txt"
    write_sequence_file(path, seq, method="lempel")
    parsed = read_sequence_file(path)
    assert parsed.k == 4 and parsed.n == 3 and parsed.period == 10
    assert parsed.method == "lempel"
    assert np.array_equal(np.asarray(parsed.symbols), seq.symbols)


@given(st.integers(min_value=2, max_value=15).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.integers(min_value=0, max_value=k - 1),
                 min_size=2, max_size=40),
    )
))
def test_serialize_parse_identity(kv):
    k, syms = kv
    seq = OrientableSequence(k=k, n=2, period=len(syms),
                             symbols=np.asarray(syms))
    parsed = parse_sequence_file(serialize_sequence(seq))
    assert parsed.k == k
    assert list(parsed.symbols) == syms


def test_parse_symbols_follows_alphabet_format():
    narrow = parse_symbols("0120", 3)
    assert narrow.dtype == np.uint8 and narrow.tolist() == [0, 1, 2, 0]
    wide = parse_symbols("10,0,11", 12)
    assert wide.dtype == np.int64 and wide.tolist() == [10, 0, 11]
    assert not narrow.flags.writeable and not wide.flags.writeable
    # Only ASCII decimal digits count: int() would also take the
    # Arabic-Indic "٣١٢", strip " " and "+", and read "1_0" as 10.
    for raw, k in [("013", 3), ("0,1", 3), ("1,x", 12), ("12,3", 12), ("", 4),
                   ("٣١٢", 4), ("²1", 4), ("1_0,2", 12), (" 3,+4", 12),
                   ("3,,4", 12)]:
        with pytest.raises(DomainError):
            parse_symbols(raw, k)



def test_parsed_symbols_are_a_read_only_array():
    parsed = parse_sequence_file("k=3 n=2 period=4 method=a\n0120\n")
    assert parsed.symbols.dtype == np.uint8
    assert not parsed.symbols.flags.writeable
    with pytest.raises(ValueError):
        parsed.symbols[0] = 1
    # A symbol below a huge k can still be too wide for int64.
    with pytest.raises(DomainError, match="64 bits"):
        parse_symbols(f"1,{2**63}", 2**64)
    assert parse_symbols(f"1,{2**63 - 1}", 2**64).tolist() == [1, 2**63 - 1]
