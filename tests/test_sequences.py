import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.errors import DomainError, ResourceCapError
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
    # Up to k = 10, a byte next to the digits in ASCII, a control byte, a
    # non-ASCII digit or no symbol at all is not a digit; a digit past the
    # alphabet is out of range, and only once every byte is a digit.
    for raw in ["/", ":", "\x00", " ", "\x7f", "٣", "", "01/", "9:", "0\x00"]:
        with pytest.raises(DomainError, match="contiguous digits for k <= 10"):
            parse_symbols(raw, 10)
    for raw in ["5", "0125", "9"]:
        with pytest.raises(DomainError, match="out of range for alphabet size 5"):
            parse_symbols(raw, 5)
    with pytest.raises(DomainError, match="contiguous digits"):
        parse_symbols("9/", 5)


@given(st.text(st.sampled_from("0123456789") | st.characters(max_codepoint=0x700),
               max_size=8), st.integers(2, 10))
def test_narrow_parse_accepts_what_the_str_rule_accepts(raw, k):
    # The byte check agrees with the rule it replaced: ASCII decimal digits
    # only, at least one of them, each below k.
    if not (raw.isascii() and raw.isdigit()):
        with pytest.raises(DomainError, match="contiguous digits"):
            parse_symbols(raw, k)
    elif max(map(int, raw)) >= k:
        with pytest.raises(DomainError, match="out of range"):
            parse_symbols(raw, k)
    else:
        assert parse_symbols(raw, k).tolist() == [int(c) for c in raw]



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


def test_wide_parse_names_a_symbol_past_the_digit_limit():
    # int() refuses more than 4300 digits, leading zeros included; that is
    # a DomainError too.  Shorter fields keep their value or their message.
    for field in ("9" * 5000, "0" * 4300 + "1", "1" * 4301):
        with pytest.raises(DomainError, match="^a symbol has too many digits to read$"):
            parse_symbols(f"1,{field}", 11)
    with pytest.raises(DomainError, match=f"^symbol {'9' * 4300} does not fit in 64 bits$"):
        parse_symbols(f"1,{'9' * 4300}", 11)
    with pytest.raises(DomainError, match=f"^symbol {'9' * 25} does not fit in 64 bits$"):
        parse_symbols(f"{'9' * 25},1", 11)
    assert parse_symbols(f"{'0' * 4299}7,007,10", 11).tolist() == [7, 7, 10]


def test_header_fields_are_ascii_digits_that_int_can_read():
    # int() would take the Arabic-Indic "٣" as 3; the header reads ASCII
    # digits only, as the symbol line does.
    with pytest.raises(DomainError, match="^malformed header line: 'k=٣ n=2 period=2 method=a'$"):
        parse_sequence_file("k=٣ n=2 period=2 method=a\n01\n")
    # Past int()'s 4300-digit limit, leading zeros included, a field is
    # named; up to it, the value is read as before.
    for name, header in [("k", f"k={'1' * 5000} n=2 period=2"),
                         ("n", f"k=3 n={'0' * 4300}2 period=2"),
                         ("period", f"k=3 n=2 period={'2' * 4301}")]:
        with pytest.raises(DomainError, match=f"^header field {name}= has too many digits to read$"):
            parse_sequence_file(f"{header} method=a\n01\n")
    parsed = parse_sequence_file(f"k=3 n={'0' * 4299}2 period=2 method=a\n01\n")
    assert (parsed.k, parsed.n, parsed.period) == (3, 2, 2)


def test_read_names_the_offset_of_a_non_ascii_byte(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_bytes("k=٣ n=2 period=2 method=a\n01\n".encode())
    with pytest.raises(DomainError, match="^non-ASCII byte at offset 2$"):
        read_sequence_file(path)
    # The offset counts bytes as stored, "\r\n" as two.
    path.write_bytes(b"k=3 n=2 period=2 method=a\r\n0\xff\n")
    with pytest.raises(DomainError, match="^non-ASCII byte at offset 28$"):
        read_sequence_file(path)
    path.write_bytes(b"k=3 n=2 period=2 method=a\r\n01\r\n")
    assert read_sequence_file(path).symbols.tolist() == [0, 1]


@pytest.mark.parametrize("text,offset", [
    ("k=3 n=2 period=2 method=é\n01\n", 24),
    ("k=3 n=2 period=2 method=a\n01\u3000\n", 28),
    ("k=3 n=2 period=2 method=a\n\xa0\n01\n", 26),
])
def test_parser_refuses_non_ascii_text_as_the_reader_does(tmp_path, text, offset):
    # Past the header, a non-ASCII character is named by its offset, which
    # is a byte offset too: every character before it is one byte.
    message = f"^non-ASCII byte at offset {offset}$"
    with pytest.raises(DomainError, match=message):
        parse_sequence_file(text)
    path = tmp_path / "seq.txt"
    path.write_bytes(text.encode())
    with pytest.raises(DomainError, match=message):
        read_sequence_file(path)


# Header values: the alphabet sizes either side of the digit format and a
# 64-bit one, small numbers, and runs of 0 to 5,000 digits, some of them
# non-ASCII, around int()'s 4,300-digit limit.
HEADER_FIELDS = st.one_of(
    st.sampled_from(["10", "11", str(2**63)]), st.integers(0, 12).map(str),
    st.builds(str.__mul__, st.sampled_from(["1", "0", "9", "٣", "३"]),
              st.sampled_from([0, 1, 4300, 4301, 5000]) | st.integers(0, 5000)))


@st.composite
def sequence_file_texts(draw):
    """Sequence-file text whose header fields are drawn from HEADER_FIELDS,
    whose method may be non-ASCII, whose symbols lie below k where k reads
    as a small number, and whose lines break at any of str.splitlines'
    breaks, blank lines between; lines may end in ASCII or Unicode
    whitespace, and blank lines may hold some."""
    k, n = draw(HEADER_FIELDS), draw(HEADER_FIELDS)
    alphabet = int(k) if k.isascii() and k.isdigit() and len(k) < 25 else 12
    symbols = draw(st.lists(st.integers(0, max(min(alphabet, 12) - 1, 0)),
                            min_size=1, max_size=20))
    period = draw(st.just(str(len(symbols))) | HEADER_FIELDS)
    method = draw(st.sampled_from(["a", "a", "é"]))
    spaces = st.sampled_from(["", "", " ", "\xa0", "\u3000"])
    lines = [f"k={k} n={n} period={period} method={method}" + draw(spaces)]
    lines += [draw(spaces) for _ in range(draw(st.integers(0, 2)))]
    lines += [("" if alphabet <= 10 else ",").join(map(str, symbols)) + draw(spaces)]
    lines += [draw(spaces) for _ in range(draw(st.integers(0, 1)))]
    breaks = st.sampled_from(["\n", "\r\n", "\x0b", "\x0c", "\x1c"])
    return "".join(line + draw(breaks) for line in lines)


# Each file is parsed twice, from text and from disk, within the same 5 s
# as the CLI fuzz allows one command.
@settings(max_examples=200, deadline=5000)
@given(text=sequence_file_texts())
def test_file_format_fuzz_raises_only_named_errors(tmp_path_factory, text):
    try:
        parsed = parse_sequence_file(text)
    except (DomainError, ResourceCapError) as exc:
        parsed = exc
    path = tmp_path_factory.getbasetemp() / "format_fuzz.txt"
    path.write_bytes(text.encode())
    try:
        read = read_sequence_file(path)
    except (DomainError, ResourceCapError, OSError) as exc:
        read = exc
    # The file reader accepts exactly the files that the parser accepts.
    assert isinstance(read, Exception) == isinstance(parsed, Exception)
    if not isinstance(parsed, Exception):
        assert (read.k, read.n, read.period, read.method) == (
            parsed.k, parsed.n, parsed.period, parsed.method)
        assert np.array_equal(read.symbols, parsed.symbols)
