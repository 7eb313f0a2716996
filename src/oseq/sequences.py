"""Periodic k-ary sequences and their on-disk interchange format.

A sequence file is a header line

    k=<int> n=<int> period=<int> method=<string>

followed by one line holding a single period of symbols: contiguous digits
when k <= 10, comma-separated decimal integers otherwise.  Files end with a
newline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError
from .graph import _INT64_MAX, checked_symbols
from .tuples import at_least

if TYPE_CHECKING:
    from .constructions import ConstructionRecipe
    from .oracle import Decoder

_HEADER_RE = re.compile(
    r"^k=([0-9]+) n=([0-9]+) period=([0-9]+) method=(\S+)\s*$")


@dataclass(frozen=True, eq=False)
class OrientableSequence:
    """One period of a sequence whose n-windows are unique in either
    reading direction.

    Instances are produced by paths that have already verified that
    property; the constructor only checks shape and symbol range.
    """

    k: int
    n: int
    period: int
    symbols: np.ndarray
    recipe: "ConstructionRecipe | None" = None

    def __post_init__(self):
        at_least(self.k, 2, "alphabet size")
        at_least(self.n, 2, "window length")
        symbols = checked_symbols(self.symbols, self.k).astype(
            np.min_scalar_type(self.k - 1), copy=True)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        if self.period != symbols.size:
            raise DomainError(
                f"period {self.period} does not match {symbols.size} symbols")

    def __len__(self) -> int:
        return self.period

    @cached_property
    def decoder(self) -> "Decoder":
        """The window decoder that locate uses, built on first use."""
        from .oracle import Decoder
        return Decoder(self)


def parse_symbols(raw: str, k: int) -> np.ndarray:
    """Parse symbols written as format_symbols writes them for alphabet
    size k, checking that each lies in Z_k.

    Returns a read-only array: uint8 for k <= 10, int64 otherwise.
    """
    if k <= 10:
        symbols = np.frombuffer(raw.encode() if raw.isascii() else b"", np.uint8) - ord("0")
        if not symbols.size or symbols.max() > 9:  # uint8 wraps non-digits past 9
            raise DomainError("symbols must be contiguous digits for k <= 10")
    else:
        parts = raw.split(",")
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise DomainError("symbols must be comma-separated integers")
        try:
            symbols = [int(p) for p in parts]
        except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
            raise DomainError("a symbol has too many digits to read") from None
        if max(symbols) > _INT64_MAX:
            raise DomainError(f"symbol {max(symbols)} does not fit in 64 bits")
    symbols = checked_symbols(
        np.asarray(symbols, dtype=np.uint8 if k <= 10 else np.int64), k)
    symbols.flags.writeable = False
    return symbols


def format_symbols(symbols: Sequence[int] | np.ndarray, k: int) -> str:
    """Render one period as the file body for alphabet size k."""
    if k <= 10:
        return (np.asarray(symbols, np.uint8) + ord("0")).tobytes().decode("ascii")
    return ",".join(str(int(s)) for s in symbols)


def serialize_sequence(seq: OrientableSequence, method: str | None = None) -> str:
    """Render a sequence as the full file text, trailing newline included."""
    if method is None:
        method = seq.recipe.method.value if seq.recipe is not None else "unknown"
    header = f"k={seq.k} n={seq.n} period={seq.period} method={method}"
    return f"{header}\n{format_symbols(seq.symbols, seq.k)}\n"


@dataclass(frozen=True, eq=False)
class ParsedSequenceFile:
    k: int
    n: int
    period: int
    method: str
    symbols: np.ndarray


def parse_sequence_file(text: str) -> ParsedSequenceFile:
    """Parse file text, validating header consistency and symbol range."""
    lines = text.splitlines()
    if not lines:
        raise DomainError("empty sequence file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise DomainError(f"malformed header line: {lines[0]!r}")
    values = []
    for name, digits in zip(("k", "n", "period"), m.groups()):
        try:
            values.append(int(digits))
        except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
            raise DomainError(f"header field {name}= has too many digits to read") from None
    k, n, period = values
    method = m.group(4)
    body = [line for line in lines[1:] if line.strip()]
    if len(body) != 1:
        raise DomainError(f"expected exactly one symbol line, got {len(body)}")
    symbols = parse_symbols(body[0].strip(), k)
    if len(symbols) != period:
        raise DomainError(
            f"header says period={period} but found {len(symbols)} symbols")
    return ParsedSequenceFile(k=k, n=n, period=period, method=method,
                              symbols=symbols)


def write_sequence_file(path, seq: OrientableSequence,
                        method: str | None = None) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_sequence(seq, method))


def read_sequence_file(path) -> ParsedSequenceFile:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        offset = re.search(rb"[\x80-\xff]", data).start()
        raise DomainError(f"non-ASCII byte at offset {offset}")
    return parse_sequence_file(data.decode("ascii"))
