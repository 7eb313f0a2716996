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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError
from .graph import _INT64_MAX

if TYPE_CHECKING:
    from .constructions import ConstructionRecipe

_HEADER_RE = re.compile(
    r"^k=(\d+) n=(\d+) period=(\d+) method=(\S+)\s*$")


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
        if self.k < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.k}")
        if self.n < 2:
            raise DomainError(f"window length must be at least 2, got {self.n}")
        symbols = np.asarray(self.symbols)
        if symbols.ndim != 1 or symbols.size == 0:
            raise DomainError("symbols must be a nonempty 1-d array")
        if int(symbols.min()) < 0 or int(symbols.max()) >= self.k:
            raise DomainError(f"symbol out of range for alphabet size {self.k}")
        symbols = symbols.astype(np.min_scalar_type(self.k - 1), copy=True)
        symbols.flags.writeable = False
        object.__setattr__(self, "symbols", symbols)
        if self.period != symbols.size:
            raise DomainError(
                f"period {self.period} does not match {symbols.size} symbols")

    def __len__(self) -> int:
        return self.period

    def symbol_list(self) -> list[int]:
        return [int(s) for s in self.symbols]


def parse_symbols(raw: str, k: int) -> np.ndarray:
    """Parse symbols written as format_symbols writes them for alphabet
    size k, checking that each lies in Z_k.

    Returns a read-only array: uint8 for k <= 10, int64 otherwise.
    """
    if k <= 10:
        if not (raw.isascii() and raw.isdigit()):
            raise DomainError("symbols must be contiguous digits for k <= 10")
        symbols = np.frombuffer(raw.encode("ascii"), np.uint8) - ord("0")
        top = int(symbols.max())
    else:
        parts = raw.split(",")
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise DomainError("symbols must be comma-separated integers")
        symbols = [int(p) for p in parts]
        top = max(symbols)
    if top >= k:
        raise DomainError(f"symbol out of range for alphabet size {k}")
    if top > _INT64_MAX:
        raise DomainError(f"symbol {top} does not fit in 64 bits")
    symbols = np.asarray(symbols, dtype=np.uint8 if k <= 10 else np.int64)
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
    k, n, period = int(m.group(1)), int(m.group(2)), int(m.group(3))
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
    with open(path, "r", encoding="ascii") as fh:
        return parse_sequence_file(fh.read())
