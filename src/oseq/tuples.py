"""Words over Z_k: predicates, transforms, and exact counting.

Symbols are residues modulo an alphabet size k >= 2.  "Doubled pseudoweight"
assigns symbol u the integer weight 2u for u != 0 and k for u == 0; doubling
keeps everything in exact integer arithmetic even when k is odd.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ResourceCapError

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class ZkTuple:
    """An immutable nonempty word over Z_k.

    The alphabet size is part of the value: operations never mix tuples
    with different k.
    """

    k: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        at_least(self.k, 2, "alphabet size")
        if not len(self.symbols):
            raise DomainError("tuple must have at least one symbol")
        object.__setattr__(self, "symbols", checked_word(
            self.symbols, self.k, len(self.symbols), "tuple"))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def reverse(self) -> "ZkTuple":
        """The same word read right to left."""
        return ZkTuple(self.k, self.symbols[::-1])

    def negate(self) -> "ZkTuple":
        """Symbol-wise additive inverse modulo k."""
        return ZkTuple(self.k, tuple((-s) % self.k for s in self.symbols))


def at_least(value: int, least: int, noun: str) -> None:
    """Raise DomainError, naming the parameter by noun, unless value >= least."""
    if value < least:
        raise DomainError(f"{noun} must be at least {least}, got {value}")


def checked_word(word: "ZkTuple | Sequence[int]", k: int, length: int,
                 noun: str) -> tuple[int, ...]:
    """The symbols of a word that must have the given length over Z_k.

    noun ("edge", "window") names the word in the DomainError raised for
    a mixed alphabet, an array that is not 1-d, a symbol that is not an
    integer (a float is refused even with a whole value; a numpy bool
    counts), a wrong length or a symbol outside Z_k.
    """
    if isinstance(word, ZkTuple):
        if word.k != k:
            raise DomainError(f"mixed alphabets: {word.k} vs {k}")
        symbols = word.symbols
    elif getattr(word, "ndim", 1) != 1:
        raise DomainError(f"{noun} must be 1-d, got shape {word.shape}")
    else:
        items = word.tolist() if isinstance(word, np.ndarray) else word
        try:
            symbols = tuple(operator.index(
                s.item() if isinstance(s, np.generic) else s) for s in items)
        except TypeError as exc:
            raise DomainError(f"{noun} symbols must be integers") from exc
    if len(symbols) != length:
        raise DomainError(f"{noun} must have {length} symbols, got {len(symbols)}")
    for s in symbols:
        if not 0 <= s < k:
            raise DomainError(f"symbol {s} out of range for alphabet size {k}")
    return symbols


def _symbols_of(t: "ZkTuple | Sequence[int]") -> Sequence[int]:
    return t.symbols if isinstance(t, ZkTuple) else t


def is_uniform(t: "ZkTuple | Sequence[int]") -> bool:
    """True when every symbol equals the first."""
    s = _symbols_of(t)
    return all(x == s[0] for x in s)


def is_alternating(t: "ZkTuple | Sequence[int]") -> bool:
    """True when the word has period two on two distinct symbols.

    Length-1 words are never alternating.
    """
    s = _symbols_of(t)
    if len(s) < 2 or s[0] == s[1]:
        return False
    return all(s[i] == s[i % 2] for i in range(2, len(s)))


def is_symmetric(t: "ZkTuple | Sequence[int]") -> bool:
    """True when the word is a palindrome."""
    s = _symbols_of(t)
    return list(s) == list(s)[::-1]


def is_left_semi_symmetric(t: "ZkTuple | Sequence[int]") -> bool:
    """True when the prefix missing the last symbol is a palindrome.

    Words of length 1 or 2 qualify vacuously: the truncated prefix has at
    most one symbol.
    """
    s = _symbols_of(t)
    return is_symmetric(list(s)[:-1]) if len(s) > 1 else True


def is_right_semi_symmetric(t: "ZkTuple | Sequence[int]") -> bool:
    """True when the suffix missing the first symbol is a palindrome."""
    s = _symbols_of(t)
    return is_symmetric(list(s)[1:]) if len(s) > 1 else True


def doubled_pseudoweight(t: ZkTuple) -> int:
    """Sum of doubled symbol weights: 2u for u != 0, k for u == 0."""
    return sum(t.k if s == 0 else 2 * s for s in t.symbols)


class TupleKind(str, Enum):
    """Structural classes of words used by the counting lemmas."""

    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"
    UNIFORM = "uniform"
    ALTERNATING = "alternating"
    LEFT_SEMI_SYMMETRIC = "left-semi-symmetric"
    RIGHT_SEMI_SYMMETRIC = "right-semi-symmetric"
    SYMMETRIC_NON_UNIFORM = "symmetric-non-uniform"
    NON_UNIFORM_NON_ALTERNATING_SYMMETRIC = "non-uniform-non-alternating-symmetric"
    NON_UNIFORM_LEFT_SEMI_SYMMETRIC = "non-uniform-left-semi-symmetric"
    NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC = (
        "non-uniform-non-alternating-left-semi-symmetric"
    )


_KIND_PREDICATES = {
    TupleKind.SYMMETRIC: is_symmetric,
    TupleKind.ASYMMETRIC: lambda s: not is_symmetric(s),
    TupleKind.UNIFORM: is_uniform,
    TupleKind.ALTERNATING: is_alternating,
    TupleKind.LEFT_SEMI_SYMMETRIC: is_left_semi_symmetric,
    TupleKind.RIGHT_SEMI_SYMMETRIC: is_right_semi_symmetric,
    TupleKind.SYMMETRIC_NON_UNIFORM: lambda s: is_symmetric(s) and not is_uniform(s),
    TupleKind.NON_UNIFORM_NON_ALTERNATING_SYMMETRIC: lambda s: (
        is_symmetric(s) and not is_uniform(s) and not is_alternating(s)
    ),
    TupleKind.NON_UNIFORM_LEFT_SEMI_SYMMETRIC: lambda s: (
        is_left_semi_symmetric(s) and not is_uniform(s)
    ),
    TupleKind.NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC: lambda s: (
        is_left_semi_symmetric(s) and not is_uniform(s) and not is_alternating(s)
    ),
}


def kind_predicate(kind: TupleKind):
    """The membership test for a structural class."""
    return _KIND_PREDICATES[TupleKind(kind)]


def _check_counting_domain(k: int, n: int) -> None:
    at_least(k, 2, "alphabet size")
    at_least(n, 1, "tuple length")


def count_tuples(kind: TupleKind, k: int, n: int) -> int:
    """How many length-n words over Z_k fall in a structural class.

    Closed forms cover n >= 3; shorter lengths are counted by direct
    enumeration because several class definitions degenerate there.
    """
    kind = TupleKind(kind)
    _check_counting_domain(k, n)
    if n < 3:
        return enumerate_count(kind, k, n)
    ceil_half = (n + 1) // 2        # ceil(n/2)
    semi = (n + 2) // 2             # ceil((n+1)/2)
    if kind is TupleKind.SYMMETRIC:
        return k**ceil_half
    if kind is TupleKind.ASYMMETRIC:
        return k**n - k**ceil_half
    if kind is TupleKind.UNIFORM:
        return k
    if kind is TupleKind.ALTERNATING:
        return k * (k - 1)
    if kind is TupleKind.SYMMETRIC_NON_UNIFORM:
        return k**ceil_half - k
    if kind is TupleKind.NON_UNIFORM_NON_ALTERNATING_SYMMETRIC:
        # Alternating palindromes exist only for odd n.
        return k**ceil_half - k * k if n % 2 == 1 else k**ceil_half - k
    if kind in (TupleKind.LEFT_SEMI_SYMMETRIC, TupleKind.RIGHT_SEMI_SYMMETRIC):
        return k**semi
    if kind is TupleKind.NON_UNIFORM_LEFT_SEMI_SYMMETRIC:
        return k**semi - k
    if kind is TupleKind.NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC:
        # A left-semi-symmetric word can alternate only when n is even.
        return k**semi - k * k if n % 2 == 0 else k**semi - k
    raise DomainError(f"unknown tuple kind: {kind!r}")


def enumerate_count(kind: TupleKind, k: int, n: int) -> int:
    """Count a structural class by brute enumeration of all k**n words."""
    kind = TupleKind(kind)
    _check_counting_domain(k, n)
    if k**n > DEFAULT_ENUMERATION_CAP:
        raise ResourceCapError(f"enumeration of {k}**{n} tuples exceeds cap "
                               f"{DEFAULT_ENUMERATION_CAP}")
    pred = _KIND_PREDICATES[kind]
    return sum(1 for w in itertools.product(range(k), repeat=n) if pred(w))


@lru_cache(maxsize=None)
def _doubled_weight_distribution(k: int, n: int) -> tuple[int, ...]:
    """dist[s] = number of length-n words with doubled pseudoweight s."""
    per_symbol = [k] + [2 * u for u in range(1, k)]
    top = 2 * n * (k - 1)
    dist = [0] * (top + 1)
    dist[0] = 1
    for _ in range(n):
        nxt = [0] * (top + 1)
        for s, c in enumerate(dist):
            if c:
                for w in per_symbol:
                    if s + w <= top:
                        nxt[s + w] += c
        dist = nxt
    return tuple(dist)


def count_by_doubled_pseudoweight(k: int, n: int, doubled_weight: int) -> int:
    """How many length-n words over Z_k have the given doubled pseudoweight.

    Zero outside the attainable range [2n, 2n(k-1)].
    """
    _check_counting_domain(k, n)
    if doubled_weight < 2 * n or doubled_weight > 2 * n * (k - 1):
        return 0
    return _doubled_weight_distribution(k, n)[doubled_weight]


def all_tuples(k: int, n: int) -> Iterable[tuple[int, ...]]:
    """All length-n words over Z_k in lexicographic order."""
    return itertools.product(range(k), repeat=n)
