"""Ground truth for orientability, plus small search and probing tools.

verify() is independent of the construction machinery: it looks only at
the cyclic windows of the candidate period, never at how the sequence was
made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bounds import period_upper_bound
from .errors import DomainError, ResourceCapError
from .graph import (
    _fits_int64,
    _gather,
    _index_dtype,
    _reverse_codes,
    _window_blocks,
    checked_symbols,
    window_codes,
    window_ids,
)
from .sequences import OrientableSequence
from .tuples import at_least, checked_word

EXHAUSTIVE_STATE_CAP = 256
DEFAULT_NODE_BUDGET = 5_000_000
_MEMO_CAP = 8192  # search table: the largest power of two under (3,5)'s 1 MiB guard


class Direction(str, Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class VerifyResult:
    """Verdict plus, on rejection, the first offending window pair.

    kind is "duplicate" when windows i and j are equal, "reversal" when
    window i is window j read backwards (i == j flags a palindromic
    window), and "short-period" when the period is below the window
    length.  The pair is the first offence by increasing j: window j
    either equals an earlier window i, or, failing that, is the reversal
    of a window i <= j.  So the report pinpoints the first position at
    which the prefix stops being extendable.
    """

    accepted: bool
    kind: str | None = None
    i: int | None = None
    j: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.accepted


def verify(symbols: Sequence[int] | np.ndarray, n: int, k: int) -> VerifyResult:
    """Decide whether one period yields distinct, reversal-free n-windows.

    Windows wrap cyclically.  Candidates shorter than n are rejected
    outright rather than unrolled.  Any k and n work: when k**n exceeds
    64-bit window codes, windows are compared through dense ids.  The m
    canonical ids (each window's smaller id, read forward or backwards)
    are built block by block, noting palindromes, and a sorted copy of
    them decides; a rejection names its witness from those alone.
    """
    at_least(k, 2, "alphabet size")
    at_least(n, 1, "window length")
    s = checked_symbols(symbols, k)
    m = s.size
    if m < n:
        return VerifyResult(False, kind="short-period",
                            message=f"period {m} is shorter than window length {n}")
    if _fits_int64(k, n):
        canon, palindromes = np.empty(m, dtype=_index_dtype(k**n)), []
        for start, f, r in _window_blocks(s, n, k):
            np.minimum(f, r, out=canon[start:start + f.size])
            palindromes.append((f == r).nonzero()[0] + start)
        del f, r  # views that would keep the block buffers alive
        palindromes = np.concatenate(palindromes)
    else:
        fwd, rev = window_ids(s, n, k)
        canon, palindromes = np.minimum(fwd, rev), np.flatnonzero(fwd == rev)
        del fwd, rev
    # Reversal is an involution: at i != j, canonical ids agree exactly when
    # window j is window i or its reversal; i == j offends as a palindrome.
    ids = np.sort(canon)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if not repeated.size and not palindromes.size:
        return VerifyResult(True)
    # Flags indexed by the low bits of each canonical id pass every
    # position whose canonical id repeats, in one gather over the period,
    # with the sorted ids as scratch.  They pass a few others too, whose
    # canonical ids occur once, so that they neither offend nor partner.
    low = (1 << min(m.bit_length(), 30)) - 1
    bucket = np.zeros(low + 1, dtype=bool)
    bucket[repeated & low] = True
    keep = np.flatnonzero(_gather(bucket, np.bitwise_and(canon, low, out=ids)))
    del ids, repeated, bucket
    return _first_offender(s, n, canon, keep, palindromes)


def _first_offender(s: np.ndarray, n: int, canon: np.ndarray,
                    keep: np.ndarray, palindromes: np.ndarray) -> VerifyResult:
    """Apply the witness rule of VerifyResult to the period s, given its
    canonical window ids, ascending positions keep holding every id that
    occurs more than once, and the ascending palindromes.

    Window j offends exactly when it is a palindrome or its canonical id
    occurs earlier, so a stable sort of canon[keep] finds the first
    offender.  Its partner i is the first position holding canon[j] (j
    itself for a palindrome, or there would be an earlier one), and it
    either equals window j, a duplicate, or is its reversal.
    """
    j = i = int(palindromes[0]) if palindromes.size else s.size
    if keep.size:
        ids = canon[keep]
        positions = keep[_stable_sort(ids)]
        later = int(positions[1:][ids[1:] == ids[:-1]].min())
        if later < j:
            j, i = later, int(positions[np.searchsorted(ids, canon[later])])
    if i == j:
        kind, message = "reversal", f"window {j} is a palindrome (its own reversal)"
    elif np.array_equal(*s.take([np.arange(i, i + n), np.arange(j, j + n)], mode="wrap")):
        kind, message = "duplicate", f"windows {i} and {j} are equal"
    else:
        kind, message = "reversal", f"window {j} is window {i} reversed"
    return VerifyResult(False, kind=kind, i=i, j=j, message=message)


def _stable_sort(values: np.ndarray) -> np.ndarray:
    """Sort nonnegative values in place, stably, and return the
    permutation that did it as index-dtype positions.

    While every value and position fit together in 63 bits, one int64
    sort of value << b | position does it: about half the time of an
    unstable argsort, and a sixth of a stable one, on 2.1M int32 codes.
    Its only temporary is that key.
    """
    m = values.size
    shift = m.bit_length()
    index = _index_dtype(m)
    if int(values.max()) >> (63 - shift):
        order = np.argsort(values, kind="stable").astype(index)
        values[...] = values[order]
        return order
    order = np.arange(m, dtype=index)
    key = values.astype(np.int64)
    key <<= shift
    key |= order
    key.sort()
    np.bitwise_and(key, (1 << shift) - 1, out=order, casting="unsafe")
    np.right_shift(key, shift, out=values, casting="unsafe")
    return order


@dataclass(frozen=True)
class LocateResult:
    position: int
    direction: Direction


class Decoder:
    """Reads n-windows back to (position, direction) in one period.

    It holds the forward window codes of the period in sorted order with
    the position of each: 8 bytes per window while k**n < 2**31, and 12
    above.  Building it takes one pass over the period and one sort;
    each lookup is then a binary search.  OrientableSequence.decoder
    builds one on first use and keeps it.  Codes wider than 64 bits
    (k**n > 2**63) raise ResourceCapError.
    """

    def __init__(self, seq: OrientableSequence):
        self.k, self.n = seq.k, seq.n
        self._ids = window_codes(seq.symbols, seq.n, seq.k)
        self._positions = _stable_sort(self._ids)
        self._ids.flags.writeable = False
        self._positions.flags.writeable = False
        # Column 0 weighs a row as read forward, column 1 as read backwards.
        powers = seq.k ** np.arange(seq.n - 1, -1, -1, dtype=np.int64)
        self._powers = np.stack([powers, powers[::-1]], axis=1)

    @property
    def nbytes(self) -> int:
        """Bytes of the code and position tables."""
        return self._ids.nbytes + self._positions.nbytes

    def decode(self, windows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, reverse flags and a found mask for a q x n matrix
        of windows, each row answered as locate answers it.

        Row r is read forward at position[r] when found[r] and not
        reverse[r], and read backwards there when reverse[r] too; a row
        that occurs in neither direction has found[r] False and
        position[r] == -1.
        """
        w = np.asarray(windows)
        if w.ndim != 2 or w.shape[1] != self.n:
            raise DomainError(f"windows must be a q x {self.n} matrix of symbols")
        if w.size:
            checked_symbols(w.ravel(), self.k)
        # One matrix product gives both directions' codes: queries come a
        # few rows at a time, so Horner's loop over columns would cost more
        # in call overhead than the lookups.  The codes take the table's
        # dtype, or searchsorted would upcast the whole table on each call.
        codes = (w.astype(np.int64, copy=False) @ self._powers).astype(self._ids.dtype)
        # Each code's first position in the stably sorted table, where found.
        at = np.searchsorted(self._ids, codes)
        np.minimum(at, self._ids.size - 1, out=at)
        position, found = self._positions[at], self._ids[at] == codes
        forward, reverse = found[:, 0], found[:, 1] & ~found[:, 0]
        position = np.where(forward, position[:, 0],
                            np.where(reverse, position[:, 1], -1))
        return position, reverse, forward | reverse


def locate(seq: OrientableSequence, window) -> LocateResult | None:
    """Find the unique read position of an n-window, if it has one.

    (i, forward) means the window is read off positions i..i+n-1;
    (i, reverse) means it is that same stretch read backwards.  Returns
    None when the window occurs in neither direction.  The first call on
    a sequence builds its Decoder.
    """
    w = checked_word(window, seq.k, seq.n, "window")
    position, reverse, found = seq.decoder.decode(np.array([w]))
    if not found[0]:
        return None
    return LocateResult(int(position[0]),
                        Direction.REVERSE if reverse[0] else Direction.FORWARD)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of the exhaustive longest-period search.

    exact is True when the search either ran to completion or met the
    closed-form bound; otherwise period is only a lower bound reached
    within the node budget.
    """

    k: int
    n: int
    period: int
    witness: tuple[int, ...] | None
    exact: bool
    nodes_expanded: int


class _StopSearch(Exception):
    """Unwinds the exhaustive search on its bound or its node budget."""


def exhaustive_max_period(k: int, n: int,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Longest orientable period by depth-first search over edge trails.

    The state space is capped at k**n <= 256.  Candidate periods are
    closed trails in the de Bruijn digraph that avoid palindromic windows
    and never use a window together with its reversal.  Rotation is
    quotiented out by forcing the smallest used window first, and
    reflection by only starting from windows below their own reversal.
    Bit d of vertex v's mask is set while edge v*k + d is above the start
    edge, no palindrome, and off the trail with its reversal.  A frame
    reads its mask once, on entry, takes edges lowest bit first (the order
    behind the witness and node count that tests/test_oracle.py pins), and
    restores each reversal's mask after its child and its own after the
    last.  A child with no free edge at its head, unless that is the start
    vertex, is a dead end: a node, counted without a frame.

    Under one start edge, a frame's end vertex and trail edge pairs fix its
    subtree; a frame with two or more free edges credits a subtree held in
    the table whole, if its node count fits.  The table holds _MEMO_CAP
    subtrees, the largest power of two under (3,5)'s memory guard, and is
    cleared when full.  node_budget and nodes_expanded count DFS tree
    nodes, credited ones and dead ends included, so they bound the work.
    """
    at_least(k, 2, "alphabet size")
    at_least(n, 2, "window length")
    total = k**n
    if total > EXHAUSTIVE_STATE_CAP:
        raise ResourceCapError(
            f"{k}**{n} = {total} exceeds exhaustive-search cap "
            f"{EXHAUSTIVE_STATE_CAP}")
    vbase = k ** (n - 1)
    rev = _reverse_codes(np.arange(total), k, n).tolist()
    bound = period_upper_bound(k, n)
    # A search state is the end vertex plus, above it, bit min(e, r) for each
    # edge e on the trail and its reversal r.  Per edge: itself, the vertex
    # and bit of its reversal, its head, and the step it adds to the state.
    edges = [(e, r // k, 1 << r % k, e % vbase,
              (1 << vbase.bit_length() + min(e, r)) + e % vbase - e // k)
             for e, r in enumerate(rev)]
    avail = [sum(1 << d for d in range(k) if rev[v * k + d] != v * k + d)
             for v in range(vbase)]
    walk, memo = [0] * total, {}  # memo: search state -> subtree node count
    best, best_walk, nodes, start_v, stopped = 0, None, 0, 0, False

    def dfs(v: int, depth: int, state: int) -> None:
        nonlocal best, best_walk, nodes
        if v == start_v and depth > best:
            best, best_walk = depth, walk[:depth]
            if best >= bound:
                raise _StopSearch
        mask = rest = avail[v]
        if branches := mask & (mask - 1):  # two or more free edges
            count = memo.get(state, node_budget + 1)  # absent: never fits
            if nodes + count <= node_budget:
                nodes += count
                return
            first = nodes
        base = v * k - 1
        while rest:
            bit = rest & -rest
            rest ^= bit
            if nodes >= node_budget:
                raise _StopSearch
            nodes += 1
            e, rv, rbit, head, step = edges[base + bit.bit_length()]
            avail[v] = mask ^ bit
            saved = avail[rv]
            avail[rv] = saved & ~rbit
            if avail[head] or head == start_v:  # else a dead end: no frame
                walk[depth] = e
                dfs(head, depth + 1, state + step)
            avail[rv] = saved
        avail[v] = mask
        if branches:
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[state] = nodes - first

    try:
        for f in range(total):
            if best >= bound:
                break
            avail[f // k] &= ~(1 << f % k)  # f is no longer above the start
            if rev[f] > f:  # not a palindrome, nor a mirror of a smaller start
                _, rv, rbit, head, step = edges[f]
                avail[rv] ^= rbit
                walk[0], start_v = f, f // k
                memo.clear()
                dfs(head, 1, start_v + step)
                avail[rv] ^= rbit
    except _StopSearch:
        stopped = True
    del dfs  # it refers to itself: free the table now, not at the next gc
    witness = tuple(e // vbase for e in best_walk) if best_walk else None
    return SearchOutcome(k, n, best, witness, exact=best >= bound or not stopped,
                         nodes_expanded=nodes)


@dataclass(frozen=True)
class MutationRecord:
    position: int
    original: int
    replacement: int
    accepted: bool


@dataclass(frozen=True)
class MutationReport:
    trials: int
    rejected: int
    records: tuple[MutationRecord, ...]

    @property
    def fraction_rejected(self) -> float:
        return self.rejected / self.trials if self.trials else 0.0


def mutation_test(seq: OrientableSequence, trials: int,
                  seed: int) -> MutationReport:
    """Probe verify() with random single-symbol corruptions.

    Each trial replaces one symbol with a different one and records the
    verdict.  Deterministic for a fixed seed.
    """
    at_least(seq.period, 2, "mutation test period")
    at_least(trials, 0, "trials")
    rng = random.Random(seed)
    base = np.asarray(seq.symbols)
    records = []
    for _ in range(trials):
        pos = rng.randrange(seq.period)
        old = int(base[pos])
        new = (old + 1 + rng.randrange(seq.k - 1)) % seq.k
        mutant = base.copy()
        mutant[pos] = new
        verdict = verify(mutant, seq.n, seq.k)
        records.append(MutationRecord(pos, old, new, verdict.accepted))
    return MutationReport(trials=trials, rejected=sum(not r.accepted for r in records),
                          records=tuple(records))
