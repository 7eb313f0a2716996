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
from .graph import _reverse_codes, tuple_to_code, window_codes, window_ids
from .sequences import OrientableSequence
from .tuples import checked_word

EXHAUSTIVE_STATE_CAP = 256
DEFAULT_NODE_BUDGET = 5_000_000
FIRST_PREFIX = 64


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


def _validated_symbols(symbols, k: int) -> np.ndarray:
    s = np.asarray(symbols)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("sequence must be a nonempty 1-d array of symbols")
    if int(s.min()) < 0 or int(s.max()) >= k:
        raise DomainError(f"symbol out of range for alphabet size {k}")
    return s


def verify(symbols: Sequence[int] | np.ndarray, n: int, k: int) -> VerifyResult:
    """Decide whether one period yields distinct, reversal-free n-windows.

    Windows wrap cyclically.  Candidates shorter than n are rejected
    outright rather than unrolled.  Any k and n work: when k**n exceeds
    64-bit window codes, windows are compared through dense ids.  One
    sort of all forward and reversed ids decides; a rejection then names
    its witness from the shortest doubling prefix that shows an offence,
    not from a scan of the whole period.
    """
    if k < 2:
        raise DomainError(f"alphabet size must be at least 2, got {k}")
    if n < 1:
        raise DomainError(f"window length must be at least 1, got {n}")
    s = _validated_symbols(symbols, k)
    m = s.size
    if m < n:
        return VerifyResult(False, kind="short-period",
                            message=f"period {m} is shorter than window length {n}")
    fwd, rev = window_ids(s, n, k)
    # Reversal is injective, so the 2m ids are distinct exactly when the
    # windows are distinct and none is the reversal of any window.
    ids = np.concatenate([fwd, rev])
    ids.sort()
    repeated = _repeated(ids)
    if not repeated.size:
        return VerifyResult(True)
    return _first_offender(fwd, rev, repeated)


def _repeated(ids: np.ndarray) -> np.ndarray:
    """The ids that occur more than once in a sorted array."""
    later = ids[1:]
    return later[later == ids[:-1]]


def _first_offender(fwd: np.ndarray, rev: np.ndarray,
                    repeated: np.ndarray) -> VerifyResult:
    """Apply the witness rule of VerifyResult, given the ids that repeat
    among all 2m forward and reversed window ids.

    An offence at window j pairs it with a window i <= j through an id
    that occurs twice among the ids of windows 0..j, and any repeat
    among those ids means an offence at some window up to j.  So the
    first prefix, in doubling lengths, whose ids repeat holds the first
    offender.  Only positions whose forward id repeats there take part:
    when window j is window i reversed, window i is window j reversed.
    """
    size = FIRST_PREFIX
    while size < fwd.size:
        prefix = np.concatenate([fwd[:size], rev[:size]])
        prefix.sort()
        if (clashing := _repeated(prefix)).size:
            repeated = clashing
            break
        size *= 2
    keep = np.flatnonzero(np.isin(fwd[:size], repeated))
    seen: dict[int, int] = {}
    for j, code, reversed_code in zip(keep.tolist(), fwd[keep].tolist(),
                                      rev[keep].tolist()):
        if code in seen:
            return VerifyResult(False, kind="duplicate", i=seen[code], j=j,
                                message=f"windows {seen[code]} and {j} are equal")
        seen[code] = j
        partner = seen.get(reversed_code)
        if partner is not None:
            return VerifyResult(
                False, kind="reversal", i=partner, j=j,
                message=(f"window {j} is window {partner} reversed"
                         if partner != j else
                         f"window {j} is a palindrome (its own reversal)"))
    raise AssertionError("violation detected but no offender found")


@dataclass(frozen=True)
class LocateResult:
    position: int
    direction: Direction


def locate(seq: OrientableSequence, window) -> LocateResult | None:
    """Find the unique read position of an n-window, if it has one.

    (i, forward) means the window is read off positions i..i+n-1;
    (i, reverse) means it is that same stretch read backwards.  Returns
    None when the window occurs in neither direction.
    """
    w = checked_word(window, seq.k, seq.n, "window")
    fwd = window_codes(np.asarray(seq.symbols), seq.n, seq.k)
    for direction, word in ((Direction.FORWARD, w), (Direction.REVERSE, w[::-1])):
        hits = np.flatnonzero(fwd == tuple_to_code(word, seq.k))
        if hits.size:
            return LocateResult(int(hits[0]), direction)
    return None


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


def exhaustive_max_period(k: int, n: int,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> SearchOutcome:
    """Longest orientable period by depth-first search over edge trails.

    The state space is capped at k**n <= 256.  Candidate periods are
    closed trails in the de Bruijn digraph that avoid palindromic windows
    and never use a window together with its reversal.  Rotation is
    quotiented out by forcing the smallest used window first, and
    reflection by only starting from windows below their own reversal.
    """
    if k < 2 or n < 2:
        raise DomainError("need k >= 2 and n >= 2")
    total = k**n
    if total > EXHAUSTIVE_STATE_CAP:
        raise ResourceCapError(
            f"{k}**{n} = {total} exceeds exhaustive-search cap "
            f"{EXHAUSTIVE_STATE_CAP}")
    vbase = k ** (n - 1)
    rev = _reverse_codes(np.arange(total), k, n).tolist()
    bound = period_upper_bound(k, n)
    best = 0
    best_walk: list[int] | None = None
    used = bytearray(total)
    walk: list[int] = []
    nodes = 0
    budget_hit = False

    def dfs(v: int, start_v: int, floor: int) -> bool:
        """Extend the trail from vertex v; returns True to abandon search."""
        nonlocal best, best_walk, nodes, budget_hit
        if v == start_v and len(walk) > best:
            best = len(walk)
            best_walk = walk.copy()
            if best >= bound:
                return True
        base = v * k
        for d in range(k):
            e = base + d
            if e <= floor:
                continue
            r = rev[e]
            if r == e or used[e] or used[r]:
                continue
            if nodes >= node_budget:
                budget_hit = True
                return True
            nodes += 1
            used[e] = 1
            walk.append(e)
            stop = dfs(e % vbase, start_v, floor)
            walk.pop()
            used[e] = 0
            if stop:
                return True
        return False

    for f in range(total):
        if best >= bound:
            break
        if rev[f] <= f:
            # Palindromes can never be used; reflections are covered by
            # the start whose code is smaller.
            continue
        used[f] = 1
        walk.append(f)
        stopped = dfs(f % vbase, f // k, f)
        walk.pop()
        used[f] = 0
        if stopped and budget_hit:
            break
    exact = best >= bound or not budget_hit
    witness = None
    if best_walk:
        witness = tuple(e // vbase for e in best_walk)
    return SearchOutcome(k=k, n=n, period=best, witness=witness,
                         exact=exact, nodes_expanded=nodes)


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
    if seq.period < 2:
        raise DomainError("mutation test needs a period of at least 2")
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    rng = random.Random(seed)
    base = np.asarray(seq.symbols).astype(np.int64)
    records = []
    rejected = 0
    for _ in range(trials):
        pos = rng.randrange(seq.period)
        old = int(base[pos])
        new = (old + 1 + rng.randrange(seq.k - 1)) % seq.k
        mutant = base.copy()
        mutant[pos] = new
        verdict = verify(mutant, seq.n, seq.k)
        if not verdict.accepted:
            rejected += 1
        records.append(MutationRecord(pos, old, new, verdict.accepted))
    return MutationReport(trials=trials, rejected=rejected,
                          records=tuple(records))
