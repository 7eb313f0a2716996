"""Constructions of antisymmetric Eulerian edge sets and the sequences
they spell.

Three families select edges directly by an end-difference rule; the
fourth picks a low-pseudoweight edge set one order down and lifts it
through the difference map, trading the antisymmetry requirement for the
easier negated-reversal one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import oracle
from .errors import (
    ConstructionError,
    DisconnectedError,
    DomainError,
    InternalInvariantError,
)
from .graph import (
    DBSubgraph,
    _check_cap,
    _check_code_width,
    _check_words,
    _circuit_order,
    _codes_to_digits,
    _digits_to_codes,
)
from .sequences import OrientableSequence
from .tuples import ZkTuple, at_least, count_by_doubled_pseudoweight


class Method(str, Enum):
    """Construction families, keyed by their command-line tags."""

    END_DIFFERENCE = "a"
    ODD_END_DIFFERENCE = "c"
    BLOCK_END_DIFFERENCE = "a_t"
    LEMPEL_LIFT = "lempel"


@dataclass(frozen=True)
class ConstructionRecipe:
    """Everything needed to rebuild a sequence: method and parameters.

    n is the window length of the sequence the recipe produces.
    """

    method: Method
    k: int
    n: int
    t: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        _check_domain(self.method, self.k, self.n, self.t)
        if self.t is not None and self.method is not Method.BLOCK_END_DIFFERENCE:
            raise DomainError("t applies only to the block-end-difference method")


# Least k, least n, and whether k must be odd, for each construction.
_DOMAINS = {
    Method.END_DIFFERENCE: (3, 2, False),
    Method.ODD_END_DIFFERENCE: (5, 2, True),
    Method.BLOCK_END_DIFFERENCE: (5, 2, False),
    Method.LEMPEL_LIFT: (3, 3, False),
}


def _check_domain(method: Method, k: int, n: int, t: int | None = None) -> None:
    least_k, least_n, odd_only = _DOMAINS[method]
    name = method.name.lower().replace("_", "-")
    if k < least_k or n < least_n or (odd_only and k % 2 == 0):
        parity = "odd " if odd_only else ""
        raise DomainError(f"{name} construction needs {parity}k >= {least_k} "
                          f"and n >= {least_n}, got k = {k}, n = {n}")
    if method is Method.BLOCK_END_DIFFERENCE and (t is None or t < 1 or 2 * t > n):
        raise DomainError(f"block width must satisfy 1 <= t <= n/2, got {t}")


def _end_rule_graph(k: int, n: int, t: int,
                    differences: np.ndarray) -> DBSubgraph:
    """Edges: n-tuples whose last t symbols minus the first t, summed
    modulo k, is one of differences.

    The edges are enumerated directly, in code order: for each first
    block f, every middle word followed by each allowed last block, the
    last blocks sorted.  Each sum modulo k belongs to k**(t-1) blocks, so
    every first block allows the same number of last blocks.  Nothing of
    size k**n is built, and the cap applies to the edges returned.
    """
    _check_code_width(k, n)
    _check_cap(differences.size * k ** (n - 1))
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(t):
        sums = (sums[:, None] + np.arange(k)).ravel() % k
    by_sum = np.argsort(sums, kind="stable").reshape(k, -1)
    middles = np.arange(0, k ** (n - t), k**t, dtype=np.int64)
    block = middles.size * differences.size * by_sum.shape[1]
    edges = np.empty(k**t * block, dtype=np.int64)
    for s in range(k):
        last = np.sort(by_sum[(s + differences) % k], axis=None)
        for f in by_sum[s].tolist():
            np.add(middles[:, None], last + f * k ** (n - t),
                   out=edges[f * block:(f + 1) * block].reshape(middles.size, -1))
    return DBSubgraph(k, n - 1, edges)


def end_difference_graph(k: int, n: int) -> DBSubgraph:
    """Edges: n-tuples whose last symbol exceeds the first by 1..floor((k-1)/2)
    modulo k.

    Defined for k >= 3; the result is disconnected for k in {3, 4} once
    n >= 3, which generate() reports rather than hides.
    """
    _check_domain(Method.END_DIFFERENCE, k, n)
    return _end_rule_graph(k, n, 1, np.arange(1, (k - 1) // 2 + 1))


def odd_end_difference_graph(k: int, n: int) -> DBSubgraph:
    """Edges: n-tuples whose last-minus-first difference is odd modulo k."""
    _check_domain(Method.ODD_END_DIFFERENCE, k, n)
    return _end_rule_graph(k, n, 1, np.arange(1, k, 2))


def block_end_difference_graph(k: int, n: int, t: int) -> DBSubgraph:
    """Edges: n-tuples where the last t symbols outweigh the first t by
    1..floor((k-1)/2), summed modulo k.

    t = 1 reduces to the plain end-difference rule.
    """
    _check_domain(Method.BLOCK_END_DIFFERENCE, k, n, t)
    return _end_rule_graph(k, n, t, np.arange(1, (k - 1) // 2 + 1))


def lempel_map(t: ZkTuple, beta: int = 1) -> ZkTuple:
    """Scaled difference map: symbol i becomes beta*(t[i+1]-t[i]) mod k.

    Shortens the word by one; beta must be a unit of Z_k.
    """
    if len(t) < 2:
        raise DomainError("difference map needs at least two symbols")
    if math.gcd(beta, t.k) != 1:
        raise DomainError(f"beta = {beta} is not a unit modulo {t.k}")
    diffs = tuple(
        (beta * (t.symbols[i + 1] - t.symbols[i])) % t.k
        for i in range(len(t) - 1))
    return ZkTuple(t.k, diffs)


def lempel_preimages(c: ZkTuple) -> list[ZkTuple]:
    """The k words mapping to c under the plain difference map.

    One per starting symbol, in starting-symbol order; each is the running
    prefix sum of c shifted by the start.
    """
    prefix = [0]
    for s in c.symbols:
        prefix.append((prefix[-1] + s) % c.k)
    return [
        ZkTuple(c.k, tuple((a + p) % c.k for p in prefix))
        for a in range(c.k)
    ]


def low_pseudoweight_graph(k: int, n: int) -> DBSubgraph:
    """Edges: n-tuples with doubled pseudoweight below n*k.

    The resulting edge set is antinegasymmetric and balanced; it feeds the
    lift below.
    """
    at_least(k, 2, "alphabet size")
    at_least(n, 2, "window length")
    _check_words(k, n)
    codes = np.arange(k**n, dtype=np.int64)
    digits = _codes_to_digits(codes, k, n)
    weights = np.where(digits == 0, k, 2 * digits).sum(axis=1)
    return DBSubgraph(k, n - 1, codes[weights < n * k])


def lempel_lift(g: DBSubgraph) -> DBSubgraph:
    """Preimage of an edge set under the difference map: k edges per edge,
    one order up."""
    k = g.k
    length = g.order + 1
    _check_code_width(k, length + 1)
    _check_cap(k * g.edge_count)
    digits = _codes_to_digits(g.edges, k, length)
    prefix = np.zeros((g.edge_count, length + 1), dtype=np.int64)
    np.cumsum(digits, axis=1, out=prefix[:, 1:])
    prefix %= k
    lifted = np.concatenate([
        _digits_to_codes((prefix + a) % k, k) for a in range(k)
    ])
    lifted.sort()
    return DBSubgraph(k, length, lifted)


def lifted_low_pseudoweight_graph(k: int, n: int) -> DBSubgraph:
    """The low-pseudoweight edge set on n-tuples, lifted to (n+1)-tuples."""
    return lempel_lift(low_pseudoweight_graph(k, n))


def _build_graph(recipe: ConstructionRecipe) -> DBSubgraph:
    if recipe.method is Method.END_DIFFERENCE:
        return end_difference_graph(recipe.k, recipe.n)
    if recipe.method is Method.ODD_END_DIFFERENCE:
        return odd_end_difference_graph(recipe.k, recipe.n)
    if recipe.method is Method.BLOCK_END_DIFFERENCE:
        return block_end_difference_graph(recipe.k, recipe.n, recipe.t)
    return lifted_low_pseudoweight_graph(recipe.k, recipe.n - 1)


def expected_period(recipe: ConstructionRecipe) -> int:
    """The period the recipe is guaranteed to produce when it succeeds.

    End-difference family, block variant included: floor((k-1)/2) *
    k**(n-1).  The first and last t symbols are disjoint when 2t <= n, so
    over all n-tuples the difference of their sums is uniform modulo k,
    as it is for t = 1.  Lift: k times half the count of (n-1)-tuples off
    the pseudoweight threshold.
    """
    k, n = recipe.k, recipe.n
    if recipe.method is not Method.LEMPEL_LIFT:
        return (k - 1) // 2 * k ** (n - 1)
    threshold_count = count_by_doubled_pseudoweight(k, n - 1, (n - 1) * k)
    below_pairs = k ** (n - 1) - threshold_count
    if below_pairs % 2:
        raise InternalInvariantError(
            "off-threshold tuples failed to pair up under negated reversal")
    return k * below_pairs // 2


def generate(recipe: ConstructionRecipe) -> OrientableSequence:
    """Run a recipe end to end: build, extract, spell, verify.

    Each property of the edge set is checked once, by the step that owns
    it.  The circuit extraction shows balance and connectivity, and its
    cycle joins name the components when it cannot close.  verify() shows
    antisymmetry, since the circuit spells every edge exactly once as a
    window.  Failures that the constructions rule out raise
    InternalInvariantError; a disconnected edge set (possible for the
    end-difference family at k in {3, 4}) raises ConstructionError with
    the component report.
    """
    g = _build_graph(recipe)
    try:
        order = _circuit_order(g)
    except DisconnectedError as exc:
        sizes = exc.component_edge_counts
        # Run-length form, "40 x 26214, 8 x 2" (a run of one is just the
        # size): split cells can have tens of thousands of components of a
        # few sizes.
        runs = []
        for size, group in itertools.groupby(sizes):
            count = len(list(group))
            runs.append(f"{size} x {count}" if count > 1 else str(size))
        raise ConstructionError(
            f"edge set splits into {len(sizes)} strongly-connected components "
            f"(edge counts {', '.join(runs)}); no single circuit covers it",
            component_count=len(sizes), component_edge_counts=sizes) from exc
    except DomainError as exc:
        raise InternalInvariantError(
            f"constructed edge set has no Eulerian circuit: {exc}") from exc
    # The leading symbol of each edge, in circuit order.
    symbols = (g.edges // g.k**g.order).astype(np.min_scalar_type(g.k - 1))[order]
    verdict = oracle.verify(symbols, recipe.n, recipe.k)
    if not verdict.accepted:
        raise InternalInvariantError(
            f"extracted sequence failed verification: {verdict.message}")
    want = expected_period(recipe)
    if symbols.size != want:
        raise InternalInvariantError(
            f"period {symbols.size} differs from expected {want}")
    return OrientableSequence(k=recipe.k, n=recipe.n, period=int(symbols.size),
                              symbols=symbols, recipe=recipe)
