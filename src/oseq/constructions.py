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
    _circuit_order,
    _gather,
    _index_dtype,
    _read_only,
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


def _end_rule_graph(k: int, n: int, t: int, differences: range) -> DBSubgraph:
    """Edges: n-tuples whose last t symbols minus the first t, summed
    modulo k, is one of differences.

    The edges are enumerated directly, in code order: for each first
    block f, every middle word followed by each allowed last block, the
    last blocks sorted.  Each sum modulo k belongs to k**(t-1) blocks, so
    every first block allows the same number of last blocks.  Nothing of
    size k**n is built, the codes are made in the graph's dtype, and the
    cap applies to the edges returned.
    """
    _check_code_width(k, n)
    _check_cap(len(differences) * k ** (n - 1))
    differences = np.array(differences)
    dtype = _index_dtype(k**n)
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(t):
        sums = (sums[:, None] + np.arange(k)).ravel() % k
    by_sum = np.argsort(sums, kind="stable").astype(dtype).reshape(k, -1)
    lasts = np.sort(by_sum[(np.arange(k)[:, None] + differences) % k].reshape(k, -1))
    firsts = np.arange(0, k**n, k ** (n - t), dtype=dtype)
    middles = np.arange(0, k ** (n - t), k**t, dtype=dtype)
    edges = (firsts[:, None] + lasts[sums])[:, None] + middles[:, None]
    return DBSubgraph(k, n - 1, _read_only(edges.ravel()))


def end_difference_graph(k: int, n: int) -> DBSubgraph:
    """Edges: n-tuples whose last symbol exceeds the first by 1..floor((k-1)/2)
    modulo k.

    Defined for k >= 3; the result is disconnected for k in {3, 4} once
    n >= 3, which generate() reports rather than hides.
    """
    _check_domain(Method.END_DIFFERENCE, k, n)
    return _end_rule_graph(k, n, 1, range(1, (k - 1) // 2 + 1))


def odd_end_difference_graph(k: int, n: int) -> DBSubgraph:
    """Edges: n-tuples whose last-minus-first difference is odd modulo k."""
    _check_domain(Method.ODD_END_DIFFERENCE, k, n)
    return _end_rule_graph(k, n, 1, range(1, k, 2))


def block_end_difference_graph(k: int, n: int, t: int) -> DBSubgraph:
    """Edges: n-tuples where the last t symbols outweigh the first t by
    1..floor((k-1)/2), summed modulo k.

    t = 1 reduces to the plain end-difference rule.
    """
    _check_domain(Method.BLOCK_END_DIFFERENCE, k, n, t)
    return _end_rule_graph(k, n, t, range(1, (k - 1) // 2 + 1))


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
    lift below.  Words grow symbol by symbol in code order; a prefix is
    dropped once its weight plus 2 (the least weight) per symbol to come
    reaches n*k.  The cap applies to the edges returned.
    """
    at_least(k, 2, "alphabet size")
    at_least(n, 2, "window length")
    _check_code_width(k, n)
    # s -> -s mirrors weights about n*k, hit by at most 2 k**(n-1) words, so
    # at least this many weigh less; it refuses a large k before the count.
    _check_cap(k ** (n - 1) * (k - 2) // 2, "at least ")
    _check_cap(sum(count_by_doubled_pseudoweight(k, n, w) for w in range(n * k)))
    symbols = np.arange(k, dtype=_index_dtype(k**n))
    cost = np.where(symbols == 0, k, 2 * symbols).astype(np.min_scalar_type(2 * n * k))
    codes, weights = np.zeros(1, symbols.dtype), np.zeros(1, cost.dtype)
    for rest in range(n - 1, -1, -1):
        weights = (weights[:, None] + cost).ravel()
        keep = weights < n * k - 2 * rest
        codes = (codes[:, None] * k + symbols).ravel()[keep]
        weights = weights[keep]
    return DBSubgraph(k, n - 1, _read_only(codes))


def lempel_lift(g: DBSubgraph) -> DBSubgraph:
    """Preimage of an edge set under the difference map: k edges per edge,
    one order up.  Row a of a (k, m) block gets, by Horner's rule, one
    column at a time, the prefix sums of the edges' symbols plus a, modulo
    k, gathered by intp index from a table of the residues (a + i) % k: the
    preimages starting with a, so sorting each row sorts the block.
    """
    k = g.k
    length = g.order + 1
    _check_code_width(k, length + 1)
    _check_cap(k * g.edge_count)
    dtype = _index_dtype(k ** (length + 1))
    edges = g.edges.astype(dtype, copy=False)
    lifted = np.repeat(np.arange(k, dtype=dtype)[:, None], g.edge_count, axis=1)
    residue = np.arange(2 * k, dtype=dtype) % k
    prefix, symbol = np.zeros(edges.size, dtype=np.intp), np.empty_like(edges)
    for j in range(length - 1, -1, -1):
        # edges // k**j is the prefix's last symbol modulo k.
        np.floor_divide(edges, k**j, out=symbol)
        prefix += symbol
        prefix %= k
        for a, row in enumerate(lifted):
            row *= k
            row += residue[a:].take(prefix, out=symbol, mode="clip")
    del prefix, symbol  # freed before the graph checks the edges' order
    lifted.sort(axis=1)
    return DBSubgraph(k, length, _read_only(lifted.ravel()))


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
    symbols = _gather((g.edges // g.k**g.order).astype(np.min_scalar_type(g.k - 1)), order)
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
