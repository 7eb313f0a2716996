"""Explicit subgraphs of de Bruijn digraphs over Z_k.

A subgraph of order m stores its edges as sorted int64 codes of
(m+1)-tuples in base k, most significant symbol first, so lexicographic
order on tuples coincides with numeric order on codes.  Vertices are never
stored: a vertex exists exactly when it occurs as the length-m prefix or
suffix of some edge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DisconnectedError, DomainError, ResourceCapError
from .tuples import ZkTuple, at_least, checked_word

DEFAULT_EDGE_CAP = 1 << 26
EDGE_CAP_ENV = "OSEQ_EDGE_CAP"
_INT64_MAX = np.iinfo(np.int64).max


def edge_cap() -> int:
    """The active edge-set size cap (override with OSEQ_EDGE_CAP)."""
    raw = os.environ.get(EDGE_CAP_ENV)
    if raw is None:
        return DEFAULT_EDGE_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{EDGE_CAP_ENV} must be an integer, got {raw!r}") from exc
    at_least(value, 1, EDGE_CAP_ENV)
    return value


def _check_cap(size: int) -> None:
    limit = edge_cap()
    if size > limit:
        raise ResourceCapError(f"edge set of size {size} exceeds cap {limit}")


def _check_code_width(k: int, length: int) -> None:
    # k >= 2: from length 64 on, skip computing the huge power.
    if length >= 64 or k**length > _INT64_MAX:
        raise ResourceCapError(
            f"{k}**{length} does not fit in 64-bit edge codes")


def _check_words(k: int, length: int) -> None:
    """All k**length words fit in 64-bit codes and under the edge cap."""
    _check_code_width(k, length)
    _check_cap(k**length)


def tuple_to_code(symbols: Sequence[int], k: int) -> int:
    """Base-k code of a word, most significant symbol first."""
    code = 0
    for s in symbols:
        code = code * k + int(s)
    return code


def code_to_tuple(code: int, k: int, length: int) -> tuple[int, ...]:
    """Inverse of tuple_to_code for words of known length."""
    out = []
    for _ in range(length):
        code, r = divmod(code, k)
        out.append(r)
    return tuple(reversed(out))


def _codes_to_digits(codes: np.ndarray, k: int, length: int) -> np.ndarray:
    """Matrix of symbols, one row per code, most significant first."""
    digits = np.empty((codes.size, length), dtype=np.int64)
    rest = codes.astype(np.int64, copy=True)
    for i in range(length - 1, -1, -1):
        digits[:, i] = rest % k
        rest //= k
    return digits


def _digits_to_codes(digits: np.ndarray, k: int,
                     dtype: type = np.int64) -> np.ndarray:
    """Base-k code of each row of a symbol matrix, most significant first,
    in a dtype that holds k**width."""
    codes = np.zeros(digits.shape[0], dtype=dtype)
    for i in range(digits.shape[1]):
        codes *= k
        codes += digits[:, i]
    return codes


def _code_tuples(codes: np.ndarray, k: int, length: int) -> list[tuple[int, ...]]:
    """Codes as plain symbol tuples, most significant symbol first."""
    return list(map(tuple, _codes_to_digits(codes, k, length).tolist()))


def _reverse_codes(codes: np.ndarray, k: int, length: int,
                   negate: bool = False) -> np.ndarray:
    """Codes of the reversed words, each symbol negated modulo k if asked:
    reweight digits in opposite order."""
    rev = np.zeros(codes.size, dtype=np.int64)
    rest = codes.astype(np.int64, copy=True)
    for _ in range(length):
        digit = rest % k
        rev = rev * k + ((k - digit) % k if negate else digit)
        rest //= k
    return rev


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending.

    A sort and an adjacent compare: numpy 2's unique takes a slower
    hash-based path on large integer arrays, and that path's allocations
    stay behind in the heap.  Calling np.unique once per spanning-forest
    round in eulerian_circuit raised the decode-stream benchmark's peak
    RSS from about 120 MB to 134 MB.
    """
    ordered = np.sort(codes)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


@dataclass(frozen=True, eq=False)
class DBSubgraph:
    """An edge set inside the de Bruijn digraph of the given order."""

    k: int
    order: int
    edges: np.ndarray
    duplicates_dropped: int = 0

    def __post_init__(self):
        at_least(self.k, 2, "alphabet size")
        at_least(self.order, 1, "order")
        _check_code_width(self.k, self.order + 1)
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.ndim != 1:
            raise DomainError(f"edges must be 1-d, got shape {edges.shape}")
        object.__setattr__(self, "edges", edges)
        if edges.size:
            if edges[0] < 0 or edges[-1] >= self.k ** (self.order + 1):
                raise DomainError("edge code out of range")
            if np.any(np.diff(edges) <= 0):
                raise DomainError("edge codes must be strictly increasing")
        edges.flags.writeable = False

    def __eq__(self, other) -> bool:
        if not isinstance(other, DBSubgraph):
            return NotImplemented
        return (self.k == other.k and self.order == other.order
                and np.array_equal(self.edges, other.edges))

    @property
    def edge_count(self) -> int:
        return int(self.edges.size)

    @cached_property
    def sources(self) -> np.ndarray:
        """Vertex code of each edge's length-m prefix."""
        return self.edges // self.k

    @cached_property
    def targets(self) -> np.ndarray:
        """Vertex code of each edge's length-m suffix."""
        return self.edges % self.k**self.order

    @cached_property
    def vertex_codes(self) -> np.ndarray:
        """Sorted codes of every vertex incident to at least one edge."""
        verts = _sorted_unique(np.concatenate([self.sources, self.targets]))
        verts.flags.writeable = False
        return verts

    @cached_property
    def _degrees(self) -> tuple[np.ndarray, np.ndarray]:
        verts = self.vertex_codes
        out_deg = np.bincount(np.searchsorted(verts, self.sources),
                              minlength=verts.size)
        in_deg = np.bincount(np.searchsorted(verts, self.targets),
                             minlength=verts.size)
        return in_deg, out_deg

    def degree_map(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """Vertex tuple -> (in-degree, out-degree), materialized vertices only."""
        in_deg, out_deg = self._degrees
        return {
            code_to_tuple(int(v), self.k, self.order): (int(i), int(o))
            for v, i, o in zip(self.vertex_codes, in_deg, out_deg)
        }

    def edge_tuples(self) -> list[tuple[int, ...]]:
        """All edges as plain symbol tuples, in lexicographic order."""
        return _code_tuples(self.edges, self.k, self.order + 1)

    def __contains__(self, edge) -> bool:
        code = tuple_to_code(checked_word(edge, self.k, self.order + 1, "edge"),
                             self.k)
        i = int(np.searchsorted(self.edges, code))
        return i < self.edges.size and int(self.edges[i]) == code


def build_subgraph(k: int, order: int,
                   edges: Iterable[ZkTuple | Sequence[int]]) -> DBSubgraph:
    """Assemble a subgraph from edge words, silently deduplicating.

    The number of dropped duplicates is reported on the result.
    """
    at_least(k, 2, "alphabet size")
    at_least(order, 1, "order")
    codes = [tuple_to_code(checked_word(edge, k, order + 1, "edge"), k)
             for edge in edges]
    arr = _sorted_unique(np.asarray(codes, dtype=np.int64))
    return DBSubgraph(k, order, arr, duplicates_dropped=len(codes) - arr.size)


def full_de_bruijn(k: int, order: int) -> DBSubgraph:
    """Every (order+1)-tuple over Z_k as an edge."""
    at_least(k, 2, "alphabet size")
    at_least(order, 1, "order")
    _check_words(k, order + 1)
    return DBSubgraph(k, order, np.arange(k ** (order + 1), dtype=np.int64))


def palindrome_free_de_bruijn(k: int, order: int) -> DBSubgraph:
    """The full de Bruijn digraph with palindromic edges removed.

    This drops k**ceil((order+1)/2) edges, one per palindrome of length
    order+1.
    """
    g = full_de_bruijn(k, order)
    rev = _reverse_codes(g.edges, k, order + 1)
    return DBSubgraph(k, order, g.edges[g.edges != rev])


_Witness = tuple[tuple[int, ...], tuple[int, ...]]


def _free_of_reversals(g: DBSubgraph, negate: bool) -> tuple[bool, _Witness | None]:
    length = g.order + 1
    rev = _reverse_codes(g.edges, g.k, length, negate)
    # Both maps are involutions, so an edge offends exactly when its own
    # image is an edge; the first such edge in code order is the smallest.
    at = np.minimum(np.searchsorted(g.edges, rev), g.edge_count - 1)
    bad = np.flatnonzero(g.edges[at] == rev)
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    return False, (code_to_tuple(int(g.edges[i]), g.k, length),
                   code_to_tuple(int(rev[i]), g.k, length))


def is_antisymmetric(g: DBSubgraph) -> tuple[bool, _Witness | None]:
    """No edge may appear together with its reversal.

    A palindromic edge violates this on its own and is its own witness.
    Returns (verdict, witness pair or None); the witness is the smallest
    offending edge paired with its reversal.
    """
    return _free_of_reversals(g, negate=False)


def is_antinegasymmetric(g: DBSubgraph) -> tuple[bool, _Witness | None]:
    """No edge may appear together with the negation of its reversal."""
    return _free_of_reversals(g, negate=True)


def is_balanced(g: DBSubgraph) -> tuple[bool, list[tuple[int, ...]]]:
    """Every materialized vertex needs equal in- and out-degree."""
    in_deg, out_deg = g._degrees
    bad = np.flatnonzero(in_deg != out_deg)
    return bad.size == 0, [
        code_to_tuple(int(g.vertex_codes[i]), g.k, g.order) for i in bad
    ]


@dataclass(frozen=True, eq=False)
class EulerianCircuit:
    """An edge ordering that walks every edge exactly once and closes up."""

    k: int
    order: int
    edges: np.ndarray
    start_vertex: tuple[int, ...]

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64)
        object.__setattr__(self, "edges", edges)
        if edges.size == 0:
            raise DomainError("an Eulerian circuit cannot be empty")
        if _sorted_unique(edges).size != edges.size:
            raise DomainError("circuit repeats an edge")
        base = self.k**self.order
        suffixes = edges % base
        prefixes = np.roll(edges, -1) // self.k
        if not np.array_equal(suffixes, prefixes):
            raise DomainError("consecutive circuit edges do not chain")
        if tuple_to_code(self.start_vertex, self.k) != int(edges[0]) // self.k:
            raise DomainError("start vertex does not match the first edge")
        edges.flags.writeable = False

    def __len__(self) -> int:
        return int(self.edges.size)

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return _code_tuples(self.edges, self.k, self.order + 1)


def _index_dtype(m: int) -> type:
    """int32 for values below m while they fit: edge indexes (OSEQ_EDGE_CAP
    may allow more) and window codes below k**n."""
    return np.int32 if m < 2**31 else np.int64


# From this many elements on, cycles are labelled and ranked by walks from
# sparse rulers in O(m) work; below it, pointer doubling's log2(m) full
# passes cost less than the walks' per-step overhead.  The two break even
# on circuits of about 150,000 edges.
_WALK_MIN = 1 << 17
# Every multiple of the stride (a power of two) is a ruler.  Gaps between
# rulers along a cycle average the stride, and the longest on the golden
# cells span about 10 strides, so a walk still going after the bound meets
# an adversarial order, and doubling takes over.
_RULER_STRIDE = 64
_WALK_BOUND = 32 * _RULER_STRIDE


def _walk(succ: np.ndarray, start: np.ndarray | None = None, steps: int = 0):
    """Follow the permutation succ from every ruler at once until each
    walker meets the next ruler: one gather per step for all walkers
    (a sparse ruling set, after Helman & JáJá, JPDC 2001).

    Ruler r is element r * _RULER_STRIDE.  Without start, returns
    (next_ruler, gap): for each ruler, the ruler its walk met and the
    steps to it, so next_ruler is the permutation that succ induces on
    the rulers; or None once a walk passes _WALK_BOUND steps.  With
    start, one value per ruler, the walks run again and return an array
    that holds start[r] + steps * s at the element s steps after ruler r,
    and -1 on the cycles that hold no ruler.  Walking twice keeps one
    array of size m alive instead of an owner and an offset for each
    element, which also leaves less behind in the heap: decode-stream's
    peak RSS read about 119.1 MB this way and 120.3 MB with one walk.
    """
    index = succ.dtype
    here = np.arange(0, succ.size, _RULER_STRIDE, dtype=index)
    if start is None:
        walker = np.arange(here.size, dtype=index)
        next_ruler = np.empty_like(walker)
        gap = np.empty_like(walker)
    else:
        value = start
        out = np.full(succ.size, -1, dtype=index)
        out[here] = value
    for step in range(1, _WALK_BOUND + 1):
        here = np.take(succ, here)
        going = (here & (_RULER_STRIDE - 1)) != 0
        if start is None:
            arrived = ~going
            done = walker[arrived]
            next_ruler[done] = here[arrived] // _RULER_STRIDE
            gap[done] = step
            walker = walker[going]
        else:
            value = value[going] + steps
        here = here[going]
        if here.size == 0:
            return (next_ruler, gap) if start is None else out
        if start is not None:
            out[here] = value
    return None


def _cycle_labels(succ: np.ndarray) -> np.ndarray:
    """A label for each element of the permutation succ: equal exactly on
    the elements of one cycle, and itself an element of that cycle.

    Large arrays go through _walk: a cycle that holds a ruler takes the
    label of one of its rulers, found by labelling the short ruler
    permutation.  The cycles that hold no ruler, and arrays too small or
    too adversarial to walk, are labelled by pointer doubling.
    """
    walk = _walk(succ) if succ.size >= _WALK_MIN else None
    if walk is None:
        return _doubling_labels(succ)
    labels = _walk(succ, _cycle_labels(walk[0]) * _RULER_STRIDE)
    rest = np.flatnonzero(labels < 0).astype(succ.dtype, copy=False)
    if rest.size:
        # The unlabelled cycles are closed under succ; until they are
        # labelled, labels maps each of their elements to its place in rest.
        labels[rest] = np.arange(rest.size, dtype=succ.dtype)
        local = np.take(labels, np.take(succ, rest))
        labels[rest] = np.take(rest, _doubling_labels(local))
    return labels


def _cycle_ranks(succ: np.ndarray) -> np.ndarray:
    """Position of each element on the single cycle of succ, counted
    from element 0.

    Large arrays go through _walk: rank the short ruler cycle (ruler 0 is
    element 0), sum the gaps in that order to place each ruler, then walk
    again adding each element's steps from its ruler.  Arrays too small
    or too adversarial to walk are ranked by pointer doubling.
    """
    walk = _walk(succ) if succ.size >= _WALK_MIN else None
    if walk is None:
        return _doubling_ranks(succ)
    next_ruler, gap = walk
    order = np.empty_like(next_ruler)
    order[_cycle_ranks(next_ruler)] = np.arange(order.size, dtype=order.dtype)
    steps = gap[order]
    start = np.empty_like(gap)
    start[order] = np.cumsum(steps, dtype=gap.dtype) - steps
    return _walk(succ, start, steps=1)


def _doubling_labels(succ: np.ndarray) -> np.ndarray:
    """The smallest element on each element's cycle of the permutation succ.

    Pointer doubling: after t rounds each label is the minimum over the
    next 2**t elements.  A round that changes no label means the windows
    already tile every cycle, so the labels are final.
    """
    labels = np.arange(succ.size, dtype=succ.dtype)
    jump = succ
    while True:
        widened = np.minimum(labels, np.take(labels, jump))
        if np.array_equal(widened, labels):
            return labels
        labels = widened
        jump = np.take(jump, jump)


def _doubling_ranks(succ: np.ndarray) -> np.ndarray:
    """_cycle_ranks by Wyllie list ranking: cut the cycle in front of
    element 0, then double the pointers, summing hop counts, until every
    element sees the end."""
    m = succ.size
    end = int(np.flatnonzero(succ == 0)[0])
    jump = succ.copy()
    jump[end] = end
    hops = np.ones(m, dtype=succ.dtype)
    hops[end] = 0
    for _ in range((m - 1).bit_length()):
        hops += np.take(hops, jump)
        jump = np.take(jump, jump)
    return (m - 1) - hops


def _spanning_forest(a: np.ndarray, b: np.ndarray,
                     nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest of the multigraph on nodes 0..nodes-1 whose
    edge i joins a[i] and b[i] and weighs i, by Borůvka's rounds.

    Each round, every component hooks onto its lightest edge leaving it;
    the weights are distinct, so those edges belong to the one minimum
    forest, which is also the one that Kruskal's in-order scan builds.
    Once a table over all pairs of components is no larger than the edge
    list, only the lightest edge between each pair is kept.  Returns the
    forest's edges ascending and each node's component, numbered from 0.
    """
    index = a.dtype
    comp = np.arange(nodes, dtype=index)
    count = nodes
    edge = np.arange(a.size, dtype=index)
    picked = []
    while True:
        ca, cb = np.take(comp, a), np.take(comp, b)
        keep = np.flatnonzero(ca != cb)
        if count * count <= keep.size:
            pair = (np.minimum(ca[keep], cb[keep]) * count
                    + np.maximum(ca[keep], cb[keep]))
            lightest = np.full(count * count, keep.size, dtype=index)
            np.minimum.at(lightest, pair, np.arange(keep.size, dtype=index))
            keep = keep[np.sort(lightest[lightest < keep.size])]
        if keep.size == 0:
            break
        a, b, edge, ca, cb = (x[keep] for x in (a, b, edge, ca, cb))
        # Edges stay in weight order, so the position is the weight.
        lightest = np.full(count, edge.size, dtype=index)
        rank = np.arange(edge.size, dtype=index)
        np.minimum.at(lightest, ca, rank)
        np.minimum.at(lightest, cb, rank)
        roots = np.flatnonzero(lightest < edge.size).astype(index, copy=False)
        best = lightest[roots]
        other = np.where(ca[best] == roots, cb[best], ca[best])
        # Two components that share their lightest edge would hook onto
        # each other; the smaller one stays a root instead.
        hooks = (np.take(lightest, other) != best) | (other < roots)
        parent = np.arange(count, dtype=index)
        parent[roots[hooks]] = other[hooks]
        while True:
            grand = np.take(parent, parent)
            if np.array_equal(grand, parent):
                break
            parent = grand
        renumber = np.cumsum(parent == np.arange(count), dtype=index) - 1
        comp = np.take(np.take(renumber, parent), comp)
        count = int(renumber[-1]) + 1
        picked.append(edge[_sorted_unique(best)])
    joins = np.sort(np.concatenate(picked)) if picked else edge[:0]
    return joins, comp


def _join_cycles(succ: np.ndarray, in_order: np.ndarray,
                 sources: np.ndarray) -> np.ndarray:
    """Merge the cycles of succ into one, in place, and return the
    positions in in_order of the joins, ascending.

    in_order lists the in-edges grouped by vertex in ascending vertex
    order.  Swapping the successors of two in-edges of one vertex that lie
    on different cycles splices those cycles together (Etzion & Lempel's
    cycle joining).  The joins are the ones an in-order scan with a
    union-find over the cycles makes: at consecutive in-edges, in in_order
    order, wherever the two cycles are still apart.  Those are exactly the
    minimum spanning forest of the cycle pairs weighted by position, which
    Borůvka's rounds find in a few vectorised passes.  The joins are
    applied in ascending order, each run of consecutive positions as one
    rotation of successors, which is what the scan's successive swaps
    amount to.

    Raises DisconnectedError when some cycles share no vertex.  Every
    pair of cycles that meets has then been seen, so the forest's
    components are the weak components, which in a balanced graph are
    the strongly-connected ones; the error counts their edges.
    """
    index = succ.dtype
    cycle_of = _cycle_labels(succ)
    # Number the cycles 0, 1, ... in the order of their labels.
    number = np.cumsum(cycle_of == np.arange(succ.size, dtype=index),
                       dtype=index) - 1
    cycles = int(number[-1]) + 1
    if cycles == 1:
        return number[:0]
    labels = np.take(number, np.take(cycle_of, in_order))
    at = np.flatnonzero((sources[1:] == sources[:-1])
                        & (labels[1:] != labels[:-1])).astype(index)
    joins, comp = _spanning_forest(labels[at], labels[at + 1], cycles)
    if joins.size != cycles - 1:
        sizes = np.bincount(np.take(comp, np.take(number, cycle_of)))
        raise DisconnectedError(sorted(sizes.tolist(), reverse=True))
    at = at[joins]
    x, y = in_order[at], in_order[at + 1]
    run_start = np.ones(at.size, dtype=bool)
    np.not_equal(at[1:], at[:-1] + 1, out=run_start[1:])
    run_end = np.roll(run_start, -1)
    wrapped = succ[x[run_start]]
    succ[x] = succ[y]
    succ[y[run_end]] = wrapped
    return at


def is_connected(g: DBSubgraph) -> tuple[bool, int]:
    """Whether the edges of a balanced subgraph form one strongly-connected
    component.

    Returns (verdict, component count), read off eulerian_circuit's cycle
    joins; the empty graph counts as connected with zero components.  An
    unbalanced subgraph raises the circuit's "not balanced" DomainError.
    """
    if g.edge_count == 0:
        return True, 0
    try:
        eulerian_circuit(g)
    except DisconnectedError as exc:
        return False, len(exc.component_edge_counts)
    return True, 1


def eulerian_circuit(g: DBSubgraph) -> EulerianCircuit:
    """The canonical Eulerian circuit of a balanced, connected subgraph.

    Canonical means: at every vertex, pair the j-th in-edge with the j-th
    out-edge, both in code order; this splits the edges into cycles.  Then
    visit the vertices in code order, and wherever two consecutive
    in-edges of a vertex lie on cycles not yet joined, swap their
    out-edges, which merges the two cycles.  The one cycle left starts at
    the smallest edge, whose prefix is the smallest vertex.  Two calls on
    equal subgraphs return identical circuits.

    The pairing exists exactly when the subgraph is balanced; otherwise a
    DomainError names the unbalanced vertices.  The joins reach one cycle
    exactly when it is also connected; otherwise their spanning forest
    already names the components, with no second pass, in a
    DisconnectedError that carries each component's edge count.

    Every step is a few O(m) numpy passes: the cycles are labelled and the
    final cycle ranked by walks from sparse rulers, with pointer doubling
    for small or adversarial inputs, and the joins are a Borůvka spanning
    forest over the pairs of cycles that meet.
    """
    m = g.edge_count
    if m == 0:
        raise DomainError("Eulerian circuit requires at least one edge")
    index = _index_dtype(m)
    sources = g.sources
    in_order = np.argsort(g.targets, kind="stable").astype(index, copy=False)
    # sources is sorted, so this compares the in- and out-degree sequences.
    if not np.array_equal(g.targets[in_order], sources):
        _, bad = is_balanced(g)
        raise DomainError(f"subgraph is not balanced: {len(bad)} vertices "
                          f"differ, first {bad[0]}")
    succ = np.empty(m, dtype=index)
    succ[in_order] = np.arange(m, dtype=index)
    _join_cycles(succ, in_order, sources)
    order = np.empty(m, dtype=index)
    order[_cycle_ranks(succ)] = np.arange(m, dtype=index)
    start = code_to_tuple(int(sources[0]), g.k, g.order)
    return EulerianCircuit(g.k, g.order, g.edges[order], start)


def circuit_to_sequence(c: EulerianCircuit) -> np.ndarray:
    """One period of symbols: the leading symbol of each edge in order."""
    symbols = (c.edges // c.k**c.order).astype(np.min_scalar_type(c.k - 1))
    symbols.flags.writeable = False
    return symbols


def window_codes(symbols: np.ndarray | Sequence[int], n: int, k: int,
                 reverse: bool = False) -> np.ndarray:
    """Base-k codes of all cyclic length-n windows of one period.

    With reverse=True, the window starting at i is read leftwards
    from position i + n - 1 down to i, i.e. it is the reversal of the
    forward window at i.
    """
    _check_code_width(k, n)
    windows = _cyclic_windows(symbols, n)
    return _digits_to_codes(windows[:, ::-1] if reverse else windows, k)


def window_ids(symbols: np.ndarray | Sequence[int], n: int,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the forward and of the reversed cyclic n-windows of one period.

    Two windows, forward or reversed, get equal ids exactly when they
    are equal.  The ids are the codes of window_codes when k**n fits in
    64 bits, as int32 while k**n < 2**31.  Otherwise, for k < 2**63, they
    are dense ranks among all 2m windows, found by prefix doubling
    (Manber & Myers, SIAM J. Comput. 1993) in O(m log n): the reversed
    window at i is the forward window at (m - i - n) mod m of the
    reversed period, and each round ranks the words of length h + step
    of both cyclic strings from the ranks of their first and last h
    symbols, in one sort, until h reaches n or all 2m words differ.
    """
    if n < 64 and k**n <= _INT64_MAX:
        windows = _cyclic_windows(symbols, n)
        dtype = _index_dtype(k**n)
        return (_digits_to_codes(windows, k, dtype),
                _digits_to_codes(windows[:, ::-1], k, dtype))
    _check_code_width(k, 1)
    s = np.asarray(symbols)
    m = s.size
    index = _index_dtype(2 * m)
    h = 1
    while h < n and k ** (h + 1) < 2**31:
        h += 1
    ranks = np.concatenate([_digits_to_codes(_cyclic_windows(t, h), k)
                            for t in (s, s[::-1])])
    count = k**h
    if count >= 2**31:
        # h is 1: rank the symbols, so that a pair of ranks fits in 64 bits.
        ranks, count = _dense_ranks(ranks, index)
    while h < n:
        step = min(h, n - h)
        key = ranks.astype(np.int64) * count
        key[:m] += np.roll(ranks[:m], -step)
        key[m:] += np.roll(ranks[m:], -step)
        ranks, count = _dense_ranks(key, index)
        h = h + step if count < 2 * m else n
    return ranks[:m], np.roll(ranks[m:][::-1], 1 - n)


def _dense_ranks(values: np.ndarray, index: type) -> tuple[np.ndarray, int]:
    """Each value's place among the distinct values, from 0, in the dtype
    index, and how many distinct values there are."""
    order = np.argsort(values)
    ranked = values[order]
    new = np.empty(values.size, dtype=index)
    new[:1] = 0
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    np.cumsum(new, out=new)
    ranks = np.empty_like(new)
    ranks[order] = new
    return ranks, int(new[-1]) + 1


def checked_symbols(symbols: np.ndarray | Sequence[int], k: int) -> np.ndarray:
    """One period as an array, which must be nonempty, 1-d and over Z_k."""
    s = np.asarray(symbols)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("sequence must be a nonempty 1-d array of symbols")
    if int(s.min()) < 0 or int(s.max()) >= k:
        raise DomainError(f"symbol out of range for alphabet size {k}")
    return s


def _cyclic_windows(symbols: np.ndarray | Sequence[int], n: int) -> np.ndarray:
    """Read-only m x n view whose row i is the cyclic window at i."""
    s = np.asarray(symbols)
    if not np.can_cast(s.dtype, np.int64):
        s = s.astype(np.int64)
    if s.size == 0:
        raise DomainError("sequence period must be at least 1")
    # np.resize repeats the period, so it also wraps periods below n - 1.
    return sliding_window_view(np.concatenate([s, np.resize(s, n - 1)]), n)


def edge_graph_of_sequence(symbols: np.ndarray | Sequence[int], n: int,
                           k: int) -> DBSubgraph:
    """The subgraph whose edges are the cyclic n-windows of a sequence.

    Rejects input with a repeated window: such a sequence has no edge
    graph in the one-edge-per-window sense.
    """
    at_least(k, 2, "alphabet size")
    at_least(n, 2, "window length")
    codes = window_codes(checked_symbols(symbols, k), n, k)
    unique = _sorted_unique(codes)
    if unique.size != codes.size:
        raise DomainError(
            f"sequence repeats a window: only {unique.size} distinct "
            f"windows in a period of {codes.size}")
    return DBSubgraph(k, n - 1, unique)
