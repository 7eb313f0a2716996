"""Explicit subgraphs of de Bruijn digraphs over Z_k.

A subgraph of order m stores its edges as sorted codes of (m+1)-tuples in
base k, most significant symbol first, so lexicographic order on tuples
coincides with numeric order on codes; int32 codes while k**(m+1) < 2**31.
Vertices are never stored: a vertex exists exactly when it occurs as the
length-m prefix or suffix of some edge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

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


def _check_cap(size: int, qualifier: str = "") -> None:
    limit = edge_cap()
    if size > limit:
        raise ResourceCapError(f"edge set of size {qualifier}{size} exceeds cap {limit}")


def _fits_int64(k: int, length: int) -> bool:
    """Whether base-k codes of words of this length fit in 64 bits."""
    # k >= 2: from length 64 on, skip computing the huge power.
    return length < 64 and k**length <= _INT64_MAX


def _check_code_width(k: int, length: int) -> None:
    if not _fits_int64(k, length):
        raise ResourceCapError(f"{k}**{length} does not fit in 64-bit codes")


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


def _code_tuples(codes: np.ndarray, k: int, length: int) -> list[tuple[int, ...]]:
    """Codes as plain symbol tuples, most significant symbol first."""
    return list(zip(*(d.tolist() for d in np.unravel_index(codes, (k,) * length))))


def _reverse_codes(codes: np.ndarray, k: int, length: int,
                   negate: bool = False) -> np.ndarray:
    """Codes of the reversed words, each symbol negated modulo k if asked,
    in _index_dtype(k**length): reweight digits in opposite order."""
    dtype = _index_dtype(k**length)
    rev = np.zeros(codes.size, dtype=dtype)
    rest = codes.astype(dtype)
    for _ in range(length):
        digit = rest % k
        rev *= k
        rev += (k - digit) % k if negate else digit
        rest //= k
    return rev


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, by a sort and
    an adjacent compare: numpy 2's unique takes a slower hash path on
    large integer arrays, whose allocations stay behind in the heap (per
    spanning-forest round, they raised decode-stream's peak RSS 12%).
    """
    ordered = np.sort(codes)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _suffix_codes(edges: np.ndarray, size: int) -> np.ndarray:
    """edges % size by floor division: numpy's % by a scalar is ~5x slower."""
    suffixes = edges // size
    suffixes *= size
    return np.subtract(edges, suffixes, out=suffixes)


def _edge_codes(edges, k: int, length: int) -> np.ndarray:
    """Codes below k**length as a read-only 1-d array in _index_dtype(k**length),
    range-checked before any narrowing cast; integer or bool dtype only (as
    checked_symbols).  A read-only array of that dtype, as the builders hand
    over, is kept as is; any other is copied, so a caller's stays theirs."""
    codes = np.asarray(edges)
    if codes.size and codes.dtype.kind not in "biu":
        raise DomainError("edge codes must be integers")
    if codes.ndim != 1:
        raise DomainError(f"edges must be 1-d, got shape {codes.shape}")
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= k**length):
        raise DomainError("edge code out of range")
    codes = codes.astype(_index_dtype(k**length),
                         copy=codes is edges and codes.flags.writeable)
    codes.flags.writeable = False
    return codes


def _read_only(codes: np.ndarray) -> np.ndarray:
    """codes, marked read-only so that a graph takes them uncopied."""
    codes.flags.writeable = False
    return codes


@dataclass(frozen=True, eq=False)
class DBSubgraph:
    """An edge set inside the de Bruijn digraph of the given order; edges
    become read-only codes in _index_dtype(k**(order+1)) (see _edge_codes)."""

    k: int
    order: int
    edges: np.ndarray
    duplicates_dropped: int = 0

    def __post_init__(self):
        at_least(self.k, 2, "alphabet size")
        at_least(self.order, 1, "order")
        _check_code_width(self.k, self.order + 1)
        edges = _edge_codes(self.edges, self.k, self.order + 1)
        object.__setattr__(self, "edges", edges)
        if np.any(edges[1:] <= edges[:-1]):
            raise DomainError("edge codes must be strictly increasing")

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
        return _suffix_codes(self.edges, self.k**self.order)

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
    _check_code_width(k, order + 1)
    size = k ** (order + 1)
    _check_cap(size)
    return DBSubgraph(k, order, _read_only(np.arange(size, dtype=_index_dtype(size))))


def palindrome_free_de_bruijn(k: int, order: int) -> DBSubgraph:
    """The full de Bruijn digraph with palindromic edges removed.

    This drops k**ceil((order+1)/2) edges, one per palindrome of length
    order+1.
    """
    g = full_de_bruijn(k, order)
    rev = _reverse_codes(g.edges, k, order + 1)
    return DBSubgraph(k, order, _read_only(g.edges[g.edges != rev]))


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
        edges = _edge_codes(self.edges, self.k, self.order + 1)
        object.__setattr__(self, "edges", edges)
        if edges.size == 0:
            raise DomainError("an Eulerian circuit cannot be empty")
        if _sorted_unique(edges).size != edges.size:
            raise DomainError("circuit repeats an edge")
        if not np.array_equal(_suffix_codes(edges, self.k**self.order),
                              np.roll(edges, -1) // self.k):
            raise DomainError("consecutive circuit edges do not chain")
        if tuple_to_code(self.start_vertex, self.k) != int(edges[0]) // self.k:
            raise DomainError("start vertex does not match the first edge")

    def __len__(self) -> int:
        return int(self.edges.size)

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return _code_tuples(self.edges, self.k, self.order + 1)


def _index_dtype(m: int) -> type:
    """int32 for values below m while they fit: edge indexes (OSEQ_EDGE_CAP
    may allow more), edge codes below k**(order+1), window codes below k**n."""
    return np.int32 if m < 2**31 else np.int64


_GATHER_BLOCK = 1 << 13


def _gather(table: np.ndarray, index: np.ndarray, out=None) -> np.ndarray:
    """np.take(table, index) for a 1-d index in range, into out (index itself
    will do), _GATHER_BLOCK at a time: the intp copy np.take makes of int32
    indexes then stays in cache.  Fancy indexing makes none, but runs slower."""
    out = np.empty(index.size, dtype=table.dtype) if out is None else out
    for lo in range(0, index.size, _GATHER_BLOCK):
        table.take(index[lo:][:_GATHER_BLOCK], out=out[lo:][:_GATHER_BLOCK], mode="wrap")
    return out


def _scatter(table: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """table[index] = values for a repeat-free index, blocked as in _gather."""
    for lo in range(0, index.size, _GATHER_BLOCK):
        table.put(index[lo:][:_GATHER_BLOCK], values[lo:][:_GATHER_BLOCK], mode="wrap")


# Up to _SEQUENTIAL_MAX elements, _cycle_layout steps through the cycles in
# plain Python; from _WALK_MIN on, it walks from rulers in O(m); between,
# doubling's log2(m) numpy passes cost less.  A ruler-free remainder is
# always doubled: most of its short cycles hold no ruler at any stride.
_SEQUENTIAL_MAX = 1 << 9
_WALK_MIN = 1 << 11


def _ruler_stride(m: int) -> int:
    """Every multiple of this power of two, about m / 4096 from 4 to 64,
    is a ruler.  The longest gap between rulers on the golden cells spans
    15 strides, so a walk past 32 meets an adversarial order."""
    return min(64, max(4, 2 ** (m.bit_length() - 13)))


def _walk(succ: np.ndarray, stride: int):
    """Follow the permutation succ from every ruler at once until each
    walker meets the next ruler: one gather per step for all walkers
    (a sparse ruling set, after Helman & JáJá, JPDC 2001).

    Ruler r is element r * stride.  Returns None once a walk passes
    32 strides of steps, else the trail: seen lists each element a walk
    reached, its next ruler included; who is the ruler that walk began
    at; step s + 1 wrote sizes[s] entries.  The two m-element blocks are
    preallocated (per-step lists took 6% more peak RSS).
    """
    index, step = succ.dtype, succ.take
    here = np.arange(0, succ.size, stride, dtype=index)
    walker = np.arange(here.size, dtype=index)
    seen, who = np.empty_like(succ), np.empty_like(succ)
    sizes, filled = [], 0
    for _ in range(32 * stride):
        here = step(here)
        seen[filled:filled + here.size] = here
        who[filled:filled + here.size] = walker
        sizes.append(here.size)
        filled += here.size
        going = (here & (stride - 1)).nonzero()[0]
        walker, here = walker.take(going), here.take(going)
        if here.size == 0:
            return seen[:filled], who[:filled], sizes
    return None


def _cycle_layout(succ: np.ndarray, rulers: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """A slot for each element of the permutation succ, and each cycle's
    first slot, ascending: every cycle fills consecutive slots in
    successor order, and element 0 sits at slot 0.  The circuit asks no
    more: the order of the other cycles and their starts do not move it.

    One _walk places each ruler at the sum of the gaps before it in the
    layout of the ruler permutation, and each element on the trail its
    step count after its walk's ruler, whose slot overwrites who in place.
    Arrays under _WALK_MIN, ruler-free remainders (rulers=False) and arrays
    too adversarial to walk are doubled, ordered by smallest element.
    """
    m, index = succ.size, succ.dtype
    if m <= _SEQUENTIAL_MAX:
        return _sequential_layout(succ)
    stride = _ruler_stride(m)
    walk = _walk(succ, stride) if rulers and m >= _WALK_MIN else None
    if walk is None:
        labels = _doubling_labels(succ)
        size = np.bincount(labels).astype(index)
        start = size.cumsum(dtype=index) - size
        ranks = _doubling_ranks(succ, labels, int(size.max()))
        return start.take(labels) + ranks, start[size > 0]
    seen, who, sizes = walk
    place = np.arange(1, len(sizes) + 1, dtype=index).repeat(sizes)
    met = ((seen & (stride - 1)) == 0).nonzero()[0]  # the walks' ends
    link = np.empty_like(succ[::stride])
    link[who[met]] = seen[met] // stride
    ruler_pos, heads = _cycle_layout(link)
    gap = np.empty_like(link)
    gap[ruler_pos.take(who[met])] = place[met]
    start = gap.cumsum(dtype=index) - gap
    heads, start = start[heads], start.take(ruler_pos)
    place += _gather(start, who, out=who)
    pos = np.full(m, -1, dtype=index)
    _scatter(pos, seen, place)
    pos[::stride] = start
    placed = seen.size - met.size + link.size
    del walk, seen, who, place
    if placed < m:
        rest = (pos < 0).nonzero()[0].astype(index, copy=False)
        # The cycles off the trail are closed under succ; until they are
        # placed, pos maps each of their elements to its place in rest.
        pos[rest] = np.arange(rest.size, dtype=index)
        rest_pos, rest_heads = _cycle_layout(pos.take(succ.take(rest)), False)
        pos[rest] = rest_pos + placed
        heads = np.concatenate([heads, rest_heads + placed])
    return pos, heads


def _sequential_layout(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_cycle_layout in one plain-Python pass: the cycles in order of
    their smallest element, each in successor order from there."""
    nxt, pos, heads, slot = succ.tolist(), [-1] * succ.size, [], 0
    for e in range(succ.size):
        if pos[e] < 0:
            heads.append(slot)
            while pos[e] < 0:
                pos[e] = slot
                slot, e = slot + 1, nxt[e]
    return np.array(pos, dtype=succ.dtype), np.array(heads, dtype=succ.dtype)


def _doubling_labels(succ: np.ndarray) -> np.ndarray:
    """The smallest element on each element's cycle of the permutation succ.

    Pointer doubling: after t rounds each label is the minimum over the
    next 2**t elements.  A round that changes no label means the windows
    already tile every cycle, so the labels are final.
    """
    labels, jump = np.arange(succ.size, dtype=succ.dtype), succ
    while True:
        widened = np.minimum(labels, labels.take(jump))
        if (widened == labels).all():
            return labels
        labels, jump = widened, jump.take(jump)


def _doubling_ranks(succ: np.ndarray, first: np.ndarray | int,
                    longest: int) -> np.ndarray:
    """Steps to each element of the permutation succ from the element
    first names on its cycle (of at most longest elements), by Wyllie's
    list ranking: cut each cycle in front of that element, then double
    the pointers, summing hop counts."""
    end = succ == first
    jump = np.where(end, np.arange(succ.size, dtype=succ.dtype), succ)
    hops = (~end).astype(succ.dtype)
    for _ in range((longest - 1).bit_length()):
        hops += hops.take(jump)
        jump = jump.take(jump)
    return hops.take(first) - hops


def _spanning_forest(ca: np.ndarray, cb: np.ndarray,
                     nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning forest of the multigraph on nodes 0..nodes-1 whose
    edge i joins ca[i] != cb[i] and weighs i, by Borůvka's rounds.

    Each round, every component hooks onto its lightest edge leaving it;
    the weights are distinct, so those edges belong to the one minimum
    forest, which is also the one that Kruskal's in-order scan builds.
    Returns the forest's edges ascending and each node's component,
    numbered from 0.
    """
    index = ca.dtype
    comp = np.arange(nodes, dtype=index)
    count = nodes
    edge = np.arange(ca.size, dtype=index)
    # Each node is its own component and every edge leaves it, so the
    # first round starts from the edges as given.
    picked = [edge[:0]]
    while edge.size:
        # Edges stay in weight order, so the position is the weight.
        lightest = np.full(count, edge.size, dtype=index)
        for side in (ca, cb):
            np.minimum.at(lightest, side, np.arange(edge.size, dtype=index))
        roots = (lightest < edge.size).nonzero()[0].astype(index, copy=False)
        best = lightest[roots]
        other = np.where(ca[best] == roots, cb[best], ca[best])
        # Two components that share their lightest edge would hook onto
        # each other; the smaller one stays a root, so each edge hooks once.
        hooks = (lightest.take(other) != best) | (other < roots)
        picked.append(edge[best[hooks]])
        parent = np.arange(count, dtype=index)
        parent[roots[hooks]] = other[hooks]
        while True:
            grand = parent.take(parent)
            if (grand == parent).all():
                break
            parent = grand
        renumber = (parent == np.arange(count)).cumsum(dtype=index) - 1
        renumber, count = renumber.take(parent), int(renumber[-1]) + 1
        comp = renumber.take(comp)
        ca, cb = renumber.take(ca), renumber.take(cb)
        keep = (ca != cb).nonzero()[0]
        edge, ca, cb = edge[keep], ca[keep], cb[keep]
    return np.sort(np.concatenate(picked)), comp


# The forest reads the in-edge positions in chunks that double from this size.
_JOIN_CHUNK = 1 << 16


def _join_cycles(g: DBSubgraph):
    """(pred, pos, heads, at): the pairing's predecessors, as edge indexes,
    their _cycle_layout, and the positions p, ascending, at which the
    canonical cycle joining swaps the predecessors of edges p and p + 1.

    Pairing the j-th in-edge with the j-th out-edge of every vertex, both
    in code order, splits the edges into cycles; the stable sort of the
    in-edges by target is that pairing's predecessors.  It exists exactly
    when g is balanced, and otherwise a DomainError names the unbalanced
    vertices.  Swapping the predecessors of two out-edges of one vertex on
    different cycles splices those cycles (Etzion & Lempel's cycle joining).
    The joins are the ones an in-order scan with a union-find over the
    cycles makes at consecutive in-edges, vertices in code order: the
    minimum spanning forest of the cycle pairs weighted by position.  The
    scan joins nothing once the cycles connect, so the positions are read
    in chunks of doubling size, their cycles relabelled by the components
    so far, and Borůvka's rounds join each chunk.  If some cycles share no
    vertex, a DisconnectedError counts the edges of the forest's
    components: the weak, so in a balanced graph the strong.
    """
    m, k, edges = g.edge_count, g.k, g.edges
    index = _index_dtype(m)
    targets, sources = _suffix_codes(edges, k**g.order), edges // k
    pred = targets.argsort(kind="stable").astype(index, copy=False)
    # sources is sorted, so this compares the in- and out-degree sequences.
    if not (_gather(targets, pred) == sources).all():
        _, bad = is_balanced(g)
        raise DomainError(f"subgraph is not balanced: {len(bad)} vertices "
                          f"differ, first {bad[0]}")
    shared = sources[1:] == sources[:-1]  # edges p and p + 1 leave one vertex
    del targets, sources
    pos, heads = _cycle_layout(pred)
    # The cycles are numbered 0, 1, ... in the order of their slots; comp
    # maps each to its component over the chunks read so far.
    cycle = np.repeat(np.arange(heads.size, dtype=index), np.diff(heads, append=m))
    comp, count = np.arange(heads.size, dtype=index), heads.size
    picked, hi = [heads[:0]], 0
    while count > 1 and hi < m - 1:
        lo, hi = hi, min(2 * hi + _JOIN_CHUNK, m - 1)
        label = _gather(comp, _gather(cycle, pos[lo:hi + 1]))
        at = (shared[lo:hi] & (label[1:] != label[:-1])).nonzero()[0]
        joins, comp_of = _spanning_forest(label[at], label[at + 1], count)
        picked.append(at[joins] + lo)
        comp, count = comp_of.take(comp), count - joins.size
    if count > 1:
        sizes = np.bincount(comp, weights=np.diff(heads, append=m))
        raise DisconnectedError(sorted(sizes.astype(int).tolist(), reverse=True))
    return pred, pos, heads, np.concatenate(picked)


def _circuit_order(g: DBSubgraph) -> np.ndarray:
    """The edge indexes of g in canonical circuit order, from edge 0.

    The layout holds each cycle in predecessor order.  A run of joins a..b
    rotates the predecessors of edges a..b + 1: q + 1 takes q's, and a takes
    b + 1's.  Cut after those edges' slots and after slot 0, the layout falls
    into pieces whose last edge's new predecessor starts a piece, found by
    slot; ranked from slot 0, the pieces read back to front are the circuit.
    """
    if g.edge_count == 0:
        raise DomainError("Eulerian circuit requires at least one edge")
    pred, pos, heads, at = _join_cycles(g)
    m, index = pred.size, pred.dtype
    order, count = np.empty_like(pred), np.arange(m, dtype=index)
    _scatter(order, pos, count)
    cuts = _sorted_unique(np.concatenate((heads, [1, m], pos.take(at) + 1,
                                          pos.take(at + 1) + 1), dtype=index))
    breaks = np.ones(at.size + 1, dtype=bool)  # runs of consecutive joins
    breaks[1:-1] = at[1:] != at[:-1] + 1
    pred[at + 1], pred[at[breaks[:-1]]] = pred.take(at), pred.take(at[breaks[1:]] + 1)
    after = pos.take(pred.take(order.take(cuts[1:] - 1)))
    pos[cuts[:-1]] = np.arange(cuts.size - 1, dtype=index)  # pieces by first slot
    after = pos.take(after)
    del pred, pos
    rank = (_sequential_layout(after)[0] if after.size <= _SEQUENTIAL_MAX
            else _doubling_ranks(after, 0, after.size))
    piece = np.empty_like(after)
    piece[-rank] = np.arange(after.size, dtype=index)  # slot 0, then by falling rank
    length = (cuts[1:] - cuts[:-1]).take(piece)
    slots = (cuts[1:].take(piece) + length.cumsum(dtype=index) - length - 1).repeat(length)
    slots -= count
    return _gather(order, slots, out=slots)


def is_connected(g: DBSubgraph) -> tuple[bool, int]:
    """Whether the edges of a balanced subgraph form one strongly-connected
    component.

    Returns (verdict, component count), read off the cycle joins alone;
    the empty graph counts as connected with zero components.  An
    unbalanced subgraph raises the circuit's "not balanced" DomainError.
    """
    if g.edge_count == 0:
        return True, 0
    try:
        _join_cycles(g)
    except DisconnectedError as exc:
        return False, len(exc.component_edge_counts)
    return True, 1


def eulerian_circuit(g: DBSubgraph) -> EulerianCircuit:
    """The canonical Eulerian circuit of a balanced, connected subgraph.

    Canonical means: the cycles of the in/out pairing at every vertex in
    code order, joined at the lowest vertices that can join them, and the
    one cycle left started at the smallest edge, whose prefix is the
    smallest vertex.  Two calls on equal subgraphs return identical
    circuits.  An unbalanced subgraph raises a DomainError naming the
    unbalanced vertices, a disconnected one a DisconnectedError with each
    component's edge count.

    Every step is a few O(m) numpy passes: the pairing's cycles are laid
    out by predecessor in one walk from rulers about m/4096 apart (pointer
    doubling on tiny or adversarial inputs), a Borůvka spanning forest picks
    the joins, and the circuit is the layout's pieces read back to front.
    """
    order = _circuit_order(g)
    start = code_to_tuple(int(g.edges[0]) // g.k, g.k, g.order)
    return EulerianCircuit(g.k, g.order, _read_only(g.edges[order]), start)


def circuit_to_sequence(c: EulerianCircuit) -> np.ndarray:
    """One period of symbols: the leading symbol of each edge in order."""
    symbols = (c.edges // c.k**c.order).astype(np.min_scalar_type(c.k - 1))
    symbols.flags.writeable = False
    return symbols


# Windows per block of _window_blocks, whose four buffers stay in cache.
_BLOCK = 1 << 15


def _window_blocks(s: np.ndarray, n: int,
                   k: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (start, fwd, rev), the forward and reversed codes of the
    cyclic n-windows from start on, _BLOCK at a time in reused buffers:
    Horner's rule in base k**2 over the pairs s[j]*k + s[j+1] forward and
    s[j+1]*k + s[j] reversed, plus one base-k step when n is odd."""
    m, dtype = s.size, _index_dtype(k**n)
    fwd, rev, pairs, reversed_pairs = np.empty((4, min(m, _BLOCK) + n), dtype)
    heads = range(0, n - 1, 2)
    for start in range(0, m, _BLOCK):
        b = min(_BLOCK, m - start)
        stop = start + b + n - 1
        # mode="wrap" also wraps periods below n - 1 more than once.
        w = s[start:stop] if stop <= m else s.take(np.arange(start, stop), mode="wrap")
        p, r = pairs[:b + n - 2], reversed_pairs[:b + n - 2]
        np.multiply(w[:-1], k, out=p, dtype=dtype)
        np.add(p, w[1:], out=p, dtype=dtype)
        np.multiply(w[1:], k, out=r, dtype=dtype)
        np.add(r, w[:-1], out=r, dtype=dtype)
        odd = [(k, w[n - 1:n - 1 + b])] if n % 2 else []
        for out, terms in ((fwd[:b], [(k * k, p[i:i + b]) for i in heads] + odd),
                           (rev[:b], odd + [(k * k, r[i:i + b]) for i in heads[::-1]])):
            out[...] = terms[0][1]
            for radix, digits in terms[1:]:
                out *= radix
                np.add(out, digits, out=out, dtype=dtype)
        yield start, fwd[:b], rev[:b]


def window_codes(symbols: np.ndarray | Sequence[int], n: int, k: int,
                 reverse: bool = False) -> np.ndarray:
    """Base-k codes of all cyclic length-n windows of one period, as
    int32 while k**n < 2**31 and int64 above.

    With reverse=True, the window starting at i is read leftwards
    from position i + n - 1 down to i, i.e. it is the reversal of the
    forward window at i.  The codes come from _window_blocks.
    """
    _check_code_width(k, n)
    s = np.asarray(symbols)
    if not np.can_cast(s.dtype, np.int64):
        s = s.astype(np.int64)
    if s.size == 0:
        raise DomainError("sequence period must be at least 1")
    codes = np.empty(s.size, dtype=_index_dtype(k**n))
    for start, fwd, rev in _window_blocks(s, n, k):
        codes[start:start + fwd.size] = rev if reverse else fwd
    return codes


def window_ids(symbols: np.ndarray | Sequence[int], n: int,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the forward and of the reversed cyclic n-windows of one period,
    for k < 2**63; verify asks only past 64-bit window codes.

    Two windows, forward or reversed, get equal ids exactly when they
    are equal: dense ranks among all 2m windows, by prefix doubling
    (Manber & Myers, SIAM J. Comput. 1993) in O(m log n) from the longest
    words with 64-bit codes, read both ways at each i.  Each round ranks
    the words of length h + step from the ranks of their first and last
    h symbols (read backwards: the h-words at i + step and at i), in one
    sort, until h reaches n or all 2m words differ.  The reversed window
    at i starts with the backward h-word at i + n - h.
    """
    s = np.asarray(symbols)
    m = s.size
    index = _index_dtype(2 * m)
    h = 1
    while h < n and _fits_int64(k, h + 1):
        h += 1
    ranks, count = _dense_ranks(np.concatenate(
        [window_codes(s, h, k, reverse=r) for r in (False, True)]), index)
    while h < n and count < 2 * m:
        step = min(h, n - h)
        key = ranks.astype(np.int64) * count
        key[:m] += np.roll(ranks[:m], -step)
        key[m:] = np.roll(key[m:], -step) + ranks[m:]
        ranks, count = _dense_ranks(key, index)
        h += step
    return ranks[:m], np.roll(ranks[m:], h - n)


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
    """One period as an array, which must be nonempty, 1-d, of integer or
    bool dtype (floats are refused even with whole values) and over Z_k."""
    s = np.asarray(symbols)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("sequence must be a nonempty 1-d array of symbols")
    if s.dtype.kind not in "biu":
        raise DomainError("symbols must be integers")
    if int(s.min()) < 0 or int(s.max()) >= k:
        raise DomainError(f"symbol out of range for alphabet size {k}")
    return s


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
    return DBSubgraph(k, n - 1, _read_only(unique))
