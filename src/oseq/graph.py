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
        raise ResourceCapError(f"{k}**{length} does not fit in 64-bit codes")


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


def _edge_codes(edges) -> np.ndarray:
    """Edge codes as int64, refusing a nonempty array that is not of
    integer or bool dtype (as checked_symbols refuses symbols)."""
    codes = np.asarray(edges)
    if codes.size and codes.dtype.kind not in "biu":
        raise DomainError("edge codes must be integers")
    return codes.astype(np.int64, copy=False)


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
        edges = _edge_codes(self.edges)
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
        edges = _edge_codes(self.edges)
        object.__setattr__(self, "edges", edges)
        if edges.size == 0:
            raise DomainError("an Eulerian circuit cannot be empty")
        if _sorted_unique(edges).size != edges.size:
            raise DomainError("circuit repeats an edge")
        if not np.array_equal(edges % self.k**self.order, np.roll(edges, -1) // self.k):
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


# From this many elements on, _cycle_layout walks from sparse rulers in O(m);
# below, doubling's log2(m) passes cost less (break-even ~150k edges).
_WALK_MIN = 1 << 17
# Every multiple of the stride (a power of two) is a ruler.  The longest
# gap between rulers on the golden cells spans about 10 strides, so a walk
# still going after the bound meets an adversarial order; doubling takes over.
_RULER_STRIDE = 64
_WALK_BOUND = 32 * _RULER_STRIDE


def _walk(succ: np.ndarray):
    """Follow the permutation succ from every ruler at once until each
    walker meets the next ruler: one gather per step for all walkers
    (a sparse ruling set, after Helman & JáJá, JPDC 2001).

    Ruler r is element r * _RULER_STRIDE.  Returns None once a walk
    passes _WALK_BOUND steps, else the trail: seen lists each element a
    walk reached, its next ruler included; who is the ruler that walk
    began at; step s + 1 wrote sizes[s] entries.  The two m-element
    blocks are preallocated (per-step lists took 6% more peak RSS).
    """
    index = succ.dtype
    here = np.arange(0, succ.size, _RULER_STRIDE, dtype=index)
    walker = np.arange(here.size, dtype=index)
    seen, who = np.empty_like(succ), np.empty_like(succ)
    sizes, filled = [], 0
    for _ in range(_WALK_BOUND):
        here = np.take(succ, here)
        seen[filled:filled + here.size] = here
        who[filled:filled + here.size] = walker
        sizes.append(here.size)
        filled += here.size
        going = (here & (_RULER_STRIDE - 1)) != 0
        walker, here = walker[going], here[going]
        if here.size == 0:
            return seen[:filled], who[:filled], sizes
    return None


def _cycle_layout(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A slot for each element of the permutation succ, and each cycle's
    first slot, ascending: every cycle fills consecutive slots in
    successor order, and element 0 sits at slot 0.

    One _walk places each ruler at the sum of the gaps before it in the
    layout of the ruler permutation, and each element on the trail its
    step count after its walk's ruler.  Cycles without a ruler, and
    arrays under _WALK_MIN or too adversarial to walk, are laid out by
    pointer doubling, in the order of their smallest elements.
    """
    m, index = succ.size, succ.dtype
    walk = _walk(succ) if m >= _WALK_MIN else None
    if walk is None:
        labels = _doubling_labels(succ)
        size = np.bincount(labels).astype(index)
        start = np.cumsum(size, dtype=index) - size
        ranks = _doubling_ranks(succ, labels, int(size.max()))
        return np.take(start, labels) + ranks, start[size > 0]
    seen, who, sizes = walk
    place = np.repeat(np.arange(1, len(sizes) + 1, dtype=index), sizes)
    met = np.flatnonzero((seen & (_RULER_STRIDE - 1)) == 0)  # the walks' ends
    link = np.empty_like(succ[::_RULER_STRIDE])
    link[who[met]] = seen[met] // _RULER_STRIDE
    ruler_pos, heads = _cycle_layout(link)
    gap = np.empty_like(link)
    gap[np.take(ruler_pos, who[met])] = place[met]
    start = np.cumsum(gap, dtype=index) - gap
    heads, start = start[heads], np.take(start, ruler_pos)
    place += np.take(start, who)
    pos = np.full(m, -1, dtype=index)
    np.put(pos, seen, place)
    pos[::_RULER_STRIDE] = start
    placed = seen.size - met.size + link.size
    if placed < m:
        rest = np.flatnonzero(pos < 0).astype(index, copy=False)
        # The cycles off the trail are closed under succ; until they are
        # placed, pos maps each of their elements to its place in rest.
        pos[rest] = np.arange(rest.size, dtype=index)
        rest_pos, rest_heads = _cycle_layout(np.take(pos, np.take(succ, rest)))
        pos[rest] = rest_pos + placed
        heads = np.concatenate([heads, rest_heads + placed])
    return pos, heads


def _doubling_labels(succ: np.ndarray) -> np.ndarray:
    """The smallest element on each element's cycle of the permutation succ.

    Pointer doubling: after t rounds each label is the minimum over the
    next 2**t elements.  A round that changes no label means the windows
    already tile every cycle, so the labels are final.
    """
    labels, jump = np.arange(succ.size, dtype=succ.dtype), succ
    while True:
        widened = np.minimum(labels, np.take(labels, jump))
        if np.array_equal(widened, labels):
            return labels
        labels, jump = widened, np.take(jump, jump)


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
        hops += np.take(hops, jump)
        jump = np.take(jump, jump)
    return np.take(hops, first) - hops


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
            pair = (np.minimum(ca, cb)[keep] * count
                    + np.maximum(ca, cb)[keep])
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


def _join_cycles(g: DBSubgraph):
    """(succ, pos, cuts): the successor of each edge, as edge indexes,
    once the canonical cycle joining has left one cycle; each edge's slot
    in the pairing's _cycle_layout; and a mask over the slots and m: cycle
    starts, and each slot after an edge whose successor the joins changed.

    Pairing the j-th in-edge with the j-th out-edge of every vertex, both
    in code order, splits the edges into cycles; the pairing exists
    exactly when g is balanced, and otherwise a DomainError names the
    unbalanced vertices.  Swapping the successors of two in-edges of one
    vertex that lie on different cycles splices those cycles (Etzion &
    Lempel's cycle joining).  The joins are the ones an in-order scan with
    a union-find over the cycles makes at consecutive in-edges, vertices
    in code order: the minimum spanning forest of the cycle pairs weighted
    by position, which Borůvka's rounds find in a few vectorised passes.
    Each run of consecutive joins is one rotation of successors.  If some
    cycles share no vertex, a DisconnectedError counts the edges of the
    forest's components: the weak, so in a balanced graph the strong, ones.
    """
    m = g.edge_count
    index = _index_dtype(m)
    in_order = np.argsort(g.targets, kind="stable").astype(index, copy=False)
    # sources is sorted, so this compares the in- and out-degree sequences.
    if not np.array_equal(g.targets[in_order], g.sources):
        _, bad = is_balanced(g)
        raise DomainError(f"subgraph is not balanced: {len(bad)} vertices "
                          f"differ, first {bad[0]}")
    succ = np.empty(m, dtype=index)
    np.put(succ, in_order, np.arange(m, dtype=index))
    pos, heads = _cycle_layout(succ)
    cuts = np.zeros(m + 1, dtype=bool)
    cuts[heads] = True
    if heads.size == 1:
        return succ, pos, cuts
    # Number the cycles 0, 1, ... in the order of their slots.
    number = np.take(np.cumsum(cuts[:m], dtype=index) - 1, pos)
    # The in-edges at positions p and p + 1 lead to edges p and p + 1.
    at = np.flatnonzero((g.sources[1:] == g.sources[:-1])
                        & (number[1:] != number[:-1])).astype(index)
    joins, comp = _spanning_forest(number[at], number[at + 1], heads.size)
    if joins.size != heads.size - 1:
        sizes = np.bincount(np.take(comp, number))
        raise DisconnectedError(sorted(sizes.tolist(), reverse=True))
    at = at[joins]
    x, y = in_order[at], in_order[at + 1]
    run_start = np.ones(at.size, dtype=bool)
    np.not_equal(at[1:], at[:-1] + 1, out=run_start[1:])
    run_end = np.roll(run_start, -1)
    succ[x] = at + 1
    succ[y[run_end]] = at[run_start]
    cuts[np.take(pos, np.concatenate([x, y[run_end]])) + 1] = True
    return succ, pos, cuts


def _circuit_order(g: DBSubgraph) -> np.ndarray:
    """The edge indexes of g in canonical circuit order, from edge 0: the
    pieces of the pairing's layout between cuts, which the joined
    successors follow whole, ranked from the one at slot 0 and read out
    by one gather through the layout's inverse."""
    if g.edge_count == 0:
        raise DomainError("Eulerian circuit requires at least one edge")
    succ, pos, cuts = _join_cycles(g)
    m, index = succ.size, succ.dtype
    order = np.empty_like(succ)
    np.put(order, pos, np.arange(m, dtype=index))
    first = np.flatnonzero(cuts[:m]).astype(index)
    last = np.append(first[1:], m) - 1
    # Each piece ends at an edge whose successor starts a piece.
    after = (np.cumsum(cuts[:m], dtype=index) - 1)[pos[succ[order[last]]]]
    piece = np.empty_like(after)
    piece[_doubling_ranks(after, 0, after.size)] = np.arange(after.size, dtype=index)
    length = np.take(last - first + 1, piece)
    slots = np.repeat(first[piece] - np.cumsum(length, dtype=index) + length, length)
    slots += np.arange(m, dtype=index)
    return np.take(order, slots)


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
    out by one walk from sparse rulers (pointer doubling on small or
    adversarial inputs), a Borůvka spanning forest picks the joins, and
    at every size the circuit is spliced from the layout's pieces.
    """
    order = _circuit_order(g)
    start = code_to_tuple(int(g.sources[0]), g.k, g.order)
    return EulerianCircuit(g.k, g.order, g.edges[order], start)


def circuit_to_sequence(c: EulerianCircuit) -> np.ndarray:
    """One period of symbols: the leading symbol of each edge in order."""
    symbols = (c.edges // c.k**c.order).astype(np.min_scalar_type(c.k - 1))
    symbols.flags.writeable = False
    return symbols


def window_codes(symbols: np.ndarray | Sequence[int], n: int, k: int,
                 reverse: bool = False) -> np.ndarray:
    """Base-k codes of all cyclic length-n windows of one period, as
    int32 while k**n < 2**31 and int64 above.

    With reverse=True, the window starting at i is read leftwards
    from position i + n - 1 down to i, i.e. it is the reversal of the
    forward window at i.
    """
    _check_code_width(k, n)
    windows = _cyclic_windows(symbols, n)[:, ::-1 if reverse else 1]
    return _digits_to_codes(windows, k, _index_dtype(k**n))


def window_ids(symbols: np.ndarray | Sequence[int], n: int,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the forward and of the reversed cyclic n-windows of one period.

    Two windows, forward or reversed, get equal ids exactly when they
    are equal.  The ids are the codes of window_codes when k**n fits in
    64 bits.  Otherwise, for k < 2**63, they are dense ranks among all 2m
    windows, found by prefix doubling (Manber & Myers, SIAM J. Comput.
    1993) in O(m log n): the reversed window at i is the forward window
    at (m - i - n) mod m of the reversed period, and each round ranks the
    words of length h + step of both cyclic strings from the ranks of
    their first and last h symbols, in one sort, until h reaches n or all
    2m words differ.
    """
    if n < 64 and k**n <= _INT64_MAX:
        return window_codes(symbols, n, k), window_codes(symbols, n, k, reverse=True)
    s = np.asarray(symbols)
    m = s.size
    index = _index_dtype(2 * m)
    h = 1
    while h < n and k ** (h + 1) < 2**31:
        h += 1
    ranks = np.concatenate([window_codes(t, h, k) for t in (s, s[::-1])])
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
