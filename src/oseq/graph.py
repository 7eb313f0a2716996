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

from .errors import DomainError, InternalInvariantError, ResourceCapError
from .tuples import ZkTuple, checked_word

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
    if value < 1:
        raise DomainError(f"{EDGE_CAP_ENV} must be positive, got {value}")
    return value


def _check_cap(size: int, cap: int | None) -> None:
    limit = edge_cap() if cap is None else cap
    if size > limit:
        raise ResourceCapError(f"edge set of size {size} exceeds cap {limit}")


def _check_code_width(k: int, length: int) -> None:
    if k**length > _INT64_MAX:
        raise ResourceCapError(
            f"{k}**{length} does not fit in 64-bit edge codes")


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


def _digits_to_codes(digits: np.ndarray, k: int) -> np.ndarray:
    """Base-k code of each row of a symbol matrix, most significant first."""
    codes = np.zeros(digits.shape[0], dtype=np.int64)
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
    hash-based path on large integer arrays.
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
        if self.k < 2:
            raise DomainError(f"alphabet size must be at least 2, got {self.k}")
        if self.order < 1:
            raise DomainError(f"order must be at least 1, got {self.order}")
        _check_code_width(self.k, self.order + 1)
        edges = np.asarray(self.edges, dtype=np.int64)
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
    if k < 2:
        raise DomainError(f"alphabet size must be at least 2, got {k}")
    if order < 1:
        raise DomainError(f"order must be at least 1, got {order}")
    codes = [tuple_to_code(checked_word(edge, k, order + 1, "edge"), k)
             for edge in edges]
    arr = _sorted_unique(np.asarray(codes, dtype=np.int64))
    return DBSubgraph(k, order, arr, duplicates_dropped=len(codes) - arr.size)


def full_de_bruijn(k: int, order: int, cap: int | None = None) -> DBSubgraph:
    """Every (order+1)-tuple over Z_k as an edge."""
    if k < 2 or order < 1:
        raise DomainError("need k >= 2 and order >= 1")
    _check_code_width(k, order + 1)
    total = k ** (order + 1)
    _check_cap(total, cap)
    return DBSubgraph(k, order, np.arange(total, dtype=np.int64))


def palindrome_free_de_bruijn(k: int, order: int,
                              cap: int | None = None) -> DBSubgraph:
    """The full de Bruijn digraph with palindromic edges removed.

    This drops k**ceil((order+1)/2) edges, one per palindrome of length
    order+1.
    """
    g = full_de_bruijn(k, order, cap)
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


def _csr(g: DBSubgraph) -> tuple[int, list[int], list[int]]:
    """Dense adjacency over materialized vertices: row offsets into the
    code-sorted edges, which are grouped by source, and each edge's target."""
    verts = g.vertex_codes
    nv = int(verts.size)
    src_ids = np.searchsorted(verts, g.sources)
    tgt_ids = np.searchsorted(verts, g.targets)
    row = np.searchsorted(src_ids, np.arange(nv + 1))
    return nv, row.tolist(), tgt_ids.tolist()


def _scc_labels(g: DBSubgraph) -> tuple[list[int], int]:
    """Tarjan strongly-connected components, iteratively, over dense ids."""
    nv, row, adj = _csr(g)
    index = [-1] * nv
    low = [0] * nv
    on_stack = bytearray(nv)
    stack: list[int] = []
    labels = [-1] * nv
    counter = 0
    ncomp = 0
    for root in range(nv):
        if index[root] != -1:
            continue
        work = [(root, row[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            v, ptr = work[-1]
            if ptr < row[v + 1]:
                work[-1] = (v, ptr + 1)
                w = adj[ptr]
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, row[w]))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        labels[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return labels, ncomp


def is_connected(g: DBSubgraph) -> tuple[bool, int]:
    """Whether all materialized vertices share one strongly-connected component.

    Returns (verdict, component count); the empty graph counts as connected
    with zero components.
    """
    if g.edge_count == 0:
        return True, 0
    _, ncomp = _scc_labels(g)
    return ncomp <= 1, ncomp


def component_edge_counts(g: DBSubgraph) -> tuple[int, ...]:
    """Edges per strongly-connected component, largest first.

    Edges whose endpoints lie in different components are counted with
    their source.
    """
    if g.edge_count == 0:
        return ()
    labels, ncomp = _scc_labels(g)
    verts = g.vertex_codes
    src_ids = np.searchsorted(verts, g.sources)
    label_arr = np.asarray(labels)
    counts = np.bincount(label_arr[src_ids], minlength=ncomp)
    return tuple(sorted((int(c) for c in counts), reverse=True))


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
    """int32 edge indexes while they fit; OSEQ_EDGE_CAP may allow more."""
    return np.int32 if m < 2**31 else np.int64


def _cycle_labels(succ: np.ndarray) -> np.ndarray:
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


def _cycle_ranks(succ: np.ndarray) -> np.ndarray:
    """Position of each element on the single cycle of succ, counted
    from element 0.

    Wyllie list ranking: cut the cycle in front of element 0, then double
    the pointers, summing hop counts, until every element sees the end.
    """
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


def _join_cycles(succ: np.ndarray, in_order: np.ndarray,
                 sources: np.ndarray) -> bool:
    """Merge the cycles of succ into one, in place; False when some cycles
    share no vertex.

    in_order lists the in-edges grouped by vertex in ascending vertex
    order.  Swapping the successors of two in-edges of one vertex that lie
    on different cycles splices those cycles together (Etzion & Lempel's
    cycle joining).  Joins are tried at consecutive in-edges, in in_order
    order, and made when a union-find over the cycles shows the two still
    apart.  Only the first place where a pair of cycles meets can join
    them, so the pairs are deduplicated before the Python loop sees them.
    """
    m = succ.size
    cycle_of = _cycle_labels(succ)
    cycles = int(np.count_nonzero(cycle_of == np.arange(m, dtype=succ.dtype)))
    if cycles == 1:
        return True
    labels = np.take(cycle_of, in_order)
    at = np.flatnonzero((sources[1:] == sources[:-1])
                        & (labels[1:] != labels[:-1]))
    lo = np.minimum(labels[at], labels[at + 1]).astype(np.int64)
    hi = np.maximum(labels[at], labels[at + 1])
    # Labels are below m, so the key fits int64 while m < 3.03e9.
    key = lo * m + hi
    by_key = np.argsort(key)
    starts = np.flatnonzero(np.diff(key[by_key], prepend=-1))
    first = np.sort(np.minimum.reduceat(by_key, starts))
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while x in parent:
            up = parent[x]
            parent[x] = x = parent.get(up, up)
        return x

    joins = []
    for p, a, b in zip(at[first].tolist(), lo[first].tolist(),
                       hi[first].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            joins.append(p)
            if len(joins) == cycles - 1:
                break
    if len(joins) != cycles - 1:
        return False
    for p in joins:
        x, y = in_order[p], in_order[p + 1]
        succ[x], succ[y] = succ[y], succ[x]
    return True


def _not_eulerian(g: DBSubgraph) -> Exception:
    """Name why a subgraph has no Eulerian circuit."""
    balanced, bad = is_balanced(g)
    if not balanced:
        return DomainError(
            f"subgraph is not balanced: {len(bad)} vertices differ, "
            f"first {bad[0]}")
    connected, ncomp = is_connected(g)
    if not connected:
        return DomainError(
            f"subgraph is not connected: {ncomp} strongly-connected components")
    return InternalInvariantError("cycle joining failed on a balanced, "
                                  "connected subgraph")


def eulerian_circuit(g: DBSubgraph) -> EulerianCircuit:
    """The canonical Eulerian circuit of a balanced, connected subgraph.

    Canonical means: at every vertex, pair the j-th in-edge with the j-th
    out-edge, both in code order; this splits the edges into cycles.  Then
    visit the vertices in code order, and wherever two consecutive
    in-edges of a vertex lie on cycles not yet joined, swap their
    out-edges, which merges the two cycles.  The one cycle left starts at
    the smallest edge, whose prefix is the smallest vertex.  Two calls on
    equal subgraphs return identical circuits.

    The pairing exists exactly when the subgraph is balanced, and the
    joins reach one cycle exactly when it is also connected.  Only when
    either fails are the degrees and then the components examined to name
    the failure as a DomainError.
    """
    m = g.edge_count
    if m == 0:
        raise DomainError("Eulerian circuit requires at least one edge")
    index = _index_dtype(m)
    sources = g.sources
    in_order = np.argsort(g.targets, kind="stable").astype(index, copy=False)
    # sources is sorted, so this compares the in- and out-degree sequences.
    if not np.array_equal(g.targets[in_order], sources):
        raise _not_eulerian(g)
    succ = np.empty(m, dtype=index)
    succ[in_order] = np.arange(m, dtype=index)
    if not _join_cycles(succ, in_order, sources):
        raise _not_eulerian(g)
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
    64 bits; otherwise they are dense ranks, so any k and n work.
    """
    windows = _cyclic_windows(symbols, n)
    if k**n <= _INT64_MAX:
        return _digits_to_codes(windows, k), _digits_to_codes(windows[:, ::-1], k)
    _check_code_width(k, 1)
    width = 1
    while k ** (width + 1) <= _INT64_MAX:
        width += 1
    return _dense_window_ids(windows, k, width)


def _dense_window_ids(windows: np.ndarray, k: int,
                      width: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank the m forward and m reversed rows of a window matrix among
    all 2m, comparing them as base-k words of at most width symbols."""
    m = windows.shape[0]
    keys = [np.concatenate([_digits_to_codes(rows[:, a:a + width], k)
                            for rows in (windows, windows[:, ::-1])])
            for a in range(0, windows.shape[1], width)]
    order = np.lexsort(keys)
    new = np.zeros(2 * m, dtype=bool)
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty(2 * m, dtype=np.int64)
    ids[order] = np.cumsum(new)
    return ids[:m], ids[m:]


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
    if n < 2:
        raise DomainError(f"window length must be at least 2, got {n}")
    s = np.asarray(symbols)
    if s.size and (int(s.min()) < 0 or int(s.max()) >= k):
        raise DomainError(f"symbol out of range for alphabet size {k}")
    codes = window_codes(s, n, k)
    unique = _sorted_unique(codes)
    if unique.size != codes.size:
        raise DomainError(
            f"sequence repeats a window: only {unique.size} distinct "
            f"windows in a period of {codes.size}")
    return DBSubgraph(k, n - 1, unique)
