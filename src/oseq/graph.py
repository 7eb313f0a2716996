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

from .errors import DomainError, InternalInvariantError, ResourceCapError
from .tuples import ZkTuple

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
    codes = np.zeros(digits.shape[0], dtype=np.int64)
    for i in range(digits.shape[1]):
        codes = codes * k + digits[:, i]
    return codes


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
        verts = np.unique(np.concatenate([self.sources, self.targets]))
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
        digits = _codes_to_digits(self.edges, self.k, self.order + 1)
        return [tuple(int(x) for x in row) for row in digits]

    def __contains__(self, edge) -> bool:
        code = self._edge_code(edge)
        i = int(np.searchsorted(self.edges, code))
        return i < self.edges.size and int(self.edges[i]) == code

    def _edge_code(self, edge) -> int:
        if isinstance(edge, ZkTuple):
            if edge.k != self.k:
                raise DomainError(f"mixed alphabets: {edge.k} vs {self.k}")
            edge = edge.symbols
        if len(edge) != self.order + 1:
            raise DomainError(
                f"edge must have {self.order + 1} symbols, got {len(edge)}")
        return tuple_to_code(edge, self.k)


def build_subgraph(k: int, order: int,
                   edges: Iterable[ZkTuple | Sequence[int]]) -> DBSubgraph:
    """Assemble a subgraph from edge words, silently deduplicating.

    The number of dropped duplicates is reported on the result.
    """
    if k < 2:
        raise DomainError(f"alphabet size must be at least 2, got {k}")
    if order < 1:
        raise DomainError(f"order must be at least 1, got {order}")
    length = order + 1
    codes = []
    for edge in edges:
        if isinstance(edge, ZkTuple):
            if edge.k != k:
                raise DomainError(f"mixed alphabets: {edge.k} vs {k}")
            symbols = edge.symbols
        else:
            symbols = tuple(int(s) for s in edge)
            for s in symbols:
                if not 0 <= s < k:
                    raise DomainError(f"symbol {s} out of range for alphabet size {k}")
        if len(symbols) != length:
            raise DomainError(
                f"edge must have {length} symbols, got {len(symbols)}")
        codes.append(tuple_to_code(symbols, k))
    arr = np.unique(np.asarray(codes, dtype=np.int64))
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
    bad = np.intersect1d(g.edges, rev)
    if bad.size == 0:
        return True, None
    c = int(bad[0])
    partner = int(rev[np.searchsorted(g.edges, c)])
    return False, (code_to_tuple(c, g.k, length), code_to_tuple(partner, g.k, length))


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
    """Dense adjacency over materialized vertices.

    Edges are sorted by code, hence grouped by source and ordered by last
    symbol within each group; that ordering is what makes circuit
    extraction canonical.
    """
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
        if np.unique(edges).size != edges.size:
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
        digits = _codes_to_digits(self.edges, self.k, self.order + 1)
        return [tuple(int(x) for x in row) for row in digits]


def eulerian_circuit(g: DBSubgraph) -> EulerianCircuit:
    """The canonical Eulerian circuit of a balanced, connected subgraph.

    Canonical means: start at the smallest materialized vertex, always leave
    on the smallest unused edge, and splice detours into the walk at the
    first position that still has unused edges.  Two calls on equal
    subgraphs return identical circuits.

    The walk is its own certificate: it closes over every edge exactly when
    the subgraph is balanced and connected.  Only when it gets stuck away
    from its origin, or closes with edges left over, are the degrees and
    then the components examined to name the failure as a DomainError.
    """
    if g.edge_count == 0:
        raise DomainError("Eulerian circuit requires at least one edge")
    _, row, adj = _csr(g)
    cursor = row[:-1].copy()
    row_end = row[1:]
    n_edges = g.edge_count
    # Circuit as a linked list of slots; slot 0 is the head sentinel sitting
    # at the start vertex, slots 1..E hold one edge each.
    nxt = [-1] * (n_edges + 1)
    slot_edge = [0] * (n_edges + 1)
    arrive = [0] * (n_edges + 1)
    free = 1
    node = 0
    while node != -1:
        v = arrive[node]
        if cursor[v] < row_end[v]:
            chain_head = -1
            chain_tail = -1
            u = v
            while cursor[u] < row_end[u]:
                ei = cursor[u]
                cursor[u] += 1
                slot = free
                free += 1
                slot_edge[slot] = ei
                u = adj[ei]
                arrive[slot] = u
                if chain_tail == -1:
                    chain_head = slot
                else:
                    nxt[chain_tail] = slot
                chain_tail = slot
            if u != v:
                # Stuck away from its origin; the chain stays unspliced,
                # so the count below comes up short.
                break
            nxt[chain_tail] = nxt[node]
            nxt[node] = chain_head
        else:
            node = nxt[node]
    order_idx = np.empty(n_edges, dtype=np.int64)
    slot = nxt[0]
    pos = 0
    while slot != -1:
        order_idx[pos] = slot_edge[slot]
        pos += 1
        slot = nxt[slot]
    if pos != n_edges:
        balanced, bad = is_balanced(g)
        if not balanced:
            raise DomainError(
                f"subgraph is not balanced: {len(bad)} vertices differ, "
                f"first {bad[0]}")
        connected, ncomp = is_connected(g)
        if not connected:
            raise DomainError(
                f"subgraph is not connected: {ncomp} strongly-connected components")
        raise InternalInvariantError("walk failed on a balanced, connected subgraph")
    start = code_to_tuple(int(g.vertex_codes[0]), g.k, g.order)
    return EulerianCircuit(g.k, g.order, g.edges[order_idx], start)


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
    s = np.asarray(symbols, dtype=np.int64)
    m = s.size
    if m == 0:
        raise DomainError("sequence period must be at least 1")
    codes = np.zeros(m, dtype=np.int64)
    positions = range(n - 1, -1, -1) if reverse else range(n)
    idx = np.arange(m)
    for j in positions:
        codes = codes * k + s[(idx + j) % m]
    return codes


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
    unique = np.unique(codes)
    if unique.size != codes.size:
        raise DomainError(
            f"sequence repeats a window: only {unique.size} distinct "
            f"windows in a period of {codes.size}")
    return DBSubgraph(k, n - 1, unique)
