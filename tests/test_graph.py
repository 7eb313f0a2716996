import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseq import graph, oracle
from oseq.constructions import end_difference_graph
from oseq.errors import DisconnectedError, DomainError, ResourceCapError
from oseq.graph import (
    DBSubgraph,
    EulerianCircuit,
    build_subgraph,
    circuit_to_sequence,
    code_to_tuple,
    edge_graph_of_sequence,
    eulerian_circuit,
    full_de_bruijn,
    is_antinegasymmetric,
    is_antisymmetric,
    is_balanced,
    is_connected,
    palindrome_free_de_bruijn,
    tuple_to_code,
    window_codes,
    window_ids,
)
from oseq.graph import (
    _circuit_order,
    _cycle_layout,
    _cyclic_windows,
    _digits_to_codes,
    _doubling_labels,
    _index_dtype,
    _join_cycles,
    _spanning_forest,
)
from oseq.tuples import ZkTuple, is_symmetric

from test_digests import EXPECTED as DIGESTS


def test_code_round_trip():
    for k in (2, 3, 5):
        for syms in itertools.product(range(k), repeat=3):
            code = tuple_to_code(syms, k)
            assert code_to_tuple(code, k, 3) == syms


def test_code_order_is_lexicographic():
    # most significant symbol first, so numeric order == lexicographic order
    tuples = sorted(itertools.product(range(3), repeat=4))
    codes = [tuple_to_code(t, 3) for t in tuples]
    assert codes == sorted(codes)
    assert codes == list(range(3**4))


def test_full_de_bruijn_counts():
    for k, order in [(2, 2), (3, 2), (4, 3)]:
        g = full_de_bruijn(k, order)
        assert g.edge_count == k ** (order + 1)
        assert is_balanced(g)[0]


@pytest.mark.parametrize("k,order", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 3)])
def test_palindrome_free_edge_count(k, order):
    g = palindrome_free_de_bruijn(k, order)
    n = order + 1
    assert g.edge_count == k**n - k ** ((n + 1) // 2)
    for t in g.edge_tuples():
        assert not is_symmetric(ZkTuple(k, t))


def test_build_subgraph_dedup_and_order():
    g = build_subgraph(3, 2, [(0, 1, 2), (0, 0, 1), (0, 1, 2)])
    assert g.edge_count == 2
    assert g.duplicates_dropped == 1
    assert g.edge_tuples() == [(0, 0, 1), (0, 1, 2)]
    assert (0, 1, 2) in g
    assert (2, 1, 0) not in g


def test_build_subgraph_rejects_bad_symbols():
    with pytest.raises(DomainError):
        build_subgraph(3, 2, [(0, 1, 3)])
    with pytest.raises(DomainError):
        build_subgraph(1, 2, [(0, 0, 0)])


def test_edge_cap_enforced(monkeypatch):
    assert full_de_bruijn(10, 2).edge_count == 1000
    monkeypatch.setenv("OSEQ_EDGE_CAP", "999")
    with pytest.raises(ResourceCapError):
        full_de_bruijn(10, 2)


def test_antisymmetry_witness():
    ok, witness = is_antisymmetric(build_subgraph(3, 2, [(0, 1, 2), (1, 0, 0)]))
    assert ok and witness is None
    bad = build_subgraph(3, 2, [(0, 1, 2), (2, 1, 0), (0, 0, 1)])
    ok, witness = is_antisymmetric(bad)
    assert not ok
    assert witness == ((0, 1, 2), (2, 1, 0))


def test_antisymmetry_rejects_palindrome_edge():
    # a palindromic edge is its own reversal
    ok, witness = is_antisymmetric(build_subgraph(3, 2, [(0, 1, 0)]))
    assert not ok
    assert witness == ((0, 1, 0), (0, 1, 0))


def test_antinegasymmetry_witness():
    # reversal of (0,1,2) negated in Z_3 is (1,2,0)
    bad = build_subgraph(3, 2, [(0, 1, 2), (1, 2, 0)])
    ok, witness = is_antinegasymmetric(bad)
    assert not ok
    assert witness == ((0, 1, 2), (1, 2, 0))
    ok, _ = is_antinegasymmetric(build_subgraph(3, 2, [(0, 1, 2), (0, 0, 1)]))
    assert ok


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_reversal_checks_match_set_reference(k, order, data):
    words = data.draw(st.sets(st.tuples(*[st.integers(0, k - 1)] * (order + 1)),
                              max_size=30))
    g = build_subgraph(k, order, words)
    mirrors = [lambda w: w[::-1],
               lambda w: tuple((-s) % k for s in reversed(w))]
    for check, mirror in zip((is_antisymmetric, is_antinegasymmetric), mirrors):
        bad = sorted(w for w in words if mirror(w) in words)
        want = (True, None) if not bad else (False, (bad[0], mirror(bad[0])))
        assert check(g) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4),
       st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_edge_graph_of_sequence_matches_set_reference(k, n, symbols):
    symbols = [s % k for s in symbols]
    m = len(symbols)
    windows = {tuple(symbols[(i + j) % m] for j in range(n)) for i in range(m)}
    if len(windows) < m:
        with pytest.raises(DomainError, match=f"only {len(windows)} distinct "
                                              f"windows in a period of {m}"):
            edge_graph_of_sequence(symbols, n, k)
    else:
        assert edge_graph_of_sequence(symbols, n, k).edge_tuples() == sorted(windows)


def test_balance_reports_offenders():
    ok, offenders = is_balanced(build_subgraph(2, 1, [(0, 1)]))
    assert not ok
    assert offenders == [(0,), (1,)]


def test_connectivity_components():
    # two disjoint loops
    g = build_subgraph(4, 1, [(0, 1), (1, 0), (2, 3), (3, 2)])
    ok, ncomp = is_connected(g)
    assert not ok
    assert ncomp == 2
    with pytest.raises(DisconnectedError) as err:
        eulerian_circuit(g)
    assert err.value.component_edge_counts == (2, 2)
    ok, ncomp = is_connected(full_de_bruijn(3, 2))
    assert ok and ncomp == 1


def test_connectivity_ignores_empty_graph():
    g = build_subgraph(3, 2, [])
    assert is_connected(g) == (True, 0)


def test_connectivity_refuses_unbalanced_graphs():
    with pytest.raises(DomainError, match="balanced"):
        is_connected(build_subgraph(2, 1, [(0, 1)]))
    # Two loops and a stray edge: unbalanced and split at once.
    with pytest.raises(DomainError, match="balanced"):
        is_connected(build_subgraph(4, 1, [(0, 0), (1, 1), (2, 3)]))


def test_connectivity_reads_only_the_joins(monkeypatch):
    def refuse(*args):
        raise AssertionError("is_connected spliced or built a circuit")

    # The splice and the circuit; the layout ranks within the pairing's
    # cycles at every size, so _doubling_ranks may run.
    monkeypatch.setattr(graph, "_circuit_order", refuse)
    monkeypatch.setattr(graph, "EulerianCircuit", refuse)
    assert is_connected(end_difference_graph(5, 3)) == (True, 1)
    assert is_connected(end_difference_graph(4, 4)) == (False, 6)
    with pytest.raises(DomainError, match="not balanced"):
        is_connected(build_subgraph(2, 1, [(0, 1)]))


def _tarjan_components(g):
    """Strongly-connected components by Tarjan's algorithm (SIAM J.
    Comput. 1972), iteratively over plain Python dicts.

    Returns the component count over the materialized vertices and the
    edges per component, counted with their source, largest first.
    """
    k, base = g.k, g.k**g.order
    edges = g.edges.tolist()
    adj = {}
    for e in edges:
        adj.setdefault(e // k, []).append(e % base)
        adj.setdefault(e % base, [])
    index, low, comp = {}, {}, {}
    stack, on_stack = [], set()
    for root in adj:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, out = work[-1]
            w = next(out, None)
            if w is not None:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = v
                    if w == v:
                        break
    sizes = collections.Counter(comp[e // k] for e in edges)
    return len(set(comp.values())), tuple(sorted(sizes.values(), reverse=True))


def _assert_components_match_tarjan(g):
    ncomp, sizes = _tarjan_components(g)
    assert len(sizes) == ncomp
    assert is_connected(g) == (ncomp == 1, ncomp)
    if ncomp == 1:
        return
    with pytest.raises(DisconnectedError, match=f": {ncomp} strongly") as err:
        eulerian_circuit(g)
    assert err.value.component_edge_counts == sizes


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 2), min_size=1))
def test_connectivity_matches_tarjan_on_random_unions(k, order, seed, parts):
    g = _split_union(k, order, seed, parts, 4)
    assume(g.edge_count)
    _assert_components_match_tarjan(g)


@pytest.mark.parametrize("k,n", [(k, n) for (method, k, n, _), want
                                 in DIGESTS.items() if not isinstance(want, str)])
def test_connectivity_matches_tarjan_on_split_cells(k, n):
    _assert_components_match_tarjan(end_difference_graph(k, n))


def test_eulerian_circuit_full_graph():
    g = full_de_bruijn(2, 3)
    c = eulerian_circuit(g)
    assert len(c) == g.edge_count
    seq = circuit_to_sequence(c)
    assert seq.shape == (16,)
    # a full de Bruijn circuit hits every window exactly once
    codes = window_codes(seq, 4, 2)
    assert sorted(codes.tolist()) == list(range(16))


def test_eulerian_circuit_deterministic():
    g = full_de_bruijn(3, 2)
    first = eulerian_circuit(g)
    second = eulerian_circuit(g)
    assert np.array_equal(circuit_to_sequence(first), circuit_to_sequence(second))


def test_eulerian_circuit_preconditions():
    with pytest.raises(DomainError, match="balanced"):
        eulerian_circuit(build_subgraph(2, 1, [(0, 1)]))
    with pytest.raises(DomainError, match="connected"):
        eulerian_circuit(build_subgraph(4, 1, [(0, 1), (1, 0), (2, 3), (3, 2)]))
    # A loop and a stray edge: both ends of the stray edge are unbalanced.
    with pytest.raises(DomainError, match="balanced"):
        eulerian_circuit(build_subgraph(3, 1, [(0, 0), (1, 2)]))
    with pytest.raises(DomainError):
        eulerian_circuit(build_subgraph(2, 1, []))


@pytest.mark.parametrize("edges,message", [
    ([1, 0], "edge codes must be strictly increasing"),
    ([0, 4, 4], "edge codes must be strictly increasing"),
    ([-1, 3], "edge code out of range"),
    ([0, 27], "edge code out of range"),
])
def test_subgraph_rejects_bad_edge_codes(edges, message):
    with pytest.raises(DomainError, match=message):
        DBSubgraph(3, 2, np.array(edges))


def test_circuit_rejects_broken_invariants():
    good = eulerian_circuit(full_de_bruijn(2, 2))
    start = good.start_vertex
    swapped = good.edges.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    for edges, vertex, message in [
        (good.edges[:0], start, "cannot be empty"),
        (np.concatenate([good.edges, good.edges]), start, "repeats an edge"),
        (swapped, start, "do not chain"),
        (good.edges, (1, 1), "start vertex does not match"),
    ]:
        with pytest.raises(DomainError, match=message):
            EulerianCircuit(2, 2, edges, vertex)
    assert np.array_equal(EulerianCircuit(2, 2, good.edges, start).edges, good.edges)


def _split_union(k, order, seed, parts, walks):
    """Connected unions, one per part, each written in its own k symbols
    of an alphabet of 3k, so that the parts share no vertex."""
    words = []
    for p in sorted(parts):
        part = _eulerian_union(k, order, seed + p, walks).edge_tuples()
        words += [tuple(s + p * k for s in w) for w in part]
    return build_subgraph(3 * k, order, words)


def _eulerian_union(k, order, seed, walks):
    """A balanced, connected subgraph: the union of edge-disjoint cyclic
    sequences that all pass through the vertex 0^order."""
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(walks):
        tail = rng.integers(0, k, int(rng.integers(1, 3 * k))).tolist()
        cyclic = [0] * order + tail
        windows = {tuple((cyclic + cyclic)[i:i + order + 1])
                   for i in range(len(cyclic))}
        if len(windows) == len(cyclic) and not windows & edges:
            edges |= windows
    return build_subgraph(k, order, edges)


def _reference_circuit(g):
    """The documented circuit order, by plain walks over Python lists."""
    edges = g.edges.tolist()
    k, base = g.k, g.k**g.order
    outs, ins = {}, {}
    for i, e in enumerate(edges):
        outs.setdefault(e // k, []).append(i)
        ins.setdefault(e % base, []).append(i)
    succ = [0] * len(edges)
    for v, into in ins.items():
        for x, y in zip(into, outs[v]):
            succ[x] = y
    label = [None] * len(edges)
    for i in range(len(edges)):
        if label[i] is None:
            cycle, j = [i], succ[i]
            while j != i:
                cycle.append(j)
                j = succ[j]
            for j in cycle:
                label[j] = i
    root = {x: x for x in set(label)}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for v in sorted(ins):
        for x, y in zip(ins[v], ins[v][1:]):
            a, b = find(label[x]), find(label[y])
            if a != b:
                root[a] = b
                succ[x], succ[y] = succ[y], succ[x]
    walk, j = [edges[0]], succ[0]
    while j != 0:
        walk.append(edges[j])
        j = succ[j]
    return walk


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.integers(1, 6))
def test_circuit_of_random_eulerian_union(k, order, seed, walks):
    g = _eulerian_union(k, order, seed, walks)
    assume(g.edge_count > 0)
    c = eulerian_circuit(g)
    assert np.array_equal(np.sort(c.edges), g.edges)
    assert np.array_equal(c.edges % k**order, np.roll(c.edges, -1) // k)
    assert c.start_vertex == code_to_tuple(int(g.vertex_codes[0]), k, order)
    assert c.edges.tolist() == _reference_circuit(g)
    assert np.array_equal(eulerian_circuit(g).edges, c.edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_circuit_failures_on_random_unions(k, order, seed):
    g = _eulerian_union(k, order, seed, 4)
    assume(g.edge_count > 0)
    # Over 2k symbols, a copy written in symbols k..2k-1 shares no vertex.
    words = g.edge_tuples()
    apart = build_subgraph(2 * k, order,
                           words + [tuple(s + k for s in w) for w in words])
    with pytest.raises(DomainError, match="connected"):
        eulerian_circuit(apart)
    # Dropping an edge that is not a loop unbalances both of its ends.
    drop = int(np.flatnonzero(g.sources != g.targets)[0])
    with pytest.raises(DomainError, match="balanced"):
        eulerian_circuit(DBSubgraph(k, order, np.delete(g.edges, drop)))


def test_circuit_with_wide_indexes(monkeypatch):
    # Edge sets of 2**31 edges or more index with int64; force that path.
    g = _eulerian_union(4, 3, 7, 12)
    narrow = eulerian_circuit(g)
    monkeypatch.setattr(graph, "_index_dtype", lambda m: np.int64)
    assert np.array_equal(eulerian_circuit(g).edges, narrow.edges)
    assert _index_dtype(2**31 - 1) is np.int32
    assert _index_dtype(2**31) is np.int64


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.randoms(use_true_random=False))
def test_doubling_helpers_in_int64(m, rnd):
    # Random cycles, laid out and checked against plain walks: by pointer
    # doubling at these sizes, and by ruler walks with the size constant
    # patched down, so that cycles with and without a ruler both occur.
    # (At 2 the walks recurse down to a single ruler and stop there.)
    order = rnd.sample(range(m), m)
    cuts = sorted(rnd.sample(range(1, m), rnd.randint(0, m - 1)))
    cycles = [order[lo:hi] for lo, hi in zip([0] + cuts, cuts + [m])]
    succ = np.empty(m, dtype=np.int64)
    for cycle in cycles:
        succ[cycle] = np.roll(cycle, -1)
    walk = order[order.index(0):] + order[:order.index(0)]
    whole = np.empty(m, dtype=np.int64)
    whole[walk] = np.roll(walk, -1)
    smallest = _doubling_labels(succ)
    for cycle in cycles:
        assert set(smallest[cycle].tolist()) == {min(cycle)}
    for walk_min in (graph._WALK_MIN, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_WALK_MIN", walk_min)
            pos, heads = _cycle_layout(succ)
            ranks, one_head = _cycle_layout(whole)
        assert pos.dtype == heads.dtype == np.int64
        _assert_layout(pos, heads, succ)
        # On a single cycle, the layout ranks every element from 0.
        assert ranks.dtype == np.int64
        assert ranks[walk].tolist() == list(range(m))
        assert one_head.tolist() == [0]


def _assert_layout(pos, heads, succ):
    """Every cycle of succ on consecutive slots in successor order, from
    its first slot, one of heads; element 0 at slot 0; heads ascending."""
    m = succ.size
    assert sorted(pos.tolist()) == list(range(m))
    assert pos[0] == 0
    at = np.empty(m, dtype=np.int64)
    at[pos] = np.arange(m)
    firsts = []
    for head in heads.tolist():
        firsts.append(head)
        slot, e = head, int(at[head])
        while int(succ[e]) != int(at[head]):
            e = int(succ[e])
            slot += 1
            assert pos[e] == slot
    assert firsts == sorted(set(firsts))
    # The heads tile the slots: each cycle ends where the next begins.
    lengths = np.diff(firsts + [m]).tolist()
    for head, length in zip(firsts, lengths):
        e = int(at[head])
        assert len(_cycle_of(succ, e)) == length


def _cycle_of(succ, e):
    cycle = [e]
    while int(succ[cycle[-1]]) != e:
        cycle.append(int(succ[cycle[-1]]))
    return cycle


class _CountingNumpy:
    """numpy for the graph module, counting the gathers from one array."""

    def __init__(self, source):
        self.source = source
        self.gathers = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def take(self, a, *args, **kwargs):
        self.gathers += a is self.source
        return np.take(a, *args, **kwargs)


def test_ruler_walk_stops_at_its_bound(monkeypatch):
    # One cycle that visits every non-ruler before any ruler: the last
    # ruler's walk would need m - m/stride steps.  It must give up after
    # the bound, one gather of succ per step, and doubling must finish.
    stride = graph._RULER_STRIDE
    m = stride * (graph._WALK_BOUND // stride + 8)
    cycle = [i for i in range(m) if i % stride] + list(range(0, m, stride))
    assert m - m // stride > graph._WALK_BOUND
    succ = np.empty(m, dtype=np.int64)
    succ[cycle] = np.roll(cycle, -1)
    monkeypatch.setattr(graph, "_WALK_MIN", 2)
    counting = _CountingNumpy(succ)
    monkeypatch.setattr(graph, "np", counting)
    pos, heads = _cycle_layout(succ)
    # The walk's gathers, then doubling's first pointer jump; the ranks
    # start from np.where, not from a gather of succ.
    assert counting.gathers == graph._WALK_BOUND + 1
    walk = cycle[cycle.index(0):] + cycle[:cycle.index(0)]
    assert pos[walk].tolist() == list(range(m))
    assert heads.tolist() == [0]


def test_circuit_walks_the_pairing_once(monkeypatch):
    # One walk over the pairing's successors lays its cycles out; the
    # joined cycle is spliced from that layout, not walked again.
    g = end_difference_graph(9, 6)
    assert g.edge_count >= graph._WALK_MIN
    want = _circuit_order(g)
    counting = _CountingNumpy(None)
    walked = []
    walk = graph._walk

    def counted_walk(succ):
        if succ.size == g.edge_count:
            counting.source = succ
            pairing.append(succ.copy())
        trail = walk(succ)
        walked.append((succ.size, len(trail[2])))
        return trail

    pairing = []
    monkeypatch.setattr(graph, "np", counting)
    monkeypatch.setattr(graph, "_walk", counted_walk)
    assert np.array_equal(_circuit_order(g), want)
    # The ruler permutation is laid out by doubling at this size.
    ((size, steps),) = walked
    assert size == g.edge_count
    # 11 of the pairing's 174 cycles hold no ruler.
    labels = _doubling_labels(pairing[0])
    cycles = np.unique(labels)
    ruled = np.unique(labels[::graph._RULER_STRIDE])
    assert (cycles.size, ruled.size) == (174, 163)
    # One gather per step, then one of the ruler-free cycles' successors.
    assert counting.gathers == steps + 1


def _kruskal(a, b, nodes):
    """Kruskal's in-order scan with a Python union-find over the edges
    (a[i], b[i]) weighted by i: the forest's edges and each node's root."""
    root = list(range(nodes))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    picked = []
    for i, (u, v) in enumerate(zip(a, b)):
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            picked.append(i)
    return picked, [find(x) for x in range(nodes)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda nodes: st.tuples(
    st.just(nodes),
    st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)),
             max_size=120))))
def test_spanning_forest_matches_kruskal(case):
    nodes, pairs = case
    a = np.array([u for u, _ in pairs], dtype=np.int32)
    b = np.array([v for _, v in pairs], dtype=np.int32)
    joins, comp = _spanning_forest(a, b, nodes)
    picked, roots = _kruskal(a.tolist(), b.tolist(), nodes)
    assert joins.tolist() == picked
    # Same partition of the nodes, components numbered from 0.
    assert sorted(set(comp.tolist())) == list(range(len(set(roots))))
    assert len(set(zip(comp.tolist(), roots))) == len(set(roots))


def _union_find_joins(succ, in_order, sources):
    """The cycle joins by an in-order scan with a Python union-find over
    the cycles, as eulerian_circuit made them before its Borůvka forest.

    Returns the join positions in in_order, or raises DisconnectedError
    with the edges per union-find class, largest first.
    """
    cycle_of = _doubling_labels(succ).tolist()
    labels = [cycle_of[i] for i in in_order.tolist()]
    parent = {}

    def find(x):
        while x in parent:
            up = parent[x]
            parent[x] = x = parent.get(up, up)
        return x

    joins = []
    for p in range(len(labels) - 1):
        if sources[p] == sources[p + 1]:
            ra, rb = find(labels[p]), find(labels[p + 1])
            if ra != rb:
                parent[ra] = rb
                joins.append(p)
    if len(joins) != len(set(cycle_of)) - 1:
        sizes = collections.Counter(find(c) for c in cycle_of)
        raise DisconnectedError(sorted(sizes.values(), reverse=True))
    return joins


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 2), min_size=1), st.integers(1, 6))
def test_joins_match_union_find_reference(k, order, seed, parts, walks):
    # Connected unions (one part) and split ones (two or three parts).
    g = _split_union(k, order, seed, parts, walks)
    assume(g.edge_count)
    index = _index_dtype(g.edge_count)
    in_order, succ = _pairing(g)
    pairing = succ.copy()
    try:
        want = _union_find_joins(succ, in_order, g.sources)
    except DisconnectedError as exc:
        with pytest.raises(DisconnectedError) as err:
            _join_cycles(g)
        assert err.value.component_edge_counts == exc.component_edge_counts
        return
    # The joined successors fix the join set: the rotations equal the
    # scan's successive swaps.
    for p in want:
        x, y = in_order[p], in_order[p + 1]
        succ[x], succ[y] = succ[y], succ[x]
    joined, pos, cuts = _join_cycles(g)
    assert joined.dtype == pos.dtype == index
    assert np.array_equal(joined, succ)
    # pos is the pairing's layout, a permutation of the slots; cuts marks
    # each cycle's first slot and each slot after a changed successor.
    layout, heads = _cycle_layout(pairing)
    assert sorted(pos.tolist()) == list(range(g.edge_count))
    assert np.array_equal(pos, layout)
    moved = np.flatnonzero(joined != pairing)
    assert cuts.size == g.edge_count + 1
    assert set(np.flatnonzero(cuts).tolist()) == set(heads.tolist()) | set(
        (pos[moved] + 1).tolist())


def _pairing(g):
    """The in-edges in order of their targets, and the pairing's successors."""
    index = _index_dtype(g.edge_count)
    in_order = np.argsort(g.targets, kind="stable").astype(index)
    succ = np.empty(g.edge_count, dtype=index)
    succ[in_order] = np.arange(g.edge_count, dtype=index)
    return in_order, succ


def _assert_splice_matches_walk(g, stride, wide, walk_min=2):
    """_circuit_order from the pairing's layout, with graphs of walk_min
    edges and up walked and rulers every stride elements, equals a
    pure-Python walk of the joined successors from edge 0, or raises the
    same DisconnectedError as the unpatched joins.  Returns the splice
    cases the graph meets."""
    try:
        joined, _, _ = _join_cycles(g)
    except DisconnectedError as exc:
        want = exc.component_edge_counts
    else:
        want, j = [0], int(joined[0])
        while j != 0:
            want.append(j)
            j = int(joined[j])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_WALK_MIN", walk_min)
        mp.setattr(graph, "_RULER_STRIDE", stride)
        if wide:
            mp.setattr(graph, "_index_dtype", lambda m: np.int64)
        try:
            got = _circuit_order(g)
        except DisconnectedError as exc:
            assert exc.component_edge_counts == want
            return set()
        assert got.dtype == (np.int64 if wide else np.int32)
        assert got.tolist() == want
        _, succ = _pairing(g)
        pos, heads = _cycle_layout(succ)
    cases = set()
    # A run of r joins changes r + 1 successors, a lone join 2.
    moved = np.flatnonzero(joined != succ)
    if moved.size < 2 * (heads.size - 1):
        cases.add("rotation")
    if np.isin(pos[moved] + 1, np.append(heads, g.edge_count)).any():
        cases.add("wrapping cut")
    labels = _doubling_labels(succ)
    if set(labels.tolist()) - set(labels[::stride].tolist()):
        cases.add("no ruler")
    return cases


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sets(st.integers(0, 2), min_size=1), st.integers(1, 8),
       st.sampled_from([2, 4, 64]), st.sampled_from([2, graph._WALK_MIN]))
@pytest.mark.parametrize("wide", [False, True])
def test_splice_matches_walk_of_joined_successors(wide, k, order, seed,
                                                  parts, walks, stride,
                                                  walk_min):
    # At the real _WALK_MIN these graphs are laid out by doubling, the
    # path every table cell takes; at 2 every graph is walked.
    g = _split_union(k, order, seed, parts, walks)
    assume(g.edge_count)
    _assert_splice_matches_walk(g, stride, wide, walk_min)


def test_splice_reference_meets_every_case():
    # Seeded connected unions that together hold a join on the last slot
    # of its cycle (its cut wraps to the next cycle's start), a run of
    # consecutive joins (a rotation) and a cycle without a ruler.
    cases = collections.Counter()
    for seed in range(30):
        for stride in (2, 4):
            g = _eulerian_union(3, 2, seed, 8)
            cases.update(_assert_splice_matches_walk(g, stride, wide=False))
    assert set(cases) == {"rotation", "wrapping cut", "no ruler"}


def test_window_codes_reverse():
    seq = np.array([0, 1, 2, 0, 2])
    fwd = window_codes(seq, 2, 3)
    rev = window_codes(seq, 2, 3, reverse=True)
    assert fwd.tolist() == [tuple_to_code((0, 1), 3), tuple_to_code((1, 2), 3),
                            tuple_to_code((2, 0), 3), tuple_to_code((0, 2), 3),
                            tuple_to_code((2, 0), 3)]
    assert rev.tolist() == [tuple_to_code((1, 0), 3), tuple_to_code((2, 1), 3),
                            tuple_to_code((0, 2), 3), tuple_to_code((2, 0), 3),
                            tuple_to_code((0, 2), 3)]


def test_edge_graph_of_sequence():
    g = edge_graph_of_sequence([0, 0, 1, 0, 2], 2, 3)
    assert g.edge_tuples() == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    with pytest.raises(DomainError):
        edge_graph_of_sequence([0, 1, 0, 1], 2, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=3))
def test_full_graph_circuit_round_trip(k, order):
    g = full_de_bruijn(k, order)
    seq = circuit_to_sequence(eulerian_circuit(g))
    assert edge_graph_of_sequence(seq, order + 1, k) == g


def test_degree_lemma_on_palindrome_free_graph():
    # palindrome-free graph: in-degree k-1 at left-semi-symmetric
    # vertices, k elsewhere; out-degree mirrors that on the right
    from oseq.tuples import is_left_semi_symmetric, is_right_semi_symmetric

    for k in (2, 3, 4):
        for order in (2, 3, 4):
            g = palindrome_free_de_bruijn(k, order)
            degrees = g.degree_map()
            for v in itertools.product(range(k), repeat=order):
                indeg, outdeg = degrees.get(v, (0, 0))
                assert indeg == (k - 1 if is_left_semi_symmetric(v) else k)
                assert outdeg == (k - 1 if is_right_semi_symmetric(v) else k)


def test_subgraph_equality():
    a = build_subgraph(3, 2, [(0, 1, 2), (1, 2, 0)])
    b = build_subgraph(3, 2, [(1, 2, 0), (0, 1, 2)])
    c = build_subgraph(3, 2, [(0, 1, 2)])
    assert a == b
    assert a != c


def reference_window_codes(symbols, n, k, reverse):
    m = len(symbols)
    codes = []
    for i in range(m):
        word = [int(symbols[(i + d) % m]) for d in range(n)]
        codes.append(tuple_to_code(word[::-1] if reverse else word, k))
    return codes


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=1, max_value=7),
        st.lists(st.integers(min_value=0, max_value=k - 1),
                 min_size=1, max_size=12),
        st.sampled_from([np.uint8, np.int64]),
        st.booleans(),
    )
))
def test_window_codes_match_reference(case):
    k, n, symbols, dtype, reverse = case
    got = window_codes(np.asarray(symbols, dtype=dtype), n, k, reverse=reverse)
    assert got.dtype == np.int32  # k**n <= 6**7 < 2**31
    assert got.tolist() == reference_window_codes(symbols, n, k, reverse)


@pytest.mark.parametrize("reverse", [False, True])
def test_window_codes_widen_to_int64_from_2_to_the_31(reverse):
    rng = np.random.default_rng(12)
    symbols = rng.integers(0, 7, 40).astype(np.uint8)
    assert 2**31 <= 7**12 < 2**63
    got = window_codes(symbols, 12, 7, reverse=reverse)
    assert got.dtype == np.int64
    assert got.tolist() == reference_window_codes(symbols, 12, 7, reverse)
    assert window_codes(symbols, 11, 7).dtype == np.int32  # 7**11 < 2**31


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=k - 1),
                 min_size=1, max_size=20),
    )
))
def test_dense_window_ids_keep_window_equality(case):
    # Every word width, down to one symbol per word, must give equal ids
    # to exactly the equal windows among all forward and reversed ones.
    k, n, symbols = case
    codes = window_codes(symbols, n, k).tolist() + window_codes(
        symbols, n, k, reverse=True).tolist()
    for width in range(1, n + 1):
        fwd, rev = _dense_window_ids(_cyclic_windows(symbols, n), k, width)
        ids = fwd.tolist() + rev.tolist()
        assert sorted(set(ids)) == list(range(len(set(ids))))
        assert {(a == b) == (c == d) for a, c in zip(codes, ids)
                for b, d in zip(codes, ids)} == {True}


def _dense_window_ids(windows, k, width):
    """Rank the m forward and m reversed rows of a window matrix among
    all 2m, comparing them as base-k words of at most width symbols.

    The chunked lexsort that window_ids used past 64-bit codes before
    prefix doubling, kept as the reference: it sorts n/width keys of all
    2m windows at once, so its time and memory grow with m * n.
    """
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


def lexsort_window_ids(symbols, n, k):
    """window_ids past 64-bit codes through the chunked-lexsort reference."""
    width = 1
    while k ** (width + 1) < 2**63:
        width += 1
    return _dense_window_ids(_cyclic_windows(symbols, n), k, width)


def first_holders(fwd, rev):
    """Each of the 2m ids replaced by the first index holding it, so two
    id pairs give equal arrays exactly when they tie the same windows."""
    _, first, inverse = np.unique(np.concatenate([fwd, rev]),
                                  return_index=True, return_inverse=True)
    return first[inverse]


def wide_window_cases():
    """Seeded periods past 64-bit window codes: random ones; ones with a
    planted duplicate or reversal of an earlier window, or a copy of all
    but its last symbol; and repeats of a short block, whose windows tie
    in many ways at once.  At k = 2**40 the blocks mix 0, 1 and 2**24,
    whose pairs k * a + b would wrap past 64 bits, a + 2**24 onto a."""
    rng = np.random.default_rng(1993)
    cases = []
    params = [(2, n) for n in range(64, 201, 17)] + [(11, 19), (2**40, 5)]
    for k, n in params:
        for kind in ("random", "duplicate", "reversal", "near", "block"):
            planted = kind in ("duplicate", "reversal", "near")
            m = int(rng.integers(2 * n + 1 if planted else 1, 4 * n))
            symbols = rng.integers(0, k, m)
            if kind == "block":
                pool = [0, 1, 2**24] if k > 2**24 else range(min(k, 3))
                symbols = np.resize(rng.choice(pool, int(rng.integers(1, 9))), m)
            elif planted:
                a, b = rng.integers(m // 2 - n), rng.integers(m // 2, m - n)
                window = symbols[a:a + n].copy()
                if kind == "near":
                    window[-1] = (window[-1] + 1) % k
                symbols[b:b + n] = window[::-1] if kind == "reversal" else window
            cases.append(pytest.param(symbols, k, n, id=f"k{k}-n{n}-m{m}-{kind}"))
    # Windows that differ only in a first symbol of 0 or 2**24.
    wrap = np.array([2**24, 1, 1, 1, 1, 0, 1, 1, 1, 1])
    return cases + [pytest.param(wrap, 2**40, 5, id="k2**40-wrap")]


@pytest.mark.parametrize("symbols,k,n", wide_window_cases())
def test_doubling_ids_match_lexsort_reference(monkeypatch, symbols, k, n):
    fwd, rev = window_ids(symbols, n, k)
    assert np.array_equal(first_holders(fwd, rev),
                          first_holders(*lexsort_window_ids(symbols, n, k)))
    got = oracle.verify(symbols, n, k)
    monkeypatch.setattr(oracle, "window_ids", lexsort_window_ids)
    assert oracle.verify(symbols, n, k) == got


def test_wide_verify_memory_stays_linear():
    # The chunked lexsort took about 58 MB at m = n = 8,000, growing with
    # m * n; prefix doubling keeps a few arrays of 2m ranks.
    symbols = np.random.default_rng(10).integers(0, 10, 20_000)
    tracemalloc.start()
    try:
        assert oracle.verify(symbols, 20_000, 10).accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_window_ids_switch_to_dense_ids_past_64_bits():
    rng = np.random.default_rng(11)
    narrow = rng.integers(0, 7, 50)
    fwd, rev = window_ids(narrow, 7, 7)
    assert fwd.tolist() == window_codes(narrow, 7, 7).tolist()
    assert rev.tolist() == window_codes(narrow, 7, 7, reverse=True).tolist()
    wide = rng.integers(0, 11, 50)
    wide[30:49] = wide[0:19]
    fwd, rev = window_ids(wide, 19, 11)
    windows = [tuple(wide[(i + d) % 50] for d in range(19)) for i in range(50)]
    words = windows + [w[::-1] for w in windows]
    ids = fwd.tolist() + rev.tolist()
    assert fwd[0] == fwd[30]
    assert all((words[a] == words[b]) == (ids[a] == ids[b])
               for a in range(100) for b in range(100))


def test_window_codes_wrap_periods_shorter_than_window():
    # Period 2 with windows of 5 wraps the period more than once.
    assert window_codes(np.array([1, 0], np.uint8), 5, 2).tolist() == [
        tuple_to_code((1, 0, 1, 0, 1), 2), tuple_to_code((0, 1, 0, 1, 0), 2)]
    assert window_codes([2], 3, 3, reverse=True).tolist() == [26]
    with pytest.raises(DomainError, match="period must be at least 1"):
        window_codes([], 3, 3)


def test_contains_range_checks_symbols():
    # (0, 3, 0) and (1, -1, 0) would alias the codes of (1, 0, 0) and
    # (0, 2, 0) if their symbols were not checked.
    g = build_subgraph(3, 2, [(1, 0, 0), (0, 2, 0)])
    for edge, bad in [((0, 3, 0), 3), ((1, -1, 0), -1)]:
        with pytest.raises(DomainError,
                           match=f"symbol {bad} out of range for alphabet size 3"):
            edge in g
        with pytest.raises(DomainError,
                           match=f"symbol {bad} out of range for alphabet size 3"):
            build_subgraph(3, 2, [edge])
    assert (1, 0, 0) in g and ZkTuple(3, (0, 2, 0)) in g
    assert (0, 0, 0) not in g


@pytest.mark.parametrize("edge,message", [
    (ZkTuple(4, (0, 1, 2)), "mixed alphabets: 4 vs 3"),
    ((0, 1), "edge must have 3 symbols, got 2"),
    ((0, 1, 2, 0), "edge must have 3 symbols, got 4"),
    ((0, 1, 5), "symbol 5 out of range for alphabet size 3"),
])
def test_edge_validation_messages(edge, message):
    g = build_subgraph(3, 2, [(0, 1, 2)])
    with pytest.raises(DomainError, match=message):
        edge in g
    with pytest.raises(DomainError, match=message):
        build_subgraph(3, 2, [edge])
