import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.errors import DomainError, ResourceCapError
from oseq.graph import (
    DBSubgraph,
    build_subgraph,
    circuit_to_sequence,
    code_to_tuple,
    component_edge_counts,
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
)
from oseq.tuples import ZkTuple, is_symmetric


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


def test_edge_cap_enforced():
    with pytest.raises(ResourceCapError):
        full_de_bruijn(10, 9, cap=1000)


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
    assert component_edge_counts(g) == (2, 2)
    ok, ncomp = is_connected(full_de_bruijn(3, 2))
    assert ok and ncomp == 1


def test_connectivity_ignores_empty_graph():
    g = build_subgraph(3, 2, [])
    assert is_connected(g) == (True, 0)


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
    # The first closed walk succeeds; the edge left over is unbalanced.
    with pytest.raises(DomainError, match="balanced"):
        eulerian_circuit(build_subgraph(3, 1, [(0, 0), (1, 2)]))
    with pytest.raises(DomainError):
        eulerian_circuit(build_subgraph(2, 1, []))


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
