import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq import constructions, graph, oracle
from oseq.constructions import (
    ConstructionRecipe,
    Method,
    block_end_difference_graph,
    end_difference_graph,
    expected_period,
    generate,
    lempel_lift,
    lempel_map,
    lempel_preimages,
    lifted_low_pseudoweight_graph,
    low_pseudoweight_graph,
    odd_end_difference_graph,
)
from oseq.errors import (
    ConstructionError,
    DomainError,
    InternalInvariantError,
    ResourceCapError,
)
from oseq.graph import (
    build_subgraph,
    full_de_bruijn,
    is_antinegasymmetric,
    is_antisymmetric,
    is_balanced,
    is_connected,
)
from oseq.tuples import ZkTuple

# Reference edge set for the end-difference construction at k=5, n=3:
# all 3-tuples whose last minus first symbol is 1 or 2 mod 5.
END_DIFF_5_3 = """
001 002 102 103 203 204 304 300 400 401
011 012 112 113 213 214 314 310 410 411
021 022 122 123 223 224 324 320 420 421
031 032 132 133 233 234 334 330 430 431
041 042 142 143 243 244 344 340 440 441
"""

# Low-pseudoweight 3-tuples over Z_3 (doubled pseudoweight below 9).
LOW_WEIGHT_3_3 = """
111
011 101 110
001 010 100
112 121 211
"""

# Difference-map preimages of the set above: 30 4-tuples grouped in threes
# by the 3-tuple they map to.
LIFTED_3_3 = """
0120 1201 2012
0012 1120 2201 0112 1220 2001 0122 1200 2011
0001 1112 2220 0011 1122 2200 0111 1222 2000
0121 1202 2010 0101 1212 2020 0201 1012 2120
"""


def parse_tuples(block):
    return [tuple(int(c) for c in word) for word in block.split()]


def test_end_difference_5_3_matches_reference_table():
    expected = build_subgraph(5, 2, parse_tuples(END_DIFF_5_3))
    assert expected.edge_count == 50
    assert end_difference_graph(5, 3) == expected


def test_low_pseudoweight_3_3_matches_reference_table():
    expected = build_subgraph(3, 2, parse_tuples(LOW_WEIGHT_3_3))
    assert expected.edge_count == 10
    assert low_pseudoweight_graph(3, 3) == expected


def test_lifted_3_3_matches_reference_table():
    expected = build_subgraph(3, 3, parse_tuples(LIFTED_3_3))
    assert expected.edge_count == 30
    assert lifted_low_pseudoweight_graph(3, 3) == expected
    assert lempel_lift(low_pseudoweight_graph(3, 3)) == expected


def test_low_pseudoweight_4_2_five_edges():
    g = low_pseudoweight_graph(4, 2)
    assert g.edge_tuples() == sorted([(1, 0), (1, 1), (1, 2), (0, 1), (2, 1)])


def test_lifted_4_2_closed_form_edges():
    expected = []
    for a in range(4):
        expected += [
            (a, (a + 1) % 4, (a + 1) % 4),
            (a, (a + 1) % 4, (a + 2) % 4),
            (a, (a + 1) % 4, (a + 3) % 4),
            (a, a, (a + 1) % 4),
            (a, (a + 2) % 4, (a + 3) % 4),
        ]
    assert lifted_low_pseudoweight_graph(4, 2) == build_subgraph(4, 2, expected)


def test_lempel_map_is_consecutive_difference():
    assert lempel_map(ZkTuple(5, (0, 1, 4, 4))) == ZkTuple(5, (1, 3, 0))
    assert lempel_map(ZkTuple(3, (2, 0, 1))) == ZkTuple(3, (1, 1))


def test_lempel_map_unit_check():
    with pytest.raises(DomainError):
        lempel_map(ZkTuple(4, (0, 1, 2)), beta=2)
    assert lempel_map(ZkTuple(4, (0, 1, 2)), beta=3) is not None


@given(st.integers(min_value=2, max_value=6).flatmap(
    lambda k: st.lists(st.integers(min_value=0, max_value=k - 1),
                       min_size=1, max_size=6).map(lambda s: ZkTuple(k, tuple(s)))
))
def test_lempel_preimages_round_trip(c):
    pres = lempel_preimages(c)
    assert len(pres) == c.k
    assert [p[0] for p in pres] == list(range(c.k))
    for p in pres:
        assert len(p) == len(c) + 1
        assert lempel_map(p) == c


def test_block_width_one_is_plain_end_difference():
    for k in (5, 6, 7):
        for n in (2, 3, 4):
            assert block_end_difference_graph(k, n, 1) == end_difference_graph(k, n)


def test_block_end_difference_edge_count():
    assert block_end_difference_graph(5, 4, 2).edge_count == 250


def test_expected_period_of_block_variant_is_closed_form():
    # The two disjoint blocks' sums differ uniformly modulo k, so every
    # block width keeps the edge count of t = 1.
    for k in range(5, 10):
        for n in range(2, 7):
            for t in range(1, n // 2 + 1):
                recipe = ConstructionRecipe(Method.BLOCK_END_DIFFERENCE, k, n, t)
                want = block_end_difference_graph(k, n, t).edge_count
                assert expected_period(recipe) == want == (k - 1) // 2 * k ** (n - 1)


def test_odd_end_difference_graph_edges():
    g = odd_end_difference_graph(5, 2)
    for t in g.edge_tuples():
        assert (t[-1] - t[0]) % 5 in (1, 3)


def test_end_rules_match_mask_over_all_candidates():
    # The direct enumeration against the rule applied to every n-tuple.
    for k in range(3, 12):
        for n in range(2, 8):
            if k**n > 300_000:
                continue
            codes = np.arange(k**n, dtype=np.int64)
            diff = (codes % k - codes // k ** (n - 1)) % k
            plain = codes[(diff >= 1) & (diff <= (k - 1) // 2)]
            assert np.array_equal(end_difference_graph(k, n).edges, plain)
            if k % 2 and k >= 5:
                odd = codes[diff % 2 == 1]
                assert np.array_equal(odd_end_difference_graph(k, n).edges, odd)
            if k < 5:
                continue
            digits = codes[:, None] // k ** np.arange(n - 1, -1, -1) % k
            for t in range(1, n // 2 + 1):
                diff = (digits[:, n - t:].sum(axis=1) - digits[:, :t].sum(axis=1)) % k
                block = codes[(diff >= 1) & (diff <= (k - 1) // 2)]
                assert np.array_equal(block_end_difference_graph(k, n, t).edges, block)


def test_end_rules_cap_counts_the_edges_built(monkeypatch):
    # Each rule keeps 2 of the 5 last symbols (or blocks) at (5,4): a cap
    # of 250 edges admits the graph and 249 refuses it, whatever k**n is.
    builds = (end_difference_graph, odd_end_difference_graph,
              lambda k, n: block_end_difference_graph(k, n, 2))
    for build in builds:
        monkeypatch.setenv("OSEQ_EDGE_CAP", "250")
        assert build(5, 4).edge_count == 250
        monkeypatch.setenv("OSEQ_EDGE_CAP", "249")
        with pytest.raises(ResourceCapError, match="^edge set of size 250 exceeds cap 249$"):
            build(5, 4)


def test_block_end_rule_peak_is_sized_to_its_output():
    # Nothing of size k**n: the build peaks near its edge array (k**n is
    # 7/3 times the output at k = 7).
    tracemalloc.start()
    try:
        g = block_end_difference_graph(7, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * g.edges.nbytes


@pytest.mark.parametrize("k,n", [(5, 2), (5, 3), (6, 3), (7, 2), (9, 3)])
def test_end_difference_generate(k, n):
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, k, n))
    assert seq.period == (k - 1) // 2 * k ** (n - 1)
    assert seq.period == expected_period(seq.recipe)
    assert oracle.verify(seq.symbols, n, k)


@pytest.mark.parametrize("k,n", [(5, 2), (5, 3), (7, 3)])
def test_odd_end_difference_generate(k, n):
    seq = generate(ConstructionRecipe(Method.ODD_END_DIFFERENCE, k, n))
    assert seq.period == (k - 1) // 2 * k ** (n - 1)
    assert oracle.verify(seq.symbols, n, k)


@pytest.mark.parametrize("k,n,t", [(5, 4, 2), (6, 4, 2), (7, 6, 3)])
def test_block_end_difference_generate(k, n, t):
    recipe = ConstructionRecipe(Method.BLOCK_END_DIFFERENCE, k, n, t=t)
    seq = generate(recipe)
    assert seq.period == expected_period(recipe)
    assert oracle.verify(seq.symbols, n, k)


@pytest.mark.parametrize("k,n,period", [(3, 3, 9), (3, 4, 30), (4, 3, 20),
                                        (4, 4, 88), (5, 4, 280), (6, 3, 84)])
def test_lempel_generate(k, n, period):
    recipe = ConstructionRecipe(Method.LEMPEL_LIFT, k, n)
    seq = generate(recipe)
    assert seq.period == period
    assert seq.period == expected_period(recipe)
    assert oracle.verify(seq.symbols, n, k)


def test_generate_attaches_recipe():
    recipe = ConstructionRecipe(Method.END_DIFFERENCE, 5, 2)
    seq = generate(recipe)
    assert seq.recipe == recipe


@pytest.mark.parametrize("k,n,ncomp,counts", [
    (3, 3, 2, (6, 3)),
    (3, 4, 3, (9, 9, 9)),
])
def test_end_difference_small_alphabet_disconnects(k, n, ncomp, counts):
    with pytest.raises(ConstructionError) as err:
        generate(ConstructionRecipe(Method.END_DIFFERENCE, k, n))
    assert err.value.component_count == ncomp
    assert tuple(err.value.component_edge_counts) == counts


def test_end_difference_small_alphabet_short_windows_still_work():
    # the single difference class forms one cycle when n = 2
    for k, period in [(3, 3), (4, 4)]:
        seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, k, 2))
        assert seq.period == period


def test_recipe_validation():
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.END_DIFFERENCE, 2, 3)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.ODD_END_DIFFERENCE, 6, 3)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.ODD_END_DIFFERENCE, 3, 3)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.BLOCK_END_DIFFERENCE, 5, 4, t=3)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.BLOCK_END_DIFFERENCE, 4, 4, t=2)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.LEMPEL_LIFT, 3, 2)
    with pytest.raises(DomainError):
        ConstructionRecipe(Method.END_DIFFERENCE, 5, 3, t=1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=3, max_value=5), st.integers(min_value=2, max_value=4))
def test_lift_preserves_degrees(k, n):
    base = low_pseudoweight_graph(k, n)
    lifted = lempel_lift(base)
    assert lifted.edge_count == k * base.edge_count
    base_deg = base.degree_map()
    lifted_deg = lifted.degree_map()
    for vertex, (din, dout) in lifted_deg.items():
        image = lempel_map(ZkTuple(k, vertex))
        assert (din, dout) == base_deg.get(tuple(image), (0, 0))


@pytest.mark.parametrize("k,n", [(3, 3), (4, 3), (5, 3), (5, 4), (6, 3)])
def test_construction_certificates(k, n):
    g = lifted_low_pseudoweight_graph(k, n - 1)
    assert is_antisymmetric(g)[0]
    assert is_balanced(g)[0]
    assert is_connected(g)[0]
    base = low_pseudoweight_graph(k, n - 1)
    assert is_antinegasymmetric(base)[0]


def test_expected_period_lempel_closed_form():
    # period = k * (k^(n-1) - r) / 2, r counting the (n-1)-tuples whose
    # doubled pseudoweight sits exactly at the midpoint (n-1)k
    assert expected_period(ConstructionRecipe(Method.LEMPEL_LIFT, 3, 4)) == 30
    assert expected_period(ConstructionRecipe(Method.LEMPEL_LIFT, 4, 5)) == 372
    assert expected_period(ConstructionRecipe(Method.LEMPEL_LIFT, 5, 6)) == 7160
    assert expected_period(ConstructionRecipe(Method.LEMPEL_LIFT, 6, 6)) == 20172


def test_non_antisymmetric_edge_set_fails_verification(monkeypatch):
    # Eulerian, but with palindromic edges: only verify() can object.
    monkeypatch.setattr(constructions, "_build_graph",
                        lambda recipe: full_de_bruijn(3, 1))
    with pytest.raises(InternalInvariantError, match="palindrome"):
        generate(ConstructionRecipe(Method.END_DIFFERENCE, 3, 2))


def test_unbalanced_connected_edge_set_is_internal_error(monkeypatch):
    g = build_subgraph(3, 1, [(0, 1), (1, 0), (1, 2), (2, 0)])
    monkeypatch.setattr(constructions, "_build_graph", lambda recipe: g)
    with pytest.raises(InternalInvariantError, match="balanced"):
        generate(ConstructionRecipe(Method.END_DIFFERENCE, 3, 2))


def test_unbalanced_split_edge_set_is_internal_error(monkeypatch):
    # Imbalance is named first, even when the edge set also splits.
    g = build_subgraph(4, 1, [(0, 1), (1, 0), (2, 3)])
    monkeypatch.setattr(constructions, "_build_graph", lambda recipe: g)
    with pytest.raises(InternalInvariantError, match="balanced"):
        generate(ConstructionRecipe(Method.END_DIFFERENCE, 3, 2))


def test_split_report_takes_no_second_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("component report recomputed")

    for name in ("is_balanced", "is_connected"):
        monkeypatch.setattr(graph, name, refuse)
    with pytest.raises(ConstructionError) as err:
        generate(ConstructionRecipe(Method.END_DIFFERENCE, 4, 4))
    assert err.value.component_edge_counts == (12,) * 5 + (4,)


@pytest.mark.parametrize("method,k,n,t", [
    ("a", 5, 3, None), ("c", 5, 3, None), ("a_t", 5, 4, 2), ("lempel", 4, 3, None),
])
def test_generate_runs_no_separate_certificates(monkeypatch, method, k, n, t):
    def refuse(*args):
        raise AssertionError("certificate called on a good recipe")

    # generate spells the circuit order itself: it builds no checked
    # EulerianCircuit, which verify() would check again.
    for name in ("is_antisymmetric", "is_antinegasymmetric", "is_balanced",
                 "is_connected", "eulerian_circuit", "circuit_to_sequence",
                 "EulerianCircuit"):
        monkeypatch.setattr(graph, name, refuse)
        monkeypatch.setattr(constructions, name, refuse, raising=False)
    verified = []
    real_verify = oracle.verify

    def spy(*args):
        verified.append(args)
        return real_verify(*args)

    monkeypatch.setattr(oracle, "verify", spy)
    recipe = ConstructionRecipe(Method(method), k, n, t=t)
    seq = generate(recipe)
    assert seq.period == expected_period(recipe)
    assert len(verified) == 1
