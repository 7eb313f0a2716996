"""Acceptance gate: every release-blocking behaviour in one place.

Each criterion asserts exact values inside a wall-clock budget and reports
one PASS/FAIL line through the terminal summary hook in conftest.py.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oseq import oracle
from oseq.bounds import ledger_bound, period_upper_bound
from oseq.constructions import (
    ConstructionRecipe,
    Method,
    end_difference_graph,
    generate,
    lifted_low_pseudoweight_graph,
)
from oseq.errors import ConstructionError
from oseq.graph import (
    circuit_to_sequence,
    edge_graph_of_sequence,
    eulerian_circuit,
    is_antisymmetric,
    is_balanced,
    is_connected,
)
from oseq.tuples import (
    TupleKind,
    ZkTuple,
    all_tuples,
    count_by_doubled_pseudoweight,
    count_tuples,
    doubled_pseudoweight,
    enumerate_count,
)

from test_bounds import BOUND_TABLE
from test_constructions import END_DIFF_5_3, LIFTED_3_3, parse_tuples
from test_oracle import EXAMPLE_3_4, EXAMPLE_4_3, EXAMPLE_5_3, digits

# Frozen reference periods for the end-difference construction (rows n,
# columns k = 5..9).
A_PERIOD_TABLE = {
    2: [10, 12, 21, 24, 36],
    3: [50, 72, 147, 192, 324],
    4: [250, 432, 1029, 1536, 2916],
    5: [1250, 2592, 7203, 12288, 26244],
    6: [6250, 15552, 50421, 98304, 236196],
    7: [31250, 93312, 352947, 786432, 2125764],
}

# Frozen reference periods for the lifted low-pseudoweight construction
# (rows n, columns k = 3..6).
LEMPEL_PERIOD_TABLE = {
    3: [9, 20, 50, 84],
    4: [30, 88, 280, 534],
    5: [93, 372, 1390, 3300],
    6: [288, 1544, 7160, 20172],
}


@contextmanager
def criterion(recorder, number, time_limit, note=""):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        recorder(number, False, time.perf_counter() - start, note)
        raise
    elapsed = time.perf_counter() - start
    recorder(number, elapsed <= time_limit, elapsed, note)
    assert elapsed <= time_limit, (
        f"criterion {number} exceeded its {time_limit}s budget: {elapsed:.2f}s")


def test_criterion_1_bound_table(acceptance_recorder):
    with criterion(acceptance_recorder, 1, 1.0, "56 bound cells"):
        for n, row in BOUND_TABLE.items():
            for k, (new, _old) in zip(range(2, 9), row):
                assert period_upper_bound(k, n) == new, (k, n)


def test_criterion_2_ledger_cross_check(acceptance_recorder):
    with criterion(acceptance_recorder, 2, 1.0, "ledger vs closed form"):
        for k in range(2, 13):
            for n in range(2, 13):
                report = ledger_bound(k, n)
                assert report.ledger_edge_bound // 2 == report.closed_form_bound
                assert report.closed_form_bound == period_upper_bound(k, n)


def test_criterion_3_end_difference_periods(acceptance_recorder, extended):
    rows = range(2, 8) if extended else range(2, 6)
    budget = 600.0 if extended else 60.0
    with criterion(acceptance_recorder, 3, budget,
                   f"end-difference periods n<{rows.stop}"):
        for n in rows:
            for k, expected in zip(range(5, 10), A_PERIOD_TABLE[n]):
                seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, k, n))
                assert seq.period == expected, (k, n)
                assert oracle.verify(seq.symbols, n, k).accepted, (k, n)


def test_criterion_4_end_difference_failures(acceptance_recorder):
    with criterion(acceptance_recorder, 4, 10.0, "small-alphabet splits"):
        with pytest.raises(ConstructionError) as err:
            generate(ConstructionRecipe(Method.END_DIFFERENCE, 3, 3))
        assert err.value.component_count == 2
        with pytest.raises(ConstructionError) as err:
            generate(ConstructionRecipe(Method.END_DIFFERENCE, 3, 4))
        assert err.value.component_count == 3


def test_criterion_5_lempel_periods(acceptance_recorder):
    with criterion(acceptance_recorder, 5, 120.0, "lifted periods 3..6"):
        for n, row in LEMPEL_PERIOD_TABLE.items():
            for k, expected in zip(range(3, 7), row):
                seq = generate(ConstructionRecipe(Method.LEMPEL_LIFT, k, n))
                assert seq.period == expected, (k, n)
                assert oracle.verify(seq.symbols, n, k).accepted, (k, n)


def test_criterion_6_bound_tightness(acceptance_recorder):
    cells = [(k, 3) for k in range(3, 9)] + [(3, 4), (5, 4), (7, 4)]
    with criterion(acceptance_recorder, 6, 60.0, "optimal-period cells"):
        for k, n in cells:
            seq = generate(ConstructionRecipe(Method.LEMPEL_LIFT, k, n))
            assert seq.period == period_upper_bound(k, n), (k, n)


def test_criterion_7_worked_examples(acceptance_recorder):
    with criterion(acceptance_recorder, 7, 10.0, "published sequences"):
        for text, k, n in [(EXAMPLE_5_3, 5, 3), (EXAMPLE_4_3, 4, 3),
                           (EXAMPLE_3_4, 3, 4)]:
            assert oracle.verify(digits(text), n, k).accepted
        g = edge_graph_of_sequence(digits(EXAMPLE_5_3), 3, 5)
        assert sorted(g.edge_tuples()) == sorted(parse_tuples(END_DIFF_5_3))
        assert g == end_difference_graph(5, 3)
        h = edge_graph_of_sequence(digits(EXAMPLE_3_4), 4, 3)
        assert sorted(h.edge_tuples()) == sorted(parse_tuples(LIFTED_3_3))
        assert h == lifted_low_pseudoweight_graph(3, 3)
        assert edge_graph_of_sequence(digits(EXAMPLE_4_3), 3, 4) == \
            lifted_low_pseudoweight_graph(4, 2)


def test_criterion_8_counting_oracle(acceptance_recorder):
    with criterion(acceptance_recorder, 8, 30.0, "closed-form counts"):
        for kind in TupleKind:
            for k in range(2, 6):
                for n in range(3, 7):
                    assert count_tuples(kind, k, n) == enumerate_count(kind, k, n)
        for k in range(2, 6):
            for n in range(1, 7):
                seen = {}
                for syms in all_tuples(k, n):
                    w = doubled_pseudoweight(ZkTuple(k, syms))
                    seen[w] = seen.get(w, 0) + 1
                for w, count in seen.items():
                    assert count_by_doubled_pseudoweight(k, n, w) == count


def test_criterion_9_exhaustive_tightness(acceptance_recorder):
    with criterion(acceptance_recorder, 9, 60.0, "tiny-alphabet search"):
        for k, n, best in [(3, 2, 3), (4, 2, 4), (2, 2, 0)]:
            outcome = oracle.exhaustive_max_period(k, n)
            assert outcome.exact
            assert outcome.period == best


def test_criterion_10_property_suites(acceptance_recorder):
    with criterion(acceptance_recorder, 10, 300.0, "certificates and probes"):
        graphs = []
        for n in range(2, 6):
            for k in range(5, 10):
                graphs.append((end_difference_graph(k, n), k, n))
        for n in range(3, 7):
            for k in range(3, 7):
                graphs.append((lifted_low_pseudoweight_graph(k, n - 1), k, n))
        for g, k, n in graphs:
            assert is_antisymmetric(g)[0], (k, n)
            assert is_balanced(g)[0], (k, n)
            assert is_connected(g)[0], (k, n)
            if g.edge_count <= 10**5:
                seq = circuit_to_sequence(eulerian_circuit(g))
                assert edge_graph_of_sequence(seq, n, k) == g, (k, n)
        rng = np.random.default_rng(181818)
        probes = [generate(ConstructionRecipe(Method.END_DIFFERENCE, 7, 3)),
                  generate(ConstructionRecipe(Method.LEMPEL_LIFT, 4, 4))]
        for _ in range(100):
            seq = probes[int(rng.integers(len(probes)))]
            arr = np.roll(np.asarray(seq.symbols), int(rng.integers(seq.period)))
            if rng.integers(2):
                arr = arr[::-1]
            assert oracle.verify(arr, seq.n, seq.k).accepted
