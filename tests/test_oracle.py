import gc
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oseq import graph
from oseq.bounds import period_upper_bound
from oseq.constructions import ConstructionRecipe, Method, generate
from oseq.errors import DomainError, ResourceCapError
from oseq.graph import _reverse_codes, window_codes, window_ids
from oseq.oracle import (
    Direction,
    MutationRecord,
    SearchOutcome,
    VerifyResult,
    _stable_sort,
    exhaustive_max_period,
    locate,
    mutation_test,
    verify,
)
from oseq.sequences import OrientableSequence
from oseq.tuples import ZkTuple

# Explicit published sequences: period 50 over Z_5 with windows of length 3,
# period 20 over Z_4 (length 3), period 30 over Z_3 (length 4).
EXAMPLE_5_3 = "00123401122334400213243042143103142032041022441133"
EXAMPLE_4_3 = "00112012230130231233"
EXAMPLE_3_4 = "012012120201012220112001112200"


def digits(text):
    return np.array([int(c) for c in text])


@pytest.mark.parametrize("text,k,n", [
    (EXAMPLE_5_3, 5, 3),
    (EXAMPLE_4_3, 4, 3),
    (EXAMPLE_3_4, 3, 4),
])
def test_published_examples_accepted(text, k, n):
    verdict = verify(digits(text), n, k)
    assert verdict.accepted
    assert bool(verdict)


def test_verify_rejects_reversed_window():
    verdict = verify(np.array([0, 1, 0]), 2, 2)
    assert not verdict.accepted
    assert verdict.kind == "reversal"
    assert (verdict.i, verdict.j) == (0, 1)


def test_verify_rejects_duplicate_before_later_reversal():
    # window (0,1) repeats at j=3 before its reversal shows up at j=4
    verdict = verify(np.array([0, 1, 2, 0, 1]), 2, 3)
    assert not verdict.accepted
    assert verdict.kind == "duplicate"
    assert (verdict.i, verdict.j) == (0, 3)


def test_verify_rejects_palindromic_window_as_self_reversal():
    verdict = verify(np.array([0, 1, 0, 2]), 3, 3)
    assert not verdict.accepted
    assert verdict.kind == "reversal"
    assert verdict.i == verdict.j == 0


def test_verify_rejects_short_period():
    verdict = verify(np.array([0, 1]), 3, 2)
    assert not verdict.accepted
    assert verdict.kind == "short-period"


def test_verify_domain_errors():
    with pytest.raises(DomainError):
        verify(np.array([0, 1, 2]), 2, 2)
    with pytest.raises(DomainError):
        verify(np.array([]), 2, 2)


def brute_force_orientable(symbols, n, k):
    m = len(symbols)
    if m < n:
        return False
    windows = [tuple(symbols[(i + d) % m] for d in range(n)) for i in range(m)]
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        if i < j and windows[i] == windows[j]:
            return False
        if windows[i] == windows[j][::-1]:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=2, max_value=4),
        st.lists(st.integers(min_value=0, max_value=k - 1),
                 min_size=2, max_size=14),
    )
))
def test_verify_agrees_with_brute_force(knseq):
    k, n, seq = knseq
    assert verify(np.array(seq), n, k).accepted == brute_force_orientable(seq, n, k)


def test_locate_every_window_of_generated_sequence():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 3))
    arr = np.asarray(seq.symbols)
    for i in range(seq.period):
        w = [int(arr[(i + d) % seq.period]) for d in range(3)]
        hit = locate(seq, w)
        assert hit is not None
        assert hit.position == i and hit.direction is Direction.FORWARD
        rhit = locate(seq, w[::-1])
        assert rhit is not None
        assert rhit.position == i and rhit.direction is Direction.REVERSE


def test_locate_absent_window():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 3))
    # uniform windows never occur in this construction
    assert locate(seq, [0, 0, 0]) is None


def test_locate_validates_window():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 2))
    with pytest.raises(DomainError):
        locate(seq, [0, 1, 2])
    with pytest.raises(DomainError):
        locate(seq, [0, 5])


@pytest.mark.parametrize("k,n,best", [(2, 2, 0), (3, 2, 3), (4, 2, 4)])
def test_exhaustive_tiny_alphabets(k, n, best):
    outcome = exhaustive_max_period(k, n)
    assert outcome.exact
    assert outcome.period == best
    if best:
        assert outcome.witness is not None
        assert verify(np.array(outcome.witness), n, k).accepted
        assert len(outcome.witness) == best
    else:
        assert outcome.witness is None


def test_exhaustive_respects_state_cap():
    with pytest.raises(ResourceCapError):
        exhaustive_max_period(10, 4)


def test_exhaustive_budget_gives_lower_bound():
    outcome = exhaustive_max_period(3, 3, node_budget=5)
    assert not outcome.exact
    assert outcome.nodes_expanded <= 5
    assert outcome.period < 9


def test_exhaustive_no_binary_sequence_at_window_four():
    # the bound at k=2, n=4 is 4 but no sequence attains any period
    outcome = exhaustive_max_period(2, 4)
    assert outcome.exact
    assert outcome.period == 0


# The full SearchOutcome of exhaustive_max_period, keyed by (k, n,
# node_budget) and recorded from the recursive search: every cell with
# k**n <= 256 at budgets 0, 1, 37 and 1,000, and, at the default budget
# (None), every cell that finishes exactly within 10**6 nodes.  Values
# are (period, witness, exact, nodes_expanded), the witness one hex digit
# per symbol.  The search order fixes the witness and the node count, so
# a changed entry is a changed answer.
SEARCH_PINS = {
    (2, 2, 0): (0, None, True, 0),
    (2, 2, 1): (0, None, True, 0),
    (2, 2, 37): (0, None, True, 0),
    (2, 2, 1000): (0, None, True, 0),
    (2, 3, 0): (0, None, True, 0),
    (2, 3, 1): (0, None, True, 0),
    (2, 3, 37): (0, None, True, 0),
    (2, 3, 1000): (0, None, True, 0),
    (2, 4, 0): (0, None, False, 0),
    (2, 4, 1): (0, None, False, 1),
    (2, 4, 37): (0, None, True, 12),
    (2, 4, 1000): (0, None, True, 12),
    (2, 5, 0): (0, None, False, 0),
    (2, 5, 1): (0, None, False, 1),
    (2, 5, 37): (0, None, False, 37),
    (2, 5, 1000): (6, "001011", True, 74),
    (2, 6, 0): (0, None, False, 0),
    (2, 6, 1): (0, None, False, 1),
    (2, 6, 37): (0, None, False, 37),
    (2, 6, 1000): (0, None, False, 1000),
    (2, 7, 0): (0, None, False, 0),
    (2, 7, 1): (0, None, False, 1),
    (2, 7, 37): (0, None, False, 37),
    (2, 7, 1000): (0, None, False, 1000),
    (2, 8, 0): (0, None, False, 0),
    (2, 8, 1): (0, None, False, 1),
    (2, 8, 37): (0, None, False, 37),
    (2, 8, 1000): (0, None, False, 1000),
    (3, 2, 0): (0, None, False, 0),
    (3, 2, 1): (0, None, False, 1),
    (3, 2, 37): (3, "012", True, 2),
    (3, 2, 1000): (3, "012", True, 2),
    (3, 3, 0): (0, None, False, 0),
    (3, 3, 1): (0, None, False, 1),
    (3, 3, 37): (9, "001120122", True, 9),
    (3, 3, 1000): (9, "001120122", True, 9),
    (3, 4, 0): (0, None, False, 0),
    (3, 4, 1): (0, None, False, 1),
    (3, 4, 37): (22, "0001011120011210202122", False, 37),
    (3, 4, 1000): (26, "00010111200120112102021222", False, 1000),
    (3, 5, 0): (0, None, False, 0),
    (3, 5, 1): (0, None, False, 1),
    (3, 5, 37): (31, "0000101100020100111120011201012", False, 37),
    (3, 5, 1000): (83,
        "0000101100020100111120011201012002021002201112101121201122012012"
        "1220201221120222212", False, 1000),
    (4, 2, 0): (0, None, False, 0),
    (4, 2, 1): (0, None, False, 1),
    (4, 2, 37): (4, "0123", True, 7),
    (4, 2, 1000): (4, "0123", True, 7),
    (4, 3, 0): (0, None, False, 0),
    (4, 3, 1): (0, None, False, 1),
    (4, 3, 37): (5, "00112", False, 37),
    (4, 3, 1000): (5, "00112", False, 1000),
    (4, 4, 0): (0, None, False, 0),
    (4, 4, 1): (0, None, False, 1),
    (4, 4, 37): (9, "000101112", False, 37),
    (4, 4, 1000): (9, "000101112", False, 1000),
    (5, 2, 0): (0, None, False, 0),
    (5, 2, 1): (0, None, False, 1),
    (5, 2, 37): (10, "0120314234", True, 10),
    (5, 2, 1000): (10, "0120314234", True, 10),
    (5, 3, 0): (0, None, False, 0),
    (5, 3, 1): (0, None, False, 1),
    (5, 3, 37): (22, "0011200310221032033114", False, 37),
    (5, 3, 1000): (50,
        "00112003102210320331140142042132143043144223342344", True, 52),
    (6, 2, 0): (0, None, False, 0),
    (6, 2, 1): (0, None, False, 1),
    (6, 2, 37): (7, "0120314", False, 37),
    (6, 2, 1000): (12, "012031425345", True, 130),
    (6, 3, 0): (0, None, False, 0),
    (6, 3, 1): (0, None, False, 1),
    (6, 3, 37): (22, "0011200310221032033114", False, 37),
    (6, 3, 1000): (22, "0011200310221032033114", False, 1000),
    (7, 2, 0): (0, None, False, 0),
    (7, 2, 1): (0, None, False, 1),
    (7, 2, 37): (21, "012031405162342536456", True, 22),
    (7, 2, 1000): (21, "012031405162342536456", True, 22),
    (8, 2, 0): (0, None, False, 0),
    (8, 2, 1): (0, None, False, 1),
    (8, 2, 37): (11, "01203140516", False, 37),
    (8, 2, 1000): (11, "01203140516", False, 1000),
    (9, 2, 0): (0, None, False, 0),
    (9, 2, 1): (0, None, False, 1),
    (9, 2, 37): (33, "012031405160718234253627384564758", False, 37),
    (9, 2, 1000): (36, "012031405160718234253627384564758678", True, 38),
    (10, 2, 0): (0, None, False, 0),
    (10, 2, 1): (0, None, False, 1),
    (10, 2, 37): (15, "012031405160718", False, 37),
    (10, 2, 1000): (15, "012031405160718", False, 1000),
    (11, 2, 0): (0, None, False, 0),
    (11, 2, 1): (0, None, False, 1),
    (11, 2, 37): (34, "012031405160718091a23425362738293a", False, 37),
    (11, 2, 1000): (55,
        "012031405160718091a23425362738293a4564758495a678697a89a", True, 58),
    (12, 2, 0): (0, None, False, 0),
    (12, 2, 1): (0, None, False, 1),
    (12, 2, 37): (19, "012031405160718091a", False, 37),
    (12, 2, 1000): (19, "012031405160718091a", False, 1000),
    (13, 2, 0): (0, None, False, 0),
    (13, 2, 1): (0, None, False, 1),
    (13, 2, 37): (23, "012031405160718091a0b1c", False, 37),
    (13, 2, 1000): (78,
        "012031405160718091a0b1c23425362738293a2b3c4564758495a4b5c678697a"
        "6b7c89a8b9cabc", True, 82),
    (14, 2, 0): (0, None, False, 0),
    (14, 2, 1): (0, None, False, 1),
    (14, 2, 37): (23, "012031405160718091a0b1c", False, 37),
    (14, 2, 1000): (23, "012031405160718091a0b1c", False, 1000),
    (15, 2, 0): (0, None, False, 0),
    (15, 2, 1): (0, None, False, 1),
    (15, 2, 37): (27, "012031405160718091a0b1c0d1e", False, 37),
    (15, 2, 1000): (105,
        "012031405160718091a0b1c0d1e23425362738293a2b3c2d3e4564758495a4b5"
        "c4d5e678697a6b7c6d7e89a8b9c8d9eabcadbecde", True, 110),
    (16, 2, 0): (0, None, False, 0),
    (16, 2, 1): (0, None, False, 1),
    (16, 2, 37): (27, "012031405160718091a0b1c0d1e", False, 37),
    (16, 2, 1000): (27, "012031405160718091a0b1c0d1e", False, 1000),
    (2, 2, None): (0, None, True, 0),
    (2, 3, None): (0, None, True, 0),
    (2, 4, None): (0, None, True, 12),
    (2, 5, None): (6, "001011", True, 74),
    (2, 6, None): (16, "0001010110010111", True, 2120),
    (2, 7, None): (36, "000010010101100010110111001011110011", True, 766397),
    (3, 2, None): (3, "012", True, 2),
    (3, 3, None): (9, "001120122", True, 9),
    (3, 4, None): (30, "000102001201112022101121022212", True, 308058),
    (4, 2, None): (4, "0123", True, 7),
    (4, 3, None): (20, "00112012230130231233", True, 11776),
    (5, 2, None): (10, "0120314234", True, 10),
    (5, 3, None): (50,
        "00112003102210320331140142042132143043144223342344", True, 52),
    (6, 2, None): (12, "012031425345", True, 130),
    (7, 2, None): (21, "012031405162342536456", True, 22),
    (8, 2, None): (24, "012031405162345273647567", True, 696583),
    (9, 2, None): (36, "012031405160718234253627384564758678", True, 38),
    (11, 2, None): (55,
        "012031405160718091a23425362738293a4564758495a678697a89a", True, 58),
    (13, 2, None): (78,
        "012031405160718091a0b1c23425362738293a2b3c4564758495a4b5c678697a"
        "6b7c89a8b9cabc", True, 82),
    (15, 2, None): (105,
        "012031405160718091a0b1c0d1e23425362738293a2b3c2d3e4564758495a4b5"
        "c4d5e678697a6b7c6d7e89a8b9c8d9eabcadbecde", True, 110),
}

SEARCH_CELLS = [(k, n) for k in range(2, 17) for n in range(2, 9) if k**n <= 256]


def test_search_pins_cover_every_cell():
    assert len(SEARCH_CELLS) == 28
    for budget in (0, 1, 37, 1000):
        assert [(k, n) for k, n, b in SEARCH_PINS if b == budget] == SEARCH_CELLS
    assert {(2, 7), (3, 4), (4, 3), (8, 2)} <= {
        (k, n) for k, n, b in SEARCH_PINS if b is None}


@pytest.mark.parametrize("cell", list(SEARCH_PINS), ids=str)
def test_exhaustive_outcome_is_pinned(cell):
    k, n, budget = cell
    period, witness, exact, nodes = SEARCH_PINS[cell]
    if witness is not None:
        witness = tuple(int(c, 16) for c in witness)
    outcome = (exhaustive_max_period(k, n) if budget is None
               else exhaustive_max_period(k, n, node_budget=budget))
    assert outcome == SearchOutcome(k, n, period, witness, exact, nodes)


def _reference_max_period(k, n, node_budget, repeats=None, dead_ends=None):
    """The recursive search that exhaustive_max_period replaced: it tests
    every candidate edge of a vertex against the start edge, palindromes
    and the used set, and unwinds by returning True.

    Given a list as repeats, it also appends the node counts (before,
    after) of every subtree it completes whose root state was searched
    before from the same start edge and has two or more free edges: the
    subtrees that exhaustive_max_period's table may credit whole.  A
    state is the end vertex and the trail edges with their reversals.
    Given a list as dead_ends, it appends the node index of every child
    whose head is not the start vertex and has no free edge: the nodes
    that exhaustive_max_period counts without a frame."""
    total, vbase = k**n, k ** (n - 1)
    rev = _reverse_codes(np.arange(total), k, n).tolist()
    bound = period_upper_bound(k, n)
    best = 0
    best_walk = None
    used = bytearray(total)
    walk = []
    nodes = 0
    budget_hit = False
    seen = set()

    def free_edges(v, floor):
        return sum(e > floor and rev[e] != e and not used[e] and not used[rev[e]]
                   for e in range(v * k, v * k + k))

    def dfs(v, start_v, floor):
        nonlocal best, best_walk, nodes, budget_hit
        if v == start_v and len(walk) > best:
            best = len(walk)
            best_walk = walk.copy()
            if best >= bound:
                return True
        base = v * k
        if repeats is not None:
            free = free_edges(v, floor)
            state = (v, frozenset(walk + [rev[e] for e in walk]))
            before, again = nodes, state in seen
            seen.add(state)
        for d in range(k):
            e = base + d
            if e <= floor:
                continue
            r = rev[e]
            if r == e or used[e] or used[r]:
                continue
            if nodes >= node_budget:
                budget_hit = True
                return True
            nodes += 1
            used[e] = 1
            head = e % vbase
            if dead_ends is not None and head != start_v and not free_edges(head, floor):
                dead_ends.append(nodes)
            walk.append(e)
            stop = dfs(head, start_v, floor)
            walk.pop()
            used[e] = 0
            if stop:
                return True
        if repeats is not None and free > 1 and again:
            repeats.append((before, nodes))
        return False

    for f in range(total):
        if best >= bound:
            break
        if rev[f] <= f:
            continue
        used[f] = 1
        walk.append(f)
        seen.clear()
        stopped = dfs(f % vbase, f // k, f)
        walk.pop()
        used[f] = 0
        if stopped and budget_hit:
            break
    witness = tuple(e // vbase for e in best_walk) if best_walk else None
    return SearchOutcome(k=k, n=n, period=best, witness=witness,
                         exact=best >= bound or not budget_hit,
                         nodes_expanded=nodes)


@pytest.mark.parametrize("cell", SEARCH_CELLS, ids=str)
def test_exhaustive_matches_reference_search(cell):
    # Seeded budgets stop the search in mid-subtree; on the cells that
    # reach their bound or finish within 5,000 nodes they also cover the
    # bound stop and a complete search.  On three cells, budgets one below,
    # at and one above the end of a repeated subtree (the first three and
    # the three largest within 10,000 nodes) stop the search just before,
    # at and after the node where its table may credit that subtree whole;
    # and budgets one below, at and one above each of the first three dead
    # ends, children that it counts without a frame.
    k, n = cell
    rng = random.Random(100 * k + n)
    budgets = [5000] + [rng.randrange(5000) for _ in range(2)]
    if cell in ((4, 3), (3, 4), (8, 2)):
        repeats, dead_ends = [], []
        _reference_max_period(k, n, 10_000, repeats, dead_ends)
        largest = sorted(repeats, key=lambda span: span[1] - span[0])[-3:]
        budgets += [after + d for _, after in repeats[:3] + largest for d in (-1, 0, 1)]
        budgets += [node + d for node in dead_ends[:3] for d in (-1, 0, 1)]
    for budget in budgets:
        want = _reference_max_period(k, n, budget)
        assert exhaustive_max_period(k, n, node_budget=budget) == want


def test_exhaustive_search_memory_is_bounded():
    # (3,5) meets many distinct states: a table kept for every one of them
    # traces 1.5 MiB here and tens of MB at the default budget, the bounded
    # table about 0.8 MiB.  It is freed on return, not left to the cycle
    # collector.
    gc.disable()
    tracemalloc.start()
    try:
        outcome = exhaustive_max_period(3, 5, node_budget=300_000)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert outcome.nodes_expanded == 300_000
    assert peak < 2**20
    assert current < 2**16


def test_rotation_and_reversal_invariance():
    seq = generate(ConstructionRecipe(Method.LEMPEL_LIFT, 4, 3))
    arr = np.asarray(seq.symbols)
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        rot = int(rng.integers(seq.period))
        candidate = np.roll(arr, rot)
        if rng.integers(2):
            candidate = candidate[::-1]
        assert verify(candidate, seq.n, seq.k).accepted


def test_mutation_report_deterministic():
    seq = generate(ConstructionRecipe(Method.LEMPEL_LIFT, 3, 4))
    first = mutation_test(seq, 60, seed=7)
    second = mutation_test(seq, 60, seed=7)
    assert first == second
    assert first.trials == 60
    assert first.rejected == sum(1 for r in first.records if not r.accepted)
    # single-symbol corruption nearly always breaks orientability
    assert first.fraction_rejected > 0.9
    for r in first.records:
        assert r.original != r.replacement


def test_mutation_test_validation():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 2))
    with pytest.raises(DomainError):
        mutation_test(seq, -1, seed=0)
    empty = mutation_test(seq, 0, seed=0)
    assert empty.fraction_rejected == 0.0


def test_verify_accepts_all_rotations_of_published_example():
    arr = digits(EXAMPLE_3_4)
    for rot in range(arr.size):
        assert verify(np.roll(arr, rot), 4, 3).accepted


def reference_verdict(symbols, n):
    """The documented rule, scanned in plain Python: at each j in turn, a
    window equal to an earlier one is a duplicate; otherwise a window
    whose reversal is window i <= j is a reversal."""
    m = len(symbols)
    if m < n:
        return (False, "short-period", None, None)
    windows = [tuple(symbols[(j + d) % m] for d in range(n)) for j in range(m)]
    for j, w in enumerate(windows):
        if w in windows[:j]:
            return (False, "duplicate", windows.index(w), j)
        if w[::-1] in windows[:j + 1]:
            return (False, "reversal", windows.index(w[::-1]), j)
    return (True, None, None, None)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=4).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.integers(min_value=1, max_value=5),
        st.lists(st.integers(min_value=0, max_value=k - 1),
                 min_size=1, max_size=16),
    )
))
def test_verify_reports_first_offender(knseq):
    k, n, seq = knseq
    v = verify(np.array(seq, dtype=np.uint8), n, k)
    assert (v.accepted, v.kind, v.i, v.j) == reference_verdict(seq, n)


def scan_verdict(symbols, n):
    """The documented rule in one pass of plain Python over the windows,
    with verify's messages."""
    m = len(symbols)
    if m < n:
        return (False, "short-period", None, None,
                f"period {m} is shorter than window length {n}")
    seen = {}
    for j in range(m):
        w = tuple(int(symbols[(j + d) % m]) for d in range(n))
        if w in seen:
            i = seen[w]
            return (False, "duplicate", i, j, f"windows {i} and {j} are equal")
        seen[w] = j
        if w[::-1] in seen:
            i = seen[w[::-1]]
            return (False, "reversal", i, j,
                    f"window {j} is window {i} reversed" if i != j else
                    f"window {j} is a palindrome (its own reversal)")
    return (True, None, None, None, "")


def full_verdict(v):
    return (v.accepted, v.kind, v.i, v.j, v.message)


def test_verify_names_first_offender_past_doubling_boundaries():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 5))
    base = np.asarray(seq.symbols).astype(np.int64)
    assert seq.period >= 1000
    offenders = set()
    positions = [p + d for p in (64, 128, 256)
                 for d in (-2, -1, 0, 1)] + [seq.period - 1]
    for pos in positions:
        for step in range(1, seq.k):
            mutant = base.copy()
            mutant[pos] = (mutant[pos] + step) % seq.k
            v = verify(mutant, seq.n, seq.k)
            assert full_verdict(v) == scan_verdict(mutant, seq.n)
            offenders.add(v.j)
    # A copy of window 10 over window j makes j, or a window the copy
    # disturbs, the first offender, so offenders land on each boundary.
    for j in sorted({p + d for p in positions for d in (-1, 0)}):
        mutant = base.copy()
        mutant[(j + np.arange(seq.n)) % seq.period] = base[10:10 + seq.n]
        v = verify(mutant, seq.n, seq.k)
        assert full_verdict(v) == scan_verdict(mutant, seq.n)
        offenders.add(v.j)
    for edge in (64, 128, 256):
        assert offenders & set(range(edge - 4, edge))
        assert offenders & set(range(edge, edge + 4))
    assert max(offenders) >= seq.period - seq.n


@pytest.mark.parametrize("k,n,m", [(2, 8, 3000), (2, 20, 3000), (5, 4, 2000)])
def test_verify_first_offender_on_zero_and_random_periods(k, n, m):
    zeros = np.zeros(m, dtype=np.uint8)
    assert full_verdict(verify(zeros, n, k)) == scan_verdict(zeros, n)
    rng = np.random.default_rng(k * 1000 + n)
    for _ in range(5):
        symbols = rng.integers(0, k, m)
        assert full_verdict(verify(symbols, n, k)) == scan_verdict(symbols, n)


def wide_periods():
    """Seeded periods whose k**n exceeds 64-bit window codes, orientable,
    and copies of them with a planted duplicate or a planted reversal of
    an earlier window."""
    rng = np.random.default_rng(1993)
    cases = []
    for k, n, m in ((11, 19, 200), (11, 19, 5000), (2, 64, 500)):
        symbols = rng.integers(0, k, m)
        cases.append(pytest.param(symbols, k, n, True, id=f"k{k}-m{m}-orientable"))
        for kind in ("duplicate", "reversal"):
            a, b = rng.integers(m // 2 - n), rng.integers(m // 2, m - n)
            planted = symbols.copy()
            window = symbols[a:a + n]
            planted[b:b + n] = window if kind == "duplicate" else window[::-1]
            cases.append(pytest.param(planted, k, n, False, id=f"k{k}-m{m}-{kind}"))
    return cases


@pytest.mark.parametrize("symbols,k,n,orientable", wide_periods())
def test_verify_wide_alphabet_matches_window_scan(symbols, k, n, orientable):
    want = scan_verdict(symbols, n)
    assert want[0] == orientable
    assert full_verdict(verify(symbols, n, k)) == want


def test_verify_refuses_symbols_past_64_bits():
    with pytest.raises(ResourceCapError):
        verify(np.array([0, 1, 2]), 2, 2**64)


@pytest.mark.parametrize("window,message", [
    (ZkTuple(4, (0, 1, 2)), "mixed alphabets: 4 vs 5"),
    ((0, 1), "window must have 3 symbols, got 2"),
    ((0, 1, 2, 3), "window must have 3 symbols, got 4"),
    ((0, 1, 5), "symbol 5 out of range for alphabet size 5"),
    ((0, -1, 2), "symbol -1 out of range for alphabet size 5"),
])
def test_locate_window_validation_messages(window, message):
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 3))
    with pytest.raises(DomainError, match=message):
        locate(seq, window)


def doubling_first_offender(fwd, rev, repeated):
    """The witness rule as verify applied it before its one-pass reject:
    the ids of doubling prefixes of 64, 128, ... windows until one of
    them repeats, then a Python scan over that prefix with a dict of
    first positions, restricted to the windows whose forward id repeats."""
    size = 64
    while size < fwd.size:
        prefix = np.sort(np.concatenate([fwd[:size], rev[:size]]))
        later = prefix[1:]
        clashing = later[later == prefix[:-1]]
        if clashing.size:
            repeated = clashing
            break
        size *= 2
    keep = np.flatnonzero(np.isin(fwd[:size], repeated))
    seen = {}
    for j, code, reversed_code in zip(keep.tolist(), fwd[keep].tolist(),
                                      rev[keep].tolist()):
        if code in seen:
            return VerifyResult(False, kind="duplicate", i=seen[code], j=j,
                                message=f"windows {seen[code]} and {j} are equal")
        seen[code] = j
        partner = seen.get(reversed_code)
        if partner is not None:
            return VerifyResult(
                False, kind="reversal", i=partner, j=j,
                message=(f"window {j} is window {partner} reversed"
                         if partner != j else
                         f"window {j} is a palindrome (its own reversal)"))
    raise AssertionError("violation detected but no offender found")


def doubling_verdict(symbols, n, k):
    """verify's verdict with the doubling-prefix reject as reference; the
    period must be at least n long."""
    fwd, rev = window_ids(symbols, n, k)
    ids = np.sort(np.concatenate([fwd, rev]))
    later = ids[1:]
    repeated = later[later == ids[:-1]]
    if not repeated.size:
        return VerifyResult(True)
    return doubling_first_offender(fwd, rev, repeated)


def offender_cases():
    """Named periods whose first offender sits early, late, past the old
    doubling boundaries, or nowhere."""
    rng = np.random.default_rng(1993)
    base = np.asarray(generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 5)).symbols)
    m = base.size
    late = base.copy()
    late[m - 5:] = base[100:105]
    cases = {
        "zeros": (np.zeros(1000, np.uint8), 4, 3),
        "orientable": (base, 5, 5),
        "then-reversed": (np.concatenate([base, base[::-1]]), 5, 5),
        "late-duplicate": (late, 5, 5),
    }
    for pos in (63, 64, 127, 128, 255, 256, 511, 512, m - 1):
        mutant = base.copy()
        mutant[pos] = (mutant[pos] + 1 + rng.integers(4)) % 5
        cases[f"corrupt-{pos}"] = (mutant, 5, 5)
    wide = rng.integers(0, 11, 5000)
    cases["k11-n19"] = (wide, 19, 11)
    for kind, b in (("duplicate", 4900), ("reversal", 4000), ("duplicate", 70)):
        planted = wide.copy()
        window = wide[1000:1019]
        planted[b:b + 19] = window if kind == "duplicate" else window[::-1]
        cases[f"k11-n19-{kind}-{b}"] = (planted, 19, 11)
    return cases


@pytest.mark.parametrize("name", list(offender_cases()))
def test_one_pass_reject_matches_doubling_reference(name):
    symbols, n, k = offender_cases()[name]
    got = verify(symbols, n, k)
    assert got == doubling_verdict(symbols, n, k)
    assert full_verdict(got) == scan_verdict(symbols, n)


def test_one_pass_reject_matches_doubling_reference_on_random_periods():
    # Random periods reject early; single corruptions of a generated
    # period reject anywhere, including past every doubling boundary.
    rng = np.random.default_rng(8)
    periods = []
    for _ in range(1500):
        k = int(rng.integers(2, 12))
        n = int(rng.integers(1, 9))
        periods.append((rng.integers(0, k, int(rng.integers(n, 300))), n, k))
    for method, k, n in (("a", 5, 5), ("lempel", 3, 6), ("a", 11, 3), ("lempel", 4, 5)):
        base = np.asarray(generate(ConstructionRecipe(Method(method), k, n)).symbols)
        for _ in range(150):
            mutant = base.copy()
            for pos in rng.integers(0, base.size, int(rng.integers(1, 3))):
                mutant[pos] = (int(mutant[pos]) + 1 + rng.integers(k - 1)) % k
            periods.append((mutant, n, k))
    for symbols, n, k in periods:
        assert verify(symbols, n, k) == doubling_verdict(symbols, n, k)


def offences(symbols, n):
    """Every offending pair (i, j), i <= j, in plain Python: window j
    equals window i (i < j), or is window i reversed (i == j for a
    palindrome)."""
    m = len(symbols)
    windows = [tuple(int(symbols[(j + d) % m]) for d in range(n)) for j in range(m)]
    where = {}
    for j, w in enumerate(windows):
        where.setdefault(w, []).append(j)
    pairs = set()
    for j, w in enumerate(windows):
        pairs.update((i, j) for i in where[w] if i < j)
        pairs.update((min(i, j), max(i, j)) for i in where.get(w[::-1], ()))
    return sorted(pairs)


# Narrow int32 codes (11**8 < 2**31), and the rank branch past 64-bit
# codes (11**19 > 2**63).
CANONICAL_BRANCHES = [pytest.param(11, 8, id="codes-k11-n8"),
                      pytest.param(11, 19, id="ranks-k11-n19")]


def orientable_random_period(k, n, m, seed):
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, k, m)
    assert not offences(symbols, n)
    return rng, symbols


@pytest.mark.parametrize("k,n", CANONICAL_BRANCHES)
def test_canonical_verify_far_reversal_pair_with_distinct_forward_ids(k, n):
    # The forward ids are all distinct, so only the reversed ids repeat.
    _, symbols = orientable_random_period(k, n, 600, seed=n)
    a, b = 40, 500
    symbols[b:b + n] = symbols[a:a + n][::-1]
    # Symbols that would stretch the reversed stretch by one either way.
    for x, y in ((b - 1, a + n), (b + n, a - 1)):
        if symbols[x] == symbols[y]:
            symbols[x] = (symbols[x] + 1) % k
    assert offences(symbols, n) == [(a, b)]
    fwd, _ = window_ids(symbols, n, k)
    assert np.unique(fwd).size == symbols.size
    v = verify(symbols, n, k)
    assert full_verdict(v) == scan_verdict(symbols, n)
    assert (v.kind, v.i, v.j) == ("reversal", a, b)


@pytest.mark.parametrize("k,n", CANONICAL_BRANCHES)
@pytest.mark.parametrize("where", ["first", "last"])
def test_canonical_verify_lone_palindrome(k, n, where):
    # Window m - 1 wraps round the end of the period.
    rng, symbols = orientable_random_period(k, n, 600, seed=n + 1)
    m = symbols.size
    half = rng.integers(0, k, (n + 1) // 2)
    start = 0 if where == "first" else m - 1
    symbols[(start + np.arange(n)) % m] = np.concatenate([half, half[:n // 2][::-1]])
    assert offences(symbols, n) == [(start, start)]
    v = verify(symbols, n, k)
    assert full_verdict(v) == scan_verdict(symbols, n)
    assert (v.kind, v.i, v.j) == ("reversal", start, start)


@pytest.mark.parametrize("k", [2, 3, 11, 2**40])
def test_canonical_verify_window_length_one(k):
    # Every 1-window is a palindrome, so window 0 offends first.
    rng = np.random.default_rng(k % 1000)
    for m in (1, 2, 5, 40):
        symbols = rng.integers(0, k, m)
        v = verify(symbols, 1, k)
        assert full_verdict(v) == scan_verdict(symbols, 1)
        assert (v.kind, v.i, v.j) == ("reversal", 0, 0)


@pytest.mark.parametrize("ranks", [False, True], ids=["codes", "ranks-k11-n19"])
def test_canonical_verify_corrupted_periods(ranks):
    # 1-3 corruptions of generated periods, read at their own k and n, or
    # at k = 11, n = 19 on the rank branch.  There, periods made of a
    # random block and its copy or its reversal offend almost everywhere.
    rng = np.random.default_rng(19 if ranks else 8)
    periods = []
    for method, k, n in (("a", 5, 5), ("lempel", 4, 5), ("a", 11, 3)):
        base = np.asarray(generate(ConstructionRecipe(Method(method), k, n)).symbols)
        periods += [(base, k, *((11, 19) if ranks else (k, n)))] * 25
    if ranks:
        block = rng.integers(0, 11, 300)
        periods += [(np.concatenate([block, block]), 11, 11, 19)] * 15
        periods += [(np.concatenate([block, block[::-1]]), 11, 11, 19)] * 15
    for base, alphabet, k, n in periods:
        mutant = base.copy()
        for pos in rng.integers(0, base.size, int(rng.integers(1, 4))):
            mutant[pos] = (int(mutant[pos]) + 1 + rng.integers(alphabet - 1)) % alphabet
        assert full_verdict(verify(mutant, n, k)) == scan_verdict(mutant, n)


def traced_verify(symbols, n, k):
    """verify's verdict and its traced peak in bytes."""
    tracemalloc.start()
    try:
        return verify(symbols, n, k), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def lempel_7_7_verify_peak(mutate):
    """verify's traced peak on the (lempel,7,7) period, or on a copy with
    one symbol changed, in int32 arrays of m."""
    symbols = np.asarray(generate(ConstructionRecipe(Method.LEMPEL_LIFT, 7, 7)).symbols)
    if mutate:
        symbols = symbols.copy()
        symbols[symbols.size // 3] = (symbols[symbols.size // 3] + 1) % 7
    verdict, peak = traced_verify(symbols, 7, 7)
    assert verdict.accepted != mutate
    return peak / (4 * symbols.size)


def test_verify_accept_peak_memory():
    # The canonical ids, a sorted copy of them and one bool per window:
    # 2.25 int32 arrays of m.  Full forward and reversed arrays besides
    # peaked at 3.25.
    assert lempel_7_7_verify_peak(mutate=False) <= 2.75


def test_verify_reject_peak_memory():
    # As on accept, plus a flag per low-bit bucket; full forward and
    # reversed arrays besides peaked at 3.84.
    assert lempel_7_7_verify_peak(mutate=True) <= 2.75


def test_verify_constant_period_reject_peak_memory():
    # Every window is the palindrome 0...0, so every canonical id repeats
    # and the witness is sought among all m positions: 41 bytes per
    # window.  Encoding them all again in both directions peaked at 81,
    # and keeping the sorted ids and the low-bit flags alive at 51.
    symbols = np.zeros(2**21, np.uint8)
    verdict, peak = traced_verify(symbols, 8, 2)
    assert (verdict.kind, verdict.i, verdict.j) == ("reversal", 0, 0)
    assert peak / symbols.size <= 48


@pytest.mark.parametrize("block", [1, 3, 7])
def test_verify_matches_window_scan_across_block_edges(monkeypatch, block):
    # 1-3 corruptions of generated periods, with blocks so small that
    # offending pairs and the wrap straddle block edges.
    monkeypatch.setattr(graph, "_BLOCK", block)
    rng = np.random.default_rng(block)
    for method, k, n in (("a", 5, 5), ("lempel", 4, 5), ("a", 11, 3)):
        base = np.asarray(generate(ConstructionRecipe(Method(method), k, n)).symbols)
        assert full_verdict(verify(base, n, k)) == scan_verdict(base, n)
        for _ in range(8):
            mutant = base.copy()
            for pos in rng.integers(0, base.size, int(rng.integers(1, 4))):
                mutant[pos] = (int(mutant[pos]) + 1 + rng.integers(k - 1)) % k
            assert full_verdict(verify(mutant, n, k)) == scan_verdict(mutant, n)
        # Equal and reversed copies of an earlier window, so that the
        # partner of the first offender is found across block edges.
        kinds = set()
        for _ in range(8):
            a, b = sorted(rng.choice(base.size - n, 2, replace=False))
            for copy in (base[a:a + n], base[a:a + n][::-1]):
                planted = base.copy()
                planted[b:b + n] = copy
                want = scan_verdict(planted, n)
                assert full_verdict(verify(planted, n, k)) == want
                kinds.add(want[1] if want[2] != want[3] else "palindrome")
        assert {"duplicate", "reversal"} <= kinds
    # The same copies across the wrap of a sparse random period, where the
    # first offender is a wrapping window the copy covers.
    symbols = rng.integers(0, 16, 400)
    for copy in (symbols[50:58], symbols[50:58][::-1]):
        planted = symbols.copy()
        planted[(396 + np.arange(8)) % 400] = copy
        want = scan_verdict(planted, 8)
        assert 50 - 8 < want[2] < 400 - 8 < want[3]
        assert full_verdict(verify(planted, 8, 16)) == want


@pytest.mark.parametrize("n,dtype", [(30, np.int32), (31, np.int64)])
def test_window_ids_are_int32_below_2_to_31(n, dtype):
    rng = np.random.default_rng(n)
    symbols = rng.integers(0, 2, 400).astype(np.uint8)
    fwd, rev = window_codes(symbols, n, 2), window_codes(symbols, n, 2, reverse=True)
    assert fwd.dtype == rev.dtype == dtype
    planted = symbols.copy()
    planted[300:300 + n] = symbols[50:50 + n]
    flipped = symbols.copy()
    flipped[300:300 + n] = symbols[50:50 + n][::-1]
    for s in (symbols, planted, flipped):
        assert full_verdict(verify(s, n, 2)) == scan_verdict(s, n)
    assert not verify(planted, n, 2).accepted


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.int32, np.int64]).flatmap(
    lambda dtype: st.tuples(
        st.just(dtype),
        st.lists(st.integers(0, 2**31 - 1 if dtype is np.int32 else 2**63 - 1),
                 min_size=1, max_size=60),
        st.integers(0, 62),
    )
))
def test_stable_sort_matches_stable_argsort(case):
    # Shifting the values down by a random amount gives both the packed
    # sort (small values) and the stable argsort (values near 2**63).
    dtype, values, shift = case
    values = np.array(values, dtype=dtype) >> min(shift, 30 if dtype is np.int32 else 62)
    values = np.concatenate([values, values[::2]])
    want = np.argsort(values, kind="stable")
    got = values.copy()
    order = _stable_sort(got)
    assert got.dtype == values.dtype
    assert order.tolist() == want.tolist()
    assert got.tolist() == values[want].tolist()


@pytest.mark.parametrize("m", [2, 64, 100])
@pytest.mark.parametrize("packed", [True, False])
def test_stable_sort_at_the_packing_limit(m, packed):
    # Value and position share one int64 key while the largest value is
    # below 2**(63 - b), b the bit length of m; from there on it sorts by
    # a stable argsort.
    top = 2 ** (63 - m.bit_length()) - (1 if packed else 0)
    values = np.array([top, 0, top, 1] * (m // 2), dtype=np.int64)[:m]
    want = np.argsort(values, kind="stable")
    got = values.copy()
    assert _stable_sort(got).tolist() == want.tolist()
    assert got.tolist() == values[want].tolist()


def window_positions(symbols, n):
    """First position of each cyclic n-window, as a plain dict."""
    m = len(symbols)
    first = {}
    for i in range(m):
        first.setdefault(tuple(int(symbols[(i + d) % m]) for d in range(n)), i)
    return first


def reference_locate(first, window):
    window = tuple(window)
    if window in first:
        return (first[window], "forward")
    if window[::-1] in first:
        return (first[window[::-1]], "reverse")
    return None


# k**n < 2**31 (int32 codes) first, then wider codes: (2, 40) packs code
# and position into one sort key, and (2, 62) and (3, 39) need the stable
# argsort.
NARROW_KN = [(2, 30), (3, 19), (5, 13), (7, 11), (11, 8)]
WIDE_KN = [(2, 40), (2, 62), (3, 39)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_decoder_matches_window_dict(data):
    k, n = data.draw(st.sampled_from(NARROW_KN + WIDE_KN))
    symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=160))
    assume(verify(np.array(symbols), n, k).accepted)
    seq = OrientableSequence(k, n, len(symbols), np.array(symbols))
    first = window_positions(symbols, n)
    m = len(symbols)
    queries = []
    for pos in data.draw(st.lists(st.integers(0, m - 1), max_size=6)):
        window = [symbols[(pos + d) % m] for d in range(n)]
        queries += [window, window[::-1]]
    half = data.draw(st.lists(st.integers(0, k - 1), min_size=(n + 1) // 2,
                              max_size=(n + 1) // 2))
    queries.append(half + half[:n // 2][::-1])
    queries += data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=n,
                                           max_size=n), max_size=4))
    rows = []
    for window in queries:
        hit = locate(seq, window)
        got = None if hit is None else (hit.position, hit.direction.value)
        assert got == reference_locate(first, window)
        rows.append(got)
    position, reverse, found = seq.decoder.decode(np.array(queries, dtype=np.int64))
    batch = [(int(p), "reverse" if r else "forward") if f else None
             for p, r, f in zip(position, reverse, found)]
    assert batch == rows
    assert position[~found].tolist() == [-1] * int((~found).sum())


def test_decoder_is_built_once_and_sized_per_window():
    narrow = generate(ConstructionRecipe(Method.LEMPEL_LIFT, 3, 5))
    assert narrow.decoder is narrow.decoder
    assert narrow.decoder.nbytes == 8 * narrow.period
    rng = np.random.default_rng(40)
    wide = OrientableSequence(2, 40, 300, rng.integers(0, 2, 300))
    assert wide.decoder.nbytes == 12 * 300


def test_decoder_validates_windows():
    seq = generate(ConstructionRecipe(Method.END_DIFFERENCE, 5, 3))
    decoder = seq.decoder
    assert decoder.decode(np.zeros((0, 3), np.uint8))[2].tolist() == []
    with pytest.raises(DomainError, match="q x 3 matrix"):
        decoder.decode(np.zeros(3, np.uint8))
    with pytest.raises(DomainError, match="q x 3 matrix"):
        decoder.decode(np.zeros((2, 4), np.uint8))
    with pytest.raises(DomainError, match="must be integers"):
        decoder.decode(np.zeros((2, 3)))
    with pytest.raises(DomainError, match="out of range"):
        decoder.decode(np.array([[0, 1, 5]]))
    with pytest.raises(DomainError, match="out of range"):
        decoder.decode(np.array([[0, -1, 2]]))


def test_locate_refuses_codes_past_64_bits():
    rng = np.random.default_rng(19)
    seq = OrientableSequence(11, 19, 200, rng.integers(0, 11, 200))
    with pytest.raises(ResourceCapError):
        locate(seq, [0] * 19)


def test_mutation_report_matches_int64_mutants():
    # mutation_test corrupts copies in the sequence's own dtype; the
    # records must be those of int64 copies.
    seq = generate(ConstructionRecipe(Method.LEMPEL_LIFT, 4, 4))
    assert seq.symbols.dtype == np.uint8
    report = mutation_test(seq, 80, seed=3)
    rng = random.Random(3)
    base = np.asarray(seq.symbols).astype(np.int64)
    records = []
    for _ in range(80):
        pos = rng.randrange(seq.period)
        new = (int(base[pos]) + 1 + rng.randrange(seq.k - 1)) % seq.k
        mutant = base.copy()
        mutant[pos] = new
        records.append(MutationRecord(pos, int(base[pos]), new,
                                      verify(mutant, seq.n, seq.k).accepted))
    assert report.records == tuple(records)
