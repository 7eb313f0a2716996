import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseq.constructions import ConstructionRecipe, Method, generate
from oseq.errors import DomainError, ResourceCapError
from oseq.oracle import (
    FIRST_PREFIX,
    Direction,
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
    positions = [p + d for p in (FIRST_PREFIX, 2 * FIRST_PREFIX, 4 * FIRST_PREFIX)
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
    for edge in (FIRST_PREFIX, 2 * FIRST_PREFIX, 4 * FIRST_PREFIX):
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
