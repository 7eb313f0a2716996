import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oseq.errors import DomainError, ResourceCapError
from oseq.tuples import (
    TupleKind,
    ZkTuple,
    all_tuples,
    count_by_doubled_pseudoweight,
    count_tuples,
    doubled_pseudoweight,
    enumerate_count,
    is_alternating,
    is_left_semi_symmetric,
    is_right_semi_symmetric,
    is_symmetric,
    is_uniform,
    kind_predicate,
)


def zk_tuples(max_k=6, max_n=8):
    return st.integers(min_value=2, max_value=max_k).flatmap(
        lambda k: st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=1, max_size=max_n,
        ).map(lambda syms: ZkTuple(k, tuple(syms)))
    )


def test_zk_tuple_validation():
    with pytest.raises(DomainError):
        ZkTuple(1, (0,))
    with pytest.raises(DomainError):
        ZkTuple(3, ())
    with pytest.raises(DomainError):
        ZkTuple(3, (0, 3))
    with pytest.raises(DomainError):
        ZkTuple(3, (0, -1))
    t = ZkTuple(4, (0, 1, 3))
    assert len(t) == 3
    assert list(t) == [0, 1, 3]
    assert t[1] == 1


@given(zk_tuples())
def test_reverse_involution(t):
    assert t.reverse().reverse() == t


@given(zk_tuples())
def test_negate_involution(t):
    assert t.negate().negate() == t


@given(zk_tuples())
def test_reverse_negate_commute(t):
    assert t.reverse().negate() == t.negate().reverse()


def test_predicates_on_examples():
    assert is_uniform((2, 2, 2))
    assert not is_uniform((2, 2, 1))
    assert is_alternating((0, 1, 0, 1))
    assert is_alternating((2, 0, 2))
    assert not is_alternating((0, 0, 0))
    assert not is_alternating((0, 1, 2))
    assert is_symmetric((1, 2, 1))
    assert not is_symmetric((1, 2, 2))
    # semi-symmetry looks at the tuple with one end removed
    assert is_left_semi_symmetric((1, 2, 1, 0))
    assert not is_left_semi_symmetric((1, 2, 0, 0))
    assert is_right_semi_symmetric((0, 1, 2, 1))
    assert not is_right_semi_symmetric((0, 0, 2, 1))


@pytest.mark.parametrize("pred", [is_left_semi_symmetric, is_right_semi_symmetric])
def test_short_tuples_are_semi_symmetric(pred):
    assert pred((0,))
    assert pred((0, 1))
    assert pred((1, 1))


@given(zk_tuples())
def test_symmetric_iff_reverse_fixed(t):
    assert is_symmetric(t) == (t.reverse() == t)


@given(zk_tuples())
def test_semi_symmetry_via_truncation(t):
    if len(t) >= 2:
        assert is_left_semi_symmetric(t) == is_symmetric(ZkTuple(t.k, t.symbols[:-1]))
        assert is_right_semi_symmetric(t) == is_symmetric(ZkTuple(t.k, t.symbols[1:]))


@given(zk_tuples())
def test_doubled_pseudoweight_reversal_identity(t):
    n, k = len(t), t.k
    assert doubled_pseudoweight(t.negate().reverse()) == 2 * n * k - doubled_pseudoweight(t)


@given(zk_tuples())
def test_doubled_pseudoweight_range(t):
    w = doubled_pseudoweight(t)
    assert 2 * len(t) <= w <= 2 * len(t) * (t.k - 1)


def test_doubled_pseudoweight_example():
    # 0 weighs k, a nonzero symbol s weighs 2s
    assert doubled_pseudoweight(ZkTuple(3, (0, 1, 1, 2))) == 3 + 2 + 2 + 4


@pytest.mark.parametrize("kind", list(TupleKind))
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_count_matches_enumeration(kind, k, n):
    assert count_tuples(kind, k, n) == enumerate_count(kind, k, n)


@pytest.mark.parametrize("kind", list(TupleKind))
@pytest.mark.parametrize("k,n", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_count_short_tuples(kind, k, n):
    # closed forms only apply from n = 3; short lengths fall back to enumeration
    assert count_tuples(kind, k, n) == enumerate_count(kind, k, n)


def test_count_domain_errors():
    with pytest.raises(DomainError):
        count_tuples(TupleKind.UNIFORM, 1, 3)
    with pytest.raises(DomainError):
        count_tuples(TupleKind.UNIFORM, 3, 0)
    with pytest.raises(ResourceCapError):
        enumerate_count(TupleKind.UNIFORM, 10, 9)


def test_kind_predicate_consistency():
    for kind in TupleKind:
        pred = kind_predicate(kind)
        for syms in all_tuples(3, 4):
            expected = pred(ZkTuple(3, syms))
            assert isinstance(expected, bool)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_weight_distribution_matches_enumeration(k, n):
    by_weight = {}
    for syms in itertools.product(range(k), repeat=n):
        w = doubled_pseudoweight(ZkTuple(k, syms))
        by_weight[w] = by_weight.get(w, 0) + 1
    total = 0
    for w in range(2 * n, 2 * n * (k - 1) + 1):
        c = count_by_doubled_pseudoweight(k, n, w)
        assert c == by_weight.get(w, 0)
        total += c
    assert total == k**n
    assert count_by_doubled_pseudoweight(k, n, 2 * n - 1) == 0
    assert count_by_doubled_pseudoweight(k, n, 2 * n * (k - 1) + 1) == 0


def test_symmetric_count_closed_form():
    # palindromes are determined by their first ceil(n/2) symbols
    for k in (2, 3, 4):
        for n in (3, 4, 5):
            assert count_tuples(TupleKind.SYMMETRIC, k, n) == k ** ((n + 1) // 2)
