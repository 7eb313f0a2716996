import pytest

from oseq import bounds
from oseq.bounds import (
    LEDGER_TERMS,
    empirical_exclusion_audit,
    ledger_bound,
    period_upper_bound,
)
from oseq.errors import DomainError
from oseq.graph import full_de_bruijn

# Frozen reference: maximum period of an orientable sequence, rows n = 2..9,
# columns k = 2..8, alongside the previously published bound for each cell.
BOUND_TABLE = {
    2: [(0, 0), (3, 3), (4, 4), (10, 10), (12, 12), (21, 21), (24, 24)],
    3: [(0, 1), (9, 9), (20, 22), (50, 50), (84, 87), (147, 147), (216, 220)],
    4: [(4, 5), (30, 33), (112, 118), (280, 290), (612, 627), (1134, 1155),
        (1984, 2012)],
    5: [(8, 11), (99, 105), (452, 478), (1450, 1490), (3684, 3777),
        (8085, 8211), (15896, 16124)],
    6: [(21, 27), (315, 336), (1958, 2014), (7550, 7680), (23019, 23217),
        (58065, 58464), (130332, 130812)],
    7: [(44, 55), (972, 1032), (7844, 8062), (38100, 38640),
        (138144, 139317), (408072, 410256), (1042712, 1046524)],
    8: [(105, 119), (3096, 3189), (32390, 32638), (193800, 194630),
        (837879, 839157), (2876496, 2879835), (8382492, 8386556)],
    9: [(212, 239), (9423, 9645), (129572, 130558), (971350, 974390),
        (5027304, 5034957), (20149437, 20166027), (67059992, 67092476)],
}


def test_bound_table_all_56_cells():
    for n, row in BOUND_TABLE.items():
        for k, (new, old) in zip(range(2, 9), row):
            assert period_upper_bound(k, n) == new, (k, n)
            assert new <= old


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("n", range(2, 13))
def test_ledger_agrees_with_closed_form(k, n):
    report = ledger_bound(k, n)
    assert report.ledger_edge_bound // 2 == report.closed_form_bound
    assert report.closed_form_bound == period_upper_bound(k, n)
    assert set(report.ledger_terms) == set(LEDGER_TERMS)
    assert all(v >= 0 for v in report.ledger_terms.values())


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        period_upper_bound(1, 3)
    with pytest.raises(DomainError):
        period_upper_bound(3, 1)
    with pytest.raises(DomainError):
        ledger_bound(4, 0)


def test_bound_monotone_in_k():
    for n in range(2, 10):
        values = [period_upper_bound(k, n) for k in range(3, 13)]
        assert values == sorted(values)
        assert values[0] < values[-1]


def test_bound_small_cases_match_exhaustive_reality():
    # binary n=2 admits no orientable sequence at all
    assert period_upper_bound(2, 2) == 0
    assert period_upper_bound(3, 2) == 3
    assert period_upper_bound(4, 2) == 4


@pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 3), (5, 3),
                                 (2, 4), (3, 4), (4, 4),
                                 (3, 5), (2, 6)])
def test_empirical_audit(k, n):
    audit = empirical_exclusion_audit(k, n)
    assert audit.k == k and audit.n == n
    # class counts already matched the closed forms or the call would raise
    assert audit.class_counts == audit.expected_counts
    assert audit.degree_rule_holds
    assert audit.parity_rule_holds


@pytest.mark.parametrize("k,n", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_audit_verdicts_fail_on_the_full_de_bruijn_graph(monkeypatch, k, n):
    # Every vertex of the full graph has degree k both ways.  So the degree
    # rule fails (the uniform vertices are semi-symmetric), and the parity
    # rule fails exactly when k is even: the uniform vertices then have
    # even degree, while for odd k the symmetric non-uniform ones keep odd.
    monkeypatch.setattr(bounds, "palindrome_free_de_bruijn", full_de_bruijn)
    audit = empirical_exclusion_audit(k, n)
    assert audit.class_counts == audit.expected_counts
    assert not audit.degree_rule_holds
    assert audit.parity_rule_holds == (k % 2 == 1)


def test_ledger_terms_example():
    # k=7, n=4: excluded edges all land on the out-side single classes
    report = ledger_bound(7, 4)
    assert report.closed_form_bound == 1134
    assert report.ledger_terms["U_out"] == 42
    assert report.ledger_terms["P_out"] == 42
