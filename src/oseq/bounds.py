"""Upper bounds on the period of an orientable sequence.

Two independent evaluations of the same bound are kept side by side: a
case-split closed form, and an exclusion ledger that starts from the
palindrome-free edge count and subtracts named families of edges forced
out around structured vertices.  Their agreement is a standing
cross-check; the empirical audit re-derives the ledger's ingredients by
brute enumeration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InternalInvariantError, ResourceCapError
from .graph import palindrome_free_de_bruijn
from .tuples import (
    TupleKind,
    count_tuples,
    is_left_semi_symmetric,
    is_right_semi_symmetric,
    kind_predicate,
    all_tuples,
    at_least,
)

LEDGER_TERMS = (
    "U_out", "U_in", "P_out", "P_in",
    "U_out∩P_in", "P_out∩U_in", "U_out∩U_in", "P_out∩P_in",
)


@dataclass(frozen=True)
class BoundReport:
    """A period bound with the exclusion-set cardinalities that produced it.

    closed_form_bound comes from the case-split formula; ledger_edge_bound
    caps the edge count of any usable subgraph, and its floor-half equals
    the closed form.  Terms that play no role in the case at hand are
    reported as zero.
    """

    k: int
    n: int
    closed_form_bound: int
    ledger_edge_bound: int
    ledger_terms: dict[str, int]


def _digit_limit(k: int) -> int:  # the least n with k**n too long to print
    return math.ceil(sys.int_info.default_max_str_digits / math.log10(k))


def _check_domain(k: int, n: int) -> None:
    at_least(k, 2, "alphabet size")
    at_least(n, 2, "window length")
    # Before any power is taken: every bound must be printable as text.
    if n >= _digit_limit(k):
        raise ResourceCapError(
            f"{k}**{n} has more than {sys.int_info.default_max_str_digits} digits")


def period_upper_bound(k: int, n: int) -> int:
    """Largest possible period of a sequence with distinct, reversal-free
    cyclic n-windows over Z_k."""
    _check_domain(k, n)
    if n == 2:
        num = k * k - k if k % 2 else k * k - 2 * k
    elif n == 3:
        num = k**3 - k * k if k % 2 else k**3 - k * k - 2 * k
    elif n == 4:
        num = k**4 - 3 * k * k + 2 * k if k % 2 else k**4 - 2 * k * k
    elif n % 2 == 1:
        if k % 2 == 1:
            num = k**n - 3 * k**((n + 1) // 2) - 2 * k**((n - 1) // 2) + k**3 + 3 * k * k
        else:
            num = k**n - 3 * k**((n + 1) // 2) + k**3 + k * k - 2 * k
    else:
        if k % 2 == 1:
            num = k**n - 5 * k**(n // 2) + 4 * k * k
        else:
            num = k**n - 3 * k**(n // 2) + k * k - k
    return num // 2


def ledger_bound(k: int, n: int) -> BoundReport:
    """Evaluate the exclusion ledger and pair it with the closed form.

    The single-set cardinalities are pulled from the tuple-counting module
    (forced-out edges are indexed by structured (n-1)-tuples); the overlap
    corrections are the fixed per-parity values the ledger cases call for.
    """
    _check_domain(k, n)
    terms = {name: 0 for name in LEDGER_TERMS}
    base = k**n - k**((n + 1) // 2)

    def p_count() -> int:
        # Vertices needing an incident exclusion on parity grounds: uniform
        # ones when k is even, symmetric non-uniform ones when k is odd.
        kind = (TupleKind.UNIFORM if k % 2 == 0
                else TupleKind.SYMMETRIC_NON_UNIFORM)
        return count_tuples(kind, k, n - 1)

    def u_count() -> int:
        # Vertices with a forced-out undirected-duplicate edge, indexed by
        # semi-symmetric structure; the alternating ones drop out when the
        # vertex length is even.
        kind = (TupleKind.NON_UNIFORM_LEFT_SEMI_SYMMETRIC if n % 2 == 0
                else TupleKind.NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC)
        return count_tuples(kind, k, n - 1)

    if n == 2:
        terms["P_out"] = p_count()
    elif n == 3:
        terms["P_out"] = terms["P_in"] = p_count()
    elif n == 4:
        terms["U_out"] = u_count()
        terms["P_out"] = p_count()
    else:
        terms["U_out"] = terms["U_in"] = u_count()
        terms["P_out"] = terms["P_in"] = p_count()
        if n % 2 == 1:
            terms["U_out∩U_in"] = k**3 - k * k
            if k % 2 == 1:
                terms["U_out∩P_in"] = terms["P_out∩U_in"] = k * (k - 1)
        else:
            terms["U_out∩U_in"] = k * (k - 1)
            if k % 2 == 1:
                terms["U_out∩P_in"] = terms["P_out∩U_in"] = k * (k - 1)
                terms["P_out∩P_in"] = k * (k - 1)
    edge_bound = (base
                  - terms["U_out"] - terms["U_in"]
                  - terms["P_out"] - terms["P_in"]
                  + terms["U_out∩P_in"] + terms["P_out∩U_in"]
                  + terms["U_out∩U_in"] + terms["P_out∩P_in"])
    return BoundReport(k=k, n=n,
                       closed_form_bound=period_upper_bound(k, n),
                       ledger_edge_bound=edge_bound,
                       ledger_terms=terms)


@dataclass(frozen=True)
class ExclusionAudit:
    """Brute-force census of the vertex classes behind the ledger."""

    k: int
    n: int
    class_counts: dict[str, int]
    expected_counts: dict[str, int]
    class_degrees: dict[str, dict[str, tuple[int, ...]]]
    degree_rule_holds: bool
    parity_rule_holds: bool


# Each audited vertex class is a tuple kind, read on the reversed word when
# mirrored: a word is right-semi-symmetric exactly when its reversal is
# left-semi-symmetric, and reversal keeps uniformity and alternation.
_AUDIT_CLASSES = {
    "uniform": (TupleKind.UNIFORM, False),
    "alternating": (TupleKind.ALTERNATING, False),
    "symmetric-non-uniform": (TupleKind.SYMMETRIC_NON_UNIFORM, False),
    "non-uniform-left-semi-symmetric":
        (TupleKind.NON_UNIFORM_LEFT_SEMI_SYMMETRIC, False),
    "non-uniform-right-semi-symmetric":
        (TupleKind.NON_UNIFORM_LEFT_SEMI_SYMMETRIC, True),
    "non-uniform-non-alternating-left-semi-symmetric":
        (TupleKind.NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC, False),
    "non-uniform-non-alternating-right-semi-symmetric":
        (TupleKind.NON_UNIFORM_NON_ALTERNATING_LEFT_SEMI_SYMMETRIC, True),
}


def empirical_exclusion_audit(k: int, n: int) -> ExclusionAudit:
    """Recount the ledger's vertex classes and degree facts by enumeration.

    Walks every vertex of the palindrome-free digraph whose edges are
    n-tuples, classifies it, and checks the degree rules: in-degree is
    k-1 exactly for left-semi-symmetric vertices (k otherwise), out-degree
    mirrors that on the right; when k is even the uniform vertices have odd
    degree, and when k is odd the symmetric non-uniform ones do.

    Raises InternalInvariantError if a class count disagrees with the
    closed form the ledger uses.
    """
    _check_domain(k, n)
    g = palindrome_free_de_bruijn(k, n - 1)
    degrees = g.degree_map()
    counts = {name: 0 for name in _AUDIT_CLASSES}
    class_degrees: dict[str, dict[str, set[int]]] = {
        name: {"in": set(), "out": set()} for name in _AUDIT_CLASSES
    }
    degree_ok = True
    for vertex in all_tuples(k, n - 1):
        din, dout = degrees.get(vertex, (0, 0))
        lss = is_left_semi_symmetric(vertex)
        rss = is_right_semi_symmetric(vertex)
        if din != (k - 1 if lss else k) or dout != (k - 1 if rss else k):
            degree_ok = False
        for name, (kind, mirrored) in _AUDIT_CLASSES.items():
            if kind_predicate(kind)(vertex[::-1] if mirrored else vertex):
                counts[name] += 1
                class_degrees[name]["in"].add(din)
                class_degrees[name]["out"].add(dout)
    expected = {
        name: count_tuples(kind, k, n - 1)
        for name, (kind, _) in _AUDIT_CLASSES.items()
    }
    for name in counts:
        if counts[name] != expected[name]:
            raise InternalInvariantError(
                f"class {name} counted {counts[name]} vertices, "
                f"closed form says {expected[name]} (k={k}, n={n})")
    frozen_degrees = {
        name: {side: tuple(sorted(vals)) for side, vals in sides.items()}
        for name, sides in class_degrees.items()
    }
    odd_class = "uniform" if k % 2 == 0 else "symmetric-non-uniform"
    parity_ok = all(d % 2 for side in frozen_degrees[odd_class].values() for d in side)
    return ExclusionAudit(k=k, n=n, class_counts=counts,
                          expected_counts=expected,
                          class_degrees=frozen_degrees,
                          degree_rule_holds=degree_ok,
                          parity_rule_holds=parity_ok)
