"""Closed-form decisions: is a graphic sequence potentially wheel-graphic?

This module owns every rule of the decision procedure; ``catalogs`` only
loads the exception lists the rules consult. ``theorem31_decide`` applies the
seven conditions over the shape (d1..dm, 3^i, 2^j, 1^k) to a positive graphic
sequence with n >= 6 and reports which clause (if any) rules it out; clause
(7) joins the catalog's fixed list with two parametric families defined here.
``lemma_family_decide`` answers the same question on six closed sequence
families from their exception lists (plus the parametric two_high
exceptions), an independent decision path on its domain, and
``is_graphic_via_lemma26`` decides plain graphicality for small-term
sequences by lookup in the exception set S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .catalogs import ExceptionCatalog, default_catalog
from .errors import DomainError, InternalCheckError
from .sequences import DegreeSequence, is_graphic_eg

__all__ = [
    "CLAUSE_IDS",
    "FormDescriptor",
    "ConditionReport",
    "in_exception_set_s",
    "is_graphic_via_lemma26",
    "decompose_form",
    "theorem31_decide",
    "lemma_family_decide",
    "extremal_sequence",
]

# Clause identifiers in evaluation order; failing_clause reports the first.
CLAUSE_IDS = (
    "1",
    "2",
    "3",
    "4i",
    "4ii",
    "4iii",
    "4iv",
    "5i",
    "5ii",
    "5iii",
    "6",
    "7-fixed",
    "7-parametric",
)


@dataclass(frozen=True, slots=True)
class FormDescriptor:
    """Unique decomposition of a positive sequence: head terms (> 3) plus
    multiplicities i, j, k of the terms 3, 2, 1."""

    head: tuple[int, ...]
    i: int
    j: int
    k: int
    n: int

    def reassemble(self) -> DegreeSequence:
        return DegreeSequence(
            self.head + (3,) * self.i + (2,) * self.j + (1,) * self.k
        )


@dataclass(frozen=True, slots=True)
class ConditionReport:
    """Outcome of the seven-condition evaluation for one sequence."""

    sequence: DegreeSequence
    verdict: bool
    matched_forms: tuple[str, ...]
    failing_clause: Optional[str]
    form_detail: FormDescriptor

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence.render(),
            "n": self.sequence.n,
            "sigma": self.sequence.sigma,
            "verdict": self.verdict,
            "matched_forms": list(self.matched_forms),
            "failing_clause": self.failing_clause,
            "head": list(self.form_detail.head),
            "i": self.form_detail.i,
            "j": self.form_detail.j,
            "k": self.form_detail.k,
        }


def decompose_form(seq: DegreeSequence) -> FormDescriptor:
    """Split a positive sequence into head (terms > 3) and 3/2/1 counts.

    Raises:
        DomainError: a zero term is present (strip zeros first).
    """
    terms = seq.terms
    n = len(terms)
    if n and terms[-1] == 0:
        raise DomainError("decomposition needs positive terms; use strip_zeros() first")
    i, j, k = terms.count(3), terms.count(2), terms.count(1)
    # the terms are non-increasing, so those above 3 come first
    return FormDescriptor(terms[: n - i - j - k], i, j, k, n)


def in_exception_set_s(
    seq: DegreeSequence, catalog: Optional[ExceptionCatalog] = None
) -> bool:
    """Membership in the 40-sequence exception set S of small-term sequences.

    Raises:
        DomainError: some term lies outside {1,2,3,4}.
    """
    if any(t not in (1, 2, 3, 4) for t in seq.terms):
        raise DomainError(
            f"set-S membership is defined only for terms in {{1,2,3,4}}, got ({seq})"
        )
    return seq.terms in (catalog or default_catalog()).set_s


def is_graphic_via_lemma26(
    seq: DegreeSequence, catalog: Optional[ExceptionCatalog] = None
) -> bool:
    """Graphicality for sequences over {1,2,3,4} with even sum: not in S.

    Agrees with is_graphic_eg on its whole domain (that equivalence is what
    makes the table usable as a second opinion).

    Raises:
        DomainError: odd sum or a term outside {1,2,3,4}.
    """
    if seq.sigma % 2:
        raise DomainError(f"({seq}) has odd sum; the table covers even sums only")
    return not in_exception_set_s(seq, catalog)


# Clause (7)'s parametric families (n-1, 3^threes, 1^(n-1-threes)) with
# n >= min_n, as (threes, min_n).
COND7_PARAMETRIC: tuple[tuple[int, int], ...] = ((6, 7), (7, 8))


def cond7_parametric_match(seq: DegreeSequence) -> bool:
    """Is seq a member of a clause-(7) parametric family?"""
    terms = seq.terms
    n = len(terms)
    # every member starts (n-1, 3); at n = min_n it has no 1s, so test d2
    if n < 2 or terms[0] != n - 1 or terms[1] != 3:
        return False
    return any(
        n >= min_n and terms == (n - 1,) + (3,) * threes + (1,) * (n - 1 - threes)
        for threes, min_n in COND7_PARAMETRIC
    )


def theorem31_decide(
    seq: DegreeSequence, catalog: Optional[ExceptionCatalog] = None
) -> ConditionReport:
    """Decide potential wheel-graphicality via the seven-condition test.

    A condition written against a shape, e.g. "(d1,d2,d3,3^i,2^j,1^k)",
    applies iff the unique decomposition matches its guard (here: exactly
    three terms above 3). Every applicable condition must hold; the report
    records the first failing clause in CLAUSE_IDS order and all matched
    form guards among conditions (2)-(5).

    Raises:
        DomainError: n < 6, zero terms, or seq not graphic.
    """
    cat = catalog or default_catalog()
    d = seq.terms
    n = len(d)
    if n < 6:
        raise DomainError(f"the characterization needs n >= 6, got n={n}")
    if d[-1] == 0:
        raise DomainError("the characterization needs positive terms; strip zeros first")
    if not is_graphic_eg(seq):
        raise DomainError(f"({seq}) is not graphic")

    form = decompose_form(seq)
    head, i, j = form.head, form.i, form.j
    matched: list[str] = []
    failures: list[str] = []

    # (1) base requirement on the largest and sixth degrees
    if not (d[0] >= 5 and d[5] >= 3):
        failures.append("1")

    # (2) shape (d1,d2,d3,3^i,2^j,1^k), d3 >= 5, i >= 3
    if len(head) == 3 and head[2] >= 5 and i >= 3:
        matched.append("2")
        if d[0] + d[1] + d[2] > n + 2 * i + j + 1:
            failures.append("2")

    # (3) shape (d1,d2,3^4,2^j,1^(n-j-6)), d2 >= 5
    if len(head) == 2 and head[1] >= 5 and i == 4:
        matched.append("3")
        if d[0] + d[1] > n + j + 2:
            failures.append("3")

    # (4) shape (d1,d2,d3,3^i,2^j,1^k), d3 >= 4, n >= 8, i >= 4
    if len(head) == 3 and head[2] >= 4 and n >= 8 and i >= 4:
        matched.append("4")
        d1, d2, d3 = head
        if n == i + 3 and d1 == n - 1 and d3 >= 5 and d2 > n - 2:
            failures.append("4i")
        if (
            n >= i + j + 4
            and d1 >= i + j + 3
            and d2 >= max(d3 + 2, i + j + 2)
            and d3 == 4
            and d1 + d2 > n + i + j
        ):
            failures.append("4ii")
        if (
            n >= i + j + 4
            and d1 == n - 1
            and d2 >= d3 + 2
            and d3 >= 5
            and d1 + d2 > n + i + j
        ):
            failures.append("4iii")
        if n == i + j + 3 and j >= 1 and d1 == n - 1 and d2 >= d3 + 2 and d2 > n - 2:
            failures.append("4iv")

    # (5) shape (d1,d2,3^i,2^j,1^k), d2 >= 5, i >= 5
    if len(head) == 2 and head[1] >= 5 and i >= 5:
        matched.append("5")
        d1, d2 = head
        # The paper's comma list also reads as ((n >= i+1 and j >= 2) or
        # (j = 0 and d1 >= i+j)). Both readings fail the same sequences: when
        # d1 < i+j, d1+d2 <= 2(i+j)-2 < n+i+j-2, so the bound cannot fail,
        # and n >= i+1 always holds since n >= i+2 here.
        if (
            n >= i + 1
            and (j >= 2 or j == 0)
            and d1 >= i + j
            and d1 + d2 > n + i + j - 2
        ):
            failures.append("5i")
        if d1 == i + j + 1 and d1 >= n - 2 and d2 > n - 3:
            failures.append("5ii")
        if d1 == i + j and d1 == n - 2 and i >= 6 and d2 > n - 3:
            failures.append("5iii")

    # (6) the single excluded odd-n sequence shape ((n-1)^2,4,3^(n-3))
    if n >= 7 and n % 2 == 1 and d == (n - 1, n - 1, 4) + (3,) * (n - 3):
        failures.append("6")

    # (7) fixed exception list, then the two parametric families
    if d in cat.thm7_fixed:
        failures.append("7-fixed")
    if cond7_parametric_match(seq):
        failures.append("7-parametric")

    failing = min(failures, key=CLAUSE_IDS.index) if failures else None
    return ConditionReport(seq, not failures, tuple(matched), failing, form)


def two_high_parametric_match(seq: DegreeSequence) -> bool:
    """Parametric exceptions of the two_high family (d1, d2, 3^(n-2)).

    ((n-1)^2, 3^(n-2)) and ((n-2)^2, 3^(n-2)) for even n >= 7, and
    (n-1, n-2, 3^(n-2)) for odd n >= 7; at the other parity each of these
    shapes has an odd sum.
    """
    t = seq.terms
    n = len(t)
    if n < 7:
        return False
    tail = (3,) * (n - 2)
    if n % 2 == 0:
        return t == (n - 1, n - 1) + tail or t == (n - 2, n - 2) + tail
    return t == (n - 1, n - 2) + tail


def lemma_family_decide(
    seq: DegreeSequence, catalog: Optional[ExceptionCatalog] = None
) -> Optional[bool]:
    """Closed-family verdict: True/False inside a known family, None outside.

    Families (see catalogs.FAMILY_KEYS) are decided by their exception
    catalogs; a member is potentially wheel-graphic unless listed. When a
    sequence lies in several families all verdicts must coincide, and a
    conflict raises InternalCheckError since it can only mean catalog
    corruption.

    Raises:
        DomainError: zero terms, n < 6, odd sum, or a family member that is
            not graphic.
        InternalCheckError: overlapping families disagree.
    """
    cat = catalog or default_catalog()
    t = seq.terms
    n = len(t)
    if n and t[-1] == 0:
        raise DomainError("family decisions need positive terms; strip zeros first")
    if n < 6:
        raise DomainError(f"family decisions need n >= 6, got n={n}")
    if seq.sigma % 2:
        raise DomainError(f"({seq}) has odd sum, so it is not graphic")
    # every family below has d1 >= 5
    if t[0] < 5:
        return None

    listed = cat.lemma_exceptions
    verdicts: dict[str, bool] = {}

    # quad5: (5^4, 4^(n-4))
    if t[:4] == (5, 5, 5, 5) and all(x == 4 for x in t[4:]):
        verdicts["quad5"] = t not in listed["quad5"]

    # triple5: (5^3, 4^i, 3^j, 2^(n-3-i-j)), i+j >= 3
    if t[:3] == (5, 5, 5) and all(x in (4, 3, 2) for x in t[3:]):
        if t.count(4) + t.count(3) >= 3:
            verdicts["triple5"] = t not in listed["triple5"]

    # double5: (5^2, 4^i, 3^j, 2^(n-2-i-j)), i+j >= 4
    if t[:2] == (5, 5) and all(x in (4, 3, 2) for x in t[2:]):
        if t.count(4) + t.count(3) >= 4:
            verdicts["double5"] = t not in listed["double5"]

    # single5: (5, 4^i, 3^j, 2^k, 1^(n-1-i-j-k)), i+j >= 5
    if t[0] == 5 and all(x in (4, 3, 2, 1) for x in t[1:]):
        if t.count(4) + t.count(3) >= 5:
            verdicts["single5"] = t not in listed["single5"]

    # two_high: (d1, d2, 3^(n-2)), d1 >= 5, d2 >= 3
    if t[0] >= 5 and t[1] >= 3 and all(x == 3 for x in t[2:]):
        excluded = t in listed["two_high"] or two_high_parametric_match(seq)
        verdicts["two_high"] = not excluded

    # five_threes: (d1, 3^5, 2^(n-6)), d1 >= 5
    if t[0] >= 5 and t[1:6] == (3, 3, 3, 3, 3) and all(x == 2 for x in t[6:]):
        verdicts["five_threes"] = t not in listed["five_threes"]

    if not verdicts:
        return None
    # family shapes admit terms >= n, so graphicality is checked on members only
    if not is_graphic_eg(seq):
        raise DomainError(f"({seq}) is not graphic")
    values = set(verdicts.values())
    if len(values) > 1:
        raise InternalCheckError(
            f"family verdicts disagree for ({seq}): {verdicts}"
        )
    return values.pop()


def extremal_sequence(n: int) -> DegreeSequence:
    """The sum-maximal non-potential sequence ((n-1)^3, 3^(n-3)), sum 6n-12.

    Raises:
        DomainError: n < 6.
    """
    if n < 6:
        raise DomainError(f"extremal sequence needs n >= 6, got n={n}")
    return DegreeSequence((n - 1,) * 3 + (3,) * (n - 3))
