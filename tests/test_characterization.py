"""Seven-condition decision procedure, closed families, small-term lemma."""

from __future__ import annotations

import itertools

import pytest

from potgraph.catalogs import load_catalog
from potgraph.characterization import (
    CLAUSE_IDS,
    decompose_form,
    extremal_sequence,
    in_exception_set_s,
    is_graphic_via_lemma26,
    lemma_family_decide,
    theorem31_decide,
)
from potgraph.errors import DomainError, InternalCheckError
from potgraph.sequences import DegreeSequence, is_graphic_eg, parse_sequence
from potgraph.survey import enumerate_graphic_sequences


def test_clause_ids_are_ordered_and_unique():
    assert CLAUSE_IDS == (
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
    assert len(set(CLAUSE_IDS)) == len(CLAUSE_IDS)


def test_decompose_form():
    form = decompose_form(parse_sequence("7,6,4,3^4,1"))
    assert form.head == (7, 6, 4)
    assert (form.i, form.j, form.k, form.n) == (4, 0, 1, 8)
    assert form.reassemble() == parse_sequence("7,6,4,3^4,1")
    all_threes = decompose_form(parse_sequence("3^6"))
    assert all_threes.head == ()
    assert all_threes.i == 6
    with pytest.raises(DomainError):
        decompose_form(parse_sequence("3,2,0"))


def test_decompose_reassemble_round_trip():
    for n in (6, 7):
        for seq in enumerate_graphic_sequences(n):
            assert decompose_form(seq).reassemble() == seq


def test_exception_set_membership():
    assert in_exception_set_s(parse_sequence("2")) is True
    assert in_exception_set_s(parse_sequence("3,3,1,1")) is True
    assert in_exception_set_s(parse_sequence("4^4,2")) is True
    assert in_exception_set_s(parse_sequence("1,1")) is False
    assert in_exception_set_s(parse_sequence("4,3,3,2,1,1")) is False
    with pytest.raises(DomainError):
        in_exception_set_s(parse_sequence("5,1"))


def test_lemma26_requires_even_sum():
    with pytest.raises(DomainError):
        is_graphic_via_lemma26(parse_sequence("3"))


def test_lemma26_matches_erdos_gallai_everywhere():
    """Exhaustive over the lemma's whole domain: terms in {1,2,3,4}, n <= 12."""
    checked = 0
    for n in range(1, 13):
        for terms in itertools.combinations_with_replacement((4, 3, 2, 1), n):
            seq = DegreeSequence(terms)
            if seq.sigma % 2:
                continue
            assert is_graphic_via_lemma26(seq) == is_graphic_eg(seq), terms
            checked += 1
    assert checked > 900


def test_theorem_domain_errors():
    with pytest.raises(DomainError):
        theorem31_decide(parse_sequence("3,3,2,2"))  # n < 6
    with pytest.raises(DomainError):
        theorem31_decide(parse_sequence("5,3^5,0"))  # zero term
    with pytest.raises(DomainError):
        theorem31_decide(parse_sequence("5^5,1"))  # not graphic


# Hand-checked verdict table. Every False row was confirmed against the
# exhaustive oracle; each clause id appears at least once.
CLAUSE_TABLE = [
    ("5,3^5", True, None, ()),
    ("5^2,4^4", True, None, ()),
    ("6,3^6,2^2", True, None, ()),
    ("7,3^5,2^2", True, None, ()),
    ("4^6", False, "1", ()),
    ("5^3,3^3", False, "2", ("2",)),
    ("5^2,3^4", False, "3", ("3",)),
    ("6^2,3^4,2", False, "3", ("3",)),
    ("7,7,5,3^5", False, "4i", ("2", "4")),
    ("7,6,4,3^4,1", False, "4ii", ("4",)),
    ("8,7,5,3^5,1", False, "4iii", ("2", "4")),
    ("7,7,4,3^4,2", False, "4iv", ("4",)),
    ("6,5,3^5", False, "5i", ("5",)),
    ("8,8,3^6,2", False, "5ii", ("5",)),
    ("6,6,3^6", False, "5iii", ("5",)),
    ("6,6,4,3^4", False, "6", ()),
    ("8,8,4,3^6", False, "6", ("4",)),
    ("5,4,3^5", False, "7-fixed", ()),
    ("6,3^8", False, "7-fixed", ()),
    ("6,3^6,2", False, "7-fixed", ()),
    ("6^2,3^4,2^2", False, "7-fixed", ("3",)),
    ("7^2,3^4,2^3", False, "7-fixed", ("3",)),
    ("8,6,3^5,2,1", False, "7-fixed", ("5",)),
    ("6,3^6", False, "7-parametric", ()),
    ("7,3^6,1", False, "7-parametric", ()),
    ("7,3^7", False, "7-parametric", ()),
    ("8,3^7,1", False, "7-parametric", ()),
]


@pytest.mark.parametrize("text,verdict,failing,matched", CLAUSE_TABLE)
def test_clause_table(text, verdict, failing, matched):
    report = theorem31_decide(parse_sequence(text))
    assert report.verdict is verdict
    assert report.failing_clause == failing
    assert report.matched_forms == matched


def test_report_to_dict_round_trip():
    report = theorem31_decide(parse_sequence("5^3,3^3"))
    data = report.to_dict()
    assert data["sequence"] == "5^3,3^3"
    assert data["n"] == 6
    assert data["sigma"] == 24
    assert data["verdict"] is False
    assert data["failing_clause"] == "2"
    assert data["head"] == [5, 5, 5]
    assert (data["i"], data["j"], data["k"]) == (3, 0, 0)


def test_corrections_live_in_the_catalog_not_the_code(catalog_dir):
    """Removing the correction rows flips the verdicts: pure data diffs."""
    corrections = ["6,3^6,2", "6^2,3^4,2^2", "7^2,3^4,2^3", "8,6,3^5,2,1"]
    path = catalog_dir / "cond7_fixed.txt"
    kept = [
        line
        for line in path.read_text().splitlines()
        if line.strip() not in corrections
    ]
    path.write_text("\n".join(kept) + "\n")
    stripped = load_catalog(str(catalog_dir))
    for text in corrections:
        seq = parse_sequence(text)
        assert theorem31_decide(seq).verdict is False
        report = theorem31_decide(seq, catalog=stripped)
        assert report.verdict is True, text


def test_alternative_5i_reading_is_extensionally_equal():
    """Clause (5)(i)'s comma list also reads as ((n >= i+1 and j >= 2) or
    (j = 0 and d1 >= i+j)); the implemented guard must fail exactly the
    sequences that reading fails. In the clause-(5) shape no earlier clause
    can fail, so 5i is reported whenever it fails."""
    shaped = 0
    for n in range(6, 11):
        for seq in enumerate_graphic_sequences(n):
            form = decompose_form(seq)
            if not (len(form.head) == 2 and form.head[1] >= 5 and form.i >= 5):
                continue
            shaped += 1
            (d1, d2), i, j = form.head, form.i, form.j
            alternative = (n >= i + 1 and j >= 2) or (j == 0 and d1 >= i + j)
            fails = alternative and d1 + d2 > n + i + j - 2
            assert (theorem31_decide(seq).failing_clause == "5i") == fails, seq
    assert shaped > 0


FAMILY_TABLE = [
    ("5^4,4^2", True),
    ("5^3,3^3", False),
    ("5^3,4^2,3", True),
    ("5^2,3^4", False),
    ("5^2,4^4", True),
    ("5^2,4,3^4", False),
    ("5,3^5", True),
    ("5,3^7", False),
    ("5,4,3^5", False),
    ("5,3^5,2", False),
    ("5,3^5,2^2", False),
    ("6,3^6", False),
    ("7,3^7", False),
    ("6,4,3^6", False),
    ("6,5,3^5", False),
    ("6,6,3^6", False),
    ("7,7,3^6", False),
    ("8,7,3^7", False),
    ("7,3^5,2^2", True),
    ("6,4,3^4,2", None),
    ("4^6", None),
    ("5^4,3^2", None),
]


@pytest.mark.parametrize("text,expected", FAMILY_TABLE)
def test_lemma_family_decide(text, expected):
    assert lemma_family_decide(parse_sequence(text)) is expected


def test_lemma_family_domain_errors():
    with pytest.raises(DomainError):
        lemma_family_decide(parse_sequence("5,3^5,0"))
    with pytest.raises(DomainError):
        lemma_family_decide(parse_sequence("5,3^3"))  # n < 6
    with pytest.raises(DomainError):
        lemma_family_decide(parse_sequence("5,3^4"))  # odd sum
    # family members with a term >= n: even sum, yet not graphic
    for text in ("7,3^5", "9,3^5,2^2"):
        with pytest.raises(DomainError):
            lemma_family_decide(parse_sequence(text))


def test_lemma_family_conflict_detection(catalog_dir):
    """(5,3^5,2) sits in two families; dropping it from one must explode."""
    path = catalog_dir / "family_five_threes.txt"
    kept = [
        line
        for line in path.read_text().splitlines()
        if line.strip() != "5,3^5,2"
    ]
    path.write_text("\n".join(kept) + "\n")
    broken = load_catalog(str(catalog_dir))
    with pytest.raises(InternalCheckError):
        lemma_family_decide(parse_sequence("5,3^5,2"), catalog=broken)


def test_extremal_sequence():
    for n in range(6, 13):
        seq = extremal_sequence(n)
        assert seq.terms == (n - 1,) * 3 + (3,) * (n - 3)
        assert seq.sigma == 6 * n - 12
        assert is_graphic_eg(seq)
        report = theorem31_decide(seq)
        assert report.verdict is False
        assert report.failing_clause == "2"
    with pytest.raises(DomainError):
        extremal_sequence(5)
