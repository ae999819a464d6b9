"""Degree sequence parsing, rendering, graphicality tests, lay-off."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re

import pytest

import helpers
from potgraph.errors import DomainError, SequenceParseError
from potgraph.sequences import (
    MAX_TERMS,
    DegreeSequence,
    is_graphic_eg,
    is_graphic_kw,
    layoff,
    parse_sequence,
)


def test_parse_basic_forms():
    assert parse_sequence("5,3^5").terms == (5, 3, 3, 3, 3, 3)
    assert parse_sequence(" 5 , 3 ^ 5 ").terms == (5, 3, 3, 3, 3, 3)
    assert parse_sequence("7").terms == (7,)
    assert parse_sequence("0^3").terms == (0, 0, 0)
    # input order does not matter, the sequence re-sorts descending
    assert parse_sequence("3^2,4").terms == (4, 3, 3)
    assert parse_sequence("1,5,3").terms == (5, 3, 1)


@pytest.mark.parametrize(
    "text",
    [
        "5,,3", "a", "3^", "^2", "5 3", "3,^2", "5;3", "3^^2",
        # longer than int() converts
        pytest.param("9" * 5000, id="9x5000"),
        pytest.param("5^" + "9" * 5000, id="5^9x5000"),
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(SequenceParseError):
        parse_sequence(text)


def test_parse_error_reports_span():
    with pytest.raises(SequenceParseError) as info:
        parse_sequence("5,,3")
    err = info.value
    assert err.text == "5,,3"
    assert (err.start, err.end) == (2, 2)
    assert "characters 2..2" in str(err)


def test_parse_domain_limits():
    with pytest.raises(DomainError):
        parse_sequence("")
    with pytest.raises(DomainError):
        parse_sequence("   ")
    with pytest.raises(DomainError):
        parse_sequence("-3")
    with pytest.raises(DomainError):
        parse_sequence("3^0")
    with pytest.raises(DomainError):
        parse_sequence("3^-1")
    with pytest.raises(DomainError):
        parse_sequence(f"1^{MAX_TERMS + 1}")
    assert parse_sequence(f"1^{MAX_TERMS}").n == MAX_TERMS


# every parse error with its exact message, and for SequenceParseError its
# span, as (text, error type, message, (start, end) or None)
PARSE_ERRORS = [
    pytest.param("", DomainError, "empty degree-sequence text", None, id="empty"),
    pytest.param("   ", DomainError, "empty degree-sequence text", None, id="blank"),
    pytest.param(
        "5,,3", SequenceParseError, "malformed term '' at characters 2..2", (2, 2),
        id="empty-term",
    ),
    pytest.param(
        "5, x^2 ,3", SequenceParseError, "malformed term 'x^2' at characters 2..7", (2, 7),
        id="bad-term",
    ),
    pytest.param(
        "3^^2", SequenceParseError, "malformed term '3^^2' at characters 0..4", (0, 4),
        id="double-caret",
    ),
    pytest.param(
        "5,9" + "9" * 4999, SequenceParseError, "number too long at characters 2..5002",
        (2, 5002), id="long-base",
    ),
    pytest.param(
        "3^" + "9" * 5000, SequenceParseError, "number too long at characters 0..5002",
        (0, 5002), id="long-exponent",
    ),
    pytest.param(
        "5, -3", DomainError, "negative degree -3 at characters 2..5", None, id="negative"
    ),
    pytest.param(
        "3^0", DomainError, "exponent 0 at characters 0..3; exponents must be >= 1", None,
        id="exponent-0",
    ),
    pytest.param(
        "4, 3 ^ -2", DomainError, "exponent -2 at characters 2..9; exponents must be >= 1",
        None, id="exponent-negative",
    ),
    pytest.param(
        "1^65", DomainError, "sequence expands past 64 terms at characters 0..4", None,
        id="past-64-one-term",
    ),
    pytest.param(
        "2^60,1^4, 1", DomainError, "sequence expands past 64 terms at characters 9..11",
        None, id="past-64-last-term",
    ),
    pytest.param(
        ",".join(["1"] * 65), DomainError,
        "sequence expands past 64 terms at characters 128..129", None, id="past-64-singles",
    ),
    pytest.param(
        "1,2,3^62,7^2", DomainError, "sequence expands past 64 terms at characters 9..12",
        None, id="past-64-middle-term",
    ),
]


@pytest.mark.parametrize("text, error, message, span", PARSE_ERRORS)
def test_parse_error_messages_are_pinned(text, error, message, span):
    with pytest.raises(error) as info:
        parse_sequence(text)
    assert type(info.value) is error
    assert str(info.value) == message
    if span is not None:
        assert (info.value.text, info.value.start, info.value.end) == (text, *span)


def test_degree_sequence_invariants():
    seq = DegreeSequence((3, 1, 2))
    assert seq.terms == (3, 2, 1)
    assert seq.sigma == 6
    assert seq.n == 3
    assert len(seq) == 3
    assert list(seq) == [3, 2, 1]
    assert seq[0] == 3
    assert seq == parse_sequence("1,2,3")
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.terms = (1,)


@pytest.mark.parametrize(
    "terms,message",
    [
        ((True, True), "degree terms must be integers, got True"),
        ((3, False), "degree terms must be integers, got False"),
        ((2, 1.0), "degree terms must be integers, got 1.0"),
        ((3, "2"), "degree terms must be integers, got '2'"),
        # the first bad term in input order is named, whatever its fault
        ((3, -1, -2), "negative degree -1"),
        ((-2, 1.0), "negative degree -2"),
        ((1.0, -2), "degree terms must be integers, got 1.0"),
    ],
)
def test_degree_sequence_rejects_bad_terms(terms, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        DegreeSequence(terms)


def test_zero_handling_and_extremes():
    seq = parse_sequence("3,2,1,0^2")
    assert seq.strip_zeros().terms == (3, 2, 1)
    assert parse_sequence("0^4").strip_zeros().terms == ()


def test_render_exponent_notation():
    assert str(parse_sequence("5,3,3,3,3,3")) == "5,3^5"
    assert str(parse_sequence("6,6,3,3,3,3,2,2")) == "6^2,3^4,2^2"
    assert str(parse_sequence("5")) == "5"
    assert str(parse_sequence("4,4,0")) == "4^2,0"
    assert DegreeSequence(()).render() == ""


def _render_by_groupby(terms: tuple[int, ...]) -> str:
    parts = []
    for value, group in itertools.groupby(terms):
        count = len(list(group))
        parts.append(f"{value}^{count}" if count > 1 else str(value))
    return ",".join(parts)


def test_render_matches_groupby_reference():
    for n in range(1, 9):
        for terms in helpers.all_degree_vectors(n, top=9):
            assert DegreeSequence(terms).render() == _render_by_groupby(terms), terms


def test_parse_render_round_trip():
    rng = random.Random(1103)
    for _ in range(300):
        n = rng.randint(1, 14)
        terms = tuple(
            sorted((rng.randint(0, 12) for _ in range(n)), reverse=True)
        )
        seq = DegreeSequence(terms)
        assert parse_sequence(str(seq)) == seq


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1,1", True),
        ("2,2,2", True),
        ("2,1,1", True),
        ("5,3^5", True),
        ("4^5", True),
        ("3,1^3", True),
        ("1", False),
        ("2,1", False),
        ("3,3,1,1", False),
        ("5^2,1^4", False),
        ("3,2", False),
    ],
)
def test_graphicality_known_cases(text, expected):
    assert is_graphic_eg(parse_sequence(text)) is expected
    assert is_graphic_kw(parse_sequence(text)) is expected


def test_empty_sequence_is_graphic():
    assert is_graphic_eg(DegreeSequence(())) is True
    assert is_graphic_kw(DegreeSequence(())) is True


def test_eg_matches_kw_exhaustively():
    # terms up to n+1 reach the d_1 >= n rejection and the early stop
    for n in range(1, 10):
        for terms in helpers.all_degree_vectors(n, top=n + 1):
            seq = DegreeSequence(terms)
            assert is_graphic_eg(seq) == is_graphic_kw(seq), terms
            # the bare terms tuple, as enumeration passes it
            assert is_graphic_eg(seq.terms) == is_graphic_eg(seq), terms


def test_eg_matches_kw_random():
    rng = random.Random(20260813)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        terms = tuple(
            sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
        )
        seq = DegreeSequence(terms)
        assert is_graphic_eg(seq) == is_graphic_kw(seq), terms


def test_eg_matches_brute_force_small():
    for n in range(1, 6):
        for terms in helpers.all_degree_vectors(n):
            expected = helpers.brute_force_is_graphic(terms)
            assert is_graphic_eg(DegreeSequence(terms)) is expected, terms


def test_layoff_hand_cases():
    seq = parse_sequence("3,3,2,2,2")
    # large term: partners are the next d_k largest entries
    assert layoff(seq, 1).terms == (2, 2, 1, 1)
    # small term: partners are the d_k largest entries
    assert layoff(seq, 5).terms == (2, 2, 2, 2)
    assert layoff(parse_sequence("1,1"), 2).terms == (0,)


def test_layoff_domain_errors():
    seq = parse_sequence("3,3,2,2,2")
    with pytest.raises(DomainError):
        layoff(seq, 0)
    with pytest.raises(DomainError):
        layoff(seq, 6)
    with pytest.raises(DomainError):
        layoff(parse_sequence("3,1"), 1)
    with pytest.raises(DomainError):
        layoff(DegreeSequence((2, 0, 0)), 1)


def test_layoff_preserves_graphicality_exhaustive():
    for n in range(2, 7):
        for terms in helpers.all_degree_vectors(n):
            seq = DegreeSequence(terms)
            graphic = is_graphic_eg(seq)
            for k in range(1, n + 1):
                try:
                    reduced = layoff(seq, k)
                except DomainError:
                    assert not graphic, (terms, k)
                    continue
                assert is_graphic_eg(reduced) == graphic, (terms, k)


def test_layoff_preserves_graphicality_random():
    rng = random.Random(417)
    for _ in range(2_000):
        n = rng.randint(2, 10)
        terms = tuple(
            sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
        )
        seq = DegreeSequence(terms)
        graphic = is_graphic_eg(seq)
        k = rng.randint(1, n)
        try:
            reduced = layoff(seq, k)
        except DomainError:
            assert not graphic, (terms, k)
            continue
        assert is_graphic_eg(reduced) == graphic, (terms, k)
