"""Exhaustive decision oracle: strategies, witnesses, budgets, counts."""

from __future__ import annotations

import pytest

import helpers
import potgraph.oracle as oracle_mod
from potgraph.errors import (
    BudgetExceededError,
    DomainError,
    InternalCheckError,
    StrategyDisagreementError,
)
from potgraph.graphs import Graph, contains_subgraph, degree_sequence_of, pattern_k6_c5
from potgraph.oracle import (
    STRATEGIES,
    STRATEGY_EMBED,
    OracleVerdict,
    check_strategy_agreement,
    enumerate_realizations,
    oracle_potentially,
)
from potgraph.sequences import DegreeSequence, is_graphic_eg, parse_sequence
from potgraph.survey import enumerate_graphic_sequences, sigma_empirical


POSITIVE_FIXTURES = ["5,3^5", "5^2,4^4", "6,3^6,2^2", "5^6"]
NEGATIVE_FIXTURES = [
    "5^3,3^3",
    "5^2,3^4",
    "6,3^6",
    "6,3^6,2",
    "6^2,3^4,2^2",
    "7^2,3^4,2^3",
    "8,6,3^5,2,1",
]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("text", POSITIVE_FIXTURES)
def test_positive_verdicts(strategy, text):
    seq = parse_sequence(text)
    verdict = oracle_potentially(seq, strategy=strategy)
    assert verdict.potentially is True
    assert verdict.strategy == strategy
    assert verdict.nodes_explored > 0
    assert verdict.witness is not None
    assert degree_sequence_of(verdict.witness) == seq
    assert contains_subgraph(verdict.witness, pattern_k6_c5())
    assert helpers.independent_contains_wheel(verdict.witness.rows)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("text", NEGATIVE_FIXTURES)
def test_negative_verdicts(strategy, text):
    verdict = oracle_potentially(parse_sequence(text), strategy=strategy)
    assert verdict.potentially is False
    assert verdict.witness is None


def test_witness_is_deterministic():
    seq = parse_sequence("5,3^5")
    first = oracle_potentially(seq)
    second = oracle_potentially(seq)
    assert first.witness == second.witness
    assert first.nodes_explored == second.nodes_explored


def test_strategy_agreement_exhaustive_n6():
    positives = 0
    for seq in enumerate_graphic_sequences(6):
        verdict = check_strategy_agreement(seq)
        assert verdict.strategy == STRATEGY_EMBED
        positives += verdict.potentially
    assert positives == 8


def test_strategy_disagreement_raises(monkeypatch):
    seq = parse_sequence("5,3^5")
    real = oracle_mod._full_enumeration

    def lying_full(s, pat, budget):
        verdict = real(s, pat, budget)
        return OracleVerdict(False, None, verdict.strategy, verdict.nodes_explored)

    monkeypatch.setattr(oracle_mod, "_full_enumeration", lying_full)
    with pytest.raises(StrategyDisagreementError):
        check_strategy_agreement(seq)


def test_enumeration_counts():
    assert enumerate_realizations(parse_sequence("1^4")).realizations == 3
    assert enumerate_realizations(parse_sequence("2,1,1")).realizations == 1
    assert enumerate_realizations(parse_sequence("5,3^5")).realizations == 12
    assert enumerate_realizations(parse_sequence("6,3^6,2")).realizations == 1965
    assert enumerate_realizations(parse_sequence("6^2,3^4,2^2")).realizations == 169


def test_enumeration_matches_brute_force():
    for n in range(1, 6):
        for terms in helpers.all_degree_vectors(n):
            seq = DegreeSequence(terms)
            if 0 in terms or not is_graphic_eg(seq):
                continue
            summary = enumerate_realizations(seq)
            assert summary.realizations == helpers.brute_force_realizations(terms)
            assert summary.complete is True
            assert summary.halted is False


def test_enumeration_visit_halts():
    seen = []

    def stop_at_five(rows):
        seen.append(rows)
        return len(seen) == 5

    summary = enumerate_realizations(parse_sequence("5,3^5"), visit=stop_at_five)
    assert summary.realizations == 5
    assert summary.halted is True
    assert summary.complete is False


def test_enumeration_budget_is_soft():
    summary = enumerate_realizations(parse_sequence("5,3^5"), budget=3)
    assert summary.complete is False
    assert summary.halted is False
    assert summary.nodes == 4


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_budget_exceeded_raises(strategy):
    seq = parse_sequence("5,3^5")
    with pytest.raises(BudgetExceededError) as info:
        oracle_potentially(seq, strategy=strategy, budget=2)
    err = info.value
    assert "5,3^5" in str(err)
    assert err.nodes > 0


def test_domain_errors():
    with pytest.raises(DomainError):
        oracle_potentially(parse_sequence("5,3^5,0"))  # zero term
    with pytest.raises(DomainError):
        oracle_potentially(parse_sequence("3^13"))  # n > 12
    with pytest.raises(DomainError):
        oracle_potentially(parse_sequence("5^5,1"))  # not graphic
    with pytest.raises(DomainError):
        oracle_potentially(parse_sequence("5,3^5"), strategy="bogus")
    with pytest.raises(DomainError):
        enumerate_realizations(parse_sequence("3,1"))


def test_witness_reverification_guard(monkeypatch):
    seq = parse_sequence("5,3^5")
    bogus = Graph.complete(6)  # wrong degree sequence for seq

    def lying_embed(s, pat, budget):
        return OracleVerdict(True, bogus, STRATEGY_EMBED, 1)

    monkeypatch.setattr(oracle_mod, "_embed_and_extend", lying_embed)
    with pytest.raises(InternalCheckError):
        oracle_potentially(seq)


def test_sigma_empirical_base():
    assert sigma_empirical(6) == 26
    with pytest.raises(DomainError):
        sigma_empirical(5)
    with pytest.raises(DomainError):
        sigma_empirical(10)


def test_pattern_copy_count():
    rows = pattern_k6_c5().graph.rows
    copies = oracle_mod._pattern_copies(rows)
    assert len(copies) == 72
    seen = set()
    for crow, cdeg in copies:
        assert sorted(r.bit_count() for r in crow) == [3, 3, 3, 3, 3, 5]
        assert cdeg == tuple(r.bit_count() for r in crow)
        seen.add(crow)
    assert len(seen) == 72
