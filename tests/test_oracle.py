"""Exhaustive decision oracle: strategies, witnesses, budgets, counts."""

from __future__ import annotations

import pytest

import helpers
import potgraph.oracle as oracle_mod
from potgraph.errors import BudgetExceededError, DomainError, InternalCheckError
from potgraph.graphs import Graph, contains_subgraph, degree_sequence_of, pattern_k6_c5
from potgraph.oracle import STRATEGIES, STRATEGY_EMBED, OracleVerdict, oracle_potentially
from potgraph.sequences import parse_sequence
from potgraph.survey import sigma_empirical


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
    # the compiled kernel holds the budget in a signed 64-bit integer
    for strategy in STRATEGIES:
        for budget in (0, 2**63):
            with pytest.raises(DomainError):
                oracle_potentially(parse_sequence("5,3^5"), strategy, budget)
        assert oracle_potentially(parse_sequence("5,3^5"), strategy, 2**63 - 1).potentially


def test_witness_reverification_guard(monkeypatch):
    seq = parse_sequence("5,3^5")
    bogus = Graph.complete(6)  # wrong degree sequence for seq

    def lying_embed(s, budget):
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
