"""Exhaustive decision oracle: strategies, witnesses, budgets, counts."""

from __future__ import annotations

import itertools

import pytest

import helpers
import potgraph._kernels_py as kpy
import potgraph.oracle as oracle_mod
from potgraph.errors import BudgetExceededError, DomainError, InternalCheckError
from potgraph.graphs import Graph, contains_subgraph, degree_sequence_of, pattern_k6_c5
from potgraph.oracle import (
    STRATEGIES,
    STRATEGY_EMBED,
    STRATEGY_FULL,
    OracleVerdict,
    oracle_potentially,
)
from potgraph.sequences import parse_sequence
from potgraph.survey import cross_validate, enumerate_graphic_sequences, sigma_empirical


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


STRATEGY_FUNCTIONS = {STRATEGY_EMBED: "_embed_and_extend", STRATEGY_FULL: "_full_enumeration"}


def _realization_without_wheel(terms):
    """The first labeled realization of terms that has no wheel."""
    def no_wheel(rows):
        return not helpers.independent_contains_wheel(rows)

    return kpy.search(terms, None, 10**9, no_wheel, None, None, False)[3]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_witness_without_wheel_is_refused(strategy, monkeypatch):
    """A witness of the right degree sequence but with no wheel is caught."""
    seq = parse_sequence("6,3^6,2^2")
    rows = _realization_without_wheel(seq.terms)
    assert rows is not None and degree_sequence_of(Graph(seq.n, rows)) == seq

    def lying(s, budget):
        return OracleVerdict(True, Graph(seq.n, rows), strategy, 1)

    monkeypatch.setattr(oracle_mod, STRATEGY_FUNCTIONS[strategy], lying)
    with pytest.raises(InternalCheckError):
        oracle_potentially(seq, strategy=strategy)


def _drop_first_bit(rows):
    """Rows with the lowest bit of the first nonempty row cleared, so that
    edge is left in one row only."""
    u = next(u for u, row in enumerate(rows) if row)
    return rows[:u] + (rows[u] & rows[u] - 1,) + rows[u + 1:]


def _add_loop(rows):
    return (rows[0] | 1,) + rows[1:]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("corrupt", [_drop_first_bit, _add_loop], ids=["asymmetric", "loop"])
def test_corrupt_kernel_witness_is_refused(strategy, corrupt, monkeypatch):
    """Rows that are no simple graph fail the Graph check, with the message
    the old validation loop gave, before any other check sees them."""
    seq = parse_sequence("6,3^6,2^2")
    real_search = oracle_mod.kernels.search
    built = []

    def corrupting_search(*args):
        visited, nodes, complete, witness = real_search(*args)
        if witness is not None:
            witness = corrupt(witness)
            forbidden = args[1] or [0] * len(witness)
            built.append(tuple(w | f for w, f in zip(witness, forbidden)))
        return visited, nodes, complete, witness

    monkeypatch.setattr(oracle_mod.kernels, "search", corrupting_search)
    with pytest.raises(DomainError) as info:
        oracle_potentially(seq, strategy=strategy)
    expected = helpers.graph_rows_fault(seq.n, built[-1])
    assert expected is not None and str(info.value) == expected


def test_sigma_empirical_base():
    assert sigma_empirical(6) == 26
    with pytest.raises(DomainError):
        sigma_empirical(5)
    with pytest.raises(DomainError):
        sigma_empirical(10)


# the wheel's rim in cycle order: consecutive entries are adjacent in the
# pattern, so the wheel's 10 automorphisms act on it as rotations and
# reflections
RIM_CYCLE = (1, 3, 5, 2, 4)


def _orbit_key(hub_value, rim_values):
    turns = [rim_values[i:] + rim_values[:i] for i in range(5)]
    return hub_value, min(turns + [t[::-1] for t in turns])


def test_wheel_shape():
    rows = pattern_k6_c5().graph.rows
    hub, rim, edges = oracle_mod._wheel()
    assert (hub, rim) == (0, RIM_CYCLE)
    for i in range(5):
        assert rows[RIM_CYCLE[i]] >> RIM_CYCLE[(i + 1) % 5] & 1
    assert len(edges) == 10


@pytest.mark.parametrize(
    "text, classes",
    [
        ("11^3,3^9", 4),
        ("9^3,3^7", 4),
        ("10,8,3^7,2,1", 4),
        ("7,6,5^2,4^2,3^3,2^2,1", 190),
    ],
)
def test_placement_class_counts(text, classes):
    assert sum(1 for _ in oracle_mod._placements(parse_sequence(text).terms)) == classes


def test_placement_classes_cover_every_copy_once():
    """Every degree-feasible (subset, labeled copy) pair has its value
    assignment's D5 orbit hit by exactly one generated class."""
    for n in range(6, 9):
        for seq in enumerate_graphic_sequences(n):
            terms = seq.terms
            # an injective map of the wheel into the host, read as values:
            # hub first, then the rim in cycle order
            maps = set(itertools.permutations([d for d in terms if d >= 3], 6))
            feasible = {_orbit_key(t[0], t[1:]) for t in maps if t[0] >= 5}
            places = list(oracle_mod._placements(terms))
            assert all(len(set(place)) == 6 for place in places)
            generated = [
                _orbit_key(terms[place[0]], tuple(terms[place[r]] for r in RIM_CYCLE))
                for place in places
            ]
            assert len(generated) == len(set(generated)), seq
            assert set(generated) == feasible, seq


# closed form accepts, oracle refutes (perfbench/data/gaps_n10_n11.txt)
GAPS_N10 = {
    "9,8,3^6,2,1",
    "9,6,3^5,2,1^2",
    "8^2,5,3^5,1^2",
    "8^2,3^4,2^4",
    "8,7,3^5,2,1^2",
}


def test_embed_sweep_n10():
    report = cross_validate(10, use_oracle=False)
    potential = 0
    gaps = set()
    for record in report.records:
        verdict = oracle_potentially(parse_sequence(record.sequence))
        potential += verdict.potentially
        if verdict.potentially != record.theorem_verdict:
            gaps.add(record.sequence)
            assert record.theorem_verdict, record.sequence
    assert (potential, report.total_sequences) == (10499, 11655)
    assert gaps == GAPS_N10
