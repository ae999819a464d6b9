"""Immutable bitset graphs, realization, embedding."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

import helpers
from potgraph.errors import DomainError
from potgraph.graphs import (
    Graph,
    contains_subgraph,
    degree_sequence_of,
    find_embedding,
    havel_hakimi_realize,
    pattern_k6_c5,
)
from potgraph.sequences import DegreeSequence, is_graphic_eg


def test_constructor_validates():
    with pytest.raises(DomainError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(DomainError):
        Graph(1, (0b1,))  # loop
    with pytest.raises(DomainError):
        Graph(2, (0b00,))  # wrong row count
    with pytest.raises(DomainError):
        Graph(2, (0b100, 0b000))  # bit beyond order
    with pytest.raises(DomainError):
        Graph(-1, ())
    with pytest.raises(DomainError):
        Graph(65, (0,) * 65)


def _rows_with_faults(rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """A random simple graph's rows with zero to two faults injected."""
    n = rng.randint(0, 10)
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.4:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    for _ in range(rng.choice((0, 1, 1, 2))):
        fault = rng.choice(("loop", "unmatched", "out of range", "negative", "short", "long"))
        if fault == "short":
            rows = rows[:-1]
        elif fault == "long":
            rows.append(rng.choice((0, 1)))
        elif not rows:
            continue
        elif fault == "loop":
            v = rng.randrange(len(rows))
            rows[v] |= 1 << v
        elif fault == "unmatched" and len(rows) >= 2:
            u, v = rng.sample(range(len(rows)), 2)
            rows[u] ^= 1 << v  # drops an edge's one half, or adds a lone half
        elif fault == "out of range":
            rows[rng.randrange(len(rows))] |= 1 << rng.randint(n, 70)
        elif fault == "negative":
            v = rng.randrange(len(rows))
            rows[v] = rng.choice((-1, -rows[v] - 1, -(1 << rng.randrange(len(rows)))))
    return n, tuple(rows)


def test_validation_matches_reference_loop():
    """The one-pass validation accepts exactly what the old loop accepted,
    and raises its message for the first fault it names."""
    rng = random.Random(20080)
    kinds = collections.Counter()
    for _ in range(4000):
        n, rows = _rows_with_faults(rng)
        expected = helpers.graph_rows_fault(n, rows)
        if expected is None:
            assert Graph(n, rows).rows == rows
            kinds["valid"] += 1
            continue
        with pytest.raises(DomainError) as info:
            Graph(n, rows)
        assert str(info.value) == expected, (n, rows)
        kinds[expected.split()[0]] += 1
    # valid, wrong row count, out of range (negative rows too), loop, asymmetric
    assert set(kinds) == {"valid", "expected", "row", "loop", "asymmetric"}
    assert min(kinds.values()) >= 100, kinds


def test_basic_constructors():
    k4 = Graph.complete(4)
    assert k4.edge_count == 6
    assert k4.degrees() == (3, 3, 3, 3)
    c5 = Graph.cycle(5)
    assert c5.degrees() == (2, 2, 2, 2, 2)
    assert c5.edge_count == 5
    with pytest.raises(DomainError):
        Graph.cycle(2)
    assert Graph.empty(3).edge_count == 0

    g = Graph.from_edges(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edge_count == 2  # duplicate orientation collapses
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(1, 1)])


def test_edges_listing():
    g = Graph.from_edges(4, [(2, 3), (0, 1)])
    assert g.edges() == [(0, 1), (2, 3)]
    assert g.degree(0) == 1


def test_text_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3)])
    text = g.to_text()
    assert text.startswith("n=5")
    assert text.endswith("\n")
    assert Graph.from_text(text) == g
    commented = "# witness\nn=3\n0 1\n# done\n"
    assert Graph.from_text(commented).edges() == [(0, 1)]
    with pytest.raises(DomainError):
        Graph.from_text("0 1\n")  # missing header
    with pytest.raises(DomainError):
        Graph.from_text("n=3\n0\n")
    with pytest.raises(DomainError):
        Graph.from_text("n=3\n0 5\n")


def test_wheel_pattern_shape():
    pat = pattern_k6_c5()
    g = pat.graph
    assert pat.name == "K6-C5"
    assert g.n == 6
    assert g.edge_count == 10
    assert g.degrees() == (5, 3, 3, 3, 3, 3)
    # hub sees every rim vertex
    for v in range(1, 6):
        assert g.has_edge(0, v)
    # exactly the five cycle chords are absent
    missing = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    present = [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
    assert all(not g.has_edge(u, v) for u, v in missing)
    assert all(g.has_edge(u, v) for u, v in present)
    assert sorted(g.edges()) == sorted(
        tuple(sorted(e)) for e in helpers.WHEEL_EDGES
    )


def test_havel_hakimi_realizes_every_graphic_sequence():
    for n in range(1, 7):
        for terms in helpers.all_degree_vectors(n):
            seq = DegreeSequence(terms)
            if not is_graphic_eg(seq):
                with pytest.raises(DomainError):
                    havel_hakimi_realize(seq)
                continue
            g = havel_hakimi_realize(seq)
            assert degree_sequence_of(g) == seq, terms


def test_embedding_positive_and_negative():
    pat = pattern_k6_c5()
    assert contains_subgraph(Graph.complete(6), pat)
    assert not contains_subgraph(Graph.cycle(6), pat)
    assert not contains_subgraph(Graph.complete(5), pat)
    # K5 plus an isolated vertex has six vertices but no degree-5 hub
    k5_pad = Graph.from_edges(6, Graph.complete(5).edges())
    assert not contains_subgraph(k5_pad, pat)
    assert contains_subgraph(pat.graph, pat)


def test_embedding_maps_edges():
    pat = pattern_k6_c5()
    # a triangle on 0..2 beside the wheel shifted onto 3..8
    host = Graph.from_edges(
        9,
        Graph.cycle(3).edges() + [(u + 3, v + 3) for u, v in pat.graph.edges()],
    )
    mapping = find_embedding(host, pat)
    assert mapping is not None
    assert len(set(mapping)) == 6
    for u, v in pat.graph.edges():
        assert host.has_edge(mapping[u], mapping[v])
    # deterministic: repeated searches return the identical embedding
    assert find_embedding(host, pat) == mapping


def test_embedding_accepts_plain_graphs():
    triangle = Graph.complete(3)
    host = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    mapping = find_embedding(host, triangle)
    assert mapping is not None
    assert not contains_subgraph(Graph.from_edges(3, [(0, 1), (1, 2)]), triangle)


def test_embedding_rejects_patterns_past_the_kernel_cap():
    """Both kernels agree only up to 16 pattern vertices; past that the
    search is refused before either kernel runs."""
    assert contains_subgraph(Graph.complete(16), Graph.complete(16))
    for host in (Graph.complete(17), Graph.complete(10)):
        with pytest.raises(DomainError):
            find_embedding(host, Graph.complete(17))
        with pytest.raises(DomainError):
            contains_subgraph(host, Graph.complete(17))
