"""Search kernel contract, and parity between the compiled and pure twins."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import potgraph
import potgraph._kernels_py as kpy
from potgraph import kernels
from potgraph.graphs import _embedding_order, pattern_k6_c5

try:
    import potgraph._kernels_c as kc
except ImportError:  # pragma: no cover - source-only installs
    kc = None

IMPLS = [kpy] if kc is None else [kpy, kc]
BIG = 10**9

TRIANGLE_ROWS = (0b110, 0b101, 0b011)
TRIANGLE_ORDER = (0, 1, 2)
WHEEL_ROWS = pattern_k6_c5().graph.rows
WHEEL_ORDER = _embedding_order(WHEEL_ROWS)

# Full search results, (visited, nodes, complete, witness), frozen from the
# reference kernel as it stood before its bitmask rewrite. Each case is
# (label, degrees, forbidden, budget, sink, first_only, expected); the sink
# is "wheel" (the pattern sink with the oracle's order), "third" (a visit
# sink that halts on its third graph) or None.
FROZEN_RESULTS = [
    ("wheel n=7 positive", (5, 4, 4, 4, 3, 3, 3), None, BIG, "wheel", False,
     (22, 278, False, (62, 77, 83, 99, 37, 25, 14))),
    ("wheel n=7 negative", (5, 3, 3, 3, 3, 3, 2), None, BIG, "wheel", False,
     (250, 2830, True, None)),
    ("wheel n=8 positive", (5, 5, 4, 4, 3, 3, 3, 3), None, BIG, "wheel", False,
     (200, 2494, False, (62, 205, 83, 163, 37, 25, 134, 74))),
    ("wheel n=8 negative", (7, 3, 3, 3, 3, 3, 3, 3), None, BIG, "wheel", False,
     (465, 4995, True, None)),
    ("wheel n=9 positive", (5, 4, 4, 4, 3, 3, 3, 3, 3), None, BIG, "wheel", False,
     (656, 9152, False, (62, 77, 147, 291, 37, 25, 386, 324, 200))),
    ("wheel n=9 negative", (7, 7, 3, 3, 3, 3, 2, 2, 2), None, BIG, "wheel", False,
     (283, 3391, True, None)),
    # first_only on the residual and forbidden rows of a wheel placement on
    # (5,4^3,3^5), which completes, and on (7^2,3^4,2^3), which cannot
    ("placement found", (0, 1, 1, 1, 0, 0, 3, 3, 3),
     (62, 37, 11, 21, 41, 19, 0, 0, 0), BIG, None, True,
     (1, 25, False, (0, 64, 128, 256, 0, 0, 386, 324, 200))),
    ("placement exhausted", (2, 4, 0, 0, 0, 0, 2, 2, 2),
     (62, 37, 11, 21, 41, 19, 0, 0, 0), BIG, None, True,
     (0, 7, True, None)),
    # count mode: each zero-degree row still costs a node
    ("zero rows inside", (3, 0, 2, 2, 0, 1, 2, 0), None, BIG, None, False,
     (6, 78, True, None)),
    ("zero rows at both ends", (0, 2, 2, 2, 2, 2, 0), None, BIG, None, False,
     (12, 146, True, None)),
    ("visit halts on third", (3, 3, 2, 2, 2, 2), None, BIG, "third", False,
     (3, 43, False, (14, 25, 33, 3, 34, 20))),
    # (5,3^5) takes 140 nodes; node 6 is a step inside row 0 and node 73 a
    # step inside row 3
    ("complete count", (5, 3, 3, 3, 3, 3), None, BIG, None, False, (12, 140, True, None)),
    ("budget 1", (5, 3, 3, 3, 3, 3), None, 1, None, False, (0, 2, False, None)),
    ("budget inside row 0", (5, 3, 3, 3, 3, 3), None, 5, None, False, (0, 6, False, None)),
    ("budget inside row 3", (5, 3, 3, 3, 3, 3), None, 72, None, False, (5, 73, False, None)),
    ("budget one short", (5, 3, 3, 3, 3, 3), None, 139, None, False, (12, 140, False, None)),
]


def ids(impl):
    return impl.IMPLEMENTATION


@pytest.fixture(params=IMPLS, ids=ids)
def impl(request):
    return request.param


def _halt_on_third():
    seen = []

    def visit(rows):
        seen.append(rows)
        return len(seen) == 3

    return visit


@pytest.mark.parametrize(
    "degrees, forbidden, budget, sink, first_only, expected",
    [case[1:] for case in FROZEN_RESULTS],
    ids=[case[0] for case in FROZEN_RESULTS],
)
def test_frozen_results(impl, degrees, forbidden, budget, sink, first_only, expected):
    pattern = order = visit = None
    if sink == "wheel":
        pattern, order = WHEEL_ROWS, WHEEL_ORDER
    elif sink == "third":
        visit = _halt_on_third()
    got = impl.search(degrees, forbidden, budget, visit, pattern, order, first_only)
    assert got == expected


def _first_valid_assignment(host, pattern, order):
    """First host image tuple, in the lexicographic order of images taken
    along ``order``, that maps every pattern edge onto a host edge."""
    pn = len(pattern)
    for images in itertools.permutations(range(len(host)), pn):
        assign = [0] * pn
        for p, h in zip(order, images):
            assign[p] = h
        if all(
            host[assign[p]] >> assign[q] & 1
            for p in range(pn)
            for q in range(pn)
            if pattern[p] >> q & 1
        ):
            return tuple(assign)
    return None


def _random_rows(rng, n, density):
    rows = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def test_find_embedding_returns_first_valid_assignment(impl):
    rng = random.Random(20081)
    disconnected = [
        (0b10, 0b01, 0b1000, 0b0100),  # two disjoint edges
        (0b0110, 0b0101, 0b0011, 0),  # a triangle and an isolated vertex
    ]
    cases = [(_random_rows(rng, 6, 0.7), pattern, (3, 1, 0, 2)) for pattern in disconnected]
    for _ in range(150):
        hn, pn = rng.randint(0, 7), rng.randint(0, 5)
        pattern = _random_rows(rng, pn, rng.choice([0.0, 0.3, 0.6, 1.0]))
        order = list(range(pn))
        rng.shuffle(order)
        cases.append((_random_rows(rng, hn, rng.random()), pattern, tuple(order)))
    assert any(len(p) > len(h) for h, p, _ in cases)
    assert any(p and not any(p) for _, p, _ in cases)
    for host, pattern, order in cases:
        expected = _first_valid_assignment(host, pattern, order)
        assert impl.find_embedding(host, pattern, order) == expected, (host, pattern, order)


def test_find_embedding_first_wheel(impl):
    rng = random.Random(6)
    hosts = [WHEEL_ROWS, tuple(0b1111111 & ~(1 << v) for v in range(7))]
    hosts += [_random_rows(rng, rng.choice([6, 7]), 0.75) for _ in range(12)]
    found = 0
    for host in hosts:
        expected = _first_valid_assignment(host, WHEEL_ROWS, WHEEL_ORDER)
        found += expected is not None
        assert impl.find_embedding(host, WHEEL_ROWS, WHEEL_ORDER) == expected, host
    assert 2 < found < len(hosts)


def test_find_embedding_across_patterns_and_orders(impl):
    """Per-pattern embedding set-up must be told apart by pattern and by
    order: two patterns in alternation on one host, one pattern under two
    orders, and a 16-vertex pattern all match the permutation reference."""
    rng = random.Random(20082)
    path = (0b0010, 0b0101, 0b1010, 0b0100)
    star = (0b1110, 0b0001, 0b0001, 0b0001)
    hosts = [_random_rows(rng, 7, rng.choice((0.15, 0.3, 0.5))) for _ in range(30)]
    calls = []
    for host in hosts:
        calls += [(host, path, (0, 1, 2, 3)), (host, star, (0, 1, 2, 3))]
        calls += [(host, path, (1, 2, 0, 3)), (host, path, (3, 0, 2, 1))]
    for host, pattern, order in calls:
        expected = _first_valid_assignment(host, pattern, order)
        assert impl.find_embedding(host, pattern, order) == expected, (host, pattern, order)
    found = [_first_valid_assignment(h, p, o) is not None for h, p, o in calls]
    assert any(found) and not all(found)

    # 16 vertices: a path with chords; the host relabels 12 and 15, so the
    # first permutations fail and one of the first 24 fits
    big = [0] * 16
    for u, v in [(v, v + 1) for v in range(15)] + [(0, 5), (3, 12), (7, 15), (2, 9)]:
        big[u] |= 1 << v
        big[v] |= 1 << u
    swap = {12: 15, 15: 12}
    host = [0] * 16
    for u in range(16):
        for v in range(16):
            if big[u] >> v & 1:
                host[swap.get(u, u)] |= 1 << swap.get(v, v)
    big, host = tuple(big), tuple(host)
    for order in (tuple(range(16)), tuple(range(12)) + (15, 14, 13, 12)):
        expected = _first_valid_assignment(host, big, order)
        assert expected is not None
        assert impl.find_embedding(host, big, order) == expected, order


def test_compiled_kernel_is_available_and_selected():
    if kc is None:
        pytest.skip("compiled kernel not built")
    assert kc.IMPLEMENTATION == "c"
    assert kernels.implementation == "c"
    assert kernels.MAX_SEARCH_VERTICES == kpy.MAX_SEARCH_VERTICES == 16


def test_contract_validation(impl):
    with pytest.raises(ValueError):
        impl.search((1,) * 17, None, BIG, None, None, None, False)
    with pytest.raises(ValueError):
        impl.search((1, 1), None, 0, None, None, None, False)
    with pytest.raises(ValueError):
        impl.search((1, -1), None, BIG, None, None, None, False)


def test_root_infeasible_is_free(impl):
    assert impl.search((1, 1, 1), None, BIG, None, None, None, False) == (0, 0, True, None)
    assert impl.search((5, 0), None, BIG, None, None, None, False) == (0, 0, True, None)


def test_counts_match_brute_force(impl):
    for n in range(0, 6):
        for terms in helpers.all_degree_vectors(n):
            expected = helpers.brute_force_realizations(terms)
            visited, nodes, complete, witness = impl.search(
                terms, None, BIG, None, None, None, False
            )
            assert visited == expected, terms
            assert complete is True
            assert witness is None
    # frozen counts, reaching past the brute-force range
    frozen = {
        (1, 1, 1, 1): 3,
        (2, 1, 1): 1,
        (5, 3, 3, 3, 3, 3): 12,
        (6, 3, 3, 3, 3, 3, 3, 2): 1965,
        (6, 6, 3, 3, 3, 3, 2, 2): 169,
    }
    for terms, expected in frozen.items():
        assert impl.search(terms, None, BIG, None, None, None, False)[0] == expected, terms


def test_visit_sink_collects_valid_graphs(impl):
    terms = (2, 2, 1, 1)
    seen = []
    visited, _, complete, witness = impl.search(
        terms, None, BIG, seen.append, None, None, False
    )
    assert complete is True and witness is None
    assert visited == len(seen) == helpers.brute_force_realizations(terms)
    assert len(set(seen)) == len(seen)
    for rows in seen:
        assert tuple(row.bit_count() for row in rows) == terms
        for u in range(len(rows)):
            for v in range(len(rows)):
                assert (rows[u] >> v & 1) == (rows[v] >> u & 1)
            assert not rows[u] >> u & 1


def test_visit_sink_halts_on_truthy(impl):
    terms = (2, 2, 1, 1)
    seen = []

    def stop_after_two(rows):
        seen.append(rows)
        return len(seen) == 2

    visited, _, complete, witness = impl.search(
        terms, None, BIG, stop_after_two, None, None, False
    )
    assert visited == 2
    assert complete is False
    assert witness == seen[1]


def test_first_only(impl):
    terms = (2, 2, 1, 1)
    all_graphs = []
    impl.search(terms, None, BIG, all_graphs.append, None, None, False)
    visited, _, complete, witness = impl.search(
        terms, None, BIG, None, None, None, True
    )
    assert visited == 1
    assert complete is False
    assert witness == all_graphs[0]
    # zero realizations exhaust instead of halting
    assert impl.search((3, 3, 1, 1), None, BIG, None, None, None, True) == (
        0,
        0,
        True,
        None,
    )


def test_forbidden_pairs(impl):
    assert impl.search((1, 1), (0b10, 0b01), BIG, None, None, None, False)[0] == 0
    assert impl.search((2, 2, 2), (0b010, 0b001, 0), BIG, None, None, None, False)[0] == 0
    terms = (2, 2, 2, 1, 1)
    baseline = []
    impl.search(terms, None, BIG, baseline.append, None, None, False)
    expected = sum(1 for rows in baseline if not rows[0] >> 1 & 1)
    forb = [0] * 5
    forb[0], forb[1] = 0b00010, 0b00001
    visited = impl.search(terms, tuple(forb), BIG, None, None, None, False)[0]
    assert visited == expected
    assert expected == helpers.brute_force_realizations(terms, forbidden_pair=(0, 1))


def test_budget_semantics(impl):
    terms = (3, 3, 2, 2, 2)
    full = impl.search(terms, None, BIG, None, None, None, False)
    total_nodes = full[1]
    assert full[2] is True
    for budget in range(1, total_nodes + 2):
        visited, nodes, complete, witness = impl.search(
            terms, None, budget, None, None, None, False
        )
        if budget >= total_nodes:
            assert (visited, nodes, complete, witness) == full
        else:
            assert complete is False
            assert witness is None
            assert nodes == budget + 1  # the step that crossed the line
            assert visited <= full[0]


def test_pattern_sink_finds_wheel(impl):
    pat = pattern_k6_c5().graph
    order = tuple(range(6))
    visited, nodes, complete, witness = impl.search(
        (5, 3, 3, 3, 3, 3), None, BIG, None, pat.rows, order, False
    )
    assert complete is False
    assert witness is not None
    assert helpers.independent_contains_wheel(witness)
    assert tuple(row.bit_count() for row in witness) == (5, 3, 3, 3, 3, 3)


def test_pattern_sink_exhausts_when_absent(impl):
    pat = pattern_k6_c5().graph
    order = tuple(range(6))
    terms = (3,) * 6
    visited, nodes, complete, witness = impl.search(
        terms, None, BIG, None, pat.rows, order, False
    )
    assert complete is True
    assert witness is None
    assert visited == helpers.brute_force_realizations(terms)


def test_find_embedding_contract(impl):
    k6 = tuple(0b111111 & ~(1 << v) for v in range(6))
    pat = pattern_k6_c5().graph.rows
    order = tuple(range(6))
    assert impl.find_embedding(k6, pat, order) == (0, 1, 2, 3, 4, 5)
    assert impl.find_embedding(pat, pat, order) == (0, 1, 2, 3, 4, 5)
    path = (0b010, 0b101, 0b010)
    assert impl.find_embedding(path, TRIANGLE_ROWS, TRIANGLE_ORDER) is None
    assert impl.find_embedding((0,), TRIANGLE_ROWS, TRIANGLE_ORDER) is None


@pytest.mark.skipif(kc is None, reason="compiled kernel not built")
def test_twin_parity_exhaustive():
    """Both kernels must agree bit for bit, node count included."""
    for n in range(0, 7):
        for terms in helpers.all_degree_vectors(n):
            plain_py = kpy.search(terms, None, BIG, None, None, None, False)
            plain_c = kc.search(terms, None, BIG, None, None, None, False)
            assert plain_py == plain_c, terms

            first_py = kpy.search(terms, None, BIG, None, None, None, True)
            first_c = kc.search(terms, None, BIG, None, None, None, True)
            assert first_py == first_c, terms

            if n >= 3:
                pat_py = kpy.search(
                    terms, None, BIG, None, TRIANGLE_ROWS, TRIANGLE_ORDER, False
                )
                pat_c = kc.search(
                    terms, None, BIG, None, TRIANGLE_ROWS, TRIANGLE_ORDER, False
                )
                assert pat_py == pat_c, terms

            total = plain_py[1]
            if total > 1:
                budget = total // 2 + 1
                assert kpy.search(terms, None, budget, None, None, None, False) == kc.search(
                    terms, None, budget, None, None, None, False
                ), terms


@pytest.mark.skipif(kc is None, reason="compiled kernel not built")
def test_twin_parity_on_wheel_sequences():
    pat = pattern_k6_c5().graph.rows
    order = tuple(range(6))
    for text_terms in [(5, 3, 3, 3, 3, 3), (5, 5, 5, 3, 3, 3), (6, 3, 3, 3, 3, 3, 3, 2)]:
        got_py = kpy.search(text_terms, None, BIG, None, pat, order, False)
        got_c = kc.search(text_terms, None, BIG, None, pat, order, False)
        assert got_py == got_c


def test_kernel_env_variable_is_ignored():
    """The kernel is chosen by what imports, never by the environment, so a
    stray POTGRAPH_KERNEL value cannot break any command."""
    src = str(Path(potgraph.__file__).resolve().parent.parent)
    env = dict(os.environ, POTGRAPH_KERNEL="bogus")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["--help"], ["check", "5,3^5"]):
        out = subprocess.run(
            [sys.executable, "-m", "potgraph.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, (argv, out.stderr)
        assert "Traceback" not in out.stderr, argv
    assert json.loads(out.stdout)["verdict"] is True
