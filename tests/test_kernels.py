"""Search kernel contract, and parity between the compiled and pure twins."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import potgraph
import potgraph._kernels_py as kpy
from potgraph import kernels
from potgraph.graphs import pattern_k6_c5

try:
    import potgraph._kernels_c as kc
except ImportError:  # pragma: no cover - source-only installs
    kc = None

IMPLS = [kpy] if kc is None else [kpy, kc]
BIG = 10**9

TRIANGLE_ROWS = (0b110, 0b101, 0b011)
TRIANGLE_ORDER = (0, 1, 2)


def ids(impl):
    return impl.IMPLEMENTATION


@pytest.fixture(params=IMPLS, ids=ids)
def impl(request):
    return request.param


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
