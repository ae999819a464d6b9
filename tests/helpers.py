"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately written from scratch against the
definitions (labeled graphs with a prescribed degree vector, containment of
the 6-vertex wheel) without importing anything from potgraph, so tests that
compare against these helpers are genuine two-implementation checks.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

# The target pattern, defined independently: complete graph on {0..5} minus
# the 5-cycle 1-2-3-4-5-1. Vertex 0 is the hub.
WHEEL_EDGES: tuple[tuple[int, int], ...] = tuple(
    (u, v)
    for u in range(6)
    for v in range(u + 1, 6)
    if {u, v} not in ({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5})
)


def all_degree_vectors(
    n: int, top: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Every non-increasing vector of length n with entries in 0..top
    (default n-1, the largest degree a simple graph on n vertices allows)."""

    def rec(prefix: list[int], remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for value in range(cap, -1, -1):
            prefix.append(value)
            yield from rec(prefix, remaining - 1, value)
            prefix.pop()

    if n == 0:
        yield ()
        return
    yield from rec([], n, n - 1 if top is None else top)


def brute_force_realizations(
    terms: tuple[int, ...],
    limit: Optional[int] = None,
    forbidden_pair: Optional[tuple[int, int]] = None,
) -> int:
    """Count labeled graphs on 0..n-1 whose degree vector equals terms.

    Positional convention: terms[i] is the required degree of vertex i, so
    (2, 1, 1) has exactly one realization while (1, 1, 1, 1) has three.
    Stops early once limit realizations are found. An optional single
    forbidden pair is excluded from every graph.
    """
    n = len(terms)
    res = list(terms)
    count = 0
    banned = frozenset(forbidden_pair) if forbidden_pair is not None else frozenset()

    class _Done(Exception):
        pass

    def place(u: int) -> None:
        nonlocal count
        if u == n:
            assert all(r == 0 for r in res)
            count += 1
            if limit is not None and count >= limit:
                raise _Done
            return
        need = res[u]
        if need == 0:
            place(u + 1)
            return
        candidates = [
            v
            for v in range(u + 1, n)
            if not (u in banned and v in banned)
        ]
        res[u] = 0
        for combo in itertools.combinations(candidates, need):
            if any(res[v] <= 0 for v in combo):
                continue
            for v in combo:
                res[v] -= 1
            place(u + 1)
            for v in combo:
                res[v] += 1
        res[u] = need

    try:
        place(0)
    except _Done:
        pass
    return count


def brute_force_is_graphic(terms: tuple[int, ...]) -> bool:
    """Graphicality by exhaustive construction. Keep n small."""
    return brute_force_realizations(terms, limit=1) > 0


def independent_contains_wheel(rows: tuple[int, ...]) -> bool:
    """Permutation search for the wheel inside adjacency rows.

    Tries every hub image of degree at least 5 and every arrangement of the
    five rim vertices, checking all ten pattern edges directly.
    """
    n = len(rows)
    if n < 6:
        return False
    degs = [row.bit_count() for row in rows]
    verts = range(n)
    for hub in verts:
        if degs[hub] < 5:
            continue
        others = [v for v in verts if v != hub]
        for rim in itertools.permutations(others, 5):
            image = (hub,) + rim
            if all(rows[image[u]] >> image[v] & 1 for u, v in WHEEL_EDGES):
                return True
    return False


def graph_rows_fault(n: int, rows: tuple[int, ...]) -> Optional[str]:
    """The message ``Graph(n, rows)`` must raise, or None if it must accept.

    The constructor's validation loop kept as it stood before it became a
    single pass, with each ``raise DomainError(...)`` turned into a return.
    """
    if not 0 <= n <= 64:
        return f"graph order {n} out of range 0..64"
    if len(rows) != n:
        return f"expected {n} adjacency rows, got {len(rows)}"
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            return f"row {v} references vertices outside 0..{n - 1}"
        if row >> v & 1:
            return f"loop at vertex {v}"
    for u in range(n):
        for_v = rows[u]
        while for_v:
            v = (for_v & -for_v).bit_length() - 1
            for_v &= for_v - 1
            if not rows[v] >> u & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None
