"""Pure-Python search kernels.

This module is the reference implementation of the kernel contract; the
compiled twin ``_kernels_c`` must reproduce it exactly, including the node
counter, so results and reports never depend on which kernel was selected.

Vertex sets are int bitmasks (bit v is vertex v). A row's candidates are the
mask ``live`` of vertices with residual degree left, minus ``forbidden[u]``,
above the last neighbor chosen, walked lowest bit first; the residual test is
the one pass of ``sequences.is_graphic_eg``. An embedding step's candidates are
the host vertices of large enough degree, minus those used, ANDed with the
host rows of the pattern neighbors already placed. What the steps need from
the pattern is worked out once per (pattern, order) and kept; a host then
costs one degree mask per distinct degree the pattern needs, and the pattern
sink builds those once per search, from ``degrees``.

Kernel contract
---------------

``search(degrees, forbidden, budget, visit, pattern_rows, pattern_order,
first_only)`` enumerates every simple labeled graph on vertices ``0..n-1``
whose degree vector equals ``degrees`` and that uses no pair marked in
``forbidden``. Rows are assigned in vertex order; within a row, neighbor sets
are tried in increasing lexicographic order, so the visit order (and hence any
witness) is deterministic. After each completed row the residual degree vector
is tested with the Erdős–Gallai criterion and infeasible branches are cut;
with forbidden pairs present the test is merely necessary, so it only prunes.

``nodes`` counts search effort: +1 on entering each row and +1 per neighbor-set
extension step (including the step that closes a row). The count is exact and
identical across kernels. When ``nodes`` would exceed ``budget`` the search
stops; the caller sees ``complete=False`` with no witness and must treat the
run as unanswered.

Exactly one halting sink may be supplied:

* ``pattern_rows``/``pattern_order``: stop at the first enumerated graph that
  contains the pattern as a subgraph (embedding tried in ``pattern_order``).
* ``visit``: a callable fed each graph's adjacency rows; truthy return stops.
* ``first_only=True``: stop at the first enumerated graph.

Returns ``(visited, nodes, complete, witness)`` where ``visited`` is the
number of graphs enumerated, ``complete`` is True iff the space was exhausted
(neither halted nor out of budget) and ``witness`` is the adjacency-row tuple
of the halting graph, if any.

``find_embedding(host_rows, pattern_rows, order)`` returns the first injective
subgraph embedding (a tuple mapping pattern vertex -> host vertex) or None,
scanning host candidates in increasing index for each pattern vertex taken in
``order``. Embedding work is not charged to any node budget.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

__all__ = ["IMPLEMENTATION", "MAX_SEARCH_VERTICES", "search", "find_embedding"]

IMPLEMENTATION = "py"

# The enumeration kernel keeps per-vertex state in fixed-size arrays in the
# compiled twin, so both twins enforce the same cap.
MAX_SEARCH_VERTICES = 16


def _eg_feasible(res: list[int], start: int, n: int) -> bool:
    """The one-pass Erdős–Gallai test of ``sequences.is_graphic_eg`` on res[start:n]."""
    d = sorted(res[start:n], reverse=True)
    m = len(d)
    if m == 0:
        return True
    if sum(d) % 2 or d[0] >= m:
        return False
    prefix = tail = 0
    p = m
    for k in range(1, m + 1):
        dk = d[k - 1]
        if dk < k:
            break
        prefix += dk
        while d[p - 1] < k:
            p -= 1
            tail += d[p]
        if prefix > k * (k - 1) + (p - k) * k + tail:
            return False
    return True


@functools.lru_cache(maxsize=256)
def _pattern_plan(
    pattern_rows: tuple[int, ...], order: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...], tuple[int, ...]]:
    """What the embedding steps of ``order`` need from any host: the distinct
    degrees needed, each step's degree and adjacent earlier steps, and each
    pattern vertex's step."""
    plan = tuple(
        (pattern_rows[p].bit_count(), tuple(j for j in range(i) if pattern_rows[p] >> order[j] & 1))
        for i, p in enumerate(order)
    )
    step_of = [0] * len(order)
    for i, p in enumerate(order):
        step_of[p] = i
    return tuple({need for need, _ in plan}), plan, tuple(step_of)


def _embedding_steps(
    host_degrees: Sequence[int], pattern_rows: Sequence[int], order: Sequence[int]
) -> tuple[list[tuple[int, tuple[int, ...]]], tuple[int, ...]]:
    """Per step of ``order``: the host vertices of high enough degree, and the
    adjacent earlier steps; then each pattern vertex's step."""
    needs, plan, step_of = _pattern_plan(tuple(pattern_rows), tuple(order))
    masks = {}
    for need in needs:
        mask = 0
        for h, d in enumerate(host_degrees):
            if d >= need:
                mask |= 1 << h
        masks[need] = mask
    return [(masks[need], back) for need, back in plan], step_of


def _embed(
    host_rows: Sequence[int], steps: Sequence[tuple[int, tuple[int, ...]]]
) -> Optional[list[int]]:
    """First embedding as the host vertex of each step, or None (lowest bits first)."""
    pn = len(steps)
    if pn > len(host_rows):
        return None
    image, untried = [0] * pn, [0] * pn  # untried: each step's candidates not yet scanned
    used = i = 0
    cand = steps[0][0] if pn else 0
    while i < pn:
        if cand:
            low = cand & -cand
            untried[i] = cand ^ low
            used |= low
            image[i] = low.bit_length() - 1
            i += 1
            if i < pn:
                mask, back = steps[i]
                cand = mask & ~used
                for j in back:
                    cand &= host_rows[image[j]]
        else:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << image[i]
            cand = untried[i]
    return image


def find_embedding(
    host_rows: Sequence[int], pattern_rows: Sequence[int], order: Sequence[int]
) -> Optional[tuple[int, ...]]:
    steps, step_of = _embedding_steps([row.bit_count() for row in host_rows], pattern_rows, order)
    image = _embed(host_rows, steps)
    return None if image is None else tuple([image[i] for i in step_of])


class _OutOfBudget(Exception):
    pass


def search(
    degrees: Sequence[int],
    forbidden: Optional[Sequence[int]],
    budget: int,
    visit: Optional[Callable[[tuple[int, ...]], object]],
    pattern_rows: Optional[Sequence[int]],
    pattern_order: Optional[Sequence[int]],
    first_only: bool,
) -> tuple[int, int, bool, Optional[tuple[int, ...]]]:
    n = len(degrees)
    if n > MAX_SEARCH_VERTICES:
        raise ValueError(f"search kernel supports at most {MAX_SEARCH_VERTICES} vertices")
    if budget < 1:
        raise ValueError("budget must be positive")
    if n and min(degrees) < 0:
        raise ValueError("degrees must be nonnegative")
    res = list(degrees)
    adj = [0] * n
    # the vertices above u that u may use
    if forbidden is None:
        allowed = [(1 << n) - (2 << u) for u in range(n)]
    else:
        allowed = [((1 << n) - (2 << u)) & ~forbidden[u] for u in range(n)]
    live = 0
    for v in range(n):
        if res[v]:
            live |= 1 << v
    steps = None
    if pattern_rows is not None:
        steps = _embedding_steps(degrees, pattern_rows, pattern_order)[0]
    visited = nodes = 0
    witness = None

    def on_complete() -> bool:
        nonlocal visited, witness
        visited += 1
        if steps is not None:
            hit = _embed(adj, steps) is not None
        elif visit is not None:
            hit = bool(visit(tuple(adj)))
        else:
            hit = first_only
        if hit:
            witness = tuple(adj)
        return hit

    def rec(u: int) -> bool:
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > budget:
                raise _OutOfBudget
            if u == n:
                return on_complete()
            if res[u]:
                return choose(u, live & allowed[u], res[u])
            u += 1

    def choose(u: int, cand: int, need: int) -> bool:
        nonlocal nodes, live
        nodes += 1
        if nodes > budget:
            raise _OutOfBudget
        if need == 0:
            return _eg_feasible(res, u + 1, n) and rec(u + 1)
        avail = cand.bit_count()
        if avail < need:
            return False
        bit_u = 1 << u
        while True:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            adj[u] |= low
            adj[v] |= bit_u
            res[v] -= 1
            if not res[v]:
                live ^= low
            halted = choose(u, cand, need - 1)
            if not res[v]:
                live ^= low
            res[v] += 1
            adj[u] ^= low
            adj[v] ^= bit_u
            if halted:
                return True
            avail -= 1
            if avail < need:
                return False

    if not _eg_feasible(res, 0, n):
        return (0, 0, True, None)
    try:
        halted = rec(0)
    except _OutOfBudget:
        return (visited, nodes, False, None)
    return (visited, nodes, not halted, witness)
