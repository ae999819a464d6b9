"""Ground truth by exhaustive search over labeled realizations.

Two independent strategies decide whether some realization of a sequence
contains the wheel pattern:

* full-enumeration: walk every labeled realization (row-major backtracking
  with residual-degree feasibility pruning) and test containment on each,
  halting at the first hit.
* embed-and-extend: place the wheel on the sequence's degree values, one
  placement class at a time, subtract the pattern degrees and search for a
  completion of the residual degrees that avoids the pattern's edges. A
  class is a hub value >= 5 and a ring of five rim values >= 3, taken up to
  the wheel's 10 automorphisms (rotations and reflections of the rim), each
  value used no more often than it occurs. Vertices of equal degree are
  interchangeable, so one search per class, on representative vertices,
  covers every (6-vertex subset, labeled copy) pair of that class.

Both are complete, so they must agree; tests compare them exhaustively. All
searches charge work to a per-call node budget and exhausting it raises,
never returns a guess.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .errors import BudgetExceededError, DomainError, InternalCheckError
from .graphs import (
    Graph,
    _embedding_order,
    contains_subgraph,
    degree_sequence_of,
    pattern_k6_c5,
)
from .sequences import DegreeSequence, is_graphic_eg

__all__ = [
    "DEFAULT_BUDGET",
    "MAX_ORACLE_VERTICES",
    "STRATEGY_FULL",
    "STRATEGY_EMBED",
    "STRATEGIES",
    "OracleVerdict",
    "oracle_potentially",
]

DEFAULT_BUDGET = 10**9
MAX_ORACLE_VERTICES = 12
# the compiled kernel stores the budget in a C long long
_MAX_BUDGET = 2**63 - 1

STRATEGY_FULL = "full-enumeration"
STRATEGY_EMBED = "embed-and-extend"
STRATEGIES = (STRATEGY_EMBED, STRATEGY_FULL)


@dataclass(frozen=True, slots=True)
class OracleVerdict:
    potentially: bool
    witness: Optional[Graph]
    strategy: str
    nodes_explored: int


def _check_domain(seq: DegreeSequence, budget: int) -> None:
    if not 1 <= budget <= _MAX_BUDGET:
        raise DomainError(f"budget must be in 1..{_MAX_BUDGET}, got {budget}")
    if seq.n > MAX_ORACLE_VERTICES:
        raise DomainError(
            f"oracle operations support n <= {MAX_ORACLE_VERTICES}, got n={seq.n}"
        )
    if seq.n and seq.terms[-1] == 0:
        raise DomainError("oracle needs positive terms; strip zeros first")
    if not is_graphic_eg(seq):
        raise DomainError(f"({seq}) is not graphic")


@functools.cache
def _wheel() -> tuple[int, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The wheel's hub, its rim in cycle order, and its edges.

    The rim vertices induce a 5-cycle of their own (the pentagram 1-3-5-2-4),
    so the wheel's 10 automorphisms act on that order as the dihedral group D5.
    """
    rows = pattern_k6_c5().graph.rows
    pn = len(rows)
    hub = max(range(pn), key=lambda v: rows[v].bit_count())
    rim = [min(v for v in range(pn) if v != hub)]
    while len(rim) < pn - 1:
        ring = rows[rim[-1]] & ~(1 << hub)
        rim.append(next(v for v in range(pn) if ring >> v & 1 and v not in rim[-2:]))
    edges = tuple(
        (u, v) for u in range(pn) for v in range(u + 1, pn) if rows[u] >> v & 1
    )
    return hub, tuple(rim), edges


def _bracelets(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """One arrangement per D5 orbit of the rim labels in ``shape``.

    ``shape`` lists a rim multiset by the first index of each value, e.g.
    (0, 0, 2, 3, 3) for a,a,b,c,c; an arrangement is kept when it is the
    least of its 10 rotations and reflections. They come in increasing order.
    """
    out = []
    for arr in sorted(set(itertools.permutations(shape))):
        turns = [arr[i:] + arr[:i] for i in range(len(arr))]
        if arr == min(turns + [t[::-1] for t in turns]):
            out.append(arr)
    return tuple(out)


@functools.cache
def _wheel_slots(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Each arrangement of ``_bracelets(shape)`` as the slot of each wheel
    vertex: 0 for the hub, 1 + j for the j-th rim value of the multiset, the
    k-th repeat of label L along the rim taking j = L + k."""
    rim_pos = _wheel()[1]
    out = []
    for arr in _bracelets(shape):
        slots = [0] * (len(rim_pos) + 1)
        for k, (pos, label) in enumerate(zip(rim_pos, arr)):
            slots[pos] = 1 + label + arr[:k].count(label)
        out.append(tuple(slots))
    return tuple(out)


def _placements(degs: tuple[int, ...]):
    """Yield one placement of the wheel per placement class of ``degs``.

    A placement lists the host vertex of each wheel vertex; each value goes
    to its lowest-indexed vertex not yet used (``degs`` is non-increasing).
    Permuting equal-degree vertices maps realizations to realizations, and
    wheel automorphisms map copies to copies, so one placement per class
    decides as much as all of them. Hubs come largest first and, under each,
    rim multisets in decreasing order, so that a positive sequence usually
    wins at its first class.
    """
    rim_size = len(_wheel()[1])
    first: dict[int, int] = {}
    for i, d in enumerate(degs):
        first.setdefault(d, i)
    rim_terms = [d for d in degs if d >= 3]
    for hub in first:
        if hub < 5:
            break
        pool = list(rim_terms)
        pool.remove(hub)
        seen = set()
        for chosen in itertools.combinations(pool, rim_size):
            if chosen in seen:
                continue
            seen.add(chosen)
            # the host vertex of each slot; chosen is non-increasing, so a
            # value's repeats are adjacent and take consecutive vertices
            cells = [first[hub]]
            for j, value in enumerate(chosen):
                cells.append(first[value] + j - chosen.index(value) + (value == hub))
            for slots in _wheel_slots(tuple(map(chosen.index, chosen))):
                yield [cells[t] for t in slots]


def _embed_and_extend(seq: DegreeSequence, budget: int) -> OracleVerdict:
    n = seq.n
    degs = seq.terms
    edges = _wheel()[2]
    nodes = 0
    for place in _placements(degs):
        residual = list(degs)
        forbidden = [0] * n
        for a, b in edges:
            u, v = place[a], place[b]
            residual[u] -= 1
            residual[v] -= 1
            forbidden[u] |= 1 << v
            forbidden[v] |= 1 << u
        remaining = budget - nodes
        if remaining <= 0:
            raise BudgetExceededError(
                f"node budget exhausted deciding ({seq})", seq.render(), nodes
            )
        _, used, complete, witness = kernels.search(
            residual, forbidden, remaining, None, None, None, True
        )
        nodes += used
        if witness is not None:
            # a row with no wheel edge keeps the kernel's int, so witnesses
            # held by callers share it instead of copying it
            rows = tuple([w | f if f else w for w, f in zip(witness, forbidden)])
            return OracleVerdict(True, Graph(n, rows), STRATEGY_EMBED, nodes)
        if not complete:
            raise BudgetExceededError(
                f"node budget exhausted deciding ({seq})", seq.render(), nodes
            )
    return OracleVerdict(False, None, STRATEGY_EMBED, nodes)


def _full_enumeration(seq: DegreeSequence, budget: int) -> OracleVerdict:
    pg = pattern_k6_c5().graph
    _, nodes, complete, witness = kernels.search(
        seq.terms, None, budget, None, pg.rows, _embedding_order(pg.rows), False
    )
    if witness is not None:
        return OracleVerdict(True, Graph(seq.n, witness), STRATEGY_FULL, nodes)
    if not complete:
        raise BudgetExceededError(
            f"node budget exhausted deciding ({seq})", seq.render(), nodes
        )
    return OracleVerdict(False, None, STRATEGY_FULL, nodes)


def oracle_potentially(
    seq: DegreeSequence,
    strategy: str = STRATEGY_EMBED,
    budget: int = DEFAULT_BUDGET,
) -> OracleVerdict:
    """Exact decision: does some realization of seq contain the wheel?

    Every positive verdict carries a witness that passes three checks
    before it is returned:

    1. ``Graph`` accepts the kernel's rows as a simple graph: no vertex out
       of range, no loop, every edge in both rows;
    2. its degree sequence equals seq;
    3. a fresh embedding search, not the placement that was searched,
       finds the wheel in it.

    Raises:
        DomainError: non-graphic, zero terms, n > 12, or a budget outside
            1..2^63-1; also rows from the kernel that are no simple graph
            (check 1).
        BudgetExceededError: the node budget ran out first.
        InternalCheckError: a witness failed check 2 or 3.
    """
    _check_domain(seq, budget)
    if strategy == STRATEGY_EMBED:
        verdict = _embed_and_extend(seq, budget)
    elif strategy == STRATEGY_FULL:
        verdict = _full_enumeration(seq, budget)
    else:
        raise DomainError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
    if verdict.potentially:
        witness = verdict.witness
        if (
            witness is None
            or degree_sequence_of(witness) != seq
            or not contains_subgraph(witness, pattern_k6_c5())
        ):
            raise InternalCheckError(f"witness failed re-verification for ({seq})")
    return verdict
