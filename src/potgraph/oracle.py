"""Ground truth by exhaustive search over labeled realizations.

Two independent strategies decide whether some realization of a sequence
contains the wheel pattern:

* full-enumeration: walk every labeled realization (row-major backtracking
  with residual-degree feasibility pruning) and test containment on each,
  halting at the first hit.
* embed-and-extend: for each 6-vertex subset and each distinct labeled copy
  of the pattern on it, subtract the pattern degrees and search for a
  completion of the residual degrees that avoids the pattern's edges.

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


@dataclass(frozen=True)
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


@functools.lru_cache(maxsize=None)
def _pattern_copies(
    rows: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All distinct labeled copies of a pattern on its own vertex set.

    Returns (adjacency rows, degree vector) per copy, sorted for determinism.
    For the wheel this yields 720/|Aut| = 72 copies.
    """
    pn = len(rows)
    edges = [
        (u, v) for u in range(pn) for v in range(u + 1, pn) if rows[u] >> v & 1
    ]
    seen = set()
    out = []
    for perm in itertools.permutations(range(pn)):
        key = frozenset(frozenset((perm[u], perm[v])) for u, v in edges)
        if key in seen:
            continue
        seen.add(key)
        crow = [0] * pn
        for u, v in edges:
            crow[perm[u]] |= 1 << perm[v]
            crow[perm[v]] |= 1 << perm[u]
        out.append((tuple(crow), tuple(r.bit_count() for r in crow)))
    out.sort()
    return tuple(out)


def _combine(n: int, completion: tuple[int, ...], subset: tuple[int, ...],
             copy_rows: tuple[int, ...]) -> Graph:
    rows = list(completion)
    for a in range(len(subset)):
        ra = copy_rows[a]
        while ra:
            b = (ra & -ra).bit_length() - 1
            ra &= ra - 1
            if b > a:
                u, v = subset[a], subset[b]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _embed_and_extend(seq: DegreeSequence, budget: int) -> OracleVerdict:
    n = seq.n
    degs = seq.terms
    pg = pattern_k6_c5().graph
    pn = pg.n
    nodes = 0
    if pn <= n:
        copies = _pattern_copies(pg.rows)
        max_pat_deg = max(r.bit_count() for r in pg.rows)
        # subsets in decreasing degree-sum order: a witness tends to sit on
        # the largest degrees, but every subset is tried, so the order is
        # purely a heuristic and never costs completeness
        subsets = sorted(
            itertools.combinations(range(n), pn),
            key=lambda T: (-sum(degs[t] for t in T), T),
        )
        for subset in subsets:
            if degs[subset[0]] < max_pat_deg:
                continue
            for copy_rows, copy_degs in copies:
                if any(degs[subset[s]] < copy_degs[s] for s in range(pn)):
                    continue
                residual = list(degs)
                for s in range(pn):
                    residual[subset[s]] -= copy_degs[s]
                forbidden = [0] * n
                for s in range(pn):
                    mask = copy_rows[s]
                    while mask:
                        b = (mask & -mask).bit_length() - 1
                        mask &= mask - 1
                        forbidden[subset[s]] |= 1 << subset[b]
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
                    return OracleVerdict(
                        True, _combine(n, witness, subset, copy_rows),
                        STRATEGY_EMBED, nodes,
                    )
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

    Every positive verdict carries a witness that is re-verified here
    (degree sequence and containment) before being returned.

    Raises:
        DomainError: non-graphic, zero terms, n > 12, or a budget outside
            1..2^63-1.
        BudgetExceededError: the node budget ran out first.
        InternalCheckError: a witness failed re-verification.
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
        if witness is None or degree_sequence_of(witness) != seq or not contains_subgraph(witness, pattern_k6_c5()):
            raise InternalCheckError(f"witness failed re-verification for ({seq})")
    return verdict
