"""Small labeled simple graphs stored as bitmask adjacency rows.

``Graph`` is immutable and capped at 64 vertices: row ``rows[v]`` has bit
``u`` set iff ``uv`` is an edge. The module also defines the 6-vertex wheel
pattern (K6 minus a 5-cycle) and subgraph-containment search.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import kernels
from .errors import DomainError
from .sequences import DegreeSequence, is_graphic_eg

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "PatternGraph",
    "pattern_k6_c5",
    "degree_sequence_of",
    "havel_hakimi_realize",
    "find_embedding",
    "contains_subgraph",
]

MAX_VERTICES = 64


def _is_simple(n: int, rows: tuple[int, ...]) -> bool:
    """Are rows the adjacency of a simple graph: no bit at or past n, no loop,
    every edge in both rows?

    Each bit above the diagonal needs its mirror below it, so there are at
    least as many bits below as above; a total of exactly twice the bits
    above then leaves none unmatched below and none on the diagonal.
    """
    upper = total = 0
    try:
        for u, row in enumerate(rows):
            if row >> n:  # a bit at or past n, or a negative row
                return False
            total += row.bit_count()
            above = row & -(2 << u)
            upper += above.bit_count()
            bit_u = 1 << u
            while above:
                low = above & -above
                above ^= low
                if not rows[low.bit_length() - 1] & bit_u:
                    return False
    except TypeError:  # a row that is no int; the full check names it
        return False
    return total == 2 * upper


def _reject_rows(n: int, rows: tuple[int, ...]) -> None:
    """Raise for the first fault of rows that ``_is_simple`` refuses."""
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            raise DomainError(f"row {v} references vertices outside 0..{n - 1}")
        if row >> v & 1:
            raise DomainError(f"loop at vertex {v}")
    for u in range(n):
        for_v = rows[u]
        while for_v:
            v = (for_v & -for_v).bit_length() - 1
            for_v &= for_v - 1
            if not rows[v] >> u & 1:
                raise DomainError(f"asymmetric adjacency between {u} and {v}")


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise DomainError(f"graph order {self.n} out of range 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise DomainError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        if not _is_simple(self.n, self.rows):
            _reject_rows(self.n, self.rows)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise DomainError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(v, (v + 1) % n) for v in range(n)])

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Degrees in vertex order (not sorted)."""
        return tuple([row.bit_count() for row in self.rows])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        out = []
        for u in range(self.n):
            rest = self.rows[u] >> (u + 1) << (u + 1)
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                out.append((u, v))
        return out

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def to_text(self) -> str:
        """Serialize: a "n=<order>" header then one "u v" line per edge."""
        lines = [f"n={self.n}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("n="):
            raise DomainError('graph text must start with an "n=<order>" header')
        try:
            n = int(lines[0][2:])
        except ValueError:
            raise DomainError(f"bad graph header {lines[0]!r}") from None
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise DomainError(f"bad edge line {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise DomainError(f"bad edge line {ln!r}") from None
        return cls.from_edges(n, edges)


@dataclass(frozen=True)
class PatternGraph:
    """A named pattern to look for as a subgraph."""

    name: str
    graph: Graph


@functools.cache
def pattern_k6_c5() -> PatternGraph:
    """The 6-vertex wheel: K6 minus the edges of the 5-cycle 1-2-3-4-5-1.

    Vertex 0 is the degree-5 hub; vertices 1..5 induce the complementary
    5-cycle (a pentagram), so the degree sequence is (5,3,3,3,3,3).
    """
    removed = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(6), 2)
        if (u, v) not in removed
    ]
    return PatternGraph("K6-C5", Graph.from_edges(6, edges))


def degree_sequence_of(g: Graph) -> DegreeSequence:
    return DegreeSequence(g.degrees())


def havel_hakimi_realize(seq: DegreeSequence) -> Graph:
    """Build one realization by repeatedly laying off the smallest term.

    The vertex with the smallest remaining degree is connected to the vertices
    of largest remaining degree (ties broken by earlier position, matching the
    stable re-sort of ``layoff``), which realizes exactly the partner choice
    of the lay-off step with k = n.

    Raises:
        DomainError: seq is not graphic.
    """
    if not is_graphic_eg(seq):
        raise DomainError(f"({seq}) is not graphic")
    n = seq.n
    rows = [0] * n
    # (remaining degree, original label); kept sorted by degree descending,
    # stable, so equal degrees stay in label order.
    remaining = [(d, label) for label, d in enumerate(seq.terms)]
    while remaining:
        d, label = remaining.pop()
        if d == 0:
            continue
        if d > len(remaining):
            raise DomainError(f"({seq}) is not graphic")
        for i in range(d):
            pd, pl = remaining[i]
            if pd == 0:
                raise DomainError(f"({seq}) is not graphic")
            rows[label] |= 1 << pl
            rows[pl] |= 1 << label
            remaining[i] = (pd - 1, pl)
        remaining.sort(key=lambda item: -item[0])
    return Graph(n, tuple(rows))


@functools.lru_cache(maxsize=None)
def _embedding_order(pattern_rows: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex order for embedding search: most-constrained first.

    Start at a maximum-degree vertex; then repeatedly take the unplaced vertex
    with the most already-placed neighbors (ties: larger degree, then smaller
    index). Keeps the partial embedding connected whenever the pattern is.
    """
    pn = len(pattern_rows)
    degs = [row.bit_count() for row in pattern_rows]
    order: list[int] = []
    placed = 0
    while len(order) < pn:
        best = -1
        best_key = None
        for v in range(pn):
            if placed >> v & 1:
                continue
            key = ((pattern_rows[v] & placed).bit_count(), degs[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return tuple(order)


def _pattern_graph(pattern: Union[Graph, PatternGraph]) -> Graph:
    return pattern.graph if isinstance(pattern, PatternGraph) else pattern


def find_embedding(
    host: Graph, pattern: Union[Graph, PatternGraph]
) -> Optional[tuple[int, ...]]:
    """First injective embedding of pattern into host, or None.

    The embedding maps pattern vertex p to host vertex ``result[p]`` and
    preserves adjacency (the copy need not be induced). Deterministic: the
    same host and pattern always give the same embedding.

    Raises:
        DomainError: the pattern has more than MAX_SEARCH_VERTICES vertices
            (the compiled kernel's fixed arrays hold no more).
    """
    pg = _pattern_graph(pattern)
    if pg.n > kernels.MAX_SEARCH_VERTICES:
        raise DomainError(
            f"patterns are limited to {kernels.MAX_SEARCH_VERTICES} vertices, got {pg.n}"
        )
    return kernels.find_embedding(
        host.rows, pg.rows, _embedding_order(pg.rows)
    )


def contains_subgraph(host: Graph, pattern: Union[Graph, PatternGraph]) -> bool:
    """Does host contain pattern as a (not necessarily induced) subgraph?"""
    return find_embedding(host, pattern) is not None
