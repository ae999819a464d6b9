"""Degree sequences: parsing, graphicality tests, and the lay-off reduction.

A degree sequence here is always stored non-increasing. Zeros are legal terms
(they denote isolated vertices); operations that require positive terms say so
and `DegreeSequence.strip_zeros` is the documented normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

from .errors import DomainError, SequenceParseError

__all__ = [
    "MAX_TERMS",
    "DegreeSequence",
    "parse_sequence",
    "is_graphic_eg",
    "layoff",
    "is_graphic_kw",
]

# Adjacency rows are 64-bit masks, so graphs (and hence realizable sequences)
# are capped at 64 vertices.
MAX_TERMS = 64

_TERM_RE = re.compile(r"\s*(-?\d+)\s*(?:\^\s*(-?\d+)\s*)?")

_INT_ONLY = frozenset({int})


def _span(start: int, end: int) -> str:
    """How parse errors name the characters of the offending term."""
    return f"characters {start}..{end}"


def _reject_terms(terms) -> NoReturn:
    """Raise for the first term, in input order, that is not a nonnegative int."""
    for t in terms:
        if type(t) is not int:
            raise DomainError(f"degree terms must be integers, got {t!r}")
        if t < 0:
            raise DomainError(f"negative degree {t}")


@dataclass(frozen=True, order=True, slots=True)
class DegreeSequence:
    """Non-increasing sequence of nonnegative integers with cached sum."""

    terms: tuple[int, ...]
    sigma: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        raw = self.terms
        # bool is a subclass of int, but True^2 would not parse back
        if not _INT_ONLY.issuperset(map(type, raw)):
            _reject_terms(raw)
        terms = tuple(sorted(raw, reverse=True))
        if terms and terms[-1] < 0:
            _reject_terms(raw)
        if len(terms) > MAX_TERMS:
            raise DomainError(
                f"sequence has {len(terms)} terms, the supported maximum is {MAX_TERMS}"
            )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "sigma", sum(terms))

    @property
    def n(self) -> int:
        return len(self.terms)

    def strip_zeros(self) -> "DegreeSequence":
        """Drop zero terms; realizations differ only by isolated vertices."""
        return DegreeSequence(tuple(t for t in self.terms if t > 0))

    def render(self) -> str:
        """Canonical exponent notation, e.g. (5,3,3,3,3,3) -> "5,3^5"."""
        terms = self.terms
        parts = []
        i = 0
        # the terms are sorted, so each value's count is the length of its run
        while i < len(terms):
            value = terms[i]
            count = terms.count(value)
            parts.append(f"{value}^{count}" if count > 1 else f"{value}")
            i += count
        return ",".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __getitem__(self, idx):
        return self.terms[idx]


def parse_sequence(text: str) -> DegreeSequence:
    """Parse comma-separated exponent notation into a DegreeSequence.

    Grammar: ``seq := term ("," term)*``, ``term := INT ("^" INT)?`` where the
    optional exponent is a repeat count >= 1. Whitespace around tokens is
    ignored. "5^3,3^3", "5,3,3,3,3,3" and "3^3, 5^3" all denote the same
    sequence; terms are re-sorted, so input order never matters.

    Raises:
        SequenceParseError: malformed token or a number too long to convert
            (the message names the offending character span of ``text``).
        DomainError: empty input, negative degree, exponent < 1, or more than
            MAX_TERMS expanded terms.
    """
    if not text.strip():
        raise DomainError("empty degree-sequence text")
    terms: list[int] = []
    pos = 0
    for chunk in text.split(","):
        start, end = pos, pos + len(chunk)
        pos = end + 1
        match = _TERM_RE.fullmatch(chunk)
        if match is None:
            raise SequenceParseError(
                f"malformed term {chunk.strip()!r} at {_span(start, end)}", text, start, end
            )
        base_text, exponent_text = match.groups()
        try:
            base = int(base_text)
            exponent = 1 if exponent_text is None else int(exponent_text)
        except ValueError:  # past the interpreter's int-conversion digit limit
            raise SequenceParseError(
                f"number too long at {_span(start, end)}", text, start, end
            ) from None
        if base < 0:
            raise DomainError(f"negative degree {base} at {_span(start, end)}")
        if exponent == 1 and len(terms) < MAX_TERMS:
            terms.append(base)
            continue
        if exponent < 1:
            raise DomainError(
                f"exponent {exponent} at {_span(start, end)}; exponents must be >= 1"
            )
        if len(terms) + exponent > MAX_TERMS:
            raise DomainError(
                f"sequence expands past {MAX_TERMS} terms at {_span(start, end)}"
            )
        terms.extend([base] * exponent)
    return DegreeSequence(tuple(terms))


def is_graphic_eg(seq: DegreeSequence | tuple[int, ...]) -> bool:
    """Erdős–Gallai test: is some simple graph's degree sequence equal to seq?

    seq is graphic iff its sum is even and for every k in 1..n
    ``sum(d[:k]) <= k(k-1) + sum(min(d_i, k) for i > k)``.
    The empty sequence is graphic (empty graph). seq may also be a bare
    tuple of terms, which must already be what a DegreeSequence stores:
    nonnegative ints in non-increasing order. Enumeration tests its raw
    candidates this way and builds a DegreeSequence only for graphic ones.

    One O(n) pass. A term d_1 >= n is rejected at once. While d_k >= k, a
    pointer p = #{i : d_i >= k} (so p >= k) splits the right-hand sum into
    ``(p - k) * k + sum(d_i for i > p)``, and the tail sum grows as p falls.
    The pass stops at the first k with d_k < k: from there on every term is
    at most k - 1, each step adds 2(k - 1 - d_k) >= 0 to the slack, and no
    later inequality can fail.
    """
    if isinstance(seq, tuple):
        d, sigma = seq, sum(seq)
    else:
        d, sigma = seq.terms, seq.sigma
    n = len(d)
    if n == 0:
        return True
    if sigma % 2 or d[0] >= n:
        return False
    prefix = 0
    p = n
    tail = 0
    for k in range(1, n + 1):
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


def layoff(seq: DegreeSequence, k: int) -> DegreeSequence:
    """Residual sequence after laying off the k-th term (1-based).

    Removes d_k and decrements the d_k largest remaining terms, skipping
    position k itself when d_k >= k: positions 1..k-1 and k+1..d_k+1 lose one
    each; when d_k < k positions 1..d_k lose one each. The result is re-sorted
    non-increasing (the sort is stable, so equal terms keep their order).

    Raises:
        DomainError: k out of range, or the reduction needs more positive
            partners than exist / would drive a term negative (either way the
            input was not graphic).
    """
    n = seq.n
    if not 1 <= k <= n:
        raise DomainError(f"lay-off index {k} out of range 1..{n}")
    d = list(seq.terms)
    dk = d[k - 1]
    if dk >= k:
        if dk > n - 1:
            raise DomainError(
                f"term {dk} needs {dk} partners but only {n - 1} terms remain; not graphic"
            )
        partners = list(range(k - 1)) + list(range(k, dk + 1))
    else:
        partners = list(range(dk))
    for i in partners:
        d[i] -= 1
        if d[i] < 0:
            raise DomainError(
                f"laying off term {k} drives a term negative; not graphic"
            )
    del d[k - 1]
    d.sort(reverse=True)
    return DegreeSequence(tuple(d))


def is_graphic_kw(seq: DegreeSequence) -> bool:
    """Graphicality via the lay-off recursion (always lays off the last term).

    Cross-check for is_graphic_eg: a sequence is graphic iff the residual
    after laying off its smallest term is graphic, and the empty sequence is
    graphic. Runs in O(n^2) sorts overall.
    """
    cur = seq
    while cur.n:
        try:
            cur = layoff(cur, cur.n)
        except DomainError:
            return False
    return True
