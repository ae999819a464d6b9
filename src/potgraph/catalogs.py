"""Exception catalogs: packaged data files plus their provenance checksum.

Catalog file format: one degree sequence per line in exponent notation,
``#`` comments allowed. The default catalog ships inside the package; a
directory passed to ``load_catalog`` must contain the same file names. Every
report embeds ``checksum`` so results can be traced to the exact catalog
content that produced them.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional, Union

from .errors import DomainError
from .sequences import DegreeSequence, is_graphic_eg, parse_sequence

__all__ = [
    "FAMILY_KEYS",
    "ExceptionCatalog",
    "load_catalog",
    "default_catalog",
    "two_high_parametric_match",
]

# Family tags for the closed-form sequence families with known verdicts:
#   quad5        (5^4, 4^(n-4)), n >= 6
#   triple5      (5^3, 4^i, 3^j, 2^(n-3-i-j)), i+j >= 3
#   double5      (5^2, 4^i, 3^j, 2^(n-2-i-j)), i+j >= 4
#   single5      (5, 4^i, 3^j, 2^k, 1^(n-1-i-j-k)), i+j >= 5
#   two_high     (d1, d2, 3^(n-2)), d1 >= 5, d2 >= 3
#   five_threes  (d1, 3^5, 2^(n-6)), d1 >= 5
FAMILY_KEYS = ("quad5", "triple5", "double5", "single5", "two_high", "five_threes")

_FILES = {
    "set_s": "set_s.txt",
    "cond7_fixed": "cond7_fixed.txt",
    **{key: f"family_{key}.txt" for key in FAMILY_KEYS},
}

# Descriptors (threes, min_n) for the parametric condition-(7) families
# (n-1, 3^threes, 1^(n-1-threes)) with n >= min_n.
COND7_PARAMETRIC: tuple[tuple[int, int], ...] = ((6, 7), (7, 8))


@dataclass(frozen=True, eq=False)
class ExceptionCatalog:
    """Immutable bundle of every exception list the decision theory uses."""

    set_s: tuple[DegreeSequence, ...]
    thm7_fixed: tuple[DegreeSequence, ...]
    thm7_parametric: tuple[tuple[int, int], ...]
    lemma_exceptions: Mapping[str, tuple[DegreeSequence, ...]]
    checksum: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_set_s_keys", frozenset(s.terms for s in self.set_s)
        )
        object.__setattr__(
            self, "_cond7_keys", frozenset(s.terms for s in self.thm7_fixed)
        )
        object.__setattr__(
            self,
            "_family_keys",
            {
                key: frozenset(s.terms for s in entries)
                for key, entries in self.lemma_exceptions.items()
            },
        )

    def in_set_s(self, seq: DegreeSequence) -> bool:
        return seq.terms in self._set_s_keys

    def in_cond7_fixed(self, seq: DegreeSequence) -> bool:
        return seq.terms in self._cond7_keys

    def cond7_parametric_match(self, seq: DegreeSequence) -> bool:
        n = seq.n
        for threes, min_n in self.thm7_parametric:
            if n >= min_n and seq.terms == (n - 1,) + (3,) * threes + (1,) * (
                n - 1 - threes
            ):
                return True
        return False

    def in_family_exceptions(self, key: str, seq: DegreeSequence) -> bool:
        return seq.terms in self._family_keys[key]


def two_high_parametric_match(seq: DegreeSequence) -> bool:
    """Parametric exceptions of the (d1,d2,3^(n-2)) family.

    ((n-1)^2,3^(n-2)) and ((n-2)^2,3^(n-2)) for even n >= 7 (at odd n those
    sums are odd, so the cases are vacuous), and (n-1,n-2,3^(n-2)) for odd
    n >= 7.
    """
    t = seq.terms
    n = seq.n
    tail = (3,) * (n - 2)
    if n >= 7 and n % 2 == 0:
        if t == (n - 1, n - 1) + tail or t == (n - 2, n - 2) + tail:
            return True
    if n >= 7 and n % 2 == 1:
        if t == (n - 1, n - 2) + tail:
            return True
    return False


def _read_entries(text: str, filename: str) -> tuple[DegreeSequence, ...]:
    out = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            seq = parse_sequence(line)
        except Exception as exc:
            raise DomainError(f"{filename}:{lineno}: unparsable entry: {exc}") from exc
        if seq.terms in seen:
            raise DomainError(f"{filename}:{lineno}: duplicate entry ({seq})")
        seen.add(seq.terms)
        out.append(seq)
    return tuple(out)


def _checksum(parts: Mapping[str, tuple[DegreeSequence, ...]]) -> str:
    h = hashlib.sha256()
    for key in sorted(parts):
        h.update(key.encode())
        h.update(b"\n")
        for seq in parts[key]:
            h.update(seq.render().encode())
            h.update(b"\n")
    return "sha256:" + h.hexdigest()


def load_catalog(directory: Optional[Union[str, Path]] = None) -> ExceptionCatalog:
    """Load an ExceptionCatalog from a directory (default: packaged data).

    Raises:
        DomainError: missing file, unparsable or duplicate entry (named with
            file and line number), or an entry violating a structural
            invariant (set_s members must be non-graphic with terms in
            {1,2,3,4} and even sum; fixed condition-(7) members must be
            graphic).
    """
    texts: dict[str, str] = {}
    if directory is None:
        base = resources.files(__package__) / "data"
        for key, fname in _FILES.items():
            texts[key] = (base / fname).read_text(encoding="utf-8")
    else:
        basedir = Path(directory)
        for key, fname in _FILES.items():
            path = basedir / fname
            if not path.is_file():
                raise DomainError(f"catalog file missing: {path}")
            texts[key] = path.read_text(encoding="utf-8")
    parts = {key: _read_entries(text, _FILES[key]) for key, text in texts.items()}
    for seq in parts["set_s"]:
        if any(t not in (1, 2, 3, 4) for t in seq.terms):
            raise DomainError(
                f"{_FILES['set_s']}: entry ({seq}) has a term outside {{1,2,3,4}}"
            )
        if seq.sigma % 2:
            raise DomainError(f"{_FILES['set_s']}: entry ({seq}) has odd sum")
        if is_graphic_eg(seq):
            raise DomainError(
                f"{_FILES['set_s']}: entry ({seq}) is graphic, so it cannot be an exception"
            )
    for seq in parts["cond7_fixed"]:
        if not is_graphic_eg(seq):
            raise DomainError(
                f"{_FILES['cond7_fixed']}: entry ({seq}) is not graphic"
            )
    return ExceptionCatalog(
        set_s=parts["set_s"],
        thm7_fixed=parts["cond7_fixed"],
        thm7_parametric=COND7_PARAMETRIC,
        lemma_exceptions={key: parts[key] for key in FAMILY_KEYS},
        checksum=_checksum(parts),
    )


@functools.cache
def default_catalog() -> ExceptionCatalog:
    """The packaged catalog, loaded once per process."""
    return load_catalog()
