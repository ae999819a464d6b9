"""Exception catalogs: packaged data files plus their provenance checksum.

This module only loads and validates the lists; every rule that consults
them lives in ``characterization``.

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

__all__ = ["FAMILY_KEYS", "ExceptionCatalog", "load_catalog", "default_catalog"]

# Family tags, one exception list each; the family shapes are written beside
# the predicates of characterization.lemma_family_decide.
FAMILY_KEYS = ("quad5", "triple5", "double5", "single5", "two_high", "five_threes")

_FILES = {
    "set_s": "set_s.txt",
    "cond7_fixed": "cond7_fixed.txt",
    **{key: f"family_{key}.txt" for key in FAMILY_KEYS},
}

Terms = frozenset[tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class ExceptionCatalog:
    """Every exception list the decision theory uses, as sets of term tuples,
    so a membership test reads ``seq.terms in catalog.thm7_fixed``."""

    set_s: Terms
    thm7_fixed: Terms
    lemma_exceptions: Mapping[str, Terms]
    checksum: str


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
    terms = {key: frozenset(seq.terms for seq in seqs) for key, seqs in parts.items()}
    return ExceptionCatalog(
        set_s=terms["set_s"],
        thm7_fixed=terms["cond7_fixed"],
        lemma_exceptions={key: terms[key] for key in FAMILY_KEYS},
        checksum=_checksum(parts),
    )


@functools.cache
def default_catalog() -> ExceptionCatalog:
    """The packaged catalog, loaded once per process."""
    return load_catalog()
