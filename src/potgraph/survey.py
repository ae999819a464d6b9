"""Batch verification: enumerate graphic sequences, cross-validate the
closed-form decision against the oracle and the family catalogs, and emit
deterministic JSON/CSV reports.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import os
import time
import warnings
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Optional

from .catalogs import ExceptionCatalog, default_catalog
from .characterization import lemma_family_decide, theorem31_decide
from .errors import DomainError, InternalCheckError
from .oracle import DEFAULT_BUDGET, STRATEGY_EMBED, oracle_potentially
from .sequences import DegreeSequence, is_graphic_eg

__all__ = [
    "SurveyRecord",
    "SurveyReport",
    "enumerate_graphic_sequences",
    "cross_validate",
    "sigma_empirical",
    "render_report",
    "parse_survey_csv",
]

MAX_SURVEY_VERTICES = 12


@dataclass(frozen=True)
class SurveyRecord:
    """One surveyed sequence with every verdict that was computed for it."""

    sequence: str
    n: int
    sigma: int
    theorem_verdict: Optional[bool]
    failing_clause: Optional[str]
    oracle_verdict: Optional[bool]
    lemma_verdict: Optional[bool]
    agree: bool


@dataclass(frozen=True)
class SurveyReport:
    """Aggregate outcome of one cross-validation run.

    ``records`` holds every surveyed sequence in enumeration order;
    ``discrepancies`` is its non-agreeing subset. ``runtime`` is wall-clock
    seconds and is the single field exempt from byte-determinism.
    """

    n: int
    total_sequences: int
    potential_count: int
    discrepancies: tuple[SurveyRecord, ...]
    sigma_empirical: Optional[int]
    sigma_formula: int
    catalog_checksum: str
    runtime: float
    records: tuple[SurveyRecord, ...]


def enumerate_graphic_sequences(
    n: int, positive_only: bool = True
) -> list[DegreeSequence]:
    """All graphic sequences of length n, lexicographically decreasing.

    Candidates are the non-increasing sequences with terms in [1, n-1]
    (or [0, n-1] when zeros are admitted) and an even sum, filtered by
    is_graphic_eg on the bare terms; only graphic ones become sequences.

    Raises:
        DomainError: n outside 1..12.
    """
    if not 1 <= n <= MAX_SURVEY_VERTICES:
        raise DomainError(
            f"sequence enumeration supports 1 <= n <= {MAX_SURVEY_VERTICES}, got n={n}"
        )
    low = 1 if positive_only else 0
    out: list[DegreeSequence] = []
    # combinations of a decreasing range come out non-increasing and in
    # lexicographically decreasing order
    for terms in itertools.combinations_with_replacement(range(n - 1, low - 1, -1), n):
        if sum(terms) % 2 == 0 and is_graphic_eg(terms):
            out.append(DegreeSequence(terms))
    return out


def _oracle_worker(args: tuple[tuple[int, ...], int, str]) -> tuple[bool, int]:
    terms, budget, strategy = args
    verdict = oracle_potentially(DegreeSequence(terms), strategy, budget)
    return verdict.potentially, verdict.nodes_explored


def cross_validate(
    n: int,
    use_oracle: bool,
    *,
    budget: int = DEFAULT_BUDGET,
    catalog: Optional[ExceptionCatalog] = None,
    strategy: str = STRATEGY_EMBED,
    jobs: int = 1,
    allow_zeros: bool = False,
) -> SurveyReport:
    """Survey every graphic sequence of length n and compare all verdicts.

    For each sequence: the closed-form verdict, the family verdict where
    applicable, and the oracle verdict when enabled. ``agree`` per record
    means every pair of present verdicts coincides; the report collects
    non-agreeing records. With the oracle enabled the empirical sigma is
    computed from the same pass.

    Raises:
        DomainError: n outside 6..12, or outside 6..9 with the oracle.
        BudgetExceededError: an oracle call ran out (names the sequence).
    """
    start = time.perf_counter()
    cat = catalog or default_catalog()
    if use_oracle and not 6 <= n <= 9:
        raise DomainError(f"oracle surveys support 6 <= n <= 9, got n={n}")
    if not 6 <= n <= MAX_SURVEY_VERTICES:
        raise DomainError(
            f"surveys support 6 <= n <= {MAX_SURVEY_VERTICES}, got n={n}"
        )
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")

    seqs = enumerate_graphic_sequences(n, positive_only=not allow_zeros)
    eval_seqs = [s.strip_zeros() for s in seqs] if allow_zeros else seqs
    if allow_zeros and any(e.n != s.n for e, s in zip(eval_seqs, seqs)):
        warnings.warn("zero terms stripped before evaluation", stacklevel=2)

    oracle_verdicts: list[Optional[bool]] = [None] * len(seqs)
    if use_oracle:
        payload = [(e.terms, budget, strategy) for e in eval_seqs]
        if jobs > 1:
            # imported here so that serial runs never load multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # the default fork start method launches every worker at once
            workers = min(jobs, len(payload), os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_oracle_worker, payload, chunksize=8))
        else:
            results = [_oracle_worker(item) for item in payload]
        oracle_verdicts = [potentially for potentially, _ in results]

    records: list[SurveyRecord] = []
    for seq, eval_seq, oracle_verdict in zip(seqs, eval_seqs, oracle_verdicts):
        theorem_verdict: Optional[bool] = None
        failing: Optional[str] = None
        lemma_verdict: Optional[bool] = None
        if eval_seq.n >= 6:
            report = theorem31_decide(eval_seq, cat)
            theorem_verdict = report.verdict
            failing = report.failing_clause
            lemma_verdict = lemma_family_decide(eval_seq, cat)
        # the family verdict exists only beside a closed-form one
        agree = theorem_verdict is None or (
            oracle_verdict in (None, theorem_verdict)
            and lemma_verdict in (None, theorem_verdict)
        )
        records.append(
            SurveyRecord(
                sequence=seq.render(),
                n=n,
                sigma=seq.sigma,
                theorem_verdict=theorem_verdict,
                failing_clause=failing,
                oracle_verdict=oracle_verdict,
                lemma_verdict=lemma_verdict,
                agree=agree,
            )
        )

    discrepancies = tuple(r for r in records if not r.agree)
    potential_count = sum(
        1
        for r in records
        if (r.oracle_verdict if r.oracle_verdict is not None else r.theorem_verdict)
    )
    sigma_emp: Optional[int] = None
    if use_oracle:
        non_potential = [r.sigma for r in records if r.oracle_verdict is False]
        if non_potential:
            sigma_emp = max(non_potential) + 2
    return SurveyReport(
        n=n,
        total_sequences=len(records),
        potential_count=potential_count,
        discrepancies=discrepancies,
        sigma_empirical=sigma_emp,
        sigma_formula=6 * n - 10,
        catalog_checksum=cat.checksum,
        runtime=round(time.perf_counter() - start, 3),
        records=tuple(records),
    )


def sigma_empirical(
    n: int, budget: int = DEFAULT_BUDGET, strategy: str = STRATEGY_EMBED
) -> int:
    """Smallest even L such that every positive graphic sequence of length n
    with sum >= L is potentially wheel-graphic, found by exhausting all of
    them with the oracle: (max sum over non-potential sequences) + 2.

    Raises:
        DomainError: n outside 6..9.
        BudgetExceededError: some sequence exhausted the per-sequence budget
            (the message names it).
        InternalCheckError: no sequence of length n is non-potential.
    """
    sigma = cross_validate(n, True, budget=budget, strategy=strategy).sigma_empirical
    if sigma is None:
        raise InternalCheckError(
            f"no non-potential sequence of length {n}; at least (2^{n}) must be one"
        )
    return sigma


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# inverse of _csv_cell, keyed by the SurveyRecord field annotations
_CELL_PARSERS = {
    "str": str,
    "int": int,
    "bool": lambda cell: cell == "true",
    "Optional[str]": lambda cell: cell or None,
    "Optional[bool]": lambda cell: None if cell == "" else cell == "true",
}


_BOOL_JSON = {True: "true", False: "false"}
_OPTIONAL_BOOL_JSON = {None: "null", **_BOOL_JSON}

# one scalar in JSON text, as json.dumps writes it, keyed by the field
# annotations of SurveyReport and SurveyRecord
_JSON_SCALARS = {
    "str": encode_basestring_ascii,
    "int": int.__repr__,
    "float": json.dumps,
    "bool": _BOOL_JSON.__getitem__,
    "Optional[int]": lambda value: "null" if value is None else int.__repr__(value),
    "Optional[str]": lambda value: "null" if value is None else encode_basestring_ascii(value),
    "Optional[bool]": _OPTIONAL_BOOL_JSON.__getitem__,
}


def _json_records(records: tuple[SurveyRecord, ...]) -> str:
    """A record list as ``json.dumps`` with ``indent=2`` writes it inside the report."""
    if not records:
        return "[]"
    columns = fields(SurveyRecord)
    template = (
        "    {\n"
        + ",\n".join(f"      {encode_basestring_ascii(c.name)}: %s" for c in columns)
        + "\n    }"
    )
    # column by column, so that the loops run in C
    texts = [
        map(_JSON_SCALARS[column.type], map(operator.attrgetter(column.name), records))
        for column in columns
    ]
    body = ",\n".join(map(template.__mod__, zip(*texts)))
    return f"[\n{body}\n  ]"


def _render_json(report: SurveyReport) -> str:
    """The bytes of ``json.dumps(asdict(report), indent=2)`` plus a newline,
    written field by field: the generic encoder runs in pure Python when
    indenting, and took seconds on the 162,769 records at n = 12."""
    parts = []
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, tuple):
            text = _json_records(value)
        else:
            text = _JSON_SCALARS[field.type](value)
        parts.append(f"  {encode_basestring_ascii(field.name)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def render_report(report: SurveyReport, format: str = "json") -> str:
    """Serialize a report; field order is fixed, so output is reproducible
    byte for byte apart from the runtime value."""
    if format == "json":
        return _render_json(report)
    if format == "csv":
        buf = io.StringIO()
        # the scalar report fields, in declaration order, head the file
        for field in fields(report):
            value = getattr(report, field.name)
            if not isinstance(value, tuple):
                buf.write(f"# {field.name}={_csv_cell(value)}\n")
        buf.write(f"# discrepancy_count={len(report.discrepancies)}\n")
        columns = [field.name for field in fields(SurveyRecord)]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for record in report.records:
            writer.writerow([_csv_cell(getattr(record, col)) for col in columns])
        return buf.getvalue()
    raise DomainError(f"unknown report format {format!r}; use json or csv")


def parse_survey_csv(text: str) -> tuple[dict, list[SurveyRecord]]:
    """Inverse of the CSV renderer, for round-trip checks and triage tools."""
    meta: dict = {}
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    records = [
        SurveyRecord(
            **{f.name: _CELL_PARSERS[f.type](row[f.name]) for f in fields(SurveyRecord)}
        )
        for row in csv.DictReader(body)
    ]
    return meta, records
