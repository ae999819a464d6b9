"""Acceptance gate.

One test per release criterion. Each prints a single verdict line
(``criterion N: PASS/FAIL - summary``), so running this file with ``-v``
(or ``-s``) yields the complete acceptance ledger. The expensive sweeps are
computed once in a module fixture and shared.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import pytest

import helpers
from potgraph.characterization import (
    extremal_sequence,
    is_graphic_via_lemma26,
    lemma_family_decide,
    theorem31_decide,
)
from potgraph.graphs import contains_subgraph, degree_sequence_of, pattern_k6_c5
from potgraph.oracle import STRATEGY_FULL, OracleVerdict, oracle_potentially
from potgraph.sequences import (
    DegreeSequence,
    is_graphic_eg,
    is_graphic_kw,
    layoff,
    parse_sequence,
)
from potgraph.survey import cross_validate, enumerate_graphic_sequences, sigma_empirical


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {label}")
        raise
    print(f"criterion {number}: PASS - {label}")


@dataclass(frozen=True)
class SweepRow:
    seq: DegreeSequence
    theorem: bool
    lemma: Optional[bool]
    oracle: OracleVerdict


@dataclass(frozen=True)
class Sweep:
    rows: tuple[SweepRow, ...]
    seconds: float


@pytest.fixture(scope="module")
def sweeps() -> dict[int, Sweep]:
    """Embed-strategy verdict table for every positive graphic sequence."""
    out: dict[int, Sweep] = {}
    for n in range(6, 10):
        start = time.perf_counter()
        rows = []
        for seq in enumerate_graphic_sequences(n):
            rows.append(
                SweepRow(
                    seq=seq,
                    theorem=theorem31_decide(seq).verdict,
                    lemma=lemma_family_decide(seq),
                    oracle=oracle_potentially(seq),
                )
            )
        out[n] = Sweep(tuple(rows), time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def full_strategy_verdicts() -> dict[int, dict[tuple[int, ...], OracleVerdict]]:
    """Independent full-enumeration verdicts for the smaller lengths."""
    out: dict[int, dict[tuple[int, ...], OracleVerdict]] = {}
    for n in (6, 7, 8):
        table = {}
        for seq in enumerate_graphic_sequences(n):
            table[seq.terms] = oracle_potentially(seq, strategy=STRATEGY_FULL)
        out[n] = table
    return out


def test_criterion_01_base_case_survey():
    """Oracle survey at n=6 reproduces the base-case split in bounded time."""
    with criterion(1, "n=6 oracle survey matches the base-case split"):
        start = time.perf_counter()
        report = cross_validate(6, use_oracle=True)
        elapsed = time.perf_counter() - start
        assert report.discrepancies == ()
        assert report.total_sequences == 71
        positives = {r.sequence for r in report.records if r.oracle_verdict}
        assert positives == {
            "5^6",
            "5^4,4^2",
            "5^3,4^2,3",
            "5^2,4^4",
            "5^2,4^2,3^2",
            "5,4^4,3",
            "5,4^2,3^3",
            "5,3^5",
        }
        base_case_negative = set()
        for r in report.records:
            seq = parse_sequence(r.sequence)
            if seq[0] == 5 and seq[-1] >= 3 and not r.oracle_verdict:
                base_case_negative.add(r.sequence)
        assert base_case_negative == {"5^3,3^3", "5^2,3^4"}
        assert elapsed < 10.0, f"survey took {elapsed:.2f}s"


def test_criterion_02_theorem_matches_oracle(sweeps, full_strategy_verdicts):
    """Closed form == exhaustive oracle on every sequence through n=8."""
    with criterion(2, "closed form agrees with the oracle for n=6..8"):
        for n in (6, 7, 8):
            sweep = sweeps[n]
            for row in sweep.rows:
                assert row.theorem == row.oracle.potentially, row.seq
                full = full_strategy_verdicts[n][row.seq.terms]
                assert full.potentially == row.oracle.potentially, row.seq
            assert sweep.seconds < 300.0, f"n={n} sweep took {sweep.seconds:.1f}s"


def test_criterion_03_sigma_formula():
    """Empirical extremal bound equals 6n-10 for n=6,7,8."""
    with criterion(3, "sigma_empirical(n) == 6n-10 for n=6..8"):
        for n in (6, 7, 8):
            assert sigma_empirical(n) == 6 * n - 10, n


def test_criterion_04_extremal_family(sweeps):
    """The three-big-terms family sits just below the threshold everywhere."""
    with criterion(4, "extremal family: graphic, sigma=6n-12, never potential"):
        for n in range(6, 13):
            seq = extremal_sequence(n)
            assert is_graphic_eg(seq), n
            assert seq.sigma == 6 * n - 12, n
            assert theorem31_decide(seq).verdict is False, n
            if n <= 9:
                assert oracle_potentially(seq).potentially is False, n


def test_criterion_05_small_term_lemma():
    """Closed small-term test == Erdos-Gallai over its entire domain."""
    with criterion(5, "small-term graphicality lemma exact for n<=12"):
        start = time.perf_counter()
        for n in range(1, 13):
            for terms in itertools.combinations_with_replacement((4, 3, 2, 1), n):
                seq = DegreeSequence(terms)
                if seq.sigma % 2:
                    continue
                assert is_graphic_via_lemma26(seq) == is_graphic_eg(seq), terms
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"lemma sweep took {elapsed:.2f}s"


def test_criterion_06_graphicality_engines_agree():
    """Erdos-Gallai == Kleitman-Wang, and lay-offs preserve graphicality."""
    with criterion(6, "EG == KW exhaustively (n<=7) and on 10^4 random draws"):
        for n in range(1, 8):
            for terms in helpers.all_degree_vectors(n):
                seq = DegreeSequence(terms)
                graphic = is_graphic_eg(seq)
                assert graphic == is_graphic_kw(seq), terms
                if graphic:
                    for k in range(1, n + 1):
                        assert is_graphic_eg(layoff(seq, k)), (terms, k)
        rng = random.Random(65717)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            terms = tuple(
                sorted((rng.randint(0, n - 1) for _ in range(n)), reverse=True)
            )
            seq = DegreeSequence(terms)
            assert is_graphic_eg(seq) == is_graphic_kw(seq), terms


def test_criterion_07_family_triple_agreement(sweeps):
    """Family verdicts, closed form, oracle: all three agree for n=6..9."""
    with criterion(7, "closed families agree with theorem and oracle, n=6..9"):
        members = 0
        for n in range(6, 10):
            for row in sweeps[n].rows:
                if row.lemma is None:
                    continue
                members += 1
                assert row.lemma == row.theorem == row.oracle.potentially, row.seq
        assert members > 100


def test_criterion_08_parametric_families(sweeps):
    """Both one-high-vertex parametric families stay non-potential."""
    with criterion(8, "(n-1,3^6,1^(n-7)) and (n-1,3^7,1^(n-8)) rejected"):
        lookup = {
            row.seq.terms: row for n in range(6, 10) for row in sweeps[n].rows
        }
        for threes, start_n in ((6, 7), (7, 8)):
            for n in range(start_n, 10):
                terms = (n - 1,) + (3,) * threes + (1,) * (n - 1 - threes)
                row = lookup[terms]
                assert row.theorem is False, terms
                assert row.oracle.potentially is False, terms


def test_criterion_09_witnesses_all_reverify(sweeps, full_strategy_verdicts):
    """Every positive verdict ships a checkable witness."""
    with criterion(9, "100% of witnesses re-verify"):
        pattern = pattern_k6_c5()
        checked = 0
        independents = 0
        for n in range(6, 10):
            for row in sweeps[n].rows:
                if not row.oracle.potentially:
                    assert row.oracle.witness is None
                    continue
                witness = row.oracle.witness
                assert witness is not None, row.seq
                assert degree_sequence_of(witness) == row.seq, row.seq
                assert contains_subgraph(witness, pattern), row.seq
                checked += 1
                if n <= 7:
                    assert helpers.independent_contains_wheel(witness.rows), row.seq
                    independents += 1
        for n, table in full_strategy_verdicts.items():
            for terms, verdict in table.items():
                if verdict.potentially:
                    assert verdict.witness is not None
                    assert degree_sequence_of(verdict.witness).terms == terms
                    assert contains_subgraph(verdict.witness, pattern)
        assert checked > 400
        assert independents > 50
