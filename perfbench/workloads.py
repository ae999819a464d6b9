"""The three workloads, their inputs and their correctness gates.

Each workload is run as a sequence of passes. A pass is one whole survey, or
one sweep over the seeded query list. Every pass is checked in full; the
benchmark measures whole passes only, so a faster program runs more passes
of the same inputs rather than different inputs.

Why these workloads: each open performance item moves a different layer, so
each layer gets a workload where it dominates.

* survey-full-n7: about 93 % kernel time and no placement loop, so it shows
  kernel changes, and placement changes must not move it.
* survey-theorem-n10: enumeration, Erdős–Gallai and the closed form only, so
  it shows enumeration and closed-form changes; oracle changes cannot move it.
* queries-n10-11: about 95 % oracle self time (the embed-and-extend placement
  loop at n = 10 and 11), so it shows placement changes; it is also the one
  workload that measures per-call latency instead of batch throughput.

The surveys are sized so that one takes about 0.4 s (n = 7) and 1 s
(n = 10). A pass is scaled by calibration rounds taken at its two ends
(calibration.py), which follow the machine's speed only when the pass is
short next to the seconds over which that speed holds, and a run's median
needs many passes. At n = 8 and n = 11 (10 s and 5 s a pass) a 40-second
run held four to eight, and its figures spread by 24-32 % between runs. An
embed-and-extend survey at n = 9 would measure the placement loop a second
time and is left out, so that three workloads fit 40-second runs in the
time budget.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibration import Speed, is_graphic
from potgraph import characterization, oracle, sequences, survey
from potgraph.graphs import contains_subgraph, degree_sequence_of, pattern_k6_c5

GAPS_FILE = Path(__file__).resolve().parent / "data" / "gaps_n10_n11.txt"

# Queries per pass: p99 has 20 samples beyond it, and a 40-second run holds
# two or three passes to take each query's median time from. The costly
# queries are the negatives, and how many of them a seed draws varies: over
# eight seeds, the scaled time of one pass varied by 6 % (coefficient of
# variation) at 1000 queries and by 2.5 % at 2000.
QUERY_COUNT = 2000
# A query pass takes a calibration round after every this many seconds of
# queries, so each query is scaled by the machine's speed at its moment.
CHUNK_S = 0.2


@dataclass
class Pass:
    """Outcome of one pass."""

    seconds: float  # wall time of the measured calls, checks excluded
    latencies: list[float]  # scaled (calibration.py), one per operation:
    # a query, or the whole survey
    sequences: int  # sequences fully decided
    attempted: int  # operations: one survey, or one per query
    failed: int
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)  # filled when traced


def verdict_digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return "sha256:" + h.hexdigest()[:32]


@dataclass(frozen=True)
class SurveyWorkload:
    """``cross_validate`` over every graphic sequence of length n.

    The totals and the verdict digest were recorded from the code the
    benchmark was written against; any change to a verdict fails the gate.
    """

    n: int
    use_oracle: bool
    strategy: str
    total: int
    potential: int
    digest: str

    def run_pass(self) -> Pass:
        speed = Speed()
        start = time.perf_counter()
        try:
            report = survey.cross_validate(
                self.n, use_oracle=self.use_oracle, strategy=self.strategy, jobs=1
            )
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - start
            return Pass(elapsed, [elapsed * speed.scale()], 0, 1, 1,
                        [f"survey raised {exc!r}"])
        elapsed = time.perf_counter() - start
        scaled = elapsed * speed.scale()
        digest = verdict_digest(sorted(
            f"{r.sequence} {r.theorem_verdict} {r.lemma_verdict} {r.oracle_verdict}"
            for r in report.records
        ))
        errors = []
        got = (report.total_sequences, report.potential_count, len(report.discrepancies))
        if got != (self.total, self.potential, 0):
            errors.append(f"totals {got} != {(self.total, self.potential, 0)}")
        if len(report.records) != self.total:
            errors.append(f"{len(report.records)} records for {self.total} sequences")
        if digest != self.digest:
            errors.append(f"verdict digest {digest} != {self.digest}")
        return Pass(elapsed, [scaled], report.total_sequences, 1, int(bool(errors)),
                    errors, digest)


def _render(terms: list[int]) -> str:
    parts = []
    for value, group in itertools.groupby(terms):
        count = len(list(group))
        parts.append(f"{value}^{count}" if count > 1 else str(value))
    return ",".join(parts)


def make_queries(seed: int, count: int = QUERY_COUNT) -> list[str]:
    """``count`` graphic sequences of length 10 or 11 in exponent notation.

    Three in four are uniform: each term drawn from 1..n-1. These are mostly
    easy positives. One in four has a dense head, 1 to 3 terms from 5..n-1
    over a tail of 3s, 2s and 1s; the hard negatives and the closed-form
    gaps live there. Non-graphic draws are redrawn. The kind, the length and
    the number of head terms follow a fixed cycle, so that only the draws
    depend on the seed and every seed gets the same mix.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 10 + i // 4 % 2
        heads = 1 + i // 8 % 3
        while True:
            if i % 4 == 3:
                terms = ([rng.randint(5, n - 1) for _ in range(heads)]
                         + [rng.choice((3, 2, 1)) for _ in range(n - heads)])
            else:
                terms = [rng.randint(1, n - 1) for _ in range(n)]
            terms.sort(reverse=True)
            if is_graphic(terms):
                break
        out.append(_render(terms))
    return out


def load_gaps(path: Path = GAPS_FILE) -> tuple[frozenset[str], dict[str, str]]:
    """The gap list and its provenance header fields."""
    gaps, header = set(), {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep and key.strip().isalpha():
                header[key.strip()] = value.strip()
        elif line.strip():
            gaps.add(line.strip())
    if int(header.get("gaps", -1)) != len(gaps):
        raise ValueError(f"{path}: header says {header.get('gaps')} gaps, file has {len(gaps)}")
    return frozenset(gaps), header


class QueryWorkload:
    """One client asking parse + closed form + families + oracle per sequence,
    each query sent when the previous one has been answered."""

    def __init__(self, seed: int) -> None:
        self.queries = make_queries(seed)
        self.gaps, self.gap_header = load_gaps()
        self.pattern = pattern_k6_c5()

    def run_pass(self) -> Pass:
        answers = []
        latencies = []
        clock = time.perf_counter
        elapsed = 0.0
        speed = Speed()
        chunk_start = clock()
        chunk_from = 0
        for text in self.queries:
            t0 = clock()
            try:
                seq = sequences.parse_sequence(text)
                answer = (
                    seq,
                    characterization.theorem31_decide(seq),
                    characterization.lemma_family_decide(seq),
                    oracle.oracle_potentially(seq),
                )
            except Exception as exc:  # a failed operation is counted, not fatal
                answer = exc
            latencies.append(clock() - t0)
            answers.append(answer)
            if clock() - chunk_start >= CHUNK_S or len(answers) == len(self.queries):
                elapsed += clock() - chunk_start
                factor = speed.scale()
                for i in range(chunk_from, len(latencies)):
                    latencies[i] *= factor
                chunk_start = clock()
                chunk_from = len(latencies)
        errors = []
        lines = []
        for text, answer in zip(self.queries, answers):
            problem = self.check(text, answer)
            if problem:
                errors.append(f"({text}): {problem}")
                lines.append(f"{text} error")
            else:
                _, report, lemma, verdict = answer
                lines.append(f"{text} {report.verdict} {lemma} {verdict.potentially}")
        return Pass(elapsed, latencies, len(self.queries) - len(errors),
                    len(self.queries), len(errors), errors, verdict_digest(lines))

    def check(self, text: str, answer) -> str:
        """Why the answer is wrong, or '' when it passes the gate."""
        if isinstance(answer, Exception):
            return f"raised {answer!r}"
        seq, report, lemma, verdict = answer
        if seq.render() != text:
            return f"parsed as ({seq})"
        if verdict.potentially:
            witness = verdict.witness
            if witness is None or degree_sequence_of(witness) != seq:
                return "witness missing or of another degree sequence"
            if not contains_subgraph(witness, self.pattern):
                return "witness does not contain the wheel"
            if not report.verdict:
                return f"closed form rejects (clause {report.failing_clause}) a potential sequence"
        elif report.verdict and text not in self.gaps:
            return "closed form accepts, oracle refutes, and it is not a known gap"
        if lemma is not None and lemma != verdict.potentially:
            return f"family verdict {lemma} but oracle {verdict.potentially}"
        return ""


SURVEYS = {
    "survey-full-n7": SurveyWorkload(
        7, True, oracle.STRATEGY_FULL, 240, 83,
        "sha256:4fc39691709e0dd18427f6d1e1981ec4"),
    "survey-theorem-n10": SurveyWorkload(
        10, False, oracle.STRATEGY_EMBED, 11655, 10504,
        "sha256:cab50d85da4de6b96381752d785b31cc"),
}
WORKLOADS = (*SURVEYS, "queries-n10-11")


def make(name: str, seed: int):
    """The workload called ``name``; surveys cover every sequence, so only
    the queries use the seed."""
    if name in SURVEYS:
        return SURVEYS[name]
    return QueryWorkload(seed)
