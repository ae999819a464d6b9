#!/usr/bin/env python3
"""Regenerate the closed-form gap list the query gate accepts.

A gap is a graphic sequence that ``theorem31_decide`` accepts and the
exhaustive oracle refutes. This script runs the embed-and-extend oracle over
every positive graphic sequence of length 10 and 11 and prints the list, with
a provenance header, on standard output. It fails (exit 1) if the oracle and
the closed form disagree in the other direction, or if a family verdict
disagrees with the oracle, because the query gate treats both as errors.

Usage (about three minutes on the pure-Python kernel):
    python3 perfbench/make_gaps.py > perfbench/data/gaps_n10_n11.txt
"""

from __future__ import annotations

import sys
import time

import program

RANGE = (10, 11)


def main() -> int:
    program.activate()
    from potgraph import (
        STRATEGY_EMBED,
        enumerate_graphic_sequences,
        lemma_family_decide,
        oracle_potentially,
        theorem31_decide,
    )

    gaps = []
    scanned = {}
    errors = []
    start = time.perf_counter()
    for n in range(RANGE[0], RANGE[1] + 1):
        seqs = enumerate_graphic_sequences(n)
        scanned[n] = len(seqs)
        for seq in seqs:
            potential = oracle_potentially(seq, strategy=STRATEGY_EMBED).potentially
            theorem = theorem31_decide(seq).verdict
            lemma = lemma_family_decide(seq)
            if theorem and not potential:
                gaps.append(seq)
            elif potential and not theorem:
                errors.append(f"closed form rejects potential ({seq})")
            if lemma is not None and lemma != potential:
                errors.append(f"family verdict {lemma} but oracle {potential} on ({seq})")
        print(f"n={n}: {scanned[n]} sequences, {time.perf_counter() - start:.0f} s",
              file=sys.stderr)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    ctx = program.context()
    print("# Closed-form gaps: graphic sequences theorem31_decide accepts and the")
    print("# exhaustive oracle refutes. Regenerate with perfbench/make_gaps.py.")
    print(f"# range: n={RANGE[0]}..{RANGE[1]}, every positive graphic sequence "
          f"({', '.join(f'n={n}: {c}' for n, c in scanned.items())})")
    print(f"# strategy: {STRATEGY_EMBED}")
    print(f"# kernel: {ctx['kernel']}")
    print(f"# catalog: {ctx['catalog_checksum']}")
    print(f"# commit: {ctx['commit']}")
    print(f"# gaps: {len(gaps)}")
    for seq in gaps:
        print(seq.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
