#!/usr/bin/env python3
"""potgraph's benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): survey-full-n7,
survey-theorem-n10, queries-n10-11. Everything runs in this one process
with no threads or workers, after building the package from the checkout
into .bench_build/ (program.py).

A run measures whole passes (one survey, or one sweep over the seeded query
list) for about S seconds, at least one pass, and checks every pass. Every
time is scaled to a reference machine speed by calibration rounds taken
around it (calibration.py), because the shared hosts this runs on drift in
speed by up to 1.8x for minutes at a time. Every pass repeats the same
operations, so an operation's latency is the median of its scaled times over
the run's passes. With --trace 0 the run reports the end-to-end metrics:

  seq_per_s    sequences fully decided per second: sequences in a pass over
               the summed latencies of its operations (a query decides one
               sequence, a survey all of its sequences)
  p50_ms       median latency of one operation: a query, or a whole survey,
               whose answers all arrive when it ends
  p99_ms       99th percentile of the same; a survey workload has a single
               operation, so there it equals p50_ms
  setup_s      median over fresh processes, probed between passes every
               PROBE_INTERVAL_S seconds, of import + catalog load + first
               query, interpreter start excluded, each scaled by a
               calibration round the probe takes afterwards (setup_probe.py)
  peak_rss_mb  peak resident memory of this process

failed_frac is printed, not reported as a metric, because it is 0 whenever
the run is correct; the result line carries attempted and failed instead.

With --trace 1 the first half of the time runs untraced and the second half
traced (tracer.py). The run reports the per-layer metrics of the fastest
traced pass, each for one pass in raw wall seconds, and catalogs.load_s from
the set-up probes.
Layers a workload never enters read 0. The change in seq_per_s, p50_ms and
p99_ms from the untraced to the traced half is printed as the tracing
overhead; set-up and memory are per process and have none.

Standard output carries readable lines, one JSON ``record`` line with the
run's context (kernel, Python, cores, catalog checksum, commit, source
digest), verdict digest and every figure, and last the result line. The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
program cannot be built or the arguments are wrong (then no result line is
printed).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import program

HERE = Path(__file__).resolve().parent
PROBE_INTERVAL_S = 2.0
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "seq_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "catalogs.load_s": "s",
    "sequences.eg_calls": "count",
    "sequences.eg_s": "s",
    "survey.enumerate_s": "s",
    "survey.candidates": "count",
    "survey.graphic_ratio": "ratio",
    "survey.self_s": "s",
    "characterization.theorem_calls": "count",
    "characterization.theorem_s": "s",
    "characterization.lemma_s": "s",
    "oracle.calls": "count",
    "oracle.s": "s",
    "oracle.self_s": "s",
    "oracle.searches": "count/call",
    "oracle.hit_ratio": "ratio",
    "kernels.search_calls": "count",
    "kernels.search_s": "s",
    "kernels.nodes": "count",
    "kernels.nodes_per_s": "1/s",
    "graphs.verify_calls": "count",
    "graphs.verify_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_setup(count: int) -> list[dict]:
    """Set-up timings of ``count`` fresh processes."""
    env = program.clean_env()
    env["PYTHONPATH"] = str(program.BUILD_LIB)
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")], env=env,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
    return probes


def run_phase(workload, seconds: float, probes: list[dict], tracer=None) -> list:
    """Run whole passes until another would end after ``seconds``.

    Set-up probes run between passes, one per PROBE_INTERVAL_S of the
    phase, rather than all at once, so that they sample the machine at
    several moments of the run."""
    passes = []
    taken = len(probes)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        result = workload.run_pass()
        if tracer is not None:
            result.layers = tracer.layer_metrics()
        passes.append(result)
        due = int((time.perf_counter() - start) / PROBE_INTERVAL_S) + 1
        probes.extend(probe_setup(max(0, taken + due - len(probes))))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def end_to_end(passes: list, probes: list[dict]) -> dict[str, float]:
    """Every pass repeats the same operations, so each operation's latency
    is the median of its scaled times over the passes. Set-up time is the
    median of the probes' scaled times."""
    typical = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    return {
        "seq_per_s": statistics.median(p.sequences for p in passes) / sum(typical),
        "p50_ms": 1000 * percentile(typical, 0.50),
        "p99_ms": 1000 * percentile(typical, 0.99),
        "setup_s": statistics.median(p["scaled_setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list, probes: list[dict]) -> dict[str, float]:
    """The layers of the fastest traced pass, the least disturbed one."""
    fastest = min(passes, key=lambda p: p.seconds)
    return {"catalogs.load_s": min(p["catalog_s"] for p in probes), **fastest.layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="potgraph benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        program.activate()
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import kernel_parity
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    context = program.context()
    compared, mismatches, parity_status = kernel_parity.check()
    workload = workloads.make(args.workload, args.seed)
    probe_setup(1)  # unrecorded, so byte-compiling a new build is not counted
    probes: list[dict] = []

    if args.trace:
        untraced = run_phase(workload, args.seconds / 2, probes)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, args.seconds / 2, probes, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
        if tracer.missing:
            print(f"not traced, absent from the program: {', '.join(tracer.missing)}")
        before = end_to_end(untraced, probes)
        after = end_to_end(traced, probes)
        overhead = {k: after[k] - before[k] for k in ("seq_per_s", "p50_ms", "p99_ms")}
        metrics = per_layer(traced, probes)
        units = PER_LAYER_UNITS
    else:
        passes = run_phase(workload, args.seconds, probes)
        metrics = end_to_end(passes, probes)
        units = END_TO_END_UNITS
        overhead = None

    errors = [f"kernel parity mismatch: {label}" for label in mismatches]
    errors += [e for p in passes for e in p.errors]
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        errors.append(f"verdicts differ between passes: {digests}")
    attempted = compared + sum(p.attempted for p in passes)
    failed = len(mismatches) + sum(p.failed for p in passes) + (len(digests) > 1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6f}")
    print(f"kernel {context['kernel']}  parity {parity_status}  "
          f"python {context['python']}  nproc {context['nproc']}")
    print(f"digest {digests[0]}")
    for error in errors[:20]:
        print(f"FAILED {error}")
    for name, value in metrics.items():
        print(f"  {name:34} {value:14.6g} {units[name]}")
    if overhead:
        for name, diff in overhead.items():
            print(f"  trace overhead {name:19} {diff:+14.6g} "
                  f"({diff / before[name]:+.1%} of untraced)")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "context": context, "kernel_parity": parity_status,
        "digest": digests[0], "passes": len(passes),
        "failed_frac": failed / attempted, "metrics": metrics,
    }
    if overhead:
        record["untraced"] = before
        record["traced"] = after
        record["trace_overhead"] = overhead
    if isinstance(workload, workloads.QueryWorkload):
        record["gap_list"] = workload.gap_header
        same = workload.gap_header.get("catalog") == context["catalog_checksum"]
        print(f"gap list built with {'this' if same else 'another'} catalog: "
              f"{workload.gap_header.get('catalog')}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
