"""Time one fresh process's set-up and print it as a JSON line.

Set-up is everything a one-off command pays before its first answer: the
package import (kernel selection included), the exception-catalog load and
the first query, which builds the oracle's pattern tables. Interpreter start
is not counted. A calibration round taken afterwards gives the set-up time
scaled to the reference speed (calibration.py). Run with the built package
on PYTHONPATH.
"""

import time

start = time.perf_counter()

import json  # noqa: E402

import potgraph  # noqa: E402

imported = time.perf_counter()
potgraph.default_catalog()
loaded = time.perf_counter()
seq = potgraph.parse_sequence("5,3^5")
potgraph.theorem31_decide(seq)
potgraph.lemma_family_decide(seq)
potgraph.oracle_potentially(seq)
done = time.perf_counter()

from calibration import REFERENCE_S, round_s  # noqa: E402

round_s()  # the first round in a new process runs cold
speed = REFERENCE_S / round_s()

print(json.dumps({
    "import_s": imported - start,
    "catalog_s": loaded - imported,
    "first_query_s": done - loaded,
    "setup_s": done - start,
    "scaled_setup_s": (done - start) * speed,
}))
