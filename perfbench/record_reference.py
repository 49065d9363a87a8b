"""Record the reference table of exterior cosines checked by the benchmark.

Computes every exterior cosine of each exterior workload on the
unconjugated tower and writes them to ``reference/exterior_cosines.json``.
Benchmark runs conjugate the tower by a seeded Haar unitary, so checking
them against this table also checks unitary invariance. Run it only to
record a new table, from the root of the repository:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._load_library()
    import harness
    import numpy as np

    table = {}
    for work in harness.WORKLOADS.values():
        if not work.exterior:
            continue
        unity = np.eye(harness.ambient_dim(work), dtype=complex)
        rep = harness.run_rep(work, unity, expected=None, tracer=harness.NullTracer())
        size = len(rep.cis)
        cos = [[rep.angle(i, j).cos_value for j in range(size)] for i in range(size)]
        table[work.name] = {"commit": run.git_commit(), "cos": cos}
    harness.REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    harness.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
