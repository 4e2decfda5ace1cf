"""Peak resident set size of gbcd alone, for run.py's ``peak_rss_mb``.

    python3 bench/peak_rss.py coded-256qam 1 full bench/out/coded-256qam/peak_rss

Imports gbcd from ``src/`` (and not the frozen control), makes the
workload's inputs for the seed in the given directory, runs two operations
and prints as its last stdout line one JSON object: ``peak_rss_mb``, and
the last operation's ``digests`` and ``values`` and both operations'
``errors``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import run  # pins BLAS to one thread before numpy is imported


def main(argv=None) -> int:
    workload, seed, scale, workdir = (argv or sys.argv[1:])
    sys.path.insert(0, str(run.SRC))
    import workloads

    op_run = workloads.WORKLOADS[workload].make(Path(workdir), int(seed),
                                                scale)
    ops = [run.run_op(op_run.run) for _ in range(2)]
    print(json.dumps({
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": ops[-1].digests, "values": ops[-1].values,
        "errors": [e for op in ops for e in op.errors]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
