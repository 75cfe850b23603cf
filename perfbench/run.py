"""buslink pipeline benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload history --seed 11 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``. The run generates the
workload's inputs from ``--seed`` in a child process (``gen.py``, not
timed), then in this process sets the program up, runs its timed stages
for about ``--seconds`` seconds (``bench.py``), and checks every output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
per-layer spans and counts (``spans.py``) from one traced round of the
stages instead. The last line of stdout is the result as JSON; the line
before it, prefixed ``perfbench-record``, holds the run's metadata,
input sizes, output hashes and samples.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from workloads import HERE, ROOT, SRC, WORKLOADS

GEN_TIMEOUT_S = 150


def main() -> int:
    ap = argparse.ArgumentParser(description="buslink pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "buslink" / "__init__.py").is_file():
        print(f"perfbench: no buslink package under {SRC}", file=sys.stderr)
        return 2

    # One thread: the measured work is single-threaded, and idle BLAS
    # worker threads only add noise on a 2-core host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import buslink.pipeline  # noqa: F401  (the program's import time)
    import_s = perf_counter() - t0
    import bench

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=scratch))
    try:
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload.name,
                        "--seed", str(args.seed), "--out", str(work)],
                       check=True, timeout=GEN_TIMEOUT_S, stdout=subprocess.DEVNULL)
        run = bench.Run(workload, args.seed, work)
        try:
            if args.trace:
                metrics, extra = bench.run_traced(run)
            else:
                metrics, extra = bench.run_untraced(run, args.seconds, import_s)
        except statistics.StatisticsError:
            print(f"perfbench: no samples to measure; errors: {run.errors}", file=sys.stderr)
            return 1
        record = dict(extra, trace=args.trace, import_s=import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
