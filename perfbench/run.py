"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload render --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it is a fuller report: the
environment, each metric's direction, the checks that failed and details
per workload.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "splat360" / "__init__.py").is_file():
        print(f"error: no splat360 sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # pool workers x BLAS threads must stay within the CPU count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            out = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
            run = bench.traced_run(wl, args.seconds, out)
        else:
            run = bench.timed_run(wl, args.seconds)
    finally:
        workloads.shutdown_pools()
    report, line = bench.result(wl, run, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
