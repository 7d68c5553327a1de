"""Record the bit digests of every render-workload frame for given seeds.

    python3 perfbench/record_reference.py 0 1 2 ... 7919

Run it at the commit whose outputs later runs should be compared with; it
rewrites perfbench/reference.json.  A timed render run on a recorded seed
then reports ``output_bits_changed``.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import bench
    import workloads

    recorded = {}
    for seed in (int(a) for a in argv):
        wl = workloads.Render(seed)
        wl.setup()
        recorded[str(seed)] = [wl.digest(wl.run(i, workloads.direct))
                               for i in range(wl.frames)]
        print(f"seed {seed}: {wl.frames} frames", file=sys.stderr)
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in recorded.items())
    workloads.REFERENCE_FILE.write_text(
        f'{{"recorded_at": {json.dumps(bench._git_commit())},\n "render": {{\n{rows}\n }}\n}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
