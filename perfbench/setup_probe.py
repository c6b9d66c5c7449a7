"""Set-up probe: import pvzeta from the checkout and build a workload's
inputs, then print both durations as one JSON line.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times this whole process, from spawn to exit, as one set-up
sample; the printed parts feed the per-layer setup metrics.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_pvzeta():
    """Import the pvzeta package of this checkout, never an installed one."""
    sys.path.insert(0, str(SRC))
    import pvzeta

    if Path(pvzeta.__file__).resolve().parent != SRC / "pvzeta":
        raise ImportError(f"pvzeta was imported from {pvzeta.__file__}, not from {SRC}")
    return pvzeta


if __name__ == "__main__":
    t0 = time.perf_counter()
    import_pvzeta()
    t1 = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
