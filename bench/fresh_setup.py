"""Time one workload's set-up in a fresh process.

Usage: python3 bench/fresh_setup.py WORKLOAD SEED

Measures ``import sigmaflow``, one ``taylor.context(d)`` per dimension the
workload uses and one build of each model or spec it uses, then times the
calibration kernel in the same process, and prints
``{"setup_s": ..., "ref_s": ...}``.  Inputs are regenerated before the
clock starts; ``bench/run.py`` has already written the spec files they name.
"""

import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv):
    workload, seed = argv[0], int(argv[1])
    sys.path.insert(0, str(BENCH.parent / "src"))
    import inputs
    inp = inputs.make(workload, seed, BENCH / "out" / "specs", write=False)
    t0 = time.perf_counter()
    import sigmaflow  # noqa: F401  (the import is part of set-up)
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    workloads.WORKLOADS[workload].setup(inp)
    t3 = time.perf_counter()
    import calibrate
    ref = statistics.median(calibrate.reference_seconds() for _ in range(3))
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "ref_s": ref}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
