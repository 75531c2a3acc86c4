"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1   (NAME 'all' runs every workload in turn).

Pins the BLAS pool to one thread before numpy is imported, so every run
uses one setting, and imports srgc from this checkout's ``src``.
"""

import os
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "srgc", "__init__.py")):
        sys.exit(f"perfbench: no srgc package under {src}")
    sys.path[:0] = [src, here]

    t0 = time.perf_counter()
    from harness import main

    sys.exit(main(sys.argv[1:], {v: os.environ[v] for v in BLAS_THREAD_VARS},
                  time.perf_counter() - t0))
