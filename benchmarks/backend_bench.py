#!/usr/bin/env python3
"""Compare the two exact-rational backends on the cumulant transform.

Runs each workload in a subprocess pinned to one backend via
BIFREE_RATIONAL_BACKEND and reports wall times.  Results are bit-identical
across backends; only speed differs.  The product engine is not timed: it
runs on Python integers by dilation and divides by the backend's rationals
only once per output word.

    python3 benchmarks/backend_bench.py
"""

import importlib.util
import os
import subprocess
import sys

WORKLOAD = r"""
import time
from bifree.rationals import BACKEND
from bifree.cumulant import cumulants_from_moments, moments_from_cumulants
from bifree.dist import CumulantTable
from bifree.scalars import ZERO, qi
from bifree.words import two_faced
import random

rng = random.Random(42)
rows = []

sig = two_faced(left=("a", "b"), right=("c", "d"), family=1)
values = {}
for w in sig.words(5):
    if w:
        values[w] = qi(rng.randint(-3, 3), rng.randint(1, 3)) if len(w) == 2 else ZERO
table = CumulantTable(sig, 5, values)
t0 = time.perf_counter()
mu = moments_from_cumulants(table, 5)
rows.append(("moments_from_cumulants, 4 letters, degree 5", time.perf_counter() - t0))

t0 = time.perf_counter()
cumulants_from_moments(mu, 5)
rows.append(("cumulants_from_moments, 4 letters, degree 5", time.perf_counter() - t0))

for name, dt in rows:
    print(f"{BACKEND:9s} {dt:8.3f}s  {name}")
"""


def main() -> int:
    for backend in ("gmpy2", "fraction"):
        if backend == "gmpy2" and importlib.util.find_spec("gmpy2") is None:
            print("gmpy2 not installed; skipping")
            continue
        env = dict(os.environ, BIFREE_RATIONAL_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, "-c", WORKLOAD], env=env, capture_output=True, text=True
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
