#!/usr/bin/env python3
"""Compare the two exact-rational backends on representative workloads.

Runs each workload in a subprocess pinned to one backend via
BIFREE_RATIONAL_BACKEND and reports wall times.  Results are bit-identical
across backends; only speed differs.

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
from bifree.dist import CumulantTable, Distribution
from bifree.engine import bifree_product
from bifree.scalars import ONE, ZERO, qi
from bifree.words import two_faced
import random

rng = random.Random(42)

def rand_dist(sig, d):
    return Distribution(sig, d, {
        w: (ONE if not w else qi(rng.randint(-4, 4), rng.randint(1, 4)))
        for w in sig.words(d)
    })

rows = []

sig1 = two_faced(left=("a",), right=("c",), family=1)
sig2 = two_faced(left=("a",), right=("c",), family=2)
m1, m2 = rand_dist(sig1, 6), rand_dist(sig2, 6)
t0 = time.perf_counter()
bifree_product([m1, m2], 6)
rows.append(("bifree_product, 2 families, degree 6", time.perf_counter() - t0))

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
