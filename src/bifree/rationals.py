"""Exact rational backend.

gmpy2's mpq is used when importable; the stdlib Fraction is the fallback.
gmpy2 is optional: results are bit-identical either way.  The choice can be
pinned with BIFREE_RATIONAL_BACKEND=gmpy2|fraction for benchmarking.
"""

import os
from fractions import Fraction

_choice = os.environ.get("BIFREE_RATIONAL_BACKEND", "auto")
if _choice not in ("auto", "gmpy2", "fraction"):
    raise ImportError(f"unknown BIFREE_RATIONAL_BACKEND {_choice!r}")

Rat = None
if _choice in ("auto", "gmpy2"):
    try:
        from gmpy2 import mpq as Rat  # type: ignore[no-redef]
    except ImportError:
        if _choice == "gmpy2":
            raise
if Rat is None:
    Rat = Fraction

BACKEND = "fraction" if Rat is Fraction else "gmpy2"

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def rat(num, den=1):
    """Exact rational num/den in the active backend."""
    return Rat(num, den)
