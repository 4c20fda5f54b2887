"""The traced benchmark run wraps library functions by name
(`perfbench/spans.py`, `BOUNDARIES`) and counts a result's words through
its `moments` or `values` view; a name that no longer resolves makes its
per-layer metrics read 0 without any error.  This reads the benchmark's
code and does not change it."""

import importlib.util
from pathlib import Path

from util import rand_dist

import bifree.cli  # noqa: F401  (loads every module the CLI reaches)
from bifree.cumulant import cumulants_from_moments
from bifree.engine import bifree_product
from bifree.words import two_faced

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_names_a_library_function():
    spans = _load_spans()
    modules = spans._bifree_modules()
    missing = [
        (layer, name)
        for layer, names in spans.BOUNDARIES.items()
        for name in names
        if not any(
            callable(vars(module).get(name))
            and (getattr(vars(module)[name], "__module__", None) or "").startswith("bifree")
            for module in modules
        )
    ]
    assert not missing


def test_the_traced_word_count_reads_each_table_by_word(rng):
    # the per-layer `words` of engine, cumulant and model spans are the
    # length of a result's `moments` or `values` view
    spans = _load_spans()
    marginals = [rand_dist(two_faced(left=("a",), right=("c",), family=1), 3, rng),
                 rand_dist(two_faced(left=("b",), family=2), 3, rng)]
    mu = bifree_product(marginals, 3)
    cumulants = cumulants_from_moments(mu, 3)
    assert spans._table_size(mu) == mu.signature.word_count(3) == 40
    assert spans._table_size(cumulants) == 39
