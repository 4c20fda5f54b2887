"""The traced benchmark run wraps library functions by name
(`perfbench/spans.py`, `BOUNDARIES`); a name that no longer resolves makes
its per-layer metrics read 0 without any error.  This reads the benchmark's
list and does not change it."""

import importlib.util
from pathlib import Path

import bifree.cli  # noqa: F401  (loads every module the CLI reaches)

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
