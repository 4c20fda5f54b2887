"""Per-layer spans for the traced benchmark run.

`Recorder` keeps nested spans in memory and folds each one, as it closes,
into per-layer totals: calls, time (a span nested in a span of its own
layer is not counted twice), self time (a span's time minus the time of
its child spans) and work counts.

`install` wraps the library's public layer functions from outside: each
boundary is found by function identity, and every binding of that function
in every loaded `bifree.*` module is replaced, so calls between modules
(cumulant -> boxplus2, models -> moments_from_cumulants, clt ->
scaled_sum_dist) are seen wherever the function lives.  A boundary whose
name no longer exists reports zero calls.

Run as a script, it is the CLI with tracing on:

    PYTHONPATH=src python3 perfbench/spans.py TRACE.json SUBCOMMAND [ARGS...]

runs `bifree.cli.main([SUBCOMMAND, ARGS...])`, writes the layer totals to
TRACE.json and exits with the CLI's status.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer name -> public functions that form its boundary.
BOUNDARIES = {
    "io.parse": ("parse_distribution", "parse_cumulant_table", "parse_covariance",
                 "parse_vector_spec"),
    "io.format": ("format_distribution", "format_cumulant_table"),
    "engine": ("bifree_product", "check_bifree"),
    "convolve": ("boxplus2", "boxtimes2"),
    "cumulant": ("cumulants_from_moments", "moments_from_cumulants"),
    "models.gaussian": ("gaussian_dist",),
    "models.fock": ("fock_distribution",),
    "models.gram": ("gram_psd_check",),
    "models.group": ("group_example_dist",),
    "clt": ("clt_report",),
    "clt.scaled_sum": ("scaled_sum_dist",),
}


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []          # open spans: [layer, start, child time]
        self.open_layers: Counter = Counter()
        self.layers: dict[str, Counter] = {}

    def stats(self, layer: str) -> Counter:
        return self.layers.setdefault(layer, Counter())

    def enter(self, layer: str) -> None:
        self.stack.append([layer, self.clock(), 0.0])
        self.open_layers[layer] += 1

    def exit(self) -> None:
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        self.open_layers[layer] -= 1
        if self.stack:
            self.stack[-1][2] += duration
        stats = self.stats(layer)
        stats["calls"] += 1
        stats["self_s"] += duration - child
        if not self.open_layers[layer]:
            stats["s"] += duration

    def count(self, layer: str, key: str, n: int) -> None:
        self.stats(layer)[key] += n

    def to_json(self) -> dict:
        return {layer: dict(stats) for layer, stats in self.layers.items()}


def _table_size(result) -> int:
    table = getattr(result, "moments", None)
    if table is None:
        table = getattr(result, "values", None)
    return len(table) if table is not None else 0


def _body_lines(text) -> int:
    return sum(1 for line in text.splitlines() if not line.startswith("#"))


def _counter(layer: str):
    """What a boundary counts beyond calls and time, from its arguments and result."""
    if layer == "io.parse":
        return lambda args, result: ("bytes", len(args[0].encode()) if args else 0)
    if layer == "io.format":
        return lambda args, result: ("words", _body_lines(result))
    return lambda args, result: ("words", _table_size(result))


def _wrap(recorder: Recorder, layer: str, fn):
    counter = _counter(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        recorder.count(layer, *counter(args, result))
        return result

    return traced


def _wrap_words(recorder: Recorder, method):
    @functools.wraps(method)
    def traced(self, *args, **kwargs):
        recorder.count("words", "calls", 1)
        n = 0
        try:
            for word in method(self, *args, **kwargs):
                n += 1
                yield word
        finally:
            recorder.count("words", "enumerated", n)

    return traced


def _bifree_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bifree" or name.startswith("bifree."))]


def install(recorder: Recorder) -> None:
    """Wrap every boundary in BOUNDARIES and FaceSignature.words."""
    import bifree.cli  # noqa: F401  (loads every module the CLI reaches)

    modules = _bifree_modules()
    for layer, names in BOUNDARIES.items():
        recorder.stats(layer)
        for name in names:
            originals = {
                id(value): value
                for module in modules
                for value in (vars(module).get(name),)
                if callable(value)
                and (getattr(value, "__module__", None) or "").startswith("bifree")
            }
            for fn in originals.values():
                traced = _wrap(recorder, layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)
    recorder.stats("words")
    for module in modules:
        cls = vars(module).get("FaceSignature")
        if isinstance(cls, type) and "words" in vars(cls) and cls.__module__ == module.__name__:
            cls.words = _wrap_words(recorder, vars(cls)["words"])


def main(argv: list[str]) -> int:
    import bifree.cli

    trace_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    recorder.enter("cli")
    try:
        status = bifree.cli.main(cli_args)
    finally:
        recorder.exit()
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(recorder.to_json(), f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
