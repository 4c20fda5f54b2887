#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bifree CLI.

    python3 perfbench/run.py --workload engine_tables --seed 1 --seconds 55 --trace 0

Run from anywhere inside a checkout that holds `src/bifree`.  The workload's
inputs are generated from `--seed` (see `workloads.py`), then its job list
runs through `python -m bifree.cli` with `PYTHONPATH=src`, one child process
at a time from this one parent process (a closed loop with one client).  Job lists
repeat while another one fits in `--seconds`; every job's exit status and
output are checked after each pass, and for the recorded seed the sha256 of
every output must match `expected_outputs.json`.

`--trace 0` reports the end-to-end metrics:
  wall_s        the job list, process starts included
  peak_rss_mb   the largest child ru_maxrss of a pass, from os.wait4
  setup_s       input generation plus one interpreter start importing bifree
                (median of SETUP_REPEATS set-ups)
  ok_ratio      jobs that returned the expected status and output / jobs run
  stage1_s..stage3_s
                wall time of the jobs of each stage; workloads.STAGES names
                the subcommands of each stage on each workload
Each is the median over the run's passes.  Passes repeat for the whole of
`--seconds`, because on a shared host the slow spells other tenants cause
last from seconds to minutes, and only a long window averages them out.

`--trace 1` runs one untraced pass, then traced passes (`spans.py`), and
reports the per-layer metrics of the fastest traced pass: time, self time,
calls and work counts at each layer boundary, the untraced wall time of each
subcommand (`cmd.*_s`, 0 when the workload does not run it), and
`trace.overhead_s`, the traced minus the untraced pass time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the seed, Python version, core count and the library's rational backend.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
EXPECTED = HERE / "expected_outputs.json"
SETUP_REPEATS = 11
RUN_DEADLINE_S = 170.0  # every run ends well inside 180 s, even when a job hangs

STAGE_COUNT = 3
COMMANDS = ("product", "check-bifree", "convolve-add", "convolve-mul", "gaussian",
            "cumulants", "moments", "clt", "fock", "group-example", "psd-check")


@dataclass
class Result:
    job: workloads.Job
    wall: float
    status: int
    rss_kb: int
    trace: dict | None = None


@dataclass
class Pass:
    results: list
    wall: float
    failures: list = field(default_factory=list)


class Runner:
    """Runs one workload's job lists in a private work directory."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.jobs = workloads.jobs(workload)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("BIFREE_RATIONAL_BACKEND", None)
        self.expected = _expected_hashes(workload, seed)
        self.verified: dict = {}  # (label, output sha256) -> error or None

    def _spawn(self, argv: list, stdout_path: Path):
        """Run one child to completion: (wall seconds, exit status, ru_maxrss kB).

        The child is killed when the run's deadline passes, and when this
        process is interrupted, so no child outlives the benchmark.
        """
        with open(stdout_path, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        return wall, proc.returncode, usage.ru_maxrss

    def setup(self) -> tuple[float, str]:
        """Generate the inputs and start one interpreter that imports bifree."""
        probe = ("import sys, bifree; "
                 "print(getattr(sys.modules.get('bifree.rationals'), 'BACKEND', 'none'))")
        start = time.perf_counter()
        workloads.make_inputs(self.workload, self.seed, self.work)
        _, status, _ = self._spawn([sys.executable, "-c", probe], self.work / "probe.txt")
        elapsed = time.perf_counter() - start
        if status != 0:
            raise RuntimeError("cannot import bifree from src/")
        return elapsed, (self.work / "probe.txt").read_text().strip()

    def run_pass(self, traced: bool) -> Pass:
        results = []
        start = time.perf_counter()
        for i, job in enumerate(self.jobs):
            trace_path = self.work / f"trace{i}.json"
            if traced:
                argv = [sys.executable, str(HERE / "spans.py"), str(trace_path), *job.argv]
            else:
                argv = [sys.executable, "-m", "bifree.cli", *job.argv]
            wall, status, rss = self._spawn(argv, workloads.stdout_path(self.work, job))
            trace = None
            if traced and trace_path.exists():
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            results.append(Result(job, wall, status, rss, trace))
        done = Pass(results, time.perf_counter() - start)
        done.failures = self.verify(results)
        return done

    def verify(self, results: list) -> list:
        """(label, reason) for every job whose status or output is not the expected one.

        Outputs are checked in a child process (see workloads.py), once per
        distinct output: passes that reproduce a checked output reuse its verdict.
        """
        failures, digests = [], {}
        for r in results:
            job = r.job
            if r.status != job.status:
                failures.append((job.label, f"exit status {r.status}, expected {job.status}"))
                continue
            path = self.work / job.output if job.output else workloads.stdout_path(self.work, job)
            try:
                with open(path, "rb") as f:
                    digests[job.label] = hashlib.file_digest(f, "sha256").hexdigest()
            except OSError as exc:
                failures.append((job.label, f"no output: {exc}"))
        unchecked = [label for label, d in digests.items() if (label, d) not in self.verified]
        if unchecked:
            for label, error in self._check(unchecked).items():
                want = self.expected.get(label)
                if want is not None and want != digests[label]:
                    error = f"sha256 {digests[label]} differs from the recorded {want}"
                self.verified[(label, digests[label])] = error
        for label, digest in digests.items():
            if self.verified[(label, digest)]:
                failures.append((label, self.verified[(label, digest)]))
        return failures

    def _check(self, labels: list) -> dict:
        argv = [sys.executable, str(HERE / "workloads.py"), self.workload, str(self.work), *labels]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            return {label: f"checker failed: {proc.stderr.strip()[-300:]}" for label in labels}
        return json.loads(proc.stdout)


def _expected_hashes(workload: str, seed: int) -> dict:
    recorded = json.loads(EXPECTED.read_text())
    return recorded["outputs"][workload] if seed == recorded["seed"] else {}


def end_to_end_metrics(passes: list, setups: list, attempted: int, failed: int) -> dict:
    def stage_wall(p: Pass, k: int) -> float:
        return sum(r.wall for r in p.results if r.job.stage == k)

    metrics = {
        "wall_s": (statistics.median([p.wall for p in passes]), "s"),
        "peak_rss_mb": (statistics.median([max(r.rss_kb for r in p.results) / 1024
                                           for p in passes]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    for k in range(1, STAGE_COUNT + 1):
        metrics[f"stage{k}_s"] = (statistics.median([stage_wall(p, k) for p in passes]), "s")
    return metrics


def _sum_traces(p: Pass) -> dict:
    total: dict = {}
    for r in p.results:
        for layer, stats in (r.trace or {}).items():
            into = total.setdefault(layer, {})
            for key, value in stats.items():
                into[key] = into.get(key, 0) + value
    return total


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def layer_values(trace: dict) -> dict:
    """Per-layer metrics of one traced pass, from the summed span totals."""
    def get(layer, key):
        return trace.get(layer, {}).get(key, 0)

    return {
        "cli.self_s": get("cli", "self_s"),
        "io.parse_s": get("io.parse", "s"),
        "io.parse_mb_per_s": _rate(get("io.parse", "bytes") / 1e6, get("io.parse", "s")),
        "io.format_s": get("io.format", "s"),
        "io.format_words": get("io.format", "words"),
        "engine.s": get("engine", "s"),
        "engine.self_s": get("engine", "self_s"),
        "engine.calls": get("engine", "calls"),
        "engine.words": get("engine", "words"),
        "engine.words_per_s": _rate(get("engine", "words"), get("engine", "s")),
        "convolve.s": get("convolve", "s"),
        "convolve.self_s": get("convolve", "self_s"),
        "convolve.calls": get("convolve", "calls"),
        "convolve.words_per_s": _rate(get("convolve", "words"), get("convolve", "s")),
        "cumulant.s": get("cumulant", "s"),
        "cumulant.self_s": get("cumulant", "self_s"),
        "cumulant.calls": get("cumulant", "calls"),
        "cumulant.words": get("cumulant", "words"),
        "models.gaussian_s": get("models.gaussian", "s"),
        "models.fock_s": get("models.fock", "s"),
        "models.fock_words_per_s": _rate(get("models.fock", "words"), get("models.fock", "s")),
        "models.gram_s": get("models.gram", "s"),
        "models.group_s": get("models.group", "s"),
        "clt.self_s": get("clt", "self_s") + get("clt.scaled_sum", "self_s"),
        "clt.scaled_sums": get("clt.scaled_sum", "calls"),
        "words.enumerated": get("words", "enumerated"),
        "words.calls": get("words", "calls"),
    }


def _unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith(("_s", ".s")) else "count"


def layer_metrics(traced: list, untraced: Pass) -> dict:
    """Per-layer values of the fastest traced pass, subcommand times of the untraced one."""
    fastest = min(traced, key=lambda p: p.wall)
    metrics = {name: (value if _unit(name) == "count" else float(value), _unit(name))
               for name, value in layer_values(_sum_traces(fastest)).items()}
    for command in COMMANDS:
        wall = sum((r.wall for r in untraced.results if r.job.command == command), 0.0)
        metrics[f"cmd.{command}_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (fastest.wall - untraced.wall, "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        runner = Runner(workload, seed, work, deadline)
        setups, backend = [], ""
        for _ in range(SETUP_REPEATS):
            elapsed, backend = runner.setup()
            setups.append(elapsed)
        print(json.dumps({"meta": {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "cores": os.cpu_count(),
            "rational_backend": backend, "why": workloads.WHY[workload],
            "stages": {f"stage{k}_s": name
                       for k, name in enumerate(workloads.STAGES[workload], 1)},
        }}), flush=True)

        untraced = [runner.run_pass(traced=False)] if trace else []
        passes: list = []
        # The untraced pass of a traced run counts toward its measured time.
        while not passes or (
            sum(p.wall for p in untraced + passes)
            + statistics.median([p.wall for p in passes]) <= seconds
            and time.monotonic() + 2 * max(p.wall for p in passes) < deadline
        ):
            passes.append(runner.run_pass(traced=trace))

        every = untraced + passes
        attempted = sum(len(p.results) for p in every)
        failures = [f for p in every for f in p.failures]
        for label, reason in failures:
            print(f"FAILED {label}: {reason}", file=sys.stderr)
        for r in passes[-1].results:
            print(f"{r.job.label:24s} {r.wall:8.3f} s  exit {r.status}  "
                  f"rss {r.rss_kb / 1024:7.1f} MB", file=sys.stderr)
        if trace:
            metrics = layer_metrics(passes, untraced[0])
        else:
            metrics = end_to_end_metrics(passes, setups, attempted, len(failures))
        return {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still has its directory there
            pass


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bifree" / "cli.py").is_file():
        print(f"error: no bifree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
