"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def _runner(workload, work, seed=7):
    return run.Runner(workload, seed, work, time.monotonic() + 120)


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    dirs = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        workloads.make_inputs(workload, seed, dirs[name])

    def contents(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert contents(dirs["a"])
    assert contents(dirs["a"]) == contents(dirs["b"])
    assert contents(dirs["a"]) != contents(dirs["c"])


def test_self_time_subtracts_only_direct_children():
    ticks = iter([0, 1, 2, 3, 4, 5, 7, 10])
    rec = spans.Recorder(clock=lambda: next(ticks))
    rec.enter("cli")           # 0
    rec.enter("cumulant")      # 1
    rec.enter("convolve")      # 2
    rec.exit()                 # 3: convolve 1
    rec.enter("cumulant")      # 4: nested in its own layer
    rec.exit()                 # 5: cumulant 1
    rec.exit()                 # 7: cumulant 6, children 1 + 1
    rec.exit()                 # 10: cli 10, child 6
    stats = rec.to_json()
    assert stats["cli"] == {"calls": 1, "self_s": 4, "s": 10}
    assert stats["convolve"] == {"calls": 1, "self_s": 1, "s": 1}
    # The inner cumulant span is inside an outer one: its time counts once.
    assert stats["cumulant"] == {"calls": 2, "self_s": 1 + 4, "s": 6}


def test_corrupted_output_counts_as_a_failed_job(tmp_path):
    runner = _runner("cumulant_chain", tmp_path)
    runner.setup()
    job = next(j for j in runner.jobs if j.label == "moments")
    shutil.copy(tmp_path / "m.dist", tmp_path / "m_back.dist")
    workloads.stdout_path(tmp_path, job).write_text("")
    good = run.Result(job, 1.0, 0, 1000)
    assert runner.verify([good]) == []

    text = (tmp_path / "m_back.dist").read_text()
    (tmp_path / "m_back.dist").write_text(text.replace(" : ", " : 1", 1))
    wrong_status = run.Result(job, 1.0, 1, 1000)
    failures = runner.verify([good, wrong_status])
    assert [label for label, _ in failures] == ["moments", "moments"]

    passes = [run.Pass([good, wrong_status], 2.0, failures)]
    metrics = run.end_to_end_metrics(passes, [0.1], attempted=2, failed=len(failures))
    assert metrics["ok_ratio"] == (0.0, "ratio")


def test_unparsable_output_is_a_failure_not_a_crash(tmp_path):
    runner = _runner("cumulant_chain", tmp_path)
    runner.setup()
    job = next(j for j in runner.jobs if j.label == "fock")
    (tmp_path / "fock.dist").write_text("# star: no\nnot a table line\n")
    workloads.stdout_path(tmp_path, job).write_text("")
    [(label, reason)] = runner.verify([run.Result(job, 1.0, 0, 1000)])
    assert label == "fock" and "raised" in reason


def _small_jobs():
    """Cheap CLI jobs through the engine, cumulant, clt, models and io layers."""
    return [
        Job("product", 1, ["product", "--in", "x.dist", "--in", "y2.dist", "--degree", "3",
            "--out", "p.dist"], 0, None, "p.dist"),
        Job("check-bifree", 2, ["check-bifree", "--in", "p.dist"], 0, None, None),
        Job("cumulants", 3, ["cumulants", "--in", "x.dist", "--degree", "2",
            "--out", "x.cum"], 0, None, "x.cum"),
        Job("clt", 4, ["clt", "--in", "c.dist", "--ns", "4,16", "--degree", "3"], 1, None, None),
        Job("group-example", 4, ["group-example", "--orders", "2,3", "--degree", "4",
            "--out", "g.dist"], 0, None, "g.dist"),
        Job("psd-check", 4, ["psd-check", "--in", "g.dist"], 1, None, None),
    ]


def test_trace_counts_repeat_exactly(tmp_path):
    """Two traced passes of the same jobs give identical count metrics."""
    import formats as fmt

    runner = _runner("engine_tables", tmp_path)
    runner.setup()
    for name, families in (("y2.dist", [(2, ("a", "b"), ("c",))]), ("c.dist", workloads.CLT_FAM)):
        values = {w: fmt.ONE if not w else fmt.ZERO if len(w) == 1 else (fmt.ONE[0] / len(w), 0)
                  for w in fmt.words(families, 3)}
        (tmp_path / name).write_text(fmt.format_table(families, 3, values))
    runner.jobs = _small_jobs()
    runner._check = lambda labels: dict.fromkeys(labels)  # these jobs have no checks
    passes = [runner.run_pass(traced=True) for _ in range(2)]
    assert [p.failures for p in passes] == [[], []]
    untraced = runner.run_pass(traced=False)
    first, second = (run.layer_metrics([p], untraced) for p in passes)
    counts = {k: v for k, v in first.items() if v[1] == "count"}
    assert counts == {k: v for k, v in second.items() if v[1] == "count"}
    assert counts["engine.calls"][0] == 3  # product, check_bifree and its product
    assert counts["cumulant.calls"][0] >= 1 and counts["clt.scaled_sums"][0] == 2
    assert counts["words.enumerated"][0] > 0
    assert first["models.gram_s"][0] > 0 and first["io.parse_s"][0] > 0


def test_missing_boundary_reports_zero_calls():
    code = ("import spans; rec = spans.Recorder(); "
            "spans.BOUNDARIES['gone'] = ('no_such_function',); spans.install(rec); "
            "print(rec.to_json()['gone'], rec.to_json()['engine'])")
    env = {"PYTHONPATH": f"{run.ROOT / 'src'}:{HERE}"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout == "{} {}\n", proc.stderr
    assert run.layer_values({})["engine.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
