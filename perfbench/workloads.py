"""Seeded inputs, job lists and output checks of the two workloads.

Each workload is a fixed list of CLI jobs.  `make_inputs` writes the
workload's input files from the seed; every `Job` names the subcommand and
its arguments, the exit status it must return, and a check that reads its
output with the benchmark's own parser and compares it with values the
benchmark derives itself (`oracles`).  A check returns an error message or
None.  Checks run in their own process, so that the tables they build never
count toward the peak RSS that run.py reads for its children:

    python3 perfbench/workloads.py WORKLOAD WORK_DIR LABEL...

prints a JSON object mapping each job label to its check's error or null.

The end-to-end stage metrics `stage1_s` .. `stage3_s` sum the wall time of
the jobs of each stage; `STAGES` names the subcommands behind each.
"""

from __future__ import annotations

import csv
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

import formats as fmt
import oracles

# Why each workload exists and which layer it loads; printed with every run.
WHY = {
    "engine_tables": "the engine table build (product, check-bifree, both convolutions), "
                     "then a 3 MB group table written, parsed and Gram-eliminated; the "
                     "cumulant transform never runs",
    "cumulant_chain": "gaussian, cumulants, moments and clt: convolution powers inside the "
                      "cumulant transform do the work; then the Fock operators",
}

# Each stage groups the jobs whose time one layer carries; a stage metric is
# the wall time of its jobs, and the traced run splits it by subcommand.
STAGES = {
    "engine_tables": ("product + check-bifree", "convolve-add + convolve-mul",
                      "group-example + psd-check"),
    "cumulant_chain": ("gaussian + clt", "cumulants + moments", "fock"),
}

R1 = [(1, ("a",), ("b",))]
R2 = [(2, ("a",), ("b",))]
PAIR = R1 + R2
TRIPLE = [(1, ("a", "b"), ("c",))]
MIXED = [(1, ("a", "b"), ("c",)), (2, ("d",), ("e",))]
CLT_FAM = [(1, ("a",), ("b",))]
GROUP_ORDERS = (2, 3)
GROUP_FAM = [(1, ("l",), ("r",)), (2, ("l",), ("r",))]
CLT_NS = (4, 16, 64)
# (h, h*) of the letters 1.a, 1.b, 2.a, 2.b before the seed's Symmetry;
# vector rows split coordinates on spaces, so coordinates are real.
FOCK_VECTORS = [
    ((Fraction(1), Fraction(-2)), (Fraction(1, 2), Fraction(3))),
    ((Fraction(-3, 2), Fraction(1)), (Fraction(2), Fraction(1, 3))),
    ((Fraction(2, 3), Fraction(1)), (Fraction(-1), Fraction(3, 4))),
    ((Fraction(1), Fraction(4, 3)), (Fraction(-2), Fraction(1, 2))),
]

PRODUCT_DEGREE = 7
CHECK_DEGREE = 6
CONVOLVE_DEGREE = 6
GAUSSIAN_DEGREE = 6
CUMULANT_DEGREE = 4
CLT_DEGREE = 6
FOCK_DEGREE = 6
GROUP_DEGREE = 8


@dataclass
class Job:
    label: str            # unique within the workload; keys the default-seed hashes
    stage: int            # 1..3, the stage metric its wall time counts toward
    argv: list            # CLI arguments, file names relative to the work directory
    status: int           # the exit status the job must return
    check: Callable       # (work_dir, stdout text) -> error message or None
    output: str | None    # file holding the job's output; None means stdout

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# Inputs


class Symmetry:
    """A seeded relabeling of letters within each face, a sign per letter and
    an optional complex conjugation.

    Applied to a table it moves values to other words and changes their
    signs, never their size, so every seed asks the library for the same
    arithmetic: the run-to-run spread over seeds is the machine's, not the
    inputs'.  Each workload draws its base data once from a fixed stream.
    """

    def __init__(self, rng, families, conjugate=True):
        self.perm = {}
        for fam, left, right in families:
            for face in (left, right):
                names = [f"{fam}.{index}" for index in face]
                self.perm.update(zip(names, rng.sample(names, len(names))))
        self.sign = {u: Fraction(rng.choice((-1, 1))) for u in self.perm}
        self.conjugate = conjugate and rng.random() < 0.5

    def scalar(self, letters, x):
        for u in letters:
            x = (self.sign[u] * x[0], self.sign[u] * x[1])
        return fmt.conj(x) if self.conjugate else x

    def table(self, values):
        return {tuple(self.perm[u] for u in w): self.scalar(w, x) for w, x in values.items()}


def _rat(rng, top=4):
    """Nonzero, so that no seed lets the library skip terms."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def _random_table(rng, families, degree, complex_=False, centered=False):
    values = {}
    for word in fmt.words(families, degree):
        if not word:
            values[word] = fmt.ONE
        elif centered and len(word) == 1:
            values[word] = fmt.ZERO
        else:
            values[word] = (_rat(rng), _rat(rng, 2) if complex_ else Fraction(0))
    return values


def _write_table(work: Path, name: str, families, degree, values, sym: Symmetry) -> None:
    text = fmt.format_table(families, degree, sym.table(values))
    (work / name).write_text(text, encoding="utf-8")


def make_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the workload's input files; the same seed gives the same bytes."""
    base = random.Random(f"{workload}:base")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "engine_tables":
        pair, triple = Symmetry(rng, PAIR), Symmetry(rng, TRIPLE)
        for name, fam, degree, sym in (
            ("r1.dist", R1, PRODUCT_DEGREE, pair),
            ("r2.dist", R2, PRODUCT_DEGREE, pair),
            ("x.dist", TRIPLE, CONVOLVE_DEGREE, triple),
            ("y.dist", TRIPLE, CONVOLVE_DEGREE, triple),
        ):
            _write_table(work, name, fam, degree, _random_table(base, fam, degree), sym)
    elif workload == "cumulant_chain":
        # Symmetric and diagonally dominant with a positive diagonal, hence
        # PSD; real, because a complex one doubles the gaussian job's time.
        alphabet = fmt.letters(TRIPLE)
        cov = {(u, u): fmt.ONE for u in alphabet}
        for i, u in enumerate(alphabet):
            for v in alphabet[i + 1:]:
                cov[(u, v)] = cov[(v, u)] = (Fraction(base.choice((-1, 1)), 2), Fraction(0))
        sym = Symmetry(rng, TRIPLE)
        cov = {(sym.perm[u], sym.perm[v]): sym.scalar((u, v), x) for (u, v), x in cov.items()}
        (work / "cov.cov").write_text(fmt.format_covariance(TRIPLE, cov), encoding="utf-8")
        _write_table(work, "m.dist", MIXED, CUMULANT_DEGREE,
                     _random_table(base, MIXED, CUMULANT_DEGREE, True), Symmetry(rng, MIXED))
        _write_table(work, "clt.dist", CLT_FAM, CLT_DEGREE,
                     _random_table(base, CLT_FAM, CLT_DEGREE, centered=True),
                     Symmetry(rng, CLT_FAM))
        sym = Symmetry(rng, PAIR, conjugate=False)
        h, h_star = {}, {}
        for u, (row, row_star) in zip(fmt.letters(PAIR), FOCK_VECTORS):
            h[sym.perm[u]] = [sym.scalar((u,), (x, Fraction(0))) for x in row]
            h_star[sym.perm[u]] = [sym.scalar((u,), (x, Fraction(0))) for x in row_star]
        (work / "v.spec").write_text(fmt.format_vectors(PAIR, h, h_star), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks


def _read(work: Path, name: str):
    return fmt.parse_table((work / name).read_text(encoding="utf-8"))


def _expect_header(head, families, degree, kind=None):
    want = fmt.header(families, degree, kind)
    return None if head == want else f"header {head} != {want}"


def _expect_words(values, families, degree, with_empty=True):
    want = [w for w in fmt.words(families, degree) if w or with_empty]
    if list(values) != want:
        return f"word list differs from the {len(want)} words in graded-lex order"
    return None


def _first(*errors):
    return next((e for e in errors if e), None)


def _check_product(work, _stdout):
    head, joint = _read(work, "prod.dist")
    error = _first(_expect_header(head, PAIR, PRODUCT_DEGREE),
                   _expect_words(joint, PAIR, PRODUCT_DEGREE))
    if error:
        return error
    marginals = [_read(work, f"r{k}.dist")[1] for k in (1, 2)]
    for marginal in marginals:
        for word, value in marginal.items():
            if joint[word] != value:
                return f"marginal moment of {fmt.format_word(word)} differs"
    # Mixed degree-2 cumulants vanish between bi-free families.
    for u in fmt.letters(R1):
        for v in fmt.letters(R2):
            for word in ((u, v), (v, u)):
                if joint[word] != fmt.mul(marginals[0][(u,)], marginals[1][(v,)]):
                    return f"mixed degree-2 moment of {fmt.format_word(word)} does not factor"
    return None


def _check_text(expected):
    def check(_work, stdout):
        return None if stdout == expected else f"stdout {stdout[:80]!r} != {expected!r}"
    return check


def _check_convolution(name, combine_pair):
    def check(work, _stdout):
        head, out = _read(work, name)
        error = _first(_expect_header(head, TRIPLE, CONVOLVE_DEGREE),
                       _expect_words(out, TRIPLE, CONVOLVE_DEGREE))
        if error:
            return error
        mu, nu = _read(work, "x.dist")[1], _read(work, "y.dist")[1]
        for word, want in combine_pair(mu, nu):
            if out[word] != want:
                return f"moment of {fmt.format_word(word)} is not the expected combination"
        return None
    return check


def _additive(mu, nu):
    """Means add, and so do covariances mu(uv) - mu(u)mu(v)."""
    alphabet = fmt.letters(TRIPLE)
    for u in alphabet:
        yield (u,), fmt.add(mu[(u,)], nu[(u,)])
    for u in alphabet:
        for v in alphabet:
            mean = fmt.mul(fmt.add(mu[(u,)], nu[(u,)]), fmt.add(mu[(v,)], nu[(v,)]))
            cov = fmt.add(fmt.sub(mu[(u, v)], fmt.mul(mu[(u,)], mu[(v,)])),
                          fmt.sub(nu[(u, v)], fmt.mul(nu[(u,)], nu[(v,)])))
            yield (u, v), fmt.add(cov, mean)


def _multiplicative(mu, nu):
    """Means multiply."""
    for u in fmt.letters(TRIPLE):
        yield (u,), fmt.mul(mu[(u,)], nu[(u,)])


def _check_gaussian(work, _stdout):
    head, out = _read(work, "gauss.dist")
    error = _first(_expect_header(head, TRIPLE, GAUSSIAN_DEGREE),
                   _expect_words(out, TRIPLE, GAUSSIAN_DEGREE))
    if error:
        return error
    cov = {}
    for line in (work / "cov.cov").read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            pair, _, scalar = line.partition(" : ")
            cov[tuple(pair.split(" "))] = fmt.parse_scalar(scalar)
    return _compare_wick(out, fmt.sides(TRIPLE), cov)


def _compare_wick(table, side_of, cov):
    for word, value in table.items():
        if word and value != oracles.gaussian_moment(word, side_of, cov):
            return f"moment of {fmt.format_word(word)} differs from the bi-free Wick sum"
    return None


def _check_cumulants(work, _stdout):
    head, cum = _read(work, "m.cum")
    error = _first(_expect_header(head, MIXED, CUMULANT_DEGREE, "cumulants"),
                   _expect_words(cum, MIXED, CUMULANT_DEGREE, with_empty=False))
    if error:
        return error
    mu = _read(work, "m.dist")[1]
    alphabet = fmt.letters(MIXED)
    for u in alphabet:
        if cum[(u,)] != mu[(u,)]:
            return f"degree-1 cumulant of {u} is not the mean"
        for v in alphabet:
            if cum[(u, v)] != fmt.sub(mu[(u, v)], fmt.mul(mu[(u,)], mu[(v,)])):
                return f"degree-2 cumulant of {u} {v} is not the covariance"
    return None


def _check_round_trip(work, _stdout):
    back = (work / "m_back.dist").read_bytes()
    return None if back == (work / "m.dist").read_bytes() else "moments(cumulants(m)) != m"


def _check_clt(work, _stdout):
    with open(work / "clt.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["word", "N", "moment", "gaussian", "error", "abs_error"]:
        return f"unexpected CSV header {rows[0]!r}"
    mu = _read(work, "clt.dist")[1]
    words = list(fmt.words(CLT_FAM, CLT_DEGREE))
    expected_keys = [[fmt.format_word(w), str(n)] for n in CLT_NS for w in words]
    if [row[:2] for row in rows[1:]] != expected_keys:
        return "CSV rows are not one per (N, word) in graded-lex order"
    for (word_text, n, moment, *_), word in zip(rows[1:], words * len(CLT_NS)):
        if len(word) > 3:
            continue
        # With a centered input the scaled sum's moments up to degree 3
        # are 1, 0, the covariance, and the third moment over sqrt(N).
        root = isqrt(int(n))
        want = {0: fmt.ONE, 1: fmt.ZERO, 2: mu.get(word)}.get(len(word))
        if len(word) == 3:
            want = (mu[word][0] / root, mu[word][1] / root)
        if fmt.parse_scalar(moment) != want:
            return f"scaled-sum moment of {word_text} at N={n} is {moment}"
    return None


def _check_fock(work, _stdout):
    head, out = _read(work, "fock.dist")
    error = _first(_expect_header(head, PAIR, FOCK_DEGREE), _expect_words(out, PAIR, FOCK_DEGREE))
    if error:
        return error
    h, h_star = {}, {}
    for line in (work / "v.spec").read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            name, _, coords = line.partition(" : ")
            target = h_star if name.endswith("*") else h
            target[name.rstrip("*")] = [fmt.parse_scalar(t) for t in coords.split(" ")]
    # z_v creates h(v) and z_u annihilates against h*(u): mu(uv) = <h(v), h*(u)>.
    alphabet = fmt.letters(PAIR)
    cov = {(u, v): oracles.inner(h[v], h_star[u]) for u in alphabet for v in alphabet}
    for (u, v), want in cov.items():
        if out[(u, v)] != want:
            return f"Fock moment of {u} {v} differs from the inner product"
    return _compare_wick(out, fmt.sides(PAIR), cov)


def _check_group(work, _stdout):
    values = {
        w: (Fraction(oracles.group_moment(w, GROUP_ORDERS)), Fraction(0))
        for w in fmt.words(GROUP_FAM, GROUP_DEGREE)
    }
    text = (work / "group.dist").read_text(encoding="utf-8")
    return None if text == fmt.format_table(GROUP_FAM, GROUP_DEGREE, values) else "table differs"


def _check_witness(work, stdout):
    lines = stdout.splitlines()
    if not lines or lines[0] != "indefinite; witness polynomial:" or len(lines) < 2:
        return f"expected a witness, got {stdout[:80]!r}"
    poly = []
    for line in lines[1:]:
        word_text, _, scalar = line.partition(" : ")
        word = tuple(word_text.split(" ")) if word_text != "()" else ()
        poly.append((word, fmt.parse_scalar(scalar)))
    # Letters are self-adjoint in a table without star closure: P* reverses words.
    form = fmt.ZERO
    for u, cu in poly:
        for w, cw in poly:
            m = oracles.group_moment(tuple(reversed(u)) + w, GROUP_ORDERS)
            if m:
                form = fmt.add(form, fmt.mul(fmt.conj(cu), cw))
    return None if form[0] < 0 else f"witness gives mu(P*P) = {form[0]}, not negative"


# ---------------------------------------------------------------------------
# Job lists


def jobs(workload: str) -> list[Job]:
    if workload == "engine_tables":
        return [
            Job("product", 1, ["product", "--in", "r1.dist", "--in", "r2.dist",
                "--degree", str(PRODUCT_DEGREE), "--out", "prod.dist"], 0,
                _check_product, "prod.dist"),
            Job("check-bifree", 1, ["check-bifree", "--in", "prod.dist",
                "--degree", str(CHECK_DEGREE)], 0,
                _check_text(f"bi-free up to degree {CHECK_DEGREE}\n"), None),
            Job("convolve-add", 2, ["convolve-add", "--in", "x.dist", "--in", "y.dist",
                "--out", "add.dist"], 0, _check_convolution("add.dist", _additive), "add.dist"),
            Job("convolve-mul", 2, ["convolve-mul", "--in", "x.dist", "--in", "y.dist",
                "--out", "mul.dist"], 0,
                _check_convolution("mul.dist", _multiplicative), "mul.dist"),
            Job("group-example", 3, ["group-example", "--orders",
                ",".join(map(str, GROUP_ORDERS)), "--degree", str(GROUP_DEGREE),
                "--out", "group.dist"], 0, _check_group, "group.dist"),
            # A generator of order 3 acts by a unitary that is not
            # self-adjoint, so the form with reversal as involution is
            # indefinite: psd-check exits 1 and prints a witness.
            Job("psd-check", 3, ["psd-check", "--in", "group.dist"], 1, _check_witness, None),
        ]
    if workload == "cumulant_chain":
        return [
            Job("gaussian", 1, ["gaussian", "--cov", "cov.cov", "--degree", str(GAUSSIAN_DEGREE),
                "--out", "gauss.dist"], 0, _check_gaussian, "gauss.dist"),
            # Nonzero third cumulants make N*|error| grow, so clt exits 1 by design.
            Job("clt", 1, ["clt", "--in", "clt.dist", "--ns", ",".join(map(str, CLT_NS)),
                "--degree", str(CLT_DEGREE), "--out", "clt.csv"], 1, _check_clt, "clt.csv"),
            Job("cumulants", 2, ["cumulants", "--in", "m.dist", "--out", "m.cum"], 0,
                _check_cumulants, "m.cum"),
            Job("moments", 2, ["moments", "--in", "m.cum", "--out", "m_back.dist"], 0,
                _check_round_trip, "m_back.dist"),
            Job("fock", 3, ["fock", "--vectors", "v.spec", "--degree", str(FOCK_DEGREE),
                "--out", "fock.dist"], 0, _check_fock, "fock.dist"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def stdout_path(work: Path, job: Job) -> Path:
    return work / f"{job.label}.stdout"


def check_jobs(workload: str, work: Path, labels) -> dict:
    """{label: error or None} for the named jobs of a completed pass."""
    by_label = {job.label: job for job in jobs(workload)}
    errors = {}
    for label in labels:
        job = by_label[label]
        try:
            stdout = stdout_path(work, job).read_text(encoding="utf-8", errors="replace")
            errors[label] = job.check(work, stdout)
        except Exception as exc:  # a malformed output must count as a failed job
            errors[label] = f"check raised {type(exc).__name__}: {exc}"
    return errors


if __name__ == "__main__":
    print(json.dumps(check_jobs(sys.argv[1], Path(sys.argv[2]), sys.argv[3:])))
