"""Central-limit experiment harness.

Scaled sums S_N = N^(-1/2) * (sum of N bi-free copies) are computed through
cumulant scaling: the cumulant of a degree-m word picks up the factor
N^(1-m/2), which is rational because N is restricted to perfect squares.
The test-suite checks this against the N-fold bi-free product for small N.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .cumulant import cumulants_from_moments, moments_from_cumulants
from .dist import CumulantTable, Distribution
from .errors import DomainError
from .io import csv_field, join_lines
from .models import CovarianceSpec, gaussian_dist
from .scalars import GaussianRational, decimal_magnitude
from .words import Word, format_word


def _require_centered(table: Distribution | CumulantTable) -> None:
    # the cumulant of one letter is its moment, so either table will do
    for letter in table.signature.letters():
        if table.get((letter,)):
            raise DomainError(
                f"centered input required: word {format_word((letter,))} has "
                "nonzero moment"
            )


def _square_root(n: int) -> int:
    if n < 1 or isqrt(n) ** 2 != n:
        raise DomainError(f"N must be a positive perfect square, got {n}")
    return isqrt(n)


def scaled_sum_dist(table: Distribution | CumulantTable, n: int, degree: int) -> Distribution:
    """Distribution of N^(-1/2) times the sum of N bi-free copies of a
    centered distribution, given by its moment table or its cumulant table."""
    _require_centered(table)
    root = _square_root(n)
    if isinstance(table, Distribution):
        table = cumulants_from_moments(table, degree)
    # N^(1 - m/2) = root^(2 - m) for a word of m letters
    factors = [GaussianRational(Fraction(root) ** (2 - m))
               for m in range(table.signature.longest(table.degree) + 1)]
    scaled = [factors[len(word)] * value for word, value in zip(table.words(), table.ranked)]
    return moments_from_cumulants(CumulantTable(table.signature, table.degree, scaled), degree)


class CltRow(NamedTuple):
    word: Word
    n: int
    moment: GaussianRational
    gaussian: GaussianRational
    error: GaussianRational  # exact difference moment - gaussian


class CltReport(NamedTuple):
    degree: int
    ns: tuple[int, ...]
    rows: list[CltRow]
    decay_ok: bool

    def to_csv(self, write=None) -> str:
        """The report as CSV, returned or handed to `write` as `io.join_lines` does."""
        rows = (
            ",".join(
                (
                    csv_field(format_word(row.word)),
                    str(row.n),
                    csv_field(str(row.moment)),
                    csv_field(str(row.gaussian)),
                    csv_field(str(row.error)),
                    decimal_magnitude(row.error),
                )
            )
            for row in self.rows
        )
        return join_lines(itertools.chain(["word,N,moment,gaussian,error,abs_error"], rows), write)


def _magnitude_squared(value: GaussianRational):
    return value.re * value.re + value.im * value.im


def clt_report(mu: Distribution, ns, degree: int) -> CltReport:
    """Tabulate scaled-sum moments against the limiting central-limit
    distribution with covariance C_kl = mu(kl), and check that N * |error|
    never grows along the sampled N.
    """
    _require_centered(mu)
    ns = tuple(ns)
    for n in ns:  # every N is refused or accepted before any work
        _square_root(n)
    alphabet = mu.signature.letters()
    cov = CovarianceSpec(
        mu.signature, {(u, v): mu.moment((u, v)) for u in alphabet for v in alphabet}
    )
    limit = gaussian_dist(cov, degree)
    rows: list[CltRow] = []
    # N -> the error of every word, in graded-lex order
    errors: dict[int, list[GaussianRational]] = {}
    # the transform refuses a degree past mu's, which an empty N list never needs
    cumulants = cumulants_from_moments(mu, degree) if ns else None
    for n in ns:
        s_n = scaled_sum_dist(cumulants, n, degree)
        errors[n] = []
        for word, moment, gaussian in zip(mu.signature.words(degree), s_n.ranked,
                                          limit.ranked):
            error = moment - gaussian
            rows.append(CltRow(word, n, moment, gaussian, error))
            errors[n].append(error)
    ordered = sorted(errors)
    decay_ok = all(
        larger * larger * _magnitude_squared(big) <= smaller * smaller * _magnitude_squared(small)
        for smaller, larger in zip(ordered, ordered[1:])
        for small, big in zip(errors[smaller], errors[larger])
    )
    return CltReport(degree, ns, rows, decay_ok)
