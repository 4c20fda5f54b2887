import pytest
from oracles import scaled_sum_dist_direct
from util import from_words, rand_dist

import bifree.clt
from bifree.clt import CltReport, CltRow, clt_report, scaled_sum_dist
from bifree.cumulant import cumulants_from_moments
from bifree.dist import Distribution
from bifree.errors import DomainError
from bifree.models import CovarianceSpec, gaussian_dist, gram_psd_check
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, Letter, two_faced

SIG = two_faced(left=("a",), family=1)
A = Letter(1, LEFT, "a")


def single_left(m2, m4, degree=4):
    moments = {w: ZERO for w in SIG.words(degree)}
    moments[()] = ONE
    moments[(A, A)] = m2
    moments[(A, A, A, A)] = m4
    return from_words(Distribution, SIG, degree, moments)


def test_n_equal_one_is_identity(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    mu = rand_dist(sig, 4, rng, centered=True)
    assert scaled_sum_dist(mu, 1, 4) == mu
    assert scaled_sum_dist_direct(mu, 1, 4) == mu


def test_degree_two_moments_invariant(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    mu = rand_dist(sig, 4, rng, centered=True)
    for n in (4, 9, 16):
        s = scaled_sum_dist(mu, n, 4)
        for u in sig.letters():
            for w in sig.letters():
                assert s.moment((u, w)) == mu.moment((u, w))


def test_known_fourth_moment_at_n_four():
    mu = single_left(ONE, qi(5))
    s4 = scaled_sum_dist(mu, 4, 4)
    assert s4.moment((A,) * 4) == qi(11, 4)


def test_cumulant_scaling_equals_direct_product_path(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    mu = rand_dist(sig, 4, rng, centered=True)
    cumulants = cumulants_from_moments(mu, 4)
    for n in (1, 4):
        assert scaled_sum_dist(mu, n, 4) == scaled_sum_dist_direct(mu, n, 4)
        assert scaled_sum_dist(cumulants, n, 4) == scaled_sum_dist(mu, n, 4)
    assert scaled_sum_dist(cumulants, 4, 3) == scaled_sum_dist(mu, 4, 3)


def test_preconditions():
    mu = single_left(ONE, qi(5))
    with pytest.raises(DomainError):
        scaled_sum_dist(mu, 3, 4)  # not a perfect square
    uncentered = dict(mu.moments)
    uncentered[(A,)] = ONE
    bad = from_words(Distribution, SIG, 4, uncentered)
    # the cumulant of one letter is its moment: either table is refused alike
    for table in (bad, cumulants_from_moments(bad, 4)):
        with pytest.raises(DomainError, match="^centered input required: word 1.a has nonzero"):
            scaled_sum_dist(table, 4, 4)
    with pytest.raises(DomainError):
        clt_report(bad, [4], 4)


def test_report_errors_decay_exactly():
    mu = single_left(ONE, qi(5))
    report = clt_report(mu, [4, 16, 64], 4)
    errors = {row.n: row.error for row in report.rows if row.word == (A,) * 4}
    assert errors == {4: qi(3, 4), 16: qi(3, 16), 64: qi(3, 64)}
    assert report.decay_ok
    assert all(row.error == ZERO for row in report.rows if len(row.word) == 2)


def test_gaussian_input_has_zero_errors():
    cov = {(A, A): qi(1, 2)}
    gamma = gaussian_dist(CovarianceSpec(SIG, cov), 4)
    report = clt_report(gamma, [4, 16], 4)
    assert all(row.error == ZERO for row in report.rows)


def test_hermitian_input_gives_psd_limit(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    c_letter = Letter(1, "right", "c")
    # hermitian-style moment table: symmetric second moments from a
    # factorization, higher moments arbitrary
    mu = rand_dist(sig, 4, rng, centered=True)
    moments = dict(mu.moments)
    moments[(A, A)] = qi(2)
    moments[(c_letter, c_letter)] = qi(1)
    moments[(A, c_letter)] = qi(1)
    moments[(c_letter, A)] = qi(1)
    mu = from_words(Distribution, sig, 4, moments)
    report = clt_report(mu, [4], 4)
    cov = CovarianceSpec(
        sig, {(u, v): mu.moment((u, v)) for u in sig.letters() for v in sig.letters()}
    )
    limit = gaussian_dist(cov, 4)
    assert gram_psd_check(limit, 4).positive
    assert report.decay_ok


def test_csv_output_shape():
    mu = single_left(ONE, qi(5))
    report = clt_report(mu, [4], 2)
    text = report.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "word,N,moment,gaussian,error,abs_error"
    assert len(lines) == 1 + len(list(SIG.words(2)))
    assert '"()"' in lines[1]


def test_report_transforms_once_and_matches_per_n_scaled_sums(rng, monkeypatch):
    sig = two_faced(left=("a",), right=("c",), family=1)
    mu = rand_dist(sig, 4, rng, centered=True, with_imag=True)
    ns = (4, 16, 64)
    # the report as one scaled_sum_dist per N gives it, each with its own transform
    cov = CovarianceSpec(sig, {(u, v): mu.moment((u, v))
                               for u in sig.letters() for v in sig.letters()})
    limit = gaussian_dist(cov, 4)
    rows = []
    for n in ns:
        s_n = scaled_sum_dist(mu, n, 4)
        for word in sig.words(4):
            error = s_n.moment(word) - limit.moment(word)
            rows.append(CltRow(word, n, s_n.moment(word), limit.moment(word), error))
    expected = CltReport(4, ns, rows, False).to_csv()

    calls = []
    transform = bifree.clt.cumulants_from_moments

    def counted(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(bifree.clt, "cumulants_from_moments", counted)
    sums = []
    scaled = bifree.clt.scaled_sum_dist
    monkeypatch.setattr(bifree.clt, "scaled_sum_dist",
                        lambda *args: sums.append(args[1]) or scaled(*args))
    assert clt_report(mu, ns, 4).to_csv() == expected
    # one transform, then each N through scaled_sum_dist, as perfbench counts it
    assert len(calls) == 1 and sums == list(ns)
