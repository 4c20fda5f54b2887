import itertools
import tracemalloc

import pytest
from reference import (ConvolutionPowerCache, free_cumulant_oracle, linear_coefficient,
                       power_cumulants, power_moments)
from util import coprime_dist, from_words, rand_dist, rand_scalar

import bifree.cumulant
import bifree.dist
from bifree.cli import main
from bifree.convolve import boxplus2
from bifree.cumulant import cumulants_from_moments, moments_from_cumulants
from bifree.dist import CumulantTable, Distribution, point_distribution
from bifree.engine import bifree_product
from bifree.errors import DomainError, TruncationError
from bifree.io import format_covariance
from bifree.models import CovarianceSpec, gaussian_dist
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, two_faced

SIG = two_faced(left=("a",), right=("c",), family=1)
A = Letter(1, LEFT, "a")
C = Letter(1, RIGHT, "c")


def test_power_cache_invariants(rng):
    mu = rand_dist(SIG, 3, rng)
    cache = ConvolutionPowerCache(mu)
    assert cache.power(0) == point_distribution(SIG, 3)
    assert cache.power(1) == mu
    assert cache.power(3) == boxplus2(cache.power(2), mu, 3)


def test_recursion_matches_convolution_power_oracle(rng):
    sig = FaceSignature((FamilyFaces(1, ("a",), ("c",)), FamilyFaces(2, (), ("d",))))
    for mu in (rand_dist(sig, 5, rng, with_imag=True), coprime_dist(sig, 5, rng, 7, 11)):
        table = cumulants_from_moments(mu, 5)
        assert table == power_cumulants(mu, 5)
        assert moments_from_cumulants(table, 5) == power_moments(table, 5) == mu
    # D comes only from the words up to the requested degree.
    cut = from_words(Distribution, sig, 2, {w: v for w, v in mu.moments.items() if len(w) <= 2})
    assert cumulants_from_moments(mu, 2) == cumulants_from_moments(cut, 2)


@pytest.mark.parametrize("zero", [(1, 3, 4, 5), (1,), (3,)],
                         ids=["gaussian", "degree-one", "middle-degree"])
def test_moments_skip_the_blocks_of_lengths_with_no_nonzero_cumulant(rng, zero, monkeypatch):
    sig = FaceSignature((FamilyFaces(1, ("a",), ("c",)), FamilyFaces(2, (), ("d",))))
    values = [ZERO if len(word) in zero else rand_scalar(rng, with_imag=True)
              for word in itertools.islice(sig.words(5), 1, None)]
    table = CumulantTable(sig, 5, values)
    lengths = set()
    first_blocks = bifree.cumulant._first_blocks

    def listing(lefts, sizes):
        blocks = first_blocks(lefts, sizes)
        lengths.update(len(block) for block, _ in blocks)
        return blocks

    monkeypatch.setattr(bifree.cumulant, "_first_blocks", listing)
    mu = moments_from_cumulants(table, 5)
    assert lengths == set(range(1, 5)) - set(zero)
    assert mu == power_moments(table, 5)
    assert cumulants_from_moments(mu, 5) == table


def test_mixed_family_cumulants_of_product_vanish(rng):
    marginals = [
        rand_dist(two_faced(left=("a",), right=("c",), family=1), 5, rng, with_imag=True),
        rand_dist(two_faced(left=("b",), right=("d", "e"), family=2), 5, rng),
    ]
    table = cumulants_from_moments(bifree_product(marginals, 5), 5)
    for word, value in table.values.items():
        if len({letter.family for letter in word}) > 1:
            assert value == ZERO, word
    for mu in marginals:
        for word, value in cumulants_from_moments(mu, 5).values.items():
            assert table.value(word) == value


def test_degree_one_and_two_closed_forms(rng):
    for _ in range(5):
        mu = rand_dist(SIG, 2, rng, with_imag=True)
        table = cumulants_from_moments(mu, 2)
        for x in (A, C):
            assert table.value((x,)) == mu.moment((x,))
        for x, y in itertools.product((A, C), repeat=2):
            expected = mu.moment((x, y)) - mu.moment((x,)) * mu.moment((y,))
            assert table.value((x, y)) == expected


def test_additivity_under_convolution(rng):
    for _ in range(5):
        mu, nu = rand_dist(SIG, 4, rng), rand_dist(SIG, 4, rng)
        r_sum = cumulants_from_moments(boxplus2(mu, nu, 4), 4)
        r_mu = cumulants_from_moments(mu, 4)
        r_nu = cumulants_from_moments(nu, 4)
        for word in r_sum.values:
            assert r_sum.value(word) == r_mu.value(word) + r_nu.value(word)


def test_pure_left_degree_three_closed_form(rng):
    sig = two_faced(left=("x",), family=1)
    x = Letter(1, LEFT, "x")
    mu = rand_dist(sig, 3, rng)
    m1, m2, m3 = (mu.moment((x,) * k) for k in (1, 2, 3))
    table = cumulants_from_moments(mu, 3)
    assert table.value((x,) * 3) == m3 - 3 * m1 * m2 + 2 * m1**3


def _dilate(mu, s):
    """Scale every variable by s: the moment of a word picks up s^|w|."""
    return Distribution(mu.signature, mu.degree,
                        [s ** len(w) * v for w, v in zip(mu.words(), mu.ranked)])


def test_homogeneity_under_dilation(rng):
    mu = rand_dist(SIG, 3, rng)
    s = rand_scalar(rng)
    scaled = _dilate(mu, s)
    r = cumulants_from_moments(mu, 3)
    r_scaled = cumulants_from_moments(scaled, 3)
    for word in r.values:
        assert r_scaled.value(word) == s ** len(word) * r.value(word)


def test_dilate_edge_cases(rng):
    mu = rand_dist(SIG, 3, rng)
    assert _dilate(mu, ONE) == mu
    assert _dilate(mu, ZERO) == point_distribution(SIG, 3)


def test_triangularity_probe(rng):
    # shifting one top-degree moment shifts its own cumulant by the same
    # amount and leaves every other cumulant of that degree unchanged
    mu = rand_dist(SIG, 3, rng)
    target = (A, C, A)
    shift = qi(7, 3)
    bumped_moments = dict(mu.moments)
    bumped_moments[target] = bumped_moments[target] + shift
    bumped = from_words(Distribution, SIG, 3, bumped_moments)
    r0 = cumulants_from_moments(mu, 3)
    r1 = cumulants_from_moments(bumped, 3)
    for word in r0.values:
        if word == target:
            assert r1.value(word) == r0.value(word) + shift
        elif len(word) == 3:
            assert r1.value(word) == r0.value(word)


def test_inverse_pair_round_trip(rng):
    for _ in range(3):
        mu = rand_dist(SIG, 4, rng, with_imag=True)
        table = cumulants_from_moments(mu, 4)
        assert moments_from_cumulants(table, 4) == mu
        again = cumulants_from_moments(moments_from_cumulants(table, 4), 4)
        assert again == table


def test_all_zero_cumulants_give_point_distribution():
    values = [ZERO for w in SIG.words(3) if w]
    assert moments_from_cumulants(CumulantTable(SIG, 3, values), 3) == point_distribution(SIG, 3)


def test_first_order_cumulant_alone_gives_powers_of_mean():
    sig = two_faced(left=("x",), family=1)
    x = Letter(1, LEFT, "x")
    m = qi(5, 3)
    values = {w: ZERO for w in sig.words(3) if w}
    values[(x,)] = m
    mu = moments_from_cumulants(from_words(CumulantTable, sig, 3, values), 3)
    assert mu.moment((x,)) == m
    assert mu.moment((x, x)) == m**2
    assert mu.moment((x, x, x)) == m**3


def test_single_side_words_match_nc_oracle(rng):
    sig = two_faced(left=("x", "y"), family=1)
    mu = rand_dist(sig, 4, rng)
    table = cumulants_from_moments(mu, 4)
    letters = sig.letters()
    for n in range(1, 5):
        for word in itertools.product(letters, repeat=n):
            assert table.value(word) == free_cumulant_oracle(mu, word)


def test_oracle_point_mass_cumulants():
    sig = two_faced(left=("x",), family=1)
    x = Letter(1, LEFT, "x")
    from bifree.dist import ones_distribution

    mu = ones_distribution(sig, 4)
    kappa = [free_cumulant_oracle(mu, (x,) * k) for k in (1, 2, 3, 4)]
    assert kappa == [ONE, ZERO, ZERO, ZERO]


def test_oracle_rejects_mixed_words(rng):
    mu = rand_dist(SIG, 2, rng)
    with pytest.raises(DomainError):
        free_cumulant_oracle(mu, (A, C))
    with pytest.raises(DomainError):
        free_cumulant_oracle(mu, ())


def test_interpolation_well_posedness(rng):
    # the power polynomial of a word has degree <= |word| (an extra node
    # is reproduced) and constant term 0
    mu = rand_dist(SIG, 3, rng)
    cache = ConvolutionPowerCache(mu)
    for word in SIG.words(3):
        if not word:
            continue
        n = len(word)
        nodes = [cache.power(k).moment(word) for k in range(n + 2)]
        assert nodes[0] == ZERO
        # Newton forward expansion using nodes 0..n must reproduce node n+1
        coeffs = []
        row = nodes[: n + 1]
        while row:
            coeffs.append(row[0])
            row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        extra = n + 1
        value = ZERO
        binom = 1
        for m, delta in enumerate(coeffs):
            value = value + binom * delta
            binom = binom * (extra - m) // (m + 1)
        assert value == nodes[extra]


def test_linear_coefficient_on_known_polynomial():
    # p(N) = 2N + 3N^2 sampled at 0..2
    values = [qi(0), qi(5), qi(16)]
    assert linear_coefficient(values) == qi(2)


def test_requires_sufficient_degree(rng):
    mu = rand_dist(SIG, 2, rng)
    with pytest.raises(TruncationError):
        cumulants_from_moments(mu, 3)
    table = cumulants_from_moments(mu, 2)
    with pytest.raises(TruncationError):
        moments_from_cumulants(table, 3)


def test_the_recursion_holds_the_blocks_of_one_pattern_at_a_time():
    # a word's first blocks depend only on its left/right pattern; there are
    # 2^n patterns of n letters with 2^(n-1) blocks each, so holding every
    # pattern's blocks at once would take megabytes here
    cov = CovarianceSpec(SIG, {pair: ONE for pair in itertools.product((A, C), repeat=2)})
    tracemalloc.start()
    try:
        gaussian_dist(cov, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_an_oversize_first_block_list_is_refused_before_it_starts(monkeypatch, tmp_path,
                                                                  capsys):
    # one letter to degree 8 is only 9 words, but the word of 8 letters has
    # 2^7 - 1 = 127 proper first blocks, and degree 7 has 63
    monkeypatch.setattr(bifree.dist, "MAX_WORDS", 100)
    listed = []
    first_blocks = bifree.cumulant._first_blocks
    monkeypatch.setattr(bifree.cumulant, "_first_blocks",
                        lambda lefts, sizes: listed.append(lefts) or first_blocks(lefts, sizes))
    sig = two_faced(left=("a",), family=1)
    a = Letter(1, LEFT, "a")
    cov = CovarianceSpec(sig, {(a, a): ONE})
    message = ("the first-block list of a word of 8 letters has 127 entries, "
               "more than the limit of 100")
    with pytest.raises(DomainError, match=f"^{message}$"):
        gaussian_dist(cov, 8)
    with pytest.raises(DomainError, match=f"^{message}$"):
        cumulants_from_moments(point_distribution(sig, 8), 8)
    assert listed == []
    assert gaussian_dist(cov, 7).degree == 7
    cov_path, out = tmp_path / "a.cov", tmp_path / "g.dist"
    cov_path.write_text(format_covariance(cov))
    assert main(["gaussian", "--cov", str(cov_path), "--degree", "8", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
