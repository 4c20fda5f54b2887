import itertools

import pytest
from oracles import (ConvolutionPowerCache, free_cumulant_oracle, linear_coefficient,
                     power_cumulants, power_moments)
from util import rand_dist, rand_scalar

from bifree.convolve import boxplus2
from bifree.cumulant import cumulants_from_moments, dilate, moments_from_cumulants
from bifree.dist import CumulantTable, Distribution, point_distribution
from bifree.engine import bifree_product
from bifree.errors import DomainError, TruncationError
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
    mu = rand_dist(sig, 5, rng, with_imag=True)
    table = cumulants_from_moments(mu, 5)
    assert table == power_cumulants(mu, 5)
    assert moments_from_cumulants(table, 5) == power_moments(table, 5) == mu


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


def test_homogeneity_under_dilation(rng):
    mu = rand_dist(SIG, 3, rng)
    s = rand_scalar(rng)
    scaled = dilate(mu, s)
    r = cumulants_from_moments(mu, 3)
    r_scaled = cumulants_from_moments(scaled, 3)
    for word in r.values:
        assert r_scaled.value(word) == s ** len(word) * r.value(word)


def test_dilate_edge_cases(rng):
    mu = rand_dist(SIG, 3, rng)
    assert dilate(mu, ONE) == mu
    assert dilate(mu, ZERO) == point_distribution(SIG, 3)


def test_triangularity_probe(rng):
    # shifting one top-degree moment shifts its own cumulant by the same
    # amount and leaves every other cumulant of that degree unchanged
    mu = rand_dist(SIG, 3, rng)
    target = (A, C, A)
    shift = qi(7, 3)
    bumped_moments = dict(mu.moments)
    bumped_moments[target] = bumped_moments[target] + shift
    bumped = Distribution(SIG, 3, bumped_moments)
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
    values = {w: ZERO for w in SIG.words(3) if w}
    assert moments_from_cumulants(CumulantTable(SIG, 3, values), 3) == point_distribution(SIG, 3)


def test_first_order_cumulant_alone_gives_powers_of_mean():
    sig = two_faced(left=("x",), family=1)
    x = Letter(1, LEFT, "x")
    m = qi(5, 3)
    values = {w: ZERO for w in sig.words(3) if w}
    values[(x,)] = m
    mu = moments_from_cumulants(CumulantTable(sig, 3, values), 3)
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
