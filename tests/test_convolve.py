import itertools
from math import comb

import pytest
from reference import (boxtimes_cumulants, by_word, dict_retag, noncrossing_partitions,
                       s_transform, series_mul)
from util import coprime_dist, from_words, rand_dist

from bifree.convolve import boxplus2, boxtimes2
from bifree.cumulant import cumulants_from_moments
from bifree.dist import Distribution, ones_distribution, point_distribution
from bifree.engine import bifree_product, joint_moment
from bifree.errors import SignatureError, TruncationError
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, Letter, two_faced

SIG = two_faced(left=("a",), right=("c",), family=1)
A = Letter(1, LEFT, "a")


def test_point_distribution_is_additive_unit(rng):
    mu = rand_dist(SIG, 4, rng)
    assert boxplus2(mu, point_distribution(SIG, 4), 4) == mu
    assert boxplus2(point_distribution(SIG, 4), mu, 4) == mu


def test_centered_second_moments_add(rng):
    mu = rand_dist(SIG, 2, rng, centered=True)
    nu = rand_dist(SIG, 2, rng, centered=True)
    s = boxplus2(mu, nu, 2)
    for u, w in itertools.product(SIG.letters(), repeat=2):
        assert s.moment((u, w)) == mu.moment((u, w)) + nu.moment((u, w))


def test_commutativity(rng):
    mu, nu = rand_dist(SIG, 3, rng), rand_dist(SIG, 3, rng)
    assert boxplus2(mu, nu, 3) == boxplus2(nu, mu, 3)


def test_associativity(rng):
    mu, nu, rho = (rand_dist(SIG, 4, rng) for _ in range(3))
    left = boxplus2(boxplus2(mu, nu, 4), rho, 4)
    right = boxplus2(mu, boxplus2(nu, rho, 4), 4)
    assert left == right


def test_signature_and_degree_errors(rng):
    mu = rand_dist(SIG, 3, rng)
    other = rand_dist(two_faced(left=("a",), right=("c",), family=2), 3, rng)
    with pytest.raises(SignatureError):
        boxplus2(mu, other, 3)
    with pytest.raises(TruncationError):
        boxplus2(mu, rand_dist(SIG, 2, rng), 3)


def _assert_matches_tagged_expansion(mu, nu, degree):
    # independent route: re-tag both inputs, take the bi-free product, and
    # sum the 2^n tagged words per output word
    joint = bifree_product([dict_retag(mu, {1: "m"}), dict_retag(nu, {1: "n"})], degree)
    fast = boxplus2(mu, nu, degree)
    for word in SIG.words(degree):
        total = ZERO
        for tags in itertools.product("mn", repeat=len(word)):
            tagged = tuple(
                Letter(t, l.side, l.index, l.star) for l, t in zip(word, tags)
            )
            total = total + joint.moment(tagged)
        assert fast.moment(word) == total


def test_matches_tagged_expansion_through_product(rng):
    _assert_matches_tagged_expansion(rand_dist(SIG, 3, rng), rand_dist(SIG, 3, rng), 3)


def test_additive_on_complex_coprime_denominators(rng):
    mu, nu = coprime_dist(SIG, 4, rng, 7, 11), coprime_dist(SIG, 4, rng, 13, 1)
    _assert_matches_tagged_expansion(mu, nu, 4)


def test_multiplicative_units(rng):
    mu = rand_dist(SIG, 3, rng)
    assert boxtimes2(mu, ones_distribution(SIG, 3), 3) == mu
    assert boxtimes2(ones_distribution(SIG, 3), mu, 3) == mu


def _assert_matches_doubled_word_route(mu, nu, degree):
    marginals = {"m": dict_retag(mu, {1: "m"}), "n": dict_retag(nu, {1: "n"})}
    fast = boxtimes2(mu, nu, degree)
    for word in SIG.words(degree):
        doubled = []
        for letter in word:
            doubled.append(Letter("m", letter.side, letter.index, letter.star))
            doubled.append(Letter("n", letter.side, letter.index, letter.star))
        assert fast.moment(word) == joint_moment(marginals, tuple(doubled))


def test_multiplicative_matches_doubled_word_route(rng):
    _assert_matches_doubled_word_route(rand_dist(SIG, 3, rng), rand_dist(SIG, 3, rng), 3)


def test_multiplicative_on_complex_coprime_denominators(rng):
    mu, nu = coprime_dist(SIG, 3, rng, 7, 11), coprime_dist(SIG, 3, rng, 13, 1)
    _assert_matches_doubled_word_route(mu, nu, 3)


def test_s_transform_of_boxtimes_is_the_product_of_the_s_transforms(rng):
    # S to total degree 5 reads every moment a^m c^n of the degree-7 tables
    c = Letter(1, RIGHT, "c")
    degree, order = 7, 5
    for _ in range(3):
        tables = rand_dist(SIG, degree, rng), rand_dist(SIG, degree, rng)
        mu, nu = (  # S needs nonzero means
            from_words(Distribution, SIG, degree, {**dist.moments, **{
                (letter,): qi(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
                for letter in (A, c)}})
            for dist in tables
        )
        expected = series_mul(s_transform(mu, A, c, order), s_transform(nu, A, c, order), order)
        product = boxtimes2(mu, nu, degree)
        assert s_transform(product, A, c, order) == expected
        assert s_transform(boxplus2(mu, nu, degree), A, c, order) != expected
    # a change to any one mixed moment a^m c^n of the last product breaks it
    for m, n in itertools.product(range(1, degree), repeat=2):
        if m + n <= degree:
            moments = dict(product.moments)
            moments[(A,) * m + (c,) * n] += qi(1, 7)
            perturbed = from_words(Distribution, SIG, degree, moments)
            assert s_transform(perturbed, A, c, order) != expected, (m, n)


def test_noncrossing_partitions_are_counted_by_the_catalan_numbers():
    for n in range(11):
        partitions = noncrossing_partitions(n)
        assert len(partitions) == comb(2 * n, n) // (n + 1)
        assert len({frozenset(partition) for partition in partitions}) == len(partitions)
        assert all(block for partition in partitions for block in partition)
        assert all(sorted(itertools.chain(*partition)) == list(range(n))
                   for partition in partitions)


@pytest.mark.parametrize("left, with_imag", [("a", False), ("ab", False), ("a", True)])
def test_boxtimes_cumulants_are_products_as_entries(rng, left, with_imag):
    sig = two_faced(left=tuple(left), right=("c",), family=1)
    mu, nu = (rand_dist(sig, 4, rng, with_imag=with_imag) for _ in range(2))
    oracle = boxtimes_cumulants(mu, nu, 4)
    assert by_word(cumulants_from_moments(boxtimes2(mu, nu, 4), 4)) == oracle
    # negative controls: a right letter's copies the other way round, and
    # the additive convolution, each differ from the oracle
    assert boxtimes_cumulants(mu, nu, 4, right_order=(1, 0)) != oracle
    assert by_word(cumulants_from_moments(boxplus2(mu, nu, 4), 4)) != oracle


def test_boxtimes_cumulants_at_degree_5_on_complex_tables(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    mu, nu = (rand_dist(sig, 5, rng, with_imag=True) for _ in range(2))
    assert by_word(cumulants_from_moments(boxtimes2(mu, nu, 5), 5)) == boxtimes_cumulants(
        mu, nu, 5)


def test_multiplicative_example_single_left_variable():
    sig = two_faced(left=("x",), family=1)
    x = Letter(1, LEFT, "x")

    def dist(m1, m2):
        moments = {(): ONE, (x,): m1, (x, x): m2}
        return from_words(Distribution, sig, 2, moments)

    mu = dist(ZERO, ONE)   # centered, variance 1
    nu = dist(ONE, ONE)    # mean 1, second moment 1
    product = boxtimes2(mu, nu, 2)
    assert product.moment((x,)) == ZERO
    assert product.moment((x, x)) == ONE


def test_gaussian_covariances_add(rng):
    from bifree.models import CovarianceSpec, gaussian_dist

    letters = SIG.letters()

    def rand_cov():
        return {(u, v): qi(rng.randint(-2, 2), rng.randint(1, 2))
                for u in letters for v in letters}

    c1, c2 = rand_cov(), rand_cov()
    g1 = gaussian_dist(CovarianceSpec(SIG, c1), 4)
    g2 = gaussian_dist(CovarianceSpec(SIG, c2), 4)
    total = CovarianceSpec(SIG, {k: c1[k] + c2[k] for k in c1})
    assert boxplus2(g1, g2, 4) == gaussian_dist(total, 4)


def test_cumulant_linearization(rng):
    from bifree.cumulant import cumulants_from_moments

    mu, nu = rand_dist(SIG, 3, rng), rand_dist(SIG, 3, rng)
    r = cumulants_from_moments(boxplus2(mu, nu, 3), 3)
    r1, r2 = cumulants_from_moments(mu, 3), cumulants_from_moments(nu, 3)
    assert all(r.value(w) == r1.value(w) + r2.value(w) for w in r.values)
