import itertools

import pytest
from util import rand_dist

from bifree.cumulant import cumulants_from_moments
from bifree.engine import check_bifree
from bifree.errors import DomainError
from bifree.io import (format_covariance, format_vector_spec, parse_covariance,
                       parse_vector_spec)
from bifree.models import (CovarianceSpec, VectorSpec, annih_left, covariance_from_vectors,
                           create_left, fock_apply, fock_distribution, fock_moment,
                           fock_vacuum, gaussian_dist, gram_psd_check, gram_quadratic_form,
                           group_example_dist)
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, Letter, two_faced, word_star

SIG_LR = two_faced(left=("a",), right=("b",), family=1)
A = Letter(1, LEFT, "a")
B = Letter(1, RIGHT, "b")


def unit_vector_spec(sig):
    keys = {(l.family, l.side, l.index) for l in sig.letters()}
    table = {k: (ONE,) for k in keys}
    return VectorSpec(sig, 1, dict(table), dict(table))


# ---------------------------------------------------------------------------
# Fock operators


def test_annihilation_kills_vacuum():
    assert fock_apply(annih_left((ONE,)), fock_vacuum()).vacuum == ZERO
    assert fock_apply(annih_left((ONE,)), fock_vacuum()).terms == {}


def test_create_then_annihilate_unit_vector():
    e = (ONE,)
    state = fock_apply(annih_left(e), fock_apply(create_left(e), fock_vacuum()))
    assert state.vacuum == ONE and state.terms == {}


def test_degree_two_moment_is_inner_product(rng):
    sig = two_faced(left=("a",), right=("b",), family=1)
    h = {(1, LEFT, "a"): (qi(1), qi(2)), (1, RIGHT, "b"): (qi(0), qi(1, 3))}
    h_star = {(1, LEFT, "a"): (qi(1, 2), qi(0)), (1, RIGHT, "b"): (qi(3), qi(1))}
    spec = VectorSpec(sig, 2, h, h_star)
    # <z_k z_l 1, 1> = <h(l), h*(k)>
    for k, l in itertools.product((A, B), repeat=2):
        hk = h[(l.family, l.side, l.index)]
        hsk = h_star[(k.family, k.side, k.index)]
        expected = sum((u * v.conjugate() for u, v in zip(hk, hsk)), ZERO)
        assert fock_moment(spec, (k, l)) == expected
        assert covariance_from_vectors(spec).value(k, l) == expected


def test_odd_moments_vanish(rng):
    spec = unit_vector_spec(SIG_LR)
    for n in (1, 3, 5):
        for word in itertools.product((A, B), repeat=n):
            assert fock_moment(spec, word) == ZERO


def test_single_variable_fourth_moment_is_catalan():
    sig = two_faced(left=("a",), family=1)
    spec = unit_vector_spec(sig)
    a = Letter(1, LEFT, "a")
    assert fock_moment(spec, (a,) * 2) == ONE
    assert fock_moment(spec, (a,) * 4) == qi(2)
    assert fock_moment(spec, (a,) * 6) == qi(5)


def test_mixed_abab_moment():
    spec = unit_vector_spec(SIG_LR)
    assert fock_moment(spec, (A, B, A, B)) == qi(2)


def test_left_right_swap_invariance_hermitian(rng):
    # real h = h*: swapping adjacent left/right letters preserves moments
    sig = two_faced(left=("a",), right=("b",), family=1)
    h = {(1, LEFT, "a"): (qi(1), qi(1, 2)), (1, RIGHT, "b"): (qi(2, 3), qi(1))}
    spec = VectorSpec(sig, 2, h, dict(h))
    for word in itertools.product((A, B), repeat=4):
        for i in range(3):
            if word[i].side != word[i + 1].side:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
                assert fock_moment(spec, word) == fock_moment(spec, swapped)


def test_star_distribution_conjugation():
    sig = two_faced(left=("a",), right=("b",), family=1, star=True)
    h = {(1, LEFT, "a"): (qi(1), qi(0, 1, 1, 2)), (1, RIGHT, "b"): (qi(0), qi(1))}
    h_star = {(1, LEFT, "a"): (qi(1, 3), qi(2)), (1, RIGHT, "b"): (qi(0, 1, 1, 3), qi(1))}
    spec = VectorSpec(sig, 2, h, h_star)
    tab = fock_distribution(spec, 4)
    for word in sig.words(4):
        assert tab.moment(word_star(sig, word)) == tab.moment(word).conjugate()


def test_fock_equals_gaussian_small():
    spec = unit_vector_spec(SIG_LR)
    assert fock_distribution(spec, 4) == gaussian_dist(covariance_from_vectors(spec), 4)


def test_fock_cumulants_concentrate_in_degree_two():
    spec = unit_vector_spec(SIG_LR)
    table = cumulants_from_moments(fock_distribution(spec, 4), 4)
    cov = covariance_from_vectors(spec)
    for word, value in table.values.items():
        if len(word) == 2:
            assert value == cov.value(*word)
        else:
            assert value == ZERO


# ---------------------------------------------------------------------------
# Gaussian distributions from covariance data


def zero_cov(sig):
    return {(u, v): ZERO for u in sig.letters() for v in sig.letters()}


def test_gaussian_second_moments_are_covariance(rng):
    c = zero_cov(SIG_LR)
    c[(A, B)] = qi(1, 2)
    c[(B, A)] = qi(-1, 3)
    c[(A, A)] = qi(2)
    c[(B, B)] = qi(1)
    g = gaussian_dist(CovarianceSpec(SIG_LR, c), 4)
    for u, v in itertools.product((A, B), repeat=2):
        assert g.moment((u, v)) == c[(u, v)]
    assert g.moment((A,)) == ZERO


def test_gaussian_zero_covariance_is_point():
    from bifree.dist import point_distribution

    g = gaussian_dist(CovarianceSpec(SIG_LR, zero_cov(SIG_LR)), 3)
    assert g == point_distribution(SIG_LR, 3)


def test_gaussian_requires_degree_two():
    with pytest.raises(DomainError):
        gaussian_dist(CovarianceSpec(SIG_LR, zero_cov(SIG_LR)), 1)


# ---------------------------------------------------------------------------
# positivity


def test_identity_covariance_is_positive():
    c = zero_cov(SIG_LR)
    c[(A, A)] = ONE
    c[(B, B)] = ONE
    g = gaussian_dist(CovarianceSpec(SIG_LR, c), 4)
    assert gram_psd_check(g, 4).positive


def test_negative_variance_witness():
    sig = two_faced(left=("a",), family=1)
    a = Letter(1, LEFT, "a")
    c = {(a, a): qi(-1)}
    g = gaussian_dist(CovarianceSpec(sig, c), 4)
    result = gram_psd_check(g, 4)
    assert not result.positive
    assert result.witness == {(a,): ONE}
    assert gram_quadratic_form(g, result.witness) == qi(-1)


def test_hyperbolic_covariance_indefinite():
    c = zero_cov(SIG_LR)
    c[(A, A)] = ONE
    c[(B, B)] = ONE
    c[(A, B)] = qi(2)
    c[(B, A)] = qi(2)
    g = gaussian_dist(CovarianceSpec(SIG_LR, c), 4)
    result = gram_psd_check(g, 4)
    assert not result.positive
    assert gram_quadratic_form(g, result.witness).re < 0


def test_random_gram_psd_from_factorization(rng):
    # C = A^T A is PSD; the Gaussian built on it must pass at degree 4
    letters = SIG_LR.letters()
    for _ in range(3):
        rows = [[qi(rng.randint(-2, 2)) for _ in letters] for _ in range(2)]
        c = {}
        for i, u in enumerate(letters):
            for j, v in enumerate(letters):
                c[(u, v)] = sum((rows[k][i] * rows[k][j] for k in range(2)), ZERO)
        g = gaussian_dist(CovarianceSpec(SIG_LR, c), 4)
        assert gram_psd_check(g, 4).positive


def test_psd_check_requires_degree(rng):
    mu = rand_dist(SIG_LR, 2, rng)
    with pytest.raises(DomainError):
        gram_psd_check(mu, 1)


# ---------------------------------------------------------------------------
# group example


def test_group_single_generator_relations():
    g = group_example_dist([2], 4)
    l = Letter(1, LEFT, "l")
    r = Letter(1, RIGHT, "r")
    assert g.moment((l, r)) == ONE        # u e u = e in Z/2
    assert g.moment((l,)) == ZERO
    assert g.moment((l, l)) == ONE        # u^2 = e
    assert g.moment((l, l, r)) == ZERO


def test_group_exponent_obstruction():
    g = group_example_dist([2, 3], 4)
    l1 = Letter(1, LEFT, "l")
    l2 = Letter(2, LEFT, "l")
    r2 = Letter(2, RIGHT, "r")
    # total exponent of group 2 is 2, not divisible by 3
    assert g.moment((l2, r2)) == ZERO
    assert g.moment((l1, l2, l1)) == ZERO
    assert g.moment((l2, l2, r2)) == ONE  # exponent 3 = 0 mod 3


def test_group_example_is_bifree():
    for orders in ((2, 2), (2, 3)):
        assert check_bifree(group_example_dist(orders, 3), 3).ok


def test_group_orders_validated():
    with pytest.raises(DomainError):
        group_example_dist([1, 2], 3)
    with pytest.raises(DomainError):
        group_example_dist([], 3)


# ---------------------------------------------------------------------------
# covariance / vector spec text formats


def test_covariance_round_trip():
    c = zero_cov(SIG_LR)
    c[(A, B)] = qi(1, 2, 3, 4)
    cov = CovarianceSpec(SIG_LR, c)
    text = format_covariance(cov)
    again = parse_covariance(text)
    assert again.signature == cov.signature and again.c == cov.c
    assert format_covariance(again) == text


def test_vector_spec_round_trip():
    sig = two_faced(left=("a",), right=("b",), family=1, star=True)
    h = {(1, LEFT, "a"): (qi(1), qi(2)), (1, RIGHT, "b"): (qi(0), qi(1, 3))}
    h_star = {(1, LEFT, "a"): (qi(1, 2), qi(0)), (1, RIGHT, "b"): (qi(3), qi(1))}
    spec = VectorSpec(sig, 2, h, h_star)
    text = format_vector_spec(spec)
    again = parse_vector_spec(text)
    assert (again.signature, again.dim, again.h, again.h_star) == (sig, 2, h, h_star)
    assert format_vector_spec(again) == text


def test_vector_spec_requires_both_rows():
    sig = two_faced(left=("a",), family=1)
    with pytest.raises(DomainError):
        VectorSpec(sig, 1, {(1, LEFT, "a"): (ONE,)}, {})
