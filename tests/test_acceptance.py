"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failure).  Every expected value is either exact by
construction or checked against an independent route computed here.
"""

import itertools
import random

import pytest
from oracles import free_cumulant_oracle, naive_joint_moment
from util import rand_dist

from bifree.cli import main
from bifree.clt import clt_report, scaled_sum_dist, scaled_sum_dist_direct
from bifree.convolve import boxplus2
from bifree.cumulant import cumulants_from_moments
from bifree.dist import Distribution, group_families
from bifree.engine import (apply_left, apply_right, bifree_product, check_bifree,
                           joint_moment, vacuum_state)
from bifree.io import format_distribution
from bifree.models import (CovarianceSpec, VectorSpec, covariance_from_vectors,
                           fock_distribution, gaussian_dist, gram_psd_check)
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, Letter, two_faced


def report(number, ok, text):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_engine_matches_naive_expansion():
    rng = random.Random(101)
    sig1 = two_faced(left=("a",), right=("c",), family=1)
    sig2 = two_faced(left=("a",), right=("c",), family=2)
    marginals = {1: rand_dist(sig1, 5, rng), 2: rand_dist(sig2, 5, rng)}
    letters = [l for sig in (sig1, sig2) for l in sig.letters()]
    checked = 0
    ok = True
    for n in range(6):
        for word in itertools.product(letters, repeat=n):
            if joint_moment(marginals, word) != naive_joint_moment(marginals, word):
                ok = False
            checked += 1
    report(1, ok and checked == 1365,
           f"joint moments equal the naive expansion on {checked} words of degree <= 5")


def test_criterion_02_cumulant_additivity():
    rng = random.Random(102)
    sig = two_faced(left=("a",), right=("c",), family=1)
    ok = True
    for _ in range(20):
        mu, nu = rand_dist(sig, 5, rng), rand_dist(sig, 5, rng)
        r_sum = cumulants_from_moments(boxplus2(mu, nu, 5), 5)
        r_mu = cumulants_from_moments(mu, 5)
        r_nu = cumulants_from_moments(nu, 5)
        for word in r_sum.values:
            if r_sum.value(word) != r_mu.value(word) + r_nu.value(word):
                ok = False
    report(2, ok, "cumulants add under additive convolution, 20 random pairs, degree 5")


def test_criterion_03_degree_two_closed_forms():
    rng = random.Random(103)
    sig = two_faced(left=("a",), right=("c",), family=1)
    ok = True
    for _ in range(10):
        mu = rand_dist(sig, 2, rng, with_imag=True)
        table = cumulants_from_moments(mu, 2)
        for x in sig.letters():
            if table.value((x,)) != mu.moment((x,)):
                ok = False
        for x, y in itertools.product(sig.letters(), repeat=2):
            want = mu.moment((x, y)) - mu.moment((x,)) * mu.moment((y,))
            if table.value((x, y)) != want:
                ok = False
    report(3, ok, "R_a = mu(a) and R_ab = mu(ab) - mu(a)mu(b) on random inputs")


def test_criterion_04_free_reduction():
    rng = random.Random(104)
    ok = True
    for sig in (two_faced(left=("x", "y"), family=1),
                two_faced(right=("u",), family=2)):
        mu = rand_dist(sig, 5, rng)
        table = cumulants_from_moments(mu, 5)
        for word in sig.words(5):
            if word and table.value(word) != free_cumulant_oracle(mu, word):
                ok = False
    report(4, ok, "single-side cumulants equal the non-crossing partition oracle, degree <= 5")


def test_criterion_05_gaussian_characterization():
    sig = two_faced(left=("a", "b"), right=("c", "d"), family=1)
    h = {
        (1, LEFT, "a"): (qi(1), qi(1, 2)),
        (1, LEFT, "b"): (qi(0), qi(2, 3)),
        (1, RIGHT, "c"): (qi(-1, 2), qi(1)),
        (1, RIGHT, "d"): (qi(1, 3), qi(0)),
    }
    h_star = {
        (1, LEFT, "a"): (qi(1), qi(-1, 3)),
        (1, LEFT, "b"): (qi(1, 2), qi(1)),
        (1, RIGHT, "c"): (qi(2), qi(0)),
        (1, RIGHT, "d"): (qi(0), qi(3, 4)),
    }
    spec = VectorSpec(sig, 2, h, h_star)
    tab = fock_distribution(spec, 6)
    cov = covariance_from_vectors(spec)
    cumulants = cumulants_from_moments(tab, 6)
    ok = True
    for word, value in cumulants.values.items():
        if len(word) == 2:
            k, l = word
            inner = sum(
                (u * v for u, v in zip(h[(1, l.side, l.index)],
                                       h_star[(1, k.side, k.index)])),
                ZERO,
            )
            if value != inner:
                ok = False
        elif value != ZERO:
            ok = False
    gaussian = gaussian_dist(cov, 6)
    if tab != gaussian:
        ok = False
    report(5, ok, "Fock cumulants live in degree 2 with C_kl = <h(l), h*(k)>; "
                  "tabulation equals the Gaussian to degree 6")


def _hermitian_signature(size):
    lefts = tuple(f"x{i}" for i in range((size + 1) // 2))
    rights = tuple(f"y{i}" for i in range(size // 2))
    return two_faced(left=lefts, right=rights, family=1)


def _covariance_from_matrix(sig, matrix):
    letters = sig.letters()
    return CovarianceSpec(
        sig,
        {(u, v): matrix[i][j] for i, u in enumerate(letters) for j, v in enumerate(letters)},
    )


def _psd_matrix(size, rng):
    rows = [[qi(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(size)]
            for _ in range(size)]
    return [
        [sum((rows[k][i] * rows[k][j] for k in range(size)), ZERO) for j in range(size)]
        for i in range(size)
    ]


def _indefinite_matrix(size, rng):
    base = _psd_matrix(size, rng)
    v = [qi(rng.randint(-2, 2)) for _ in range(size)]
    if not any(v):
        v[0] = ONE
    vbv = sum((v[i] * base[i][j] * v[j] for i in range(size) for j in range(size)), ZERO)
    norm2 = sum((x * x for x in v), ZERO)
    scale = (vbv + ONE) / (norm2 * norm2)
    return [
        [base[i][j] - scale * v[i] * v[j] for j in range(size)] for i in range(size)
    ], v


def _direct_quadratic_value(mu, poly):
    # independent evaluation of mu(P*P) with reversal as the involution
    total = ZERO
    for u, cu in poly.items():
        for w, cw in poly.items():
            total = total + cu.conjugate() * cw * mu.moment(tuple(reversed(u)) + w)
    return total


def test_criterion_06_positivity():
    rng = random.Random(106)
    ok = True
    for size in (1, 2, 3, 4, 1, 2, 3, 4, 2, 3):
        sig = _hermitian_signature(size)
        gaussian = gaussian_dist(_covariance_from_matrix(sig, _psd_matrix(size, rng)), 6)
        if not gram_psd_check(gaussian, 6).positive:
            ok = False
    for size in (1, 2, 3, 4, 2):
        sig = _hermitian_signature(size)
        matrix, v = _indefinite_matrix(size, rng)
        gaussian = gaussian_dist(_covariance_from_matrix(sig, matrix), 6)
        result = gram_psd_check(gaussian, 6)
        if result.positive:
            ok = False
            continue
        value = _direct_quadratic_value(gaussian, result.witness)
        if value.im != 0 or value.re >= 0:
            ok = False
    report(6, ok, "PSD factorizations pass at degree 6; indefinite matrices yield "
                  "verified witnesses")


def test_criterion_07_central_limit():
    sig = two_faced(left=("a",), family=1)
    a = Letter(1, LEFT, "a")
    moments = {w: ZERO for w in sig.words(4)}
    moments[()] = ONE
    moments[(a, a)] = ONE
    moments[(a, a, a, a)] = qi(5)
    mu = Distribution(sig, 4, moments)
    rep = clt_report(mu, [4, 16, 64], 4)
    errors = {row.n: row.error for row in rep.rows if row.word == (a,) * 4}
    ok = errors == {4: qi(3, 4), 16: qi(3, 16), 64: qi(3, 64)}
    ok = ok and scaled_sum_dist(mu, 4, 4) == scaled_sum_dist_direct(mu, 4, 4)
    report(7, ok, "fourth-moment errors are exactly 3/4, 3/16, 3/64 and the "
                  "scaling path equals the direct 4-fold product")


def test_criterion_08_independence_structure():
    rng = random.Random(108)
    sig1 = two_faced(left=("a", "b"), family=1)
    sig2 = two_faced(right=("u", "v"), family=2)
    mu1, mu2 = rand_dist(sig1, 3, rng), rand_dist(sig2, 3, rng)
    marginals = {1: mu1, 2: mu2}
    ok = True
    words1 = [w for w in sig1.words(3)]
    words2 = [w for w in sig2.words(3)]
    for u in words1:
        for w in words2:
            m, k = len(u), len(w)
            for positions in itertools.combinations(range(m + k), m):
                taken = set(positions)
                mixed, i, j = [], 0, 0
                for pos in range(m + k):
                    if pos in taken:
                        mixed.append(u[i])
                        i += 1
                    else:
                        mixed.append(w[j])
                        j += 1
                if joint_moment(marginals, tuple(mixed)) != mu1.moment(u) * mu2.moment(w):
                    ok = False
    report(8, ok, "left-of-family-1 and right-of-family-2 words factor over "
                  "all interleavings, degrees <= 3")


def test_criterion_09_commutation():
    rng = random.Random(109)
    sig1 = two_faced(left=("a",), right=("c",), family=1)
    sig2 = two_faced(left=("a",), right=("c",), family=2)
    marginals = {1: rand_dist(sig1, 8, rng), 2: rand_dist(sig2, 8, rng)}
    letters = [l for s in (sig1, sig2) for l in s.letters()]
    a1 = Letter(1, LEFT, "a")
    c2 = Letter(2, RIGHT, "c")
    ok = True
    for _ in range(100):
        state = vacuum_state()
        for _ in range(rng.randint(0, 5)):
            letter = rng.choice(letters)
            mu = marginals[letter.family]
            if letter.side == LEFT:
                state = apply_left(letter.family, letter, state, mu)
            else:
                state = apply_right(letter.family, letter, state, mu)
        lr = apply_left(1, a1, apply_right(2, c2, state, marginals[2]), marginals[1])
        rl = apply_right(2, c2, apply_left(1, a1, state, marginals[1]), marginals[2])
        if lr != rl:
            ok = False
    report(9, ok, "left and right actions of distinct families commute on 100 "
                  "randomized reachable states")


def test_criterion_10_group_example(tmp_path):
    from bifree.models import group_example_dist

    ok = True
    for orders in ((2, 2), (2, 3), (3, 3)):
        dist = group_example_dist(orders, 4)
        if not check_bifree(dist, 4).ok:
            ok = False
        path = tmp_path / f"group-{orders[0]}{orders[1]}.dist"
        path.write_text(format_distribution(dist))
        if main(["check-bifree", "--in", str(path)]) != 0:
            ok = False
    report(10, ok, "group examples (2,2), (2,3), (3,3) are bi-free at degree 4, exit 0")


def test_criterion_11_grouping():
    rng = random.Random(111)
    sigs = [two_faced(left=("a",), right=("c",), family=k) for k in (1, 2, 3)]
    mus = [rand_dist(s, 4, rng) for s in sigs]
    direct = bifree_product(mus, 4)
    staged = bifree_product([group_families(bifree_product(mus[:2], 4), "G"), mus[2]], 4)

    def map_letter(letter):
        if letter.family in (1, 2):
            return Letter("G", letter.side, f"{letter.family}:{letter.index}", letter.star)
        return letter

    ok = all(
        direct.moment(word) == staged.moment(tuple(map_letter(l) for l in word))
        for word in direct.signature.words(4)
    )
    report(11, ok, "three-family product equals the two-stage grouped computation at degree 4")
