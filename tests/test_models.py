import itertools

import reference
import pytest
from reference import annih_left, create_left, fock_apply, fock_vacuum
from util import from_words, rand_dist, rand_scalar

import bifree.dist
import bifree.models
from bifree.cli import main
from bifree.cumulant import cumulants_from_moments
from bifree.dist import Distribution, point_distribution
from bifree.engine import check_bifree
from bifree.errors import DomainError, TruncationError
from bifree.io import (format_covariance, format_distribution, format_vector_spec,
                       parse_covariance, parse_vector_spec)
from bifree.models import (CovarianceSpec, VectorSpec, _FockWalk, _involution,
                           covariance_from_vectors,
                           fock_distribution, gaussian_dist, gram_psd_check,
                           gram_quadratic_form, group_example_dist)
from bifree.scalars import ONE, ZERO, Dilation, qi
from bifree.words import LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, two_faced, word_star

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
    tab = fock_distribution(spec, 2)
    # <z_k z_l 1, 1> = <h(l), h*(k)>
    for k, l in itertools.product((A, B), repeat=2):
        hk = h[(l.family, l.side, l.index)]
        hsk = h_star[(k.family, k.side, k.index)]
        expected = sum((u * v.conjugate() for u, v in zip(hk, hsk)), ZERO)
        assert tab.moment((k, l)) == expected
        assert covariance_from_vectors(spec).value(k, l) == expected


def test_odd_moments_vanish(rng):
    tab = fock_distribution(unit_vector_spec(SIG_LR), 5)
    for n in (1, 3, 5):
        for word in itertools.product((A, B), repeat=n):
            assert tab.moment(word) == ZERO


def test_single_variable_fourth_moment_is_catalan():
    sig = two_faced(left=("a",), family=1)
    tab = fock_distribution(unit_vector_spec(sig), 6)
    a = Letter(1, LEFT, "a")
    assert tab.moment((a,) * 2) == ONE
    assert tab.moment((a,) * 4) == qi(2)
    assert tab.moment((a,) * 6) == qi(5)


def test_mixed_abab_moment():
    tab = fock_distribution(unit_vector_spec(SIG_LR), 4)
    assert tab.moment((A, B, A, B)) == qi(2)


def test_left_right_swap_invariance_hermitian(rng):
    # real h = h*: swapping adjacent left/right letters preserves moments
    sig = two_faced(left=("a",), right=("b",), family=1)
    h = {(1, LEFT, "a"): (qi(1), qi(1, 2)), (1, RIGHT, "b"): (qi(2, 3), qi(1))}
    tab = fock_distribution(VectorSpec(sig, 2, h, dict(h)), 4)
    for word in itertools.product((A, B), repeat=4):
        for i in range(3):
            if word[i].side != word[i + 1].side:
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
                assert tab.moment(word) == tab.moment(swapped)


def test_star_distribution_conjugation():
    sig = two_faced(left=("a",), right=("b",), family=1, star=True)
    h = {(1, LEFT, "a"): (qi(1), qi(0, 1, 1, 2)), (1, RIGHT, "b"): (qi(0), qi(1))}
    h_star = {(1, LEFT, "a"): (qi(1, 3), qi(2)), (1, RIGHT, "b"): (qi(0, 1, 1, 3), qi(1))}
    spec = VectorSpec(sig, 2, h, h_star)
    tab = fock_distribution(spec, 4)
    for word in sig.words(4):
        assert tab.moment(word_star(sig, word)) == tab.moment(word).conjugate()


def test_fock_distribution_matches_per_word_fock_moment(rng):
    # the table comes from one suffix-sharing walk, the oracle applies each
    # word to the vacuum on its own; a walk that extended prefixes instead
    # of suffixes would differ on these non-commuting operators
    sig = FaceSignature(tuple(
        FamilyFaces(f, ("a",), ("b",), True) for f in (1, 2)
    ))
    keys = [(l.family, l.side, l.index) for l in sig.letters() if not l.star]
    h, h_star = ({k: (rand_scalar(rng, True), rand_scalar(rng, True)) for k in keys}
                 for _ in range(2))
    spec = VectorSpec(sig, 2, h, h_star)
    tab = fock_distribution(spec, 4)
    for word in sig.words(4):
        assert tab.moment(word) == reference.fock_moment(spec, word)


def test_fock_table_at_its_full_degree_matches_the_oracle(rng):
    # words of exactly the table's degree take every step at the bound,
    # where the walk keeps only keys that can still return to the vacuum
    sig = FaceSignature((FamilyFaces(1, ("a",), ("b",), False),
                         FamilyFaces(2, ("a",), (), False)))
    keys = [(l.family, l.side, l.index) for l in sig.letters()]
    h, h_star = ({k: (rand_scalar(rng, True), rand_scalar(rng, True)) for k in keys}
                 for _ in range(2))
    spec = VectorSpec(sig, 2, h, h_star)
    degree = 6
    tab = fock_distribution(spec, degree)
    for word in itertools.product(sig.letters(), repeat=degree):
        assert tab.moment(word) == reference.fock_moment(spec, word)


def test_fock_walk_matches_oracle_word_by_word():
    # 1.a and 2.b share their creation vector, given once as a tuple and once
    # as a list, so they must share one interned id; the denominators 7, 11
    # and 13 make D large; and 2.b*'s creation vector pairs with 1.a's
    # annihilation vector to exactly zero through two nonzero terms
    sig = FaceSignature((FamilyFaces(1, ("a",), (), True), FamilyFaces(2, (), ("b",), True)))
    a, b = (1, LEFT, "a"), (2, RIGHT, "b")
    shared = (qi(1, 7), qi(0, 1, 1, 2))
    h = {a: shared, b: list(shared)}
    h_star = {a: (qi(0, 1, -1, 11), qi(3, 13)), b: (qi(-33, 91), qi(0, 1, 1, 7))}
    spec = VectorSpec(sig, 2, h, h_star)
    walk = _FockWalk(spec)
    assert len({vid for _, vid, _ in walk.moves.values()}) == 3
    assert walk.dilation % (7 * 11 * 13) == 0
    assert covariance_from_vectors(spec).value(Letter(1, LEFT, "a"),
                                               Letter(2, RIGHT, "b", True)) == ZERO
    tab = fock_distribution(spec, 5)
    for word in sig.words(5):
        expected = reference.fock_moment(spec, word)
        assert tab.moment(word) == expected
        if len(word) % 2:
            assert tab.moment(word) == ZERO
    assert sum(1 for v in tab.moments.values() if v and not v.is_real) > 100


def test_fock_zero_coefficients_add_nothing_and_a_cancelled_vacuum_reads_zero(rng):
    # 1.a annihilates the slots of 1.a and 1.b with the nonzero inner
    # products t_a and t_b, so on {(a,): t_b, (b,): -t_a} it leaves the
    # vacuum key with a zero coefficient, which reads as 0
    sig = FaceSignature((FamilyFaces(1, ("a",), ("b",), False),
                         FamilyFaces(2, ("a",), (), False)))
    a1, b1, a2 = ((l.family, l.side, l.index) for l in sig.letters())
    h = {a1: (ONE, ZERO), b1: (ZERO, qi(0, 1, 1, 1)), a2: (ONE, ONE)}
    h_star = {a1: (qi(2), qi(3, 5)), b1: (qi(1, 2), qi(-1)), a2: (qi(1, 3), qi(0, 1, 5, 7))}
    walk = _FockWalk(VectorSpec(sig, 2, h, h_star))
    _, vid_a, table = walk.moves[Letter(*a1)]
    vid_b = walk.moves[Letter(*b1)][1]
    assert table[vid_a] and table[vid_b]
    out = walk.step(Letter(*a1), {(vid_a,): table[vid_b], (vid_b,): -table[vid_a]}, 0)
    assert out == {(): walk.zero} and type(out[()]) is type(walk.zero)
    assert walk.read(out, 2) == ZERO
    # a key with a zero coefficient, whether it replaces a term of the state
    # or is new to it, contributes nothing to the next step
    letters = sig.letters()
    zeroed = 0
    for _ in range(20):
        state = walk.start
        for letter in rng.choices(letters, k=rng.randint(1, 4)):
            state = walk.step(letter, state, 6)
        letter, remaining = rng.choice(letters), rng.randint(0, 4)
        for key in set(state) | set(walk.step(letter, state, 6)):
            rest = {k: v for k, v in state.items() if k != key}
            assert (walk.step(letter, {**state, key: walk.zero}, remaining)
                    == walk.step(letter, rest, remaining))
            zeroed += 1
    assert zeroed > 100


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


def test_psd_check_above_the_table_degree_is_a_truncation_error(rng):
    # the same error type as every other degree-bound check
    mu = rand_dist(SIG_LR, 2, rng)
    with pytest.raises(TruncationError, match="moment table degree 2 below requested 4"):
        gram_psd_check(mu, 4)


GRAM_SIGNATURES = {
    "star": FaceSignature((FamilyFaces(1, ("a",), ("b",), True),)),
    "reversal": FaceSignature((FamilyFaces(1, ("a",), ("b",)), FamilyFaces(2, ("c",), ()))),
}


def _hermitian_table(sig, degree, draw):
    """Random table with mu(v*) = conj(mu(v)), so its Gram matrix is
    hermitian; a word equal to its own involution gets a real value."""
    star = _involution(sig)
    moments = {(): ONE}
    for word in sig.words(degree):
        if word not in moments:
            x = draw()
            moments[word] = x if star(word) != word else qi(0) + x.re
            moments[star(word)] = moments[word].conjugate()
    return from_words(Distribution, sig, degree, moments)


def _fock_table(sig, degree, rng, with_imag):
    """A vacuum state on Fock space, hence a positive table: a star-closed
    signature swaps h and h*, and self-adjoint letters take h* = h."""
    keys = [(l.family, l.side, l.index) for l in sig.letters() if not l.star]
    h = {k: tuple(rand_scalar(rng, with_imag) for _ in range(2)) for k in keys}
    if sig.star_closed:
        h_star = {k: tuple(rand_scalar(rng, with_imag) for _ in range(2)) for k in keys}
    else:
        h_star = h
    return fock_distribution(VectorSpec(sig, 2, h, h_star), degree)


def _same_outcome(mu, degree):
    """gram_psd_check decides, witnesses and refuses as the rational
    elimination does; returns the outcome for the caller to tally."""
    try:
        want = reference.fraction_gram_psd_check(mu, degree)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            gram_psd_check(mu, degree)
        assert str(got.value) == str(exc)
        return "refused"
    got = gram_psd_check(mu, degree)
    assert got.positive == want.positive
    if want.positive:
        assert got.witness is None
        return "positive"
    assert list(got.witness.items()) == list(want.witness.items())
    return "indefinite"


@pytest.mark.parametrize("with_imag", [False, True])
@pytest.mark.parametrize("involution", sorted(GRAM_SIGNATURES))
def test_integer_gram_elimination_matches_the_rational_one(rng, involution, with_imag):
    sig = GRAM_SIGNATURES[involution]
    star = _involution(sig)
    seen = set()
    for _ in range(3):
        seen.add(_same_outcome(_fock_table(sig, 4, rng, with_imag), 4))
    # dense draws mostly meet a negative pivot, sparse ones often leave
    # only zero diagonals (the hyperbolic branch) or a semidefinite rest
    def dense():
        return rand_scalar(rng, with_imag)

    def sparse():
        return dense() if rng.random() < 0.1 else ZERO

    for draw in (dense,) + (sparse,) * 5:
        for degree in (2, 4):
            mu = _hermitian_table(sig, degree, draw)
            seen.add(_same_outcome(mu, degree))
            # one entry off its involution's conjugate breaks hermitian symmetry
            word = rng.choice([w for w in sig.words(degree) if star(w) != w])
            moments = dict(mu.moments)
            moments[word] = moments[word] + ONE
            seen.add(_same_outcome(from_words(Distribution, sig, degree, moments), degree))
    assert {"positive", "indefinite", "refused"} <= seen


def test_hyperbolic_witness_is_scaled_by_the_pivots_before_it():
    # the pivot () leaves a zero diagonal with the entry 3/5 off it
    moments = {w: ZERO for w in SIG_LR.words(2)}
    moments[()] = ONE
    moments[(A, B)] = moments[(B, A)] = qi(3, 5)
    moments[(A,)] = qi(1, 2)
    moments[(A, A)] = qi(1, 4)
    mu = from_words(Distribution, SIG_LR, 2, moments)
    result = gram_psd_check(mu, 2)
    assert list(result.witness.items()) == list(reference.fraction_gram_psd_check(mu, 2)
                                                .witness.items())
    assert gram_quadratic_form(mu, result.witness).re < 0


@pytest.mark.parametrize("sig", [
    FaceSignature(()),
    two_faced(left=("a",)),
    two_faced(left=("a", "b"), right=("c",), family=1),
    FaceSignature((FamilyFaces(1, ("a",), (), True), FamilyFaces(2, (), ("b",), True))),
], ids=["no letters", "one letter", "three letters", "four star-closed letters"])
def test_the_gram_fill_by_rank_matches_the_rational_elimination(rng, sig):
    # tables past the requested degree and odd degrees read only the words
    # of length <= 2 * (degree // 2), which the fill takes by rank
    star = _involution(sig)
    words = [w for w in sig.words(4) if star(w) != w]
    for with_imag in (False, True):
        def dense():
            return rand_scalar(rng, with_imag)

        def sparse():
            return dense() if rng.random() < 0.2 else ZERO

        for draw in (dense, sparse):
            for table_degree, degree in ((2, 2), (3, 3), (5, 4), (4, 2)):
                mu = _hermitian_table(sig, table_degree, draw)
                _same_outcome(mu, degree)
                if words and table_degree >= 4:
                    word = rng.choice(words)
                    moments = dict(mu.moments)
                    moments[word] = moments[word] + ONE
                    _same_outcome(from_words(Distribution, sig, table_degree, moments), degree)


@pytest.mark.parametrize("build", ["group", "fock"])
def test_the_gram_setup_dilates_only_the_words_it_reads(rng, monkeypatch, build):
    # the words of length 5 are past 2 * (5 // 2): a huge denominator or an
    # imaginary part there reaches neither the dilation nor the result
    if build == "group":
        mu = group_example_dist([2, 3], 5)
    else:
        mu = _fock_table(GRAM_SIGNATURES["reversal"], 5, rng, False)
    read = mu.signature.word_count(4)
    truncated = Distribution(mu.signature, 4, mu.ranked[:read])
    moments = list(mu.ranked)
    moments[read] = moments[read] + qi(1, 7 ** 40)
    moments[-1] = moments[-1] + qi(0, 1, 1)
    changed = Distribution(mu.signature, 5, moments)
    seen = []

    def recording(values):
        values = list(values)
        seen.extend(values)
        return Dilation(values)

    monkeypatch.setattr(bifree.models, "Dilation", recording)
    result = gram_psd_check(changed, 5)
    assert not any(v is moments[read] or v is moments[-1] for v in seen)
    assert result == gram_psd_check(truncated, 4)
    assert result.positive == (build == "fock")


def test_oversize_gram_matrix_and_gaussian_table_are_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bifree.dist, "MAX_WORDS", 600)
    # two letters: 511 words to degree 8, whose Gram basis of 31 words has 961 entries
    mu = point_distribution(SIG_LR, 8)
    message = "the Gram matrix of 31 words has 961 entries, more than the limit of 600"
    with pytest.raises(DomainError, match=f"^{message}$"):
        gram_psd_check(mu, 8)
    assert gram_psd_check(mu, 7).positive
    path = tmp_path / "mu.dist"
    path.write_text(format_distribution(mu))
    assert main(["psd-check", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    cov = CovarianceSpec(SIG_LR, {(u, v): ONE for u in SIG_LR.letters() for v in SIG_LR.letters()})
    with pytest.raises(DomainError, match="^a table of 2 letters to degree 9 has 1023 entries, "):
        gaussian_dist(cov, 9)
    assert gaussian_dist(cov, 8).degree == 8


def test_psd_check_prints_the_rational_witness_on_the_group_table(tmp_path, capsys):
    path = tmp_path / "group.dist"
    assert main(["group-example", "--orders", "2,3", "--degree", "6", "--out", str(path)]) == 0
    mu = group_example_dist([2, 3], 6)
    want = reference.fraction_gram_psd_check(mu, 6)
    expected = "".join(line + "\n" for line in ["indefinite; witness polynomial:",
                                                 *want.witness_lines()])
    assert main(["psd-check", "--in", str(path)]) == 1
    assert capsys.readouterr().out == expected


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
