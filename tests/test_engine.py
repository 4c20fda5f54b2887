import itertools
import random
from fractions import Fraction

import pytest
from reference import free_product_moment, naive_joint_moment
from util import coprime_dist, from_words, rand_dist

from bifree.dist import Distribution, group_families, tabulate
from bifree.engine import (TensorState, _apply_step, _EvalContext, _letter_steps, _walk,
                           apply_left, apply_right, bifree_product, check_bifree,
                           joint_moment, vacuum_coefficient, vacuum_state)
from bifree.errors import DomainError, SignatureError, TruncationError
from bifree.io import format_distribution
from bifree.scalars import ONE, ZERO, GaussianRational, _dilate, qi
from bifree.words import LEFT, RIGHT, FaceSignature, Letter, two_faced, union_signatures

SIG1 = two_faced(left=("a",), right=("c",), family=1)
SIG2 = two_faced(left=("a",), right=("c",), family=2)
A1 = Letter(1, LEFT, "a")
C1 = Letter(1, RIGHT, "c")
A2 = Letter(2, LEFT, "a")
C2 = Letter(2, RIGHT, "c")


def block(family, *letters):
    return (family, tuple(letters))


# ---------------------------------------------------------------------------
# apply_left / apply_right against the action formulas


def test_apply_left_on_vacuum(rng):
    mu = rand_dist(SIG1, 3, rng)
    state = apply_left(1, A1, vacuum_state(), mu)
    assert state.vacuum == mu.moment((A1,))
    assert state.terms == {(block(1, A1),): ONE}


def test_apply_left_centered_letter_gives_single_block(rng):
    mu = rand_dist(SIG1, 3, rng, centered=True)
    state = apply_left(1, A1, vacuum_state(), mu)
    assert state.vacuum == ZERO
    assert state.terms == {(block(1, A1),): ONE}


def test_apply_left_same_family_leading_block(rng):
    mu1 = rand_dist(SIG1, 3, rng)
    mu2 = rand_dist(SIG2, 3, rng)
    other = block(2, A2)
    start = TensorState(ZERO, {(block(1, C1), other): ONE})
    state = apply_left(1, A1, start, mu1)
    m_b = mu1.moment((C1,))
    m_ab = mu1.moment((A1, C1))
    m_a = mu1.moment((A1,))
    expected = TensorState(
        ZERO,
        {
            (block(1, A1, C1), other): ONE,
            (block(1, A1), other): -m_b,
            (other,): m_ab - m_b * m_a,
        },
    )
    assert state == expected
    del mu2


def test_apply_left_centered_leading_block_two_terms(rng):
    # with a centered leading block the mean term drops and only the grown
    # block plus the mu(ab) - mu(a)mu(b) shortening survive
    moments = {w: (ONE if not w else rand_dist(SIG1, 3, rng).moments[w]) for w in SIG1.words(3)}
    moments[(C1,)] = ZERO
    mu1 = from_words(Distribution, SIG1, 3, moments)
    other = block(2, A2)
    start = TensorState(ZERO, {(block(1, C1), other): ONE})
    state = apply_left(1, A1, start, mu1)
    shortened = mu1.moment((A1, C1)) - mu1.moment((A1,)) * mu1.moment((C1,))
    expected = TensorState(
        ZERO,
        {
            (block(1, A1, C1), other): ONE,
            (other,): shortened,
        },
    )
    assert state == expected


def test_apply_right_on_vacuum_matches_left(rng):
    mu = rand_dist(SIG1, 3, rng)
    left = apply_left(1, A1, vacuum_state(), mu)
    # on the unit vector both actions agree; compare through the moment
    right = apply_right(1, C1, vacuum_state(), mu)
    assert left.vacuum == mu.moment((A1,))
    assert right.vacuum == mu.moment((C1,))
    assert right.terms == {(block(1, C1),): ONE}


def test_apply_right_other_family_appends(rng):
    mu2 = rand_dist(SIG2, 3, rng)
    start = TensorState(ZERO, {(block(1, A1),): ONE})
    state = apply_right(2, C2, start, mu2)
    expected = TensorState(
        ZERO,
        {
            (block(1, A1),): mu2.moment((C2,)),
            (block(1, A1), block(2, C2)): ONE,
        },
    )
    assert state == expected


def test_apply_validates_face_and_letter(rng):
    mu = rand_dist(SIG1, 2, rng)
    with pytest.raises(DomainError):
        apply_left(1, C1, vacuum_state(), mu)
    with pytest.raises(DomainError):
        apply_right(1, A1, vacuum_state(), mu)
    with pytest.raises(DomainError):
        apply_left(2, A2, vacuum_state(), mu)


def test_apply_truncation_error(rng):
    mu = rand_dist(SIG1, 1, rng)
    state = apply_left(1, A1, vacuum_state(), mu)
    with pytest.raises(TruncationError):
        apply_left(1, A1, state, mu)


def test_vacuum_coefficient():
    assert vacuum_coefficient(vacuum_state()) == ONE
    assert vacuum_coefficient(TensorState(ZERO, {(block(1, A1),): ONE})) == ZERO


def test_centered_cross_family_pair_has_zero_vacuum(rng):
    mu1 = rand_dist(SIG1, 2, rng, centered=True)
    mu2 = rand_dist(SIG2, 2, rng, centered=True)
    state = apply_left(1, A1, apply_right(2, C2, vacuum_state(), mu2), mu1)
    assert vacuum_coefficient(state) == ZERO
    assert state.terms == {(block(1, A1), block(2, C2)): ONE}


def test_alternation_rejected():
    with pytest.raises(DomainError):
        TensorState(ZERO, {(block(1, A1), block(1, C1)): ONE})


def test_tensor_state_checks_blocks_and_drops_zero_terms():
    with pytest.raises(DomainError, match="nonempty"):
        TensorState(ZERO, {(block(1, A1), block(2)): ONE})
    with pytest.raises(DomainError, match="distinct families"):
        TensorState(ZERO, {(block(2, A2), block(1, A1), block(1, C1)): ZERO})
    state = TensorState(ONE, {(block(1, A1),): ZERO, (block(2, C2),): qi(3)})
    assert state.terms == {(block(2, C2),): qi(3)}
    assert state == TensorState(ONE, {(block(2, C2),): qi(3)})
    assert state != TensorState(ZERO, {(block(2, C2),): qi(3)})


# ---------------------------------------------------------------------------
# commutation of left and right actions across distinct families


def _apply_word(marginals, word, state):
    # the operator product of `word`, applied right to left
    for letter in reversed(word):
        apply = apply_left if letter.side == LEFT else apply_right
        state = apply(letter.family, letter, state, marginals[letter.family])
    return state


def _random_reachable_state(marginals, letters, rng, depth=4):
    word = [rng.choice(letters) for _ in range(rng.randint(0, depth))]
    return _apply_word(marginals, word, vacuum_state())


def test_commutation_on_random_states(rng):
    marginals = {1: rand_dist(SIG1, 6, rng), 2: rand_dist(SIG2, 6, rng)}
    letters = [A1, C1, A2, C2]
    for _ in range(40):
        state = _random_reachable_state(marginals, letters, rng)
        lr = apply_left(1, A1, apply_right(2, C2, state, marginals[2]), marginals[1])
        rl = apply_right(2, C2, apply_left(1, A1, state, marginals[1]), marginals[2])
        assert lr == rl


def test_same_family_does_not_commute_in_general(rng):
    mu = rand_dist(SIG1, 4, rng)
    state = vacuum_state()
    lr = apply_left(1, A1, apply_right(1, C1, state, mu), mu)
    rl = apply_right(1, C1, apply_left(1, A1, state, mu), mu)
    # vacuum parts are mu(ac) vs mu(ca): equal only for commuting moments
    assert lr.vacuum == mu.moment((A1, C1))
    assert rl.vacuum == mu.moment((C1, A1))


def test_public_actions_on_complex_coprime_marginals(rng):
    # the public actions run on the marginals' GaussianRational tables as
    # given: complex entries whose real and imaginary parts have coprime
    # denominators
    marginals = {1: coprime_dist(SIG1, 4, rng, 7, 11), 2: coprime_dist(SIG2, 4, rng, 13, 17)}
    letters = [A1, C1, A2, C2]
    for n in range(5):
        for word in itertools.product(letters, repeat=n):
            state = _apply_word(marginals, word, vacuum_state())
            assert state.vacuum == naive_joint_moment(marginals, word)
            if n <= 2:
                for a, c in ((A1, C2), (A2, C1)):
                    assert _apply_word(marginals, (a, c), state) == \
                        _apply_word(marginals, (c, a), state)


# ---------------------------------------------------------------------------
# joint moments and products


def test_single_family_words_reproduced_verbatim(rng):
    mu = rand_dist(SIG1, 4, rng, with_imag=True)
    for word in SIG1.words(4):
        assert joint_moment({1: mu}, word) == mu.moment(word)


def test_degree_two_cross_moment_factorizes(rng):
    mu1, mu2 = rand_dist(SIG1, 2, rng), rand_dist(SIG2, 2, rng)
    got = joint_moment({1: mu1, 2: mu2}, (A1, C2))
    assert got == mu1.moment((A1,)) * mu2.moment((C2,))


def test_centered_mixed_fourth_moment_vanishes():
    sigx = two_faced(left=("x",), family=1)
    sigy = two_faced(left=("x",), family=2)
    x1, x2 = Letter(1, LEFT, "x"), Letter(2, LEFT, "x")

    def semdist(sig):
        letter = Letter(sig.families[0].family, LEFT, "x")
        moments = {w: ZERO for w in sig.words(4)}
        moments[()] = ONE
        moments[(letter, letter)] = ONE
        moments[(letter,) * 4] = qi(2)
        return from_words(Distribution, sig, 4, moments)

    marginals = {1: semdist(sigx), 2: semdist(sigy)}
    assert joint_moment(marginals, (x1, x2, x1, x2)) == ZERO
    assert naive_joint_moment(marginals, (x1, x2, x1, x2)) == ZERO


def test_joint_moment_matches_naive_expansion(rng):
    marginals = {1: rand_dist(SIG1, 4, rng), 2: rand_dist(SIG2, 4, rng)}
    letters = [A1, C1, A2, C2]
    for n in range(5):
        for word in itertools.product(letters, repeat=n):
            assert joint_moment(marginals, word) == naive_joint_moment(marginals, word)


def test_product_marginal_consistency(rng):
    mu1, mu2 = rand_dist(SIG1, 4, rng), rand_dist(SIG2, 4, rng)
    joint = bifree_product([mu1, mu2], 4)
    r1 = joint.restrict((1,))
    assert all(r1.moment(w) == mu1.moment(w) for w in SIG1.words(4))
    r2 = joint.restrict((2,))
    assert all(r2.moment(w) == mu2.moment(w) for w in SIG2.words(4))


def test_product_of_single_marginal_is_identity(rng):
    mu = rand_dist(SIG1, 3, rng)
    assert bifree_product([mu], 3) == mu


def test_product_rejects_family_clash(rng):
    mu = rand_dist(SIG1, 2, rng)
    with pytest.raises(SignatureError):
        bifree_product([mu, rand_dist(SIG1, 2, rng)], 2)


def test_product_rejects_insufficient_degree(rng):
    with pytest.raises(TruncationError):
        bifree_product([rand_dist(SIG1, 2, rng), rand_dist(SIG2, 4, rng)], 3)


def test_left_only_product_agrees_with_nc_oracle(rng):
    sigs = [two_faced(left=("x",), family=k) for k in (1, 2)]
    marginals = {k: rand_dist(sigs[k - 1], 5, rng) for k in (1, 2)}
    letters = [Letter(1, LEFT, "x"), Letter(2, LEFT, "x")]
    for n in range(6):
        for word in itertools.product(letters, repeat=n):
            assert joint_moment(marginals, word) == free_product_moment(marginals, word)


def test_classical_independence_of_left_and_right(rng):
    mu1, mu2 = rand_dist(SIG1, 6, rng), rand_dist(SIG2, 6, rng)
    marginals = {1: mu1, 2: mu2}
    for m in range(4):
        for k in range(4):
            for pattern in itertools.combinations(range(m + k), m):
                word, u, w = [], [], []
                ones = set(pattern)
                for pos in range(m + k):
                    if pos in ones:
                        word.append(A1)
                        u.append(A1)
                    else:
                        word.append(C2)
                        w.append(C2)
                expected = mu1.moment(tuple(u)) * mu2.moment(tuple(w))
                assert joint_moment(marginals, tuple(word)) == expected


def test_product_table_matches_per_word_joint_moment(rng):
    # the table comes from one suffix-sharing walk, joint_moment evaluates
    # each word from the vacuum on its own
    mu1 = rand_dist(SIG1, 4, rng, with_imag=True)
    mu2 = rand_dist(SIG2, 4, rng)
    table = bifree_product([mu1, mu2], 4)
    for word in table.signature.words(4):
        assert table.moment(word) == joint_moment({1: mu1, 2: mu2}, word)


def test_check_bifree_passes_on_product(rng):
    joint = bifree_product([rand_dist(SIG1, 3, rng), rand_dist(SIG2, 3, rng)], 3)
    assert check_bifree(joint, 3).ok


def test_check_bifree_flags_tensor_independence():
    sigx = two_faced(left=("x",), family=1)
    sigy = two_faced(left=("x",), family=2)
    x1, x2 = Letter(1, LEFT, "x"), Letter(2, LEFT, "x")
    sig = FaceSignature(sigx.families + sigy.families)
    # tensor-independent pair of centered unit-variance variables
    moments = {}
    for word in sig.words(4):
        c1 = sum(1 for l in word if l.family == 1)
        c2 = sum(1 for l in word if l.family == 2)
        def single(k):
            return ONE if k in (0, 2) else ZERO
        moments[word] = single(c1) * single(c2)
    joint = from_words(Distribution, sig, 4, moments)
    report = check_bifree(joint, 4)
    assert not report.ok
    flagged = {w for w, _, _ in report.mismatches}
    assert (x1, x2, x1, x2) in flagged
    by_word = {w: (e, f) for w, e, f in report.mismatches}
    assert by_word[(x1, x2, x1, x2)] == (ZERO, ONE)


# ---------------------------------------------------------------------------
# grouping and associativity


def test_three_family_grouping(rng):
    sigs = [two_faced(left=("a",), right=("c",), family=k) for k in (1, 2, 3)]
    mus = [rand_dist(s, 4, rng) for s in sigs]
    direct = bifree_product(mus, 4)
    grouped12 = group_families(bifree_product(mus[:2], 4), "G")
    staged = bifree_product([grouped12, mus[2]], 4)

    def map_letter(letter):
        if letter.family in (1, 2):
            return Letter("G", letter.side, f"{letter.family}:{letter.index}", letter.star)
        return letter

    for word in direct.signature.words(4):
        mapped = tuple(map_letter(l) for l in word)
        assert direct.moment(word) == staged.moment(mapped)


def test_product_associativity_via_grouping(rng):
    sigs = [two_faced(left=("a",), right=("c",), family=k) for k in (1, 2, 3)]
    mus = [rand_dist(s, 3, rng) for s in sigs]
    left_first = bifree_product([bifree_product(mus[:2], 3), mus[2]], 3)
    all_at_once = bifree_product(mus, 3)
    assert left_first == all_at_once


# ---------------------------------------------------------------------------
# dilation onto the integers


def _coprime_marginals(rng, degree):
    # pairwise-coprime denominators: a complex marginal over 7 (real parts)
    # and 11 (imaginary parts), a real one over 13 and an all-integer one
    sigs = [two_faced(left=("a",), right=("c",), family=k) for k in (1, 2, 3)]
    return [coprime_dist(sigs[0], degree, rng, 7, 11),
            coprime_dist(sigs[1], degree, rng, 13),
            coprime_dist(sigs[2], degree, rng, 1)]


def test_product_on_coprime_denominators_matches_naive_oracle(rng):
    mus = _coprime_marginals(rng, 4)
    assert _EvalContext(mus).dilation == 7 * 11 * 13
    table = bifree_product(mus, 4)
    marginals = {k: mu for k, mu in enumerate(mus, start=1)}
    for word in table.signature.words(4):
        assert table.moment(word) == naive_joint_moment(marginals, word)


def _product_steps(mus):
    # bifree_product's step map: each letter acts in its own constituent
    ctx = _EvalContext(mus)
    signature = union_signatures([mu.signature for mu in mus])
    tag_of = {fam.family: tag for tag, mu in enumerate(mus) for fam in mu.signature.families}
    return ctx, signature, _letter_steps(ctx, signature.letters(),
                                         lambda letter: ((tag_of[letter.family],),))


def _product_build(mus, degree):
    # the table build of bifree_product, keeping the context for its registry
    ctx, signature, letter_steps = _product_steps(mus)
    return tabulate(signature, degree, *_walk(ctx, letter_steps)), ctx.blocks


def test_dilated_tables_hold_integers(rng):
    real = [coprime_dist(SIG1, 3, rng, 7), coprime_dist(SIG2, 3, rng, 1)]
    assert _EvalContext(real).dilation == 7
    _, blocks = _product_build(real, 3)
    assert all(type(v) is int for v in blocks.moment)

    mus = _coprime_marginals(rng, 3)
    ctx = _EvalContext(mus)
    _, blocks = _product_build(mus, 3)
    # every block word up to the degree is reached, each moment read from
    # its constituent's own table and dilated by D^|word|
    assert {len(word) for word in blocks.word} == {1, 2, 3}
    for tag, word, dilated in zip(blocks.tag, blocks.word, blocks.moment):
        assert isinstance(dilated, GaussianRational)
        assert type(dilated.re) is int and type(dilated.im) is int
        assert dilated == mus[tag].moments[word] * qi(ctx.dilation ** len(word))
    # the states stay on Gaussian integers as letters act on them
    state = {(): ctx.one}
    for tag, letter in ((0, A1), (1, C2), (0, A1), (0, C1), (2, Letter(3, LEFT, "a"))):
        step = (ctx.blocks.summand(tag, letter),)
        state = _apply_step(state, step, ctx.blocks, 5)
        assert state
        assert all(type(v.re) is int and type(v.im) is int for v in state.values())


def test_dilation_refuses_a_non_integral_entry():
    assert _dilate(Fraction(-2, 3), 6) == -4
    with pytest.raises(ArithmeticError):
        _dilate(Fraction(1, 3), 4)


# ---------------------------------------------------------------------------
# interned tensor blocks


def test_block_ids_are_deterministic(rng):
    mus = _coprime_marginals(rng, 4)
    first, first_blocks = _product_build(mus, 4)
    second, second_blocks = _product_build(mus, 4)
    id_map = list(zip(first_blocks.tag, first_blocks.word))
    assert id_map == list(zip(second_blocks.tag, second_blocks.word))
    # every block is interned once, and every grown block is a real table word
    assert len(set(id_map)) == len(id_map) > len(mus)
    assert all(word in mus[tag].moments for tag, word in id_map)
    assert format_distribution(first) == format_distribution(second)
    assert format_distribution(first) == format_distribution(bifree_product(mus, 4))


def test_joint_moment_past_the_degree_names_the_word(rng):
    # family 1's letters of the joint word a c2 c a spell a c a, one past
    # its marginal's degree; the error names it when that block is first grown
    marginals = {1: rand_dist(SIG1, 2, rng), 2: rand_dist(SIG2, 2, rng)}
    assert joint_moment(marginals, (A1, C2, A1)) == naive_joint_moment(marginals, (A1, C2, A1))
    with pytest.raises(TruncationError, match=r"word 1\.a 1\.c 1\.a exceeds degree bound 2"):
        joint_moment(marginals, (A1, C2, C1, A1))


def test_joint_moment_with_an_undeclared_letter_names_it(rng):
    marginals = {1: rand_dist(SIG1, 2, rng), 2: rand_dist(SIG2, 2, rng)}
    with pytest.raises(SignatureError, match=r"letter 1\.b is not declared by its marginal"):
        joint_moment(marginals, (A2, Letter(1, LEFT, "b")))
    # SIG1 is not star-closed, so its starred letters are undeclared too
    with pytest.raises(SignatureError, match=r"letter 1\.a\* is not declared by its marginal"):
        joint_moment(marginals, (Letter(1, LEFT, "a", True), C2))


def test_joint_moment_refuses_its_first_bad_letter(rng):
    # an undeclared letter of a known family and a letter of an unknown
    # family: the error is that of whichever comes first in the word
    marginals = {1: rand_dist(SIG1, 2, rng), 2: rand_dist(SIG2, 2, rng)}
    undeclared, unknown = Letter(1, LEFT, "b"), Letter(3, LEFT, "a")
    with pytest.raises(SignatureError, match=r"^letter 1\.b is not declared by its marginal$"):
        joint_moment(marginals, (A2, undeclared, unknown))
    with pytest.raises(DomainError, match=r"^no marginal given for family 3$"):
        joint_moment(marginals, (A2, unknown, undeclared))


# ---------------------------------------------------------------------------
# steps bounded by the steps left


def _step_contexts(rng):
    """(context, letter -> steps) for product, boxplus and boxtimes walks
    over degree-4 tables, real and complex."""
    for with_imag in (False, True):
        mus = [rand_dist(SIG1, 4, rng, with_imag), rand_dist(SIG2, 4, rng)]
        ctx, _, letter_steps = _product_steps(mus)
        yield ctx, letter_steps
        pair = [rand_dist(SIG1, 4, rng, with_imag), rand_dist(SIG1, 4, rng, with_imag)]
        for pattern in (((0, 1),), ((0,), (1,))):  # boxplus, boxtimes
            ctx = _EvalContext(pair)
            yield ctx, _letter_steps(ctx, SIG1.letters(), lambda letter: pattern)


def _unbounded_step(state, summands, blocks):
    return _apply_step(state, summands, blocks, max(map(len, state), default=0) + 2)


def _check_bounded_steps(state, summands, blocks):
    full = _unbounded_step(state, summands, blocks)
    for bound in range(max(map(len, state), default=0) + 2):
        bounded = _apply_step(state, summands, blocks, bound)
        assert bounded == {key: v for key, v in full.items() if len(key) <= bound}
    return full


def test_bounded_step_is_the_unbounded_step_truncated(rng):
    # states reached by walks of up to 3 letters, so that one more letter
    # grows no block past the tables' degree
    for ctx, letter_steps in _step_contexts(rng):
        letters = list(letter_steps)
        for _ in range(30):
            state = {(): ctx.one}
            for letter in rng.choices(letters, k=rng.randint(0, 3)):
                for summands in reversed(letter_steps[letter]):
                    state = _unbounded_step(state, summands, ctx.blocks)
            for summands in reversed(letter_steps[rng.choice(letters)]):
                state = _check_bounded_steps(state, summands, ctx.blocks)


def test_zero_coefficients_add_nothing_and_a_cancelled_vacuum_reads_zero(rng):
    # letter a acting on {(): drop, (a,): -m_a} adds drop*m_a and then
    # -m_a*drop to the vacuum, where drop = m(aa) - m(a)^2: the vacuum key
    # is left with a zero coefficient, and the walk reads it as 0
    cancelled = zeroed = 0
    for ctx, letter_steps in _step_contexts(rng):
        blocks = ctx.blocks
        _, _, read = _walk(ctx, letter_steps)
        for steps in letter_steps.values():
            summands = steps[-1]  # the step that acts first
            if len(summands) > 1:  # boxplus sums two letters
                continue
            _, _, m_a, single = summands[0]
            drop = blocks.moment[blocks.grow(single, single)] - m_a * m_a
            if m_a and drop:
                out = _check_bounded_steps({(): drop, (single,): -m_a}, summands, blocks)
                assert out[()] == ctx.zero and type(out[()]) is type(ctx.zero)
                assert read(out, 1) == ZERO
                cancelled += 1
        # a key with a zero coefficient, whether it replaces a term of the
        # state or is new to it, contributes nothing to the next step
        letters = list(letter_steps)
        for _ in range(10):
            state = {(): ctx.one}
            for letter in rng.choices(letters, k=rng.randint(1, 3)):
                for summands in reversed(letter_steps[letter]):
                    state = _unbounded_step(state, summands, blocks)
            summands = rng.choice(letter_steps[rng.choice(letters)])
            stepped = _unbounded_step(state, summands, blocks)
            for key in set(state) | set(stepped):
                rest = {k: v for k, v in state.items() if k != key}
                assert (_check_bounded_steps({**state, key: ctx.zero}, summands, blocks)
                        == _unbounded_step(rest, summands, blocks))
                zeroed += 1
    assert cancelled >= 8 and zeroed > 100


def test_pruned_joint_moments_keep_every_value_and_every_error(rng):
    # every word up to two letters past twice the marginals' degree: past
    # the degree the walk prunes keys that the unpruned expansion would
    # grow, and it must still raise TruncationError exactly where that does.
    # The naive expansion keeps zero terms, so it also grows blocks whose
    # coefficient a zero moment cancelled, which the engine skips; tables
    # with no zero moment make "exactly where" well defined.
    sig1 = two_faced(left=("a",), right=("c",), family=1)
    sig2 = two_faced(left=("b",), right=("d",), family=2)

    def outcome(moment, marginals, word):
        try:
            return moment(marginals, word)
        except TruncationError:
            return TruncationError

    checked = 0
    for degree in (1, 2):
        marginals = {1: coprime_dist(sig1, degree, rng, 7, 3),
                     2: coprime_dist(sig2, degree, rng, 5)}
        for word in union_signatures([sig1, sig2]).words(2 * degree + 2):
            if word:
                assert (outcome(joint_moment, marginals, word)
                        == outcome(naive_joint_moment, marginals, word)), word
                checked += 1
    assert checked == 5800


def test_joint_moment_past_the_degree_is_that_of_every_extension(rng):
    # with zero moments the engine may answer a word past the degree that
    # the naive expansion refuses; its value must then not depend on the
    # missing moments: every extension of the tables gives the same value
    sig1 = two_faced(left=("a",), right=("c",), family=1)
    sig2 = two_faced(left=("b",), right=("d",), family=2)
    answered = 0
    for degree in (1, 2):
        marginals = {1: rand_dist(sig1, degree, rng, with_imag=True),
                     2: rand_dist(sig2, degree, rng)}
        extensions = []
        for _ in range(2):
            extended = {}
            for family, mu in marginals.items():
                moments = dict(rand_dist(mu.signature, 2 * degree + 2, rng, with_imag=True).moments)
                moments.update(mu.moments)
                extended[family] = from_words(Distribution, mu.signature, 2 * degree + 2, moments)
            extensions.append(extended)
        for word in union_signatures([sig1, sig2]).words(2 * degree + 2):
            if len(word) <= degree:
                continue
            try:
                value = joint_moment(marginals, word)
            except TruncationError:
                continue
            answered += 1
            for extended in extensions:
                assert joint_moment(extended, word) == value, word
    assert answered > 100


def test_product_at_its_full_degree_matches_the_naive_expansion(rng):
    # words of exactly the table's degree take every step at the bound
    degree = 5
    mus = [rand_dist(SIG1, degree, rng, with_imag=True), rand_dist(SIG2, degree, rng)]
    table = bifree_product(mus, degree)
    marginals = {1: mus[0], 2: mus[1]}
    for word in table.signature.words(degree):
        if len(word) == degree:
            assert table.moment(word) == naive_joint_moment(marginals, word)
