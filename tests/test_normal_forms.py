"""The normal-form walk of `tabulate`: the relations it refuses, the steps
it takes, and the moments it copies, checked word by word against walks
and oracles that take no relation."""

import collections
import random

import pytest
from reference import group_moment, naive_joint_moment, swap_normal_forms
from util import rand_dist

import bifree.dist
import bifree.engine
import bifree.models
from bifree.convolve import boxplus2, boxtimes2
from bifree.dist import group_families, ones_distribution, tabulate
from bifree.engine import bifree_product, joint_moment
from bifree.errors import DomainError
from bifree.models import VectorSpec, fock_distribution, group_example_dist, group_signature
from bifree.scalars import ONE, qi
from bifree.words import FaceSignature, FamilyFaces, Letter, two_faced

PAIR = [two_faced(("a",), ("b",), family=k) for k in (1, 2)]


@pytest.fixture
def steps(monkeypatch):
    """Steps per word length of every table walk, counted from what each
    step is told: a word of n letters has degree - n letters still to act."""
    counts = collections.Counter()
    real = tabulate

    def counting(signature, degree, start, step, read, commuting=None):
        def counted(letter, state, remaining):
            counts[degree - remaining] += 1
            return step(letter, state, remaining)
        return real(signature, degree, start, counted, read, commuting)

    for module in (bifree.dist, bifree.engine, bifree.models):
        monkeypatch.setattr(module, "tabulate", counting)
    return counts


# ---------------------------------------------------------------------------
# refused relations


def _unwalked(letter, state, remaining):
    raise AssertionError("a refused relation must stop the walk before any step")


@pytest.mark.parametrize("commuting", [[], [0b10], [0b10, 0b01, 0]])
def test_tabulate_refuses_a_relation_of_another_length(commuting):
    with pytest.raises(DomainError, match="commutation relation of .* for 2 letters"):
        tabulate(PAIR[0], 3, ONE, _unwalked, lambda s, n: s, commuting)


def test_tabulate_refuses_a_letter_commuting_with_itself():
    with pytest.raises(DomainError, match="letter 1 is listed as commuting with itself"):
        tabulate(PAIR[0], 3, ONE, _unwalked, lambda s, n: s, [0b00, 0b10])


@pytest.mark.parametrize("commuting", [[0b10, 0b00], [0b00, 0b01], [0b110, 0b001],
                                       [-2, 0b01]])
def test_tabulate_refuses_a_relation_that_is_not_symmetric(commuting):
    with pytest.raises(DomainError, match="not symmetric at letter 0"):
        tabulate(PAIR[0], 3, ONE, _unwalked, lambda s, n: s, commuting)


# ---------------------------------------------------------------------------
# steps taken


def test_product_steps_only_the_normal_forms(rng, steps):
    # (1.a, 1.b, 2.a, 2.b): 1.a commutes with 2.b and 1.b with 2.a; the
    # normal forms of length n are the coefficients of 1/(1 - 4t + 2t^2)
    bifree_product([rand_dist(sig, 7, rng) for sig in PAIR], 7)
    assert dict(steps) == {1: 4, 2: 14, 3: 48, 4: 164, 5: 560, 6: 1912, 7: 6528}
    assert sum(steps.values()) == 9230


def test_group_steps_only_the_normal_forms(steps):
    # every left letter commutes with every right one, so the classes of
    # length n are the pairs of a left and a right word: (n + 1) 2^n
    group_example_dist((2, 3), 8)
    assert dict(steps) == {n: (n + 1) * 2 ** n for n in range(1, 9)}
    assert sum(steps.values()) == 4096


def test_walks_without_a_relation_step_every_word(rng, steps):
    sig = two_faced(("a", "b"), ("c",), family=1)
    mu, nu = rand_dist(sig, 4, rng), rand_dist(sig, 4, rng)
    every = {n: 3 ** n for n in range(1, 5)}
    spec = VectorSpec(sig, 1, *({(1, l.side, l.index): (ONE,) for l in sig.letters()},) * 2)
    for build in (lambda: boxplus2(mu, nu, 4), lambda: boxtimes2(mu, nu, 4),
                  lambda: fock_distribution(spec, 4), lambda: ones_distribution(sig, 4)):
        steps.clear()
        build()
        assert dict(steps) == every


# ---------------------------------------------------------------------------
# copied moments


def _relations():
    """(letters, degree, commuting pairs): every symmetric irreflexive
    relation on 2 and 3 letters, the chain 0 - 1 - 2 among them, then 30
    seeded random ones on 4 and 5 letters."""
    out = []
    for size, degree in ((2, 5), (3, 5)):
        pairs = [(i, j) for i in range(size) for j in range(i)]
        for chosen in range(1 << len(pairs)):
            out.append((size, degree, [pairs[k] for k in range(len(pairs)) if chosen >> k & 1]))
    rng = random.Random(1306)
    for size in [4] * 15 + [5] * 15:
        out.append((size, 4, [(i, j) for i in range(size) for j in range(i)
                              if rng.random() < 0.5]))
    return out


@pytest.mark.parametrize("size, degree, pairs", _relations())
def test_the_walk_steps_one_word_per_class_and_copies_its_value(size, degree, pairs):
    # the state is the word itself and `read` gives each class its own value,
    # so a copy from any word outside the class reads a wrong value
    sig = two_faced(tuple("abcde"[:size - size // 2]), tuple("vwxyz"[:size // 2]), family=1)
    index = {letter: i for i, letter in enumerate(sig.letters())}
    related = {frozenset(p) for p in pairs}

    def commute(a, b):
        return frozenset((index[a], index[b])) in related

    normal = swap_normal_forms(sig, degree, commute)
    classes = {first: qi(k + 1) for k, first in enumerate(sorted(set(normal.values()),
                                                                  key=sig.rank))}
    stepped = []

    def step(letter, word, remaining):
        stepped.append((letter,) + word)
        return (letter,) + word

    table = tabulate(sig, degree, (), step, lambda word, n: classes[normal[word]],
                     bifree.dist.commutation(sig.letters(), commute))
    assert all(table.moment(w) == classes[first] for w, first in normal.items())
    assert len(stepped) == len(classes) - 1
    assert set(stepped) == set(classes) - {()}


def _assert_swaps_keep_moments(table, commute):
    for word, value in table.moments.items():
        for i in range(len(word) - 1):
            if commute(word[i], word[i + 1]):
                swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
                assert table.moment(swapped) == value, (word, i)


@pytest.mark.parametrize("orders, degree", [((2, 3), 6), ((2, 2, 3), 5), ((3,), 8)])
def test_group_tables_match_the_per_word_oracle(orders, degree):
    table = group_example_dist(orders, degree)
    assert table.signature == group_signature(orders)
    assert table.moments == {w: group_moment(orders, w) for w in table.signature.words(degree)}
    _assert_swaps_keep_moments(table, lambda a, b: a.side != b.side)


STAR_PAIR = [two_faced(("a",), ("b",), family=1, star=True),
             two_faced((), ("c",), family=2, star=True)]
TWO_FAMILIES = FaceSignature((FamilyFaces(1, ("a",), ("b",)), FamilyFaces(2, ("c",), ())))


@pytest.mark.parametrize("signatures, with_imag", [
    (PAIR, False),
    (PAIR, True),
    ([TWO_FAMILIES, two_faced(("a",), ("b",), family=3)], False),
    ([two_faced(("a",), ("b",), family=1), two_faced(("a",), (), family=2),
      two_faced((), ("b",), family=3)], True),
    (STAR_PAIR, True),
], ids=["pair", "complex", "two-family", "three", "star"])
def test_products_match_walks_without_a_relation(rng, signatures, with_imag):
    constituents = [rand_dist(sig, 4, rng, with_imag=with_imag) for sig in signatures]
    table = bifree_product(constituents, 4)
    of = {fam.family: k for k, sig in enumerate(signatures) for fam in sig.families}

    def commute(a, b):
        return a.side != b.side and of[a.family] != of[b.family]

    # each constituent pooled into one family, so that a walk with no
    # relation, one family per constituent, evaluates the same product
    pooled = {k: group_families(c, k) for k, c in enumerate(constituents)}

    def pool(word):
        return tuple(Letter(of[l.family], l.side, f"{l.family}:{l.index}", l.star) for l in word)

    normal = swap_normal_forms(table.signature, 4, commute)
    for word, value in table.moments.items():
        assert joint_moment(pooled, pool(word)) == value, word
    others = [w for w, first in normal.items() if w != first]
    assert others
    for word in rng.sample(others, min(len(others), 40)):
        assert naive_joint_moment(pooled, pool(word)) == table.moment(word), word
    _assert_swaps_keep_moments(table, commute)


def test_check_bifree_finds_no_mismatch_in_its_own_prediction(rng):
    joint = bifree_product([rand_dist(sig, 5, rng, with_imag=True) for sig in PAIR], 5)
    assert bifree.engine.check_bifree(joint, 5).ok
    moments = list(joint.ranked)
    # one changed moment of a word that is not a normal form is found
    word = (Letter(1, "left", "a"), Letter(2, "right", "b"))
    moments[joint.signature.rank(word)] += ONE
    changed = bifree.dist.Distribution(joint.signature, 5, moments)
    report = bifree.engine.check_bifree(changed, 5)
    assert [(w, found - expected) for w, expected, found in report.mismatches] == [(word, ONE)]
