import itertools

import reference
import pytest
from hypothesis import given
from hypothesis import strategies as st
from util import from_words, rand_dist

import bifree.dist
from bifree.dist import (CumulantTable, Distribution, group_families, point_distribution,
                         tabulate)
from bifree.errors import DomainError, IncompleteTableError, TruncationError
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, FaceSignature, FamilyFaces, Letter, two_faced


def test_tabulate_passes_each_word_length_to_read():
    # the state is the word itself, so every read and step names its word
    sig = two_faced(left=("a",), right=("b",), family=1, star=True)
    stepped, lengths, remainders = [], {}, {}

    def step(letter, word, remaining):
        stepped.append((letter,) + word)
        remainders[(letter,) + word] = remaining
        return (letter,) + word

    def read(word, n):
        lengths[word] = n
        return ZERO if word else ONE

    dist = tabulate(sig, 3, (), step, read)
    words = list(sig.words(3))
    assert lengths == {w: len(w) for w in words}
    assert lengths[()] == 0
    # each step is told how many letters can still act on its result
    assert remainders == {w: 3 - len(w) for w in words[1:]}
    # one step per nonempty word: suffixes are shared, never re-walked
    assert len(stepped) == len(words) - 1 and set(stepped) == set(words[1:])
    assert dist.moments == {w: ZERO if w else ONE for w in words}


def test_restrict_reads_the_words_of_the_kept_families(rng):
    sig = FaceSignature((FamilyFaces(1, ("a",), ("c",), True), FamilyFaces("x", ("b",), ()),
                         FamilyFaces(3, (), ("d", "e"))))
    dist = rand_dist(sig, 3, rng, with_imag=True)
    ids = [f.family for f in sig.families]
    for keep in itertools.chain.from_iterable(itertools.combinations(ids, k) for k in range(4)):
        # the definition: every word whose letters all belong to kept families
        filtered = {w: v for w, v in dist.moments.items() if all(l.family in keep for l in w)}
        sub = dist.restrict(keep)
        assert sub == from_words(Distribution, sig.restrict(keep), 3, filtered)
        assert list(sub.moments) == list(sub.signature.words(3))
    with pytest.raises(DomainError, match="unknown family id 7"):
        dist.restrict((1, 7))


@st.composite
def _signatures(draw):
    """Signatures of 0 to 5 letters, without star closure or star-closed
    (0, 2 or 4 letters), their indices spread over up to two families."""
    star = draw(st.booleans())
    count = draw(st.integers(0, 2 if star else 5))
    cuts = sorted(draw(st.lists(st.integers(0, count), min_size=3, max_size=3)))
    names = [f"i{k}" for k in range(count)]
    faces = [tuple(names[a:b]) for a, b in zip([0] + cuts, cuts + [count])]
    return FaceSignature((FamilyFaces(1, faces[0], faces[1], star),
                          FamilyFaces("g", faces[2], faces[3], star)))


@given(_signatures(), st.integers(0, 4))
def test_rank_of_each_word_is_its_index_in_graded_lex_order(sig, degree):
    words = list(sig.words(degree))
    size = len(sig.letters())
    assert size <= 5 and (size % 2 == 0 or not sig.star_closed)
    assert len(words) == sig.word_count(degree)
    assert [sig.rank(w) for w in words] == list(range(len(words)))
    if degree >= 1:
        table = tabulate(sig, degree, (), lambda letter, w, remaining: (letter,) + w,
                         lambda w, n: ONE if not w else qi(sig.rank(w)))
        assert [table.moments[w] for w in words] == table.ranked == [ONE] + [
            qi(r) for r in range(1, len(words))]


def test_word_count_covers_the_one_and_no_letter_alphabets():
    assert two_faced(left=("a",)).word_count(6) == 7
    assert [two_faced(left=("a",)).rank(w) for w in two_faced(left=("a",)).words(3)] == [0, 1, 2, 3]
    empty = FaceSignature(())
    assert empty.word_count(10**9) == 1 and list(empty.words(10**9)) == [()]
    # nothing scales with the degree when there are no letters
    assert point_distribution(empty, 10**9).ranked == [ONE]


def test_by_word_view_is_read_only_and_refuses_unknown_words(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    dist = rand_dist(sig, 2, rng)
    a = Letter(1, LEFT, "a")
    with pytest.raises(TypeError):
        dist.moments[(a,)] = ONE
    for word in ((a, a, a), (Letter(2, LEFT, "a"),), (a, Letter(1, LEFT, "a", True))):
        assert word not in dist.moments and dist.moments.get(word) is None
    assert len(dist.moments) == 7 and list(dist.moments) == list(sig.words(2))
    assert dict(dist.moments.items()) == reference.by_word(dist)
    with pytest.raises(TruncationError):
        dist.moment((a, a, a))
    table = CumulantTable(sig, 2, list(dist.ranked[1:]))
    assert () not in table.values and len(table.values) == 6
    with pytest.raises(DomainError, match="cumulants are indexed by nonempty words"):
        table.value(())


def test_a_table_takes_one_list_that_holds_every_word(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    moments = rand_dist(sig, 2, rng).ranked
    # a list is taken in graded-lex order and must hold every word
    with pytest.raises(IncompleteTableError, match="'1.c 1.c'"):
        Distribution(sig, 2, moments[:-1])
    with pytest.raises(DomainError, match="^8 values for a table of 7 words$"):
        Distribution(sig, 2, moments + [ONE])
    # anything else is refused by its type, before its length or its keys are read
    by_word = reference.by_word(Distribution(sig, 2, moments))
    for values, kind in ((by_word, "dict"), (tuple(moments), "tuple")):
        with pytest.raises(TypeError, match=f"^a table takes a list in rank order, not {kind}$"):
            Distribution(sig, 2, values)
    with pytest.raises(TypeError, match="not dict$"):
        CumulantTable(sig, 2, by_word)


_FAMILIES_SIG = FaceSignature((FamilyFaces(1, ("a",), ("c",), True),
                               FamilyFaces("x", ("b",), ()), FamilyFaces(3, (), ("d", "e"))))


def _tables(rng):
    plain = FaceSignature(tuple(FamilyFaces(f.family, f.left, f.right, False)
                                for f in _FAMILIES_SIG.families))
    star = FaceSignature(tuple(FamilyFaces(f.family, f.left, f.right, True)
                               for f in _FAMILIES_SIG.families))
    return [rand_dist(sig, 3, rng, with_imag=True) for sig in (_FAMILIES_SIG, plain, star)]


def test_restrict_and_pooling_match_the_word_keyed_reference(rng):
    ids = [f.family for f in _FAMILIES_SIG.families]
    for dist in _tables(rng):
        for keep in itertools.chain.from_iterable(itertools.combinations(ids, k)
                                                  for k in range(4)):
            assert reference.dict_equal(dist.restrict(keep), reference.dict_restrict(dist, keep))
        if dist.signature.star_closed or not any(f.star_closed
                                                 for f in dist.signature.families):
            # the pooled letters list every left index before any right one
            grouped = group_families(dist, "G")
            assert grouped.signature.letters() != dist.signature.letters()
            assert reference.dict_equal(grouped, reference.dict_group_families(dist, "G"))
        else:
            for pool in (group_families, reference.dict_group_families):
                with pytest.raises(DomainError, match=r"^unexpected word G\.1:a\* in table$"):
                    pool(dist, "G")


def test_equality_matches_the_word_keyed_reference(rng):
    dist = _tables(rng)[0]
    moments = reference.by_word(dist)
    shuffled = list(moments.items())
    rng.shuffle(shuffled)
    same = from_words(Distribution, dist.signature, 3, dict(shuffled))
    word = rng.choice(list(moments)[1:])
    other = from_words(Distribution, dist.signature, 3, {**moments, word: moments[word] + ONE})
    whole = dist.restrict([f.family for f in dist.signature.families])
    cumulants = CumulantTable(dist.signature, 3, list(dist.ranked[1:]))
    tables = [dist, same, other, whole, cumulants, dist.restrict((1,))]
    for a, b in itertools.product(tables, repeat=2):
        assert (a == b) == reference.dict_equal(a, b)
    assert same == dist == whole and other != dist and cumulants != dist


def test_an_oversize_walk_is_refused_before_it_starts(monkeypatch):
    monkeypatch.setattr(bifree.dist, "MAX_WORDS", 100)
    sig = two_faced(left=("a", "b"), right=("c",), family=1)
    assert point_distribution(sig, 3).ranked[0] == ONE  # 40 words
    calls = []
    with pytest.raises(DomainError, match="^a table of 3 letters to degree 4 has 121 entries, "
                                          "more than the limit of 100$"):
        tabulate(sig, 4, ONE, lambda *args: calls.append(args), lambda m, n: m)
    assert calls == []
    # a degree too large to count the words of is refused all the same
    with pytest.raises(DomainError, match="^a table of 3 letters to degree 64 has more than "
                                          "2\\*\\*64 entries"):
        point_distribution(sig, 64)
