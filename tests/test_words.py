import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bifree.errors import InvolutionError, SignatureError
from bifree.words import (LEFT, RIGHT, FaceSignature, FamilyFaces, Letter,
                          format_word, two_faced, union_signatures, word_star)


@pytest.fixture
def star_sig():
    return two_faced(left=("a", "b"), right=("c",), family=1, star=True)


def test_letters_ordered_left_before_right(star_sig):
    letters = star_sig.letters()
    assert [l.index for l in letters] == ["a", "a", "b", "b", "c", "c"]
    assert [l.side for l in letters] == [LEFT] * 4 + [RIGHT] * 2
    assert [l.star for l in letters] == [False, True] * 3


def test_enumeration_is_graded_lex_bijection(star_sig):
    words = list(star_sig.words(3))
    n = len(star_sig.letters())
    assert len(words) == star_sig.word_count(3) == sum(n**k for k in range(4))
    assert len(set(words)) == len(words)
    position = {letter: i for i, letter in enumerate(star_sig.letters())}
    keys = [(len(w), [position[letter] for letter in w]) for w in words]
    assert keys == sorted(keys)


@pytest.mark.parametrize("indices", [(), ("a",), ("a", "b"), ("a", "b", "c")])
def test_word_count_is_the_length_of_the_enumeration(indices):
    sig = two_faced(left=indices, family=1)
    for degree in range(5):
        assert sig.word_count(degree) == len(list(sig.words(degree)))
    assert sig.word_count(-1) == 0


def test_empty_signature_has_only_the_empty_word_at_any_degree():
    sig = FaceSignature()
    assert list(sig.words(10**9)) == [()]
    assert sig.word_count(10**9) == 1


def test_word_star_involution(star_sig):
    letters = star_sig.letters()
    for word in itertools.product(letters, repeat=3):
        starred = word_star(star_sig, word)
        assert len(starred) == len(word)
        assert word_star(star_sig, starred) == word


_STAR_SIG = two_faced(left=("a", "b"), right=("c",), family=1, star=True)


@given(st.lists(st.sampled_from(_STAR_SIG.letters()), max_size=7))
def test_word_star_involution_property(letters):
    word = tuple(letters)
    assert word_star(_STAR_SIG, word_star(_STAR_SIG, word)) == word
    # anti-homomorphism: (uv)* = v* u*
    for cut in range(len(word) + 1):
        u, v = word[:cut], word[cut:]
        assert word_star(_STAR_SIG, u + v) == word_star(_STAR_SIG, v) + word_star(_STAR_SIG, u)


def test_word_star_examples(star_sig):
    a = Letter(1, LEFT, "a")
    b = Letter(1, LEFT, "b", star=True)
    assert word_star(star_sig, ()) == ()
    assert word_star(star_sig, (a,)) == (Letter(1, LEFT, "a", star=True),)
    assert word_star(star_sig, (a, b)) == (Letter(1, LEFT, "b"), Letter(1, LEFT, "a", True))


def test_word_star_requires_star_closure():
    sig = two_faced(left=("a",), family=1)
    with pytest.raises(InvolutionError):
        word_star(sig, ())


def test_signature_validation():
    with pytest.raises(SignatureError):
        FamilyFaces(1, ("a",), ("a",))
    with pytest.raises(SignatureError):
        FamilyFaces(1, ("a", "a"))
    with pytest.raises(SignatureError):
        FaceSignature((FamilyFaces(1, ("a",)), FamilyFaces(1, ("b",))))
    with pytest.raises(SignatureError):
        union_signatures([two_faced(left=("a",)), two_faced(left=("b",))])


@pytest.mark.parametrize("index", ["a.b", "a*", ".", "*"])
def test_index_no_letter_text_can_name_is_refused(index):
    # a letter is written FAMILY.INDEX[*], so '.' and '*' cannot occur in INDEX
    with pytest.raises(SignatureError, match=r"contains '\.' or '\*'"):
        FamilyFaces(1, (index,))
    with pytest.raises(SignatureError):
        two_faced(left=("a",), right=(index,), family="x.y")
    # dots in the family id stay allowed: the letter parser splits at the last one
    assert two_faced(left=("a",), family="x.y").letters()[0].index == "a"


def test_format_word(star_sig):
    a = Letter(1, LEFT, "a")
    c = Letter(1, RIGHT, "c", star=True)
    assert format_word(()) == "()"
    assert format_word((a, c)) == "1.a 1.c*"
