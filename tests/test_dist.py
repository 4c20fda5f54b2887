import itertools

import pytest
from util import rand_dist

from bifree.dist import Distribution, tabulate
from bifree.errors import DomainError
from bifree.scalars import ONE, ZERO
from bifree.words import FaceSignature, FamilyFaces, two_faced


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
        assert sub == Distribution(sig.restrict(keep), 3, filtered)
        assert list(sub.moments) == list(sub.signature.words(3))
    with pytest.raises(DomainError, match="unknown family id 7"):
        dist.restrict((1, 7))
