from bifree.dist import tabulate
from bifree.scalars import ONE, ZERO
from bifree.words import two_faced


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
