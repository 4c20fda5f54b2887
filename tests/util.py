"""Shared builders for exact fixtures."""

import itertools

from bifree.dist import Distribution
from bifree.errors import DomainError
from bifree.scalars import ONE, qi
from bifree.words import format_word


def from_words(cls, signature, degree, by_word):
    """The `cls` table over `signature` to `degree` whose value at each word
    is `by_word[word]`; `by_word` must hold exactly the table's words."""
    words = list(itertools.islice(signature.words(degree), cls.shortest, None))
    if len(by_word) != len(words):
        known = set(words)
        for word in by_word:
            if word not in known:
                raise DomainError(f"unexpected word {format_word(word)} in table")
    return cls(signature, degree, [by_word[word] for word in words])


def rand_scalar(rng, with_imag=False):
    if with_imag:
        return qi(rng.randint(-4, 4), rng.randint(1, 4), rng.randint(-2, 2), rng.randint(1, 3))
    return qi(rng.randint(-4, 4), rng.randint(1, 4))


def rand_dist(signature, degree, rng, with_imag=False, centered=False):
    moments = []
    for word in signature.words(degree):
        if not word:
            moments.append(ONE)
        elif centered and len(word) == 1:
            moments.append(qi(0))
        else:
            moments.append(rand_scalar(rng, with_imag))
    return Distribution(signature, degree, moments)


def coprime_dist(signature, degree, rng, re_den, im_den=None):
    """Random table whose real parts have denominator `re_den` and whose
    imaginary parts (complex only when `im_den` is given) have denominator
    `im_den`.  Numerators are nonzero and at most 6 in size, so a prime
    denominator above 6, or 1, is exact in every entry."""

    def part(den):
        return qi(rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)), den)

    moments = []
    for word in signature.words(degree):
        if not word:
            moments.append(ONE)
        elif im_den is None:
            moments.append(part(re_den))
        else:
            moments.append(part(re_den) + part(im_den) * qi(0, 1, 1, 1))
    return Distribution(signature, degree, moments)
