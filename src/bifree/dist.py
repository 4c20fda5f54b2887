"""Truncated moment functionals and cumulant tables.

A Distribution holds one exact scalar for every word up to its degree
bound and is normalized at the empty word.  A CumulantTable is the same
minus the empty word.  Both validate totality on construction, naming the
first missing word in graded-lex order.  `tabulate` builds the table of
operators that act letter by letter on a state, sharing suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .errors import DomainError, IncompleteTableError, NormalizationError, TruncationError
from .scalars import ONE, ZERO, GaussianRational
from .words import FaceSignature, FamilyFaces, Letter, Word, format_word


def _validate_table(signature: FaceSignature, degree: int, table: Mapping,
                    include_empty: bool) -> None:
    if degree < 1:
        raise DomainError("degree bound must be >= 1")
    expected = 0
    for word in signature.words(degree):
        if not word and not include_empty:
            continue
        expected += 1
        if word not in table:
            raise IncompleteTableError(format_word(word))
    if len(table) != expected:
        known = set(signature.words(degree))
        for word in table:
            if word not in known or (not word and not include_empty):
                raise DomainError(f"unexpected word {format_word(word)} in table")


@dataclass
class Distribution:
    """Exact joint moments of a two-faced system, truncated at `degree`."""

    signature: FaceSignature
    degree: int
    moments: dict[Word, GaussianRational]

    def __post_init__(self):
        _validate_table(self.signature, self.degree, self.moments, include_empty=True)
        if self.moments[()] != ONE:
            raise NormalizationError("moment of the empty word must be 1")

    def moment(self, word: Word) -> GaussianRational:
        if len(word) > self.degree:
            raise TruncationError(
                f"word {format_word(word)} exceeds degree bound {self.degree}"
            )
        return self.moments[word]

    def restrict(self, families) -> Distribution:
        """Moments of the words supported on the given families (Cor 2.10-style)."""
        sub = self.signature.restrict(families)
        return Distribution(sub, self.degree, {w: self.moments[w] for w in sub.words(self.degree)})

    def retag(self, mapping: Mapping) -> Distribution:
        """Rename family ids via `mapping` (missing ids are kept)."""
        def fid(f):
            return mapping.get(f, f)

        families = tuple(
            FamilyFaces(fid(f.family), f.left, f.right, f.star_closed)
            for f in self.signature.families
        )
        moments = {
            tuple(Letter(fid(l.family), l.side, l.index, l.star) for l in w): v
            for w, v in self.moments.items()
        }
        return Distribution(FaceSignature(families), self.degree, moments)


@dataclass
class CumulantTable:
    """Exact cumulants, one per nonempty word up to `degree`."""

    signature: FaceSignature
    degree: int
    values: dict[Word, GaussianRational]

    def __post_init__(self):
        _validate_table(self.signature, self.degree, self.values, include_empty=False)

    def value(self, word: Word) -> GaussianRational:
        if not word:
            raise DomainError("cumulants are indexed by nonempty words")
        if len(word) > self.degree:
            raise TruncationError(
                f"word {format_word(word)} exceeds degree bound {self.degree}"
            )
        return self.values[word]


def tabulate(signature: FaceSignature, degree: int, start,
             step: Callable[[Letter, object, int], object],
             read: Callable[[object, int], GaussianRational]) -> Distribution:
    """Distribution of the operators that act letter by letter on a state.

    The state of the empty word is `start` and the state of a word
    `(letter,) + w` of n letters is `step(letter, state of w, degree - n)`,
    so a word's letters act right to left and each step is told how many
    letters can still act on its result; a walk may drop any part of a
    state that those letters cannot bring back to what `read` looks at.
    The moment of a word of n letters is `read(its state, n)`, and
    `read(start, 0)` must be 1, so no state carries its depth.  Words
    sharing a suffix share the whole evaluation of that suffix, so the walk
    costs one step per word.
    """
    alphabet = signature.letters()
    moments = {(): read(start, 0)}

    def extend(state, word: Word, length: int) -> None:
        for letter in alphabet:
            grown = step(letter, state, degree - length)
            longer = (letter,) + word
            moments[longer] = read(grown, length)
            if length < degree:
                extend(grown, longer, length + 1)

    if degree >= 1:
        extend(start, (), 1)
    return Distribution(signature, degree, moments)


def point_distribution(signature: FaceSignature, degree: int) -> Distribution:
    """All nonempty moments zero: the neutral element of additive convolution."""
    return tabulate(signature, degree, ONE,
                    lambda letter, m, remaining: ZERO, lambda m, n: m)


def ones_distribution(signature: FaceSignature, degree: int) -> Distribution:
    """Every moment 1: constant-1 variables, neutral for multiplicative convolution."""
    return tabulate(signature, degree, ONE,
                    lambda letter, m, remaining: m, lambda m, n: m)


def group_families(dist: Distribution, family) -> Distribution:
    """View a multi-family distribution as a single two-faced family.

    Left faces are pooled into one left face, right faces into one right
    face; index i of family f is renamed "f:i" to stay unique.
    """
    left, right = [], []
    star = dist.signature.star_closed
    for fam in dist.signature.families:
        left.extend(f"{fam.family}:{i}" for i in fam.left)
        right.extend(f"{fam.family}:{i}" for i in fam.right)
    signature = FaceSignature((FamilyFaces(family, tuple(left), tuple(right), star),))
    moments = {
        tuple(Letter(family, l.side, f"{l.family}:{l.index}", l.star) for l in w): v
        for w, v in dist.moments.items()
    }
    return Distribution(signature, dist.degree, moments)
