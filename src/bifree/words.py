"""Face signatures, letters and noncommutative words.

A letter carries its family id, face side, index name and star flag; a
word is a tuple of letters (the empty tuple is the unit monomial).  The
graded-lexicographic order sorts first by degree, then letter-wise with
letters ordered by (family declaration order, left before right, index
declaration order, plain before starred).  A word's rank is its position
in that order: over L letters, the word w of length n comes after the
L^0 + ... + L^(n-1) shorter words and has rank within its length
sum_i idx(w_i) * L^(n-1-i), its letter indices read as base-L digits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, InvolutionError, SignatureError

LEFT = "left"
RIGHT = "right"


class Letter(NamedTuple):
    family: object
    side: str
    index: str
    star: bool = False


Word = tuple  # tuple[Letter, ...]


def format_letter(letter: Letter) -> str:
    return f"{letter.family}.{letter.index}{'*' if letter.star else ''}"


def format_word(word: Word) -> str:
    if not word:
        return "()"
    return " ".join(format_letter(letter) for letter in word)


def check_index(family, index: str) -> None:
    """Refuse a face index that no letter text FAMILY.INDEX[*] can name."""
    if "." in index or "*" in index:
        raise SignatureError(
            f"index {index!r} of family {family!r} contains '.' or '*'"
        )


@dataclass(frozen=True)
class FamilyFaces:
    """One family's declaration: left face I, right face J, star closure."""

    family: object
    left: tuple[str, ...] = ()
    right: tuple[str, ...] = ()
    star_closed: bool = False

    def __post_init__(self):
        for index in self.left + self.right:
            check_index(self.family, index)
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise SignatureError(f"duplicate index in family {self.family!r}")
        if set(self.left) & set(self.right):
            raise SignatureError(
                f"left and right faces of family {self.family!r} must be disjoint"
            )


@dataclass(frozen=True)
class FaceSignature:
    families: tuple[FamilyFaces, ...] = ()

    def __post_init__(self):
        ids = [f.family for f in self.families]
        if len(set(ids)) != len(ids):
            raise SignatureError("family ids must be unique")

    @property
    def star_closed(self) -> bool:
        return all(f.star_closed for f in self.families)

    def family_faces(self, family) -> FamilyFaces:
        for f in self.families:
            if f.family == family:
                return f
        raise DomainError(f"unknown family id {family!r}")

    def letters(self) -> tuple[Letter, ...]:
        out = []
        for fam in self.families:
            for side, indices in ((LEFT, fam.left), (RIGHT, fam.right)):
                for index in indices:
                    out.append(Letter(fam.family, side, index, False))
                    if fam.star_closed:
                        out.append(Letter(fam.family, side, index, True))
        return tuple(out)

    @cached_property
    def letter_ids(self) -> dict[Letter, int]:
        """The index of each letter in `letters()`."""
        return {letter: i for i, letter in enumerate(self.letters())}

    def rank(self, word: Word) -> int:
        """The index of `word` in `words(len(word))`; KeyError for a letter
        outside the alphabet."""
        ids = self.letter_ids
        size = len(ids)
        within = 0
        for letter in word:
            within = within * size + ids[letter]
        return self.word_count(len(word) - 1) + within

    def word_count(self, degree: int) -> int:
        """The number of words of degree <= `degree` (0 for degree -1)."""
        n = len(self.letter_ids)
        if n == 1:
            return degree + 1
        return (n ** (degree + 1) - 1) // (n - 1)

    def longest(self, degree: int) -> int:
        """The length of the longest word of degree <= `degree`: 0 without
        letters, whatever the degree."""
        return degree if self.letter_ids else 0

    def words(self, max_degree: int) -> Iterator[Word]:
        """All words of degree <= max_degree in graded-lex order."""
        alphabet = self.letters()
        yield ()
        for n in range(1, self.longest(max_degree) + 1):
            yield from itertools.product(alphabet, repeat=n)

    def restrict(self, families: Iterable) -> FaceSignature:
        wanted = list(families)
        known = {f.family for f in self.families}
        for fid in wanted:
            if fid not in known:
                raise DomainError(f"unknown family id {fid!r}")
        return FaceSignature(tuple(f for f in self.families if f.family in wanted))


def two_faced(left=(), right=(), family=1, star=False) -> FaceSignature:
    """Signature of a single two-faced family."""
    return FaceSignature((FamilyFaces(family, tuple(left), tuple(right), star),))


def union_signatures(signatures: Iterable[FaceSignature]) -> FaceSignature:
    families: list[FamilyFaces] = []
    seen = set()
    for sig in signatures:
        for fam in sig.families:
            if fam.family in seen:
                raise SignatureError(f"family id {fam.family!r} appears in two signatures")
            seen.add(fam.family)
            families.append(fam)
    return FaceSignature(tuple(families))


def word_star(signature: FaceSignature, word: Word) -> Word:
    """Involution: reverse the word and toggle every star flag."""
    if not signature.star_closed:
        raise InvolutionError("involution requires a star-closed signature")
    return tuple(
        Letter(letter.family, letter.side, letter.index, not letter.star)
        for letter in reversed(word)
    )
