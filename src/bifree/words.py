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


class Record:
    """Named fields in slots, set once by `__init__`, with a dataclass's
    equality, hash and repr: two records of one class are equal when their
    fields are.  A subclass lists its fields in `_fields` and its slots,
    and sets them through `_set`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through the validating constructor
        return type(self), self._values()


class FamilyFaces(Record):
    """One family's declaration: left face I, right face J, star closure."""

    __slots__ = _fields = ("family", "left", "right", "star_closed")

    def __init__(self, family, left: tuple[str, ...] = (), right: tuple[str, ...] = (),
                 star_closed: bool = False):
        for index in left + right:
            check_index(family, index)
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise SignatureError(f"duplicate index in family {family!r}")
        if set(left) & set(right):
            raise SignatureError(
                f"left and right faces of family {family!r} must be disjoint"
            )
        self._set(family=family, left=left, right=right, star_closed=star_closed)


class FaceSignature(Record):
    """The families' faces, in declaration order; `letter_ids` holds the
    index of each letter in `letters()`."""

    __slots__ = ("families", "letter_ids")
    _fields = ("families",)

    def __init__(self, families: tuple[FamilyFaces, ...] = ()):
        ids = [f.family for f in families]
        if len(set(ids)) != len(ids):
            raise SignatureError("family ids must be unique")
        self._set(families=families)
        self._set(letter_ids={letter: i for i, letter in enumerate(self.letters())})

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
