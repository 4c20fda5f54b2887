"""Truncated moment functionals and cumulant tables.

A Distribution holds one exact scalar for every word up to its degree
bound and is normalized at the empty word.  A CumulantTable is the same
table type minus the empty word.  Both store their values in one list,
`ranked`, in the graded-lex order of `FaceSignature.words`, so the value
of a word of rank r (see `FaceSignature.rank`) is `ranked[r]`, or
`ranked[r - 1]` in a cumulant table.  Every whole-table sweep zips the
words with that list; `get` reads the value of one word at its rank, and
`moments` and `values` are read-only by-word views built on `get`.  A
table is built from that list alone; one of the wrong length is refused,
naming the first missing word in graded-lex order.  `tabulate` builds the
table of operators that act letter by letter on a state, sharing
suffixes; given which letters commute, it steps only normal forms and
copies the other moments.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Callable

from .errors import DomainError, IncompleteTableError, NormalizationError, TruncationError
from .scalars import ONE, ZERO, GaussianRational
from .words import FaceSignature, FamilyFaces, Letter, Word, format_letter, format_word

# The most entries a table or Gram matrix may have: a larger request is
# refused before its list is allocated.
MAX_WORDS = 10**7


def check_size(count: int, what: str) -> None:
    """Refuse `what`, of `count` entries, if that is more than MAX_WORDS."""
    if count > MAX_WORDS:
        raise DomainError(f"{what} has {count} entries, more than the limit of {MAX_WORDS}")


def check_table_size(signature: FaceSignature, degree: int) -> None:
    """Refuse a table over `signature` to `degree` of more than MAX_WORDS words."""
    letters = len(signature.letters())
    what = f"a table of {letters} letters to degree {degree}"
    if letters > 1 and degree >= 64:  # too many words to be worth counting
        raise DomainError(f"{what} has more than 2**64 entries, more than the limit of "
                          f"{MAX_WORDS}")
    check_size(signature.word_count(degree), what)


class _ByWord(Mapping):
    """Read-only view of a table as a word -> value mapping, iterated in
    graded-lex order; each lookup is `WordTable.get`."""

    __slots__ = ("_table",)

    def __init__(self, table: WordTable):
        self._table = table

    def __getitem__(self, word: Word) -> GaussianRational:
        value = self._table.get(word)
        if value is None:
            raise KeyError(word)
        return value

    def __iter__(self):
        return self._table.words()

    def __len__(self) -> int:
        return len(self._table.ranked)


class WordTable:
    """One exact scalar per word of length `shortest` to `degree`, held in
    `ranked` in graded-lex order: the list `values`, taken as is."""

    shortest = 0

    def __init__(self, signature: FaceSignature, degree: int, values):
        if degree < 1:
            raise DomainError("degree bound must be >= 1")
        self.signature = signature
        self.degree = degree
        if not isinstance(values, list):
            raise TypeError(f"a table takes a list in rank order, not {type(values).__name__}")
        if len(values) != self._count():
            self._refuse_length(len(values))
        self.ranked = values
        self._view = _ByWord(self)

    def _count(self) -> int:
        return self.signature.word_count(self.degree) - self.shortest

    def words(self):
        """The table's words in graded-lex order, as `ranked` holds them."""
        return itertools.islice(self.signature.words(self.degree), self.shortest, None)

    def _refuse_length(self, length: int) -> None:
        if length < self._count():
            raise IncompleteTableError(format_word(next(itertools.islice(self.words(), length,
                                                                         None))))
        raise DomainError(f"{length} values for a table of {self._count()} words")

    def get(self, word: Word) -> GaussianRational | None:
        """The value of `word`, or None when the table does not hold it."""
        if not self.shortest <= len(word) <= self.degree:
            return None
        try:
            rank = self.signature.rank(word)
        except KeyError:
            return None
        return self.ranked[rank - self.shortest]

    def _lookup(self, word: Word) -> GaussianRational:
        if len(word) < self.shortest:
            raise DomainError("cumulants are indexed by nonempty words")
        if len(word) > self.degree:
            raise TruncationError(
                f"word {format_word(word)} exceeds degree bound {self.degree}"
            )
        value = self.get(word)
        if value is None:
            raise KeyError(word)
        return value

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.signature, self.degree, self.ranked)
                == (other.signature, other.degree, other.ranked))

    __hash__ = None

    def __repr__(self):
        return (f"{type(self).__name__}(signature={self.signature!r}, degree={self.degree}, "
                f"ranked={self.ranked!r})")


class Distribution(WordTable):
    """Exact joint moments of a two-faced system, truncated at `degree`."""

    def __init__(self, signature: FaceSignature, degree: int, moments):
        super().__init__(signature, degree, moments)
        if self.ranked[0] != ONE:
            raise NormalizationError("moment of the empty word must be 1")

    @property
    def moments(self) -> Mapping[Word, GaussianRational]:
        return self._view

    moment = WordTable._lookup

    def restrict(self, families) -> Distribution:
        """Moments of the words supported on the given families (Cor 2.10-style)."""
        sub = self.signature.restrict(families)
        return _pullback(self, sub, sub.letters())


class CumulantTable(WordTable):
    """Exact cumulants, one per nonempty word up to `degree`."""

    shortest = 1

    @property
    def values(self) -> Mapping[Word, GaussianRational]:
        return self._view

    value = WordTable._lookup


def _pullback(dist: Distribution, signature: FaceSignature, sources) -> Distribution:
    """The distribution over `signature` whose word w has the moment of the
    source word that reads each letter of w as its letter in `sources`,
    listed in the order of `signature.letters()`."""
    ids = [dist.signature.letter_ids[letter] for letter in sources]
    size = len(dist.signature.letter_ids)
    ranked = dist.ranked
    values = [ranked[0]]
    within = [0]  # the source ranks within their length of the current words
    offset = 1
    for length in range(1, signature.longest(dist.degree) + 1):
        within = [r * size + i for r in within for i in ids]
        values.extend([ranked[offset + r] for r in within])
        offset += size ** length
    return Distribution(signature, dist.degree, values)


def commutation(letters, commute: Callable[[Letter, Letter], bool]) -> list[int]:
    """The relation `tabulate` takes: entry i has bit j set when
    `commute(letters[i], letters[j])`."""
    return [sum(1 << j for j, b in enumerate(letters) if commute(a, b)) for a in letters]


def _check_relation(commuting, size: int) -> None:
    """Refuse a relation that is not one symmetric, irreflexive bitmask per
    letter of an alphabet of `size` letters."""
    if len(commuting) != size:
        raise DomainError(f"a commutation relation of {len(commuting)} entries for "
                          f"{size} letters")
    for i, mask in enumerate(commuting):
        if mask >> i & 1:
            raise DomainError(f"letter {i} is listed as commuting with itself")
        if mask < 0 or mask >> size or any(
                (commuting[j] >> i & 1) != (mask >> j & 1) for j in range(size)):
            raise DomainError(f"the commutation relation is not symmetric at letter {i}")


def tabulate(signature: FaceSignature, degree: int, start,
             step: Callable[[Letter, object, int], object],
             read: Callable[[object, int], GaussianRational],
             commuting=None) -> Distribution:
    """Distribution of the operators that act letter by letter on a state.

    The state of the empty word is `start` and the state of a word
    `(letter,) + w` of n letters is `step(letter, state of w, degree - n)`,
    so a word's letters act right to left and each step is told how many
    letters can still act on its result; a walk may drop any part of a
    state that those letters cannot bring back to what `read` looks at.
    The moment of a word of n letters is `read(its state, n)`, and
    `read(start, 0)` must be 1, so no state carries its depth.  Words
    sharing a suffix share the whole evaluation of that suffix.  The walk
    carries each word's rank within its length, not the word: the letter
    of index i prepended to a word of rank r among the words of length
    n - 1 gives rank i * L^(n-1) + r among those of length n, where the
    list holds them from `offsets[n]`.

    `commuting` holds one bitmask per letter of `signature.letters()`: bit
    j of entry i says that letters i and j act as commuting operators, so
    swapping them where adjacent keeps every moment.  The relation must be
    symmetric and irreflexive; None, like all zeros, commutes nothing and
    walks every word at one step each.  A word's moment then depends only
    on its class under such swaps, and the walk steps only the classes'
    lexicographic normal forms, their lowest-ranked words (Cartier and
    Foata 1969; Anisimov and Knuth, "Inhomogeneous sorting", 1979).  With
    M(u) the letters of u that commute with every letter before them, x.u
    is a normal form iff u is one and no letter of M(u) below x commutes
    with x; then M(x.u) = {x} + (M(u) & C[x]).  A child that fails the test
    is a point p of length m and rank r: every word y.p is in no normal
    form and has the moment of y.NF(p), so each length k >= m takes one
    strided copy from the rank r' of NF(p).  Points fill longest first,
    since the words y.NF(p) that are not normal forms lie below longer
    points.
    """
    if degree < 1:
        raise DomainError("degree bound must be >= 1")
    check_table_size(signature, degree)
    letters = signature.letters()
    size = len(letters)
    commuting = [0] * size if commuting is None else list(commuting)
    _check_relation(commuting, size)
    bits = [1 << i for i in range(size)]
    # (index, letter, the letters below it that it commutes with, C[letter])
    alphabet = tuple((i, letter, commuting[i] & (bits[i] - 1), commuting[i])
                     for i, letter in enumerate(letters))
    blocking = [(1 << size) - 1 & ~mask for mask in commuting]
    moments = [None] * signature.word_count(degree)
    moments[0] = read(start, 0)
    lengths = range(signature.longest(degree) + 1)
    powers = [size ** n for n in lengths]
    offsets = [signature.word_count(n - 1) for n in lengths]
    points: list[list[int]] = [[] for _ in lengths]

    def extend(state, within: int, length: int, front: int) -> None:
        stride, offset, skipped = powers[length - 1], offsets[length], points[length]
        for i, letter, lower, commute in alphabet:
            rank = i * stride + within
            if front & lower:
                skipped.append(rank)
                continue
            grown = step(letter, state, degree - length)
            moments[offset + rank] = read(grown, length)
            if length < degree:
                extend(grown, rank, length + 1, bits[i] | front & commute)

    def normal_rank(rank: int, length: int) -> int:
        """The rank of the normal form of the word of `rank` and `length`:
        each letter in turn is the lowest that no letter left before it
        blocks.  It is not the normal form of the word's tail with the
        first letter inserted: with letters 0 < 1 < 2, 0 commuting with 1
        and 1 with 2, NF(2 0 1) is 1 2 0, while inserting 2 into NF(0 1)
        gives 2 0 1."""
        word = []
        for _ in range(length):
            rank, i = divmod(rank, size)
            word.append(i)
        word.reverse()
        normal = 0
        while word:
            seen, first, at = 0, size, 0
            for j, i in enumerate(word):
                if i < first and not seen & blocking[i]:
                    first, at = i, j
                seen |= bits[i]
            normal = normal * size + first
            del word[at]
        return normal

    if alphabet:
        extend(start, 0, 1, 0)
    for length in reversed(lengths):
        stride = powers[length]
        for rank in points[length]:
            source = normal_rank(rank, length)
            for k in range(length, len(lengths)):
                offset, end = offsets[k], offsets[k] + powers[k]
                moments[offset + rank:end:stride] = moments[offset + source:end:stride]
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
    face; index i of family f is renamed "f:i" to stay unique.  The pooled
    letters are ordered by side first, so the words change rank.
    """
    left, right = [], []
    star = dist.signature.star_closed
    for fam in dist.signature.families:
        left.extend(f"{fam.family}:{i}" for i in fam.left)
        right.extend(f"{fam.family}:{i}" for i in fam.right)
    signature = FaceSignature((FamilyFaces(family, tuple(left), tuple(right), star),))
    sources = {Letter(family, l.side, f"{l.family}:{l.index}", l.star): l
               for l in dist.signature.letters()}
    for pooled in sources:
        if pooled.star and not star:
            raise DomainError(f"unexpected word {format_letter(pooled)} in table")
    return _pullback(dist, signature, map(sources.__getitem__, signature.letters()))
