"""Cumulants of two-faced distributions.

Bi-free cumulants are the free cumulants of each word read in the order
s_chi: left positions ascending, then right positions descending
(Charlesworth-Nelson-Skoufranis; Mastnak-Nica).  The moment of a word is
therefore the sum, over the blocks B holding the s_chi-first letter, of
kappa(w|B) times the moments of the gaps that B cuts from the s_chi order,
every sub-word keeping the positions' original order.  The block B = whole
word contributes kappa(w) itself, so walking the words in graded order
solves that one identity for the cumulant or for the moment alike.

Every term of the identity for w has total length |w|, so it holds as well
for the tables dilated by D^|w|: the recursion reads each given value as
`Dilation.dilated(v, |w|)`, runs on integers, and divides each solved word
once with `Dilation.scalar(v, |w|)`.
"""

from __future__ import annotations

import itertools
from operator import mul

from .dist import CumulantTable, Distribution, check_size
from .errors import TruncationError
from .scalars import ONE, Dilation
from .words import LEFT


def _first_blocks(lefts: tuple[bool, ...], sizes) -> list:
    """(block, gaps) position tuples for every proper block holding the
    s_chi-first position of a word whose left positions are flagged, for the
    block lengths in `sizes` (each less than the word's).

    The blocks grow along the s_chi order, each next position either
    joining the block or extending the open run of the gap it falls in; a
    block stops growing at the largest size."""
    n = len(lefts)
    order = [i for i in range(n) if lefts[i]] + [i for i in reversed(range(n)) if not lefts[i]]
    largest = max(sizes, default=0)
    partial = [((order[0],), (), ())]  # (block, closed gaps, open run), in s_chi order
    for pos in order[1:]:
        grown = []
        for block, gaps, run in partial:
            if len(block) < largest:
                grown.append((block + (pos,), gaps + (tuple(sorted(run)),) if run else gaps, ()))
            grown.append((block, gaps, run + (pos,)))
        partial = grown
    kept = 0
    for block, gaps, run in partial:  # in place: the list is long
        if len(block) in sizes:
            partial[kept] = tuple(sorted(block)), gaps + (tuple(sorted(run)),) if run else gaps
            kept += 1
    del partial[kept:]
    return partial


def _lower_terms(digits: tuple[int, ...], blocks, kappa, mu, ranker, zero):
    """mu(w) - kappa(w): the first-block sum without the whole-word block.
    `digits` are w's letter indices, `blocks` the `_first_blocks` of its
    left/right pattern, and `ranker(digits, positions)` is the rank of the
    sub-word at `positions`."""
    total = zero
    for block, gaps in blocks:
        term = kappa[ranker(digits, block)]
        for gap in gaps:
            if not term:
                break
            term = term * mu[ranker(digits, gap)]
        if term:
            total = total + term
    return total


def _solve(signature, degree: int, given: list, given_moments: bool) -> list:
    """Cumulants from the moments `given` (`given_moments`), or moments from
    the cumulants `given`, of the nonempty words up to `degree`, listed in
    graded-lex order, on both tables dilated by D^|w|; each word is divided
    once at the end.  Both tables are lists indexed by rank, the empty
    word's place unused.

    A word's terms read only shorter words, so the words of one length may
    be solved in any order: they are taken pattern by pattern, each
    left/right pattern's blocks listed once, for the words whose letters
    follow that pattern.  The longest pattern's list of 2^(n-1) - 1 blocks
    is refused at once if it would not fit.  Given cumulants, a block whose
    length has none nonzero adds nothing, and is not listed: a Gaussian's
    words sum only their blocks of two letters."""
    longest = signature.longest(degree)
    if longest:
        check_size(2 ** (longest - 1) - 1, f"the first-block list of a word of {longest} letters")
    alphabet = signature.letters()
    size = len(alphabet)
    sides: dict[bool, list[int]] = {}  # is_left -> the letter indices of that side
    for i, letter in enumerate(alphabet):
        sides.setdefault(letter.side == LEFT, []).append(i)
    lengths = range(1, longest + 1)
    offsets = [signature.word_count(n - 1) for n in range(len(lengths) + 1)]
    # the rank of a sub-word is its length's offset plus its digits read in base L
    weights = [tuple(size ** (n - 1 - i) for i in range(n)) for n in range(len(lengths) + 1)]

    def ranker(digits, positions):
        return offsets[len(positions)] + sum(map(mul, map(digits.__getitem__, positions),
                                                 weights[len(positions)]))

    dil = Dilation(given)
    known = [None]
    for n in lengths:
        known.extend(dil.dilated(v, n) for v in given[offsets[n] - 1:offsets[n] + size ** n - 1])
    solved = [None] * len(known)
    kappa, mu = (solved, known) if given_moments else (known, solved)
    live = [n for n in lengths if given_moments or any(known[offsets[n]:offsets[n] + size ** n])]
    for n in lengths:
        sizes = [m for m in live if m < n]
        for lefts in itertools.product(sides, repeat=n):
            blocks = _first_blocks(lefts, sizes)
            for digits in itertools.product(*map(sides.__getitem__, lefts)):
                rank = offsets[n] + sum(map(mul, digits, weights[n]))
                lower = _lower_terms(digits, blocks, kappa, mu, ranker, dil.zero)
                solved[rank] = known[rank] - lower if given_moments else known[rank] + lower
    return [dil.scalar(solved[offsets[n] + r], n)
            for n in lengths for r in range(size ** n)]


def cumulants_from_moments(mu: Distribution, degree: int) -> CumulantTable:
    """All cumulants of words up to `degree`."""
    if mu.degree < degree:
        raise TruncationError(
            f"cumulants at degree {degree} need moments at that degree"
        )
    count = mu.signature.word_count(degree)
    return CumulantTable(mu.signature, degree,
                         _solve(mu.signature, degree, mu.ranked[1:count], True))


def moments_from_cumulants(table: CumulantTable, degree: int) -> Distribution:
    """The unique distribution whose cumulants up to `degree` match `table`."""
    if table.degree < degree:
        raise TruncationError(
            f"moments at degree {degree} need cumulants at that degree"
        )
    count = table.signature.word_count(degree)
    return Distribution(table.signature, degree,
                        [ONE] + _solve(table.signature, degree, table.ranked[:count - 1], False))
