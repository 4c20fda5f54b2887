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
from functools import lru_cache
from operator import mul

from .dist import CumulantTable, Distribution
from .errors import TruncationError
from .scalars import ONE, Dilation, GaussianRational
from .words import LEFT


@lru_cache(maxsize=None)
def _first_blocks(lefts: tuple[bool, ...]):
    """(block, gaps) position tuples for every proper block holding the
    s_chi-first position of a word whose left positions are flagged."""
    n = len(lefts)
    order = [i for i in range(n) if lefts[i]] + [i for i in reversed(range(n)) if not lefts[i]]
    out = []
    for mask in range((1 << (n - 1)) - 1):
        block, gaps, run = [order[0]], [], []
        for k, pos in enumerate(order[1:]):
            if mask >> k & 1:
                block.append(pos)
                if run:
                    gaps.append(tuple(sorted(run)))
                    run = []
            else:
                run.append(pos)
        if run:
            gaps.append(tuple(sorted(run)))
        out.append((tuple(sorted(block)), tuple(gaps)))
    return tuple(out)


def _lower_terms(digits: tuple[int, ...], lefts, kappa, mu, ranker, zero):
    """mu(w) - kappa(w): the first-block sum without the whole-word block.
    `digits` are w's letter indices and `ranker(digits, positions)` is the
    rank of the sub-word at `positions`."""
    total = zero
    for block, gaps in _first_blocks(lefts):
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
    word's place unused."""
    alphabet = signature.letters()
    size = len(alphabet)
    is_left = [letter.side == LEFT for letter in alphabet]
    lengths = range(1, signature.longest(degree) + 1)
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
    rank = 1
    for n in lengths:
        for digits in itertools.product(range(size), repeat=n):
            lower = _lower_terms(digits, tuple(map(is_left.__getitem__, digits)), kappa, mu,
                                 ranker, dil.zero)
            solved[rank] = known[rank] - lower if given_moments else known[rank] + lower
            rank += 1
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


def dilate(mu: Distribution, s: GaussianRational) -> Distribution:
    """Scale every variable by s: the moment of a word picks up s^degree."""
    return Distribution(mu.signature, mu.degree,
                        [(s ** len(w)) * v for w, v in mu.moments.items()])
