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

from functools import lru_cache

from .dist import CumulantTable, Distribution
from .errors import TruncationError
from .scalars import ONE, Dilation, GaussianRational
from .words import LEFT, Word


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


def _lower_terms(word: Word, kappa, mu, zero):
    """mu(w) - kappa(w): the first-block sum without the whole-word block."""
    total = zero
    for block, gaps in _first_blocks(tuple(letter.side == LEFT for letter in word)):
        term = kappa[tuple(word[i] for i in block)]
        for gap in gaps:
            if not term:
                break
            term = term * mu[tuple(word[i] for i in gap)]
        if term:
            total = total + term
    return total


def _solve(signature, degree: int, given: dict,
           given_moments: bool) -> dict[Word, GaussianRational]:
    """Cumulants from the moments `given` (`given_moments`), or moments from
    the cumulants `given`, of the nonempty words up to `degree`, on both
    tables dilated by D^|w|; each word is divided once at the end."""
    words = [w for w in signature.words(degree) if w]
    dil = Dilation(given[w] for w in words)
    known = {w: dil.dilated(given[w], len(w)) for w in words}
    solved: dict = {}
    kappa, mu = (solved, known) if given_moments else (known, solved)
    for w in words:
        lower = _lower_terms(w, kappa, mu, dil.zero)
        solved[w] = known[w] - lower if given_moments else known[w] + lower
    return {w: dil.scalar(v, len(w)) for w, v in solved.items()}


def cumulants_from_moments(mu: Distribution, degree: int) -> CumulantTable:
    """All cumulants of words up to `degree`."""
    if mu.degree < degree:
        raise TruncationError(
            f"cumulants at degree {degree} need moments at that degree"
        )
    return CumulantTable(mu.signature, degree, _solve(mu.signature, degree, mu.moments, True))


def moments_from_cumulants(table: CumulantTable, degree: int) -> Distribution:
    """The unique distribution whose cumulants up to `degree` match `table`."""
    if table.degree < degree:
        raise TruncationError(
            f"moments at degree {degree} need cumulants at that degree"
        )
    return Distribution(table.signature, degree,
                        {(): ONE, **_solve(table.signature, degree, table.values, False)})


def dilate(mu: Distribution, s: GaussianRational) -> Distribution:
    """Scale every variable by s: the moment of a word picks up s^degree."""
    return Distribution(
        mu.signature, mu.degree,
        {w: (s ** len(w)) * v for w, v in mu.moments.items()},
    )
