"""Independent reference values the benchmark checks CLI outputs against.

Nothing here imports `bifree`: each function recomputes a known quantity
from its definition, on the benchmark's own scalar pairs (see `formats`).
"""

from __future__ import annotations

from functools import lru_cache

from formats import ONE, ZERO, add, conj, mul


def inner(u, v):
    """<u, v>, conjugate-linear in the second slot."""
    total = ZERO
    for a, b in zip(u, v):
        total = add(total, mul(a, conj(b)))
    return total


@lru_cache(maxsize=None)
def _nc_pairings(n: int) -> tuple:
    """Non-crossing pairings of 0..n-1, each a tuple of (i, j) pairs."""
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n, 2):
        for inside in _nc_pairings(k - 1):
            for outside in _nc_pairings(n - k - 1):
                out.append(
                    ((0, k),)
                    + tuple((i + 1, j + 1) for i, j in inside)
                    + tuple((i + k + 1, j + k + 1) for i, j in outside)
                )
    return tuple(out)


def gaussian_moment(word, side_of, cov):
    """Bi-free Gaussian moment: the Wick sum over bi-non-crossing pairings.

    A pairing of the word's positions is bi-non-crossing when it is
    non-crossing after reordering the positions as left letters ascending,
    then right letters descending; each pair {i < j} contributes
    cov[(word[i], word[j])].
    """
    if len(word) % 2:
        return ZERO
    order = [i for i, t in enumerate(word) if side_of[t] == "left"]
    order += [i for i, t in reversed(list(enumerate(word))) if side_of[t] == "right"]
    total = ZERO
    for pairing in _nc_pairings(len(word)):
        term = ONE
        for a, b in pairing:
            i, j = sorted((order[a], order[b]))
            term = mul(term, cov[(word[i], word[j])])
            if term == ZERO:
                break
        total = add(total, term)
    return total


def group_moment(word, orders) -> int:
    """1 when the left/right translations of the word fix the identity of
    Z/m_1 * ... * Z/m_k, else 0; letters are `F.l` / `F.r` of generator F."""
    element: list = []  # reduced word: [generator, exponent] blocks
    for token in reversed(word):
        family, index = token.split(".")
        g = int(family) - 1
        pos = 0 if index == "l" else len(element) - 1
        if element and element[pos][0] == g:
            e = (element[pos][1] + 1) % orders[g]
            if e:
                element[pos][1] = e
            else:
                del element[pos]
        elif index == "l":
            element.insert(0, [g, 1])
        else:
            element.append([g, 1])
    return 0 if element else 1
