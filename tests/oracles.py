"""Independent reference computations used only by the tests.

These deliberately avoid the library's evaluation machinery: the joint
moment evaluator below materializes the full case-by-case expansion of the
left/right action formulas as a flat list of terms, with no merging, no
zero pruning and no interning; the free-product moment oracle sums over
non-crossing partitions with family-pure blocks, whose free cumulants come
from Moebius inversion on the non-crossing partition lattice.  The
convolution-power transform computes cumulants from their definition as
the N-linear coefficient of the N-th additive convolution power, sharing
nothing with the library's first-block recursion but `boxplus2`.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from bifree.convolve import boxplus2
from bifree.dist import CumulantTable, Distribution, point_distribution
from bifree.errors import DomainError
from bifree.scalars import ONE, ZERO, GaussianRational
from bifree.words import LEFT


def naive_joint_moment(marginals, word):
    """Vacuum coefficient of the operator word, by brute-force expansion.

    Terms are (blocks, coeff) pairs in a list; blocks are (family, word)
    pairs standing for centered words.  Every application step appends all
    case branches for every term, zero coefficients included.
    """

    def mom(fam, w):
        return marginals[fam].moment(w)

    terms = [((), ONE)]
    for letter in reversed(word):
        fam = letter.family
        is_left = letter.side == LEFT
        new_terms = []
        for blocks, coeff in terms:
            head = None
            if blocks:
                head = blocks[0] if is_left else blocks[-1]
            if head is not None and head[0] == fam:
                w0 = head[1]
                aw = (letter,) + w0
                rest = blocks[1:] if is_left else blocks[:-1]
                if is_left:
                    grown = ((fam, aw),) + rest
                    single = ((fam, (letter,)),) + rest
                else:
                    grown = rest + ((fam, aw),)
                    single = rest + ((fam, (letter,)),)
                new_terms.append((grown, coeff))
                new_terms.append((single, -mom(fam, w0) * coeff))
                new_terms.append(
                    (rest, (mom(fam, aw) - mom(fam, w0) * mom(fam, (letter,))) * coeff)
                )
            else:
                new_terms.append((blocks, mom(fam, (letter,)) * coeff))
                longer = (
                    ((fam, (letter,)),) + blocks if is_left else blocks + ((fam, (letter,)),)
                )
                new_terms.append((longer, coeff))
        terms = new_terms
    total = ZERO
    for blocks, coeff in terms:
        if not blocks:
            total = total + coeff
    return total


def set_partitions(n):
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        yield rest + ((n - 1,),)
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (n - 1,),) + rest[i + 1 :]


@lru_cache(maxsize=None)
def noncrossing_partitions(n):
    def crossing(partition):
        owner = {}
        for b, block in enumerate(partition):
            for x in block:
                owner[x] = b
        for a, b, c, d in itertools.combinations(range(n), 4):
            if owner[a] == owner[c] != owner[b] == owner[d]:
                return True
        return False

    return tuple(p for p in set_partitions(n) if not crossing(p))


def free_product_moment(marginals, word):
    """Joint moment of free families by the non-crossing partition formula:
    mixed free cumulants vanish, so only family-pure blocks contribute."""
    if not word:
        return ONE
    total = ZERO
    for partition in noncrossing_partitions(len(word)):
        product = ONE
        for block in partition:
            families = {word[i].family for i in block}
            if len(families) != 1:
                product = ZERO
                break
            sub = tuple(word[i] for i in block)
            product = product * free_cumulant_oracle(marginals[sub[0].family], sub)
        total = total + product
    return total


def _refines(pi, sigma):
    blocks = [set(b) for b in sigma]
    return all(any(set(b) <= s for s in blocks) for b in pi)


@lru_cache(maxsize=None)
def _nc_moebius(n):
    """Moebius function mu(pi, top) on the non-crossing partition lattice,
    computed by the defining recursion on the refinement order."""
    partitions = sorted(noncrossing_partitions(n), key=len)
    top = partitions[0]
    moebius = {top: 1}
    for pi in partitions[1:]:
        moebius[pi] = -sum(
            moebius[sigma]
            for sigma in partitions
            if len(sigma) < len(pi) and _refines(pi, sigma)
        )
    return moebius


def free_cumulant_oracle(mu, word):
    """Free cumulant of a single-face word by brute-force Moebius inversion:
    Moebius-weighted moment products over all non-crossing partitions."""
    if not word:
        raise DomainError("free cumulants are indexed by nonempty words")
    families = {l.family for l in word}
    sides = {l.side for l in word}
    if len(families) != 1 or len(sides) != 1:
        raise DomainError("the oracle handles words on one side of one family only")
    total = ZERO
    for partition, weight in _nc_moebius(len(word)).items():
        product = GaussianRational(weight)
        for block in partition:
            product = product * mu.moment(tuple(word[i] for i in block))
        total = total + product
    return total


@dataclass
class ConvolutionPowerCache:
    """Additive convolution powers of a base distribution, built on demand."""

    base: Distribution
    powers: dict = field(default_factory=dict)

    def power(self, n):
        if n not in self.powers:
            if n == 0:
                self.powers[0] = point_distribution(self.base.signature, self.base.degree)
            elif n == 1:
                self.powers[1] = self.base
            else:
                self.powers[n] = boxplus2(self.power(n - 1), self.base, self.base.degree)
        return self.powers[n]


def linear_coefficient(values):
    """N-coefficient of the polynomial interpolating values at N = 0, 1, ..."""
    row = list(values)
    result = ZERO
    sign = 1
    for m in range(1, len(values)):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        result = result + sign * (row[0] / m)
        sign = -sign
    return result


def power_cumulants(mu, degree):
    """Cumulants by definition: the moment of a word in the N-th convolution
    power is a polynomial in N, and the cumulant is its linear coefficient,
    read off by Newton forward differences at N = 0..|word|."""
    cache = ConvolutionPowerCache(mu)
    values = {}
    for word in mu.signature.words(degree):
        if word:
            values[word] = linear_coefficient(
                [cache.power(k).moment(word) for k in range(len(word) + 1)]
            )
    return CumulantTable(mu.signature, degree, values)


def power_moments(table, degree):
    """Inverse of `power_cumulants`, degree by degree: the unknown moment of a
    word enters its own cumulant with coefficient one, so probing the
    transform with that moment set to zero isolates it."""
    signature = table.signature
    solved = {(): ONE}
    for n in range(1, degree + 1):
        candidate = Distribution(
            signature, n, {w: solved.get(w, ZERO) for w in signature.words(n)}
        )
        cache = ConvolutionPowerCache(candidate)
        powers = [cache.power(k) for k in range(n + 1)]
        for word in signature.words(n):
            if len(word) == n:
                probed = linear_coefficient([p.moment(word) for p in powers])
                solved[word] = table.value(word) - probed
    return Distribution(signature, degree, solved)
