"""Independent reference computations used only by the tests.

These deliberately avoid the library's evaluation machinery: the joint
moment evaluator below materializes the full case-by-case expansion of the
left/right action formulas as a flat list of terms, with no merging, no
zero pruning and no interning; the free-product moment oracle sums over
non-crossing partitions with family-pure blocks, whose free cumulants come
from Moebius inversion on the non-crossing partition lattice.  The
convolution-power transform computes cumulants from their definition as
the N-linear coefficient of the N-th additive convolution power, sharing
nothing with the library's first-block recursion but `boxplus2`.  The
scaled sum of N bi-free copies is expanded from the N-fold product into
its tagged words, sharing nothing with the library's cumulant scaling but
`bifree_product`.  The Fock realization applies creation and annihilation
operators to tensors of coordinate vectors, one word at a time, sharing
nothing with the library's Fock walk but `VectorSpec.operator_vectors`.
The Gram positivity check eliminates over the rationals, where the library
eliminates fraction-free on the dilated integers; the two share only the
involution and the witness's self-check `gram_quadratic_form`.  The
bi-free partial S-transform is a truncated power series in the moments
alone, so its product law checks the multiplicative convolution without
any operator walk; its cumulants, summed over non-crossing partitions of
the doubled word from the cumulants of the two factors, check it on every
signature.  Restriction, family pooling and equality are done on
word-keyed dicts, read one word at a time, where the library maps value
lists by rank; renaming family ids, which only these checks need, is done
the same way.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from util import from_words

from bifree.convolve import boxplus2
from bifree.cumulant import cumulants_from_moments
from bifree.dist import CumulantTable, Distribution, point_distribution
from bifree.engine import bifree_product
from bifree.errors import DomainError, TruncationError
from bifree.models import PsdResult, VectorSpec, _involution, gram_quadratic_form
from bifree.scalars import ONE, ZERO, GaussianRational, qi
from bifree.words import LEFT, FaceSignature, FamilyFaces, Letter, Word, format_word


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


def _joins_to_one(blocks, n):
    """Whether `blocks`, joined with the pairs {2i, 2i+1}, connect all 2n
    positions (union-find)."""
    parent = list(range(2 * n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for group in itertools.chain(blocks, ((2 * i, 2 * i + 1) for i in range(n))):
        for x in group[1:]:
            parent[root(x)] = root(group[0])
    return len({root(x) for x in range(2 * n)}) == 1


def _boxtimes_cumulant(kappas, word, right_order):
    # letter i becomes positions 2i and 2i+1 on its side, holding its copies
    # in the order (0, 1) = (mu, nu), or `right_order` for a right letter
    copy, letters = [], []
    for letter in word:
        copy.extend((0, 1) if letter.side == LEFT else right_order)
        letters += [letter, letter]
    m = len(letters)
    s_chi = ([p for p in range(m) if letters[p].side == LEFT]
             + [p for p in reversed(range(m)) if letters[p].side != LEFT])
    total = ZERO
    for partition in noncrossing_partitions(m):
        blocks = [sorted(s_chi[i] for i in block) for block in partition]
        if any(len({copy[p] for p in block}) > 1 for block in blocks):
            continue
        if not _joins_to_one(blocks, len(word)):
            continue
        term = ONE
        for block in blocks:
            term = term * kappas[copy[block[0]]][tuple(letters[p] for p in block)]
        total = total + term
    return total


def boxtimes_cumulants(mu, nu, degree, right_order=(0, 1)):
    """word -> the bi-free cumulant of mu boxtimes nu, for every nonempty word
    up to `degree`, by cumulants with products as entries (Charlesworth,
    Nelson and Skoufranis).  Each letter is its mu-copy times its nu-copy.
    The cumulant of a word sums over the partitions pi of the doubled word
    that are non-crossing in its s_chi order, keep each block inside one
    copy, and join with the letter pairs to a single block; each such pi
    adds the product of its blocks' cumulants in their copy.  Those come
    from `cumulants_from_moments`, which shares no code with the operator
    walk of `boxtimes2`.  `right_order=(1, 0)`, a negative control, puts a
    right letter's nu-copy first."""
    kappas = [by_word(cumulants_from_moments(dist, degree)) for dist in (mu, nu)]
    return {word: _boxtimes_cumulant(kappas, word, right_order)
            for word in mu.signature.words(degree) if word}


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
    return from_words(CumulantTable, mu.signature, degree, values)


def power_moments(table, degree):
    """Inverse of `power_cumulants`, degree by degree: the unknown moment of a
    word enters its own cumulant with coefficient one, so probing the
    transform with that moment set to zero isolates it."""
    signature = table.signature
    solved = {(): ONE}
    for n in range(1, degree + 1):
        candidate = Distribution(signature, n, [solved.get(w, ZERO) for w in signature.words(n)])
        cache = ConvolutionPowerCache(candidate)
        powers = [cache.power(k) for k in range(n + 1)]
        for word in signature.words(n):
            if len(word) == n:
                probed = linear_coefficient([p.moment(word) for p in powers])
                solved[word] = table.value(word) - probed
    return from_words(Distribution, signature, degree, solved)


def scaled_sum_dist_direct(mu, n, degree):
    """N^(-1/2) times the sum of N bi-free copies of mu, by definition.

    Builds the joint distribution of N tagged copies and expands every
    moment of the scaled sum into the N^m tagged words.  Exponential in the
    word degree; intended for N <= 4.
    """
    root = isqrt(n)
    if root * root != n:
        raise DomainError(f"N must be a perfect square, got {n}")
    copies = [
        dict_retag(mu, {f.family: (f.family, t) for f in mu.signature.families})
        for t in range(n)
    ]
    joint = bifree_product(copies, degree)
    inv_root = qi(1, root)
    moments = {}
    for word in mu.signature.words(degree):
        total = ZERO
        for tags in itertools.product(range(n), repeat=len(word)):
            tagged = tuple(
                Letter((l.family, t), l.side, l.index, l.star) for l, t in zip(word, tags)
            )
            total = total + joint.moment(tagged)
        moments[word] = total * inv_root ** len(word)
    return from_words(Distribution, mu.signature, degree, moments)


# ---------------------------------------------------------------------------
# Full Fock space, by definition


@dataclass
class FockState:
    """Linear combination of elementary tensors plus a vacuum coefficient."""

    vacuum: GaussianRational
    terms: dict


def fock_vacuum():
    return FockState(ONE, {})


@dataclass(frozen=True)
class FockOp:
    kind: str  # create_left | annih_left | create_right | annih_right
    vector: tuple


def create_left(h):
    return FockOp("create_left", tuple(h))


def annih_left(h):
    return FockOp("annih_left", tuple(h))


def create_right(h):
    return FockOp("create_right", tuple(h))


def annih_right(h):
    return FockOp("annih_right", tuple(h))


def _inner(u, v):
    """<u, v>, conjugate-linear in the second slot."""
    return sum((a * b.conjugate() for a, b in zip(u, v, strict=True)), ZERO)


def fock_apply(op, state):
    """One creation or annihilation operator applied to a Fock state."""
    h = op.vector
    for word in state.terms:
        if word and len(word[0]) != len(h):
            raise DomainError("operator vector length does not match state dimension")
    vacuum = ZERO
    terms = {}

    def add(word, value):
        nonlocal vacuum
        if not value:
            return
        if word == ():
            vacuum = vacuum + value
            return
        acc = terms.get(word)
        value = value if acc is None else acc + value
        if value:
            terms[word] = value
        elif acc is not None:
            del terms[word]

    if op.kind == "create_left":
        if state.vacuum:
            add((h,), state.vacuum)
        for word, c in state.terms.items():
            add((h,) + word, c)
    elif op.kind == "create_right":
        if state.vacuum:
            add((h,), state.vacuum)
        for word, c in state.terms.items():
            add(word + (h,), c)
    elif op.kind == "annih_left":
        for word, c in state.terms.items():
            add(word[1:], c * _inner(word[0], h))
    elif op.kind == "annih_right":
        for word, c in state.terms.items():
            add(word[:-1], c * _inner(word[-1], h))
    else:
        raise DomainError(f"unknown Fock operator kind {op.kind!r}")
    return FockState(vacuum, terms)


def fock_step(spec: VectorSpec, letter: Letter, state: FockState) -> FockState:
    """The operator of `letter` (creation plus annihilation) applied to `state`."""
    create_vec, annih_vec = spec.operator_vectors(letter)
    if letter.side == LEFT:
        created = fock_apply(create_left(create_vec), state)
        killed = fock_apply(annih_left(annih_vec), state)
    else:
        created = fock_apply(create_right(create_vec), state)
        killed = fock_apply(annih_right(annih_vec), state)
    terms = dict(created.terms)
    for w, c in killed.terms.items():
        acc = terms.get(w)
        c = c if acc is None else acc + c
        if c:
            terms[w] = c
        elif acc is not None:
            del terms[w]
    return FockState(created.vacuum + killed.vacuum, terms)


def fock_moment(spec: VectorSpec, word: Word) -> GaussianRational:
    """Vacuum expectation of the operator word, applied to the vacuum letter
    by letter from the right."""
    state = fock_vacuum()
    for letter in reversed(word):
        state = fock_step(spec, letter, state)
    return state.vacuum


# ---------------------------------------------------------------------------
# Positivity of the Gram form, by elimination over the rationals


def fraction_gram_psd_check(mu: Distribution, degree: int) -> PsdResult:
    """Decide positive semidefiniteness of the Gram form on words of degree
    <= degree//2 by exact symmetric elimination with diagonal pivoting.

    Star-closed signatures use the word involution; otherwise every letter
    is taken self-adjoint and the involution is word reversal.  Returns a
    witness polynomial P with mu(P*P) < 0 when indefinite.
    """
    if degree < 2:
        raise DomainError("positivity check needs degree >= 2")
    if mu.degree < degree:
        raise TruncationError(f"moment table degree {mu.degree} below requested {degree}")
    basis = list(mu.signature.words(degree // 2))
    n = len(basis)
    moments = mu.moments
    gram = [[moments[u + w] for w in basis] for u in map(_involution(mu.signature), basis)]
    for i in range(n):
        for j in range(i, n):
            x, y = gram[i][j], gram[j][i]
            if x.re != y.re or x.im != -y.im:
                raise DomainError(
                    "moment table is not compatible with the involution: "
                    f"Gram matrix not hermitian at ({format_word(basis[i])}, "
                    f"{format_word(basis[j])})"
                )

    active = list(range(n))
    # Each record is (pivot index, row of multipliers) for back-substitution.
    steps: list[tuple[int, dict[int, GaussianRational]]] = []

    def backsubstitute(vec: dict[int, GaussianRational]) -> PsdResult:
        for p, row in reversed(steps):
            value = ZERO
            for i, m in row.items():
                if i in vec:
                    value = value + m * vec[i]
            if value:
                vec[p] = -value
        witness = {basis[i]: c for i, c in vec.items() if c}
        if gram_quadratic_form(mu, witness).re >= 0:
            raise AssertionError("internal error: witness fails to certify")
        return PsdResult(False, witness)

    while active:
        pivot = None
        best = None
        for i in active:
            d = gram[i][i]
            if d:
                if best is None or abs(d.re) > abs(best):
                    pivot, best = i, d.re
        if pivot is None:
            # All active diagonals vanish; any nonzero off-diagonal entry
            # gives a hyperbolic 2x2 block, hence indefiniteness.
            for i in active:
                for j in active:
                    if i != j and gram[i][j]:
                        # value of the form on (-b, 1) is -2*|b|^2 < 0
                        b = gram[i][j]
                        return backsubstitute({i: -b, j: ONE})
            return PsdResult(True)
        d = gram[pivot][pivot]
        if d.re < 0:
            return backsubstitute({pivot: ONE})
        active.remove(pivot)
        row = {i: gram[pivot][i] / d for i in active if gram[pivot][i]}
        steps.append((pivot, row))
        for i in active:
            ci = gram[i][pivot]
            if not ci:
                continue
            for j in active:
                rj = row.get(j)
                if rj is not None:
                    gram[i][j] = gram[i][j] - ci * rj
    return PsdResult(True)


# ---------------------------------------------------------------------------
# Bi-free partial S-transform of a left letter a and a right letter b
# (Voiculescu, "Free probability for pairs of faces III: 2-variables bi-free
# partial S- and T-transforms").  With psi_a(z) = sum_{m>=1} phi(a^m) z^m,
# chi_a its compositional inverse (which needs phi(a) != 0) and
# H(u, v) = sum_{m,n>=0} phi(a^m b^n) u^m v^n,
#     S(z, w) = (1+z)(1+w)/(zw) * (1 - (1+z+w) / H(chi_a(z), chi_b(w))),
# and S of the letter-wise product of a bi-free pair is the product of the
# pair's S.  A univariate series is a list of Fraction coefficients, a
# bivariate one a dict (i, j) -> Fraction; both are truncated at a total
# degree `order`.


def _mul1(f, g, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(f[:order + 1]):
        for j, y in enumerate(g[:order + 1 - i]):
            out[i + j] += x * y
    return out


def _powers(g, order):
    """[g^0, ..., g^order], each truncated at degree `order`."""
    powers = [[Fraction(1)] + [Fraction(0)] * order]
    for _ in range(order):
        powers.append(_mul1(powers[-1], g, order))
    return powers


def _compositional_inverse(psi, order):
    """chi with psi(chi(z)) = z up to degree `order`; psi[0] = 0 != psi[1].
    The coefficient of z^n in psi(chi(z)) is psi[1]*chi[n] plus terms in
    chi[1..n-1] alone, which fixes chi[n]."""
    chi = [Fraction(0), 1 / psi[1]] + [Fraction(0)] * (order - 1)
    for n in range(2, order + 1):
        powers = _powers(chi, order)
        chi[n] = -sum(psi[m] * powers[m][n] for m in range(1, n + 1)) / psi[1]
    return chi


def series_mul(f, g, order):
    """f*g, bivariate, with every coefficient of total degree <= order."""
    out = {(i, j): Fraction(0) for i in range(order + 1) for j in range(order + 1 - i)}
    for (i, j), x in f.items():
        for (k, l), y in g.items():
            if i + j + k + l <= order:
                out[(i + k, j + l)] += x * y
    return out


def _reciprocal(h, order):
    """1/h, bivariate, h[(0, 0)] != 0; coefficients in graded order."""
    g = {}
    for total in range(order + 1):
        for i in range(total + 1):
            j = total - i
            acc = sum(h.get((k, l), 0) * g[(i - k, j - l)]
                      for k in range(i + 1) for l in range(j + 1) if k or l)
            g[(i, j)] = ((1 if total == 0 else 0) - acc) / h[(0, 0)]
    return g


def s_transform(dist: Distribution, a: Letter, b: Letter, order: int):
    """{(i, j): coefficient of z^i w^j of S}, i + j <= order, of the left
    letter a and the right letter b of a real table of degree >= order + 2."""
    top = order + 2

    def phi(m, n):
        value = dist.moment((a,) * m + (b,) * n)
        assert value.is_real
        return value.re

    chi_a = _compositional_inverse([phi(m, 0) if m else 0 for m in range(top + 1)], top)
    chi_b = _compositional_inverse([phi(0, n) if n else 0 for n in range(top + 1)], top)
    pa, pb = _powers(chi_a, top), _powers(chi_b, top)
    # chi_a^m starts at z^m, so H's terms of total degree <= top suffice
    composed = {(i, j): Fraction(0) for i in range(top + 1) for j in range(top + 1 - i)}
    for m in range(top + 1):
        for n in range(top + 1 - m):
            c = phi(m, n)
            for i in range(m, top + 1):
                for j in range(n, top + 1 - i):
                    composed[(i, j)] += c * pa[m][i] * pb[n][j]
    quotient = series_mul({(0, 0): 1, (1, 0): 1, (0, 1): 1}, _reciprocal(composed, top), top)
    numerator = {key: (1 if key == (0, 0) else 0) - v for key, v in quotient.items()}
    # H(chi_a(z), 0) = 1 + psi_a(chi_a(z)) = 1 + z, so the numerator vanishes
    # on both axes: it is divisible by zw
    assert not any(v for (i, j), v in numerator.items() if not (i and j))
    shifted = {(i - 1, j - 1): v for (i, j), v in numerator.items() if i and j}
    return series_mul({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}, shifted, order)


# ---------------------------------------------------------------------------
# Tables as word-keyed dicts


def by_word(table) -> dict:
    """word -> value of every word a moment or cumulant table holds, each
    read by its own lookup."""
    view = table.moments if isinstance(table, Distribution) else table.values
    return {w: view[w] for w in table.signature.words(table.degree) if len(w) >= table.shortest}


def dict_equal(a, b) -> bool:
    """Tables are equal when of one kind, signature and degree, with equal
    values word by word."""
    return (type(a) is type(b) and a.signature == b.signature and a.degree == b.degree
            and by_word(a) == by_word(b))


def dict_restrict(dist: Distribution, families) -> Distribution:
    sub = dist.signature.restrict(families)
    return from_words(Distribution, sub, dist.degree,
                      {w: dist.moments[w] for w in sub.words(dist.degree)})


def dict_retag(dist: Distribution, mapping) -> Distribution:
    def fid(f):
        return mapping.get(f, f)

    families = tuple(FamilyFaces(fid(f.family), f.left, f.right, f.star_closed)
                     for f in dist.signature.families)
    moments = {tuple(Letter(fid(l.family), l.side, l.index, l.star) for l in w): v
               for w, v in by_word(dist).items()}
    return from_words(Distribution, FaceSignature(families), dist.degree, moments)


def dict_group_families(dist: Distribution, family) -> Distribution:
    left, right = [], []
    for fam in dist.signature.families:
        left.extend(f"{fam.family}:{i}" for i in fam.left)
        right.extend(f"{fam.family}:{i}" for i in fam.right)
    signature = FaceSignature((FamilyFaces(family, tuple(left), tuple(right),
                                           dist.signature.star_closed),))
    moments = {tuple(Letter(family, l.side, f"{l.family}:{l.index}", l.star) for l in w): v
               for w, v in by_word(dist).items()}
    return from_words(Distribution, signature, dist.degree, moments)
