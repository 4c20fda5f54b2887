"""Concrete realizations: moments of creation plus annihilation operators
on full Fock space, central-limit distributions from covariance data, an
exact positivity test, and the left/right regular representation of a free
product of cyclic groups.

Fock moments come from one walk over states keyed by interned creation
vectors and dilated onto the integers (`_FockWalk`); the definitional
operators on coordinate-vector tensors are the reference in the tests.
`gaussian_dist` stays on the cumulant route (degree-2 cumulants from the
covariance, all others zero), so comparing the two checks the Fock
realization of the bi-free central limit rather than one walk with itself.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping, NamedTuple

from .cumulant import moments_from_cumulants
from .dist import (CumulantTable, Distribution, check_size, check_table_size, commutation,
                   tabulate)
from .errors import DomainError, TruncationError
from .scalars import ONE, ZERO, Dilation, GaussianRational, format_scalar
from .words import (LEFT, FaceSignature, FamilyFaces, Letter, Record, Word,
                    format_letter, format_word, word_star)

Vector = tuple  # tuple[GaussianRational, ...]


def inner(u: Vector, v: Vector) -> GaussianRational:
    """<u, v> = sum of u_i * conj(v_i); conjugate-linear in the second slot."""
    if len(u) != len(v):
        raise DomainError("inner product of vectors of different lengths")
    total = ZERO
    for a, b in zip(u, v):
        total = total + a * b.conjugate()
    return total


# ---------------------------------------------------------------------------
# Vector data and covariance data


class VectorSpec(Record):
    """Maps h and h* from the index set into a coordinate space: `h` and
    `h_star` take (family, side, index) to a vector of `dim` scalars."""

    __slots__ = _fields = ("signature", "dim", "h", "h_star")

    def __init__(self, signature: FaceSignature, dim: int,
                 h: dict[tuple[object, str, str], Vector],
                 h_star: dict[tuple[object, str, str], Vector]):
        for letter in signature.letters():
            if letter.star:
                continue
            key = (letter.family, letter.side, letter.index)
            if key not in h or key not in h_star:
                raise DomainError(
                    f"vector spec misses h or h* for index {format_letter(letter)}"
                )
        for table in (h, h_star):
            for vec in table.values():
                if len(vec) != dim:
                    raise DomainError("vector length does not match declared dimension")
        self._set(signature=signature, dim=dim, h=h, h_star=h_star)

    def operator_vectors(self, letter: Letter) -> tuple[Vector, Vector]:
        """(creation vector, annihilation vector) realizing the letter."""
        key = (letter.family, letter.side, letter.index)
        if key not in self.h:
            raise DomainError(f"undeclared letter {format_letter(letter)}")
        if letter.star:
            return self.h_star[key], self.h[key]
        return self.h[key], self.h_star[key]


class _FockWalk(Dilation):
    """The operators of a vector spec on full Fock space, on integer keys.

    Each distinct creation vector gets an int id, and a state maps tuples of
    vector ids (the tensor slots, head first) to coefficients.  An
    annihilation only reads <slot vector, annihilation vector>, so each
    letter carries that inner product for every interned vector, dilated by
    D, the lcm of the denominators of all these tables: the state runs on
    integers.  The state is the bare dict.  Each annihilation multiplies by
    D, and the vacuum term of a word of n letters has had n/2 of them, so
    `read` divides it by D^(n//2).  A step keeps no key that the letters
    still to act can no longer bring back to the vacuum.
    """

    def __init__(self, spec: VectorSpec):
        vectors = {letter: spec.operator_vectors(letter) for letter in spec.signature.letters()}
        ids: dict[Vector, int] = {}
        for create, _ in vectors.values():
            ids.setdefault(tuple(create), len(ids))
        rows = {letter: [inner(v, annih) for v in ids] for letter, (_, annih) in vectors.items()}
        super().__init__(x for row in rows.values() for x in row)
        self.moves = {
            letter: (letter.side == LEFT, ids[tuple(vectors[letter][0])],
                     [self.dilated(x, 1) for x in row])
            for letter, row in rows.items()
        }
        self.start = {(): self.one}

    def step(self, letter: Letter, state: dict, remaining: int) -> dict:
        """Creation plus annihilation: a left letter prepends its vector id
        or drops the head slot, a right letter does both at the tail.

        Each of the `remaining` letters still to act changes a key's length
        by one and only the vacuum term is read, so creation keeps a key
        only if it is shorter than `remaining`, and annihilation only if it
        has at most `remaining + 1` slots.  A term that cancels leaves a
        zero coefficient, which the next step skips and `read` reads as 0."""
        is_left, vid, table = self.moves[letter]
        zero = self.zero
        if is_left:
            out = {(vid,) + key: c for key, c in state.items() if c and len(key) < remaining}
            end, rest = 0, slice(1, None)
        else:
            out = {key + (vid,): c for key, c in state.items() if c and len(key) < remaining}
            end, rest = -1, slice(None, -1)
        for key, c in state.items():
            if key and c and len(key) <= remaining + 1 and (t := table[key[end]]):
                shorter = key[rest]
                out[shorter] = out.get(shorter, zero) + c * t
        return out

    def read(self, state: dict, n: int) -> GaussianRational:
        """The vacuum term over D^(n//2); odd words have none and read zero."""
        return self.scalar(state.get((), self.zero), n // 2)


def fock_distribution(spec: VectorSpec, degree: int) -> Distribution:
    """Vacuum expectations of the operator words z_{w_1} ... z_{w_n} up to
    `degree`.

    A left-face letter acts as creation plus annihilation on the leading
    tensor slot, a right-face letter on the trailing slot; a starred letter
    swaps its creation and annihilation vectors.
    """
    walk = _FockWalk(spec)
    return tabulate(spec.signature, degree, walk.start, walk.step, walk.read)


class CovarianceSpec(Record):
    """Second-order data: one scalar per ordered pair of letters."""

    __slots__ = _fields = ("signature", "c")

    def __init__(self, signature: FaceSignature,
                 c: dict[tuple[Letter, Letter], GaussianRational]):
        alphabet = signature.letters()
        for u in alphabet:
            for v in alphabet:
                if (u, v) not in c:
                    raise DomainError(
                        "covariance misses pair "
                        f"({format_letter(u)}, {format_letter(v)})"
                    )
        self._set(signature=signature, c=c)

    def value(self, u: Letter, v: Letter) -> GaussianRational:
        return self.c[(u, v)]


def covariance_from_vectors(spec: VectorSpec) -> CovarianceSpec:
    """Second-order moments of the Fock realization: <create(v), annih(u)>."""
    alphabet = spec.signature.letters()
    c = {}
    for u in alphabet:
        for v in alphabet:
            c[(u, v)] = inner(spec.operator_vectors(v)[0], spec.operator_vectors(u)[1])
    return CovarianceSpec(spec.signature, c)


def gaussian_dist(cov: CovarianceSpec, degree: int) -> Distribution:
    """Central-limit distribution: degree-2 cumulants from `cov`, all others 0."""
    if degree < 2:
        raise DomainError("central limit distributions need degree >= 2")
    signature = cov.signature
    check_table_size(signature, degree)
    alphabet = signature.letters()
    values = [ZERO] * len(alphabet)
    values.extend(cov.value(u, v) for u in alphabet for v in alphabet)
    values.extend([ZERO] * (signature.word_count(degree) - len(values) - 1))
    return moments_from_cumulants(CumulantTable(signature, degree, values), degree)


# ---------------------------------------------------------------------------
# Exact positivity of the Gram form


class PsdResult(NamedTuple):
    positive: bool
    witness: dict[Word, GaussianRational] | None = None

    def witness_lines(self):
        for word, coeff in self.witness.items():
            yield f"{format_word(word)} : {format_scalar(coeff)}"


def _involution(signature: FaceSignature) -> Callable[[Word], Word]:
    """The word star of a star-closed signature; otherwise every letter is
    taken self-adjoint and the involution is word reversal."""
    if signature.star_closed:
        return partial(word_star, signature)
    return lambda word: word[::-1]


def gram_quadratic_form(mu: Distribution, poly: Mapping[Word, GaussianRational]) -> GaussianRational:
    """mu(P* P) for a polynomial P given by word coefficients."""
    star = _involution(mu.signature)
    total = ZERO
    for u, cu in poly.items():
        for w, cw in poly.items():
            total = total + cu.conjugate() * cw * mu.moment(star(u) + w)
    return total


def _check_hermitian(gram: list, basis: list, real: bool) -> None:
    """Refuse a Gram matrix that is not hermitian, naming the first entry
    (i, j), j >= i, in row order that is not the conjugate of (j, i).  The
    first row unequal to its conjugated column differs from it first at or
    after the diagonal: a mismatch before it would be in an earlier row."""
    for i, column in enumerate(zip(*gram)):
        row = gram[i]
        adjoint = list(column) if real else [y.conjugate() for y in column]
        if adjoint != row:
            j = next(j for j in range(i, len(row)) if row[j] != adjoint[j])
            raise DomainError(
                "moment table is not compatible with the involution: "
                f"Gram matrix not hermitian at ({format_word(basis[i])}, "
                f"{format_word(basis[j])})"
            )


def gram_psd_check(mu: Distribution, degree: int) -> PsdResult:
    """Decide positive semidefiniteness of the Gram form on words of degree
    <= degree//2 by exact symmetric elimination with diagonal pivoting.

    Star-closed signatures use the word involution; otherwise every letter
    is taken self-adjoint and the involution is word reversal.  Returns a
    witness polynomial P with mu(P*P) < 0 when indefinite.

    The Gram matrix is dilated by D onto the integers (Gaussian integers
    for a complex table) and eliminated fraction-free (Bareiss):
    a_ij <- (a_ij*d - a_ip*a_pj) / prev, d the pivot and prev the pivot
    before it (1 at first), which divides exactly.  Every active entry is
    then D*prev times the entry the same elimination over the rationals
    holds, and D*prev > 0 since every pivot taken is positive, so the
    largest-|diagonal| pivot, every zero and sign test and every row ratio
    a_pi/d are those of the rational elimination; the witness is rebuilt
    from these ratios in rationals.
    """
    if degree < 2:
        raise DomainError("positivity check needs degree >= 2")
    if mu.degree < degree:
        raise TruncationError(f"moment table degree {mu.degree} below requested {degree}")
    signature, half = mu.signature, degree // 2
    n = signature.word_count(half)
    check_size(n * n, f"the Gram matrix of {n} words")
    basis = list(signature.words(half))
    # only the words of length <= 2 * half are read; a parsed table shares
    # its scalar objects, so each object is dilated once
    read = mu.ranked[:signature.word_count(2 * half)]
    distinct = {id(v): v for v in read}
    dilation = Dilation(distinct.values())
    dilated = {key: dilation.dilated(v, 1) for key, v in distinct.items()}
    entries = [dilated[id(v)] for v in read]
    # The words u* + w with |u*| = p, |w| = q and u* of rank s among the
    # words of length p fill, in the order of w, the L^q ranks from
    # offset(p + q) + s * L^q on.
    size = len(signature.letters())
    gram = []
    for u in map(_involution(signature), basis):
        p = len(u)
        s = signature.rank(u) - signature.word_count(p - 1)
        row = []
        for q in range(signature.longest(half) + 1):
            start = signature.word_count(p + q - 1) + s * size ** q
            row += entries[start:start + size ** q]
        gram.append(row)
    real = dilation.real
    _check_hermitian(gram, basis, real)

    active = list(range(n))
    # Each record is (pivot index, its row, pivot) for back-substitution.
    steps: list[tuple] = []

    def backsubstitute(vec: dict[int, GaussianRational]) -> PsdResult:
        for p, row, d in reversed(steps):
            value = ZERO
            for i, m in row.items():
                if i in vec:
                    value = value + dilation.scalar(m, 0) * vec[i]
            if value:
                vec[p] = -(value / dilation.scalar(d, 0))
        witness = {basis[i]: c for i, c in vec.items() if c}
        if gram_quadratic_form(mu, witness).re >= 0:
            raise AssertionError("internal error: witness fails to certify")
        return PsdResult(False, witness)

    prev = 1
    while active:
        # the diagonal is real; `top` is the largest in size, as an int
        pivot, top = None, 0
        for i in active:
            x = gram[i][i] if real else gram[i][i].re
            if abs(x) > abs(top):
                pivot, top = i, x
        if pivot is None:
            # All active diagonals vanish; any nonzero off-diagonal entry
            # gives a hyperbolic 2x2 block, hence indefiniteness.
            for i in active:
                for j in active:
                    if i != j and gram[i][j]:
                        # value of the form on (-b, 1) is -2*|b|^2 < 0
                        b = dilation.scalar(gram[i][j], 1) / prev
                        return backsubstitute({i: -b, j: ONE})
            return PsdResult(True)
        if top < 0:
            return backsubstitute({pivot: ONE})
        active.remove(pivot)
        rp = gram[pivot]
        d = rp[pivot]
        steps.append((pivot, {i: rp[i] for i in active if rp[i]}, d))
        # with d == prev an entry changes only where a_ip and a_pj are both nonzero
        columns = active if top != prev else [j for j in active if rp[j]]
        for i in active:
            row = gram[i]
            c = row[pivot]
            if c or top != prev:
                for j in columns:
                    row[j] = (row[j] * d - c * rp[j]) // prev
        prev = top
    return PsdResult(True)


# ---------------------------------------------------------------------------
# Left and right regular representations of a free product of cyclic groups


def group_signature(orders) -> FaceSignature:
    return FaceSignature(
        tuple(
            FamilyFaces(i + 1, ("l",), ("r",), False) for i in range(len(orders))
        )
    )


def group_example_dist(orders, degree: int) -> Distribution:
    """Joint distribution of left and right translations by the generators
    of Z/m_1 * ... * Z/m_k at the identity's coordinate functional.

    The moment of a word is 1 exactly when the corresponding product of
    translations fixes the identity, which is decided by reduced-word
    arithmetic in the free product.  Left and right multiplications commute,
    g(xh) = (gx)h: the left and right regular representations are the
    commuting faces of the paper's §2.  So the walk passes every (left,
    right) pair of letters to `tabulate` and steps only normal forms.
    """
    orders = list(orders)
    if not orders or any(m < 2 for m in orders):
        raise DomainError("cyclic group orders must all be >= 2")
    signature = group_signature(orders)

    def step(letter: Letter, element: tuple, remaining: int) -> tuple:
        # group element as a reduced alternating tuple of (group, exponent)
        g = letter.family - 1
        if letter.side == LEFT:
            if element and element[0][0] == g:
                e = (element[0][1] + 1) % orders[g]
                return ((g, e),) + element[1:] if e else element[1:]
            return ((g, 1),) + element
        if element and element[-1][0] == g:
            e = (element[-1][1] + 1) % orders[g]
            return element[:-1] + ((g, e),) if e else element[:-1]
        return element + ((g, 1),)

    return tabulate(signature, degree, (), step,
                    lambda element, n: ZERO if element else ONE,
                    commutation(signature.letters(), lambda a, b: a.side != b.side))
