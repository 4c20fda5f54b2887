"""Concrete realizations: full Fock space operators, central-limit
distributions from covariance data, an exact positivity test, and the
left/right regular representation of a free product of cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cumulant import moments_from_cumulants
from .dist import CumulantTable, Distribution
from .errors import DomainError
from .scalars import ONE, ZERO, GaussianRational, format_scalar
from .words import (LEFT, FaceSignature, FamilyFaces, Letter, Word,
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
# Full Fock space


@dataclass
class FockState:
    """Linear combination of elementary tensors plus a vacuum coefficient."""

    vacuum: GaussianRational
    terms: dict[tuple[Vector, ...], GaussianRational]


def fock_vacuum() -> FockState:
    return FockState(ONE, {})


@dataclass(frozen=True)
class FockOp:
    kind: str  # create_left | annih_left | create_right | annih_right
    vector: Vector


def create_left(h) -> FockOp:
    return FockOp("create_left", tuple(h))


def annih_left(h) -> FockOp:
    return FockOp("annih_left", tuple(h))


def create_right(h) -> FockOp:
    return FockOp("create_right", tuple(h))


def annih_right(h) -> FockOp:
    return FockOp("annih_right", tuple(h))


def fock_apply(op: FockOp, state: FockState) -> FockState:
    """One creation or annihilation operator applied to a Fock state."""
    h = op.vector
    for word in state.terms:
        if word and len(word[0]) != len(h):
            raise DomainError("operator vector length does not match state dimension")
    vacuum = ZERO
    terms: dict[tuple[Vector, ...], GaussianRational] = {}

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
            add(word[1:], c * inner(word[0], h))
    elif op.kind == "annih_right":
        for word, c in state.terms.items():
            add(word[:-1], c * inner(word[-1], h))
    else:
        raise DomainError(f"unknown Fock operator kind {op.kind!r}")
    return FockState(vacuum, terms)


# ---------------------------------------------------------------------------
# Vector data and covariance data


@dataclass
class VectorSpec:
    """Maps h and h* from the index set into a coordinate space."""

    signature: FaceSignature
    dim: int
    h: dict[tuple[object, str, str], Vector]       # (family, side, index) -> vector
    h_star: dict[tuple[object, str, str], Vector]

    def __post_init__(self):
        for letter in self.signature.letters():
            if letter.star:
                continue
            key = (letter.family, letter.side, letter.index)
            if key not in self.h or key not in self.h_star:
                raise DomainError(
                    f"vector spec misses h or h* for index {format_letter(letter)}"
                )
        for table in (self.h, self.h_star):
            for vec in table.values():
                if len(vec) != self.dim:
                    raise DomainError("vector length does not match declared dimension")

    def operator_vectors(self, letter: Letter) -> tuple[Vector, Vector]:
        """(creation vector, annihilation vector) realizing the letter."""
        key = (letter.family, letter.side, letter.index)
        if key not in self.h:
            raise DomainError(f"undeclared letter {format_letter(letter)}")
        if letter.star:
            return self.h_star[key], self.h[key]
        return self.h[key], self.h_star[key]


def fock_moment(spec: VectorSpec, word: Word) -> GaussianRational:
    """Vacuum expectation of the operator word z_{w_1} ... z_{w_n}.

    A left-face letter acts as creation plus annihilation on the leading
    tensor slot, a right-face letter on the trailing slot; a starred letter
    swaps its creation and annihilation vectors.
    """
    state = fock_vacuum()
    for letter in reversed(word):
        spec.signature.validate_letter(letter)
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
        state = FockState(created.vacuum + killed.vacuum, terms)
    return state.vacuum


def fock_distribution(spec: VectorSpec, degree: int) -> Distribution:
    """Tabulate fock_moment over every word up to `degree`."""
    return Distribution(
        spec.signature, degree,
        {w: (ONE if not w else fock_moment(spec, w)) for w in spec.signature.words(degree)},
    )


@dataclass
class CovarianceSpec:
    """Second-order data: one scalar per ordered pair of letters."""

    signature: FaceSignature
    c: dict[tuple[Letter, Letter], GaussianRational]

    def __post_init__(self):
        alphabet = self.signature.letters()
        for u in alphabet:
            for v in alphabet:
                if (u, v) not in self.c:
                    raise DomainError(
                        "covariance misses pair "
                        f"({format_letter(u)}, {format_letter(v)})"
                    )

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
    values = {}
    for word in signature.words(degree):
        if not word:
            continue
        values[word] = cov.value(*word) if len(word) == 2 else ZERO
    return moments_from_cumulants(CumulantTable(signature, degree, values), degree)


# ---------------------------------------------------------------------------
# Exact positivity of the Gram form


@dataclass
class PsdResult:
    positive: bool
    witness: dict[Word, GaussianRational] | None = None

    def witness_lines(self):
        for word, coeff in self.witness.items():
            yield f"{format_word(word)} : {format_scalar(coeff)}"


def _involution(signature: FaceSignature, word: Word) -> Word:
    if signature.star_closed:
        return word_star(signature, word)
    return tuple(reversed(word))


def gram_quadratic_form(mu: Distribution, poly: Mapping[Word, GaussianRational]) -> GaussianRational:
    """mu(P* P) for a polynomial P given by word coefficients."""
    total = ZERO
    for u, cu in poly.items():
        for w, cw in poly.items():
            total = total + cu.conjugate() * cw * mu.moment(_involution(mu.signature, u) + w)
    return total


def gram_psd_check(mu: Distribution, degree: int) -> PsdResult:
    """Decide positive semidefiniteness of the Gram form on words of degree
    <= degree//2 by exact symmetric elimination with diagonal pivoting.

    Star-closed signatures use the word involution; otherwise every letter
    is taken self-adjoint and the involution is word reversal.  Returns a
    witness polynomial P with mu(P*P) < 0 when indefinite.
    """
    if degree < 2:
        raise DomainError("positivity check needs degree >= 2")
    if mu.degree < degree:
        raise DomainError(f"moment table degree {mu.degree} below requested {degree}")
    basis = list(mu.signature.words(degree // 2))
    n = len(basis)
    gram = [
        [mu.moment(_involution(mu.signature, basis[i]) + basis[j]) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i, n):
            if gram[i][j] != gram[j][i].conjugate():
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
    arithmetic in the free product.
    """
    orders = list(orders)
    if not orders or any(m < 2 for m in orders):
        raise DomainError("cyclic group orders must all be >= 2")
    signature = group_signature(orders)

    def moment(word: Word) -> GaussianRational:
        # group element as a reduced alternating tuple of (group, exponent)
        element: tuple = ()
        for letter in reversed(word):
            g = letter.family - 1
            if letter.side == LEFT:
                if element and element[0][0] == g:
                    e = (element[0][1] + 1) % orders[g]
                    element = ((g, e),) + element[1:] if e else element[1:]
                else:
                    element = ((g, 1),) + element
            else:
                if element and element[-1][0] == g:
                    e = (element[-1][1] + 1) % orders[g]
                    element = element[:-1] + ((g, e),) if e else element[:-1]
                else:
                    element = element + ((g, 1),)
        return ONE if not element else ZERO

    return Distribution(
        signature, degree, {w: moment(w) for w in signature.words(degree)}
    )
