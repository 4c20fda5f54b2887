"""Additive and multiplicative bi-free convolution of two-faced distributions.

Both operations are the distribution of letter-wise sums respectively
products of a bi-free pair carrying the two inputs, and both are tables of
the product engine that backs `bifree_product`, told which copies each
letter acts in: the sum of its mu- and nu-copies in one step for boxplus,
the mu-copy times the nu-copy, two steps, for boxtimes.  By linearity this
equals the 2^n-term tagged-word expansion of the definition, which the
test-suite keeps as an independent route."""

from __future__ import annotations

from .dist import Distribution
from .engine import _table
from .errors import SignatureError, TruncationError


def _check_pair(mu: Distribution, nu: Distribution, degree: int) -> None:
    if mu.signature != nu.signature:
        raise SignatureError("convolution requires identical face signatures")
    if mu.degree < degree or nu.degree < degree:
        raise TruncationError(
            f"convolution at degree {degree} needs both inputs at that degree"
        )


def boxplus2(mu: Distribution, nu: Distribution, degree: int) -> Distribution:
    """Additive bi-free convolution: distribution of the letter-wise sums."""
    _check_pair(mu, nu, degree)
    return _table([mu, nu], mu.signature, degree, lambda letter: ((0, 1),))


def boxtimes2(mu: Distribution, nu: Distribution, degree: int) -> Distribution:
    """Multiplicative bi-free convolution: distribution of letter-wise products.

    Each letter stands for the product (mu-copy letter) * (nu-copy letter),
    in that order; the two factors are applied as consecutive operators.
    """
    _check_pair(mu, nu, degree)
    return _table([mu, nu], mu.signature, degree, lambda letter: ((0,), (1,)))
