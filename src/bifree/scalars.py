"""Gaussian rational scalars: exact values a + b*i with rational a, b.

All scalar values in the library are of this type; no floats anywhere.
The components are gcd-reduced `Fraction`s with positive denominator.
`Dilation` scales a set of them onto the integers for the kernels that run
on ints (the engine, the Fock walk and the cumulant recursion).
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import isqrt, lcm
from numbers import Rational

from .errors import BifreeError, ParseError

_Q0 = Fraction(0)


def _new(re, im) -> GaussianRational:
    s = GaussianRational.__new__(GaussianRational)
    s.re = re
    s.im = im
    return s


class GaussianRational:
    """Immutable a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Rational)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # a real scalar equals its real part, so it hashes as that part
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _new(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if b or d:
            return _new(a * c - b * d, a * d + b * c)
        return _new(a * c, b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c, d = other.re, other.im
        if not (c or d):
            raise ZeroDivisionError("division by zero scalar")
        if d:
            n = c * c + d * d
            return self * _new(c / n, -d / n)
        return _new(self.re / c, self.im / c)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __floordiv__(self, other):
        """Componentwise floor division by an int: the exact quotient of a
        Gaussian integer (a complex `Dilation` value) by a common divisor
        of its components."""
        if not isinstance(other, int):
            return NotImplemented
        return _new(self.re // other, self.im // other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> GaussianRational:
        return _new(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __getstate__(self):
        return (self.re, self.im)

    def __setstate__(self, state):
        self.re, self.im = state


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Rational)):
        return _new(Fraction(value), _Q0)
    return None


class Dilation:
    """Exact values scaled onto the integers.

    D (`dilation`) is the lcm of the real and imaginary denominators of
    `values`.  `dilated(v, k)` is D^k*v: an int when every one of `values`
    is real, a GaussianRational with int components otherwise; `one` and
    `zero` are of that type.  Sums and products of dilated values stay
    integers, so a kernel can run on them and divide once at the end with
    `scalar`: the engine, the Fock walk and the cumulant recursion do.  A
    kernel names only exponents of D; this class alone computes its powers.
    """

    def __init__(self, values):
        values = list(values)
        self.real = all(v.is_real for v in values)
        self.dilation = lcm(*(x.denominator for v in values for x in (v.re, v.im)))
        self.one = 1 if self.real else _new(1, 0)
        self.zero = 0 if self.real else _new(0, 0)

    def dilated(self, value: GaussianRational, exponent: int):
        """D^exponent*value on the integers (Gaussian integers unless all real)."""
        scale = self.dilation ** exponent
        if self.real:
            return _dilate(value.re, scale)
        return _new(_dilate(value.re, scale), _dilate(value.im, scale))

    def scalar(self, value, exponent: int) -> GaussianRational:
        """The value whose dilation by D^exponent is the integer `value`."""
        scale = self.dilation ** exponent
        if self.real:
            return _new(Fraction(value, scale), _Q0)
        return _new(Fraction(value.re, scale), Fraction(value.im, scale))


def _dilate(q, scale: int) -> int:
    """scale*q as an int; `scale` is a multiple of q's denominator by construction."""
    whole, rest = divmod(scale, q.denominator)
    if rest:
        raise ArithmeticError(f"dilation by {scale} leaves {q} non-integral")
    return q.numerator * whole


def qi(re_num, re_den=1, im_num=0, im_den=1) -> GaussianRational:
    """Shorthand constructor from integer components."""
    return _new(Fraction(re_num, re_den), Fraction(im_num, im_den))


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR = rf"(?P<imonly>{_RAT})\s*i|(?P<re>{_RAT})(?:\s*(?P<sign>[+-])\s*(?P<im>{_RAT})\s*i)?"
_SCALAR_RE = _re.compile(rf"^(?:{_SCALAR})$")
# One token of a blank-separated run of scalars: a whole scalar, blanks
# inside a complex one included, or else a run of non-blanks, which
# `parse_scalar` then refuses.
SCALAR_TOKEN_RE = _re.compile(rf"(?:{_SCALAR})(?!\S)|\S+")


def _parse_rat(text: str):
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ZeroDivisionError
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_scalar(text: str) -> GaussianRational:
    """Parse 'p', 'p/q', 'p/q + r/s i' or 'r/s i' (signs in numerators)."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    try:
        if m.group("imonly") is not None:
            return _new(_Q0, _parse_rat(m.group("imonly")))
        re_part = _parse_rat(m.group("re"))
        if m.group("im") is None:
            return _new(re_part, _Q0)
        im_part = _parse_rat(m.group("im"))
        if m.group("sign") == "-":
            im_part = -im_part
        return _new(re_part, im_part)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError:  # int() refuses a run of digits past the interpreter's limit
        raise ParseError("too many digits in scalar") from None


def _too_many_digits(*numbers: int) -> BifreeError:
    """The error for a number past the interpreter's int-to-text limit,
    naming the digit count of the longest; the parsers refuse such numbers."""
    top = max(map(abs, numbers))
    digits = max(1, int(top.bit_length() * 0.3010299956639812))  # never above the count
    while top >= 10**digits:
        digits += 1
    return BifreeError(f"too many digits to write: a result holds a {digits}-digit number")


def format_scalar(value: GaussianRational) -> str:
    """Canonical text form; real scalars omit the imaginary part."""
    re_, im = value.re, value.im
    try:
        if not im:
            num, den = re_.numerator, re_.denominator
            return str(num) if den == 1 else f"{num}/{den}"
        re_text = f"{re_.numerator}/{re_.denominator}"
        sign = "+" if im >= 0 else "-"
        im_abs = abs(im)
        return f"{re_text} {sign} {im_abs.numerator}/{im_abs.denominator} i"
    except ValueError:  # str() refuses an int past the interpreter's limit
        raise _too_many_digits(re_.numerator, re_.denominator,
                               im.numerator, im.denominator) from None


def decimal_magnitude(value: GaussianRational) -> str:
    """|value| truncated to 12 decimal places (no floats)."""
    scale = 10**12
    re_, im = value.re, value.im
    if not im:
        num, den = abs(re_).numerator, abs(re_).denominator
        scaled = num * scale // den
    else:
        mag2 = re_ * re_ + im * im
        scaled = isqrt(mag2.numerator * scale * scale // mag2.denominator)
    whole, frac = divmod(scaled, scale)
    try:
        return f"{whole}.{frac:012d}"
    except ValueError:  # str() refuses an int past the interpreter's limit
        raise _too_many_digits(whole) from None
