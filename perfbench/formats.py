"""The benchmark's own reading and writing of bifree's documented text formats.

The benchmark writes its inputs and checks the CLI's outputs with this
module, never with `bifree.io`, so that every commit of the library under
test sees byte-identical inputs and is judged by code it does not share.

A scalar is a pair `(re, im)` of `Fraction`s.  A word is a tuple of letter
tokens such as `("1.a", "2.c")`; a letter is `(family, side, index)`.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"^(?:(?P<re>{_RAT})(?:\s*(?P<sign>[+-])\s*(?P<im>{_RAT})\s*i)?|(?P<imonly>{_RAT})\s*i)$"
)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def conj(x):
    return (x[0], -x[1])


def format_scalar(x) -> str:
    """Canonical form: `p`, `p/q`, or `p/q + r/s i` once the imaginary part is nonzero."""
    re_, im = x
    if not im:
        return str(re_.numerator) if re_.denominator == 1 else f"{re_.numerator}/{re_.denominator}"
    sign = "+" if im >= 0 else "-"
    im = abs(im)
    return f"{re_.numerator}/{re_.denominator} {sign} {im.numerator}/{im.denominator} i"


def parse_scalar(text: str):
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    if m.group("imonly") is not None:
        return (Fraction(0), Fraction(m.group("imonly")))
    re_ = Fraction(m.group("re"))
    if m.group("im") is None:
        return (re_, Fraction(0))
    im = Fraction(m.group("im"))
    return (re_, -im if m.group("sign") == "-" else im)


def letters(families) -> list[str]:
    """Letter tokens in the documented order: family, then left before right.

    `families` is a list of `(family, left_indices, right_indices)`; the
    benchmark's inputs are never star-closed.
    """
    return [f"{fam}.{index}" for fam, left, right in families for index in (*left, *right)]


def sides(families) -> dict[str, str]:
    return {
        f"{fam}.{index}": side
        for fam, left, right in families
        for side, indices in (("left", left), ("right", right))
        for index in indices
    }


def words(families, degree: int):
    """Every word up to `degree` in graded-lexicographic order."""
    alphabet = letters(families)
    for n in range(degree + 1):
        yield from itertools.product(alphabet, repeat=n)


def format_word(word) -> str:
    return " ".join(word) if word else "()"


def header(families, degree: int | None, kind: str | None = None, extra=()) -> list[str]:
    lines = []
    for fam, left, right in families:
        if left:
            lines.append(f"# family {fam} left: {' '.join(left)}")
        if right:
            lines.append(f"# family {fam} right: {' '.join(right)}")
    lines.append("# star: no")
    lines.extend(extra)
    if degree is not None:
        lines.append(f"# degree: {degree}")
    if kind is not None:
        lines.append(f"# kind: {kind}")
    return lines


def format_table(families, degree: int, values, kind: str | None = None) -> str:
    """A moment table (`kind=None`) or a cumulant table (`kind="cumulants"`)."""
    lines = header(families, degree, kind)
    for word in words(families, degree):
        if word or kind is None:
            lines.append(f"{format_word(word)} : {format_scalar(values[word])}")
    return "\n".join(lines) + "\n"


def format_covariance(families, cov) -> str:
    lines = header(families, None, "covariance")
    alphabet = letters(families)
    for u in alphabet:
        for v in alphabet:
            lines.append(f"{u} {v} : {format_scalar(cov[(u, v)])}")
    return "\n".join(lines) + "\n"


def format_vectors(families, h, h_star) -> str:
    dim = len(next(iter(h.values())))
    lines = header(families, None, "vectors", extra=(f"# dim: {dim}",))
    for letter in letters(families):
        lines.append(f"{letter} : " + " ".join(format_scalar(x) for x in h[letter]))
        lines.append(f"{letter}* : " + " ".join(format_scalar(x) for x in h_star[letter]))
    return "\n".join(lines) + "\n"


def parse_table(text: str):
    """(header lines, {word: scalar}) of a moment or cumulant table."""
    head, values = [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            head.append(line)
            continue
        word_text, sep, scalar_text = line.partition(" : ")
        if not sep:
            raise ValueError(f"malformed table line {line!r}")
        word = () if word_text == "()" else tuple(word_text.split(" "))
        if word in values:
            raise ValueError(f"duplicate word {word_text!r}")
        values[word] = parse_scalar(scalar_text)
    return head, values
