"""Line-oriented text formats for moment, cumulant, covariance and vector
tables.

Header lines declare the face signature, star closure and degree bound;
body lines map one word to one exact scalar.  Covariance files carry no
degree bound and map a pair of letters to a scalar; vector files declare
`# dim: N` and map a letter (starred for the companion map) to N scalars.
Emission is canonical: headers in signature order, then words in
graded-lex order, so equal tables produce byte-identical text.

    # family 1 left: a b
    # family 1 right: c
    # star: no
    # degree: 4
    () : 1
    1.a : 1/2
    1.a 1.c* : 0/1 + 1/3 i
"""

from __future__ import annotations

import re

from .dist import CumulantTable, Distribution
from .errors import ParseError
from .models import CovarianceSpec, VectorSpec
from .scalars import GaussianRational, format_scalar, parse_scalar
from .words import (LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, Word, format_letter,
                    format_word)

_FACE_RE = re.compile(r"^#\s*family\s+(\S+)\s+(left|right)\s*:\s*(.*)$")
_STAR_RE = re.compile(r"^#\s*star\s*:\s*(yes|no)\s*$")
_DEGREE_RE = re.compile(r"^#\s*degree\s*:\s*(\d+)\s*$")
_KIND_RE = re.compile(r"^#\s*kind\s*:\s*(\S+)\s*$")
_DIM_RE = re.compile(r"^#\s*dim\s*:\s*(\d+)\s*$")
_LETTER_RE = re.compile(r"^(.+?)\.([^.*]+)(\*)?$")
_VECTOR_ROW_RE = re.compile(r"^(.+?)(\*)?\s*:\s*(.*)$")


def _family_id(text: str):
    return int(text) if text.isdigit() else text


class _HeaderState:
    def __init__(self):
        self.faces: dict[object, dict[str, tuple[str, ...]]] = {}
        self.order: list = []
        self.star: bool | None = None
        self.degree: int | None = None
        self.kind: str | None = None

    def feed(self, line: str, lineno: int) -> None:
        if m := _FACE_RE.match(line):
            fid = _family_id(m.group(1))
            side, indices = m.group(2), tuple(m.group(3).split())
            if fid not in self.faces:
                self.faces[fid] = {}
                self.order.append(fid)
            if side in self.faces[fid]:
                raise ParseError(f"duplicate {side} face for family {fid!r}", lineno)
            self.faces[fid][side] = indices
        elif m := _STAR_RE.match(line):
            if self.star is not None:
                raise ParseError("duplicate star header", lineno)
            self.star = m.group(1) == "yes"
        elif m := _DEGREE_RE.match(line):
            if self.degree is not None:
                raise ParseError("duplicate degree header", lineno)
            self.degree = int(m.group(1))
        elif m := _KIND_RE.match(line):
            if self.kind is not None:
                raise ParseError("duplicate kind header", lineno)
            self.kind = m.group(1)
        else:
            raise ParseError(f"unrecognized header {line!r}", lineno)

    def signature(self, lineno: int) -> FaceSignature:
        if self.degree is None:
            raise ParseError("missing '# degree:' header", lineno)
        star = bool(self.star)
        return FaceSignature(
            tuple(
                FamilyFaces(
                    fid,
                    self.faces[fid].get(LEFT, ()),
                    self.faces[fid].get(RIGHT, ()),
                    star,
                )
                for fid in self.order
            )
        )


def _parse_letter(text: str, signature: FaceSignature, lineno: int) -> Letter:
    m = _LETTER_RE.match(text)
    if m is None:
        raise ParseError(f"malformed letter {text!r}", lineno)
    fid = _family_id(m.group(1))
    index, star = m.group(2), m.group(3) is not None
    try:
        faces = signature.family_faces(fid)
    except Exception:
        raise ParseError(f"letter {text!r} names an undeclared family", lineno) from None
    if index in faces.left:
        side = LEFT
    elif index in faces.right:
        side = RIGHT
    else:
        raise ParseError(f"letter {text!r} names an undeclared index", lineno)
    if star and not faces.star_closed:
        raise ParseError(f"starred letter {text!r} without '# star: yes'", lineno)
    return Letter(fid, side, index, star)


def _parse_scalar(text: str, lineno: int) -> GaussianRational:
    try:
        return parse_scalar(text.strip())
    except ParseError as exc:
        raise ParseError(str(exc), lineno) from None


def _parse_word(text: str, signature: FaceSignature, lineno: int) -> Word:
    text = text.strip()
    if text == "()":
        return ()
    return tuple(_parse_letter(tok, signature, lineno) for tok in text.split())


def _parse_table(text: str, kind: str):
    header = _HeaderState()
    entries: dict[Word, GaussianRational] = {}
    signature = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if entries:
                raise ParseError("header line after table entries", lineno)
            header.feed(line, lineno)
            continue
        if signature is None:
            signature = header.signature(lineno)
        if ":" not in line:
            raise ParseError("expected 'WORD : SCALAR'", lineno)
        word_text, _, scalar_text = line.partition(":")
        word = _parse_word(word_text, signature, lineno)
        value = _parse_scalar(scalar_text, lineno)
        if word in entries:
            raise ParseError(f"duplicate entry for word {format_word(word)}", lineno)
        entries[word] = value
    if signature is None:
        signature = header.signature(lineno)
    if (header.kind or "moments") != kind:
        raise ParseError(f"expected a {kind} table, got kind {header.kind!r}")
    return signature, header.degree, entries


def parse_distribution(text: str) -> Distribution:
    signature, degree, entries = _parse_table(text, "moments")
    return Distribution(signature, degree, entries)


def parse_cumulant_table(text: str) -> CumulantTable:
    signature, degree, entries = _parse_table(text, "cumulants")
    return CumulantTable(signature, degree, entries)


def _emit_headers(signature: FaceSignature, kind: str | None, *extra: str) -> list[str]:
    """Face and star headers, then the `extra` lines, then `# kind:` if given."""
    lines = []
    for fam in signature.families:
        if fam.left:
            lines.append(f"# family {fam.family} left: {' '.join(fam.left)}")
        if fam.right:
            lines.append(f"# family {fam.family} right: {' '.join(fam.right)}")
    lines.append(f"# star: {'yes' if signature.star_closed and signature.families else 'no'}")
    lines.extend(extra)
    if kind is not None:
        lines.append(f"# kind: {kind}")
    return lines


def format_distribution(dist: Distribution) -> str:
    lines = _emit_headers(dist.signature, None, f"# degree: {dist.degree}")
    for word in dist.signature.words(dist.degree):
        lines.append(f"{format_word(word)} : {format_scalar(dist.moments[word])}")
    return "\n".join(lines) + "\n"


def format_cumulant_table(table: CumulantTable) -> str:
    lines = _emit_headers(table.signature, "cumulants", f"# degree: {table.degree}")
    for word in table.signature.words(table.degree):
        if word:
            lines.append(f"{format_word(word)} : {format_scalar(table.values[word])}")
    return "\n".join(lines) + "\n"


def format_covariance(cov: CovarianceSpec) -> str:
    lines = _emit_headers(cov.signature, "covariance")
    alphabet = cov.signature.letters()
    for u in alphabet:
        for v in alphabet:
            lines.append(
                f"{format_letter(u)} {format_letter(v)} : {format_scalar(cov.c[(u, v)])}"
            )
    return "\n".join(lines) + "\n"


def parse_covariance(text: str) -> CovarianceSpec:
    header = _HeaderState()
    signature = None
    c = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header.feed(line, lineno)
            continue
        if signature is None:
            if header.degree is None:
                header.degree = 2  # covariance files carry no degree bound
            signature = header.signature(lineno)
        body, _, scalar_text = line.partition(":")
        tokens = body.split()
        if len(tokens) != 2:
            raise ParseError("expected 'LETTER LETTER : SCALAR'", lineno)
        u = _parse_letter(tokens[0], signature, lineno)
        v = _parse_letter(tokens[1], signature, lineno)
        if (u, v) in c:
            raise ParseError("duplicate covariance entry", lineno)
        c[(u, v)] = _parse_scalar(scalar_text, lineno)
    if signature is None:
        raise ParseError("empty covariance file")
    if (header.kind or "covariance") != "covariance":
        raise ParseError(f"expected a covariance table, got kind {header.kind!r}")
    return CovarianceSpec(signature, c)


def format_vector_spec(spec: VectorSpec) -> str:
    lines = _emit_headers(spec.signature, "vectors", f"# dim: {spec.dim}")
    for letter in spec.signature.letters():
        if letter.star:
            continue
        key = (letter.family, letter.side, letter.index)
        base = f"{letter.family}.{letter.index}"
        lines.append(f"{base} : " + " ".join(format_scalar(x) for x in spec.h[key]))
        lines.append(f"{base}* : " + " ".join(format_scalar(x) for x in spec.h_star[key]))
    return "\n".join(lines) + "\n"


def parse_vector_spec(text: str) -> VectorSpec:
    header = _HeaderState()
    dim = None
    signature = None
    h: dict = {}
    h_star: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if m := _DIM_RE.match(line):
                if dim is not None:
                    raise ParseError("duplicate dim header", lineno)
                dim = int(m.group(1))
            else:
                header.feed(line, lineno)
            continue
        if signature is None:
            if dim is None:
                raise ParseError("missing '# dim:' header", lineno)
            if header.degree is None:
                header.degree = 2
            signature = header.signature(lineno)
        m = _VECTOR_ROW_RE.match(line)
        if m is None:
            raise ParseError("expected 'LETTER[*] : v1 v2 ...'", lineno)
        letter = _parse_letter(m.group(1), signature, lineno)
        starred = m.group(2) is not None
        vec = tuple(_parse_scalar(tok, lineno) for tok in m.group(3).split())
        if len(vec) != dim:
            raise ParseError(f"expected {dim} coordinates", lineno)
        key = (letter.family, letter.side, letter.index)
        target = h_star if starred else h
        if key in target:
            raise ParseError("duplicate vector row", lineno)
        target[key] = vec
    if signature is None:
        raise ParseError("empty vector file")
    if (header.kind or "vectors") != "vectors":
        raise ParseError(f"expected a vector table, got kind {header.kind!r}")
    return VectorSpec(signature, dim, h, h_star)
