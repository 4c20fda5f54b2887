"""Line-oriented text formats for moment, cumulant, covariance and vector
tables.

Header lines declare the face signature, star closure and one number:
`# degree:` for moment and cumulant tables, `# dim:` for vector files, none
for covariance files.  All header lines come first.  Every body line is
KEY : VALUES, split at its last `:`, since a scalar never holds one and an
index may (`group_families` names pooled indices "<family>:<index>").  The
key is a word and the values are blank-separated scalars in the grammar of
`scalars`.  A covariance file is the two-letter part of a moment table; a
vector row maps a letter, starred for the companion map h*, to N scalars.
Emission has one fixed order: headers in signature order, then words in
graded-lex order, so equal tables produce byte-identical text, and a
writer refuses a family whose face headers the reader's own header code
does not read back as that family.  A writer joins its lines a block of
`_WRITE_BLOCK` lines at a time and, given a `write` callable, hands it
each block instead of returning the text, so a large table is never held
as one list of lines nor, by the command line, as one string.  It formats
the values a block at a time as well, and when an object repeats among a
block's first values, it formats each distinct object of the block once:
a table filled from normal forms shares one object among the words of a
class.
Reading takes that order at its fastest: a table's value list is
allocated with one slot per word, and the body is read a block of lines
at a time.  A slot is filled one of two ways.  A block whose lines are
the canonical texts of the next unfilled words, in order, each followed
by " : " and a scalar, fills those slots at once, each distinct scalar
text parsed once.  Any other block is read line by line: each key is
parsed into a word and fills the slot of its rank.  So a body in any
order reads to the same table, with the same errors and line numbers.

    # family 1 left: a b
    # family 1 right: c
    # star: no
    # degree: 4
    () : 1
    1.a : 1/2
    1.a 1.c* : 0/1 + 1/3 i
"""

from __future__ import annotations

import itertools
import re

from .dist import CumulantTable, Distribution, check_table_size
from .errors import DomainError, IncompleteTableError, ParseError, SignatureError
from .models import CovarianceSpec, VectorSpec
from .scalars import SCALAR_TOKEN_RE, GaussianRational, format_scalar, parse_scalar
from .words import (LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, Word, format_letter,
                    format_word)

_FACE_RE = re.compile(r"^#\s*family\s+(\S+)\s+(left|right)\s*:\s*(.*)$")
_STAR_RE = re.compile(r"^#\s*star\s*:\s*(yes|no)\s*$")
_KIND_RE = re.compile(r"^#\s*kind\s*:\s*(\S+)\s*$")
_NUMBER_RE = re.compile(r"^#\s*(degree|dim)\s*:\s*(\d+)\s*$")
_LETTER_RE = re.compile(r"^(.+?)\.([^.*]+)(\*)?$")
# the first word each table kind lists: the empty word, a letter, a pair
_SHORTEST = {"moments": 0, "cumulants": 1, "covariance": 2}
# how each kind refuses a word of a length it does not list
_OUT_OF_RANGE = {"moments": (DomainError, "unexpected word {} in table"),
                 "cumulants": (DomainError, "unexpected word {} in table"),
                 "covariance": (ParseError, "covariance entry {} is not a pair of letters")}


def _number(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:  # int() refuses a run of digits past the interpreter's limit
        raise ParseError("too many digits in a number", lineno) from None


def _family_id(text: str, lineno: int):
    return _number(text, lineno) if text.isascii() and text.isdigit() else text


class _HeaderState:
    """Header lines of one file of the given `kind`.  `number` names the one
    numeric header the format takes: "degree" for moment and cumulant
    tables, "dim" for vector files, None for covariance files."""

    def __init__(self, kind: str, number: str | None):
        self.expected_kind = kind
        self.number_name = number
        self.faces: dict[object, dict[str, tuple[str, ...]]] = {}
        self.first_line: dict[object, int] = {}  # each family's first header line
        self.star: bool | None = None
        self.number: int | None = None
        self.kind: str | None = None

    def feed(self, line: str, lineno: int) -> None:
        if m := _FACE_RE.match(line):
            if m.group(1).startswith("#"):
                raise ParseError(
                    f"family id {m.group(1)!r} starts with '#', so its letters "
                    "would read as header lines", lineno)
            fid = _family_id(m.group(1), lineno)
            side, indices = m.group(2), tuple(m.group(3).split())
            faces = self.faces.get(fid, {})
            read = {**faces, side: indices}
            try:  # the family's faces read so far, this one in place of any earlier
                FamilyFaces(fid, read.get(LEFT, ()), read.get(RIGHT, ()))
            except SignatureError as exc:
                raise ParseError(str(exc), lineno) from None
            if side in faces:
                raise ParseError(f"duplicate {side} face for family {fid!r}", lineno)
            self.first_line.setdefault(fid, lineno)
            self.faces[fid] = read
        elif m := _STAR_RE.match(line):
            if self.star is not None:
                raise ParseError("duplicate star header", lineno)
            self.star = m.group(1) == "yes"
        elif m := _NUMBER_RE.match(line):
            name = m.group(1)
            if name != self.number_name:
                raise ParseError(
                    f"a {self.expected_kind} file takes no '# {name}:' header", lineno
                )
            if self.number is not None:
                raise ParseError(f"duplicate {name} header", lineno)
            self.number = _number(m.group(2), lineno)
        elif m := _KIND_RE.match(line):
            if self.kind is not None:
                raise ParseError("duplicate kind header", lineno)
            self.kind = m.group(1)
        else:
            raise ParseError(f"unrecognized header {line!r}", lineno)

    def signature(self, lineno: int) -> FaceSignature:
        if self.number_name is not None and self.number is None:
            raise ParseError(f"missing '# {self.number_name}:' header", lineno)
        for fid, faces in self.faces.items():
            if not any(faces.values()):
                raise ParseError(f"family {fid!r} has no index in either face",
                                 self.first_line[fid])
        star = bool(self.star)
        return FaceSignature(tuple(
            FamilyFaces(fid, faces.get(LEFT, ()), faces.get(RIGHT, ()), star)
            for fid, faces in self.faces.items()
        ))


_LINE_BLOCK = 1 << 16
_WRITE_BLOCK = 1 << 10  # lines a writer joins into one string at a time
_PROBE = 32  # values of a block a writer looks at for a repeated object
# what the lines of a block are joined with before the block is split at
# " : ": lines hold no "\n", so a "\n" part between each two lines pins
# every line to exactly one " : "
_LINE_JOIN = " : \n : "


def _line_blocks(text: str):
    """`text.splitlines()` as lists of lines of about `_LINE_BLOCK`
    characters, so that no list of every line of a large file is held.  A
    block ends just after a newline, where every line break ends and none
    begins."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK)
        end = len(text) if end < 0 else end + 1
        yield text[start:end].splitlines()
        start = end


def _parse_lines(text: str, header: _HeaderState):
    """The line loop shared by every format: header lines, then body lines.

    A generator.  Header lines go to `header`.  Once the headers are
    complete, at the first body line (or at the end of a file without
    one), it yields the signature, then `(lineno, lines)` for each block of
    body lines: the lines as `_line_blocks` splits them, not stripped, and
    the number of the first.  `_body_lines` reads a block line by line.  A
    covariance or vector file whose headers declare a letter but that has
    no body lines is refused, and so, once the body is read, is a
    `# kind:` other than the one `header` expects.
    """
    signature = None
    lineno = 0
    for lines in _line_blocks(text):
        if signature is not None:
            yield lineno + 1, lines
        else:
            for at, raw in enumerate(lines):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    header.feed(line, lineno + at + 1)
                    continue
                signature = header.signature(lineno + at + 1)
                yield signature
                yield lineno + at + 1, lines[at:]
                break
        lineno += len(lines)
    kind = header.expected_kind
    if signature is None:
        if header.number_name != "degree" and any(
                indices for faces in header.faces.values() for indices in faces.values()):
            raise ParseError(f"empty {kind} file")
        yield header.signature(lineno)
    # a file without '# kind:' is of the kind its reader expects, except that
    # a cumulant table must say so: a moment table has the same body lines
    if (header.kind or ("moments" if kind == "cumulants" else kind)) != kind:
        raise ParseError(f"expected a {kind} table, got kind {header.kind!r}")


def _body_lines(lineno: int, lines: list[str]):
    """`(lineno, line)` for each body line of a block from `_parse_lines`,
    stripped; blank lines are skipped and a header line is refused."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            raise ParseError("header line after table entries", lineno)
        yield lineno, line


def _parse_letter(text: str, signature: FaceSignature, lineno: int) -> Letter:
    m = _LETTER_RE.match(text)
    if m is None:
        raise ParseError(f"malformed letter {text!r}", lineno)
    fid = _family_id(m.group(1), lineno)
    index, star = m.group(2), m.group(3) is not None
    try:
        faces = signature.family_faces(fid)
    except DomainError:
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


def _parse_word(text: str, signature: FaceSignature, lineno: int,
                letters: dict[str, Letter]) -> Word:
    """`letters` maps tokens that parse to their letters; each token missing
    from it is parsed here and stored, so it is parsed once, on the first
    line that holds it, while a bad token is never stored and fails on each
    line where it occurs."""
    text = text.strip()
    if text == "()":
        return ()
    if not text:
        raise ParseError("empty key; the empty word is written '()'", lineno)
    tokens = text.split()
    for tok in tokens:
        if tok not in letters:
            letters[tok] = _parse_letter(tok, signature, lineno)
    return tuple(map(letters.__getitem__, tokens))


class _KeyTexts:
    """The key texts of a table's slots, rank by rank, pulled from
    `_word_texts` a block at a time, so that no list of every key text of a
    large table is held."""

    def __init__(self, texts):
        self._texts = texts
        self._held: list[str] = []  # the texts of slots `_base`, `_base` + 1, ...
        self._base = 0

    def slots(self, first: int, count: int) -> list[str]:
        """The texts of slots `first` to `first` + `count` - 1, fewer past
        the last slot.  No slot below `first` is asked for again."""
        held, at = self._held, first - self._base
        if at + count > len(held):
            if at > len(held):  # pass over the slots between
                next(itertools.islice(self._texts, at - len(held), at - len(held)), None)
            held = held[at:]
            held += itertools.islice(self._texts, count - len(held))
            self._held, self._base, at = held, first, 0
        return held[at:at + count]


def _block_scalars(texts: list[str], scalars: dict[str, GaussianRational]):
    """The values of the scalar `texts`, or None if one does not parse.
    `scalars` maps texts that parsed to their values; each text missing
    from it is parsed once and stored."""
    try:
        return list(map(scalars.__getitem__, texts))
    except KeyError:
        pass
    try:
        for text in set(texts).difference(scalars):
            scalars[text] = parse_scalar(text)
    except ParseError:
        return None
    return list(map(scalars.__getitem__, texts))


def _parse_table(text: str, kind: str, number: str | None):
    """(signature, degree, values) of a moment, cumulant or covariance file;
    the degree of a covariance file is 2 and `values` lists the scalar of
    every word of the kind's lengths up to it, in graded-lex order.

    `values` is allocated before the body is read, one slot per rank.  A
    block of body lines is joined with `_LINE_JOIN` and split once at
    " : ".  If that gives, line by line, the key text `_word_texts` spells
    for the next unfilled slots, all still unfilled, and a scalar that
    parses, the block fills those slots at once.  Any other block is read
    line by line: each key is read by `_parse_word` and fills the slot of
    its word's rank.  Both ways fill the same slots with equal values, and
    only the second raises errors.  After each block the first unfilled
    slot moves past every slot filled so far.
    """
    header = _HeaderState(kind, number)
    blocks = _parse_lines(text, header)
    signature = next(blocks)
    degree = 2 if number is None else header.number
    check_table_size(signature, degree)
    shortest = _SHORTEST[kind]
    skip = signature.word_count(shortest - 1)
    values: list[GaussianRational | None] = [None] * (signature.word_count(degree) - skip)
    keys = _KeyTexts(itertools.islice(_word_texts(signature, degree), skip, None))
    first = 0  # the first unfilled slot
    letters: dict[str, Letter] = {}
    # like `letters`, for scalar texts: only texts that parsed are stored
    scalars: dict[str, GaussianRational] = {}
    for start, lines in blocks:
        count = len(lines)
        parts = _LINE_JOIN.join(lines).split(" : ")
        if (len(parts) == 3 * count - 1 and parts[0::3] == keys.slots(first, count)
                and parts[2::3] == ["\n"] * (count - 1)
                and values[first:first + count].count(None) == count
                and (block := _block_scalars(parts[1::3], scalars)) is not None):
            values[first:first + count] = block
            first += count
        else:
            for lineno, line in _body_lines(start, lines):
                word_text, colon, scalar_text = line.rpartition(":")
                if not colon:
                    raise ParseError("expected 'WORD : SCALAR'", lineno)
                word = _parse_word(word_text, signature, lineno, letters)
                if not shortest <= len(word) <= degree:
                    error, message = _OUT_OF_RANGE[kind]
                    raise error(message.format(format_word(word)))
                slot = signature.rank(word) - skip
                value = scalars.get(scalar_text)
                if value is None:
                    value = scalars[scalar_text] = _parse_scalar(scalar_text, lineno)
                if values[slot] is not None:
                    raise ParseError(f"duplicate entry for word {format_word(word)}", lineno)
                values[slot] = value
        while first < len(values) and values[first] is not None:
            first += 1
    if first < len(values):
        raise IncompleteTableError(keys.slots(first, 1)[0])
    return signature, degree, values


def parse_distribution(text: str) -> Distribution:
    signature, degree, values = _parse_table(text, "moments", "degree")
    return Distribution(signature, degree, values)


def parse_cumulant_table(text: str) -> CumulantTable:
    signature, degree, values = _parse_table(text, "cumulants", "degree")
    return CumulantTable(signature, degree, values)


def parse_covariance(text: str) -> CovarianceSpec:
    signature, _, values = _parse_table(text, "covariance", None)
    return CovarianceSpec(signature,
                          dict(zip(itertools.product(signature.letters(), repeat=2), values)))


def csv_field(text: str) -> str:
    """`text` as one quoted CSV field, an embedded '"' doubled (RFC 4180)."""
    return '"' + text.replace('"', '""') + '"'


def _face_headers(fam: FamilyFaces) -> list[str]:
    """The face headers of family `fam`, refused unless the reader's own
    header code reads them back as `fam`: the same id and the same faces."""
    faces = {side: indices for side, indices in ((LEFT, fam.left), (RIGHT, fam.right)) if indices}
    header = _HeaderState("", None)
    try:
        lines = [f"# family {fam.family} {side}: {' '.join(indices)}"
                 for side, indices in faces.items()]
        for line in lines:
            header.feed(line, 0)
    except (ParseError, ValueError):  # ValueError: an int too long to write
        pass
    else:
        if header.faces == {fam.family: faces}:
            return lines
    try:
        name = repr(fam.family)
    except ValueError:
        name = f"<{type(fam.family).__name__} too long to write>"
    raise SignatureError(f"family id {name} does not read back from its face headers "
                         f"(left {fam.left!r}, right {fam.right!r})")


def _emit_headers(signature: FaceSignature, kind: str | None, *extra: str) -> list[str]:
    """Face and star headers, then the `extra` lines, then `# kind:` if given.
    One `# star:` header covers every family, so a signature whose families
    disagree on star closure is refused."""
    first = {fam.star_closed: fam.family for fam in reversed(signature.families)}
    if len(first) > 1:
        raise SignatureError(
            f"star-closed family {first[True]!r} and family {first[False]!r} without "
            "star closure cannot share the one '# star:' header of the text format")
    lines = [line for fam in signature.families for line in _face_headers(fam)]
    lines.append(f"# star: {'yes' if signature.star_closed and signature.families else 'no'}")
    lines.extend(extra)
    if kind is not None:
        lines.append(f"# kind: {kind}")
    return lines


def _word_texts(signature: FaceSignature, degree: int):
    """format_word of every word up to `degree`, in emission order.
    `FaceSignature.words` lists the words of each length as a power of the
    alphabet, so the texts of length n > 1 are those of its first
    n - n // 2 letters times those of its last n // 2: one join of two
    texts per word, each letter formatted once."""
    letters = [format_letter(letter) for letter in signature.letters()]

    def power(n: int):
        return map(" ".join, itertools.product(letters, repeat=n))

    def lengths():
        yield ["()"]
        for n in range(1, signature.longest(degree) + 1):
            yield power(1) if n == 1 else map(
                " ".join, itertools.product(power(n - n // 2), power(n // 2)))
    return itertools.chain.from_iterable(lengths())


def join_lines(lines, write=None) -> str:
    """Each of `lines` ended by a newline, joined `_WRITE_BLOCK` lines to a
    block as soon as they are formatted, so that no list of every line of a
    large table is held.  Each block goes to `write` if it is given; the
    text not handed to `write` is returned: all of it if `write` is None,
    else ''."""
    blocks: list[str] = []
    emit = blocks.append if write is None else write
    lines = iter(lines)
    while block := list(itertools.islice(lines, _WRITE_BLOCK)):
        block.append("")  # the block's last newline
        emit("\n".join(block))
    return "".join(blocks)


def _scalar_texts(values: list):
    """format_scalar of each of `values`.  If an object repeats among the
    first `_PROBE` of them, as where equal moments share one object, each
    distinct object is formatted once, keyed by its id while `values`
    keeps it alive; if none does, no id is taken beyond those."""
    probe = values[:_PROBE]
    if len(set(map(id, probe))) == len(probe):
        return map(format_scalar, values)
    ids = list(map(id, values))
    objects = dict(zip(ids, values))
    texts = dict(zip(objects, map(format_scalar, objects.values())))
    return map(texts.__getitem__, ids)


def _table_lines(texts, values):
    """'WORD : SCALAR' for each of `values` and its word text from `texts`,
    one iterator per block of `_WRITE_BLOCK` values."""
    values = iter(values)
    while block := list(itertools.islice(values, _WRITE_BLOCK)):
        # zip(texts, ...) would pull one word text past the block's last
        yield map(" : ".join, zip(itertools.islice(texts, len(block)), _scalar_texts(block)))


def _format_table(headers: list[str], signature: FaceSignature, degree: int,
                  values, shortest: int, write) -> str:
    """The `headers`, then 'WORD : SCALAR' for every word of length
    `shortest` to `degree`, whose `values` come in the same order, through
    `join_lines`."""
    # words come in graded order, so the shorter ones come first
    texts = itertools.islice(_word_texts(signature, degree), signature.word_count(shortest - 1),
                             None)
    body = itertools.chain.from_iterable(_table_lines(texts, values))
    return join_lines(itertools.chain(headers, body), write)


def format_distribution(dist: Distribution, write=None) -> str:
    """The text of `dist`; with `write`, handed to it a block at a time
    (see `join_lines`).  So are the other table writers."""
    headers = _emit_headers(dist.signature, None, f"# degree: {dist.degree}")
    return _format_table(headers, dist.signature, dist.degree, dist.ranked, 0, write)


def format_cumulant_table(table: CumulantTable, write=None) -> str:
    headers = _emit_headers(table.signature, "cumulants", f"# degree: {table.degree}")
    return _format_table(headers, table.signature, table.degree, table.ranked, 1, write)


def format_covariance(cov: CovarianceSpec, write=None) -> str:
    headers = _emit_headers(cov.signature, "covariance")
    pairs = itertools.product(cov.signature.letters(), repeat=2)
    return _format_table(headers, cov.signature, 2, map(cov.c.__getitem__, pairs), 2, write)


def format_vector_spec(spec: VectorSpec) -> str:
    lines = _emit_headers(spec.signature, "vectors", f"# dim: {spec.dim}")
    for letter in spec.signature.letters():
        if letter.star:
            continue
        key = (letter.family, letter.side, letter.index)
        base = format_letter(letter)
        lines.append(f"{base} : " + " ".join(format_scalar(x) for x in spec.h[key]))
        lines.append(f"{base}* : " + " ".join(format_scalar(x) for x in spec.h_star[key]))
    return join_lines(lines)


def parse_vector_spec(text: str) -> VectorSpec:
    header = _HeaderState("vectors", "dim")
    blocks = _parse_lines(text, header)
    signature = next(blocks)
    h: dict = {}
    h_star: dict = {}
    letters: dict[str, Letter] = {}
    for lineno, line in itertools.chain.from_iterable(itertools.starmap(_body_lines, blocks)):
        key_text, colon, values_text = line.rpartition(":")
        if not colon:
            raise ParseError("expected 'LETTER[*] : v1 v2 ...'", lineno)
        key_text = key_text.strip()
        starred = key_text.endswith("*")
        word = _parse_word(key_text.removesuffix("*"), signature, lineno, letters)
        if len(word) != 1 or word[0].star:
            raise ParseError("expected 'LETTER[*] : v1 v2 ...'", lineno)
        vec = tuple(_parse_scalar(m.group(), lineno)
                    for m in SCALAR_TOKEN_RE.finditer(values_text))
        if len(vec) != header.number:
            raise ParseError(f"expected {header.number} coordinates", lineno)
        letter = word[0]
        key = (letter.family, letter.side, letter.index)
        target = h_star if starred else h
        if key in target:
            raise ParseError("duplicate vector row", lineno)
        target[key] = vec
    return VectorSpec(signature, header.number, h, h_star)
