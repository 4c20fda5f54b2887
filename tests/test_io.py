import itertools
import re
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from util import from_words, rand_dist, rand_scalar

import bifree.cli as bifree_cli
import bifree.dist
import bifree.io as bifree_io
from bifree.cli import main
from bifree.clt import CltReport, CltRow
from bifree.cumulant import cumulants_from_moments
from bifree.dist import CumulantTable, Distribution, group_families, point_distribution
from bifree.engine import bifree_product
from bifree.errors import (BifreeError, DomainError, IncompleteTableError,
                           NormalizationError, ParseError, SignatureError)
from bifree.io import (format_covariance, format_cumulant_table, format_distribution,
                       format_vector_spec, parse_covariance, parse_cumulant_table,
                       parse_distribution, parse_vector_spec)
from bifree.models import CovarianceSpec, VectorSpec, group_example_dist
from bifree.scalars import ONE, GaussianRational, decimal_magnitude, format_scalar, qi
from bifree.words import (LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, format_word,
                          two_faced)

# the benchmark's input writer, imported read-only as its own tests do
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

MINIMAL = """\
# family 1 left: a
# star: no
# degree: 1
() : 1
1.a : 1/2
"""


def test_parse_minimal():
    dist = parse_distribution(MINIMAL)
    assert dist.degree == 1
    assert dist.moment((Letter(1, LEFT, "a"),)) == qi(1, 2)


def test_round_trip_is_byte_identical(rng):
    sig = two_faced(left=("a", "b"), right=("c",), family=1, star=True)
    dist = rand_dist(sig, 3, rng, with_imag=True)
    text = format_distribution(dist)
    again = parse_distribution(text)
    assert again == dist
    assert format_distribution(again) == text


def test_grouped_product_round_trips(rng):
    # group_families names pooled indices "<family>:<index>", so the word of
    # a body line holds ':' too; every line splits at its last ':'
    mus = [rand_dist(two_faced(left=("a",), right=("c",), family=k, star=True), 3, rng,
                     with_imag=True) for k in (1, 2)]
    grouped = group_families(bifree_product(mus, 3), "G")
    text = format_distribution(grouped)
    assert "\nG.1:a G.2:c* : " in text
    again = parse_distribution(text)
    assert again == grouped
    assert format_distribution(again) == text


def test_covariance_and_vector_rows_with_a_colon_index_round_trip():
    sig = two_faced(left=("1:a",), right=("2:c",), family="G", star=True)
    letters = sig.letters()
    cov = CovarianceSpec(sig, {pair: qi(i, 3, -i, 2) for i, pair
                               in enumerate(itertools.product(letters, repeat=2))})
    text = format_covariance(cov)
    assert "G.1:a G.2:c* : " in text
    assert parse_covariance(text) == cov
    assert format_covariance(parse_covariance(text)) == text
    keys = [("G", LEFT, "1:a"), ("G", RIGHT, "2:c")]
    spec = VectorSpec(sig, 2, {k: (qi(i), qi(1, 2)) for i, k in enumerate(keys)},
                      {k: (qi(-i, 3), ONE) for i, k in enumerate(keys)})
    text = format_vector_spec(spec)
    assert "G.2:c* : " in text
    assert parse_vector_spec(text) == spec
    assert format_vector_spec(parse_vector_spec(text)) == text


def test_structurally_equal_tables_emit_identical_bytes(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    dist = rand_dist(sig, 2, rng)
    clone = from_words(Distribution, sig, 2, dict(reversed(list(dist.moments.items()))))
    assert clone == dist
    assert format_distribution(clone) == format_distribution(dist)


def test_emitted_words_match_format_word_line_by_line(rng):
    # two star-closed families, several indices per face, complex values:
    # the cached letter texts must give format_word's text on every line
    sig = FaceSignature(
        two_faced(left=("a", "b"), right=("c",), family=1, star=True).families
        + two_faced(left=("x",), right=("y", "z"), family="g2", star=True).families
    )
    dist = rand_dist(sig, 3, rng, with_imag=True)
    cumulants = cumulants_from_moments(dist, 3)
    for text, table, with_empty in ((format_distribution(dist), dist.moments, True),
                                    (format_cumulant_table(cumulants), cumulants.values, False)):
        body = [line for line in text.splitlines() if not line.startswith("#")]
        words = [w for w in sig.words(3) if w or with_empty]
        assert body == [f"{format_word(w)} : {format_scalar(table[w])}" for w in words]


def test_cumulant_table_round_trip(rng):
    sig = two_faced(left=("a",), right=("c",), family=1)
    table = cumulants_from_moments(rand_dist(sig, 3, rng), 3)
    text = format_cumulant_table(table)
    assert "# kind: cumulants" in text
    assert "()" not in text.splitlines()[-1]
    assert parse_cumulant_table(text) == table


_PROP_SIG = two_faced(left=("a",), right=("c",), family=1)
_PROP_WORDS = [w for w in _PROP_SIG.words(2) if w]


@given(st.lists(st.fractions(max_denominator=30), min_size=len(_PROP_WORDS),
                max_size=len(_PROP_WORDS)))
def test_any_rational_table_round_trips(values):
    moments = {(): ONE}
    for word, value in zip(_PROP_WORDS, values):
        moments[word] = GaussianRational(value)
    dist = from_words(Distribution, _PROP_SIG, 2, moments)
    assert parse_distribution(format_distribution(dist)) == dist


_SCALARS = st.builds(GaussianRational, st.fractions(max_denominator=20),
                     st.fractions(max_denominator=20))


@st.composite
def _star_closed_signatures(draw):
    families = []
    for fid in draw(st.lists(st.sampled_from((1, 2, "g")), min_size=1, max_size=2, unique=True)):
        # indices may hold ':', which every body line splits at its last one of
        indices = draw(st.lists(st.text("ab:1", min_size=1, max_size=3), min_size=1,
                                max_size=2, unique=True))
        cut = draw(st.integers(0, len(indices)))
        families.append(FamilyFaces(fid, tuple(indices[:cut]), tuple(indices[cut:]), True))
    return FaceSignature(tuple(families))


def _vector_spec(sig, values, dim):
    keys = [(l.family, l.side, l.index) for l in sig.letters() if not l.star]
    h, h_star = ({k: tuple(next(values) for _ in range(dim)) for k in keys} for _ in range(2))
    return VectorSpec(sig, dim, h, h_star)


# builders from a signature, an endless supply of scalars and a vector dimension
_KINDS = {
    "moments": (lambda sig, values, _: Distribution(
        sig, 2, [next(values) if w else ONE for w in sig.words(2)]),
        format_distribution, parse_distribution),
    "cumulants": (lambda sig, values, _: CumulantTable(
        sig, 2, [next(values) for w in sig.words(2) if w]),
        format_cumulant_table, parse_cumulant_table),
    "covariance": (lambda sig, values, _: CovarianceSpec(
        sig, {pair: next(values) for pair in itertools.product(sig.letters(), repeat=2)}),
        format_covariance, parse_covariance),
    "vectors": (_vector_spec, format_vector_spec, parse_vector_spec),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
@given(sig=_star_closed_signatures(), scalars=st.lists(_SCALARS, min_size=1, max_size=7),
       dim=st.integers(1, 3))
def test_every_kind_round_trips_with_complex_values(kind, sig, scalars, dim):
    build, format_, parse = _KINDS[kind]
    table = build(sig, itertools.cycle(scalars), dim)
    text = format_(table)
    again = parse(text)
    assert again == table
    assert format_(again) == text


def test_missing_word_names_first_in_graded_lex():
    text = MINIMAL.replace("1.a : 1/2\n", "")
    with pytest.raises(IncompleteTableError) as err:
        parse_distribution(text)
    assert "1.a" in str(err.value)


def test_normalization_error():
    with pytest.raises(NormalizationError):
        parse_distribution(MINIMAL.replace("() : 1", "() : 2"))


def test_malformed_scalar_has_line_number():
    with pytest.raises(ParseError) as err:
        parse_distribution(MINIMAL.replace("1/2", "1//2"))
    assert err.value.line == 5


def test_parse_rejects_undeclared_letter():
    with pytest.raises(ParseError):
        parse_distribution(MINIMAL.replace("1.a :", "1.z :"))
    with pytest.raises(ParseError):
        parse_distribution(MINIMAL.replace("1.a :", "2.a :"))
    with pytest.raises(ParseError):
        parse_distribution(MINIMAL.replace("1.a :", "1.a* :"))
    # an empty key is no word, not even the empty one
    with pytest.raises(ParseError, match=r"^line 4: empty key; the empty word is written '\(\)'"):
        parse_distribution(MINIMAL.replace("() : 1", " : 1"))


def test_undeclared_letter_after_parsed_tokens_names_its_line():
    # tokens that parsed are reused on later lines; a bad one still fails
    # on the line where it occurs, also next to an already parsed token
    text = ("# family 1 left: a\n# family 1 right: c\n# star: no\n# degree: 2\n"
            "() : 1\n1.a : 1\n1.c : 2\n1.a 1.a : 1\n1.a 1.c : 3\n1.a 1.z : 1\n")
    with pytest.raises(ParseError, match="^line 10: letter '1.z' names an undeclared index"):
        parse_distribution(text)
    with pytest.raises(ParseError, match="^line 8: letter '1.z' names an undeclared index"):
        parse_distribution(text.replace("1.a 1.a : 1", "1.z 1.a : 1"))


def test_bad_scalar_after_repeated_good_ones_names_its_line():
    # scalar texts that parsed are reused on later lines; a bad one is never
    # stored, so it fails on the line where it occurs, each time it occurs
    text = ("# family 1 left: a\n# family 1 right: c\n# star: no\n# degree: 2\n"
            "() : 1\n1.a : 1/2\n1.c : 1/2\n1.a 1.a : 1/2\n1.a 1.c : 1/0\n1.c 1.a : 1/0\n")
    with pytest.raises(ParseError, match="^line 9: zero denominator in scalar '1/0'"):
        parse_distribution(text)
    with pytest.raises(ParseError, match="^line 10: zero denominator in scalar '1/0'"):
        parse_distribution(text.replace("1.a 1.c : 1/0", "1.a 1.c : 1/2"))
    good = text.replace(": 1/0", ": 1/2") + "1.c 1.c : 1/2\n"
    assert set(parse_distribution(good).moments.values()) == {ONE, qi(1, 2)}


def test_parse_rejects_duplicates_and_bad_headers():
    with pytest.raises(ParseError):
        parse_distribution(MINIMAL + "1.a : 1/2\n")
    with pytest.raises(ParseError):
        parse_distribution("# degrees: 4\n() : 1\n")
    with pytest.raises(ParseError):
        parse_distribution(MINIMAL.replace("# degree: 1", "# degree: 1\n# degree: 2"))


def test_table_header_after_entries_names_its_line():
    with pytest.raises(ParseError, match="^line 6: header line after table entries"):
        parse_distribution(MINIMAL + "# star: yes\n")
    with pytest.raises(ParseError, match="^line 4: a moments file takes no '# dim:' header"):
        parse_distribution(MINIMAL.replace("# degree: 1", "# degree: 1\n# dim: 2"))


def test_face_index_no_letter_can_name_is_refused_at_its_header_line():
    two_faces = MINIMAL.replace("# family 1 left: a", "# family 1 left: a\n# family 1 right: c")
    for bad in ("c.d", "c*"):
        with pytest.raises(ParseError, match=rf"^line 2: index '{re.escape(bad)}' of family 1 contains"):
            parse_distribution(two_faces.replace("right: c", f"right: {bad} e"))
    # such a table cannot be built either, so none can be written
    with pytest.raises(SignatureError):
        point_distribution(two_faced(left=("a.b",)), 1)
    # a family missing from the headers is still reported on its body line
    with pytest.raises(ParseError, match="^line 5: letter '2.a' names an undeclared family"):
        parse_distribution(MINIMAL.replace("1.a :", "2.a :"))


def test_family_id_starting_with_a_hash_is_refused_at_its_header_line():
    # each body line '#f.a : ...' would read as a header line
    text = MINIMAL.replace("1 left", "#f left").replace("1.a :", "#f.a :")
    with pytest.raises(ParseError, match="^line 1: family id '#f' starts with '#', so its "
                                         "letters would read as header lines$"):
        parse_distribution(text)


def test_mixed_star_closure_is_refused_by_every_writer(rng):
    sig = FaceSignature((FamilyFaces(1, ("a",), (), False), FamilyFaces("x", ("b",), (), True),
                         FamilyFaces(3, ("c",), (), True)))
    dist = rand_dist(sig, 2, rng)
    message = ("^star-closed family 'x' and family 1 without star closure cannot share "
               "the one '# star:' header of the text format$")
    for write in (format_distribution, lambda d: format_cumulant_table(
            cumulants_from_moments(d, 2))):
        with pytest.raises(SignatureError, match=message):
            write(dist)
    # one kind of family alone is written as before
    for keep in ((1,), ("x", 3)):
        sub = dist.restrict(keep)
        assert parse_distribution(format_distribution(sub)) == sub


def test_complex_scalar_format_matches_spec_example():
    sig = two_faced(left=("a",), right=("c",), family=1, star=True)
    moments = {w: (ONE if not w else qi(0)) for w in sig.words(2)}
    a = Letter(1, LEFT, "a")
    cstar = Letter(1, RIGHT, "c", star=True)
    moments[(a, cstar)] = qi(0, 1, 1, 3)
    text = format_distribution(from_words(Distribution, sig, 2, moments))
    assert "1.a 1.c* : 0/1 + 1/3 i" in text


def test_gaussian_fixture_round_trips(rng):
    from bifree.models import CovarianceSpec, gaussian_dist

    sig = two_faced(left=("a",), right=("c",), family=1)
    letters = sig.letters()
    cov = {(u, v): qi(rng.randint(-2, 2), rng.randint(1, 2))
           for u in letters for v in letters}
    g = gaussian_dist(CovarianceSpec(sig, cov), 4)
    assert parse_distribution(format_distribution(g)) == g


def test_lines_split_in_blocks_are_the_lines_of_the_text():
    # every line break splitlines knows, "\r\n" at every offset from a block end
    text = "a\r\nb\n\rc\x0b\x0cd\x1c\x85e\u2028\r\n\nf \r\r\ng"
    for tail in ("", "\n", "\r\n"):
        for block in range(len(text) + 2):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(bifree_io, "_LINE_BLOCK", block)
                blocks = bifree_io._line_blocks(text + tail)
                assert list(itertools.chain.from_iterable(blocks)) == (text + tail).splitlines()


def _lines_text(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _table_reference(headers, words, values) -> str:
    """A table's text written line by line, apart from the writers' block loop."""
    return _lines_text(headers + [f"{format_word(w)} : {format_scalar(v)}"
                                  for w, v in zip(words, values)])


def _csv_reference(dist) -> str:
    rows = []
    for word, value in zip(dist.signature.words(dist.degree), dist.ranked):
        sign = "-" if value.is_real and value.re < 0 else ""
        rows.append(f'"{format_word(word)}","{format_scalar(value)}",'
                    f"{sign}{decimal_magnitude(value)}")
    return _lines_text(["word,moment,decimal"] + rows)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_writers_give_the_lines_of_the_table_across_block_boundaries(block, rng, monkeypatch):
    monkeypatch.setattr(bifree_io, "_WRITE_BLOCK", block)
    cases = []  # (kind, text line by line, writer, its arguments before `write`)
    one = two_faced(left=("a",), family=1)
    # one letter: a degree d table lists d + 1 moments and d cumulants
    for degree in range(1, 3 * block + 2):
        head = ["# family 1 left: a", "# star: no", f"# degree: {degree}"]
        words = list(one.words(degree))
        dist = rand_dist(one, degree, rng, with_imag=True)
        cum = CumulantTable(one, degree, [rand_scalar(rng, True) for _ in words[1:]])
        rows = [CltRow(w, 4, rand_scalar(rng, True), rand_scalar(rng), rand_scalar(rng, True))
                for w in words[1:]]
        clt_text = _lines_text(["word,N,moment,gaussian,error,abs_error"] + [
            f'"{format_word(r.word)}",4,"{r.moment}","{r.gaussian}","{r.error}",'
            f"{decimal_magnitude(r.error)}" for r in rows])
        # one object shared across blocks among distinct ones; equal values
        # in distinct objects
        shared = rand_scalar(rng, True)
        sharing = [shared if i % 3 else rand_scalar(rng, True) for i in range(len(words))]
        distinct = [qi(1)] + [qi(i % 2, 3) for i in range(1, len(words))]
        sharing[0] = distinct[0]
        assert len(set(map(id, distinct))) == len(words)
        cases += [
            ("moments", _table_reference(head, words, dist.ranked), format_distribution, (dist,)),
            ("shared", _table_reference(head, words, sharing), format_distribution,
             (Distribution(one, degree, sharing),)),
            ("distinct", _table_reference(head, words, distinct), format_distribution,
             (Distribution(one, degree, distinct),)),
            ("cumulants", _table_reference(head + ["# kind: cumulants"], words[1:], cum.ranked),
             format_cumulant_table, (cum,)),
            ("csv", _csv_reference(dist), bifree_cli._dist_output, (dist, "csv")),
            ("clt", clt_text, CltReport(degree, (4,), rows, True).to_csv, ()),
        ]
    # n letters in f families: n^2 pairs after f + 2 header lines
    for n in range(1, 5):
        for f in range(1, n + 1):
            faces = ["abcd"[:n - f + 1], *"abcd"[n - f + 1:n]]
            sig = FaceSignature(tuple(FamilyFaces(k, tuple(face), ())
                                      for k, face in enumerate(faces, 1)))
            head = [f"# family {k} left: {' '.join(face)}" for k, face in enumerate(faces, 1)]
            pairs = [w for w in sig.words(2) if len(w) == 2]
            values = [rand_scalar(rng, True) for _ in pairs]
            cases.append(("covariance", _table_reference(
                head + ["# star: no", "# kind: covariance"], pairs, values),
                format_covariance, (CovarianceSpec(sig, dict(zip(pairs, values))),)))
    line_counts = {}
    for kind, text, writer, args in cases:
        blocks = []
        assert writer(*args, blocks.append) == ""
        assert writer(*args) == "".join(blocks) == text, kind
        lines = text.count("\n")
        assert [b.count("\n") for b in blocks] == [block] * (lines // block) + (
            [lines % block] if lines % block else [])
        assert all(b.endswith("\n") for b in blocks)
        line_counts.setdefault(kind, set()).add(lines)
    # each kind ran just below, at and just above a block boundary past the first block
    for counts in line_counts.values():
        assert any({m - 1, m, m + 1} <= counts for m in range(2 * block, max(counts), block))


def test_a_writer_formats_each_value_object_once_a_block(monkeypatch):
    monkeypatch.setattr(bifree_io, "_WRITE_BLOCK", 4)
    formatted = []
    monkeypatch.setattr(bifree_io, "format_scalar",
                        lambda value: formatted.append(value) or format_scalar(value))
    one = two_faced(left=("a",), family=1)
    head = ["# family 1 left: a", "# star: no", "# degree: 9"]
    x, y = qi(1), qi(1)  # equal values, two objects
    values = [x, y] * 5  # blocks of 4, 4 and 2 values
    assert format_distribution(Distribution(one, 9, values)) == _table_reference(
        head, one.words(9), values)
    assert list(map(id, formatted)) == [id(x), id(y)] * 3
    formatted.clear()
    values = [qi(1) for _ in range(10)]
    assert format_distribution(Distribution(one, 9, values)) == _table_reference(
        head, one.words(9), values)
    assert list(map(id, formatted)) == list(map(id, values))


def test_a_table_handed_to_write_peaks_near_the_size_of_its_text():
    # the paper's Z/2 * Z/3 example at degree 8, the largest table the CLI
    # writes: a list of every line and then their join peaked at 3.6 times
    # the text, blocks joined as they are formatted stay near the text
    dist = group_example_dist([2, 3], 8)
    blocks = []
    tracemalloc.start()
    try:
        format_distribution(dist, blocks.append)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(map(len, blocks))  # ASCII text: a byte a character
    assert size > 3_000_000
    assert peak < 1.5 * size, (peak, size)


def test_non_canonical_spellings_parse_to_the_canonical_table(rng):
    sig = FaceSignature((FamilyFaces(1, ("a",), ("c",), True), FamilyFaces(2, ("x",), (), True)))
    dist = rand_dist(sig, 3, rng, with_imag=True)
    lines = format_distribution(dist).splitlines()
    headers = [line.replace("family 1 ", "family 01 ") for line in lines if line[0] == "#"]

    def blanks():
        return rng.choice([" ", "\t", "  ", " \t "])

    body = []
    for line in lines[len(headers):]:
        key, _, value = line.rpartition(" : ")
        # family 01 is family 1, whichever spelling a token uses
        tokens = [rng.choice(["01", "1"]) + tok[1:] if tok[:2] == "1." else tok
                  for tok in key.split(" ")]
        body.append(rng.choice(["", "\t"]) + blanks().join(tokens) + blanks() + ":"
                    + blanks() + value + rng.choice(["", " "]))
        if rng.random() < 0.2:
            body.append(rng.choice(["", "  ", "\t"]))
    rng.shuffle(body)
    text = "\n".join(headers + ["", *body]) + "\n"
    assert "\t" in text and "01." in text
    assert parse_distribution(text) == dist


def test_restrict_and_errors(rng):
    from bifree.words import FaceSignature, FamilyFaces

    sig = FaceSignature((FamilyFaces(1, ("a",), ("c",)), FamilyFaces(2, ("x",), ())))
    dist = rand_dist(sig, 2, rng)
    sub = dist.restrict((1,))
    assert all(l.family == 1 for w in sub.moments for l in w)
    assert sub.moment((Letter(1, LEFT, "a"),)) == dist.moment((Letter(1, LEFT, "a"),))
    whole = dist.restrict((1, 2))
    assert whole == dist
    empty = dist.restrict(())
    assert empty.moments == {(): ONE}
    with pytest.raises(DomainError):
        dist.restrict((7,))


# One valid file of each kind over two star-closed families with complex
# values, and the subcommand that reads that kind.
_FUZZ_SIG = FaceSignature((FamilyFaces(1, ("a",), ("c",), True),
                           FamilyFaces(2, ("x",), (), True)))
_FUZZ_VALUES = (qi(1, 2, -3, 4), qi(-5, 3), qi(0, 1, 7, 2))
_FUZZ_TEXTS = {kind: format_(build(_FUZZ_SIG, itertools.cycle(_FUZZ_VALUES), 2))
               for kind, (build, format_, _) in _KINDS.items()}
_FUZZ_COMMANDS = {"moments": ("cumulants", "--in"), "cumulants": ("moments", "--in"),
                  "covariance": ("gaussian", "--cov"), "vectors": ("fock", "--vectors")}


@st.composite
def _mutated_files(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    lines = _FUZZ_TEXTS[kind].splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        line = lines[i] if lines else ""
        at = draw(st.integers(0, len(line)))
        how = draw(st.sampled_from(("cut line", "cut file", "stray", "/0", "huge")))
        if how == "cut line":
            line = line[:at]
        elif how == "cut file":
            lines, line = lines[:i], line[:at]
        elif how == "stray":
            line = line[:at] + draw(st.sampled_from("*:")) + line[at:]
        elif how == "/0":
            line = line[:at] + "/0" + line[at:]
        elif runs := list(re.finditer(r"\d+", line)):
            # 5000 digits is past the interpreter's int-from-text limit
            run = runs[at % len(runs)]
            huge = "9" * draw(st.sampled_from((40, 400, 5000)))
            line = line[:run.start()] + huge + line[run.end():]
        lines[i:i + 1] = [line]
    return kind, "".join(lines)


@settings(max_examples=150)
@given(_mutated_files())
def test_mutated_files_raise_only_bifree_errors(tmp_path_factory, case):
    kind, text = case
    try:
        _KINDS[kind][2](text)
    except BifreeError as exc:
        message = f"error: {exc}\n"
    else:
        return  # some mutations leave a valid file
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_text(text)
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main([*_FUZZ_COMMANDS[kind], str(path)]) == 2
    assert (out.getvalue(), err.getvalue()) == ("", message)


# A moment, a cumulant and a covariance table over {1.a | 1.c} to degree 2,
# every value distinct, for the parser's in-order path and its parsed keys.
_ORDER_SIG = two_faced(left=("a",), right=("c",), family=1)
_ORDER_TEXTS = {
    "moments": format_distribution(Distribution(_ORDER_SIG, 2, [ONE] + [
        qi(k, 7) for k in range(1, 7)])),
    "cumulants": format_cumulant_table(CumulantTable(_ORDER_SIG, 2, [
        qi(k, 5) for k in range(1, 7)])),
    "covariance": format_covariance(CovarianceSpec(_ORDER_SIG, {
        pair: qi(k, 3) for k, pair in enumerate(
            itertools.product(_ORDER_SIG.letters(), repeat=2), start=1)})),
}
_ORDER_PARSERS = {"moments": parse_distribution, "cumulants": parse_cumulant_table,
                  "covariance": parse_covariance}


def _split(kind):
    lines = _ORDER_TEXTS[kind].splitlines()
    headers = [line for line in lines if line.startswith("#")]
    return headers, lines[len(headers):]


def _mutate(kind, trigger, k):
    """The text of `kind` with `trigger` at body line k (0-based), and the
    error, as (type, message) or None, that the parser must raise."""
    headers, body = _split(kind)
    lineno = len(headers) + k + 1
    key = body[k].rpartition(" : ")[0]
    if trigger == "shuffled":
        rest = body[k:]
        body[k:] = rest[1:] + rest[:1]
        error = None
    elif trigger == "spaced":
        body[k] = key.replace(" ", "   ") + " \t:  " + body[k].rpartition(" : ")[2]
        error = None
    elif trigger == "duplicate":
        earlier = body[k - 1].rpartition(" : ")[0]
        body[k] = f"{earlier} : 1"
        error = ParseError, f"line {lineno}: duplicate entry for word {earlier}"
    elif trigger == "missing":
        del body[k]
        error = IncompleteTableError, f"table is missing an entry for word {key!r}"
    elif trigger == "extra":
        body.insert(k, "1.a 1.a 1.a : 1")
        error = ((ParseError, "covariance entry 1.a 1.a 1.a is not a pair of letters")
                 if kind == "covariance" else
                 (DomainError, "unexpected word 1.a 1.a 1.a in table"))
    elif trigger == "undeclared":
        body[k] = "1.a 1.z : 1"
        error = ParseError, f"line {lineno}: letter '1.z' names an undeclared index"
    elif trigger == "scalar":
        body[k] = f"{key} : 1//2"
        error = ParseError, f"line {lineno}: malformed scalar '1//2'"
    elif trigger == "colon":
        body[k] = key
        error = ParseError, f"line {lineno}: expected 'WORD : SCALAR'"
    elif trigger == "blank":
        body.insert(k, "")
        error = None
    elif trigger == "crlf":
        body[k] += "\r"
        error = None
    elif trigger == "trailing":
        body[k] += " \t "
        error = None
    elif trigger in _BREAKS:
        # a line break of splitlines' own after line k adds an empty line,
        # and the last scalar is malformed: its line number counts that line
        bad = body[-1].rpartition(" : ")[0] + " : 1//2"
        body[-1] = bad
        body[k] += _BREAKS[trigger]
        lineno = ("\n".join(headers + body) + "\n").splitlines().index(bad) + 1
        error = ParseError, f"line {lineno}: malformed scalar '1//2'"
    elif trigger == "refilled":
        earliest = body[0].rpartition(" : ")[0]
        body[k] = f"{earliest} : 1"
        error = ParseError, f"line {lineno}: duplicate entry for word {earliest}"
    elif trigger == "comment":
        body.insert(k, "# star: no")
        error = ParseError, f"line {lineno}: header line after table entries"
    elif trigger == "ahead":  # line k read before line 0 as well
        body.insert(0, body[k])
        error = ParseError, f"line {lineno + 1}: duplicate entry for word {key}"
    elif trigger == "colons":
        body[k] += " :"
        error = ParseError, f"line {lineno}: malformed letter {'()' if key == '()' else ':'!r}"
    else:  # misaligned: line k holds " : " twice and line k + 1 not at all
        body[k] = f"{key} : 1 : {body[k + 1].rpartition(' : ')[0]}"
        body[k + 1] = "1"
        error = ParseError, f"line {lineno}: malformed letter {'()' if key == '()' else ':'!r}"
    return "\n".join(headers + body) + "\n", error


_BREAKS = {"formfeed": "\x0c", "separator": "\u2028"}
# the body lines (0-based) each trigger is put at: every line, but for those
# that need a line before or after theirs
_FIRST = {"duplicate": 1, "refilled": 1, "comment": 1, "ahead": 1}
_PAST_LAST = {"misaligned": -1}


# _LINE_BLOCK 0 reads each line as a block of its own, 20 about two lines a
# block, the default the whole text as one
@pytest.mark.parametrize("block", [0, 20, bifree_io._LINE_BLOCK])
@pytest.mark.parametrize("kind", sorted(_ORDER_TEXTS))
@pytest.mark.parametrize("trigger", ["shuffled", "spaced", "duplicate", "missing", "extra",
                                     "undeclared", "scalar", "colon", "blank", "crlf",
                                     "trailing", *_BREAKS, "refilled", "comment", "ahead",
                                     "colons", "misaligned"])
def test_every_line_that_leaves_the_emission_order_falls_back_with_its_error(
        kind, trigger, block, monkeypatch):
    monkeypatch.setattr(bifree_io, "_LINE_BLOCK", block)
    parse = _ORDER_PARSERS[kind]
    table = parse(_ORDER_TEXTS[kind])
    for k in range(_FIRST.get(trigger, 0), len(_split(kind)[1]) + _PAST_LAST.get(trigger, 0)):
        text, error = _mutate(kind, trigger, k)
        if error is None:
            assert parse(text) == table
            continue
        with pytest.raises(error[0]) as raised:
            parse(text)
        assert type(raised.value) is error[0] and str(raised.value) == error[1], k


def test_the_parser_fills_one_rank_list_from_a_body_in_any_order():
    text = _ORDER_TEXTS["moments"]
    _, degree, values = bifree_io._parse_table(text, "moments", "degree")
    assert degree == 2 and values == parse_distribution(text).ranked
    for k in range(len(values)):
        shuffled, _ = _mutate("moments", "shuffled", k)
        assert bifree_io._parse_table(shuffled, "moments", "degree")[2] == values
    headers, body = _split("moments")
    reversed_ = "\n".join(headers + body[::-1]) + "\n"
    assert bifree_io._parse_table(reversed_, "moments", "degree")[2] == values
    # a cut body is refused by the reader, which names its first missing word
    cut, _ = _mutate("moments", "missing", 6)
    with pytest.raises(IncompleteTableError, match=r"^table is missing an entry for word "
                                                   r"'1\.c 1\.c'$"):
        bifree_io._parse_table(cut, "moments", "degree")


def test_a_body_in_emission_order_is_never_read_line_by_line(monkeypatch, tmp_path):
    read = []
    body_lines = bifree_io._body_lines
    monkeypatch.setattr(bifree_io, "_body_lines",
                        lambda lineno, lines: read.append(lineno) or body_lines(lineno, lines))
    monkeypatch.setattr(bifree_io, "_LINE_BLOCK", 100)
    dist = group_example_dist([2, 3], 4)
    text = format_distribution(dist)
    assert parse_distribution(text) == dist and read == []
    # every table text bifree's writers and the benchmark's inputs hold
    sig = dist.signature
    cumulants = cumulants_from_moments(dist, 4)
    cov = CovarianceSpec(sig, {pair: dist.get(pair)
                               for pair in itertools.product(sig.letters(), repeat=2)})
    assert parse_cumulant_table(format_cumulant_table(cumulants)) == cumulants
    assert parse_covariance(format_covariance(cov)) == cov
    for workload in ("engine_tables", "cumulant_chain"):
        (tmp_path / workload).mkdir()
        workloads.make_inputs(workload, 1, tmp_path / workload)
    parsers = {".dist": parse_distribution, ".cov": parse_covariance}
    names = {"r1.dist", "r2.dist", "x.dist", "y.dist", "cov.cov", "m.dist", "clt.dist"}
    tables = [path for path in sorted(tmp_path.glob("*/*")) if path.suffix in parsers]
    assert {path.name for path in tables} == names
    for path in tables:
        parsers[path.suffix](path.read_text(encoding="utf-8"))
    assert read == []
    # the one or two blocks that hold two swapped lines are read line by
    # line, the other blocks (about 50) not
    lines = text.splitlines()
    lines[100], lines[101] = lines[101], lines[100]
    assert parse_distribution("\n".join(lines) + "\n") == dist
    assert 1 <= len(read) <= 2
    # a line moved back: its own block and the block it left are read line
    # by line, and the first unfilled slot then jumps past the slot the
    # moved line filled, over key texts the reader never compares
    jumps = []
    slots = bifree_io._KeyTexts.slots

    def counted(keys, first, count):
        jumps.append(first - keys._base > len(keys._held))
        return slots(keys, first, count)

    monkeypatch.setattr(bifree_io._KeyTexts, "slots", counted)
    read.clear()
    lines = text.splitlines()
    lines.insert(60, lines.pop(150))
    assert parse_distribution("\n".join(lines) + "\n") == dist
    assert len(read) == 2 and jumps.count(True) == 1


@pytest.mark.parametrize("block", [0, 30, bifree_io._LINE_BLOCK])
@given(sig=_star_closed_signatures(), scalars=st.lists(_SCALARS, min_size=1, max_size=7),
       data=st.data())
def test_in_order_and_shuffled_bodies_parse_to_one_table(block, sig, scalars, data):
    for kind in ("moments", "cumulants", "covariance"):
        build, format_, parse = _KINDS[kind]
        table = build(sig, itertools.cycle(scalars), 1)
        lines = format_(table).splitlines()
        headers = [line for line in lines if line.startswith("#")]
        body = lines[len(headers):]
        k = data.draw(st.integers(0, len(body)))
        rest = data.draw(st.permutations(body[k:]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bifree_io, "_LINE_BLOCK", block)
            assert parse(format_(table)) == table
            assert parse("\n".join(headers + body[:k] + rest) + "\n") == table


def test_an_oversize_degree_header_is_refused_before_the_body(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bifree.dist, "MAX_WORDS", 100)
    # 3 letters to degree 4 is 121 words; the first body line is malformed
    text = ("# family 1 left: a b\n# family 1 right: c\n# star: no\n# degree: 4\n"
            "() : 1//2\n")
    message = "a table of 3 letters to degree 4 has 121 entries, more than the limit of 100"
    for parse in (parse_distribution, parse_cumulant_table):
        with pytest.raises(DomainError, match=f"^{message}$"):
            parse(text)
    path = tmp_path / "big.dist"
    path.write_text(text)
    assert main(["cumulants", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # 40 words to degree 3 are within the limit
    small = point_distribution(two_faced(left=("a", "b"), right=("c",)), 3)
    assert parse_distribution(format_distribution(small)) == small


def test_a_family_with_no_index_is_refused_at_its_first_header_line():
    body = "# star: no\n# degree: 1\n() : 1\n"
    for faces in ("# family 2 left:\n", "# family 2 right:\n# family 2 left:\n"):
        with pytest.raises(ParseError, match="^line 2: family 2 has no index in either face$"):
            parse_distribution("# family 1 left: a\n" + faces + body + "1.a : 0\n")
    with pytest.raises(ParseError, match="^line 1: family 'f' has no index in either face$"):
        parse_covariance("# family f left:\n# star: no\n")
    # an explicit empty face next to a non-empty one still reads
    dist = parse_distribution("# family 1 left:\n# family 1 right: c\n" + body + "1.c : 0\n")
    assert dist.signature == two_faced(right=("c",), family=1)


@pytest.mark.parametrize("family", ["#f", "x y", "", "1", "01", True, -1, 1.5, "a\u00a0b"])
def test_writers_refuse_a_family_id_no_header_reads_back(family):
    sig = two_faced(left=("a",), family=family)
    dist = point_distribution(sig, 1)  # legal in memory
    with pytest.raises(SignatureError, match=f"^family id {re.escape(repr(family))} "):
        format_distribution(dist)
    with pytest.raises(SignatureError):
        format_cumulant_table(cumulants_from_moments(dist, 1))
    with pytest.raises(SignatureError):
        format_covariance(CovarianceSpec(sig, {(a, b): ONE for a in sig.letters()
                                               for b in sig.letters()}))
    # the CSV format names no family in a header, so it writes the table
    lines = bifree_cli._dist_output(dist, "csv").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ['"()"', f'"{family}.a"']


@given(st.one_of(st.integers(0, 10**30), st.text(min_size=0, max_size=6)))
def test_every_family_id_a_writer_accepts_round_trips(family):
    sig = two_faced(left=("a",), right=("c",), family=family, star=True)
    dist = Distribution(sig, 2, [ONE] + [qi(k, 3, -k, 2) for k in range(1, 21)])
    try:
        text = format_distribution(dist)
    except SignatureError:
        return
    assert parse_distribution(text) == dist
    assert parse_cumulant_table(format_cumulant_table(cumulants_from_moments(dist, 2))) == (
        cumulants_from_moments(dist, 2))


@st.composite
def _any_signatures(draw):
    """0-3 families whose ids and indices need not read back: negative ints,
    bools, texts with blanks, tabs, '#', ':' or '()' or none at all, indices
    that are empty or hold a blank, faceless families, either star closure."""
    # the first text kind holds no blank and no '#', so that many ids read back
    ids = st.one_of(st.integers(-3, 3), st.text(":()a1", min_size=1, max_size=3),
                    st.booleans(), st.text(" \t#:()a1", max_size=3))
    index = st.one_of(st.text(":()b", min_size=1, max_size=2), st.text(" :()b", max_size=2))
    star = draw(st.booleans())
    families = []
    for fid in draw(st.lists(ids, max_size=3, unique=True)):
        faceless = draw(st.sampled_from((False, False, False, False, True)))
        indices = [] if faceless else draw(st.lists(index, min_size=1, max_size=2, unique=True))
        cut = draw(st.integers(0, len(indices)))
        families.append(FamilyFaces(fid, tuple(indices[:cut]), tuple(indices[cut:]), star))
    return FaceSignature(tuple(families))


@settings(max_examples=100)
@given(sig=_any_signatures(), scalars=st.lists(_SCALARS, min_size=1, max_size=5))
@example(sig=two_faced(left=("x y",), family=1), scalars=[ONE])
@example(sig=FaceSignature((FamilyFaces(1, ("a",)), FamilyFaces(2))), scalars=[ONE])
@example(sig=FaceSignature(()), scalars=[ONE])
def test_every_signature_a_writer_accepts_round_trips(sig, scalars):
    for kind in sorted(_KINDS):
        build, format_, parse = _KINDS[kind]
        table = build(sig, itertools.cycle(scalars), 2)
        try:
            text = format_(table)
        except SignatureError:
            continue
        again = parse(text)
        assert again == table
        assert format_(again) == text


@pytest.mark.parametrize("sig, name", [
    (two_faced(left=("x y",), family=1), "1"),
    (two_faced(right=("",), family="f"), "'f'"),
    (FaceSignature((FamilyFaces(1, ("a",)), FamilyFaces(2))), "2"),
    (two_faced(left=("a",), family=10**5000), "<int too long to write>"),
])
def test_writers_refuse_a_family_whose_face_headers_do_not_read_back(sig, name):
    for kind in sorted(_KINDS):
        build, format_, _ = _KINDS[kind]
        with pytest.raises(SignatureError, match=f"^family id {re.escape(name)} does not "
                                                 "read back from its face headers"):
            format_(build(sig, itertools.repeat(ONE), 1))
