import csv
import itertools
from collections import Counter
from math import isqrt

import pytest
from util import from_words, rand_dist, rand_scalar

import bifree.cli
import bifree.io
from bifree.cli import main
from bifree.dist import Distribution
from bifree.errors import DomainError
from bifree.io import (format_covariance, format_distribution, format_vector_spec,
                       parse_distribution)
from bifree.models import (CovarianceSpec, VectorSpec, fock_distribution, gram_psd_check,
                           group_example_dist)
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, FaceSignature, FamilyFaces, Letter, format_word, two_faced

SIG = two_faced(left=("a",), right=("c",), family=1)
A = Letter(1, LEFT, "a")
C = Letter(1, RIGHT, "c")


@pytest.fixture
def mu_path(tmp_path, rng):
    mu = rand_dist(SIG, 4, rng)
    path = tmp_path / "mu.dist"
    path.write_text(format_distribution(mu))
    return path


def test_cumulants_moments_round_trip(tmp_path, mu_path):
    cum = tmp_path / "r.cum"
    out = tmp_path / "mu2.dist"
    assert main(["cumulants", "--in", str(mu_path), "--degree", "4", "--out", str(cum)]) == 0
    assert main(["moments", "--in", str(cum), "--out", str(out)]) == 0
    assert out.read_text() == mu_path.read_text()


def test_non_ascii_digit_family_id_round_trips(tmp_path):
    # '²'.isdigit() is true but int('²') fails: the id stays the string '²'
    text = ("# family ² left: a\n# family 7 right: c\n# star: no\n# degree: 2\n"
            "() : 1\n².a : 1/2\n7.c : 1/3\n².a ².a : 1\n².a 7.c : 1/6\n"
            "7.c ².a : 1/6\n7.c 7.c : 1/5\n")
    dist = parse_distribution(text)
    assert [fam.family for fam in dist.signature.families] == ["²", 7]
    assert format_distribution(dist) == text
    path, cum, out = tmp_path / "sup.dist", tmp_path / "sup.cum", tmp_path / "sup2.dist"
    path.write_text(text, encoding="utf-8")
    assert main(["cumulants", "--in", str(path), "--out", str(cum)]) == 0
    assert main(["moments", "--in", str(cum), "--out", str(out)]) == 0
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("out", [".", "missing/r.cum"])
def test_unwritable_output_is_an_input_error(tmp_path, mu_path, capsys, out):
    # a directory, or a file in a directory that does not exist
    target = tmp_path / out
    assert main(["cumulants", "--in", str(mu_path), "--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")
    assert not (tmp_path / "missing").exists()


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.dist"
    path.write_bytes("# family 1 left: \xe9\n".encode("latin-1"))
    assert main(["cumulants", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text (")
    assert "at byte 17)" in err


def test_a_byte_order_mark_is_not_an_error(tmp_path, mu_path, capsys):
    path = tmp_path / "bom.dist"
    path.write_bytes(b"\xef\xbb\xbf" + mu_path.read_bytes())
    assert main(["cumulants", "--in", str(mu_path)]) == 0
    plain = capsys.readouterr()
    assert main(["cumulants", "--in", str(path)]) == 0
    assert capsys.readouterr() == plain
    # a byte that is not UTF-8 is still named by its offset in the file
    path.write_bytes(b"\xef\xbb\xbf" + "# family 1 left: \xe9\n".encode("latin-1"))
    assert main(["cumulants", "--in", str(path)]) == 2
    assert "at byte 20)" in capsys.readouterr().err


def test_product_and_check_bifree(tmp_path, rng):
    sig2 = two_faced(left=("a",), right=("c",), family=2)
    p1, p2 = tmp_path / "m1.dist", tmp_path / "m2.dist"
    p1.write_text(format_distribution(rand_dist(SIG, 3, rng)))
    p2.write_text(format_distribution(rand_dist(sig2, 3, rng)))
    joint = tmp_path / "j.dist"
    assert main(["product", "--in", str(p1), "--in", str(p2), "--degree", "3",
                 "--out", str(joint)]) == 0
    assert main(["check-bifree", "--in", str(joint)]) == 0


def test_check_bifree_detects_mismatch(tmp_path, capsys):
    from bifree.dist import Distribution
    from bifree.words import FaceSignature

    sigx = two_faced(left=("x",), family=1)
    sigy = two_faced(left=("x",), family=2)
    sig = FaceSignature(sigx.families + sigy.families)
    moments = {}
    for word in sig.words(4):
        c1 = sum(1 for l in word if l.family == 1)
        c2 = sum(1 for l in word if l.family == 2)
        ok1 = ONE if c1 in (0, 2) else ZERO
        ok2 = ONE if c2 in (0, 2) else ZERO
        moments[word] = ok1 * ok2
    path = tmp_path / "tensor.dist"
    path.write_text(format_distribution(from_words(Distribution, sig, 4, moments)))
    assert main(["check-bifree", "--in", str(path)]) == 1
    assert "expected 0 found 1" in capsys.readouterr().out


def test_convolve_add_neutral(tmp_path, mu_path):
    from bifree.dist import point_distribution

    zero = tmp_path / "zero.dist"
    zero.write_text(format_distribution(point_distribution(SIG, 4)))
    out = tmp_path / "sum.dist"
    assert main(["convolve-add", "--in", str(mu_path), "--in", str(zero),
                 "--out", str(out)]) == 0
    assert out.read_text() == mu_path.read_text()


def test_convolve_mul_neutral(tmp_path, mu_path):
    from bifree.dist import ones_distribution

    one = tmp_path / "one.dist"
    one.write_text(format_distribution(ones_distribution(SIG, 4)))
    out = tmp_path / "prod.dist"
    assert main(["convolve-mul", "--in", str(mu_path), "--in", str(one),
                 "--out", str(out)]) == 0
    assert out.read_text() == mu_path.read_text()


def test_gaussian_and_psd_check(tmp_path):
    cov = {(u, v): ZERO for u in SIG.letters() for v in SIG.letters()}
    cov[(A, A)] = ONE
    cov[(C, C)] = ONE
    cov_path = tmp_path / "c.cov"
    cov_path.write_text(format_covariance(CovarianceSpec(SIG, cov)))
    g = tmp_path / "g.dist"
    assert main(["gaussian", "--cov", str(cov_path), "--degree", "4", "--out", str(g)]) == 0
    assert main(["psd-check", "--in", str(g), "--degree", "4"]) == 0


def test_psd_check_indefinite_exit(tmp_path, capsys):
    sig = two_faced(left=("a",), family=1)
    a = Letter(1, LEFT, "a")
    cov_path = tmp_path / "c.cov"
    cov_path.write_text(format_covariance(CovarianceSpec(sig, {(a, a): qi(-1)})))
    g = tmp_path / "g.dist"
    assert main(["gaussian", "--cov", str(cov_path), "--degree", "4", "--out", str(g)]) == 0
    assert main(["psd-check", "--in", str(g), "--degree", "4"]) == 1
    assert "witness" in capsys.readouterr().out


def test_psd_check_refuses_a_non_hermitian_table(tmp_path, capsys):
    # With reversal as involution the Gram entries at (a, c) and (c, a) are
    # mu(ac) and mu(ca), which a hermitian form needs to be conjugate.
    for ac, ca in ((ONE, qi(2)), (qi(0, 1, 1), qi(0, 1, 1))):
        moments = {w: ZERO for w in SIG.words(2)}
        moments[()] = ONE
        moments[(A, C)] = ac
        moments[(C, A)] = ca
        mu = from_words(Distribution, SIG, 2, moments)
        with pytest.raises(DomainError, match="not hermitian") as refusal:
            gram_psd_check(mu, 2)
        assert format_word((A,)) in str(refusal.value)
        assert format_word((C,)) in str(refusal.value)
        path = tmp_path / "mu.dist"
        path.write_text(format_distribution(mu))
        assert main(["psd-check", "--in", str(path)]) == 2
        assert "not hermitian" in capsys.readouterr().err


def test_fock_compare(tmp_path):
    spec = VectorSpec(
        SIG, 1,
        {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)},
        {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)},
    )
    vec_path = tmp_path / "v.spec"
    vec_path.write_text(format_vector_spec(spec))
    out = tmp_path / "fock.dist"
    assert main(["fock", "--vectors", str(vec_path), "--degree", "4",
                 "--compare", "--out", str(out)]) == 0
    table = parse_distribution(out.read_text())
    assert table.moment((A, C, A, C)) == qi(2)


def test_fock_compare_reports_each_mismatch_and_still_writes_the_table(tmp_path, capsys,
                                                                       monkeypatch):
    spec = VectorSpec(SIG, 1, {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)},
                      {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)})
    vec_path = tmp_path / "v.spec"
    vec_path.write_text(format_vector_spec(spec))
    gaussian_dist = bifree.cli.gaussian_dist
    skewed = [(A, C), (C, A, A)]

    def skewed_gaussian(cov, degree):
        dist = gaussian_dist(cov, degree)
        ranked = list(dist.ranked)
        for word in skewed:
            ranked[SIG.rank(word)] += ONE
        return Distribution(dist.signature, degree, ranked)

    monkeypatch.setattr(bifree.cli, "gaussian_dist", skewed_gaussian)
    out = tmp_path / "fock.dist"
    assert main(["fock", "--vectors", str(vec_path), "--degree", "4",
                 "--compare", "--out", str(out)]) == 1
    fock = fock_distribution(spec, 4)
    assert out.read_text() == format_distribution(fock)
    assert capsys.readouterr() == ("", "".join(
        f"{format_word(w)} : fock {fock.moment(w)} gaussian {fock.moment(w) + ONE}\n"
        for w in skewed))


def test_fock_compare_reads_back_complex_vectors(tmp_path, rng):
    # complex coordinates are written "p/q + r/s i", blanks included
    sig = FaceSignature(tuple(FamilyFaces(f, ("a",), ("b",), True) for f in (1, 2)))
    keys = [(l.family, l.side, l.index) for l in sig.letters() if not l.star]
    h, h_star = ({k: tuple(rand_scalar(rng, True) for _ in range(2)) for k in keys}
                 for _ in range(2))
    vec_path = tmp_path / "v.spec"
    vec_path.write_text(format_vector_spec(VectorSpec(sig, 2, h, h_star)))
    assert " + " in vec_path.read_text() or " - " in vec_path.read_text()
    out = tmp_path / "fock.dist"
    assert main(["fock", "--vectors", str(vec_path), "--degree", "4",
                 "--compare", "--out", str(out)]) == 0
    assert any(not v.is_real for v in parse_distribution(out.read_text()).moments.values())


def test_fock_compare_input_error_writes_nothing(tmp_path, capsys):
    # the Gaussian needs degree >= 2; the Fock table must not be written first
    spec = VectorSpec(SIG, 1, {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)},
                      {(1, LEFT, "a"): (ONE,), (1, RIGHT, "c"): (ONE,)})
    vec_path = tmp_path / "v.spec"
    vec_path.write_text(format_vector_spec(spec))
    argv = ["fock", "--vectors", str(vec_path), "--degree", "1", "--compare"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: central limit distributions need degree >= 2\n")
    out = tmp_path / "fock.dist"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_group_example_subcommand(tmp_path):
    out = tmp_path / "g.dist"
    assert main(["group-example", "--orders", "2,3", "--degree", "3", "--out", str(out)]) == 0
    assert main(["check-bifree", "--in", str(out)]) == 0


def test_clt_subcommand(tmp_path):
    sig = two_faced(left=("a",), family=1)
    a = Letter(1, LEFT, "a")
    from bifree.dist import Distribution

    moments = {w: ZERO for w in sig.words(4)}
    moments[()] = ONE
    moments[(a, a)] = ONE
    moments[(a, a, a, a)] = qi(5)
    path = tmp_path / "mu.dist"
    path.write_text(format_distribution(from_words(Distribution, sig, 4, moments)))
    out = tmp_path / "report.csv"
    assert main(["clt", "--in", str(path), "--ns", "4,16,64", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "word,N,moment,gaussian,error,abs_error"
    assert any("3/4" in line for line in lines)


def test_product_output_is_deterministic(tmp_path, rng):
    sig2 = two_faced(left=("a",), right=("c",), family=2)
    p1, p2 = tmp_path / "m1.dist", tmp_path / "m2.dist"
    p1.write_text(format_distribution(rand_dist(SIG, 3, rng)))
    p2.write_text(format_distribution(rand_dist(sig2, 3, rng)))
    outs = []
    for name in ("a.dist", "b.dist"):
        out = tmp_path / name
        assert main(["product", "--in", str(p1), "--in", str(p2), "--degree", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_product_of_star_closed_and_plain_tables_is_refused(tmp_path, rng, capsys):
    # the joint table would hold starred letters of family 2 under the one
    # '# star: no' header, which no reader accepts
    sig2 = two_faced(left=("a",), right=("c",), family=2, star=True)
    p1, p2 = tmp_path / "m1.dist", tmp_path / "m2.dist"
    p1.write_text(format_distribution(rand_dist(SIG, 2, rng)))
    p2.write_text(format_distribution(rand_dist(sig2, 2, rng)))
    out = tmp_path / "j.dist"
    assert main(["product", "--in", str(p1), "--in", str(p2), "--degree", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: star-closed family 2 and family 1 without star closure cannot share "
        "the one '# star:' header of the text format\n")
    assert not out.exists()


def test_jobs_option_is_gone(mu_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["product", "--in", str(mu_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_input_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.dist"
    assert main(["cumulants", "--in", str(missing)]) == 2
    bad = tmp_path / "bad.dist"
    bad.write_text("# degree: 1\n() : 2\n")
    assert main(["cumulants", "--in", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["cumulants", "--in", "MU", "--degree", "0"], "--degree must be >= 1"),
    (["convolve-add", "--in", "MU"], "convolution takes exactly two --in tables"),
    (["group-example", "--orders", "2,x"], "--orders expects comma-separated integers"),
    (["clt", "--in", "MU", "--ns", "4,x"], "--ns expects comma-separated integers"),
])
def test_bad_options_exit_two_with_one_error_line(mu_path, capsys, argv, message):
    assert main([str(mu_path) if arg == "MU" else arg for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bad_scalar_in_covariance_or_vectors_names_its_line(tmp_path, capsys):
    cov_path = tmp_path / "c.cov"
    cov_path.write_text("# family 1 left: a\n# star: no\n1.a 1.a : 1/0\n")
    vec_path = tmp_path / "v.spec"
    vec_path.write_text("# family 1 left: a\n# dim: 1\n1.a : 1/0\n1.a* : 1\n")
    for argv in (["gaussian", "--cov", str(cov_path)], ["fock", "--vectors", str(vec_path)]):
        assert main(argv) == 2
        assert "line 3: zero denominator" in capsys.readouterr().err


COV_AND_VECTORS = {
    "gaussian": ("--cov", "# family 1 left: a\n# star: no\n{header}1.a 1.a : 1\n"),
    "fock": ("--vectors", "# family 1 left: a\n# dim: 1\n{header}1.a : 1\n1.a* : 1\n"),
}


@pytest.mark.parametrize("command", sorted(COV_AND_VECTORS))
def test_header_after_entries_is_rejected(tmp_path, capsys, command):
    flag, template = COV_AND_VECTORS[command]
    path = tmp_path / "input.txt"
    path.write_text(template.format(header="") + "# star: yes\n")
    assert main([command, flag, str(path)]) == 2
    line = len(path.read_text().splitlines())
    assert f"line {line}: header line after table entries" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(COV_AND_VECTORS))
def test_degree_header_is_refused(tmp_path, capsys, command):
    flag, template = COV_AND_VECTORS[command]
    path = tmp_path / "input.txt"
    path.write_text(template.format(header="# degree: 9\n"))
    assert main([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 3: " in err and "takes no '# degree:' header" in err


def test_repeated_dim_header_is_rejected(tmp_path, capsys):
    vec_path = tmp_path / "v.spec"
    vec_path.write_text("# family 1 left: a\n# dim: 1\n# dim: 2\n1.a : 1 0\n1.a* : 1 0\n")
    assert main(["fock", "--vectors", str(vec_path)]) == 2
    assert "line 3: duplicate dim header" in capsys.readouterr().err


def test_csv_format_output(tmp_path, mu_path):
    out = tmp_path / "mu.csv"
    assert main(["product", "--in", str(mu_path), "--degree", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "word,moment,decimal"
    assert lines[1].startswith('"()","1"')


def test_csv_outputs_double_an_embedded_quote(tmp_path):
    # a family id may hold '"'; both CSV writers quote their fields by RFC 4180
    sig = two_faced(left=("x",), family='a"b')
    x = Letter('a"b', LEFT, "x")
    moments = {w: ZERO for w in sig.words(2)}
    moments[()] = moments[(x, x)] = ONE
    path, product, report = tmp_path / "q.dist", tmp_path / "q.csv", tmp_path / "clt.csv"
    path.write_text(format_distribution(from_words(Distribution, sig, 2, moments)))
    assert main(["product", "--in", str(path), "--format", "csv", "--out", str(product)]) == 0
    assert main(["clt", "--in", str(path), "--ns", "4", "--out", str(report)]) == 0
    for out in (product, report):
        with open(out, newline="", encoding="utf-8") as f:
            words = [row[0] for row in csv.reader(f)][1:]
        assert 'a"b.x' in words and 'a"b.x a"b.x' in words


def test_empty_signature_at_a_huge_degree_returns_at_once(tmp_path, capsys):
    # no letters, so the only word is (); nothing may scale with the degree
    path = tmp_path / "empty.dist"
    path.write_text("# star: no\n# degree: 1000000000\n() : 1\n")
    assert main(["cumulants", "--in", str(path)]) == 0
    assert capsys.readouterr().out == "# star: no\n# degree: 1000000000\n# kind: cumulants\n"


def test_a_result_too_long_to_write_is_an_input_error(tmp_path, capsys):
    # a 3000-digit first moment parses, but kappa(1.a 1.a) = 1 - mu(1.a)^2
    # has 6000 digits, past the interpreter's int-to-text limit
    path, out = tmp_path / "huge.dist", tmp_path / "huge.cum"
    path.write_text("# family 1 left: a\n# star: no\n# degree: 2\n"
                    f"() : 1\n1.a : {'7' * 3000}\n1.a 1.a : 1\n")
    message = "error: too many digits to write: a result holds a 6000-digit number\n"
    assert main(["cumulants", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", message)
    assert main(["cumulants", "--in", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message)
    assert not out.exists()
    _assert_refused_keeps_the_file(["cumulants", "--in", str(path)], out, message, capsys)
    # the Gaussian of c(z, z) = c, zero elsewhere, on six letters: z z z z,
    # the last of 1555 words, is the only word of mu = 2 c^2, so the blocks
    # of lines before its own are formatted before it fails
    sig = two_faced(left=tuple("abcdez"), family=1)
    z = sig.letters()[-1]
    assert sig.word_count(4) - 1 > bifree.io._WRITE_BLOCK
    x = isqrt(10**4300 // 2)
    y = isqrt(2 * x * x) - x  # (x + y i)^2 has about equal real and imaginary parts
    re, im = 2 * (x * x - y * y), 4 * x * y
    # every part of 2 c^2 writes (4300 digits at most), its modulus takes 4301
    assert max(re, im) < 10**4300 and re * re + im * im >= 10**8600
    cov = tmp_path / "huge.cov"
    for c, fmt, digits in [(qi(int("7" * 3000)), "dist", 6001), (qi(x, 1, y, 1), "csv", 4301)]:
        cov.write_text(format_covariance(CovarianceSpec(
            sig, {pair: c if pair == (z, z) else ZERO
                  for pair in itertools.product(sig.letters(), repeat=2)})))
        argv = ["gaussian", "--cov", str(cov), "--degree", "4", "--format", fmt]
        message = f"error: too many digits to write: a result holds a {digits}-digit number\n"
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()
        _assert_refused_keeps_the_file(argv, out, message, capsys)
    # the complex table's scalars fit as text: only its CSV modulus does not
    assert main(["gaussian", "--cov", str(cov), "--degree", "4", "--out", str(out)]) == 0


def _assert_refused_keeps_the_file(argv, out, message, capsys):
    out.write_bytes(b"kept\n")
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message)
    assert out.read_bytes() == b"kept\n"
    out.unlink()


def test_group_example_writes_the_text_of_format_distribution(tmp_path, capsys):
    text = format_distribution(group_example_dist([2, 3], 6))
    assert text.count("\n") > bifree.io._WRITE_BLOCK  # 5461 words
    out = tmp_path / "g.dist"
    argv = ["group-example", "--orders", "2,3", "--degree", "6"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    assert main(argv) == 0
    assert capsys.readouterr() == (text, "")


def test_the_cli_formats_tables_through_the_public_writers(tmp_path, mu_path, monkeypatch):
    # perfbench/spans.py times the io.format layer by wrapping these two
    # names in bifree.cli: a table formatted any other way would read 0 there
    calls = Counter()

    def counting(name):
        original = getattr(bifree.cli, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for name in ("format_distribution", "format_cumulant_table"):
        monkeypatch.setattr(bifree.cli, name, counting(name))
    out = tmp_path / "out.txt"
    assert main(["group-example", "--orders", "2,3", "--degree", "3", "--out", str(out)]) == 0
    assert calls == {"format_distribution": 1}
    assert out.read_text() == format_distribution(group_example_dist([2, 3], 3))
    assert main(["cumulants", "--in", str(mu_path), "--out", str(out)]) == 0
    assert calls == {"format_distribution": 1, "format_cumulant_table": 1}


VEC_HEAD = "# family 1 left: a\n# star: no\n# dim: {dim}\n"


@pytest.mark.parametrize("command, flag, text, message", [
    ("fock", "--vectors", VEC_HEAD.format(dim=1) + "1.a : 1 +\n1.a* : 1\n",
     "line 4: malformed scalar '+'"),
    ("fock", "--vectors", VEC_HEAD.format(dim=1) + "1.a : 1 x\n1.a* : 1\n",
     "line 4: malformed scalar 'x'"),
    ("fock", "--vectors", VEC_HEAD.format(dim=2) + "1.a : 1 1/0\n1.a* : 1 0\n",
     "line 4: zero denominator in scalar '1/0'"),
    ("fock", "--vectors", VEC_HEAD.format(dim=2) + "1.a : 1 0\n1.a* : 0/1 + 1/1 i\n",
     "line 5: expected 2 coordinates"),
    ("fock", "--vectors", VEC_HEAD.format(dim=1) + "1.a 1.a : 1\n1.a* : 1\n",
     "line 4: expected 'LETTER[*] : v1 v2 ...'"),
    ("fock", "--vectors", VEC_HEAD.format(dim=1) + "1.a 1\n1.a* : 1\n",
     "line 4: expected 'LETTER[*] : v1 v2 ...'"),
    ("fock", "--vectors", VEC_HEAD.format(dim=1), "empty vectors file"),
    ("gaussian", "--cov", "# family 1 left: a\n# star: no\n1.a : 1\n",
     "covariance entry 1.a is not a pair of letters"),
    ("gaussian", "--cov", "# family 1 left: a\n# star: no\n", "empty covariance file"),
    ("moments", "--in", "# family 1 left: a\n# star: no\n# degree: 1\n1.a : 1\n",
     "expected a cumulants table, got kind None"),
    ("cumulants", "--in", "# family 1 left: a\n# family 1 left: b\n# star: no\n# degree: 1\n"
     "() : 1\n1.a : 0\n", "line 2: duplicate left face for family 1"),
    ("cumulants", "--in", "# family 1 left: a\n# star: no\n# star: yes\n# degree: 1\n"
     "() : 1\n1.a : 0\n", "line 3: duplicate star header"),
    ("moments", "--in", "# family 1 left: a\n# star: no\n# degree: 1\n# kind: cumulants\n"
     "# kind: cumulants\n1.a : 0\n", "line 5: duplicate kind header"),
    ("fock", "--vectors", VEC_HEAD.format(dim=1) + "1.a : 1\n1.a* : 1\n1.a : 2\n",
     "line 6: duplicate vector row"),
    ("cumulants", "--in", "# family 1 left: a\n# star: no\n# degree: 1\n() : 1\n"
     f"1.a : {'7' * 5000}\n", "line 5: too many digits in scalar"),
    ("check-bifree", "--in", "# family 1 left: a\n# family 2 left:\n# star: no\n# degree: 1\n"
     "() : 1\n1.a : 0\n", "line 2: family 2 has no index in either face"),
    ("cumulants", "--in", "# family 1 left: a a\n# star: no\n# degree: 1\n() : 1\n1.a : 0\n",
     "line 1: duplicate index in family 1"),
    ("cumulants", "--in", "# family 1 left: a\n# family 1 right: a\n# star: no\n# degree: 1\n"
     "() : 1\n1.a : 0\n", "line 2: left and right faces of family 1 must be disjoint"),
])
def test_malformed_input_is_refused_with_exit_two(tmp_path, capsys, command, flag, text,
                                                  message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([command, flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
