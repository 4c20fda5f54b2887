import pytest
from util import rand_dist

from bifree.cli import main
from bifree.io import (format_covariance, format_distribution, format_vector_spec,
                       parse_distribution)
from bifree.models import CovarianceSpec, VectorSpec
from bifree.scalars import ONE, ZERO, qi
from bifree.words import LEFT, RIGHT, Letter, two_faced

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
    path.write_text(format_distribution(Distribution(sig, 4, moments)))
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
    path.write_text(format_distribution(Distribution(sig, 4, moments)))
    out = tmp_path / "report.csv"
    assert main(["clt", "--in", str(path), "--ns", "4,16,64", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "word,N,moment,gaussian,error,abs_error"
    assert any("3/4" in line for line in lines)


def test_jobs_flag_is_deterministic(tmp_path, rng):
    sig2 = two_faced(left=("a",), right=("c",), family=2)
    p1, p2 = tmp_path / "m1.dist", tmp_path / "m2.dist"
    p1.write_text(format_distribution(rand_dist(SIG, 3, rng)))
    p2.write_text(format_distribution(rand_dist(sig2, 3, rng)))
    outs = []
    for jobs, name in ((1, "a.dist"), (4, "b.dist")):
        out = tmp_path / name
        assert main(["product", "--in", str(p1), "--in", str(p2), "--degree", "3",
                     "--jobs", str(jobs), "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_input_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "nope.dist"
    assert main(["cumulants", "--in", str(missing)]) == 2
    bad = tmp_path / "bad.dist"
    bad.write_text("# degree: 1\n() : 2\n")
    assert main(["cumulants", "--in", str(bad)]) == 2
    capsys.readouterr()


def test_bad_scalar_in_covariance_or_vectors_names_its_line(tmp_path, capsys):
    cov_path = tmp_path / "c.cov"
    cov_path.write_text("# family 1 left: a\n# star: no\n1.a 1.a : 1/0\n")
    vec_path = tmp_path / "v.spec"
    vec_path.write_text("# family 1 left: a\n# dim: 1\n1.a : 1/0\n1.a* : 1\n")
    for argv in (["gaussian", "--cov", str(cov_path)], ["fock", "--vectors", str(vec_path)]):
        assert main(argv) == 2
        assert "line 3: zero denominator" in capsys.readouterr().err


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
