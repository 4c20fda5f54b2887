"""Command-line front end.

Exit status: 0 on success, 1 on a verification failure (bi-freeness
mismatch, indefinite positivity check, Fock/Gaussian comparison mismatch,
central-limit decay violation), 2 on an input error.  Outputs are
deterministic: identical inputs give byte-identical files for any --jobs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clt import clt_report
from .convolve import boxplus2, boxtimes2
from .cumulant import cumulants_from_moments, moments_from_cumulants
from .dist import Distribution
from .engine import bifree_product, check_bifree
from .errors import BifreeError
from .io import (format_cumulant_table, format_distribution, parse_covariance,
                 parse_cumulant_table, parse_distribution, parse_vector_spec)
from .models import (covariance_from_vectors, fock_distribution, gaussian_dist,
                     gram_psd_check, group_example_dist)
from .scalars import decimal_magnitude, format_scalar
from .words import format_word


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise BifreeError(f"cannot read {path}: {exc.strerror}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _dist_output(dist: Distribution, fmt: str) -> str:
    if fmt == "dist":
        return format_distribution(dist)
    lines = ["word,moment,decimal"]
    for word in dist.signature.words(dist.degree):
        value = dist.moments[word]
        sign = "-" if value.is_real and value.re < 0 else ""
        lines.append(
            f'"{format_word(word)}","{format_scalar(value)}",{sign}{decimal_magnitude(value)}'
        )
    return "\n".join(lines) + "\n"


def _add_common(parser, out=True, degree=True, jobs=False, fmt=False):
    if out:
        parser.add_argument("--out", help="output path (default: stdout)")
    if degree:
        parser.add_argument("--degree", type=int, required=False)
    if jobs:
        parser.add_argument("--jobs", type=int, default=1)
    if fmt:
        parser.add_argument("--format", choices=("dist", "csv"), default="dist")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="Exact moments, cumulants and convolutions of two-faced families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="bi-free product of marginal distributions")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    _add_common(p, jobs=True, fmt=True)

    p = sub.add_parser("check-bifree", help="test a joint distribution for bi-freeness")
    p.add_argument("--in", dest="input", required=True)
    _add_common(p, out=False, jobs=True)

    p = sub.add_parser("convolve-add", help="additive bi-free convolution")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    _add_common(p, jobs=True, fmt=True)

    p = sub.add_parser("convolve-mul", help="multiplicative bi-free convolution")
    p.add_argument("--in", dest="inputs", action="append", required=True)
    _add_common(p, jobs=True, fmt=True)

    p = sub.add_parser("cumulants", help="moment table to cumulant table")
    p.add_argument("--in", dest="input", required=True)
    _add_common(p)

    p = sub.add_parser("moments", help="cumulant table to moment table")
    p.add_argument("--in", dest="input", required=True)
    _add_common(p, fmt=True)

    p = sub.add_parser("gaussian", help="central-limit distribution from covariance data")
    p.add_argument("--cov", required=True)
    _add_common(p, fmt=True)

    p = sub.add_parser("fock", help="tabulate a Fock-space realization")
    p.add_argument("--vectors", required=True)
    p.add_argument("--compare", action="store_true",
                   help="verify the tabulation equals the Gaussian of its covariance")
    _add_common(p, fmt=True)

    p = sub.add_parser("group-example", help="left/right regular representation example")
    p.add_argument("--orders", required=True, help="comma-separated cyclic orders, e.g. 2,3")
    _add_common(p, fmt=True)

    p = sub.add_parser("psd-check", help="exact positivity of the Gram form")
    p.add_argument("--in", dest="input", required=True)
    _add_common(p, out=False)

    p = sub.add_parser("clt", help="central limit convergence report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--ns", required=True, help="comma-separated perfect squares, e.g. 4,16,64")
    _add_common(p)

    return parser


def _degree_or(args, fallback: int) -> int:
    degree = args.degree if args.degree is not None else fallback
    if degree < 1:
        raise BifreeError("--degree must be >= 1")
    return degree


def _run(args) -> int:
    if args.command == "product":
        dists = [parse_distribution(_read(p)) for p in args.inputs]
        degree = _degree_or(args, min(d.degree for d in dists))
        joint = bifree_product(dists, degree, jobs=args.jobs)
        _write(args.out, _dist_output(joint, args.format))
        return 0

    if args.command == "check-bifree":
        joint = parse_distribution(_read(args.input))
        degree = _degree_or(args, joint.degree)
        report = check_bifree(joint, degree, jobs=args.jobs)
        if report.ok:
            print(f"bi-free up to degree {degree}")
            return 0
        for line in report.lines():
            print(line)
        return 1

    if args.command in ("convolve-add", "convolve-mul"):
        dists = [parse_distribution(_read(p)) for p in args.inputs]
        if len(dists) != 2:
            raise BifreeError("convolution takes exactly two --in tables")
        degree = _degree_or(args, min(d.degree for d in dists))
        op = boxplus2 if args.command == "convolve-add" else boxtimes2
        _write(args.out, _dist_output(op(*dists, degree, jobs=args.jobs), args.format))
        return 0

    if args.command == "cumulants":
        mu = parse_distribution(_read(args.input))
        degree = _degree_or(args, mu.degree)
        _write(args.out, format_cumulant_table(cumulants_from_moments(mu, degree)))
        return 0

    if args.command == "moments":
        table = parse_cumulant_table(_read(args.input))
        degree = _degree_or(args, table.degree)
        _write(args.out, _dist_output(moments_from_cumulants(table, degree), args.format))
        return 0

    if args.command == "gaussian":
        cov = parse_covariance(_read(args.cov))
        degree = _degree_or(args, 2)
        _write(args.out, _dist_output(gaussian_dist(cov, degree), args.format))
        return 0

    if args.command == "fock":
        spec = parse_vector_spec(_read(args.vectors))
        degree = _degree_or(args, 2)
        table = fock_distribution(spec, degree)
        _write(args.out, _dist_output(table, args.format))
        if args.compare:
            expected = gaussian_dist(covariance_from_vectors(spec), degree)
            mismatches = [
                w for w in spec.signature.words(degree)
                if table.moments[w] != expected.moments[w]
            ]
            if mismatches:
                for w in mismatches:
                    print(
                        f"{format_word(w)} : fock {table.moments[w]} "
                        f"gaussian {expected.moments[w]}",
                        file=sys.stderr,
                    )
                return 1
        return 0

    if args.command == "group-example":
        try:
            orders = [int(tok) for tok in args.orders.split(",") if tok]
        except ValueError:
            raise BifreeError("--orders expects comma-separated integers") from None
        degree = _degree_or(args, 4)
        _write(args.out, _dist_output(group_example_dist(orders, degree), args.format))
        return 0

    if args.command == "psd-check":
        mu = parse_distribution(_read(args.input))
        degree = _degree_or(args, mu.degree)
        result = gram_psd_check(mu, degree)
        if result.positive:
            print("positive")
            return 0
        print("indefinite; witness polynomial:")
        for line in result.witness_lines():
            print(line)
        return 1

    if args.command == "clt":
        mu = parse_distribution(_read(args.input))
        try:
            ns = [int(tok) for tok in args.ns.split(",") if tok]
        except ValueError:
            raise BifreeError("--ns expects comma-separated integers") from None
        degree = _degree_or(args, mu.degree)
        report = clt_report(mu, ns, degree)
        _write(args.out, report.to_csv())
        return 0 if report.decay_ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except BifreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
