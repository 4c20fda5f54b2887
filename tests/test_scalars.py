from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bifree.errors import BifreeError, ParseError
from bifree.scalars import (ONE, ZERO, Dilation, GaussianRational, _new, decimal_magnitude,
                            format_scalar, parse_scalar, qi)

rationals = st.fractions(max_denominator=50)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_constants():
    assert not ZERO
    assert ONE
    assert ONE + qi(-1) == ZERO
    assert ONE == 1 and ZERO == 0
    assert len({ONE, 1}) == 1 and len({qi(1, 2), Fraction(1, 2)}) == 1


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@given(scalars)
def test_conjugation(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0
    assert norm.re >= 0


@given(scalars)
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_parse_forms():
    assert parse_scalar("1") == ONE
    assert parse_scalar("-3/6") == qi(-1, 2)
    assert parse_scalar("0/1 + 1/3 i") == qi(0, 1, 1, 3)
    assert parse_scalar("1/2 - 2/3 i") == qi(1, 2, -2, 3)
    assert parse_scalar("5 i") == qi(0, 1, 5)


@pytest.mark.parametrize("bad", ["", "one", "1/0", "1//2", "1 + i", "2 + 3"])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_integer_interop():
    assert qi(1, 2) * 2 == ONE
    assert 3 * qi(1, 3) == ONE
    assert qi(3, 4) / 3 == qi(1, 4)
    assert qi(2) ** 5 == qi(32)
    assert qi(1, 2, 1, 2) ** 2 == qi(0, 1, 1, 2)


def test_integer_components_stay_integers():
    # Gaussian integers with int components, as the dilated engine uses them
    a, b, r, zero = _new(3, -2), _new(-5, 7), _new(4, 0), _new(0, 0)
    for v in (a + b, a - b, a * b, -a, r * r, r * a, a * r, r + r, r - a, -r,
              r * zero, zero * zero):
        assert type(v.re) is int and type(v.im) is int
    assert r * r == qi(16) and a * b == qi(-1, 1, 31, 1)


real_sets = st.lists(st.builds(GaussianRational, rationals), min_size=1, max_size=6)
complex_sets = st.lists(scalars, min_size=1, max_size=6).filter(
    lambda values: any(v.im for v in values))


@given(st.one_of(real_sets, complex_sets), st.integers(0, 6))
@example([qi(1, 2)], 0)
@example([qi(3, 1, 1, 2)], 0)
def test_dilation_round_trips_through_the_integers(values, exponent):
    dil = Dilation(values)
    for v in values:
        if exponent == 0 and (v.re.denominator > 1 or v.im.denominator > 1):
            # D^0 = 1 cannot clear a denominator
            with pytest.raises(ArithmeticError):
                dil.dilated(v, exponent)
            continue
        d = dil.dilated(v, exponent)
        if dil.real:
            assert type(d) is int
        else:
            assert type(d) is GaussianRational
            assert type(d.re) is int and type(d.im) is int
        assert d == v * dil.dilation**exponent
        assert dil.scalar(d, exponent) == v


@given(rationals)
def test_real_scalars_hash_as_their_real_part(re_part):
    # a real scalar equals its real part, so it must hash as that part
    real = GaussianRational(re_part)
    assert real == re_part and hash(real) == hash(re_part)
    assert len({real, re_part}) == 1


def test_decimal_magnitude():
    assert decimal_magnitude(qi(1, 4)) == "0.250000000000"
    assert decimal_magnitude(qi(-3, 2)) == "1.500000000000"
    assert decimal_magnitude(qi(0, 1, 3, 4)) == "0.750000000000"
    # |3/5 + 4/5 i| = 1
    assert decimal_magnitude(qi(3, 5, 4, 5)) == "1.000000000000"


def test_a_number_too_long_to_write_is_refused_with_its_digit_count():
    # 4300 digits is the interpreter's int-to-text limit: the longest number
    # that formats is the longest that parses back
    longest = qi(10**4300 - 1)
    assert parse_scalar(format_scalar(longest)) == longest
    for value, digits in ((qi(10**4300), 4301), (qi(-7 * (10**5000 - 1) // 9), 5000),
                          (qi(1, 3, 2, 10**4400 + 1), 4401)):
        with pytest.raises(BifreeError, match=f"^too many digits to write: "
                                              f"a result holds a {digits}-digit number$"):
            format_scalar(value)
    with pytest.raises(BifreeError, match="a 4301-digit number"):
        decimal_magnitude(qi(10**4300 + 1, 1))
