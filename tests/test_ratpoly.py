"""Exact polynomial kernel: construction, ring laws, division, serialization."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laguerreflow
from laguerreflow import Poly, parse_poly_literal, poly_literal, to_rational
from laguerreflow.ratpoly import LITERAL_DEGREE, _taylor_shift
from reference import derivative, fraction_shift, gcd, monic, poly_divmod, square_free

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(bool)
root_pairs = st.lists(st.tuples(rationals, st.integers(min_value=1, max_value=4)), max_size=4)


def shifted(f: Poly, c: Fraction) -> Poly:
    """f(x + c) from ``_taylor_shift``: with f = nums / d and c = u/v, N_j / (d * v^n)."""
    nums, d = f.nums, f.den
    u, v = Fraction(c).as_integer_ratio()
    return Poly([Fraction(n, d * v ** (len(nums) - 1)) for n in _taylor_shift(nums, u, v)])


def test_to_rational_coercion():
    assert to_rational(3) == Fraction(3)
    assert to_rational("3/4") == Fraction(3, 4)
    assert to_rational("-2") == Fraction(-2)
    assert to_rational(Fraction(1, 7)) == Fraction(1, 7)
    with pytest.raises(TypeError):
        to_rational(0.5)
    with pytest.raises(ValueError):
        to_rational("one half")


def test_literal_size_bound():
    too_long = "1" * 4301
    for text in ("1e4301", "1e-4301", "1E+0004301", too_long, "1/" + too_long[1:]):
        with pytest.raises(ValueError, match="bound of 4300 digits"):
            to_rational(text)
    assert to_rational("1e4300") == 10**4300
    assert to_rational("-25e-4300") == Fraction(-25, 10**4300)
    assert to_rational("1" * 4299 + "/7") == Fraction(int("1" * 4299), 7)


def test_literal_past_a_lowered_int_limit_names_the_limit():
    # Inside the 4300-digit bound and the grammar, but past a caller's lower limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in ("1" * 700, "1/" + "3" * 641, "0." + "5" * 700, "1e" + "0" * 700 + "5"):
            with pytest.raises(ValueError, match="int-to-str limit of 640 digits"):
                to_rational(text)
        assert to_rational("1" * 640 + "/" + "7" * 640) == Fraction(int("1" * 640), int("7" * 640))
        with pytest.raises(ValueError, match="malformed"):
            to_rational("1" * 700 + "x")
    finally:
        sys.set_int_max_str_digits(limit)
    # 0 means no limit.
    sys.set_int_max_str_digits(0)
    try:
        assert to_rational("1" * 4300) == int("1" * 4300)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "text, value",
    [
        ("3/4", Fraction(3, 4)),
        ("-2", Fraction(-2)),
        ("0.5", Fraction(1, 2)),
        ("+3", Fraction(3)),
        (" 3/4 ", Fraction(3, 4)),
        (".5", Fraction(1, 2)),
        ("5.", Fraction(5)),
        ("1e5", Fraction(10**5)),
        ("+.5E-3", Fraction(1, 2000)),
        ("-25e-4300", Fraction(-25, 10**4300)),
        ("1E+0004300", Fraction(10**4300)),
        ("\u0661\u0662", Fraction(12)),  # Unicode decimal digits
        ("\u0661e\u0662", Fraction(100)),
        # Fraction reads "_" from Python 3.11 and inner spaces from 3.12;
        # the package refuses both on every version.
        ("1_000", None),
        ("1_0/3", None),
        ("1.2_5", None),
        ("1e1_0", None),
        ("1_0e4_301", None),
        ("2 / 3", None),
        ("2/ 3", None),
        ("1 2", None),
        ("1/0", None),
        ("1/-2", None),
        ("1.5/2", None),
        (".", None),
        ("", None),
        ("e5", None),
        ("1e", None),
        ("0x10", None),
        ("inf", None),
        ("nan", None),
    ],
)
def test_rational_grammar(text, value):
    if value is None:
        with pytest.raises(ValueError, match="malformed rational literal"):
            to_rational(text)
    else:
        assert to_rational(text) == value


def test_huge_exponent_is_refused_without_computing_it():
    code = (
        "from laguerreflow import to_rational\n"
        "try:\n"
        "    to_rational('1e1000000000')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(laguerreflow.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0 and "bound of 4300 digits" in done.stdout


def test_construction_normalizes_trailing_zeros():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert not Poly([0, 0])
    assert not Poly([])
    assert not Poly()
    assert Poly([0, 1])


def test_degree_and_leading():
    f = Poly([1, 0, Fraction(1, 2)])
    assert f.degree() == 2
    assert f.leading() == Fraction(1, 2)
    assert f.coeff(0) == 1 and f.coeff(1) == 0 and f.coeff(5) == 0
    with pytest.raises(ValueError):
        Poly().degree()
    with pytest.raises(ValueError):
        Poly().leading()


def test_constructors():
    assert Poly((0, 1, 0, 0)) == Poly([0, 1])
    assert Poly(iter([Fraction(1)])) == Poly([1])
    assert Poly([0, 0, 0, "2"]) == Poly([0, 0, 0, 2])
    assert Poly(["5/3"]) == Poly([Fraction(5, 3)])


def test_from_roots():
    f = Poly.from_roots([(2, 2)])
    assert f == Poly([4, -4, 1])
    g = Poly.from_roots([(1, 1), (-1, 1)], lead=3)
    assert g == Poly([-3, 0, 3])
    assert Poly.from_roots([], lead=7) == Poly([7])
    with pytest.raises(ValueError):
        Poly.from_roots([(1, 0)])
    with pytest.raises(ValueError):
        Poly.from_roots([(1, 1)], lead=0)


@settings(max_examples=50)
@given(root_pairs, rationals.filter(bool))
@example([(Fraction(-5, 3), 2), (Fraction(7, 4), 4), (Fraction(1, 6), 1)], Fraction(-3, 8))
def test_from_roots_is_the_product_of_linear_factors(roots, lead):
    expected = Poly([lead])
    for root, mult in roots:
        for _ in range(mult):
            expected = expected * Poly((-root, 1))
    assert Poly.from_roots(roots, lead=lead) == expected


def test_arithmetic_pins():
    f = Poly([1, 1])
    assert f * f == Poly([1, 2, 1])
    assert f + Poly([0, -1]) == Poly([1])
    assert f - f == Poly()
    assert 2 * f == Poly([2, 2])
    assert f * Fraction(1, 2) == Poly([Fraction(1, 2), Fraction(1, 2)])


def test_evaluation():
    f = Poly([2, 0, 1])
    assert f(0) == 2
    assert f(Fraction(1, 2)) == Fraction(9, 4)
    assert Poly()(5) == 0


def test_derivative():
    assert derivative(Poly([5, 3, 0, 2])) == Poly([3, 0, 6])
    assert not derivative(Poly([4]))
    assert not derivative(Poly())


def test_shift():
    f = Poly([0, 0, 1])
    assert shifted(f, 1) == Poly([1, 2, 1])


def test_divmod_exact():
    f = Poly([-2, 0, 1]) * Poly([3, 1]) + Poly([7])
    q, r = poly_divmod(f, Poly([3, 1]))
    assert q * Poly([3, 1]) + r == f
    assert r.degree() == 0
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, Poly())


def test_gcd():
    f = Poly.from_roots([(1, 1), (2, 1)])
    g = Poly.from_roots([(1, 1), (3, 1)])
    assert gcd(f, g) == Poly([-1, 1])
    assert gcd(f, Poly()) == monic(f)
    assert gcd(Poly([2]), f) == Poly([1])


def test_primitive():
    for f, pair in (
        (Poly([Fraction(-1, 3), Fraction(1, 2)]), ((-2, 3), 6)),
        (Poly([4, -2]), ((4, -2), 1)),
        (Poly([0, Fraction(-4, 5), Fraction(-2, 15)]), ((0, -12, -2), 15)),
        (Poly(), ((), 1)),
    ):
        assert (f.nums, f.den) == pair


def test_square_free():
    f = Poly.from_roots([(1, 3), (2, 1)], lead=5)
    assert square_free(f) == Poly.from_roots([(1, 1), (2, 1)])
    assert square_free(Poly([9])) == Poly([1])


def test_str():
    assert str(Poly([10, -8, 1])) == "x^2 - 8*x + 10"
    assert str(Poly()) == "0"
    assert str(Poly([Fraction(1, 2)])) == "1/2"
    assert str(Poly([1, 0, 1])) == "x^2 + 1"


def test_poly_literal_roundtrip():
    f = Poly([Fraction(10), Fraction(-8), Fraction(1)])
    lit = poly_literal(f)
    assert lit == {"coeffs": ["10", "-8", "1"]}
    assert parse_poly_literal(lit) == f
    assert parse_poly_literal(json.dumps(lit)) == f


def test_parse_roots_literal():
    f = parse_poly_literal('{"roots":[["2",2]],"lead":"1"}')
    assert f == Poly([4, -4, 1])
    g = parse_poly_literal({"roots": [["1/2", 1]], "lead": "-2"})
    assert g == Poly([1, -2])


def test_parse_literal_errors():
    with pytest.raises(ValueError):
        parse_poly_literal('{"coeffs":["1"],"roots":[["1",1]]}')
    with pytest.raises(ValueError):
        parse_poly_literal('{"roots":[["1",0]]}')
    with pytest.raises(ValueError):
        parse_poly_literal('{"roots":[["1",1]],"lead":"0"}')
    with pytest.raises(ValueError):
        parse_poly_literal('{"wrong":[]}')
    with pytest.raises(ValueError):
        parse_poly_literal('{"coeffs":["x"]}')
    # JSON true/false would pass as the ints 1 and 0, and floats carry rounding error.
    for bad in (
        '{"coeffs":[true,1]}',
        '{"coeffs":["1",false]}',
        '{"coeffs":[0.5,1]}',
        '{"coeffs":[null]}',
        '{"roots":[[true,1]]}',
        '{"roots":[["1",true]]}',
        '{"roots":[["1",1]],"lead":true}',
        '{"roots":[["1",1]],"lead":-2.0}',
        # Not an object, not lists, not a pair.
        "[1]",
        '{"coeffs":"1"}',
        '{"roots":"1"}',
        '{"roots":[["1",1,1]]}',
    ):
        with pytest.raises(ValueError):
            parse_poly_literal(bad)
    # Nested past the JSON decoder's recursion limit on every supported Python
    # (3.11 decodes at most 994 levels, 3.13 at most 9,998).
    with pytest.raises(ValueError, match="nests too deeply"):
        parse_poly_literal('{"coeffs":' + "[" * 100_000 + "]" * 100_000 + "}")


def test_each_form_reads_only_its_keys():
    for literal, form, unread in (
        ('{"roots":[["2",1]],"Lead":"5"}', "roots", "['Lead']"),
        ('{"coeffs":["1","1"],"lead":"5"}', "coeffs", "['lead']"),
        ('{"coeffs":["1"],"roots":[["1",1]]}', "coeffs", "['roots']"),
        ('{"roots":[["1",1]],"coeffs":["1"]}', "coeffs", "['roots']"),
        ('{"coefs":["1"],"coeffs":["1"]}', "coeffs", "['coefs']"),
        ('{"roots":[["1",1]],"lead":"2","root":[]}', "roots", "['root']"),
    ):
        message = f"polynomial literal in '{form}' form does not read {unread}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_poly_literal(literal)
    with pytest.raises(ValueError, match="needs a 'coeffs' or 'roots' key"):
        parse_poly_literal('{"lead":"1"}')


def test_literal_degree_bound():
    at_bound = {"coeffs": ["1"] * (LITERAL_DEGREE + 1)}
    assert parse_poly_literal(at_bound).degree() == LITERAL_DEGREE
    for bad in (
        {"coeffs": ["1"] * (LITERAL_DEGREE + 2)},
        {"roots": [["1/3", LITERAL_DEGREE - 1], ["-2", 2]]},
        '{"roots":[["1",1000000000]]}',
    ):
        with pytest.raises(ValueError, match=f"degree bound of {LITERAL_DEGREE}"):
            parse_poly_literal(bad)


@given(polys, polys)
def test_add_commutes(f, g):
    assert f + g == g + f


@given(polys, polys, polys)
def test_mul_distributes(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@given(polys, polys, rationals)
def test_eval_is_ring_homomorphism(f, g, c):
    assert (f + g)(c) == f(c) + g(c)
    assert (f * g)(c) == f(c) * g(c)


@given(nonzero_polys, nonzero_polys)
def test_degree_of_product_adds(f, g):
    assert (f * g).degree() == f.degree() + g.degree()


@given(polys, polys)
def test_derivative_product_rule(f, g):
    assert derivative(f * g) == derivative(f) * g + f * derivative(g)


@given(polys, rationals, rationals)
def test_shift_roundtrip_and_eval(f, c, x):
    assert shifted(shifted(f, c), -c) == f
    assert shifted(f, c)(x) == f(x + c)


digits30 = st.integers(min_value=-(10**30), max_value=10**30)
wide_rationals = st.builds(Fraction, digits30, st.integers(min_value=1, max_value=10**30))


@settings(max_examples=200)
@given(
    st.one_of(polys, st.lists(wide_rationals, max_size=7).map(Poly)),
    st.one_of(rationals, wide_rationals),
)
@example(Poly(), Fraction(10**30 - 1, 3**60))
@example(Poly([Fraction(-7, 3)]), Fraction(-(10**30), 10**30 - 1))
@example(Poly([Fraction(5, 2), Fraction(-3)]), Fraction(0))
def test_integer_shift_matches_fraction_taylor_shift(f, c):
    # Zero polynomials, constants and offsets of both signs with 30-digit parts.
    assert shifted(f, c) == fraction_shift(f, c)
    assert shifted(f, -c) == fraction_shift(f, -c)


@given(polys, nonzero_polys)
def test_division_identity(f, g):
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert not r or r.degree() < g.degree()


@settings(max_examples=50)
@given(nonzero_polys)
def test_primitive_is_integral_and_coprime(f):
    nums, d = f.nums, f.den
    # d is the least common denominator iff no prime divides d and every numerator.
    assert d > 0 and math.gcd(d, *nums) == 1
    assert Poly(Fraction(n, d) for n in nums) == f


@given(st.one_of(polys, st.lists(wide_rationals, max_size=7).map(Poly)))
@example(Poly())
@example(Poly([Fraction(1, 2**61 - 1), 0, Fraction(-5, 6), Fraction(7, 4)]))
def test_numerators_round_trip(f):
    # The basis sum and the heat flow both start from these fields, so the two
    # paths of the transform cannot catch a fault in them.
    nums, d = f.nums, f.den
    assert all(type(c) is int for c in nums) and type(d) is int
    assert d == math.lcm(*(c.denominator for c in f.coeffs))
    assert Poly([Fraction(c, d) for c in nums]) == f
    assert len(nums) == len(f.coeffs)
    if not f:
        assert (nums, d) == ((), 1)


small_ints = st.integers(min_value=-64, max_value=64)
# Denominators of both signs, small, 30-digit, and 60-digit (the product of two).
nonzero_dens = st.one_of(
    small_ints, digits30, st.integers(min_value=-(10**60), max_value=10**60)
).filter(bool)


@settings(max_examples=200)
@given(st.lists(st.one_of(small_ints, digits30), max_size=7), nonzero_dens)
@example([0, 0], 7)
@example([0, 0], -(10**30))
@example([6, -4, 2, 0], -10)
@example([3, 0, -9], 3**60)
def test_integer_constructor_matches_the_literal_one(nums, den):
    f, g = Poly._from_ints(nums, den), Poly([Fraction(c, den) for c in nums])
    assert f == g and hash(f) == hash(g)
    assert f.coeffs == g.coeffs and (f.nums, f.den) == (g.nums, g.den)
    assert str(f) == str(g) and poly_literal(f) == poly_literal(g)
    assert bool(f) == bool(g) and (not f or f.degree() == g.degree())
    # The stored pair: den > 0, lowest terms, a nonzero top numerator, plain ints.
    assert f.den > 0 and math.gcd(f.den, *f.nums) == 1 and (not f.nums or f.nums[-1])
    assert type(f.nums) is tuple and all(type(c) is int for c in (f.den, *f.nums))
    if not any(nums):
        assert (f.nums, f.den) == ((), 1)


def test_integer_constructor_normalizes_sign_and_content():
    f = Poly._from_ints([6, -4, 2, 0], -10)
    assert (f.nums, f.den) == ((-3, 2, -1), 5)
    assert f == Poly([Fraction(-3, 5), Fraction(2, 5), Fraction(-1, 5)])
    assert (Poly._from_ints([0, 0], -9).nums, Poly._from_ints([0, 0], -9).den) == ((), 1)
    assert Poly._from_ints([0, 0], 4) == Poly([0, 0]) == Poly()
    # laguerre(1, 0) = 1 - x arrives as [-1, 1] over -1.
    assert (Poly._from_ints([-1, 1], -1).nums, Poly._from_ints([-1, 1], -1).den) == ((1, -1), 1)


def test_stored_pair_is_not_shared():
    f = Poly([Fraction(1, 2), 3])
    # The kernels read nums as it is, so it must be a tuple no caller can change.
    assert type(f.nums) is tuple and (f.nums, f.den) == ((1, 6), 2)
    assert f == Poly([Fraction(1, 2), 3]) and f.coeffs == (Fraction(1, 2), Fraction(3))
    assert f.coeffs is f.coeffs  # built once
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        f.coeffs = (Fraction(1),)
    with pytest.raises(AttributeError):
        f.nums = (99, 6, 5)
    assert f.coeffs == (Fraction(1, 2), Fraction(3)) and (f.nums, f.den) == ((1, 6), 2)


@settings(max_examples=50)
@given(nonzero_polys)
def test_square_free_divides_and_is_square_free(f):
    s = square_free(f)
    assert not poly_divmod(f, s)[1]
    assert gcd(s, derivative(s)) == Poly([1])


@given(polys)
def test_literal_roundtrip_property(f):
    assert parse_poly_literal(json.dumps(poly_literal(f))) == f
