"""Exact polynomial kernel: construction, ring laws, division, serialization."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import laguerreflow
from laguerreflow import Poly, parse_poly_literal, poly_literal, to_rational
from laguerreflow.ratpoly import LITERAL_DEGREE
from reference import derivative, fraction_shift, gcd, monic, poly_divmod, square_free

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda f: not f.is_zero)
root_pairs = st.lists(st.tuples(rationals, st.integers(min_value=1, max_value=4)), max_size=4)


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
    for text in ("1e4301", "1e-4301", "1E+0004301", "1_0e4_301", too_long, "1/" + too_long[1:]):
        with pytest.raises(ValueError, match="bound of 4300 digits"):
            to_rational(text)
    assert to_rational("1e4300") == 10**4300
    assert to_rational("-25e-4300") == Fraction(-25, 10**4300)
    assert to_rational("1" * 4299 + "/7") == Fraction(int("1" * 4299), 7)


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
    assert Poly([0, 0]).is_zero
    assert Poly([]).is_zero
    assert not Poly([0, 1]).is_zero


def test_degree_and_leading():
    f = Poly([1, 0, Fraction(1, 2)])
    assert f.degree() == 2
    assert f.leading() == Fraction(1, 2)
    assert f.coeff(0) == 1 and f.coeff(1) == 0 and f.coeff(5) == 0
    with pytest.raises(ValueError):
        Poly.zero().degree()
    with pytest.raises(ValueError):
        Poly.zero().leading()


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
    assert f - f == Poly.zero()
    assert 2 * f == Poly([2, 2])
    assert f * Fraction(1, 2) == Poly([Fraction(1, 2), Fraction(1, 2)])


def test_evaluation():
    f = Poly([2, 0, 1])
    assert f(0) == 2
    assert f(Fraction(1, 2)) == Fraction(9, 4)
    assert Poly.zero()(5) == 0


def test_derivative():
    assert derivative(Poly([5, 3, 0, 2])) == Poly([3, 0, 6])
    assert derivative(Poly([4])).is_zero
    assert derivative(Poly.zero()).is_zero


def test_shift():
    f = Poly([0, 0, 1])
    assert f.shift(1) == Poly([1, 2, 1])


def test_divmod_exact():
    f = Poly([-2, 0, 1]) * Poly([3, 1]) + Poly([7])
    q, r = poly_divmod(f, Poly([3, 1]))
    assert q * Poly([3, 1]) + r == f
    assert r.degree() == 0
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, Poly.zero())


def test_gcd():
    f = Poly.from_roots([(1, 1), (2, 1)])
    g = Poly.from_roots([(1, 1), (3, 1)])
    assert gcd(f, g) == Poly([-1, 1])
    assert gcd(f, Poly.zero()) == monic(f)
    assert gcd(Poly([2]), f) == Poly([1])


def test_primitive():
    assert Poly([Fraction(-1, 3), Fraction(1, 2)]).numerators() == ([-2, 3], 6)
    assert Poly([4, -2]).numerators() == ([4, -2], 1)
    assert Poly([0, Fraction(-4, 5), Fraction(-2, 15)]).numerators() == ([0, -12, -2], 15)
    assert Poly.zero().numerators() == ([], 1)


def test_square_free():
    f = Poly.from_roots([(1, 3), (2, 1)], lead=5)
    assert square_free(f) == Poly.from_roots([(1, 1), (2, 1)])
    assert square_free(Poly([9])) == Poly([1])


def test_str():
    assert str(Poly([10, -8, 1])) == "x^2 - 8*x + 10"
    assert str(Poly.zero()) == "0"
    assert str(Poly([Fraction(1, 2)])) == "1/2"


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
    ):
        with pytest.raises(ValueError):
            parse_poly_literal(bad)


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
    assert f.shift(c).shift(-c) == f
    assert f.shift(c)(x) == f(x + c)


digits30 = st.integers(min_value=-(10**30), max_value=10**30)
wide_rationals = st.builds(Fraction, digits30, st.integers(min_value=1, max_value=10**30))


@settings(max_examples=200)
@given(
    st.one_of(polys, st.lists(wide_rationals, max_size=7).map(Poly)),
    st.one_of(rationals, wide_rationals),
)
@example(Poly.zero(), Fraction(10**30 - 1, 3**60))
@example(Poly([Fraction(-7, 3)]), Fraction(-(10**30), 10**30 - 1))
@example(Poly([Fraction(5, 2), Fraction(-3)]), Fraction(0))
def test_integer_shift_matches_fraction_taylor_shift(f, c):
    # Zero polynomials, constants and offsets of both signs with 30-digit parts.
    assert f.shift(c) == fraction_shift(f, c)
    assert f.shift(-c) == fraction_shift(f, -c)


@given(polys, nonzero_polys)
def test_division_identity(f, g):
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.is_zero or r.degree() < g.degree()


@settings(max_examples=50)
@given(nonzero_polys)
def test_primitive_is_integral_and_coprime(f):
    nums, d = f.numerators()
    # d is the least common denominator iff no prime divides d and every numerator.
    assert d > 0 and math.gcd(d, *nums) == 1
    assert Poly(Fraction(n, d) for n in nums) == f


@settings(max_examples=50)
@given(nonzero_polys)
def test_square_free_divides_and_is_square_free(f):
    s = square_free(f)
    assert poly_divmod(f, s)[1].is_zero
    assert gcd(s, derivative(s)) == Poly([1])


@given(polys)
def test_literal_roundtrip_property(f):
    assert parse_poly_literal(json.dumps(poly_literal(f))) == f
