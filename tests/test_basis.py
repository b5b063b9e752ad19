"""Weighted-family polynomials, the lowering operator, and the heat flow."""

import json
import random
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laguerreflow import (
    AlphaParam,
    Poly,
    XiParam,
    basis,
    heat_flows,
    heat_semigroup,
    laguerre,
    laguerre_transform,
    monic_laguerre,
    parse_poly_literal,
    scaled_hermite,
)
from laguerreflow.cli import main
from reference import generalized_binomial, reference_heat_semigroup, reference_lambda_apply

ALPHAS = [AlphaParam(0), AlphaParam(Fraction(1, 2)), AlphaParam(2), AlphaParam(Fraction(7, 3))]
XIS = [XiParam(Fraction(1, 2)), XiParam(1), XiParam(3)]
PINNED = json.loads(Path(__file__).with_name("basis_pinned.json").read_text())
DEGREE20_LITERAL = PINNED["report_sha256"]["transform_verify_degree20"]["argv"][-1]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
polys = st.lists(rationals, max_size=6).map(Poly)
steps = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def _random_alphas(seed: int, count: int) -> list[AlphaParam]:
    rng = random.Random(seed)
    alphas = [AlphaParam(Fraction(12345, 9973)), AlphaParam(Fraction(10**15 + 37, 10**12 + 39))]
    for _ in range(count):
        den = rng.choice([1, 2, 3, 7, 64, 10**9 + 7, rng.randint(1, 10**18)])
        alphas.append(AlphaParam(Fraction(rng.randint(0, 40 * den), den)))
    return alphas


def _textbook_laguerre(n: int, a: Fraction) -> Poly:
    return Poly(
        [(-1) ** i * generalized_binomial(n + a, n - i) / factorial(i) for i in range(n + 1)]
    )


def test_alpha_param_rejects_negative():
    with pytest.raises(ValueError):
        AlphaParam(-1)
    with pytest.raises(ValueError):
        AlphaParam(Fraction(-1, 7))
    assert AlphaParam("1/2").value == Fraction(1, 2)


def test_xi_param_allows_any_rational():
    assert XiParam(-2).value == Fraction(-2)


def test_generalized_binomial():
    assert generalized_binomial(Fraction(4), 2) == 6
    assert generalized_binomial(Fraction(5, 2), 2) == Fraction(15, 8)
    assert generalized_binomial(Fraction(3), 0) == 1


def test_laguerre_pins():
    a0 = AlphaParam(0)
    assert laguerre(0, a0) == Poly([1])
    assert laguerre(1, a0) == Poly([1, -1])
    assert laguerre(2, a0) == Poly([1, -2, Fraction(1, 2)])
    a = Fraction(1, 2)
    assert laguerre(1, AlphaParam(a)) == Poly([a + 1, -1])


def test_laguerre_degree_2_general():
    for alpha in ALPHAS:
        a = alpha.value
        expected = Poly(
            [generalized_binomial(a + 2, 2), -(a + 2), Fraction(1, 2)]
        )
        assert laguerre(2, alpha) == expected


def test_laguerre_three_term_recurrence():
    for alpha in ALPHAS:
        a = alpha.value
        for n in range(1, 13):
            lhs = (n + 1) * laguerre(n + 1, alpha)
            rhs = Poly([2 * n + 1 + a, -1]) * laguerre(n, alpha) - (n + a) * laguerre(
                n - 1, alpha
            )
            assert lhs == rhs


def test_monic_laguerre_pins():
    a0 = AlphaParam(0)
    assert monic_laguerre(2, a0) == Poly([2, -4, 1])
    for alpha in ALPHAS:
        a = alpha.value
        assert monic_laguerre(2, alpha) == Poly([(a + 1) * (a + 2), -2 * (a + 2), 1])
        assert monic_laguerre(7, alpha).leading() == 1


def test_scaled_hermite_pins():
    xi = XiParam(1)
    assert scaled_hermite(0, xi) == Poly([1])
    assert scaled_hermite(1, xi) == Poly([0, 1])
    assert scaled_hermite(2, xi) == Poly([-2, 0, 1])
    assert scaled_hermite(3, xi) == Poly([0, -6, 0, 1])
    assert scaled_hermite(2, XiParam(Fraction(1, 2))) == Poly([-1, 0, 1])


def test_scaled_hermite_recurrence():
    for xi in XIS:
        s = xi.value
        for k in range(1, 13):
            lhs = scaled_hermite(k + 1, xi)
            rhs = Poly([0, 1]) * scaled_hermite(k, xi) - 2 * s * k * scaled_hermite(k - 1, xi)
            assert lhs == rhs


def test_scaled_hermite_is_gaussian_flow_of_monomial():
    # H_k arises by flowing x^k under the plain second-derivative heat flow.
    rng = random.Random(9)
    xis = XIS + [XiParam(Fraction(-7, 3)), XiParam(-1), XiParam(0)]
    for _ in range(4):
        xis.append(XiParam(Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**12))))
    for xi in xis:
        s = xi.value
        for k in range(0, 21):
            expected = Poly()
            for j in range(0, k // 2 + 1):
                c = (-s) ** j * Fraction(factorial(k), factorial(j) * factorial(k - 2 * j))
                expected = expected + Poly([0] * (k - 2 * j) + [c])
            assert scaled_hermite(k, xi) == expected


def lowered(f: Poly, a: Fraction) -> Poly:
    """L f, from the one place the rule x^j -> j*(j+a)*x^(j-1) is written.

    ``_lowered`` applies b*L to f's numerators for a = num/b, so its level 1 is
    d * b * L f; a constant or zero f has no level 1, and L f = 0.
    """
    nums, d = f.nums, f.den
    num, b = a.as_integer_ratio()
    series = basis._lowered(nums, num, b) + [[]]
    return Poly([Fraction(c, d * b) for c in series[1]])


def test_lambda_apply_monomials():
    for alpha in ALPHAS:
        a = alpha.value
        assert lowered(Poly([1]), a).is_zero
        for k in range(1, 11):
            assert lowered(Poly([0] * k + [1]), a) == Poly([0] * (k - 1) + [k * (k + a)])


@given(polys, polys)
def test_lambda_apply_is_linear(f, g):
    a = Fraction(1, 2)
    assert lowered(f + g, a) == lowered(f, a) + lowered(g, a)


def test_heat_semigroup_pins():
    a0 = AlphaParam(0)
    h = Fraction(1, 100)
    assert heat_semigroup(Poly([0, -3, 1]), a0, h) == Poly(
        [Fraction(151, 5000), Fraction(-76, 25), 1]
    )
    t = Fraction(1, 3)
    assert heat_semigroup(Poly([0, 0, 1]), a0, t) == Poly([2 * t * t, -4 * t, 1])


def test_heat_semigroup_identity_at_zero():
    f = Poly([1, 2, 3])
    assert heat_semigroup(f, AlphaParam(1), 0) == f
    assert heat_semigroup(Poly(), AlphaParam(1), 5).is_zero


@settings(max_examples=60)
@given(polys.filter(lambda f: not f.is_zero), steps)
def test_heat_semigroup_preserves_degree_and_lead(f, h):
    alpha = AlphaParam(Fraction(3, 2))
    g = heat_semigroup(f, alpha, h)
    assert g.degree() == f.degree()
    assert g.leading() == f.leading()


@settings(max_examples=60)
@given(polys, polys, steps)
def test_heat_semigroup_is_linear(f, g, h):
    alpha = AlphaParam(2)
    assert heat_semigroup(f + g, alpha, h) == heat_semigroup(f, alpha, h) + heat_semigroup(
        g, alpha, h
    )


LARGE_DENOMINATOR_ALPHA = Fraction(10**15 + 37, 10**12 + 39)
flow_alphas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(12345, 9973), LARGE_DENOMINATOR_ALPHA]),
    st.fractions(min_value=0, max_value=40, max_denominator=10**12),
)
flow_polys = st.lists(rationals, max_size=21).map(Poly)
# The first time is repeated at the end, so every example flows one time twice.
flow_times = st.lists(st.one_of(st.just(Fraction(0)), steps), min_size=1, max_size=4).map(
    lambda ts: ts + ts[:1]
)


@given(flow_polys, flow_alphas)
def test_lowering_matches_reference(f, a):
    assert lowered(f, a) == reference_lambda_apply(f, AlphaParam(a))


@settings(max_examples=80, deadline=None)
@given(flow_polys, flow_alphas, flow_times)
@example(Poly(), Fraction(0), [Fraction(0), Fraction(-3, 2), Fraction(0)])
@example(Poly([5]), LARGE_DENOMINATOR_ALPHA, [Fraction(-7, 3), Fraction(-7, 3)])
@example(
    Poly([Fraction(1 - 2 * i, i + 1) for i in range(21)]),
    LARGE_DENOMINATOR_ALPHA,
    [Fraction(-4), Fraction(0), Fraction(1, 12), Fraction(-4)],
)
@example(Poly([Fraction(i, 7) - 1 for i in range(21)]), Fraction(0), [Fraction(0), Fraction(0)])
# Horner sums that may hold ints where Poly needs Fractions: degree 0, integer
# times, and the transform_verify_degree20 pin's literal.
@example(Poly([5]), Fraction(0), [Fraction(2), Fraction(0), Fraction(2)])
@example(Poly([5]), Fraction(2), [Fraction(2), Fraction(0), Fraction(2)])
@example(Poly([3, -2]), Fraction(0), [Fraction(2), Fraction(0), Fraction(2)])
@example(Poly([3, -2]), Fraction(2), [Fraction(2), Fraction(0), Fraction(2)])
@example(
    parse_poly_literal(DEGREE20_LITERAL),
    Fraction(12345, 9973),
    [Fraction(1), Fraction(1, 2**61 - 1), Fraction(1)],
)
def test_heat_flows_match_reference(f, a, times):
    alpha = AlphaParam(a)
    flows = heat_flows(f, alpha, times)
    assert len(flows) == len(times)
    for h, flowed in zip(times, flows):
        expected = reference_heat_semigroup(f, alpha, h)
        assert flowed == expected
        assert heat_semigroup(f, alpha, h) == expected


def test_flow_of_monomial_is_monic_laguerre():
    for alpha in ALPHAS:
        for n in range(0, 13):
            assert heat_semigroup(Poly([0] * n + [1]), alpha, 1) == monic_laguerre(n, alpha)


def test_transform_pins():
    a0 = AlphaParam(0)
    assert laguerre_transform(Poly.from_roots([(2, 2)]), a0) == Poly([10, -8, 1])
    assert laguerre_transform(Poly.from_roots([(-2, 2)]), a0) == Poly([2, 0, 1])
    assert laguerre_transform(Poly(), a0).is_zero
    assert laguerre_transform(Poly([5]), a0) == Poly([5])
    for alpha in _random_alphas(seed=3, count=3):
        assert laguerre_transform(Poly(), alpha, verify=True).is_zero
        for c in [Fraction(1), Fraction(-17, 4), Fraction(10**20 + 1, 3**40)]:
            assert laguerre_transform(Poly([c]), alpha, verify=True) == Poly([c])


def test_transform_degree_one():
    for alpha in ALPHAS:
        a = alpha.value
        for c in [Fraction(0), Fraction(3), Fraction(-7, 2)]:
            assert laguerre_transform(Poly([c, 1]), alpha) == Poly([c - (1 + a), 1])


@settings(max_examples=60)
@given(polys)
def test_transform_agrees_with_unit_time_flow(f):
    alpha = AlphaParam(Fraction(1, 2))
    assert laguerre_transform(f, alpha, verify=True) == heat_semigroup(f, alpha, 1)


def test_laguerre_matches_textbook_sum():
    for alpha in _random_alphas(seed=5, count=6):
        for n in range(31):
            expected = _textbook_laguerre(n, alpha.value)
            assert laguerre(n, alpha) == expected
            assert monic_laguerre(n, alpha) == expected * ((-1) ** n * factorial(n))


def test_negative_degrees_are_rejected():
    for build in (laguerre, monic_laguerre):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            build(-1, AlphaParam(1))
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        scaled_hermite(-1, XiParam(1))


def test_transform_matches_basis_sum_reference():
    # The image is sum_i a_i * monic_laguerre(i), built here from the textbook sum.
    rng = random.Random(17)
    for alpha in _random_alphas(seed=11, count=3):
        for degree in range(0, 16, 3):
            f = Poly(
                [Fraction(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(degree + 1)]
            )
            expected = Poly()
            for i, a in enumerate(f.coeffs):
                expected = expected + _textbook_laguerre(i, alpha.value) * (
                    a * (-1) ** i * factorial(i)
                )
            assert laguerre_transform(f, alpha) == expected


@pytest.mark.parametrize("name", sorted(PINNED["transform"]))
def test_pinned_transforms(name):
    case = PINNED["transform"][name]
    f = Poly([Fraction(c) for c in case["coeffs"]])
    image = laguerre_transform(f, AlphaParam(Fraction(case["alpha"])), verify=True)
    assert [str(c) for c in image.coeffs] == case["transformed"]


def test_transform_paths_stay_independent(monkeypatch, capsys):
    f = Poly([Fraction(1, 3), -2, 0, Fraction(5, 4)])
    alpha = AlphaParam(Fraction(7, 3))
    flowed = heat_semigroup(f, alpha, 1)
    real = basis._monic_laguerre_ints

    def perturbed(n, a, b):
        ints = real(n, a, b)
        if n == 3:
            ints[1] += 1
        return ints

    monkeypatch.setattr(basis, "_monic_laguerre_ints", perturbed)
    assert laguerre_transform(f, alpha) != flowed
    with pytest.raises(ArithmeticError):
        laguerre_transform(f, alpha, verify=True)
    literal = '{"coeffs":["1/3","-2","0","5/4"]}'
    code = main(["transform", "--verify", "--alpha", "7/3", "--poly", literal])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "property failure" in captured.err

    def broken(n, a, b):
        raise RuntimeError("basis kernel unavailable")

    monkeypatch.setattr(basis, "_monic_laguerre_ints", broken)
    with pytest.raises(RuntimeError):
        laguerre_transform(f, alpha)
    assert heat_semigroup(f, alpha, 1) == flowed
    assert heat_semigroup(Poly([0, 0, 1]), AlphaParam(0), 1) == Poly([2, -4, 1])
