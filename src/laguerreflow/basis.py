"""Laguerre and scaled-Hermite families, the lowering operator, and its heat flow.

The central operator is L = x*d^2/dx^2 + (alpha+1)*d/dx, which sends x^k to
k*(k+alpha)*x^(k-1) and therefore lowers degree by exactly one. On polynomials
its exponential exp(-h*L) is a finite sum, so the flow is computed exactly
over the rationals for any rational time h.

The Laguerre and Hermite families and the basis-sum transform run over integer
numerators with one common denominator (the transform takes its input's from
``Poly.nums``) and store them through ``Poly._from_ints``. L is applied by
its coefficient formula, written once in ``_lowered``. The flow starts from the
same numerators, in ``_flow_sums``: with f = nums / d and alpha = a/b it builds
one integer series G_j = d * b^j * L^j f per polynomial and sums it at each
requested time by Horner over the levels, where each step's factor -h/(b*(j+1))
carries the 1/b^j and 1/j!; each sum is yielded as integers over one
denominator. ``heat_flows`` puts them over that denominator times d; the lemma
windows count the integers as they are. The flow never calls the basis kernel or
a closed form of exp(-h*L) x^n: it is the transform's independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .ratpoly import Poly, RationalLike, _over_lcm, to_rational


@dataclass(frozen=True)
class AlphaParam:
    """The nonnegative rational parameter of the associated Laguerre family."""

    value: Fraction

    def __init__(self, value: RationalLike):
        v = to_rational(value)
        if v < 0:
            raise ValueError(f"alpha must be nonnegative, got {v}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class XiParam:
    """Rational scale of the Hermite family (and root location in flow windows).

    Any rational is allowed here; operations that need xi > 0 (the Gaussian
    weight, full real-rootedness of the family) check it themselves.
    """

    value: Fraction

    def __init__(self, value: RationalLike):
        object.__setattr__(self, "value", to_rational(value))


def _monic_laguerre_ints(n: int, a: int, b: int) -> list[int]:
    """b^n * monic_laguerre(n, a/b) as ascending integers, for b > 0.

    x^(n-t) has coefficient (-1)^t C(n,t) prod_{j<t}(n+alpha-j); every step of
    the walk over t is an exact integer division.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    out = [b**n]
    for t in range(n):
        out.append(-(out[-1] * (n - t) // (t + 1) // b) * (n * b + a - t * b))
    return out[::-1]


def _laguerre_den(n: int, ints: list[int]) -> int:
    """(-1)^n n! b^n: laguerre(n, a/b) is ints / this, ints = _monic_laguerre_ints(n, a, b)."""
    return (-1) ** n * math.factorial(n) * ints[-1]  # ints[-1] is b^n


def laguerre(n: int, alpha: AlphaParam) -> Poly:
    """Associated Laguerre polynomial of degree n with exact coefficients.

    L_n(x) = sum_{i=0}^{n} (-1)^i * C(n+alpha, n-i) * x^i / i!
    """
    ints = _monic_laguerre_ints(n, *alpha.value.as_integer_ratio())
    return Poly._from_ints(ints, _laguerre_den(n, ints))


def monic_laguerre(n: int, alpha: AlphaParam) -> Poly:
    """(-1)^n * n! * laguerre(n, alpha): the monic normalization."""
    ints = _monic_laguerre_ints(n, *alpha.value.as_integer_ratio())
    return Poly._from_ints(ints, ints[-1])  # ints[-1] is b^n


def _hermite_ints(k: int, u: int, v: int) -> list[int]:
    """v^(k//2) * scaled_hermite(k, u/v) as ascending integers, for v > 0."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    out = [0] * (k + 1)
    out[k] = v ** (k // 2)
    for i in range(k, 1, -2):  # x^i has j = (k-i)/2; step to x^(i-2), j+1
        out[i - 2] = -(out[i] * i * (i - 1) // ((k - i) // 2 + 1) // v) * u
    return out


def scaled_hermite(k: int, xi: XiParam) -> Poly:
    """Image of x^k under exp(-xi * d^2/dx^2), a monic degree-k polynomial.

    The exponential series terminates because differentiation is nilpotent:
    H_k(x) = sum_{j=0}^{floor(k/2)} (-xi)^j * k! / (j! (k-2j)!) * x^(k-2j).
    """
    ints = _hermite_ints(k, *xi.value.as_integer_ratio())
    return Poly._from_ints(ints, ints[-1])  # ints[-1] is v^(k//2)


def _lowered(nums: Sequence[int], a: int, b: int) -> list[Sequence[int]]:
    """nums and its images under b*L, which sends x^j to j*(j*b + a)*x^(j-1), down to a constant.

    For f = nums / d and alpha = a/b, level m is the integer list d * b^m * L^m f;
    the zero polynomial's series is ``[[]]``.
    """
    weights = [j * (j * b + a) for j in range(len(nums))]
    series = [nums]
    for _ in range(len(nums) - 1):
        prev = series[-1]
        series.append([weights[j] * prev[j] for j in range(1, len(prev))])
    return series


def _flow_sums(
    nums: Sequence[int], alpha: AlphaParam, times: Iterable[Fraction]
) -> Iterator[tuple[list[int], int]]:
    """Yield (ints, den), ints / den = d * exp(-h*L) f, per h in ``times``; f = nums / d.

    With alpha = a/b the series is G_j = d * b^j * L^j f (``_lowered``), so
    exp(-h*L) f = sum_j (-h/b)^j G_j / (j! d). Each time sums the levels by
    Horner: Q_n = G_n and Q_j = G_j + (-h/(b*(j+1))) * Q_{j+1} on the first
    n - j entries, G_j's top entry passed through, so every 1/b^j and 1/j!
    sits in the step factors. Q_0 goes over den, the lcm of its denominators.
    """
    a, b = alpha.value.as_integer_ratio()
    series = _lowered(nums, a, b)
    for step in times:
        acc = series[-1]
        for j in range(len(series) - 2, -1, -1):
            level = series[j]
            factor = -step / (b * (j + 1))
            acc = [factor * q + c for q, c in zip(acc, level)]
            acc.append(level[-1])
        yield _over_lcm(acc)


def heat_flows(f: Poly, alpha: AlphaParam, times: Iterable[RationalLike]) -> tuple[Poly, ...]:
    """exp(-h*L) f for each h in ``times``, from one integer series of f's numerators.

    With f = nums / d, ``_flow_sums`` gives d * exp(-h*L) f as ints / den for
    each time, so each flow is those ints over den * d, one Poly per time.
    """
    return tuple(
        Poly._from_ints(ints, den * f.den)
        for ints, den in _flow_sums(f.nums, alpha, map(to_rational, times))
    )


def heat_semigroup(f: Poly, alpha: AlphaParam, h: RationalLike) -> Poly:
    """Exact flow exp(-h*L) f, as the finite series sum_j (-h)^j L^j f / j!.

    The series stops after deg(f)+1 terms because each application of L
    lowers degree by exactly one. Degree and leading coefficient are preserved.
    """
    return heat_flows(f, alpha, (h,))[0]


def laguerre_transform(f: Poly, alpha: AlphaParam, verify: bool = False) -> Poly:
    """Map sum a_i x^i to sum (-1)^i i! a_i L_i, i.e. x^n -> monic_laguerre(n).

    Computed as the basis sum over integers: with f = sum F_i x^i / d and
    alpha = a/b it is sum F_i b^(N-i) (b^i monic_laguerre(i)) over d b^N. With
    ``verify=True`` the result is recomputed as heat_semigroup(f, alpha, 1) and
    the two paths are required to agree exactly, as a built-in self-test.
    """
    if not f.nums:
        return f
    n = f.degree()
    a, b = alpha.value.as_integer_ratio()
    acc = [0] * (n + 1)
    for i, num in enumerate(f.nums):
        scale = num * b ** (n - i)
        for j, term in enumerate(_monic_laguerre_ints(i, a, b)):
            acc[j] += scale * term
    result = Poly._from_ints(acc, f.den * b**n)
    if verify:
        flowed = heat_semigroup(f, alpha, Fraction(1))
        if flowed != result:
            raise ArithmeticError(
                "basis-sum and semigroup paths disagree; exact arithmetic is broken"
            )
    return result
