"""Plain Fraction versions of operations the package does not run itself.

The package works on integer numerators: one remainder sequence over Z gives
the square-free part, the Cauchy root bound comes from a polynomial's
integers, the Taylor shift runs on integers, the largest-root enclosure is
confirmed at dyadic points, and the families and moment tables have closed
integer forms. The tests check those kernels against the textbook rational
operations below, which therefore live with the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from laguerreflow import MomentBase, MomentValue, Poly, XiParam
from laguerreflow.realroot import _RootContext


def derivative(f: Poly) -> Poly:
    """Exact formal derivative."""
    return Poly(tuple(i * c for i, c in enumerate(f.coeffs) if i > 0))


def poly_divmod(f: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Exact polynomial division: f = q * divisor + r with deg r < deg divisor."""
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero or len(f.coeffs) < len(divisor.coeffs):
        return Poly.zero(), f
    rem = list(f.coeffs)
    dcs = divisor.coeffs
    dn = len(dcs) - 1
    lead = dcs[-1]
    quot = [Fraction(0)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = c / lead
        quot[i - dn] = q
        for j in range(dn + 1):
            rem[i - dn + j] -= q * dcs[j]
    return Poly(quot), Poly(rem)


def monic(f: Poly) -> Poly:
    if f.is_zero:
        raise ValueError("the zero polynomial cannot be made monic")
    return f * (1 / f.leading())


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor (Euclid over the rationals)."""
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
    if f.is_zero:
        return f
    return monic(f)


def square_free(f: Poly) -> Poly:
    """Monic f / gcd(f, f'): same distinct roots as f, all simple."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no square-free part")
    q, r = poly_divmod(f, gcd(f, derivative(f)))
    assert r.is_zero
    return monic(q)


def cauchy_root_bound(f: Poly) -> Fraction:
    """Strict bound M = 1 + max|a_i/a_n|: every root satisfies |root| < M."""
    if f.is_zero or f.degree() == 0:
        raise ValueError("root bound needs a nonconstant polynomial")
    lead = abs(f.leading())
    others = [abs(c) / lead for c in f.coeffs[:-1]]
    return 1 + (max(others) if others else Fraction(0))


def fraction_shift(f: Poly, c: Fraction) -> Poly:
    """f(x + c) by a Taylor shift on the Fraction coefficients."""
    offset = Fraction(c)
    if offset == 0 or not f.coeffs:
        return f
    # Taylor shift: pass i leaves the coefficient of x^i final.
    cs = list(f.coeffs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += offset * cs[j + 1]
    return Poly(cs)


def bisection_enclosure(f: Poly, w: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of max |root| by Fraction bisection of (0, M] on symmetric counts.

    f has a real root; ``g(-r) == 0`` is read as ``f(-r) == 0``, which has the same roots.
    """
    ctx = _RootContext(f)
    total = ctx.distinct

    def inside(r: Fraction) -> int:
        # distinct roots in [-r, r]
        return ctx.count(-r, r) + (f(-r) == 0)

    if f(0) == 0 and total == 1:
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(0), cauchy_root_bound(f)
    while hi - lo > w:
        mid = (lo + hi) / 2
        if inside(mid) == total:
            hi = mid
        else:
            lo = mid
    return lo, hi


def generalized_binomial(top: Fraction, k: int) -> Fraction:
    """Binomial coefficient C(top, k) = top*(top-1)*...*(top-k+1) / k!, top any rational."""
    if k < 0:
        raise ValueError("binomial index must be nonnegative")
    num = Fraction(1)
    for j in range(k):
        num *= top - j
    return num / math.factorial(k)


def double_factorial(n: int) -> int:
    """Product n * (n-2) * (n-4) * ...; empty product (n <= 0) is 1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def hermite_moment(m: int, xi: XiParam) -> MomentValue:
    """Moment of x^m against e^(-x^2/(4*xi)) on the whole line.

    Odd moments vanish by symmetry; for m = 2t the Gaussian with variance
    2*xi gives (2t-1)!! * (2*xi)^t times the total mass 2*sqrt(pi*xi).
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if xi.value <= 0:
        raise ValueError(f"xi must be positive for an integrable weight, got {xi.value}")
    if m % 2:
        return MomentValue(Fraction(0), MomentBase.SQRT_PI_XI)
    t = m // 2
    coeff = 2 * double_factorial(2 * t - 1) * (2 * xi.value) ** t
    return MomentValue(coeff, MomentBase.SQRT_PI_XI)


def moment_sum(a: MomentValue, b: MomentValue) -> MomentValue:
    """a + b; values over different base constants are never added, zero takes any base."""
    if a.is_zero:
        return MomentValue(b.coeff, b.base if not b.is_zero else a.base)
    if b.is_zero:
        return a
    if a.base is not b.base:
        raise ValueError(f"cannot add values over {a.base.value} and {b.base.value}")
    return MomentValue(a.coeff + b.coeff, a.base)


def moment_scaled(value: MomentValue, s: Fraction) -> MomentValue:
    return MomentValue(value.coeff * s, value.base)
