"""Plain Fraction versions of operations the package does not run itself.

The package works on integer numerators: one remainder sequence over Z gives
the square-free part, the Cauchy root bound comes from a polynomial's
integers, the Taylor shift runs on integers, the largest-root enclosure is
confirmed at dyadic points, the families and moment tables have closed
integer forms, the orthogonality tables are the only inner-product API and
reuse one moment row per polynomial instead of expanding a product per entry,
and the heat flow sums one series per polynomial into coefficient lists. The
tests check those kernels against the textbook rational operations below
(single monomial moments, single inner products from an expanded product, a
Sturm count over the rationals), which therefore live with the tests.

Every root count here reads ``sturm_chain``: sympy's Sturm sequence of the
square-free part, built over the rationals by sympy's own gcd and Euclidean
remainders, so it shares no code with the package's integer remainder
sequence. The signs and variations that read it are this module's own.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import pytest

from laguerreflow import AlphaParam, Poly, XiParam
from laguerreflow.basis import _hermite_ints, _monic_laguerre_ints
from laguerreflow.ratpoly import RationalLike, to_rational


def derivative(f: Poly) -> Poly:
    """Exact formal derivative."""
    return Poly(tuple(i * c for i, c in enumerate(f.coeffs) if i > 0))


def poly_divmod(f: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Exact polynomial division: f = q * divisor + r with deg r < deg divisor."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    if not f or len(f.coeffs) < len(divisor.coeffs):
        return Poly(), f
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
    if not f:
        raise ValueError("the zero polynomial cannot be made monic")
    return f * (1 / f.leading())


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor (Euclid over the rationals)."""
    while g:
        f, g = g, poly_divmod(f, g)[1]
    if not f:
        return f
    return monic(f)


def square_free(f: Poly) -> Poly:
    """Monic f / gcd(f, f'): same distinct roots as f, all simple."""
    if not f:
        raise ValueError("the zero polynomial has no square-free part")
    q, r = poly_divmod(f, gcd(f, derivative(f)))
    assert not r
    return monic(q)


def cauchy_root_bound(f: Poly) -> Fraction:
    """Strict bound M = 1 + max|a_i/a_n|: every root satisfies |root| < M."""
    if not f or f.degree() == 0:
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


@functools.cache
def sturm_chain(f: Poly) -> tuple[tuple[int, ...], ...]:
    """The Sturm chain of f's square-free part g, each element as ascending integers.

    sympy's ``sturm`` takes the monic square-free part g over the rationals,
    then g', then minus each Euclidean remainder. Each element is multiplied by
    the lcm of its denominators, a positive factor, so its signs are unchanged;
    the first element is g with a positive leading coefficient. Skips without sympy.
    """
    sympy = pytest.importorskip("sympy")
    p = sympy.Poly.from_list(list(reversed(f.nums)), sympy.Symbol("x"), domain=sympy.QQ)
    chain = []
    for e in p.sturm():
        cs = e.rep.to_list()[::-1]
        d = math.lcm(*[c.denominator for c in cs])
        ints = [c.numerator * (d // c.denominator) for c in cs]
        content = math.gcd(*ints)
        chain.append(tuple([c // content for c in ints]))
    return tuple(chain)


def sign_at(ints: Sequence[int], x: Fraction) -> int:
    """Sign of the integer polynomial (ascending) at x: den^n * value by Horner's rule."""
    num, den = x.numerator, x.denominator
    total, power = 0, 1
    for c in reversed(ints):
        total = total * num + c * power
        power *= den
    return (total > 0) - (total < 0)


def sign_at_dyadic(ints: Sequence[int], num: int, shift: int) -> int:
    """Sign of the integer polynomial (ascending) at num/2^shift, by Horner's rule with shifts."""
    total = 0
    for i, c in enumerate(reversed(ints)):
        total = total * num + (c << i * shift)
    return (total > 0) - (total < 0)


def variations(signs: Iterable[int]) -> int:
    """Sign changes along a sequence of signs, zeros dropped."""
    nonzero = [s for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def open_counter(f: Poly) -> Callable[[Fraction, Fraction], int]:
    """count(lo, hi): distinct real roots of f in the open interval (lo, hi), lo < hi.

    Sturm's theorem on ``sturm_chain(f)``: V(lo) - V(hi) counts the roots in
    (lo, hi], and a root at hi is then taken off. Each point's variations are
    kept, since bisection reads each point twice.
    """
    chain = sturm_chain(f)

    @functools.lru_cache(maxsize=None)
    def at(x: Fraction) -> int:
        return variations(sign_at(e, x) for e in chain)

    return lambda lo, hi: at(lo) - at(hi) - (sign_at(chain[0], hi) == 0)


def reference_count_open(f: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of f in the open interval (lo, hi), lo < hi."""
    return open_counter(f)(lo, hi)


def reference_root_cells(f: Poly) -> list[tuple[Fraction, Fraction]]:
    """Sorted cells [lo, hi], one per distinct real root of nonconstant f.

    Rational bisection of (-M, M), M the Cauchy bound, on open Sturm counts: a
    cell with lo < hi holds one root in (lo, hi), and a root on a midpoint m is
    the cell [m, m].
    """
    count = open_counter(f)
    bound = cauchy_root_bound(f)
    cells, stack = [], [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = count(lo, hi)
        if n == 1:
            cells.append((lo, hi))
        elif n > 1:
            mid = (lo + hi) / 2
            if f(mid) == 0:
                cells.append((mid, mid))
            stack += [(lo, mid), (mid, hi)]
    return sorted(cells)


def bisection_enclosure(f: Poly, w: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of max |root| by Fraction bisection of (0, M] on symmetric counts.

    f has a real root. The counts read ``sturm_chain(f)``: its variations count
    (-r, r], and g's sign at -r adds a root there.
    """
    chain = sturm_chain(f)

    def inside(r: Fraction) -> int:
        # distinct roots in [-r, r]
        minus = [sign_at(e, -r) for e in chain]
        return variations(minus) - variations(sign_at(e, r) for e in chain) + (minus[0] == 0)

    lo, hi = Fraction(0), cauchy_root_bound(f)
    # Every root lies in (-M, M).
    total = inside(hi)
    if f(0) == 0 and total == 1:
        return Fraction(0), Fraction(0)
    while hi - lo > w:
        mid = (lo + hi) / 2
        if inside(mid) == total:
            hi = mid
        else:
            lo = mid
    return lo, hi


def reference_lambda_apply(f: Poly, alpha: AlphaParam) -> Poly:
    """Apply the lowering operator x*f'' + (alpha+1)*f', which sends x^j to j*(j+alpha)*x^(j-1)."""
    return Poly([j * (j + alpha.value) * c for j, c in enumerate(f.coeffs)][1:])


def reference_heat_semigroup(f: Poly, alpha: AlphaParam, h: RationalLike) -> Poly:
    """Exact flow exp(-h*L) f, as the finite series sum_j (-h)^j L^j f / j!.

    The series stops after deg(f)+1 terms because each application of L
    lowers degree by exactly one. Degree and leading coefficient are preserved.
    """
    step = to_rational(h)
    if not f or step == 0:
        return f
    acc = f
    power = f
    scale = Fraction(1)
    for j in range(1, f.degree() + 1):
        power = reference_lambda_apply(power, alpha)
        scale *= -step / j
        acc = acc + power * scale
    return acc


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


def laguerre_moment(m: int, alpha: AlphaParam) -> Fraction:
    """Moment of x^m against x^alpha * e^(-x) on (0, inf).

    The value is Gamma(m+alpha+1), which the Gamma recurrence writes as
    prod_{i=1}^{m} (alpha+i) times Gamma(alpha+1); the value is returned in
    units of Gamma(alpha+1).
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    coeff = Fraction(1)
    for i in range(1, m + 1):
        coeff *= alpha.value + i
    return coeff


def hermite_moment(m: int, xi: XiParam) -> Fraction:
    """Moment of x^m against e^(-x^2/(4*xi)) on the whole line.

    Odd moments vanish by symmetry; for m = 2t the Gaussian with variance
    2*xi gives (2t-1)!! * (2*xi)^t times the total mass 2*sqrt(pi*xi); the
    value is returned in units of sqrt(pi*xi).
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    if xi.value <= 0:
        raise ValueError(f"xi must be positive for an integrable weight, got {xi.value}")
    if m % 2:
        return Fraction(0)
    t = m // 2
    return 2 * double_factorial(2 * t - 1) * (2 * xi.value) ** t


def _int_product(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                out[i + j] += a * c
    return out


def reference_laguerre_inner(n: int, m: int, alpha: AlphaParam) -> Fraction:
    """Inner product of the degree-n and degree-m Laguerre polynomials.

    Expands the product polynomial and sums exact monomial moments. The exact
    diagonal is prod_{i=1}^{n}(alpha+i) / n! in units of Gamma(alpha+1), and
    off-diagonal entries are exactly zero.
    """
    a, b = alpha.value.as_integer_ratio()
    product = _int_product(_monic_laguerre_ints(n, a, b), _monic_laguerre_ints(m, a, b))
    top = n + m
    total, power = 0, 1  # Horner form of sum_j product[j] * prod_{i<=j}(i*b + a) * b^(top-j)
    for j in range(top, -1, -1):
        total = total * ((j + 1) * b + a) + product[j] * power
        power *= b
    den = (-1) ** top * math.factorial(n) * math.factorial(m) * b ** (2 * top)
    return Fraction(total, den)


def reference_hermite_inner(k: int, l: int, xi: XiParam) -> Fraction:
    """Inner product of the degree-k and degree-l scaled Hermite polynomials.

    Off-diagonal entries are exactly zero; the computed diagonal is
    2 * k! * (2*xi)^k in units of sqrt(pi*xi).
    """
    if xi.value <= 0:
        raise ValueError(f"xi must be positive for an integrable weight, got {xi.value}")
    u, v = xi.value.as_integer_ratio()
    product = _int_product(_hermite_ints(k, u, v), _hermite_ints(l, u, v))
    top = (k + l) // 2
    total, power = 0, 1  # Horner form of sum_t product[2t] * (2t-1)!! * (2u)^t * v^(top-t)
    for t in range(top, -1, -1):
        total = total * (2 * t + 1) * 2 * u + product[2 * t] * power
        power *= v
    den = v ** (top + k // 2 + l // 2)
    return Fraction(2 * total, den)
