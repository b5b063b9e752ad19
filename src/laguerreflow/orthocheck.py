"""Exact symbolic verification of the orthogonality relations.

Every integral here is (polynomial) x (fixed weight), so linearity plus
closed-form monomial moments give exact answers: no quadrature, no floats.
Polynomials and moments are integer numerators over one denominator per entry.
Values are rational multiples of a single base constant per weight, kept as
an explicit tag so incompatible constants can never be summed by accident.

A table of the inner products of P_0, ..., P_T is read off moment rows. The
row of P_n is row_n[j] = sum_i P_n[i] * mu_(i+j), the moments of x^j * P_n,
formed once; entry (n, m) is then sum_j P_m[j] * row_n[j]. So a table costs
O(T^3) integer products, where expanding each product P_n * P_m would cost
O(T^4). Every moment of a table is scaled to the denominator of its highest
order 2T, so one row serves all the entries of its row without rescaling.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .basis import AlphaParam, XiParam, _hermite_ints, _monic_laguerre_ints


class MomentBase(enum.Enum):
    """Base constant a moment value multiplies."""

    GAMMA_ALPHA_PLUS_1 = "gamma_alpha_plus_1"  # Gamma(alpha+1)
    SQRT_PI_XI = "sqrt_pi_xi"  # sqrt(pi*xi)


@dataclass(frozen=True)
class MomentValue:
    """Exact value of a weighted integral: ``coeff`` times the base constant.

    The tag keeps values over different constants apart; a zero coefficient
    represents the zero value regardless of tag.
    """

    coeff: Fraction
    base: MomentBase

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0


def laguerre_moment(m: int, alpha: AlphaParam) -> MomentValue:
    """Moment of x^m against x^alpha * e^(-x) on (0, inf).

    The value is Gamma(m+alpha+1), expressed via the Gamma recurrence as
    prod_{i=1}^{m} (alpha+i) times Gamma(alpha+1), formed over the integers
    as prod_{i=1}^{m} (a + i*b) / b^m for alpha = a/b.
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    a, b = alpha.value.as_integer_ratio()
    coeff = Fraction(math.prod(a + i * b for i in range(1, m + 1)), b**m)
    return MomentValue(coeff, MomentBase.GAMMA_ALPHA_PLUS_1)


def _laguerre_moments(top: int, a: int, b: int) -> list[int]:
    """mu_k = prod_{i<=k}(a + i*b) * b^(2*top - k) for k <= 2*top.

    mu_k / b^(2*top) is the moment prod_{i=1}^{k}(alpha+i) of x^k, alpha = a/b.
    """
    moments, rising = [], 1
    for k in range(2 * top + 1):
        moments.append(rising * b ** (2 * top - k))
        rising *= a + (k + 1) * b
    return moments


def _hermite_moments(top: int, u: int, v: int) -> list[int]:
    """mu_(2t) = (2t-1)!! * (2u)^t * v^(top - t) for 2t <= 2*top, and mu_o = 0 for odd o.

    2 * mu_(2t) / v^top is the moment of x^(2t) in units of sqrt(pi*xi), xi = u/v;
    odd moments vanish by symmetry.
    """
    moments, scaled = [0] * (2 * top + 1), 1
    for t in range(top + 1):
        moments[2 * t] = scaled * v ** (top - t)
        scaled *= (2 * t + 1) * 2 * u
    return moments


def _xi_ratio(xi: XiParam) -> tuple[int, int]:
    if xi.value <= 0:
        raise ValueError(f"xi must be positive for an integrable weight, got {xi.value}")
    return xi.value.as_integer_ratio()


def _dot(p: Iterable[int], q: Iterable[int]) -> int:
    return sum(map(operator.mul, p, q))


def _moment_row(p: list[int], moments: list[int], length: int) -> list[int]:
    """row[j] = sum_i p[i] * mu_(i+j) for j < length: the moments of x^j * p."""
    return [_dot(p, itertools.islice(moments, j, None)) for j in range(length)]


def _gram(polys: list[list[int]], moments: list[int]) -> dict[tuple[int, int], int]:
    """sum_j polys[m][j] * row_n[j] for n <= m, from one moment row per polynomial n."""
    top = len(polys) - 1
    gram = {}
    for n, p in enumerate(polys):
        row = _moment_row(p, moments, top + 1)
        for m in range(n, top + 1):
            gram[n, m] = _dot(polys[m], row)
    return gram


def _laguerre_value(n: int, m: int, top: int, b: int, total: int) -> MomentValue:
    if not total:  # a zero entry needs no denominator
        return MomentValue(Fraction(0), MomentBase.GAMMA_ALPHA_PLUS_1)
    den = (-1) ** (n + m) * math.factorial(n) * math.factorial(m) * b ** (n + m + 2 * top)
    return MomentValue(Fraction(total, den), MomentBase.GAMMA_ALPHA_PLUS_1)


def _hermite_value(k: int, l: int, top: int, v: int, total: int) -> MomentValue:
    if not total:
        return MomentValue(Fraction(0), MomentBase.SQRT_PI_XI)
    return MomentValue(Fraction(2 * total, v ** (top + k // 2 + l // 2)), MomentBase.SQRT_PI_XI)


def laguerre_inner(n: int, m: int, alpha: AlphaParam) -> MomentValue:
    """Inner product of the degree-n and degree-m Laguerre polynomials.

    The moment row of the degree-n polynomial, dotted with the degree-m one.
    The exact diagonal is prod_{i=1}^{n}(alpha+i) / n! in units of
    Gamma(alpha+1), and off-diagonal entries are exactly zero.
    """
    a, b = alpha.value.as_integer_ratio()
    p, q = _monic_laguerre_ints(n, a, b), _monic_laguerre_ints(m, a, b)
    top = max(n, m)
    total = _dot(q, _moment_row(p, _laguerre_moments(top, a, b), m + 1))
    return _laguerre_value(n, m, top, b, total)


def hermite_inner(k: int, l: int, xi: XiParam) -> MomentValue:
    """Inner product of the degree-k and degree-l scaled Hermite polynomials.

    Off-diagonal entries are exactly zero; the computed diagonal is
    2 * k! * (2*xi)^k in units of sqrt(pi*xi).
    """
    u, v = _xi_ratio(xi)
    p, q = _hermite_ints(k, u, v), _hermite_ints(l, u, v)
    top = max(k, l)
    total = _dot(q, _moment_row(p, _hermite_moments(top, u, v), l + 1))
    return _hermite_value(k, l, top, v, total)


def laguerre_table(top: int, alpha: AlphaParam) -> dict[tuple[int, int], MomentValue]:
    """laguerre_inner(n, m, alpha) for 0 <= n <= m <= top, in row order."""
    a, b = alpha.value.as_integer_ratio()
    polys = [_monic_laguerre_ints(n, a, b) for n in range(top + 1)]
    gram = _gram(polys, _laguerre_moments(top, a, b))
    return {(n, m): _laguerre_value(n, m, top, b, total) for (n, m), total in gram.items()}


def hermite_table(top: int, xi: XiParam) -> dict[tuple[int, int], MomentValue]:
    """hermite_inner(k, l, xi) for 0 <= k <= l <= top, in row order."""
    u, v = _xi_ratio(xi)
    polys = [_hermite_ints(k, u, v) for k in range(top + 1)]
    gram = _gram(polys, _hermite_moments(top, u, v))
    return {(k, l): _hermite_value(k, l, top, v, total) for (k, l), total in gram.items()}


def laguerre_diagonal(n: int, alpha: AlphaParam) -> Fraction:
    """Exact Laguerre diagonal prod_{i=1}^{n}(alpha+i) / n!, in units Gamma(alpha+1)."""
    return laguerre_moment(n, alpha).coeff / math.factorial(n)


def hermite_diagonal(k: int, xi: XiParam) -> Fraction:
    """Exact Hermite diagonal 2 * k! * (2*xi)^k, in units sqrt(pi*xi)."""
    return hermite_diagonal_reference(k) * (2 * xi.value) ** k


def hermite_diagonal_reference(k: int) -> Fraction:
    """Coefficient 2*k! of the nominal diagonal normalization, in units sqrt(pi*xi).

    The exactly computed diagonal is (2*xi)^k times this; the ratio is
    reported rather than patched over.
    """
    return Fraction(2 * math.factorial(k))
