"""Exact symbolic verification of the orthogonality relations.

Every integral here is (polynomial) x (fixed weight), so linearity plus
closed-form monomial moments give exact answers: no quadrature, no floats.
Polynomials and moments are integer numerators over one denominator per entry.
An entry is a Fraction: the value in units of its family's one base constant,
Gamma(alpha+1) for Laguerre and sqrt(pi*xi) for Hermite, which the report
names beside it.

Both families go through one table builder. A family supplies its integer
polynomials P_0, ..., P_T with the denominator of each, read off its integer
lead, and its moments mu_k over their common denominator, that of the highest
order 2T, so one row serves all the entries of its row without rescaling. The
row of P_n is row_n[j] = sum_i P_n[i] * mu_(i+j), the moments of x^j * P_n,
formed once; entry (n, m) is then sum_j P_m[j] * row_n[j] over the product of
the three denominators. So a table costs O(T^3) integer products, where
expanding each product P_n * P_m would cost O(T^4).
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .basis import AlphaParam, XiParam, _hermite_ints, _laguerre_den, _monic_laguerre_ints


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
    """mu_(2t) = 2 * (2t-1)!! * (2u)^t * v^(top - t) for 2t <= 2*top, and mu_o = 0 for odd o.

    mu_(2t) / v^top is the moment of x^(2t) in units of sqrt(pi*xi), xi = u/v;
    odd moments vanish by symmetry.
    """
    moments, scaled = [0] * (2 * top + 1), 2
    for t in range(top + 1):
        moments[2 * t] = scaled * v ** (top - t)
        scaled *= (2 * t + 1) * 2 * u
    return moments


def _dot(p: Iterable[int], q: Iterable[int]) -> int:
    return sum(map(operator.mul, p, q))


def _table(
    polys: list[list[int]], dens: list[int], moments: list[int], moment_den: int
) -> dict[tuple[int, int], Fraction]:
    """Entry (n, m), n <= m, is total / (moment_den * dens[n] * dens[m]), in row order.

    P_n = polys[n] / dens[n] and the moment of x^k is moments[k] / moment_den.
    total = sum_j polys[m][j] * row_n[j], where row_n[j] = sum_i polys[n][i] *
    mu_(i+j), the moments of x^j * polys[n], is formed once and serves the
    whole row. A zero total needs no denominator.
    """
    size = len(polys)
    table = {}
    for n, p in enumerate(polys):
        row = [_dot(p, itertools.islice(moments, j, None)) for j in range(size)]
        for m in range(n, size):
            total = _dot(polys[m], row)
            table[n, m] = Fraction(total, moment_den * dens[n] * dens[m]) if total else Fraction(0)
    return table


def laguerre_table(top: int, alpha: AlphaParam) -> dict[tuple[int, int], Fraction]:
    """Inner products of the Laguerre polynomials of degrees n <= m <= top, in row order.

    The exact diagonal is prod_{i=1}^{n}(alpha+i) / n! in units of
    Gamma(alpha+1), and off-diagonal entries are exactly zero.
    """
    a, b = alpha.value.as_integer_ratio()
    polys = [_monic_laguerre_ints(n, a, b) for n in range(top + 1)]
    dens = [_laguerre_den(n, p) for n, p in enumerate(polys)]
    return _table(polys, dens, _laguerre_moments(top, a, b), b ** (2 * top))


def hermite_table(top: int, xi: XiParam) -> dict[tuple[int, int], Fraction]:
    """Inner products of the scaled Hermite polynomials of degrees k <= l <= top, in row order.

    Off-diagonal entries are exactly zero; the computed diagonal is
    2 * k! * (2*xi)^k in units of sqrt(pi*xi).
    """
    if xi.value <= 0:
        raise ValueError(f"xi must be positive for an integrable weight, got {xi.value}")
    u, v = xi.value.as_integer_ratio()
    polys = [_hermite_ints(k, u, v) for k in range(top + 1)]
    return _table(polys, [p[-1] for p in polys], _hermite_moments(top, u, v), v**top)


def laguerre_diagonal(n: int, alpha: AlphaParam) -> Fraction:
    """Exact Laguerre diagonal prod_{i=1}^{n}(alpha+i) / n!, in units Gamma(alpha+1)."""
    a, b = alpha.value.as_integer_ratio()
    return Fraction(math.prod(a + i * b for i in range(1, n + 1)), b**n * math.factorial(n))


def hermite_diagonal(k: int, xi: XiParam) -> Fraction:
    """Exact Hermite diagonal 2 * k! * (2*xi)^k, in units sqrt(pi*xi)."""
    return hermite_diagonal_reference(k) * (2 * xi.value) ** k


def hermite_diagonal_reference(k: int) -> Fraction:
    """Coefficient 2*k! of the nominal diagonal normalization, in units sqrt(pi*xi).

    The exactly computed diagonal is (2*xi)^k times this; the ratio is
    reported rather than patched over.
    """
    return Fraction(2 * math.factorial(k))
