"""Exact symbolic verification of the orthogonality relations.

Every integral here is (polynomial) x (fixed weight), so linearity plus
closed-form monomial moments give exact answers: no quadrature, no floats.
Products and moments are integer numerators over one denominator per entry.
Values are rational multiples of a single base constant per weight, kept as
an explicit tag so incompatible constants can never be summed by accident.
"""

from __future__ import annotations

import enum
import math
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
    prod_{i=1}^{m} (alpha+i) times Gamma(alpha+1).
    """
    if m < 0:
        raise ValueError("moment order must be nonnegative")
    coeff = Fraction(1)
    for i in range(1, m + 1):
        coeff *= alpha.value + i
    return MomentValue(coeff, MomentBase.GAMMA_ALPHA_PLUS_1)


def _int_product(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, c in enumerate(q):
                out[i + j] += a * c
    return out


def laguerre_inner(n: int, m: int, alpha: AlphaParam) -> MomentValue:
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
    return MomentValue(Fraction(total, den), MomentBase.GAMMA_ALPHA_PLUS_1)


def hermite_inner(k: int, l: int, xi: XiParam) -> MomentValue:
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
    return MomentValue(Fraction(2 * total, den), MomentBase.SQRT_PI_XI)


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
