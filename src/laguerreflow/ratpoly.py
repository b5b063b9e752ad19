"""Exact dense univariate polynomial arithmetic over the rationals.

A polynomial is a tuple of ``fractions.Fraction`` coefficients in ascending
degree order with no trailing zeros; the zero polynomial is the empty tuple.
Every operation is exact: no floating point enters anywhere, so polynomial
identity tests are fully reliable.

``Poly.numerators`` (integer numerators over the least common denominator) is
the one integer view that the kernels in ``basis`` and ``realroot`` start from.
``from_roots`` and ``shift`` work on integer coefficient lists, not on Poly
products: ``shift`` by u/v is an integer Taylor shift by u of the numerators
scaled by powers of v, and builds one Fraction per coefficient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Most digits, and largest exponent magnitude, a rational literal may have.
LITERAL_DIGITS = 4300
# Highest degree a polynomial literal, or a randomized batch, may have.
LITERAL_DEGREE = 1000


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" / decimal / integer string, or Fraction to a Fraction.

    Floats are rejected: they would silently smuggle rounding error into a
    kernel whose whole point is exactness. Strings are held to the literal
    bound before they are parsed.
    """
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; pass a Fraction or 'p/q' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_literal_size(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational literal {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _check_literal_size(text: str) -> None:
    """Refuse a literal with more than LITERAL_DIGITS digits or an exponent above it.

    It counts characters, so it holds whatever the interpreter's int-to-str
    limit is set to; without it "1e1000000000" would make
    ``Fraction`` compute 10**1000000000.
    """
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if sum(ch.isdecimal() for ch in text) > LITERAL_DIGITS or (
        exponent.isdecimal()
        and (len(exponent) > len(str(LITERAL_DIGITS)) or int(exponent) > LITERAL_DIGITS)
    ):
        raise ValueError(
            f"rational literal exceeds the bound of {LITERAL_DIGITS} digits"
            f" and exponent magnitude {LITERAL_DIGITS}"
        )


def approx_str(q: Fraction) -> str:
    """Decimal approximation of a rational to 12 significant digits, for display only."""
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(q.numerator) / Decimal(q.denominator))


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of x^i. Instances are immutable and
    normalized on construction: the leading coefficient is nonzero, and the
    zero polynomial is the empty tuple (its degree is deliberately undefined).
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [to_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def from_roots(roots: Sequence[tuple[RationalLike, int]], lead: RationalLike = 1) -> "Poly":
        """lead * prod (x - r)^m over the given (root, multiplicity) pairs.

        Each root a/b multiplies integer numerators by (b*x - a) and the
        denominator by b, so every coefficient becomes a Fraction once.
        """
        num, den = to_rational(lead).as_integer_ratio()
        if num == 0:
            raise ValueError("leading coefficient must be nonzero")
        nums = [num]
        for root, mult in roots:
            if mult < 1:
                raise ValueError("root multiplicity must be a positive integer")
            a, b = to_rational(root).as_integer_ratio()
            for _ in range(mult):
                nums.append(0)
                for i in range(len(nums) - 1, 0, -1):
                    nums[i] = b * nums[i - 1] - a * nums[i]
                nums[0] *= -a
            den *= b**mult
        return Poly([Fraction(c, den) for c in nums])

    # -- basic structure ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def numerators(self) -> tuple[list[int], int]:
        """(nums, d) with f = sum nums[i] * x^i / d and d the least common denominator."""
        d = math.lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (d // c.denominator) for c in self.coeffs], d

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Poly", RationalLike]) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        s = to_rational(other)
        return Poly(tuple(c * s for c in self.coeffs))

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self.__mul__(other)

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate at a rational point by Horner's rule."""
        point = to_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    # -- substitution -------------------------------------------------

    def shift(self, c: RationalLike) -> "Poly":
        """Compose with x -> x + c, i.e. return f(x + c).

        With f = sum N_i x^i / d and c = u/v, the integers G_i = N_i v^(n-i)
        give G(v*x) = d * v^n * f(x), so shifting G by the integer u yields
        h_j with f(x + c) = sum h_j x^j / (d * v^(n-j)).
        """
        offset = to_rational(c)
        if offset == 0 or not self.coeffs:
            return self
        u, v = offset.as_integer_ratio()
        nums, d = self.numerators()
        n = len(nums) - 1
        cs = [num * v ** (n - i) for i, num in enumerate(nums)]
        # Taylor shift by u: pass i leaves the coefficient of y^i final.
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                cs[j] += u * cs[j + 1]
        return Poly([Fraction(h, d * v ** (n - j)) for j, h in enumerate(cs)])

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                head = "" if mag == 1 else f"{mag}*"
                term = f"{head}x" if i == 1 else f"{head}x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# -- JSON polynomial literals ------------------------------------------------
#
# Two accepted shapes, used by the CLI and test fixtures:
#   {"coeffs": ["a0", "a1", ...]}            ascending degree, rationals as strings
#   {"roots": [["r1", m1], ...], "lead": "c"} meaning c * prod (x - r_i)^{m_i}


def _literal_rational(value: object, what: str) -> Fraction:
    """A rational from a decoded literal; JSON true/false, floats and null are refused."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a rational, not JSON {json.dumps(value)}")
    try:
        return to_rational(value)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _bounded_int(text: str) -> int:
    _check_literal_size(text)
    return int(text)


def _check_literal_degree(degree: int) -> None:
    if degree > LITERAL_DEGREE:
        raise ValueError(f"polynomial literal exceeds the degree bound of {LITERAL_DEGREE}")


def parse_poly_literal(literal: Union[str, dict]) -> Poly:
    """Parse a polynomial literal given as a JSON string or decoded object."""
    if isinstance(literal, str):
        try:
            obj = json.loads(literal, parse_int=_bounded_int)
        except json.JSONDecodeError as exc:
            raise ValueError(f"polynomial literal is not valid JSON: {exc}") from exc
    else:
        obj = literal
    if not isinstance(obj, dict):
        raise ValueError("polynomial literal must be a JSON object")
    if "coeffs" in obj and "roots" in obj:
        raise ValueError("polynomial literal must use either 'coeffs' or 'roots', not both")
    if "coeffs" in obj:
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise ValueError("'coeffs' must be a list of rational strings")
        _check_literal_degree(len(coeffs) - 1)
        return Poly([_literal_rational(c, "coefficient") for c in coeffs])
    if "roots" in obj:
        roots = obj["roots"]
        if not isinstance(roots, list):
            raise ValueError("'roots' must be a list of [root, multiplicity] pairs")
        pairs = []
        for entry in roots:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValueError("each root entry must be a [root, multiplicity] pair")
            root, mult = entry
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                raise ValueError("root multiplicity must be a positive integer")
            pairs.append((_literal_rational(root, "root"), mult))
        _check_literal_degree(sum(mult for _, mult in pairs))
        lead = _literal_rational(obj.get("lead", 1), "'lead'")
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        return Poly.from_roots(pairs, lead=lead)
    raise ValueError("polynomial literal needs a 'coeffs' or 'roots' key")


def poly_literal(f: Poly) -> dict:
    """Serialize a polynomial to its canonical coefficient-form literal."""
    return {"coeffs": [str(c) for c in f.coeffs]}
