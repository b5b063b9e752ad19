"""Exact dense univariate polynomial arithmetic over the rationals.

A polynomial is its integer numerators, ascending with a nonzero top one, over
one denominator den > 0 with gcd(den, *nums) = 1: the lcm form, as in FLINT's
``fmpq_poly``. The zero polynomial is the empty tuple over 1. Every operation
is exact: no floating point enters anywhere, so polynomial identity tests are
fully reliable, and equal polynomials are equal pairs.

The kernels in ``basis`` and ``realroot`` read ``Poly.nums`` and ``den``, and
hand their integers back to ``Poly._from_ints``, which normalizes them by one
gcd; ``coeffs`` builds the Fractions on first read. ``_taylor_shift`` shifts
integer numerators by u/v for the lemma windows: it scales them by powers of
v, shifts them by the integer u, and leaves the result over the one denominator v^n.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

# Most digits, and largest exponent magnitude, a rational literal may have.
LITERAL_DIGITS = 4300
# Highest degree a polynomial literal, or a randomized batch, may have.
LITERAL_DEGREE = 1000

# The grammar of a rational literal is the package's, not the interpreter's:
# Fraction reads "1_000" from Python 3.11 and "2 / 3" from 3.12. Groups: the
# digits of p/q, or of a decimal's integer part, fraction and exponent.
_RATIONAL = re.compile(r"[-+]?(?:(\d+)/(\d+)|(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE][-+]?(\d+))?)")


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" / decimal / integer string, or Fraction to a Fraction.

    Floats are rejected: they would silently smuggle rounding error into a
    kernel whose whole point is exactness. A string, stripped, must match
    ``_RATIONAL`` and have at most LITERAL_DIGITS digits, and its exponent,
    without leading zeros, at most 4 digits and magnitude LITERAL_DIGITS.
    Lengths are read before any ``int()``, so the bound holds whatever the
    interpreter's int-to-str limit is; without it "1e1000000000" would make
    ``Fraction`` compute 10**1000000000. A group longer than a limit set
    below the bound is refused by a message naming that limit.
    """
    if isinstance(value, float):
        raise TypeError("floating-point values are not accepted; pass a Fraction or 'p/q' string")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {type(value).__name__} as a rational")
    match = _RATIONAL.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"malformed rational literal {value!r}")
    digits, exponent = sum(map(len, match.groups(""))), (match[5] or "").lstrip("0")
    if digits > LITERAL_DIGITS or len(exponent) > 4 or int(exponent or 0) > LITERAL_DIGITS:
        raise ValueError(
            f"rational literal exceeds the bound of {LITERAL_DIGITS} digits"
            f" and exponent magnitude {LITERAL_DIGITS}"
        )
    # Fraction reads each group by int(), which refuses more digits than the limit.
    limit, longest = sys.get_int_max_str_digits(), max(map(len, match.groups("")))
    if limit and longest > limit:
        raise ValueError(
            f"rational literal holds a {longest}-digit integer, past the interpreter's"
            f" int-to-str limit of {limit} digits (sys.set_int_max_str_digits)"
        )
    try:
        return Fraction(match[0])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational literal {value!r}") from exc


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``nums[i] / den`` is the coefficient of x^i. Instances are immutable and
    normalized on construction to the lcm form; the zero polynomial is
    ``((), 1)``, and its degree is deliberately undefined.
    """

    nums: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        stored = Poly._from_ints(*_over_lcm([to_rational(c) for c in coeffs]))
        object.__setattr__(self, "nums", stored.nums)
        object.__setattr__(self, "den", stored.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_ints(cls, nums: Iterable[int], den: int) -> "Poly":
        """sum nums[i] * x^i / den for a nonzero den, normalized by one gcd and den's sign."""
        ns = list(nums)
        while ns and ns[-1] == 0:
            ns.pop()
        g = -math.gcd(den, *ns) if den < 0 else math.gcd(den, *ns)
        self = object.__new__(cls)
        object.__setattr__(self, "nums", tuple([c // g for c in ns]) if g != 1 else tuple(ns))
        object.__setattr__(self, "den", den // g)
        return self

    @staticmethod
    def from_roots(roots: Sequence[tuple[RationalLike, int]], lead: RationalLike = 1) -> "Poly":
        """lead * prod (x - r)^m over the given (root, multiplicity) pairs.

        Each root a/b multiplies integer numerators by (b*x - a) and the
        denominator by b.
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
        return Poly._from_ints(nums, den)

    # -- basic structure ----------------------------------------------

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending; built on first read."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    def __bool__(self) -> bool:
        return bool(self.nums)

    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.nums:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.nums) - 1

    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x^i (zero beyond the degree)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

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
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
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


def _over_lcm(values: Sequence[Union[Fraction, int]]) -> tuple[list[int], int]:
    """(nums, d) with values[i] = nums[i] / d and d the lcm of the denominators."""
    # Lists, not generators (here and in Poly): a tuple built from a generator
    # is resized from 10 slots, which fills CPython's tuple free lists over a run.
    d = math.lcm(*[c.denominator for c in values])
    return [c.numerator * (d // c.denominator) for c in values], d


def _taylor_shift(nums: Sequence[int], u: int, v: int) -> list[int]:
    """N with sum nums[i] (x + u/v)^i = sum N_j x^j / v^n, for v > 0 and n = len(nums) - 1.

    The integers G_i = nums[i] v^(n-i) give G(v*x) = v^n * sum nums[i] x^i,
    so shifting G by the integer u yields H with N_j = H_j v^j.
    """
    n = len(nums) - 1
    cs = [num * v ** (n - i) for i, num in enumerate(nums)]
    # Taylor shift by u: pass i leaves the coefficient of y^i final.
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            cs[j] += u * cs[j + 1]
    return [c * v**j for j, c in enumerate(cs)]


# -- JSON polynomial literals ------------------------------------------------
#
# Two accepted shapes, used by the CLI and test fixtures:
#   {"coeffs": ["a0", "a1", ...]}            ascending degree, rationals as strings
#   {"roots": [["r1", m1], ...], "lead": "c"} meaning c * prod (x - r_i)^{m_i}
# The first key present names the form, and any key its form does not read is refused.
_FORM_KEYS = {"coeffs": ("coeffs",), "roots": ("roots", "lead")}


def _literal_rational(value: object, what: str) -> Fraction:
    """A rational from a decoded literal; JSON true/false, floats and null are refused."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a rational, not JSON {json.dumps(value)}")
    try:
        return to_rational(value)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _check_literal_degree(degree: int) -> None:
    if degree > LITERAL_DEGREE:
        raise ValueError(f"polynomial literal exceeds the degree bound of {LITERAL_DEGREE}")


def parse_poly_literal(literal: Union[str, dict]) -> Poly:
    """Parse a polynomial literal given as a JSON string or decoded object."""
    if isinstance(literal, str):
        try:
            # A JSON integer (a multiplicity) obeys the rational literal bound.
            obj = json.loads(literal, parse_int=lambda text: int(to_rational(text)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"polynomial literal is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError("polynomial literal nests too deeply") from exc
    else:
        obj = literal
    if not isinstance(obj, dict):
        raise ValueError("polynomial literal must be a JSON object")
    form = next((key for key in _FORM_KEYS if key in obj), None)
    if form is None:
        raise ValueError("polynomial literal needs a 'coeffs' or 'roots' key")
    unread = [key for key in obj if key not in _FORM_KEYS[form]]
    if unread:
        raise ValueError(f"polynomial literal in {form!r} form does not read {unread}")
    if form == "coeffs":
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise ValueError("'coeffs' must be a list of rational strings")
        _check_literal_degree(len(coeffs) - 1)
        return Poly([_literal_rational(c, "coefficient") for c in coeffs])
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
    return Poly.from_roots(pairs, lead=lead)


def poly_literal(f: Poly) -> dict:
    """Serialize a polynomial to its canonical coefficient-form literal."""
    return {"coeffs": [str(c) for c in f.coeffs]}
