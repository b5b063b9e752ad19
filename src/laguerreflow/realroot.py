"""Exact real-root counting, certification, and isolation via Sturm chains.

Every query on a polynomial f goes through one prepared root context. It runs
one signed primitive pseudo-remainder sequence over the integers on (f, f'):
each step scales the dividend by a power of |lc| of the divisor (positive,
where lc^k can be negative), takes the remainder, negates it and divides out
its integer content, so each element has the evaluation signs of the signed
Euclidean remainder over the rationals (Collins 1967; Basu-Pollack-Roy,
ch. 8). The last element is gcd(f, f') up to a constant, and f divided by it
is the square-free part g: the distinct roots of f, all simple. When the gcd
is constant the sequence already is g's Sturm chain; otherwise g gets one
more run. Counts are sign-variation differences of that chain, evaluated with
integer arithmetic only. Intervals follow the half-open convention:
count_real_roots(f, lo, hi) counts distinct real roots in (lo, hi].

Isolation returns the cells that bisection of (-M, M], M = p/q the strict
Cauchy bound of g, ends in: Sturm counts split an interval while it holds two
or more roots, the variation counts at both ends riding along, and the sign of
g then narrows a one-root interval down to the width. A midpoint on a root is
nudged off it; every interval no nudge has moved lies on the dyadic grid of
its depth, so the width test first passes at one depth for all of them.

One float pass proposes every root: Laguerre's method with deflation, then
Newton steps on g. A proposal names a cell of that final grid, and two exact
signs confirm it: g nonzero at its edges, with opposite signs. If an
interval's Sturm count equals the number n of confirmed cells inside it, each
cell holds exactly one root and no other root lies in the interval, so no grid
point down to the final depth is a root, nothing is nudged, and bisection ends
in those cells: isolation returns them at once. Every other interval, one
where a proposal is missing or failed or one below a nudge, takes the Sturm
split and the bisection by sign. The chain's count stays the oracle: more
confirmed cells than it raises ArithmeticError.

A midpoint past an exact root bound (Kioustelidis, rounded up to a power of
two by integer shifts) needs no evaluation at all: no root lies at or beyond
it, so one half is empty, the other keeps the counts, and g has there the sign
it has at the matching infinity.

Endpoints are integer numerators over q*2^j, and g (the rest of the chain
when a split first needs it) is rewritten in y = q*x, so every evaluation is
at a dyadic point and scales by shifts. Fractions are built only for the
output.

The largest-root enclosure is the cell that bisection of (0, M] on symmetric
root counts (distinct roots in [-r, r]) ends in: on the grid of the first
depth whose cells fit the width, the one cell (lo, hi] with a root outside
[-lo, lo] and all of them in [-hi, hi]. The chain is rewritten in y = q*x
once. The float pass on g proposes max |root|; counts at its grid point and
at the neighbour on the root's side close the bracket to that cell, and
bisection on integer numerators finishes whatever bracket a wrong proposal
leaves, so the cell is the same either way.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ratpoly import Poly, RationalLike, approx_str, to_rational

DEFAULT_WIDTH = Fraction(1, 2**20)

# Integer polynomial, ascending degree, no trailing zeros.
Ints = tuple[int, ...]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _sign_at(ints: Ints, num: int, den: int) -> int:
    """Sign of the integer polynomial at num/den (den > 0), by scaled Horner."""
    acc = ints[-1]
    dp = 1
    for c in reversed(ints[:-1]):
        dp *= den
        acc = acc * num + c * dp
    return _sign(acc)


def _sign_at_dyadic(ints: Ints, num: int, shift: int) -> int:
    """Sign of the integer polynomial at num/2^shift, by scaled Horner with shifts."""
    acc = ints[-1]
    scale = 0
    for c in reversed(ints[:-1]):
        scale += shift
        acc = acc * num + (c << scale)
    return _sign(acc)


def _positive_root_bound(ints: Ints) -> int:
    """A power of two, at least 1, above every positive root, or 0 when there is none.

    Kioustelidis: a root y > 0 is below 2 * max (|a_{d-i}|/|lc|)^(1/i) over the
    coefficients a_{d-i} of sign opposite to lc. Each term is rounded up to
    2^t, the least t with |lc| * 2^(t*i) >= |a_{d-i}|, by shifts alone.
    """
    d = len(ints) - 1
    lc = abs(ints[-1])
    up = ints[-1] > 0
    top = None
    for i in range(1, d + 1):
        c = ints[d - i]
        if c == 0 or (c > 0) == up:
            continue
        c = abs(c)
        e = c.bit_length() - lc.bit_length()  # |lc| * 2^e >= |c| for e or e + 1
        if (lc << e if e >= 0 else lc) < (c if e >= 0 else c << -e):
            e += 1
        t = -(-e // i)
        top = t if top is None else max(top, t)
    return 0 if top is None else 1 << max(top + 1, 0)


def _float_roots(desc: list[float], x: float, tol: float) -> list[float]:
    """Floats near the real roots of the polynomial, coefficients descending.

    Laguerre's method from x, left of every root, converges to the least root
    of a real-rooted polynomial; forward deflation by each root found is
    stable in that order when the roots are positive. Up to three Newton
    steps on the polynomial itself then polish each root. The results only
    propose; exact signs decide.
    """
    roots, poly = [], desc
    try:
        # Each search starts from the last root found, left of those remaining.
        while len(poly) > 1:
            n = len(poly) - 1
            for _ in range(32):
                v, dv, d2v = poly[0], 0.0, 0.0
                for c in poly[1:]:
                    d2v = d2v * x + dv
                    dv = dv * x + v
                    v = v * x + c
                if v == 0:
                    break
                grad = dv / v
                disc = (n - 1) * (n * (grad * grad - 2 * d2v / v) - grad * grad)
                root = math.sqrt(disc) if disc > 0 else 0.0
                step = n / (grad + root if grad >= 0 else grad - root)
                x -= step
                if not abs(step) > tol:  # a NaN step stops too
                    break
            roots.append(x)
            deflated = [poly[0]]
            for c in poly[1:-1]:
                deflated.append(c + x * deflated[-1])
            poly = deflated
    except ZeroDivisionError:
        pass
    for i, r in enumerate(roots):
        for _ in range(3):
            v, dv = desc[0], 0.0
            for c in desc[1:]:
                dv = dv * r + v
                v = v * r + c
            if not dv:
                break
            step = v / dv
            r -= step
            if not abs(step) > tol:
                break
        roots[i] = r
    return roots


def _variations(signs: list[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _variations_at(chain: tuple[Ints, ...], x: Optional[Fraction], positive: bool) -> int:
    """Sign variations of the chain at x; None is the infinity on the ``positive`` side."""
    if x is not None:
        num, den = x.numerator, x.denominator
        return _variations([_sign_at(ints, num, den) for ints in chain])
    signs = []
    for ints in chain:
        lead = _sign(ints[-1])
        if not positive and (len(ints) - 1) % 2:
            lead = -lead
        signs.append(lead)
    return _variations(signs)


def _count(chain: tuple[Ints, ...], lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
    return _variations_at(chain, lo, False) - _variations_at(chain, hi, True)


def _primitive(coeffs: list[int]) -> Ints:
    """Divide out the (positive) content; signs are unchanged."""
    content = math.gcd(*coeffs)
    return tuple(c // content for c in coeffs)


def _neg_prem(a: Ints, b: Ints) -> list[int]:
    """Minus the pseudo-remainder of a by b, scaled by a power of |lc(b)|.

    The factor is positive, so the result has the signs of -rem(a, b) at every
    point; scaling by lc(b)^k instead would flip them whenever lc(b) < 0 and k
    is odd. An empty list means b divides a.
    """
    r = list(a)
    db = len(b) - 1
    scale, sgn = abs(b[-1]), _sign(b[-1])
    lower = b[:-1]
    for shift in range(len(r) - 1 - db, -1, -1):
        t = r.pop() * sgn
        if t == 0:
            continue
        if scale != 1:
            r = [c * scale for c in r]
        for j, c in enumerate(lower):
            r[shift + j] -= t * c
    while r and r[-1] == 0:
        r.pop()
    return [-c for c in r]


def _sturm_sequence(p: Ints) -> list[Ints]:
    """Signed primitive remainder sequence of (p, p').

    Its last element is gcd(p, p') up to a constant factor.
    """
    seq = [p]
    derivative = [i * c for i, c in enumerate(p)][1:]
    if derivative:
        seq.append(_primitive(derivative))
        while True:
            r = _neg_prem(seq[-2], seq[-1])
            if not r:
                break
            seq.append(_primitive(r))
    return seq


def _exact_quotient(a: Ints, b: Ints) -> Ints:
    """a / b for primitive a, b with b | a; the quotient is integral by Gauss's lemma."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * (len(r) - db)
    for shift in range(len(quot) - 1, -1, -1):
        q = r.pop() // lead
        quot[shift] = q
        for j, c in enumerate(b[:-1]):
            r[shift + j] -= q * c
    assert not any(r), "inexact polynomial division"
    return tuple(quot)


def _positive_lead(p: Ints) -> Ints:
    return p if p[-1] > 0 else tuple(-c for c in p)


def _validated_bounds(
    lo: Optional[RationalLike], hi: Optional[RationalLike]
) -> tuple[Optional[Fraction], Optional[Fraction]]:
    lo_q = to_rational(lo) if lo is not None else None
    hi_q = to_rational(hi) if hi is not None else None
    if lo_q is not None and hi_q is not None and not lo_q < hi_q:
        raise ValueError(f"empty interval: lo={lo_q} must be < hi={hi_q}")
    return lo_q, hi_q


def count_real_roots(
    f: Poly, lo: Optional[RationalLike] = None, hi: Optional[RationalLike] = None
) -> int:
    """Number of distinct real roots of f in (lo, hi]; None for an infinite end.

    Counting runs on the square-free part, so multiplicities never inflate the
    result and endpoints that happen to be multiple roots stay well-defined.
    """
    if f.is_zero:
        raise ValueError("root counting on the zero polynomial is undefined")
    lo_q, hi_q = _validated_bounds(lo, hi)
    return _RootContext(f).count(lo_q, hi_q)


def count_real_roots_open(f: Poly, lo: RationalLike, hi: RationalLike) -> int:
    """Distinct real roots in the open interval (lo, hi), finite endpoints."""
    if f.is_zero:
        raise ValueError("root counting on the zero polynomial is undefined")
    lo_q, hi_q = _validated_bounds(lo, hi)
    return _RootContext(f).count_open(lo_q, hi_q)


def _cauchy_bound(ints: Sequence[int]) -> Fraction:
    """Strict Cauchy bound M = 1 + max |a_i/a_d| of a nonconstant integer polynomial.

    Every root satisfies |root| < M. M is the same for every nonzero multiple
    of the polynomial, so the integers of any such multiple give it.
    """
    lead = abs(ints[-1])
    return Fraction(lead + max(abs(c) for c in ints[:-1]), lead)


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open rational interval (lo, hi] containing exactly one distinct root."""

    lo: Fraction
    hi: Fraction

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def approx(self) -> str:
        """Decimal midpoint, display only."""
        return approx_str(self.midpoint())

    def to_json(self) -> list[str]:
        return [str(self.lo), str(self.hi)]


class _RootContext:
    """The square-free part g of a nonzero f and g's Sturm chain, from one integer run.

    ``chain[0]`` is g as coprime integers with a positive leading coefficient,
    so it is a positive multiple of the monic square-free part of f.
    """

    def __init__(self, f: Poly):
        p = _positive_lead(_primitive(f.numerators()[0]))
        seq = _sturm_sequence(p)
        if len(seq[-1]) > 1:
            # A repeated root: g = f / gcd(f, f') needs a chain of its own.
            seq = _sturm_sequence(_positive_lead(_exact_quotient(p, seq[-1])))
        self.chain = tuple(seq)
        self.g = self.chain[0]
        self.v_minus = _variations_at(self.chain, None, False)
        self.distinct = self.v_minus - _variations_at(self.chain, None, True)

    def count(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
        """Distinct real roots in (lo, hi]; None means the matching infinity."""
        return _count(self.chain, lo, hi)

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in (lo, hi); g's sign at hi serves the count and the open end."""
        signs = [_sign_at(ints, hi.numerator, hi.denominator) for ints in self.chain]
        return _variations_at(self.chain, lo, False) - _variations(signs) - (signs[0] == 0)

    def isolate(self, width: Fraction) -> tuple[IsolatingInterval, ...]:
        """Disjoint sorted intervals (lo, hi], one per distinct real root, at most ``width`` wide.

        An interval is a numerator pair (a, b) at scale s, meaning
        (a/(q*2^s), b/(q*2^s)]. The midpoints, and their nudges off exact
        roots, are those of rational bisection from (-M, M].
        """
        if self.distinct == 0:
            return ()
        bound = _cauchy_bound(self.g)
        p, q = bound.numerator, bound.denominator

        def scaled(e: Ints) -> Ints:
            # In y = q*x each element is multiplied by q^deg > 0 and the endpoint
            # a/(q*2^s) becomes a/2^s, so evaluations scale by powers of two only.
            return tuple(c * q ** (len(e) - 1 - i) for i, c in enumerate(e))

        g, chain = scaled(self.g), None  # the rest of the chain is scaled on first use
        # (a, b] at scale s is at most ``width`` wide iff (b - a) * w_den <= w_num_q << s.
        w_num_q, w_den = width.numerator * q, width.denominator
        # A node no nudge has moved is (a, a + 2p] on the grid of its scale, so
        # the width test passes first at one depth d_end for all of them.
        need = 2 * p * w_den
        d_end = max(need.bit_length() - w_num_q.bit_length(), 0)
        d_end += w_num_q << d_end < need

        def split(a: int, b: int, s: int) -> tuple[int, int, int, int, int]:
            """Bisect (a, b] at scale s: (a, b, m, s, sign of g at m), rescaled to m's scale."""
            a, b, s = 2 * a, 2 * b, s + 1
            m = (a + b) // 2
            sg = _sign_at_dyadic(g, m, s)
            if sg == 0:
                # A midpoint on a root moves up by a quarter of the width, then
                # an eighth, and so on, until g is nonzero there.
                step = (b - a) // 2
                a, b, m, s = 2 * a, 2 * b, 2 * m, s + 1
                while True:
                    m += step
                    sg = _sign_at_dyadic(g, m, s)
                    if sg:
                        break
                    a, b, m, s = 2 * a, 2 * b, 2 * m, s + 1
            return a, b, m, s, sg

        # No root of g lies at or beyond pos, or at or below -neg.
        pos = _positive_root_bound(g)
        neg = _positive_root_bound(tuple(-c if i % 2 else c for i, c in enumerate(g)))
        # Cell k of depth d_end is (-p*2^d_end + 2p*k, ... + 2p] at scale d_end. A
        # cell with g nonzero and of opposite signs at its edges holds a root.
        cells = set()
        try:
            desc = [float(c) for c in reversed(self.g)]
            proposals = _float_roots(desc, -neg / q, 2 * p / (q << d_end))
        except OverflowError:
            proposals = []
        for r in proposals:
            if math.isfinite(r):
                num, den = r.as_integer_ratio()
                cells.add(((num * q + p * den) << d_end) // (2 * p * den))
        confirmed = []
        for k in sorted(cells):
            lo = (-p << d_end) + 2 * p * k
            if 0 <= k < 1 << d_end:
                left = _sign_at_dyadic(g, lo, d_end)
                if left and _sign_at_dyadic(g, lo + 2 * p, d_end) == -left:
                    confirmed.append(k)

        def held(a: int, b: int, s: int) -> tuple[int, int]:
            """(first index, count) of the confirmed cells inside (a, b] at scale s."""
            if b - a != 2 * p or s > d_end:
                return 0, 0
            k = (a + (p << s)) // (2 * p) << (d_end - s)
            i = bisect_left(confirmed, k)
            return i, bisect_left(confirmed, k + (1 << (d_end - s)), i) - i

        sg_minus = -1 if (len(g) - 1) % 2 else 1  # the sign of g at -infinity
        found = []
        # (a, b, s, variations at a, variations at b, sign of g at a); no root
        # lies at or below -M, so the variations there are those at -infinity.
        stack = [(-p, p, 0, self.v_minus, self.v_minus - self.distinct, sg_minus)]
        while stack:
            a, b, s, v_a, v_b, sg_a = stack.pop()
            i, n = held(a, b, s)
            if n > v_a - v_b:
                raise ArithmeticError("more confirmed cells than Sturm roots in an interval")
            if n == v_a - v_b:
                # Each root lies strictly inside its own cell, where bisection ends.
                for k in confirmed[i : i + n]:
                    lo = (-p << d_end) + 2 * p * k
                    found.append(
                        IsolatingInterval(Fraction(lo, q << d_end), Fraction(lo + 2 * p, q << d_end))
                    )
                continue
            if v_a - v_b == 1:
                while (b - a) * w_den > w_num_q << s:
                    a, b, m, s, sg = split(a, b, s)
                    if sg == sg_a:
                        a = m
                    else:
                        b = m
                found.append(IsolatingInterval(Fraction(a, q << s), Fraction(b, q << s)))
                continue
            # Past a root bound, the split needs no evaluation and cannot nudge.
            m = a + b
            if m > pos << (s + 1):
                stack.append((2 * a, m, s + 1, v_a, v_b, sg_a))
                continue
            if m < -(neg << (s + 1)):
                stack.append((m, 2 * b, s + 1, v_a, v_b, sg_minus))
                continue
            if chain is None:
                chain = [scaled(e) for e in self.chain[1:]]
            a, b, m, s, sg = split(a, b, s)
            v_m = _variations([sg] + [_sign_at_dyadic(ints, m, s) for ints in chain])
            if v_m > v_b:
                stack.append((m, b, s, v_m, v_b, sg))
            if v_a > v_m:
                stack.append((a, m, s, v_a, v_m, sg_a))
        return tuple(found)


def _validated_width(width: RationalLike, what: str) -> Fraction:
    w = to_rational(width)
    if w <= 0:
        raise ValueError(f"{what} width must be positive")
    return w


def isolate_roots(f: Poly, width: RationalLike = DEFAULT_WIDTH) -> tuple[IsolatingInterval, ...]:
    """Disjoint sorted intervals, one per distinct real root, each at most ``width`` wide."""
    if f.is_zero or f.degree() == 0:
        raise ValueError("root isolation needs a nonconstant polynomial")
    return _RootContext(f).isolate(_validated_width(width, "isolation"))


@dataclass(frozen=True)
class RootCertificate:
    """Exact verdict on the real-root structure of a polynomial.

    ``distinct_real_roots`` counts over the whole line; the polynomial is
    real-rooted iff that count equals the degree of its square-free part, and
    simple iff the square-free part is the whole (normalized) polynomial.
    """

    degree: int
    distinct_real_roots: int
    is_real_rooted: bool
    is_simple: bool
    intervals: tuple[IsolatingInterval, ...]

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "distinct_real_roots": self.distinct_real_roots,
            "real_rooted": self.is_real_rooted,
            "simple": self.is_simple,
            "intervals": [iv.to_json() for iv in self.intervals],
        }


def certify(f: Poly, width: RationalLike = DEFAULT_WIDTH) -> RootCertificate:
    """Certify real-rootedness and simplicity, with isolating intervals."""
    if f.is_zero or f.degree() == 0:
        raise ValueError("certification needs a nonconstant polynomial")
    w = _validated_width(width, "isolation")
    ctx = _RootContext(f)
    g_degree = len(ctx.g) - 1
    return RootCertificate(
        degree=f.degree(),
        distinct_real_roots=ctx.distinct,
        is_real_rooted=ctx.distinct == g_degree,
        is_simple=g_degree == f.degree(),
        intervals=ctx.isolate(w),
    )


def largest_root_enclosure(
    f: Poly, width: RationalLike = DEFAULT_WIDTH
) -> tuple[Fraction, Fraction]:
    """Rational enclosure lo < max |root| <= hi, hi - lo <= width, over the real roots.

    It is the cell that bisection of (0, M] on symmetric root counts ends in,
    M the strict Cauchy bound of f: at the first depth D whose cells fit the
    width, the one cell with some root outside [-lo, lo] and every root in
    [-hi, hi]. A lone root at 0 gives (0, 0). Raises if f has no real roots
    (the radius is undefined there).
    """
    if f.is_zero or f.degree() == 0:
        raise ValueError("largest-root enclosure needs a nonconstant polynomial")
    w = _validated_width(width, "enclosure")
    ctx = _RootContext(f)
    total = ctx.distinct
    if total == 0:
        raise ValueError("polynomial has no real roots: largest-root radius is undefined")
    if ctx.g[0] == 0 and total == 1:
        return Fraction(0), Fraction(0)
    bound = _cauchy_bound(f.numerators()[0])
    p, q = bound.numerator, bound.denominator
    # Grid point i of depth D is i*p/(q*2^D); D is the least depth with
    # p * w_den <= (w_num * q) << D, where the bisection's cells fit the width.
    need, room = p * w.denominator, w.numerator * q
    depth = max(need.bit_length() - room.bit_length(), 0)
    depth += room << depth < need
    # In y = q*x each element is multiplied by q^deg > 0 and the grid point
    # becomes i*p/2^D, so every count is taken at dyadic points.
    chain = [tuple(c * q ** (len(e) - 1 - i) for i, c in enumerate(e)) for e in ctx.chain]

    def all_inside(i: int) -> bool:
        """Whether [-r, r], r grid point i, holds every distinct root: (-r, r] and g(-r)."""
        minus = [_sign_at_dyadic(e, -i * p, depth) for e in chain]
        plus = [_sign_at_dyadic(e, i * p, depth) for e in chain]
        return _variations(minus) - _variations(plus) + (minus[0] == 0) == total

    # Not every root is inside at grid point lo, every root is inside at hi.
    lo, hi = 0, 1 << depth
    # k is the grid point at or below a float near max |root|, so the root lies
    # in cell k (from k to k + 1) or, past an edge, in cell k - 1: a count at
    # k and one at the neighbour on the root's side close the bracket.
    k = -1
    try:
        roots = _float_roots(
            [float(c) for c in reversed(ctx.g)], -float(bound), math.ldexp(float(bound), -depth)
        )
    except OverflowError:
        roots = []
    magnitudes = [abs(r) for r in roots if math.isfinite(r)]
    if magnitudes:
        num, den = max(magnitudes).as_integer_ratio()
        k = (num * q << depth) // (p * den)
    for i in (k, k - 1, k + 1):
        if lo < i < hi:
            lo, hi = (lo, i) if all_inside(i) else (i, hi)
    while hi - lo > 1:
        i = (lo + hi) // 2
        lo, hi = (lo, i) if all_inside(i) else (i, hi)
    return Fraction(lo * p, q << depth), Fraction(hi * p, q << depth)
