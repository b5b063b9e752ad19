"""Exact real-root counting, certification, and isolation via Sturm chains.

Every query on a polynomial f goes through one prepared root context, built
from the integers of any nonzero multiple of f (the public functions pass a
Poly's numerators, the lemma windows their flowed integers). It runs one
signed primitive pseudo-remainder sequence over the integers on (f, f'):
each step scales the dividend by a power of |lc| of the divisor (positive,
where lc^k can be negative), takes the remainder, negates it and divides out
its integer content, so each element has the evaluation signs of the signed
Euclidean remainder over the rationals (Collins 1967; Basu-Pollack-Roy,
ch. 8). The last element is gcd(f, f') up to a constant, and f divided by it
is the square-free part g: the distinct roots of f, all simple. The same
sequence, each element divided by that gcd d, is g's Sturm chain: f/d = g,
f'/d has the sign of g' at each root of g, and each remainder relation keeps
its positive scale. Counts are sign-variation differences of that chain,
evaluated with integer arithmetic only. Intervals follow the half-open
convention: count_real_roots(f, lo, hi) counts distinct roots in (lo, hi].

Isolation returns the cells that bisection of (-M, M], M = p/q the strict
Cauchy bound of g, ends in: Sturm counts split an interval while it holds two
or more roots, the variation counts at both ends riding along, and the sign of
g then narrows a one-root interval down to the width. A midpoint on a root
moves up by a quarter of the interval's width, then an eighth, and so on,
until g is nonzero there; every interval no nudge has moved lies on the dyadic
grid of its depth, so the width test first passes at one depth for all of
them.

One float pass proposes every root: Laguerre's method with deflation, then
Newton steps, on g's monic image, whose float coefficients stay finite while
g's integers pass float range. A proposal names a cell of that final grid, and
two exact signs confirm it: g nonzero at its edges, with opposite signs; a
cell outside (-M, M] holds no root and never confirms. If an interval's Sturm
count equals the number n of confirmed cells inside it, each cell holds
exactly one root and no other root lies in the interval, so no grid point down
to the final depth is a root, nothing is nudged, and bisection ends in those
cells: isolation returns them at once. Every other interval, one where a
proposal is missing or failed or one below a nudge, takes the Sturm split and
the bisection by sign. The chain's count stays the oracle: more confirmed
cells than it raises ArithmeticError.

A midpoint past an exact root bound (Kioustelidis, rounded up to a power of
two by integer shifts) needs no evaluation at all: no root lies at or beyond
it, so one half is empty, the other keeps the counts, and g has there the sign
it has at the matching infinity.

The largest-root enclosure is the cell that bisection of (0, M] on symmetric
root counts (distinct roots in [-r, r]) ends in, M the strict Cauchy bound of
f: the one final cell (lo, hi] with a root outside [-lo, lo] and all of them
in [-hi, hi]. Counts at the grid point below the float proposal of max |root|
and at its neighbour on the root's side close the bracket to that cell;
bisection finishes whatever bracket a wrong proposal leaves.

Both queries run on one dyadic grid over their span, (-M, M] or (0, M] with
M = p/q: points are integer numerators over q*2^j, down to the least depth
whose cells fit the width. The chain is rewritten in y = q*x (for isolation g
at once, the rest on the first split), so every evaluation is at a dyadic
point and scales by shifts; the float pass stops at one final cell. Isolation
keeps each final cell by the numerator of its left end, so an interval finds
the confirmed cells inside it by shifting its own ends to the final depth.
Fractions are built only for the output.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ratpoly import Poly, RationalLike, to_rational

DEFAULT_WIDTH = Fraction(1, 2**20)

# Integer polynomial, ascending degree, no trailing zeros. Built from lists, as in
# ratpoly: a tuple built from a generator is resized from 10 slots.
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


def _proposals(g: Ints, start: int, q: int, cell: int, depth: int) -> list[float]:
    """Finite _float_roots of g's monic image from start/q, tolerance cell/(q*2^depth).

    Each c / lead is a correctly rounded int division, so large integers
    whose roots are of ordinary size still propose; g's own Horner sums reach
    lead * M^deg and overflow. A ratio past float range proposes nothing.
    """
    try:
        desc = [c / g[-1] for c in reversed(g)]
        roots = _float_roots(desc, start / q, cell / (q << depth))
    except OverflowError:
        return []
    return [r for r in roots if math.isfinite(r)]


def _grid(bound: Fraction, span: int, width: Fraction) -> tuple[int, int, int]:
    """(p, q, depth): bound = p/q, depth the least with cells span*p/(q*2^depth) at most width."""
    p, q = bound.numerator, bound.denominator
    need, room = span * p * width.denominator, width.numerator * q
    depth = max(need.bit_length() - room.bit_length(), 0)
    return p, q, depth + (room << depth < need)


def _scaled(e: Ints, q: int) -> Ints:
    """e in y = q*x times q^deg > 0: its sign at a/2^s is e's sign at a/(q*2^s)."""
    return tuple([c * q ** (len(e) - 1 - i) for i, c in enumerate(e)])


def _primitive(coeffs: Sequence[int]) -> Ints:
    """Divide out the (positive) content; signs are unchanged."""
    content = math.gcd(*coeffs)
    return tuple([c // content for c in coeffs])


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
    """Signed primitive remainder sequence of (p, p'); a constant p gives [p].

    Its last element is gcd(p, p') up to a constant factor.
    """
    seq, r = [p], [i * c for i, c in enumerate(p)][1:]
    while r:
        seq.append(_primitive(r))
        r = _neg_prem(seq[-2], seq[-1])
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
    return p if p[-1] > 0 else tuple([-c for c in p])


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
    lo_q, hi_q = _validated_bounds(lo, hi)
    return _RootContext(f.nums).count(lo_q, hi_q)


def count_real_roots_open(f: Poly, lo: RationalLike, hi: RationalLike) -> int:
    """Distinct real roots in the open interval (lo, hi), finite endpoints."""
    lo_q, hi_q = _validated_bounds(to_rational(lo), to_rational(hi))
    return _RootContext(f.nums).count_open(lo_q, hi_q)


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


class _RootContext:
    """The square-free part g of a nonzero f and g's Sturm chain, from one integer run.

    f is given by the integers of any nonzero multiple of it, ascending with
    no trailing zeros, such as ``Poly.nums``. ``f`` and
    ``chain[0]`` = g are coprime integers with a positive leading
    coefficient, so g is a positive multiple of the monic square-free part of f.
    """

    def __init__(self, ints: Sequence[int]):
        if not ints:
            raise ValueError("root counting on the zero polynomial is undefined")
        self.f = _positive_lead(_primitive(ints))
        seq = _sturm_sequence(self.f)
        if len(seq[-1]) > 1:
            # A repeated root: each element over d = gcd(f, f') gives g's chain.
            d = _positive_lead(seq[-1])
            seq = [_exact_quotient(e, d) for e in seq]
        self.chain = tuple(seq)
        self.g = self.chain[0]
        # Variations at +infinity and at -infinity, where odd degrees flip the lead's sign.
        self.v_plus = _variations([_sign(e[-1]) for e in self.chain])
        self.v_minus = _variations([_sign(e[-1]) * (-1) ** (len(e) - 1) for e in self.chain])
        self.distinct = self.v_minus - self.v_plus

    def _signs(self, x: Fraction) -> list[int]:
        return [_sign_at(e, x.numerator, x.denominator) for e in self.chain]

    def count(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> int:
        """Distinct real roots in (lo, hi]; None means the matching infinity."""
        v_lo = self.v_minus if lo is None else _variations(self._signs(lo))
        return v_lo - (self.v_plus if hi is None else _variations(self._signs(hi)))

    def count_open(self, lo: Fraction, hi: Fraction) -> int:
        """Distinct real roots in (lo, hi); g's sign at hi serves the count and the open end."""
        signs = self._signs(hi)
        return _variations(self._signs(lo)) - _variations(signs) - (signs[0] == 0)

    def isolate(self, width: Fraction) -> tuple[IsolatingInterval, ...]:
        """Disjoint sorted intervals (lo, hi], one per distinct real root, at most ``width`` wide.

        An interval is a numerator pair (a, b) at scale s, meaning
        (a/(q*2^s), b/(q*2^s)]. The midpoints, and their nudges off exact
        roots, are those of rational bisection from (-M, M].
        """
        # A node no nudge has moved is (a, a + 2p] on the grid of its scale, so
        # the width test passes first at one depth d_end for all of them.
        p, q, d_end = _grid(_cauchy_bound(self.g), 2, width)
        g, chain = _scaled(self.g, q), None  # the rest of the chain is scaled on first use
        # (a, b] at scale s is at most ``width`` wide iff (b - a) * w_den <= w_num_q << s.
        w_num_q, w_den = width.numerator * q, width.denominator

        def split(a: int, b: int, s: int) -> tuple[int, int, int, int, int]:
            """Bisect (a, b] at scale s: (a, b, m, s, sign of g at m), rescaled to m's scale."""
            a, b, s = 2 * a, 2 * b, s + 1
            m, step = (a + b) // 2, (b - a) // 2
            # A midpoint on a root moves up by a quarter of the width, then an
            # eighth, and so on, until g is nonzero there.
            while not (sg := _sign_at_dyadic(g, m, s)):
                a, b, m, s = 2 * a, 2 * b, 2 * m + step, s + 1
            return a, b, m, s, sg

        # No root of g lies at or beyond pos, or at or below -neg.
        pos = _positive_root_bound(g)
        neg = _positive_root_bound(tuple([-c if i % 2 else c for i, c in enumerate(g)]))
        # A cell of depth d_end is (lo, lo + 2p] at scale d_end, kept by its grid
        # numerator lo, -p*2^d_end plus a multiple of 2p. A cell with g nonzero
        # and of opposite signs at its edges holds a root.
        cells = set()
        for r in _proposals(self.g, -neg, q, 2 * p, d_end):
            num, den = r.as_integer_ratio()
            cells.add(2 * p * (((num * q + p * den) << d_end) // (2 * p * den)) - (p << d_end))
        confirmed = []
        for lo in sorted(cells):
            left = _sign_at_dyadic(g, lo, d_end)
            if left and _sign_at_dyadic(g, lo + 2 * p, d_end) == -left:
                confirmed.append(lo)

        def held(a: int, b: int, s: int) -> tuple[int, int]:
            """(first index, count) of the confirmed cells inside (a, b] at scale s."""
            if b - a != 2 * p or s > d_end:
                return 0, 0
            i = bisect_left(confirmed, a << (d_end - s))
            return i, bisect_left(confirmed, b << (d_end - s), i) - i

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
                for lo in confirmed[i : i + n]:
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
                chain = [_scaled(e, q) for e in self.chain[1:]]
            a, b, m, s, sg = split(a, b, s)
            v_m = _variations([sg] + [_sign_at_dyadic(ints, m, s) for ints in chain])
            if v_m > v_b:
                stack.append((m, b, s, v_m, v_b, sg))
            if v_a > v_m:
                stack.append((a, m, s, v_a, v_m, sg_a))
        return tuple(found)

    def enclose(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """The cell (lo, hi] of (0, M] that holds max |root|; see ``largest_root_enclosure``."""
        if self.distinct == 0:
            raise ValueError("polynomial has no real roots: largest-root radius is undefined")
        if self.g[0] == 0 and self.distinct == 1:
            return Fraction(0), Fraction(0)
        # Grid point i of depth D is i*p/(q*2^D), i.e. i*p/2^D in y = q*x.
        p, q, depth = _grid(_cauchy_bound(self.f), 1, width)
        chain = [_scaled(e, q) for e in self.chain]

        def all_inside(i: int) -> bool:
            """Whether [-r, r], r grid point i, holds every distinct root: (-r, r] and g(-r)."""
            minus = [_sign_at_dyadic(e, -i * p, depth) for e in chain]
            plus = [_sign_at_dyadic(e, i * p, depth) for e in chain]
            return _variations(minus) - _variations(plus) + (minus[0] == 0) == self.distinct

        # Not every root is inside at grid point lo, every root is inside at hi.
        lo, hi = 0, 1 << depth
        # k is the grid point at or below a float near max |root|, so the root lies
        # in cell k (from k to k + 1) or, past an edge, in cell k - 1: a count at
        # k and one at the neighbour on the root's side close the bracket. With no
        # proposal, k = 0 lies at or below every |root|.
        top = max((abs(r) for r in _proposals(self.g, -p, q, p, depth)), default=0.0)
        num, den = top.as_integer_ratio()
        k = (num * q << depth) // (p * den)
        for i in (k, k - 1, k + 1):
            if lo < i < hi:
                lo, hi = (lo, i) if all_inside(i) else (i, hi)
        while hi - lo > 1:
            i = (lo + hi) // 2
            lo, hi = (lo, i) if all_inside(i) else (i, hi)
        return Fraction(lo * p, q << depth), Fraction(hi * p, q << depth)


def _prepared(f: Poly, width: RationalLike, query: str) -> tuple[_RootContext, Fraction]:
    """f's root context and the width, for a query that needs a nonconstant f and width > 0."""
    if len(f.nums) < 2:
        raise ValueError(f"{query} needs a nonconstant polynomial")
    w = to_rational(width)
    if w <= 0:
        raise ValueError(f"{query} width must be positive")
    return _RootContext(f.nums), w


def isolate_roots(f: Poly, width: RationalLike = DEFAULT_WIDTH) -> tuple[IsolatingInterval, ...]:
    """Disjoint sorted intervals, one per distinct real root, each at most ``width`` wide."""
    ctx, w = _prepared(f, width, "root isolation")
    return ctx.isolate(w)


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


def certify(f: Poly, width: RationalLike = DEFAULT_WIDTH) -> RootCertificate:
    """Certify real-rootedness and simplicity, with isolating intervals."""
    ctx, w = _prepared(f, width, "certification")
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
    ctx, w = _prepared(f, width, "largest-root enclosure")
    return ctx.enclose(w)
