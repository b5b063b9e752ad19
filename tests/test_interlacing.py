"""Interlacing as an oracle for the paper's mathematics, on the test side only.

T sends x^n to (-1)^n n! L_n^alpha(x) = monic_laguerre(n, alpha). It maps
polynomials with every root in I = [0, inf) to real-rooted ones (Fisk, cited in
PAPER.md), and it keeps the degree and the leading coefficient. Fisk
("Polynomials, roots, and interlacing", arXiv math/0612833, ch. 1) states that
such linear maps keep interlacing in I too; the theorem's number and exact
hypotheses have not been checked against the text. No argument is derived
here. That f - b*f' keeps its roots in I for every b >= 0, so that
T(f) - b*T(f') is real-rooted for every b >= 0, does not by itself force
interlacing: F = x^2 - 1 and G = x + 5 have F - b*G real-rooted for every
b >= 0, yet G's root lies outside F's (Hermite-Kakeya-Obreschkoff needs
combinations of both signs). The property is an empirical oracle: it held in
1,500 of 1,500 draws with nonnegative roots.

The test checks that, for f with simple nonnegative roots, T(f) has simple real
roots and T(f') has exactly one root strictly between each two neighbours and
none outside.
The real-rootedness verdict does not check this: with roots of both signs the
hypothesis fails, and ``T(f)`` can stay real-rooted while the interlacing
breaks. The transform is the package's; every root count is the Fraction
Sturm count of ``reference.py``.
"""

import random
from fractions import Fraction

from laguerreflow import AlphaParam, Poly, laguerre_transform
from laguerreflow.flow import random_alpha, random_rational
from reference import cauchy_root_bound, derivative, gcd, open_counter, reference_root_cells


def interlacing_fault(f: Poly, alpha: AlphaParam) -> str:
    """What breaks strict interlacing of T(f) and T(f'), or "" when they interlace."""
    t, dt = laguerre_transform(f, alpha), laguerre_transform(derivative(f), alpha)
    # Fisk's hypotheses on T, for this f: degree and leading coefficient kept.
    assert (t.degree(), t.leading()) == (f.degree(), f.leading())
    assert (dt.degree(), dt.leading()) == (f.degree() - 1, derivative(f).leading())
    cells = reference_root_cells(t)
    if len(cells) != t.degree():
        return "T(f) is not real-rooted with simple roots"
    if gcd(t, dt).degree() > 0:
        return "T(f) and T(f') share a root"
    t_count, dt_count = open_counter(t), open_counter(dt)
    # Narrow each cell of T(f) until it holds no root of T(f'), ends included.
    narrowed = []
    for lo, hi in cells:
        while dt(lo) == 0 or dt(hi) == 0 or (lo < hi and dt_count(lo, hi) > 0):
            mid = (lo + hi) / 2
            if t(mid) == 0:
                lo = hi = mid
            elif t_count(lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        narrowed.append((lo, hi))
    for (_, left), (right, _) in zip(narrowed, narrowed[1:]):
        if not (left < right and dt_count(left, right) == 1):
            return "a gap of T(f) without exactly one root of T(f')"
    bound = cauchy_root_bound(dt)
    if dt_count(-bound, bound) != dt.degree():
        return "T(f') has a root outside the roots of T(f), or a complex pair"
    return ""


def simple_roots(rng: random.Random, degree: int, nonneg: bool) -> Poly:
    """A draw of theorem-batch's law with simple roots: distinct num/den, |num|, den <= 64."""
    roots = set()
    while len(roots) < degree:
        roots.add(random_rational(rng, 0 if nonneg else -64, 64))
    lead = random_rational(rng, 1, 8, max_den=8) * rng.choice((1, -1))
    return Poly.from_roots([(r, 1) for r in roots], lead=lead)


def test_transform_keeps_interlacing_on_nonnegative_roots():
    rng = random.Random(10)
    for degree in list(range(2, 13)) * 2:
        f, alpha = simple_roots(rng, degree, nonneg=True), random_alpha(rng)
        assert interlacing_fault(f, alpha) == "", (f, alpha)


def test_interlacing_fails_with_roots_of_both_signs():
    # Outside the hypothesis T(f) stays real-rooted with simple roots, yet T(f')
    # misses a gap: the check can fail, so its passes above are not vacuous.
    f = Poly.from_roots([(Fraction(-11, 3), 1), (Fraction(-50, 39), 1), (7, 1)], Fraction(5, 4))
    alpha = AlphaParam(2)
    assert len(reference_root_cells(laguerre_transform(f, alpha))) == 3
    assert interlacing_fault(f, alpha) == "a gap of T(f) without exactly one root of T(f')"
