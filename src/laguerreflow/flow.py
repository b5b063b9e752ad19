"""Experiment harnesses: transform verification, root localization, h-sweeps.

Everything here is driven by exact rational arithmetic: flow times h are
rational, the square-root scaling of the first localization lemma is handled
by parametrizing h = eta^2, and window radii are certified rational upper
enclosures of the relevant extreme roots, so every window-membership count
is an exact Sturm count rather than a floating-point judgment. Both lemmas
flow (x^k * p)(x - centre), with centre 0 for the Laguerre window and xi for
the Hermite window, and the window centre -/+ 2*radius*scale takes one
open-interval count, where g's sign at the right end serves both the count
and the open end. A window runs on integers end to end and builds no Poly:
p's numerators are padded by k zeros, Taylor-shifted (``ratpoly._taylor_shift``),
flowed (``basis._flow_sums``, which ``heat_flows`` wraps, and which yields
integers over one denominator), and counted (``realroot._RootContext``, which
the root counts wrap).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .basis import (
    AlphaParam,
    XiParam,
    _flow_sums,
    heat_flows,
    heat_semigroup,
    laguerre,
    laguerre_transform,
    scaled_hermite,
)
from .ratpoly import LITERAL_DEGREE, Poly, RationalLike, _taylor_shift, to_rational
from .realroot import (
    DEFAULT_WIDTH,
    RootCertificate,
    _RootContext,
    certify,
    largest_root_enclosure,
)


@dataclass(frozen=True)
class Theorem1Result:
    """Outcome of transforming a real-rooted polynomial and certifying the image."""

    transformed: Poly
    certificate: RootCertificate
    passed: bool


def verify_theorem1(
    f: Poly, alpha: AlphaParam, width: RationalLike = DEFAULT_WIDTH
) -> Theorem1Result:
    """Transform f and certify whether the image is real-rooted.

    The caller is responsible for f itself being real-rooted (harnesses build
    it from roots); the verdict concerns the image only. The transform keeps
    the degree, so ``certify`` refuses a constant f.
    """
    transformed = laguerre_transform(f, alpha)
    cert = certify(transformed, width)
    return Theorem1Result(transformed, cert, cert.is_real_rooted)


@dataclass(frozen=True)
class LocalizationReport:
    """Exact count of flowed roots inside a localization window."""

    k: int
    window_lo: Fraction
    window_hi: Fraction
    roots_in_window: int
    passed: bool
    radius_used: Fraction
    degenerate_radius: bool


@lru_cache(maxsize=None)
def laguerre_radius_bound(k: int, alpha: AlphaParam) -> Fraction:
    """Certified rational upper bound on the magnitude of the extreme Laguerre root."""
    return largest_root_enclosure(laguerre(k, alpha), DEFAULT_WIDTH)[1]

@lru_cache(maxsize=None)
def hermite_radius_bound(k: int, xi: XiParam) -> Fraction:
    """Certified rational upper bound on the magnitude of the extreme Hermite root.

    Requires xi > 0; the degree-k family has its full set of real roots only
    then. For k = 1 the single root is 0 and the bound is exactly 0.
    """
    if xi.value <= 0:
        raise ValueError(
            "Hermite radius undefined: the scaled family lacks a full set of real roots for xi <= 0"
        )
    return largest_root_enclosure(scaled_hermite(k, xi), DEFAULT_WIDTH)[1]


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > LITERAL_DEGREE:
        raise ValueError(f"k must be at most {LITERAL_DEGREE}, got {k}")


def _require_k_and_cofactor(k: int, p: Poly) -> None:
    _require_k(k)
    if p.is_zero or p.nums[0] == 0:
        raise ValueError("p(0) must be nonzero (x must not divide p)")


def _window_count(
    k: int,
    p: Poly,
    alpha: AlphaParam,
    time: Fraction,
    centre: Fraction,
    radius: Fraction,
    scale: Fraction,
    degenerate: bool,
) -> LocalizationReport:
    """Flow (x^k * p)(x - centre) for ``time``; k or more roots in centre -/+ 2*radius*scale pass.

    Integers all the way: p's numerators, padded by k zeros, over d; for
    centre u/v, Taylor-shifted by -u/v to N over the one denominator d * v^n.
    The flow sum of N gives d * v^n * the flow as integers over one
    denominator, and those integers are the multiple the count is taken on.
    """
    nums = (0,) * k + p.nums
    if centre:
        u, v = (-centre).as_integer_ratio()
        nums = _taylor_shift(nums, u, v)
    ((ints, _),) = _flow_sums(nums, alpha, (time,))
    half = 2 * radius * scale
    lo, hi = centre - half, centre + half
    count = _RootContext(ints).count_open(lo, hi)
    return LocalizationReport(k, lo, hi, count, count >= k, radius, degenerate)


def lemma2_localize(k: int, p: Poly, alpha: AlphaParam, h: RationalLike) -> LocalizationReport:
    """Count roots of the flowed x^k * p(x) in the window (-2*s*h, 2*s*h).

    s is the certified upper enclosure of the extreme root magnitude of the
    degree-k Laguerre polynomial; at least k roots inside means a pass.
    """
    _require_k_and_cofactor(k, p)
    step = to_rational(h)
    if step <= 0:
        raise ValueError("flow time h must be positive")
    radius = laguerre_radius_bound(k, alpha)
    return _window_count(k, p, alpha, step, Fraction(0), radius, step, False)


def lemma1_localize(
    k: int, xi: XiParam, p: Poly, alpha: AlphaParam, eta: RationalLike
) -> LocalizationReport:
    """Count roots of the flowed (x-xi)^k * p(x-xi) near xi, at flow time eta^2.

    The window is (xi - 2*r*eta, xi + 2*r*eta) with r the certified Hermite
    radius bound, so both endpoints stay rational; ``hermite_radius_bound``
    refuses xi < 0 at every k, and at k = 1 that check is all the call is for:
    the radius is 0 and the literal window empty, so a fallback radius of 1 is
    used and flagged, surfacing the degenerate case instead of passing or failing.
    """
    _require_k_and_cofactor(k, p)
    step = to_rational(eta)
    if step <= 0:
        raise ValueError("eta must be positive (flow time is h = eta^2)")
    if xi.value == 0:
        raise ValueError("xi must be nonzero (the origin case is the Laguerre-window lemma)")
    bound = hermite_radius_bound(k, xi)  # refuses xi < 0, at k = 1 too
    degenerate = k == 1
    radius = Fraction(1) if degenerate else bound
    return _window_count(k, p, alpha, step * step, xi.value, radius, step, degenerate)


def semigroup_check(f: Poly, alpha: AlphaParam, h1: RationalLike, h2: RationalLike) -> bool:
    """True iff flowing by h1 then h2 equals flowing by h1 + h2, exactly.

    f's series serves both of its flows; the flow by h1 is then flowed by h2.
    """
    a, b = to_rational(h1), to_rational(h2)
    at_a, at_ab = heat_flows(f, alpha, (a, a + b))
    return heat_semigroup(at_a, alpha, b) == at_ab


@dataclass(frozen=True)
class FlowSample:
    h: Fraction
    certificate: RootCertificate


@dataclass(frozen=True)
class FlowTrace:
    """Certificates of the flowed polynomial along an increasing grid of times."""

    alpha: AlphaParam
    input: Poly
    samples: tuple[FlowSample, ...]


def flow_trace(
    f: Poly,
    alpha: AlphaParam,
    h_grid: Sequence[RationalLike],
    width: RationalLike = DEFAULT_WIDTH,
) -> FlowTrace:
    """Certify the flowed polynomial at each grid time, starting from h = 0.

    One series of f serves every time on the grid. The flow keeps the
    degree, so ``certify`` refuses a constant f.
    """
    grid = [to_rational(h) for h in h_grid]
    if not grid:
        raise ValueError("the time grid must be nonempty")
    if grid[0] != 0:
        raise ValueError("the time grid must start at 0")
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise ValueError("the time grid must be strictly increasing")
    samples = tuple(
        FlowSample(h, certify(flowed, width))
        for h, flowed in zip(grid, heat_flows(f, alpha, grid))
    )
    return FlowTrace(alpha, f, samples)


@dataclass(frozen=True)
class SearchPoint:
    xi: Fraction
    passed: bool


def counterexample_search(
    alpha: AlphaParam, xi_grid: Sequence[RationalLike], k: int
) -> list[SearchPoint]:
    """Map where the transform of (x - xi)^k stays real-rooted along a root grid.

    The transform is real-rootedness preserving on nonnegative roots; this
    probes the mixed-sign regime where that can fail (for k = 2 the exact
    boundary is xi = -(alpha+2)/2).
    """
    _require_k(k)
    points = []
    for x in xi_grid:
        xv = to_rational(x)
        result = verify_theorem1(Poly.from_roots([(xv, k)]), alpha)
        points.append(SearchPoint(xv, result.passed))
    return points


# -- seeded random generation -------------------------------------------------
#
# Roots are fractions with numerator and denominator bounded by 64, and
# multiplicities are weighted toward 1-3. Callers own the seeded Random
# instance, so identical seeds reproduce identical trials.

_MULTIPLICITY_CHOICES = (1, 1, 1, 1, 2, 2, 3)


def random_rational(rng: random.Random, lo: int, hi: int, max_den: int = 64) -> Fraction:
    """Uniformly chosen fraction num/den with lo <= num <= hi, 1 <= den <= max_den."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_alpha(rng: random.Random) -> AlphaParam:
    """Uniformly chosen alpha = num/den in [0, 5] with 1 <= den <= 16."""
    den = rng.randint(1, 16)
    return AlphaParam(Fraction(rng.randint(0, 5 * den), den))


def random_root_pairs(
    rng: random.Random, max_degree: int, nonneg: bool = True
) -> list[tuple[Fraction, int]]:
    """Random (root, multiplicity) pairs with total degree in [1, max_degree]."""
    target = rng.randint(1, max_degree)
    pairs: list[tuple[Fraction, int]] = []
    remaining = target
    while remaining > 0:
        mult = min(rng.choice(_MULTIPLICITY_CHOICES), remaining)
        pairs.append((random_rational(rng, 0 if nonneg else -64, 64), mult))
        remaining -= mult
    return pairs


def random_real_rooted(rng: random.Random, max_degree: int, nonneg: bool = True) -> Poly:
    """Random real-rooted polynomial built from explicit roots, with random lead."""
    lead = random_rational(rng, 1, 8, max_den=8) * rng.choice((1, -1))
    return Poly.from_roots(random_root_pairs(rng, max_degree, nonneg), lead=lead)


def random_poly(rng: random.Random, max_degree: int) -> Poly:
    """Random dense polynomial, coefficients from random_rational(rng, -64, 64), nonzero lead."""
    degree = rng.randint(0, max_degree)
    coeffs = [random_rational(rng, -64, 64) for _ in range(degree)]
    lead = Fraction(0)
    while lead == 0:
        lead = random_rational(rng, -64, 64)
    coeffs.append(lead)
    return Poly(coeffs)
