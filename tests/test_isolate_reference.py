"""Isolation against plain bisection: the same cells, byte for byte.

``reference_isolate`` is the isolation loop before the root-bound skip and
the confirmed cells, kept verbatim: Sturm splits of (-M, M] while an
interval holds two or more roots, then bisection by the sign of g down to the
width. ``_RootContext.isolate`` must return exactly its intervals.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerreflow import (
    DEFAULT_WIDTH,
    AlphaParam,
    Poly,
    XiParam,
    certify,
    cli,
    count_real_roots_open,
    heat_semigroup,
    isolate_roots,
    laguerre,
    laguerre_transform,
    largest_root_enclosure,
    random_alpha,
    random_rational,
    random_real_rooted,
    scaled_hermite,
)
from laguerreflow import realroot
from laguerreflow.realroot import (
    IsolatingInterval,
    RootCertificate,
    _RootContext,
    _sign_at_dyadic,
    _variations,
)
from reference import (
    bisection_enclosure,
    cauchy_root_bound,
    open_counter,
    reference_count_open,
    square_free,
)

WIDTHS = (DEFAULT_WIDTH, Fraction(1, 1000), Fraction(1, 3), Fraction(4))


def reference_isolate(ctx: _RootContext, width: Fraction) -> tuple[IsolatingInterval, ...]:
    if ctx.distinct == 0:
        return ()
    bound = cauchy_root_bound(Poly(ctx.g))
    p, q = bound.numerator, bound.denominator
    # In y = q*x each element is multiplied by q^deg > 0 and the endpoint
    # a/(q*2^s) becomes a/2^s, so evaluations scale by powers of two only.
    chain = tuple(
        tuple(c * q ** (len(e) - 1 - i) for i, c in enumerate(e)) for e in ctx.chain
    )
    g = chain[0]
    # (a, b] at scale s is at most ``width`` wide iff (b - a) * w_den <= w_num_q << s.
    w_num_q, w_den = width.numerator * q, width.denominator

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

    found = []
    signs = [_sign_at_dyadic(ints, -p, 0) for ints in chain]
    v_lo = _variations(signs)
    # (a, b, s, variations at a, variations at b, sign of g at a)
    stack = [(-p, p, 0, v_lo, v_lo - ctx.distinct, signs[0])]
    while stack:
        a, b, s, v_a, v_b, sg_a = stack.pop()
        if v_a - v_b == 1:
            while (b - a) * w_den > w_num_q << s:
                a, b, m, s, sg = split(a, b, s)
                if sg == sg_a:
                    a = m
                else:
                    b = m
            found.append(IsolatingInterval(Fraction(a, q << s), Fraction(b, q << s)))
            continue
        a, b, m, s, sg = split(a, b, s)
        v_m = _variations([sg] + [_sign_at_dyadic(ints, m, s) for ints in chain[1:]])
        if v_m > v_b:
            stack.append((m, b, s, v_m, v_b, sg))
        if v_a > v_m:
            stack.append((a, m, s, v_a, v_m, sg_a))
    return tuple(found)


def assert_same_cells(f: Poly, widths=WIDTHS) -> None:
    ctx = _RootContext(f.nums)
    for width in widths:
        assert ctx.isolate(width) == reference_isolate(ctx, width), (f, width)


def theorem_images(seed: int, count: int) -> list[Poly]:
    """Images of the criterion-6 draws: degree <= 12, nonnegative roots."""
    rng = random.Random(seed)
    return [
        laguerre_transform(random_real_rooted(rng, 12), random_alpha(rng)) for _ in range(count)
    ]


def test_criterion_6_images():
    images = theorem_images(6, 100)
    assert {f.degree() for f in images} == set(range(1, 13))
    for f in images:
        assert_same_cells(f)


def test_degree_24_images():
    rng = random.Random(24)
    for _ in range(3):
        roots = [(random_rational(rng, 0, 64), 1) for _ in range(24)]
        f = laguerre_transform(Poly.from_roots(roots), random_alpha(rng))
        assert_same_cells(f, (DEFAULT_WIDTH,))


@pytest.mark.parametrize(
    "roots",
    [
        [(Fraction(-7, 3), 1), (Fraction(1, 5), 2), (Fraction(9, 2), 1), (40, 1)],  # mixed signs
        [(-1, 1), (Fraction(-13, 7), 1), (-30, 2), (Fraction(-1, 1000), 1)],  # all negative
        [(0, 1), (-3, 1), (Fraction(-5, 7), 1)],  # a root at 0, none positive
        [(0, 2), (Fraction(1, 9), 1), (Fraction(11, 3), 1)],  # a root at 0, none negative
    ],
)
def test_root_signs(roots):
    f = Poly.from_roots(roots, lead=Fraction(-3, 2)) * Poly([5, 1, 1])
    assert_same_cells(f)


def test_coefficients_beyond_float_range():
    assert_same_cells(Poly([10**400, 0, -1]))
    assert_same_cells(Poly([-(10**400), 3, 0, 1]))
    # The coefficients fit a float, but g overflows at the first Newton point.
    assert_same_cells(Poly([-(10**300), 0, 0, 7, 1]))
    # The coefficients fit a float, but the float pass's start -neg/q does not.
    assert_same_cells(Poly([17 * 10**307, 1]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-64, max_value=64).map(lambda n: Fraction(n, 16)),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.sampled_from([Fraction(1), Fraction(-2, 3)]),
)
def test_dyadic_roots(roots, lead):
    # Small dyadic roots sit on the bisection grids, so midpoints hit them.
    assert_same_cells(Poly.from_roots([(r, 1) for r in roots], lead=lead))


def test_wrong_guess_falls_back_to_bisection(monkeypatch):
    calls = []
    float_roots = realroot._float_roots

    def next_cell(desc, x, tol):
        calls.append(tol)
        return [r + tol for r in float_roots(desc, x, tol)]

    monkeypatch.setattr(realroot, "_float_roots", next_cell)
    for f in theorem_images(7, 12):
        assert_same_cells(f, (DEFAULT_WIDTH,))
    assert calls


def test_partial_proposals(monkeypatch):
    dropped = []
    float_roots = realroot._float_roots

    def every_other(desc, x, tol):
        roots = float_roots(desc, x, tol)
        dropped.extend(roots[1::2])
        return roots[::2]

    monkeypatch.setattr(realroot, "_float_roots", every_other)
    for f in theorem_images(8, 40):
        assert_same_cells(f)
    assert dropped


def test_proposals_outside_the_cauchy_interval(monkeypatch):
    # Proposals just and far outside (-M, M]: no root lies there, so their
    # cells never confirm.
    float_roots = realroot._float_roots

    def beyond(desc, x, tol):
        far = [-1e6 * m, -2 * m, -m - tol / 2, m, m + tol / 2, 2 * m, 1e6 * m]
        return float_roots(desc, x, tol) + far

    monkeypatch.setattr(realroot, "_float_roots", beyond)
    for f in theorem_images(9, 40):
        m = float(realroot._cauchy_bound(_RootContext(f.nums).g))
        assert_same_cells(f)


def test_confirmed_cells_skip_the_chain(monkeypatch):
    # At alpha = 1/10^16 and 1/10^30 the images' integers pass float range
    # while their roots stay of ordinary size.
    tiny_alpha = [
        laguerre_transform(
            Poly.from_roots([(Fraction(i, 3), 1) for i in range(1, n + 1)]), AlphaParam(alpha)
        )
        for n, alpha in ((20, Fraction(1, 10**16)), (12, Fraction(1, 10**30)))
    ]
    for f in tiny_alpha:
        assert_same_cells(f, (DEFAULT_WIDTH,))
    # Every other chain element has a lower degree than g.
    degrees = []
    sign_at_dyadic = realroot._sign_at_dyadic

    def recording(ints, num, shift):
        degrees.append(len(ints) - 1)
        return sign_at_dyadic(ints, num, shift)

    monkeypatch.setattr(realroot, "_sign_at_dyadic", recording)
    for f in theorem_images(6, 100) + tiny_alpha:
        ctx = _RootContext(f.nums)
        degrees.clear()
        ctx.isolate(DEFAULT_WIDTH)
        assert degrees == [len(ctx.g) - 1] * len(degrees), f
        # Two signs confirm each cell; nothing else is evaluated.
        assert len(degrees) == 2 * ctx.distinct, f


@pytest.mark.parametrize(
    "roots",
    [
        [-23, 1, Fraction(7, 2), 9, 71],
        [-71, -9, Fraction(-7, 2), -1, 23],
        [Fraction(-37, 2), Fraction(3, 2), 64],
        # The largest |root| lies past half the root bound, inside its factor-of-2 slack.
        [-16, 71],
        [-87, 28],
        [-44, -28, 32, 74],
        [Fraction(-128, 3), -29, Fraction(-25, 3), 31, 68],
    ],
)
def test_proposals_off(monkeypatch, roots):
    # With no proposal every interval takes the Sturm split, the root-bound skip
    # and the one-root bisection: the paths float proposals otherwise hide.
    monkeypatch.setattr(realroot, "_proposals", lambda *args: [])
    f = Poly.from_roots([(r, 1) for r in roots])
    assert_same_cells(f)
    ctx = _RootContext(f.nums)
    for width in WIDTHS:
        cells = ctx.isolate(width)
        assert len(cells) == len(roots)
        assert all(iv.lo < r <= iv.hi for iv, r in zip(cells, sorted(roots))), (roots, width)


def test_proposals_off_on_theorem_images(monkeypatch):
    monkeypatch.setattr(realroot, "_proposals", lambda *args: [])
    for f in theorem_images(10, 40):
        assert_same_cells(f)


def test_more_confirmed_cells_than_the_count_raises():
    # Roots off every grid point, so each proposal confirms its cell.
    roots = [(Fraction(1, 3), 1), (Fraction(5, 7), 1), (Fraction(11, 5), 1)]
    ctx = _RootContext(Poly.from_roots(roots).nums)
    # A chain count of two: the three confirmed cells contradict it.
    ctx.distinct -= 1
    with pytest.raises(ArithmeticError):
        ctx.isolate(DEFAULT_WIDTH)


# Standard families of the real-root literature (Rouillier & Zimmermann 2004),
# checked against plain bisection and sympy, with open counts against the
# Fraction Sturm count. They guard the paths that float proposals are to take
# over from the Sturm chain: chain-free certify (ROADMAP item 3),
# multiprecision proposals (item 4) and one root engine without the Sturm
# split (item 5).
def wilkinson(roots) -> Poly:
    return Poly.from_roots([(r, 1) for r in roots])


def sympy_count_roots(f: Poly) -> int:
    """Distinct real roots of f by sympy's ``count_roots``; skips without sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
    return p.count_roots()


def mignotte(n: int, a: int) -> Poly:
    """x^n - 2(a*x - 1)^2: two roots closer than 2*a^(-(n+2)/2)."""
    return Poly([-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


@pytest.mark.parametrize(
    "f, distinct",
    [
        (wilkinson(range(1, 21)), 20),
        # Roots on the dyadic grid, 0 among them: midpoints land on roots.
        (wilkinson(Fraction(i, 3) for i in range(-10, 11)), 21),
        (mignotte(12, 2**10), 4),
        (mignotte(13, 2**10), 3),
        (mignotte(24, 2**20), 4),
        # Laguerre roots crowd 0 and spread to about 4n: every cell must
        # confirm for chain-free certify (item 3).
        (laguerre(20, AlphaParam(0)), 20),
        (laguerre(20, AlphaParam(Fraction(7, 3))), 20),
        # b^20 = 10^320 puts the integers past float range while the roots stay
        # small: only g's monic image proposes them (item 4).
        (laguerre(20, AlphaParam(Fraction(1, 10**16))), 20),
        # Odd Hermite degree: a root at 0, the first midpoint, so isolation
        # nudges (item 5).
        (scaled_hermite(21, XiParam(1)), 21),
        (scaled_hermite(21, XiParam(Fraction(5, 2))), 21),
        # A lemma window: x^5 * (x^2 + x + 1) flowed at h = 2^-20, five roots
        # within 2^-14 of 0 beside a complex pair, a non-real-rooted input that
        # keeps the Sturm split (item 5).
        (
            heat_semigroup(
                Poly([0, 0, 0, 0, 0, 1, 1, 1]), AlphaParam(Fraction(7, 3)), Fraction(1, 2**20)
            ),
            5,
        ),
    ],
)
def test_wilkinson_and_mignotte(f, distinct):
    assert_same_cells(f)
    assert _RootContext(f.nums).distinct == distinct
    # (0, 1) has roots on its ends for the Wilkinson and Hermite inputs; the
    # small window holds the lemma window's roots and the Mignotte pair at a = 2^20.
    for lo, hi in ((Fraction(0), Fraction(1)), (Fraction(-1, 2**14), Fraction(1, 2**14))):
        assert count_real_roots_open(f, lo, hi) == reference_count_open(f, lo, hi), (f, lo, hi)
    assert sympy_count_roots(f) == distinct


# The rest of ROADMAP item 7's corpus: inputs on the paths that items 3 to 6
# are to change, each checked through the four public root queries, once with
# the float proposals and once without them, against plain bisection and sympy.
ROOT_CORPUS = {
    # Items 4 and 6: at alpha = 1/10^300 the image's integers pass float range
    # while its roots stay small, so only g's monic image proposes them.
    "tiny-alpha-image": laguerre_transform(
        Poly.from_roots([(Fraction(i, 3), 1) for i in range(1, 7)]),
        AlphaParam(Fraction(1, 10**300)),
    ),
    # Items 4 and 6: M is about 10^300, so each root is about 1,020 levels deep.
    "huge-roots": Poly.from_roots([(Fraction(1, 10**300), 1), (10**300, 1)]),
    # Item 3: g is not f, and the chain is f's sequence divided by gcd(f, f').
    "repeated-mixed-signs": Poly.from_roots([(Fraction(-3, 2), 2), (Fraction(1, 3), 3), (5, 1)]),
    # Item 5: M = 2, so the first midpoint, 0, is a root, and so is its first
    # nudge, 1: isolation takes the nudge path with proposals on and off.
    "dyadic-grid": Poly.from_roots([(-1, 1), (0, 1), (1, 1)]),
    # Items 4 and 5: two roots near 2^-30 that only cells 2^-701 wide separate.
    "mignotte-48": mignotte(48, 2**30),
}


@functools.cache
def corpus_reference(name: str) -> tuple[str, tuple[Fraction, Fraction], list]:
    """(certificate bytes, enclosure, [(lo, hi, open count)]) by plain bisection."""
    f = ROOT_CORPUS[name]
    ctx = _RootContext(f.nums)
    cells = reference_isolate(ctx, DEFAULT_WIDTH)
    g_degree = square_free(f).degree()
    certificate = RootCertificate(
        degree=f.degree(),
        distinct_real_roots=len(cells),
        is_real_rooted=len(cells) == g_degree,
        is_simple=g_degree == f.degree(),
        intervals=cells,
    )
    count = open_counter(f)
    # Each cell, and two windows whose ends are roots of the dyadic-grid input.
    windows = [(iv.lo, iv.hi) for iv in cells]
    windows += [(Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1))]
    return (
        cli._json_text(certificate),
        bisection_enclosure(f, DEFAULT_WIDTH),
        [(lo, hi, count(lo, hi)) for lo, hi in windows],
    )


@pytest.mark.parametrize("proposals", [True, False], ids=["proposals-on", "proposals-off"])
@pytest.mark.parametrize("name", list(ROOT_CORPUS))
def test_root_corpus(monkeypatch, name, proposals):
    f = ROOT_CORPUS[name]
    certificate, enclosure, windows = corpus_reference(name)
    if not proposals:
        monkeypatch.setattr(realroot, "_proposals", lambda *args: [])
    cert = certify(f)
    assert cli._json_text(cert) == certificate
    assert cli._json_text(isolate_roots(f)) == cli._json_text(cert.intervals)
    assert largest_root_enclosure(f) == enclosure
    for lo, hi, n in windows:
        assert count_real_roots_open(f, lo, hi) == n, (lo, hi)
    assert sympy_count_roots(f) == cert.distinct_real_roots
