"""Largest-root enclosure against plain Fraction bisection: the same (lo, hi), byte for byte.

``bisection_enclosure`` in ``reference`` is the bisection of (0, M] on
symmetric root counts that ``largest_root_enclosure`` used to run. The
package now counts first at the grid points a float proposal names and
bisects only what bracket remains; the answer, the one cell of the final
depth holding max |root|, must not change.
"""

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
    largest_root_enclosure,
    laguerre,
    scaled_hermite,
)
from laguerreflow import realroot
from reference import bisection_enclosure, cauchy_root_bound

WIDTHS = (DEFAULT_WIDTH, Fraction(1, 3), Fraction(1, 2**40))


def assert_same_enclosure(f: Poly, widths=WIDTHS) -> None:
    for width in widths:
        got = largest_root_enclosure(f, width)
        assert got == bisection_enclosure(f, width), (f, width)
        assert [str(x) for x in got] == [str(x) for x in bisection_enclosure(f, width)]


def family_polys(seed: int) -> list[Poly]:
    """Laguerre and scaled Hermite polynomials, k <= 10, at seeded alpha and xi."""
    rng = random.Random(seed)
    polys = []
    for _ in range(4):
        alpha = AlphaParam(Fraction(rng.randint(0, 200), rng.randint(1, 64)))
        xi = XiParam(Fraction(rng.randint(1, 200), rng.randint(1, 64)))
        for k in range(1, 11):
            polys.append(laguerre(k, alpha))
            polys.append(scaled_hermite(k, xi))
    return polys


def test_families():
    for f in family_polys(10):
        assert_same_enclosure(f, (DEFAULT_WIDTH,))
    for f in family_polys(11)[:20]:
        assert_same_enclosure(f)


@pytest.mark.parametrize(
    "f",
    [
        Poly([0, 1]),  # a lone root at 0
        Poly.from_roots([(0, 3)], lead=Fraction(-2, 3)),  # a lone repeated root at 0
        Poly.from_roots([(0, 1), (Fraction(-3, 2), 1), (Fraction(5, 7), 1)]),  # 0 among others
        Poly.from_roots([(0, 2), (Fraction(1, 9), 1)]),
        Poly.from_roots([(2, 3), (Fraction(-1, 3), 2)]),  # repeated roots
        Poly.from_roots([(-1, 1), (Fraction(-7, 2), 2)]),  # no positive roots
        Poly.from_roots([(Fraction(-9, 4), 1), (Fraction(9, 4), 1)]),  # max |root| twice
        Poly.from_roots([(Fraction(3, 2), 1)]) * Poly([1, 0, 1]),  # not real-rooted
        Poly.from_roots([(-5, 1), (Fraction(1, 4), 2)]) * Poly([1, 1, 1]),
        Poly([-4, 0, 1]),
        Poly([1, -1]),  # the root 1 is a grid point of every depth
        Poly([0, -1, 0, 1]),
        Poly([10**400, 0, -1]),  # coefficients beyond float range
    ],
)
def test_special_inputs(f):
    assert_same_enclosure(f)


def test_width_at_least_the_bound():
    f = Poly.from_roots([(Fraction(-3, 2), 1), (Fraction(5, 7), 1)])
    bound = cauchy_root_bound(f)
    for width in (bound, bound + 1, 10**6, bound * Fraction(999, 1000)):
        assert_same_enclosure(f, (width,))
    assert largest_root_enclosure(f, bound) == (0, bound)


def test_no_real_roots_raises():
    for f in (Poly([2, 0, 1]), Poly([1, 0, 1]) * Poly([3, 1, 1])):
        with pytest.raises(ValueError, match="no real roots"):
            largest_root_enclosure(f)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-64, max_value=64).map(lambda n: Fraction(n, 16)),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.sampled_from([Fraction(1), Fraction(-2, 3)]),
    st.sampled_from(WIDTHS),
)
def test_dyadic_roots(roots, lead, width):
    # Small dyadic roots sit on the grids, so the proposal can be a grid point.
    assert_same_enclosure(Poly.from_roots([(r, 1) for r in roots], lead=lead), (width,))


def counting_signs(monkeypatch) -> list:
    calls = []
    sign_at_dyadic = realroot._sign_at_dyadic

    def counting(ints, num, shift):
        calls.append(num)
        return sign_at_dyadic(ints, num, shift)

    monkeypatch.setattr(realroot, "_sign_at_dyadic", counting)
    return calls


def test_proposal_closes_the_bracket_with_two_counts(monkeypatch):
    calls = counting_signs(monkeypatch)
    # At alpha = 1/10^16 the lead has 638 bits: Horner sums on f's own integers overflow a float.
    for f in family_polys(12) + [laguerre(12, AlphaParam(Fraction(1, 10**16)))]:
        if f.degree() < 2:
            continue
        calls.clear()
        largest_root_enclosure(f)
        chain_length = len(realroot._RootContext(f.nums).chain)
        # Two symmetric counts, each at -r and r.
        assert len(calls) == 4 * chain_length, f


def test_adjacent_proposal_falls_back_to_bisection(monkeypatch):
    proposals = []
    float_roots = realroot._float_roots

    def cell_below(desc, x, tol):
        # Every root one cell nearer 0: max |root| is proposed in the cell below its own.
        roots = [r - tol if r > 0 else r + tol for r in float_roots(desc, x, tol)]
        proposals.extend(roots)
        return roots

    monkeypatch.setattr(realroot, "_float_roots", cell_below)
    calls = counting_signs(monkeypatch)
    for f in family_polys(13):
        if f.degree() < 2:
            continue
        calls.clear()
        assert_same_enclosure(f, (DEFAULT_WIDTH,))
        chain_length = len(realroot._RootContext(f.nums).chain)
        assert len(calls) > 4 * chain_length, f
    assert proposals
