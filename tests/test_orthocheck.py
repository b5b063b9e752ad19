"""Exact moment functionals and weighted inner products."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laguerreflow import (
    AlphaParam,
    XiParam,
    hermite_diagonal_reference,
    hermite_table,
    laguerre,
    laguerre_table,
    scaled_hermite,
)
from laguerreflow.orthocheck import hermite_diagonal, laguerre_diagonal
from reference import (
    double_factorial,
    hermite_moment,
    laguerre_moment,
    reference_hermite_inner,
    reference_laguerre_inner,
)

ALPHAS = [AlphaParam(0), AlphaParam(Fraction(1, 2)), AlphaParam(2)]
XIS = [XiParam(Fraction(1, 2)), XiParam(1), XiParam(3)]


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105


def test_laguerre_moment_pins():
    assert laguerre_moment(0, AlphaParam(0)) == 1
    assert laguerre_moment(3, AlphaParam(0)) == 6
    assert laguerre_moment(2, AlphaParam(Fraction(1, 2))) == Fraction(15, 4)
    assert laguerre_moment(1, AlphaParam(2)) == 3
    with pytest.raises(ValueError):
        laguerre_moment(-1, AlphaParam(0))


def test_hermite_moment_pins():
    assert hermite_moment(1, XiParam(1)) == 0
    assert hermite_moment(7, XiParam(3)) == 0
    assert hermite_moment(0, XiParam(1)) == 2
    assert hermite_moment(2, XiParam(1)) == 4
    assert hermite_moment(4, XiParam(1)) == 24
    assert hermite_moment(2, XiParam(Fraction(1, 2))) == 2
    with pytest.raises(ValueError):
        hermite_moment(2, XiParam(0))
    with pytest.raises(ValueError):
        hermite_moment(2, XiParam(-1))


def test_laguerre_inner_diagonal():
    for alpha in ALPHAS:
        a = alpha.value
        table = laguerre_table(6, alpha)
        for n in range(0, 7):
            expected = Fraction(1)
            for i in range(1, n + 1):
                expected *= a + i
            expected /= factorial(n)
            assert table[n, n] == expected
    assert laguerre_table(2, AlphaParam(Fraction(1, 2)))[2, 2] == Fraction(15, 8)


def test_laguerre_inner_off_diagonal_vanishes():
    for alpha in ALPHAS:
        table = laguerre_table(6, alpha)
        assert [key for key, value in table.items() if value != 0] == [(n, n) for n in range(7)]


def test_hermite_inner_diagonal_and_ratio():
    for xi in XIS:
        s = xi.value
        table = hermite_table(6, xi)
        for k in range(0, 7):
            value = table[k, k]
            assert value == 2 * factorial(k) * (2 * s) ** k
            assert value / hermite_diagonal_reference(k) == (2 * s) ** k


def test_hermite_inner_off_diagonal_vanishes():
    for xi in XIS:
        table = hermite_table(6, xi)
        assert [key for key, value in table.items() if value != 0] == [(k, k) for k in range(7)]


def test_hermite_inner_rejects_nonpositive_xi():
    for xi in (XiParam(0), XiParam(Fraction(-1, 3))):
        with pytest.raises(ValueError, match="xi must be positive"):
            hermite_table(3, xi)


def test_tables_refuse_a_negative_max_index():
    # A 1e-400 parameter has a denominator past float range, so any power taken
    # with a negative index before the check would raise OverflowError instead.
    for table in (
        lambda top: laguerre_table(top, AlphaParam(Fraction(1, 2))),
        lambda top: hermite_table(top, XiParam(2)),
        lambda top: laguerre_table(top, AlphaParam("1e-400")),
        lambda top: hermite_table(top, XiParam("1e-400")),
    ):
        assert len(table(0)) == 1
        for top in (-1, -3):
            with pytest.raises(ValueError) as info:
                table(top)
            assert str(info.value) == "max index must be nonnegative"


def _reference_inner(product, moment_of):
    """Sum of the product's coefficients times Fraction moments."""
    return sum((c * moment_of(j) for j, c in enumerate(product.coeffs)), Fraction(0))


LARGE_DENOMINATOR = Fraction(10**12 + 39, 10**11 + 3)


def test_laguerre_inner_matches_moment_reference():
    for alpha in ALPHAS + [AlphaParam(Fraction(7, 3)), AlphaParam(LARGE_DENOMINATOR)]:
        table = laguerre_table(12, alpha)
        for (n, m), value in table.items():
            product = laguerre(n, alpha) * laguerre(m, alpha)
            assert value == _reference_inner(product, lambda j: laguerre_moment(j, alpha))
            assert (value == 0) == (n != m)


def test_hermite_inner_matches_moment_reference():
    for xi in XIS + [XiParam(Fraction(5, 2)), XiParam(LARGE_DENOMINATOR)]:
        table = hermite_table(12, xi)
        for (k, l), value in table.items():
            product = scaled_hermite(k, xi) * scaled_hermite(l, xi)
            assert value == _reference_inner(product, lambda j: hermite_moment(j, xi))
            assert (value == 0) == (k != l)


def test_table_diagonals():
    for alpha in ALPHAS + [AlphaParam(LARGE_DENOMINATOR)]:
        table = laguerre_table(9, alpha)
        for n in range(10):
            assert laguerre_diagonal(n, alpha) == table[n, n]
            assert laguerre_diagonal(n, alpha) == laguerre_moment(n, alpha) / factorial(n)
    assert laguerre_diagonal(2, AlphaParam(Fraction(1, 2))) == Fraction(15, 8)
    for xi in XIS:
        table = hermite_table(9, xi)
        for k in range(10):
            assert hermite_diagonal(k, xi) == 2 * factorial(k) * (2 * xi.value) ** k
            assert hermite_diagonal(k, xi) == table[k, k]


def _rationals(smallest: int) -> st.SearchStrategy[Fraction]:
    """smallest (0 or 1), p/q with q <= 64, or one value with 13- and 16-digit terms."""
    return st.one_of(
        st.just(Fraction(smallest)),
        st.builds(Fraction, st.integers(smallest, 4096), st.integers(1, 64)),
        st.just(Fraction(10**15 + 37, 10**12 + 39)),
    )


@settings(max_examples=60, deadline=None)
@given(top=st.integers(0, 12), a=_rationals(0), s=_rationals(1))
def test_tables_and_entries_match_product_reference(top, a, s):
    alpha, xi = AlphaParam(a), XiParam(s)
    pairs = [(n, m) for n in range(top + 1) for m in range(n, top + 1)]
    assert list(laguerre_table(top, alpha).items()) == [
        ((n, m), reference_laguerre_inner(n, m, alpha)) for n, m in pairs
    ]
    assert list(hermite_table(top, xi).items()) == [
        ((k, l), reference_hermite_inner(k, l, xi)) for k, l in pairs
    ]
