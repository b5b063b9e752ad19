"""Sturm chains, exact root counting, isolation, and certification."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laguerreflow import (
    AlphaParam,
    DEFAULT_WIDTH,
    Poly,
    XiParam,
    certify,
    cli,
    count_real_roots,
    count_real_roots_open,
    isolate_roots,
    laguerre,
    laguerre_transform,
    largest_root_enclosure,
    monic_laguerre,
    random_alpha,
    random_poly,
    random_real_rooted,
    scaled_hermite,
)
from laguerreflow.realroot import (
    _RootContext,
    _cauchy_bound,
    _float_roots,
    _positive_root_bound,
    _primitive,
)
from reference import cauchy_root_bound, fraction_shift, monic, square_free

root_values = st.fractions(min_value=-6, max_value=6, max_denominator=10)
small_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=4
).map(Poly)


def test_sturm_chain_structure():
    assert _RootContext([-2, 0, 1]).chain == ((-2, 0, 1), (0, 1), (1,))


# A theorem image, the image of a random real-rooted draw, repeated roots, a
# real-rooted factor times x^2 + x + 1, and x^2 + x + 1 alone.
INTEGER_CONTEXT_CASES = {
    "theorem_image": laguerre_transform(
        Poly.from_roots([(Fraction(1, 3), 2), (2, 1), (Fraction(7, 5), 1)]),
        AlphaParam(Fraction(5, 2)),
    ),
    "random_image": laguerre_transform(
        random_real_rooted(random.Random(3), 8), random_alpha(random.Random(4))
    ),
    "repeated_roots": Poly.from_roots([(Fraction(1, 3), 3), (-2, 2), (5, 1)], lead=Fraction(-7, 4)),
    "complex_cofactor": Poly.from_roots([(Fraction(-1, 2), 1), (3, 2)]) * Poly([1, 1, 1]),
    "no_real_roots": Poly([1, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(INTEGER_CONTEXT_CASES))
def test_integer_context_matches_poly_path(name):
    f = INTEGER_CONTEXT_CASES[name]
    nums = f.nums
    poly_path = _RootContext(nums)
    ends = [None] + [Fraction(e) for e in (-3, Fraction(-1, 2), 0, Fraction(1, 3), 2, 5)]
    width = Fraction(1, 1024)
    for multiple in (1, -1, 7, -3, 10**30 + 1, -(2**70)):
        ctx = _RootContext([multiple * c for c in nums])
        assert (ctx.f, ctx.g, ctx.chain) == (poly_path.f, poly_path.g, poly_path.chain)
        assert ctx.distinct == poly_path.distinct == count_real_roots(f)
        for i, lo in enumerate(ends):
            for hi in ends[i + 1 :] + [None]:
                assert ctx.count(lo, hi) == count_real_roots(f, lo, hi)
                if lo is not None and hi is not None:
                    assert ctx.count_open(lo, hi) == count_real_roots_open(f, lo, hi)
        assert ctx.isolate(width) == isolate_roots(f, width)
        if ctx.distinct:
            assert ctx.enclose(width) == largest_root_enclosure(f, width)


def test_zero_polynomial_is_refused_everywhere():
    counting = "root counting on the zero polynomial is undefined"
    calls = {
        counting: [
            lambda: count_real_roots(Poly()),
            lambda: count_real_roots(Poly(), -1, 1),
            lambda: count_real_roots_open(Poly(), -1, 1),
        ],
        "certification needs a nonconstant polynomial": [lambda: certify(Poly())],
        "root isolation needs a nonconstant polynomial": [lambda: isolate_roots(Poly())],
        "largest-root enclosure needs a nonconstant polynomial": [
            lambda: largest_root_enclosure(Poly())
        ],
        # Each query also names itself when it refuses a width.
        "certification width must be positive": [lambda: certify(Poly([-2, 0, 1]), 0)],
        "root isolation width must be positive": [
            lambda: isolate_roots(Poly([-2, 0, 1]), Fraction(-1, 3))
        ],
        "largest-root enclosure width must be positive": [
            lambda: largest_root_enclosure(Poly([-2, 0, 1]), "0")
        ],
    }
    for message, refused in calls.items():
        for call in refused:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        _RootContext([])
    assert str(info.value) == counting


def test_count_pins():
    assert count_real_roots(Poly([-2, 0, 1])) == 2
    assert count_real_roots(Poly([2, 0, 1])) == 0
    assert count_real_roots(Poly.from_roots([(1, 2)])) == 1
    assert count_real_roots(Poly([0, -1, 0, 1])) == 3
    assert count_real_roots(Poly([5])) == 0


def test_count_on_intervals():
    f = Poly([-2, 0, 1])
    assert count_real_roots(f, 0, 2) == 1
    assert count_real_roots(f, -2, 0) == 1
    assert count_real_roots(f, 1, 2) == 1
    assert count_real_roots(f, Fraction(3, 2), 2) == 0
    with pytest.raises(ValueError):
        count_real_roots(f, 2, 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        count_real_roots(Poly())
    with pytest.raises(ValueError, match="zero polynomial"):
        count_real_roots_open(Poly(), 0, 1)


def test_count_half_open_convention():
    f = Poly([-1, 1])
    assert count_real_roots(f, 0, 1) == 1
    assert count_real_roots(f, 1, 2) == 0
    assert count_real_roots_open(f, 0, 1) == 0
    assert count_real_roots_open(f, Fraction(1, 2), 2) == 1


def test_count_multiple_roots_at_endpoint():
    f = Poly.from_roots([(1, 3)])
    assert count_real_roots(f, 0, 1) == 1
    assert count_real_roots_open(f, 0, 1) == 0


def test_open_count_refuses_an_unbounded_end():
    # Open counts take finite ends only; None is refused as a rational, on either side.
    f = Poly([-2, 0, 1])
    for lo, hi in ((None, 1), (-1, None), (None, None)):
        with pytest.raises((TypeError, ValueError)):
            count_real_roots_open(f, lo, hi)


def test_polish_stops_on_a_flat_root():
    # x^2 from -1: Laguerre's method lands on the double root 0 exactly, where
    # the derivative vanishes too, so the Newton polish stops without a step.
    assert _float_roots([1.0, 0.0, 0.0], -1.0, 1e-9) == [0.0, 0.0]


@settings(max_examples=100)
@given(
    st.dictionaries(root_values, st.integers(min_value=1, max_value=3), max_size=5),
    st.sampled_from([Fraction(-5, 2), Fraction(-1), Fraction(1), Fraction(7, 3)]),
    st.booleans(),
    st.data(),
)
def test_counts_match_constructed_roots(roots, lead, non_real_pair, data):
    f = Poly.from_roots(list(roots.items()), lead=lead)
    if non_real_pair:
        f = f * Poly([1, 0, 1])
    # Endpoints drawn from the roots themselves as often as from anywhere.
    ends = st.sampled_from(sorted(roots)) | root_values if roots else root_values
    lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    for a, b in ((lo, hi), (None, hi), (lo, None), (None, None)):
        expected = sum(1 for r in roots if (a is None or a < r) and (b is None or r <= b))
        assert count_real_roots(f, a, b) == expected, (a, b)
    assert count_real_roots_open(f, lo, hi) == sum(1 for r in roots if lo < r < hi)


def test_cauchy_root_bound():
    assert cauchy_root_bound(Poly([4, 4, 1])) == 5
    assert cauchy_root_bound(Poly([0, 0, Fraction(1, 2)])) == 1
    with pytest.raises(ValueError):
        cauchy_root_bound(Poly([7]))
    with pytest.raises(ValueError):
        cauchy_root_bound(Poly())


@settings(max_examples=40)
@given(st.lists(root_values, min_size=1, max_size=4))
def test_cauchy_bound_exceeds_all_roots(roots):
    f = Poly.from_roots([(r, 1) for r in roots])
    bound = cauchy_root_bound(f)
    assert all(abs(r) < bound for r in roots)


coefficients = st.fractions(max_denominator=10**6) | st.integers(-(10**400), 10**400).map(Fraction)


@settings(max_examples=200)
@given(st.lists(coefficients, min_size=2, max_size=8).filter(lambda cs: cs[-1] != 0))
def test_integer_cauchy_bound_matches_reference(coeffs):
    f = Poly(coeffs)
    assert _cauchy_bound(_primitive(f.nums)) == cauchy_root_bound(f)
    assert _cauchy_bound(f.nums) == cauchy_root_bound(f)


def test_integer_cauchy_bound_cases():
    cases = [
        Poly([3, -7, -2]),  # negative lead
        Poly([0, 5, 0, Fraction(-1, 3)]),  # zero constant term, negative lead
        Poly([Fraction(-5, 2), Fraction(3, 4)]),  # degree 1
        Poly([10**400, 0, 1]),  # beyond float range
        Poly([1, Fraction(-(10**400), 7), 0, 3]),
    ]
    for f in cases:
        assert _cauchy_bound(_primitive(f.nums)) == cauchy_root_bound(f)
    assert _cauchy_bound((10**400, 0, 1)) == 10**400 + 1
    assert _cauchy_bound((0, 0, -2)) == 1


@settings(max_examples=100)
@given(
    st.lists(root_values | st.integers(-130, 130).map(Fraction), min_size=1, max_size=5),
    st.sampled_from([Fraction(1), Fraction(-3), Fraction(2, 7)]),
)
@example([Fraction(-37, 2), Fraction(3, 2), Fraction(64)], Fraction(1))
@example([Fraction(-23), Fraction(1), Fraction(7, 2), Fraction(9), Fraction(71)], Fraction(-3))
def test_positive_root_bound_lies_above_every_positive_root(roots, lead):
    # Isolation skips the evaluation past this bound, so a root at or above it
    # would be lost; only proposals-off isolation reaches that skip.
    ints = Poly.from_roots([(r, 1) for r in roots], lead=lead).nums
    bound = _positive_root_bound(ints)
    positive = [r for r in roots if r > 0]
    assert all(r < bound for r in positive), (roots, bound)
    assert bound & (bound - 1) == 0 and (bound == 0) == (not positive)


def test_positive_root_bound_rounds_up():
    # Kioustelidis for these roots is 2 * 64 at the constant term, rounded up.
    roots = [(Fraction(-37, 2), 1), (Fraction(3, 2), 1), (64, 1)]
    assert _positive_root_bound(Poly.from_roots(roots).nums) == 128
    assert _positive_root_bound((5, 1)) == 0 and _positive_root_bound((-1, 1)) == 2


def test_isolate_sqrt2():
    intervals = isolate_roots(Poly([-2, 0, 1]))
    assert len(intervals) == 2
    neg, pos = intervals
    assert neg.hi < pos.lo
    assert pos.lo > 0 and pos.lo ** 2 < 2 <= pos.hi ** 2
    assert pos.hi - pos.lo <= DEFAULT_WIDTH
    assert neg.lo ** 2 >= 2 > neg.hi ** 2


def test_isolate_respects_width():
    f = Poly.from_roots([(0, 1), (Fraction(1, 3), 1), (5, 1)])
    w = Fraction(1, 1000)
    intervals = isolate_roots(f, w)
    assert len(intervals) == 3
    for iv in intervals:
        assert iv.hi - iv.lo <= w
    for left, right in zip(intervals, intervals[1:]):
        assert left.hi < right.lo
    for root, iv in zip([Fraction(0), Fraction(1, 3), Fraction(5)], intervals):
        assert iv.lo < root <= iv.hi


def test_isolate_constant_and_rootless():
    assert isolate_roots(Poly([2, 0, 1])) == ()
    with pytest.raises(ValueError):
        isolate_roots(Poly([3]))
    with pytest.raises(ValueError):
        isolate_roots(Poly())
    with pytest.raises(ValueError, match="width must be positive"):
        isolate_roots(Poly([-2, 0, 1]), 0)


def test_certify_pins():
    double = certify(Poly.from_roots([(-2, 2)]))
    assert double.degree == 2
    assert double.distinct_real_roots == 1
    assert double.is_real_rooted and not double.is_simple

    complex_pair = certify(Poly([2, 0, 1]))
    assert not complex_pair.is_real_rooted
    assert complex_pair.distinct_real_roots == 0
    assert complex_pair.intervals == ()

    cubic = certify(monic_laguerre(3, AlphaParam(0)))
    assert cubic.distinct_real_roots == 3
    assert cubic.is_real_rooted and cubic.is_simple

    line = certify(Poly([Fraction(5, 3), 1]))
    assert line.is_real_rooted and line.is_simple


def test_certify_rejects_trivial_inputs():
    with pytest.raises(ValueError):
        certify(Poly())
    with pytest.raises(ValueError):
        certify(Poly([3]))


def test_certify_json_shape():
    report = json.loads(cli._json_text(certify(Poly([-2, 0, 1]))))
    assert report["degree"] == 2
    assert report["distinct_real_roots"] == 2
    assert report["real_rooted"] is True
    assert report["simple"] is True
    assert len(report["intervals"]) == 2
    lo, hi = report["intervals"][0]
    assert isinstance(lo, str) and isinstance(hi, str)


@settings(max_examples=30)
@given(st.lists(root_values, min_size=1, max_size=4), st.integers(min_value=1, max_value=5))
def test_certify_invariant_under_scaling(roots, scale):
    f = Poly.from_roots([(r, 1) for r in set(roots)])
    a, b = certify(f), certify(f * scale)
    assert a.distinct_real_roots == b.distinct_real_roots
    assert a.is_real_rooted == b.is_real_rooted
    assert a.is_simple == b.is_simple


def test_certify_shift_preserves_counts():
    f = Poly.from_roots([(0, 2), (3, 1)])
    for c in [Fraction(1), Fraction(-7, 2)]:
        g = fraction_shift(f, c)
        assert certify(g).distinct_real_roots == 2
        assert certify(g).is_real_rooted


def test_largest_root_enclosure():
    lo, hi = largest_root_enclosure(Poly([-4, 0, 1]))
    assert lo <= 2 <= hi and hi - lo <= DEFAULT_WIDTH

    lo, hi = largest_root_enclosure(Poly([1, -1]))
    assert lo <= 1 <= hi

    lo, hi = largest_root_enclosure(Poly([4, 4, 1]))
    assert lo <= 2 <= hi

    assert largest_root_enclosure(Poly([0, 1])) == (0, 0)

    lo, hi = largest_root_enclosure(Poly([0, -1, 0, 1]))
    assert lo <= 1 <= hi and hi < Fraction(3, 2)

    with pytest.raises(ValueError):
        largest_root_enclosure(Poly([2, 0, 1]))
    with pytest.raises(ValueError, match="nonconstant"):
        largest_root_enclosure(Poly([3]))


# Exact enclosures at the default width, for the inputs above and for the
# lemma-window radius polynomials; they depend on the starting Cauchy bound.
PINNED_ENCLOSURES = [
    (Poly([-4, 0, 1]), "16777215/8388608", "4194305/2097152"),
    (Poly([1, -1]), "1048575/1048576", "1"),
    (Poly([4, 4, 1]), "16777215/8388608", "4194305/2097152"),
    (Poly([0, 1]), "0", "0"),
    (Poly([0, -1, 0, 1]), "1048575/1048576", "1"),
    (laguerre(2, AlphaParam(Fraction(1, 2))), "17117535/4194304", "8558769/2097152"),
    (laguerre(3, AlphaParam(Fraction(1, 2))), "943939673/134217728", "471969891/67108864"),
    (laguerre(4, AlphaParam(Fraction(1, 2))), "5466654539/536870912", "683331857/67108864"),
    (
        laguerre(5, AlphaParam(Fraction(1, 2))),
        "462402291001/34359738368",
        "231201154171/17179869184",
    ),
    (scaled_hermite(2, XiParam(2)), "16777215/8388608", "4194305/2097152"),
    (scaled_hermite(3, XiParam(2)), "58117969/16777216", "29058991/8388608"),
    (scaled_hermite(4, XiParam(2)), "313319769/67108864", "156659909/33554432"),
    (scaled_hermite(5, XiParam(2)), "1533824015/268435456", "5991501/1048576"),
]


@pytest.mark.parametrize("f, lo, hi", PINNED_ENCLOSURES)
def test_largest_root_enclosure_pinned(f, lo, hi):
    assert largest_root_enclosure(f) == (Fraction(lo), Fraction(hi))


def test_certified_family_root_counts():
    for k in range(1, 7):
        cert = certify(monic_laguerre(k, AlphaParam(Fraction(1, 2))))
        assert cert.distinct_real_roots == k and cert.is_simple
        cert = certify(scaled_hermite(k, XiParam(2)))
        assert cert.distinct_real_roots == k and cert.is_simple


def test_constructed_root_oracle():
    rng = random.Random(20260818)
    for _ in range(60):
        distinct = rng.randint(1, 5)
        roots = set()
        while len(roots) < distinct:
            roots.add(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
        pairs = [(r, rng.randint(1, 3)) for r in sorted(roots)]
        f = Poly.from_roots(pairs, lead=Fraction(rng.choice([-3, -1, 1, 2]), 2))
        assert count_real_roots(f) == distinct
        intervals = isolate_roots(f, Fraction(1, 2**10))
        assert len(intervals) == distinct
        for (root, _), iv in zip(pairs, intervals):
            assert iv.lo < root <= iv.hi


# Outputs of the rational-bisection isolator these must reproduce byte for byte.
PINNED = json.loads(Path(__file__).with_name("realroot_pinned.json").read_text())
PINNED_INPUTS = {
    # Bisection midpoints land exactly on roots, so the nudge path runs.
    "bisection_hits_roots": Poly.from_roots(
        [(0, 1), (Fraction(1, 2), 1), (Fraction(-1, 2), 1), (-1, 1)]
    ),
    "x": Poly([0, 1]),
    "x3_minus_x": Poly([0, -1, 0, 1]),
    "repeated_negative_lead": Poly.from_roots(
        [(0, 3), (Fraction(1, 2), 2), (-1, 1), (Fraction(7, 3), 2)], lead=Fraction(-5, 2)
    ),
    "negative_lead": Poly.from_roots(
        [(Fraction(-3, 4), 1), (Fraction(1, 3), 1), (2, 1)], lead=-7
    ),
    # Remainder steps that scale by a negative leading coefficient an odd number
    # of times: scaling by lc^k instead of |lc|^k flips a chain element here.
    "sparse_negative_lead": Poly([1, -2, 0, 0, -2]),
    "even_quartic": Poly([-3, 0, 4, 0, 1]),
    "degree12_image": laguerre_transform(
        Poly.from_roots(
            [(0, 1), (Fraction(1, 3), 2), (1, 1), (Fraction(5, 2), 3), (4, 1), (7, 2), (12, 2)]
        ),
        AlphaParam(Fraction(3, 4)),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_INPUTS))
def test_pinned_outputs(name):
    f = PINNED_INPUTS[name]
    assert json.loads(cli._json_text(certify(f))) == PINNED[name]["certify"]
    intervals = isolate_roots(f, Fraction(1, 1024))
    assert json.loads(cli._json_text(intervals)) == PINNED[name]["isolate"]


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys, st.sampled_from([-3, -1, 1, 2]))
def test_context_square_free_part_matches_fraction_reference(a, b, c, lead):
    f = a * b * b * c * c * c * Poly([lead])
    if f.is_zero:
        return
    assert monic(Poly(_RootContext(f.nums).g)) == square_free(f)


@settings(max_examples=40)
@given(
    st.dictionaries(root_values, st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
    st.sampled_from([Fraction(-5, 2), Fraction(-1), Fraction(1), Fraction(7, 3)]),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(3)]),
    st.sampled_from([DEFAULT_WIDTH, Fraction(1, 1000), Fraction(1, 3)]),
)
def test_isolation_properties(roots, lead, offset, width):
    f = Poly.from_roots(list(roots.items()), lead=lead)
    if offset:
        f = f * Poly([offset, 0, 1])  # two non-real roots
    intervals = isolate_roots(f, width)
    assert len(intervals) == len(roots)
    for left, right in zip(intervals, intervals[1:]):
        assert left.hi <= right.lo
    for root, iv in zip(sorted(roots), intervals):
        assert iv.lo < root <= iv.hi and iv.hi - iv.lo <= width


def test_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(2024)
    cases = []
    for _ in range(6):
        cases.append(laguerre_transform(random_real_rooted(rng, 24), random_alpha(rng)))
        cases.append(
            laguerre_transform(random_real_rooted(rng, 24, nonneg=False), random_alpha(rng))
        )
        cases.append(random_real_rooted(rng, 24, nonneg=False))
        cases.append(random_poly(rng, 24) * Poly([1, 1]))
    assert max(f.degree() for f in cases) >= 20
    for f in cases:
        p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
        cert = certify(f)
        # sympy's isolating intervals, refined well inside ours, one per distinct root.
        roots = p.intervals(eps=sympy.Rational(1, 2**40))
        assert cert.distinct_real_roots == len(roots) == len(cert.intervals)
        for ((a, b), _), iv in zip(roots, cert.intervals):
            assert iv.lo < Fraction(int(a.p), int(a.q))
            assert Fraction(int(b.p), int(b.q)) <= iv.hi
