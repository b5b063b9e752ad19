"""Verification harnesses: transform checks, localization lemmas, traces."""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from laguerreflow import (
    DEFAULT_WIDTH,
    AlphaParam,
    LocalizationReport,
    Poly,
    XiParam,
    certify,
    cli,
    counterexample_search,
    flow_trace,
    heat_semigroup,
    hermite_radius_bound,
    laguerre,
    laguerre_radius_bound,
    laguerre_transform,
    lemma1_localize,
    lemma2_localize,
    random_alpha,
    random_poly,
    random_rational,
    random_real_rooted,
    random_root_pairs,
    scaled_hermite,
    semigroup_check,
    verify_theorem1,
)
from laguerreflow.flow import _window_count
from reference import (
    bisection_enclosure,
    fraction_shift,
    reference_count_open,
    reference_heat_semigroup,
)

A0 = AlphaParam(0)


def test_verify_theorem1_pins():
    ok = verify_theorem1(Poly.from_roots([(2, 2)]), A0)
    assert ok.transformed == Poly([10, -8, 1])
    assert ok.passed and ok.certificate.is_real_rooted and ok.certificate.is_simple

    bad = verify_theorem1(Poly.from_roots([(-2, 2)]), A0)
    assert bad.transformed == Poly([2, 0, 1])
    assert not bad.passed and not bad.certificate.is_real_rooted


def test_verify_theorem1_degree_one_always_passes():
    for alpha in [A0, AlphaParam(Fraction(1, 2)), AlphaParam(3)]:
        for c in [Fraction(-9), Fraction(0), Fraction(7, 3)]:
            assert verify_theorem1(Poly([c, 1]), alpha).passed


def test_verify_theorem1_rejects_constants():
    with pytest.raises(ValueError):
        verify_theorem1(Poly([2]), A0)
    with pytest.raises(ValueError):
        verify_theorem1(Poly(), A0)


def test_transform_discriminant_boundary():
    # For (x - xi)^2 the transformed discriminant is 4*(alpha + 2 + 2*xi),
    # so the pass/fail boundary sits exactly at xi = -(alpha+2)/2.
    for alpha in [A0, AlphaParam(Fraction(1, 2)), AlphaParam(2)]:
        a = alpha.value
        for xi in [Fraction(-4), Fraction(-2), Fraction(-1), Fraction(0), Fraction(5, 2)]:
            t = laguerre_transform(Poly.from_roots([(xi, 2)]), alpha)
            disc = t.coeff(1) ** 2 - 4 * t.coeff(0)
            assert disc == 4 * (a + 2 + 2 * xi)
        boundary = -(a + 2) / 2
        assert verify_theorem1(Poly.from_roots([(boundary, 2)]), alpha).passed
        assert not verify_theorem1(
            Poly.from_roots([(boundary - Fraction(1, 64), 2)]), alpha
        ).passed
        assert verify_theorem1(
            Poly.from_roots([(boundary + Fraction(1, 64), 2)]), alpha
        ).passed


def test_counterexample_search_flip():
    grid = [
        Fraction(-4),
        Fraction(-3),
        Fraction(-2),
        Fraction(-3, 2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1),
    ]
    points = counterexample_search(A0, grid, 2)
    assert [p.passed for p in points] == [False, False, False, False, True, True, True, True]
    assert [p.xi for p in points] == grid
    with pytest.raises(ValueError):
        counterexample_search(A0, grid, 0)


def test_laguerre_radius_bounds():
    assert laguerre_radius_bound(1, A0) == 1
    b = laguerre_radius_bound(2, A0)
    assert (b - 2) ** 2 >= 2 and (b - Fraction(1, 2**20) - 2) ** 2 < 2
    with_shift = laguerre_radius_bound(2, AlphaParam(2))
    assert with_shift > b


def test_hermite_radius_bounds():
    assert hermite_radius_bound(1, XiParam(1)) == 0
    r = hermite_radius_bound(2, XiParam(1))
    assert r * r >= 2 and (r - Fraction(1, 2**20)) ** 2 < 2
    with pytest.raises(ValueError):
        hermite_radius_bound(2, XiParam(-1))


def test_lemma2_pins():
    rep = lemma2_localize(1, Poly([-3, 1]), A0, Fraction(1, 100))
    assert rep.window_lo == Fraction(-1, 50) and rep.window_hi == Fraction(1, 50)
    assert rep.radius_used == 1
    assert rep.roots_in_window == 1 and rep.passed
    assert not rep.degenerate_radius

    rep = lemma2_localize(1, Poly([1, 1]), A0, Fraction(1, 100))
    assert rep.roots_in_window == 1 and rep.passed


def test_lemma2_report_invariant():
    for k in [1, 2, 3]:
        for h in [Fraction(1, 8), Fraction(1, 1024), Fraction(10)]:
            rep = lemma2_localize(k, Poly([-3, 1]), AlphaParam(Fraction(1, 2)), h)
            assert rep.passed == (rep.roots_in_window >= k)
            assert rep.window_lo == -rep.window_hi


def test_lemma2_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        lemma2_localize(0, Poly([1, 1]), A0, Fraction(1, 4))
    with pytest.raises(ValueError):
        lemma2_localize(1, Poly([0, 1]), A0, Fraction(1, 4))
    with pytest.raises(ValueError):
        lemma2_localize(1, Poly([1, 1]), A0, 0)
    with pytest.raises(ValueError):
        lemma2_localize(1, Poly([1, 1]), A0, Fraction(-1, 4))


def test_lemma1_pins():
    rep = lemma1_localize(2, XiParam(1), Poly([1]), A0, Fraction(1, 10))
    assert rep.roots_in_window == 2 and rep.passed
    assert not rep.degenerate_radius
    r = rep.radius_used
    assert rep.window_lo == 1 - 2 * r * Fraction(1, 10)
    assert rep.window_hi == 1 + 2 * r * Fraction(1, 10)


def test_lemma1_degenerate_k1():
    rep = lemma1_localize(1, XiParam(1), Poly([1]), A0, Fraction(1, 10))
    assert rep.degenerate_radius and rep.radius_used == 1
    assert rep.window_lo == Fraction(4, 5) and rep.window_hi == Fraction(6, 5)
    assert rep.roots_in_window == 1 and rep.passed


def test_lemma1_rejects_bad_hypotheses():
    with pytest.raises(ValueError):
        lemma1_localize(2, XiParam(0), Poly([1]), A0, Fraction(1, 10))
    # The radius bound refuses xi < 0 at every k, k = 1 (radius 1 fallback) too.
    for k in (1, 2):
        with pytest.raises(ValueError, match="Hermite radius undefined"):
            lemma1_localize(k, XiParam(-1), Poly([1]), A0, Fraction(1, 10))
    with pytest.raises(ValueError):
        lemma1_localize(2, XiParam(1), Poly([0, 1]), A0, Fraction(1, 10))
    with pytest.raises(ValueError):
        lemma1_localize(2, XiParam(1), Poly([1]), A0, 0)
    with pytest.raises(ValueError):
        lemma1_localize(0, XiParam(1), Poly([1]), A0, Fraction(1, 10))


@lru_cache(maxsize=None)
def reference_radius(family, k: int, param) -> Fraction:
    return bisection_enclosure(family(k, param), DEFAULT_WIDTH)[1]


def reference_window(
    k: int, p: Poly, alpha: AlphaParam, time: Fraction, centre: Fraction,
    radius: Fraction, scale: Fraction, degenerate: bool,
) -> LocalizationReport:
    """The lemma window by Fraction shift, series flow and Sturm count."""
    f = fraction_shift(Poly([0] * k + list(p.coeffs)), -centre)
    flowed = reference_heat_semigroup(f, alpha, time)
    lo, hi = centre - 2 * radius * scale, centre + 2 * radius * scale
    count = reference_count_open(flowed, lo, hi)
    return LocalizationReport(k, lo, hi, count, count >= k, radius, degenerate)


# Cofactors with complex roots: x^2 + x + 1, (x^2 + 1)(x - 2), and 3x^3 - x + 2.
COMPLEX_COFACTORS = (Poly([1, 1, 1]), Poly([-2, 1, -2, 1]), Poly([2, -1, 0, 3]))


def test_lemma_windows_match_reference():
    rng = random.Random(20)
    for trial in range(48):
        if trial % 3 == 0:
            p = COMPLEX_COFACTORS[trial // 3 % 3]
        else:
            p = random_poly(rng, 3)
            while p.coeffs[0] == 0:
                p = random_poly(rng, 3)
        k = trial % 5 + 1
        alpha = (A0, AlphaParam(Fraction(1, 10**16)), random_alpha(rng))[trial % 3]
        xi = XiParam(random_rational(rng, 1, 64, max_den=16))
        rung = Fraction(1, 2**20) if trial % 4 == 0 else Fraction(1, 2 ** rng.randint(1, 20))

        radius = reference_radius(laguerre, k, alpha)
        expected = reference_window(k, p, alpha, rung, Fraction(0), radius, rung, False)
        assert lemma2_localize(k, p, alpha, rung) == expected

        radius = Fraction(1) if k == 1 else reference_radius(scaled_hermite, k, xi)
        expected = reference_window(k, p, alpha, rung * rung, xi.value, radius, rung, k == 1)
        assert lemma1_localize(k, xi, p, alpha, rung) == expected


def test_lemma_windows_leave_roots_on_their_ends_out():
    # At time 0 the window counts (x^k * p)(x - c) itself, whose distinct roots
    # are c and c + r; r = -/+3/2 puts c + r on an end of c -/+ 2 * (3/8) * 2.
    k, radius, scale, half = 2, Fraction(3, 8), Fraction(2), Fraction(3, 2)
    for centre in (Fraction(0), Fraction(7, 3)):
        for r in (half, -half):
            rep = _window_count(k, Poly([-r, 1]), A0, Fraction(0), centre, radius, scale, False)
            assert (rep.window_lo, rep.window_hi) == (centre - half, centre + half)
            assert rep.roots_in_window == 1 and not rep.passed


def test_lemma_windows_build_no_poly(monkeypatch):
    p, alpha, xi = Poly([2, -1, 0, 3]), AlphaParam(Fraction(7, 3)), XiParam(7)
    rung = Fraction(1, 2**20)
    calls = [
        lambda: lemma2_localize(5, p, alpha, rung),
        lambda: lemma1_localize(5, xi, p, alpha, rung),
        lambda: lemma1_localize(1, xi, p, A0, rung),
    ]
    expected = [call() for call in calls]  # warms the radius caches
    built = []
    construct, from_ints = Poly.__init__, Poly._from_ints

    def counting(self, coeffs=()):
        built.append(coeffs)
        construct(self, coeffs)

    def counting_ints(cls, nums, den):
        built.append((nums, den))
        return from_ints(nums, den)

    # Both constructors: the literal one and the kernels' integer one.
    monkeypatch.setattr(Poly, "__init__", counting)
    monkeypatch.setattr(Poly, "_from_ints", classmethod(counting_ints))
    assert [call() for call in calls] == expected
    assert built == []
    heat_semigroup(p, alpha, rung)  # a flow that does build its Poly is counted
    assert len(built) == 1


def test_semigroup_check_pins():
    assert semigroup_check(Poly([0, 0, 1]), A0, Fraction(1, 3), Fraction(2, 7))
    assert semigroup_check(Poly([0, 0, 1]), A0, Fraction(5), 0)
    assert semigroup_check(Poly([1, -4, 2, 1]), AlphaParam(2), Fraction(-3, 5), Fraction(9, 2))


def test_semigroup_check_random():
    rng = random.Random(99)
    for _ in range(50):
        f = random_poly(rng, 10)
        assert semigroup_check(
            f, random_alpha(rng), random_rational(rng, -64, 64), random_rational(rng, -64, 64)
        )


def test_semigroup_check_agrees_with_reference():
    rng = random.Random(2024)
    for trial in range(60):
        f = random_poly(rng, 20)
        alpha = random_alpha(rng)
        h1, h2 = random_rational(rng, -64, 64), random_rational(rng, -64, 64)
        if trial % 5 == 0:
            h2 = -h1
        two_step = reference_heat_semigroup(reference_heat_semigroup(f, alpha, h1), alpha, h2)
        law = two_step == reference_heat_semigroup(f, alpha, h1 + h2)
        assert law
        assert semigroup_check(f, alpha, h1, h2) == law


def test_flow_trace_certifies_reference_flows():
    f = Poly.from_roots([(Fraction(1, 2), 3), (2, 1), (Fraction(-3, 4), 2)])
    alpha = AlphaParam(Fraction(5, 7))
    grid = [0, Fraction(1, 64), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), 1, 2]
    width = Fraction(1, 1024)
    trace = flow_trace(f, alpha, grid, width)
    assert [s.h for s in trace.samples] == grid
    for sample in trace.samples:
        expected = certify(reference_heat_semigroup(f, alpha, sample.h), width)
        assert cli._json_text(sample.certificate) == cli._json_text(expected)


def test_flow_trace_theorem_regime():
    f = Poly.from_roots([(2, 1), (5, 1)])
    grid = [Fraction(j, 10) for j in range(11)]
    trace = flow_trace(f, A0, grid)
    assert len(trace.samples) == 11
    assert trace.samples[0].h == 0
    for sample in trace.samples:
        cert = sample.certificate
        assert cert.is_real_rooted and cert.is_simple
        assert cert.degree == 2
        flowed = heat_semigroup(f, A0, sample.h)
        assert flowed.leading() == f.leading()


def test_flow_trace_interior_simplicity():
    f = Poly.from_roots([(1, 2)])
    trace = flow_trace(f, A0, [0, Fraction(1, 10), Fraction(1, 2)])
    first, *rest = trace.samples
    assert first.certificate.distinct_real_roots == 1
    assert not first.certificate.is_simple
    for sample in rest:
        assert sample.certificate.is_real_rooted and sample.certificate.is_simple


def test_flow_trace_grid_validation():
    f = Poly([0, 1])
    with pytest.raises(ValueError):
        flow_trace(f, A0, [])
    with pytest.raises(ValueError):
        flow_trace(f, A0, [Fraction(1, 2), 1])
    with pytest.raises(ValueError):
        flow_trace(f, A0, [0, Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        flow_trace(Poly([1]), A0, [0, 1])


def test_flow_trace_serialization():
    trace = flow_trace(Poly.from_roots([(2, 1)]), A0, [0, 1])
    blob = json.loads(cli._json_text(trace))
    assert blob["alpha"] == "0"
    assert blob["input"] == {"coeffs": ["-2", "1"]}
    assert len(blob["samples"]) == 2


def test_generators_are_deterministic():
    a = random_real_rooted(random.Random(5), 12)
    b = random_real_rooted(random.Random(5), 12)
    assert a == b
    assert random_poly(random.Random(5), 12) == random_poly(random.Random(5), 12)
    assert random_alpha(random.Random(5)) == random_alpha(random.Random(5))


def test_generator_ranges():
    rng = random.Random(7)
    for _ in range(40):
        pairs = random_root_pairs(rng, 12)
        assert 1 <= sum(m for _, m in pairs) <= 12
        assert all(r >= 0 and 1 <= m <= 3 for r, m in pairs)
        alpha = random_alpha(rng)
        assert 0 <= alpha.value <= 5
        f = random_poly(rng, 12)
        assert f.degree() <= 12
    signed = random_root_pairs(random.Random(11), 12, nonneg=False)
    assert all(abs(r) <= 64 for r, _ in signed)
