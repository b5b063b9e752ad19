"""The benchmark's workloads: seeded inputs, one call per item, and the gate.

Batch ``b`` of seed ``s`` is drawn from its own ``random.Random`` stream, so
every item can be rebuilt from (workload, seed, batch, index) alone. Items
reach the package through module attributes looked up at call time
(``lf.flow.verify_theorem1``), so the tracer's patches see them.

The gate never calls the package: intervals are judged by the exact integer
evaluation below, and CLI reports are read back from their JSON text.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Any

WIDTH = Fraction(1, 2**20)


@dataclass(frozen=True)
class Item:
    """One call the closed loop makes; ``ladder`` groups the rungs of one ladder."""

    kind: str
    args: tuple
    ladder: Any = None


@dataclass(frozen=True)
class CliResult:
    """Exit status and captured standard output of one in-process CLI call."""

    rc: int
    text: str


def call_cli(lf: SimpleNamespace, argv: list[str]) -> CliResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lf.cli.main(argv)
    return CliResult(rc, buf.getvalue())


def _sign_at(ints: list[int], x: Fraction) -> int:
    """Sign of sum ints[i] * x^i, from the integer sum scaled by den^n > 0."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def interval_problems(coeffs: list[Fraction], intervals: list[tuple[Fraction, Fraction]],
                      degree: int) -> list[str]:
    """Why ``intervals`` fail to isolate the ``degree`` roots of the polynomial, if they do.

    Each half-open interval (lo, hi] must be nonempty, at most 2^-20 wide,
    after the previous one, and carry a sign change or a root at hi. With
    exactly ``degree`` such intervals every root is isolated.
    """
    problems = []
    if len(intervals) != degree:
        problems.append(f"{len(intervals)} intervals for degree {degree}")
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    prev_hi = None
    for lo, hi in intervals:
        if not lo < hi <= lo + WIDTH:
            problems.append(f"({lo}, {hi}] is empty or wider than 2^-20")
        if prev_hi is not None and lo < prev_hi:
            problems.append(f"({lo}, {hi}] overlaps or precedes the previous interval")
        prev_hi = hi
        at_hi = _sign_at(ints, hi)
        if at_hi != 0 and _sign_at(ints, lo) * at_hi >= 0:
            problems.append(f"no sign change across ({lo}, {hi}]")
    return problems


def _positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 16), rng.randint(1, 8))


def _nonzero_rational(rng: random.Random) -> Fraction:
    value = Fraction(0)
    while value == 0:
        value = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    return value


def sha256_json(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """A named stream of batches; subclasses define the items and their checks."""

    name = ""
    trace_batches = 1

    def batch(self, lf: SimpleNamespace, seed: int, index: int) -> list[Item]:
        raise NotImplementedError

    def rng(self, seed: int, index: int) -> random.Random:
        return random.Random(f"{self.name}/{seed}/{index}")

    def before_batch(self, lf: SimpleNamespace) -> None:
        """Reset state that a fresh CLI process would not have."""

    def run(self, lf: SimpleNamespace, item: Item) -> Any:
        raise NotImplementedError

    def canonical(self, item: Item, out: Any) -> Any:
        """JSON form of the item's verdicts and intervals, for the output digest."""
        raise NotImplementedError

    def problems(self, items: list[Item], outs: list[Any]) -> list[tuple[int, str]]:
        """(index, reason) for every item of a batch that fails its check."""
        raise NotImplementedError

    def notes(self, items: list[Item], outs: list[Any]) -> dict:
        """Reported observations that are not pass/fail checks."""
        return {}


def _certificate_json(cert: Any) -> dict:
    return {
        "distinct": cert.distinct_real_roots,
        "real_rooted": cert.is_real_rooted,
        "simple": cert.is_simple,
        "intervals": [[str(iv.lo), str(iv.hi)] for iv in cert.intervals],
    }


class TheoremBatch(Workload):
    """verify_theorem1 on the criterion-6 inputs: realroot isolation dominates it."""

    name = "theorem-batch"

    def __init__(self, per_degree: int = 4, max_degree: int = 12, trace_batches: int = 5):
        self.per_degree = per_degree
        self.max_degree = max_degree
        self.trace_batches = trace_batches

    def batch(self, lf, seed, index):
        # random_real_rooted draws its degree uniformly from 1..max_degree;
        # keeping the first per_degree draws of each degree keeps that law and
        # gives every batch the same degree mix, so batch times vary less.
        rng = self.rng(seed, index)
        left = dict.fromkeys(range(1, self.max_degree + 1), self.per_degree)
        items = []
        while any(left.values()):
            f = lf.flow.random_real_rooted(rng, self.max_degree, nonneg=True)
            alpha = lf.flow.random_alpha(rng)
            if left[f.degree()]:
                left[f.degree()] -= 1
                items.append(Item("theorem", (f, alpha)))
        return items

    def run(self, lf, item):
        f, alpha = item.args
        return lf.flow.verify_theorem1(f, alpha, WIDTH)

    def canonical(self, item, out):
        return {"passed": out.passed, "certificate": _certificate_json(out.certificate)}

    def problems(self, items, outs):
        found = []
        for i, (item, out) in enumerate(zip(items, outs)):
            reasons = [] if out.passed else ["verdict: transformed polynomial not real-rooted"]
            intervals = [(iv.lo, iv.hi) for iv in out.certificate.intervals]
            reasons += interval_problems(
                list(out.transformed.coeffs), intervals, item.args[0].degree())
            found += [(i, reason) for reason in reasons]
        return found


class ExactAlgebra(Workload):
    """Semigroup checks, two-path transforms and CLI orthogonality tables; no realroot."""

    name = "exact-algebra"

    def __init__(self, per_degree: int = 2, max_degree: int = 20,
                 tables: tuple[int, ...] = (8, 16), trace_batches: int = 6):
        self.per_degree = per_degree
        self.max_degree = max_degree
        self.tables = tables
        self.trace_batches = trace_batches

    def _stratified(self, rng: random.Random, kind: str, draw) -> list[Item]:
        """Keep the first per_degree draws of each degree 0..max_degree (random_poly's law)."""
        left = dict.fromkeys(range(self.max_degree + 1), self.per_degree)
        items = []
        while any(left.values()):
            args = draw()
            if left[args[0].degree()]:
                left[args[0].degree()] -= 1
                items.append(Item(kind, args))
        return items

    def batch(self, lf, seed, index):
        rng = self.rng(seed, index)
        fl = lf.flow
        # Same draw order as the CLI's semigroup batch.
        items = self._stratified(rng, "semigroup", lambda: (
            fl.random_poly(rng, self.max_degree), fl.random_alpha(rng),
            fl.random_rational(rng, -64, 64), fl.random_rational(rng, -64, 64)))
        items += self._stratified(rng, "two-path", lambda: (
            fl.random_poly(rng, self.max_degree), fl.random_alpha(rng)))
        # Table cost grows about as max_index^4; fixed sizes keep batch times even.
        for top in self.tables:
            alpha = fl.random_alpha(rng).value
            items.append(Item("orthogonality", (str(alpha), str(_positive_rational(rng)), top)))
        rng.shuffle(items)
        return items

    def run(self, lf, item):
        if item.kind == "semigroup":
            return lf.flow.semigroup_check(*item.args)
        if item.kind == "two-path":
            # verify=True recomputes the image as the flow at h = 1 and raises
            # ArithmeticError when the two paths disagree.
            return lf.basis.laguerre_transform(*item.args, verify=True)
        alpha, xi, top = item.args
        return call_cli(lf, ["orthogonality", "--alpha", alpha, "--xi", xi,
                             "--max-index", str(top)])

    def _orthogonal(self, out: CliResult) -> bool:
        return out.rc == 0 and json.loads(out.text)["result"]["orthogonal"] is True

    def canonical(self, item, out):
        if item.kind == "semigroup":
            return {"equal": out}
        if item.kind == "two-path":
            return {"transformed": [str(c) for c in out.coeffs]}
        return {"rc": out.rc, "orthogonal": self._orthogonal(out),
                "report_sha256": hashlib.sha256(out.text.encode()).hexdigest()}

    def problems(self, items, outs):
        found = []
        for i, (item, out) in enumerate(zip(items, outs)):
            if item.kind == "semigroup" and out is not True:
                found.append((i, "semigroup law failed"))
            elif item.kind == "orthogonality" and not self._orthogonal(out):
                found.append((i, f"orthogonality table not orthogonal (exit {out.rc})"))
        return found


def _has_passing_tail(passes: list[bool]) -> bool:
    """Acceptance criteria 8 and 9: the all-pass run after the last failure is nonempty.

    Rungs go from the largest flow time to the smallest, so that is the same
    as the smallest rung passing.
    """
    return bool(passes) and passes[-1]


class LocalizeLadder(Workload):
    """Lemma-2 and lemma-1 ladders: root counts on flowed polynomials, never isolation."""

    name = "localize-ladder"

    def __init__(self, k_max: int = 5, rungs: int = 20,
                 cofactor_degrees: tuple[int, ...] = (0, 1, 2, 3), trace_batches: int = 3):
        self.k_max = k_max
        self.rungs = rungs
        self.cofactor_degrees = cofactor_degrees
        self.trace_batches = trace_batches

    def batch(self, lf, seed, index):
        # One cofactor of each degree per batch, each with its own alpha and xi.
        rng = self.rng(seed, index)
        items = []
        for c, degree in enumerate(self.cofactor_degrees):
            coeffs = [_nonzero_rational(rng)]
            coeffs += [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(degree - 1)]
            if degree:
                coeffs.append(_nonzero_rational(rng))
            p = lf.ratpoly.Poly(coeffs)
            alpha = lf.flow.random_alpha(rng)
            xi = lf.basis.XiParam(_positive_rational(rng))
            for k in range(1, self.k_max + 1):
                for j in range(1, self.rungs + 1):
                    items.append(Item("lemma2", (k, p, alpha, Fraction(1, 2**j)), ("lemma2", c, k)))
                for j in range(1, self.rungs + 1):
                    items.append(Item("lemma1", (k, xi, p, alpha, Fraction(1, 2**j)),
                                      ("lemma1", c, k)))
        return items

    def before_batch(self, lf):
        # Each CLI call is a fresh process that computes its window radii anew.
        lf.flow.laguerre_radius_bound.cache_clear()
        lf.flow.hermite_radius_bound.cache_clear()

    def run(self, lf, item):
        if item.kind == "lemma2":
            return lf.flow.lemma2_localize(*item.args)
        return lf.flow.lemma1_localize(*item.args)

    def canonical(self, item, out):
        return {"k": out.k, "window": [str(out.window_lo), str(out.window_hi)],
                "roots_in_window": out.roots_in_window, "passed": out.passed}

    def _ladders(self, items, outs) -> dict:
        ladders: dict = {}
        for i, (item, out) in enumerate(zip(items, outs)):
            ladders.setdefault(item.ladder, []).append((i, out.passed))
        return ladders

    def problems(self, items, outs):
        found = []
        for (lemma, c, k), rungs in self._ladders(items, outs).items():
            # Lemma 1 at k = 1 uses a fallback radius; it is reported, not asserted.
            if lemma == "lemma1" and k == 1:
                continue
            if not _has_passing_tail([passed for _, passed in rungs]):
                found.append((rungs[-1][0],
                              f"{lemma} k={k} ladder of cofactor {c} has no passing tail"))
        return found

    def notes(self, items, outs):
        hits = [passed for (lemma, _, k), rungs in self._ladders(items, outs).items()
                if (lemma, k) == ("lemma1", 1) for _, passed in rungs]
        return {"lemma1_k1_windows_hit": sum(hits), "lemma1_k1_windows": len(hits)}


WORKLOADS = {w.name: w for w in (TheoremBatch(), ExactAlgebra(), LocalizeLadder())}
