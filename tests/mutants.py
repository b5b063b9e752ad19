"""Mutation check: every mutant in MUTANTS must make its tests fail.

Run from the repository root, with the test extras installed:

    python tests/mutants.py

Each mutant replaces one exact text in one source file. The script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory, applies
the mutant there, and runs ``pytest -x`` on the named test files in that copy,
so the checkout itself is never changed. First it runs each distinct set of
test files once on an unmutated copy: they must pass there, or a failure
unrelated to a mutant would count as a kill ("baseline fails"). A mutant is
then killed when pytest reports failed tests (exit status 1). The mutants run
one after another. The script exits 1 if a baseline fails, if any mutant
survives, if pytest ends any other way, or if an old text is not found exactly
once (the table has gone stale), and 0 when every mutant is killed.

The file is not collected by the tier-1 run, whose files match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROOT_LAYER_TESTS = (
    "tests/test_realroot.py",
    "tests/test_isolate_reference.py",
    "tests/test_enclosure_reference.py",
    "tests/test_acceptance.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/laguerreflow
    old: str
    new: str
    tests: tuple[str, ...]
    guards: str  # the ROADMAP item or rule whose path the mutant breaks


MUTANTS = (
    Mutant(
        "root-bound-unrounded",
        "realroot.py",
        "            e += 1\n",
        "            pass\n",
        ("tests/test_realroot.py", "tests/test_isolate_reference.py"),
        "items 7 and 11: the root-bound skip, reached only with proposals off",
    ),
    Mutant(
        "prem-signed-scale",
        "realroot.py",
        "scale, sgn = abs(b[-1]), _sign(b[-1])",
        "scale, sgn = b[-1], 1",
        ROOT_LAYER_TESTS,
        "the remainder sequence scales by |lc|^k, so its signs are the Sturm signs",
    ),
    Mutant(
        "confirm-without-opposite-signs",
        "realroot.py",
        "if left and _sign_at_dyadic(g, lo + 2 * p, d_end) == -left:",
        "if left and _sign_at_dyadic(g, lo + 2 * p, d_end):",
        ROOT_LAYER_TESTS,
        "items 3 and 5: a proposal's cell is confirmed by two exact signs",
    ),
    Mutant(
        "enclosure-ignores-root-at-minus-r",
        "realroot.py",
        "_variations(minus) - _variations(plus) + (minus[0] == 0) == self.distinct",
        "_variations(minus) - _variations(plus) == self.distinct",
        ("tests/test_enclosure_reference.py", "tests/test_realroot.py"),
        "the largest-root enclosure counts [-r, r], a root at -r included",
    ),
    Mutant(
        "nudge-moves-down",
        "realroot.py",
        "a, b, m, s = 2 * a, 2 * b, 2 * m + step, s + 1",
        "a, b, m, s = 2 * a, 2 * b, 2 * m - step, s + 1",
        (
            "tests/test_isolate_reference.py::test_root_corpus[dyadic-grid-proposals-on]",
            "tests/test_isolate_reference.py::test_root_corpus[dyadic-grid-proposals-off]",
            "tests/test_realroot.py",
        ),
        "items 5 and 7: a midpoint on a root moves up, as rational bisection's does",
    ),
    Mutant(
        "taylor-shift-drops-v-power",
        "ratpoly.py",
        "    return [c * v**j for j, c in enumerate(cs)]\n",
        "    return cs\n",
        ("tests/test_ratpoly.py", "tests/test_flow.py"),
        "the lemma windows' integer Taylor shift",
    ),
    Mutant(
        "window-shift-by-plus-centre",
        "flow.py",
        "u, v = (-centre).as_integer_ratio()",
        "u, v = centre.as_integer_ratio()",
        ("tests/test_flow.py",),
        "lemma 1's window flows (x^k p)(x - xi)",
    ),
    Mutant(
        "flow-sum-shared-across-times",
        "basis.py",
        "    for step in times:\n        acc = series[-1]\n",
        "    acc = series[-1]\n    for step in times:\n",
        ("tests/test_basis.py", "tests/test_flow.py"),
        "item 2: each time's Horner sum starts afresh",
    ),
    Mutant(
        "window-counts-half-open",
        "flow.py",
        "count = _RootContext(ints).count_open(lo, hi)",
        "count = _RootContext(ints).count(lo, hi)",
        ("tests/test_flow.py::test_lemma_windows_leave_roots_on_their_ends_out",),
        "the lemma windows are open: a root on an end is outside",
    ),
    Mutant(
        "from-ints-without-gcd",
        "ratpoly.py",
        "g = -math.gcd(den, *ns) if den < 0 else math.gcd(den, *ns)",
        "g = -1 if den < 0 else 1",
        ("tests/test_ratpoly.py",),
        "item 9: a Poly is stored in lowest terms, so equal rationals are equal pairs",
    ),
    Mutant(
        "from-ints-without-sign-move",
        "ratpoly.py",
        "g = -math.gcd(den, *ns) if den < 0 else math.gcd(den, *ns)",
        "g = math.gcd(den, *ns)",
        ("tests/test_ratpoly.py",),
        "item 9: a Poly's denominator is positive",
    ),
    Mutant(
        "normalizer-keeps-trailing-zeros",
        "ratpoly.py",
        "        while ns and ns[-1] == 0:\n",
        "        while False:\n",
        ("tests/test_ratpoly.py",),
        "item 9: every Poly, from a literal or a kernel, is stored by one normalizer",
    ),
)


def pytest_in_copy(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int | None, str]:
    """(pytest's exit status, its last lines) for ``tests`` in a fresh temporary
    copy, with ``mutant`` applied when given; the status is None when the copy's
    tests would import another copy of the package."""
    with tempfile.TemporaryDirectory(prefix="laguerreflow-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            target = copy / "src" / "laguerreflow" / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # An installed copy of the package must not shadow the copied one.
        where = subprocess.run(
            [sys.executable, "-c", "import laguerreflow; print(laguerreflow.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).is_relative_to(copy):
            return None, f"the tests would import laguerreflow from {where!r}, not the copy"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy,
            env=env,
            capture_output=True,
            text=True,
        )
    return done.returncode, "\n".join(done.stdout.splitlines()[-5:] + done.stderr.splitlines()[-5:])


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, detail) for one mutant, tested in a fresh temporary copy."""
    found = (ROOT / "src" / "laguerreflow" / mutant.file).read_text().count(mutant.old)
    if found != 1:
        return False, f"old text found {found} times in {mutant.file}, not once"
    status, tail = pytest_in_copy(mutant.tests, mutant)
    if status == 1:
        return True, "killed"
    if status == 0:
        return False, "SURVIVED: its tests pass"
    return False, tail if status is None else f"pytest exited {status}, not a test failure:\n{tail}"


def main() -> int:
    failures = 0
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        start = time.perf_counter()
        status, tail = pytest_in_copy(tests)
        if status != 0:
            failures += 1
            print(f"baseline fails: {' '.join(tests)} exited {status} unmutated:\n{tail}")
        else:
            print(f"baseline passes: {' '.join(tests)} ({time.perf_counter() - start:.1f} s)")
    if failures:
        return 1
    for m in MUTANTS:
        start = time.perf_counter()
        killed, detail = run(m)
        failures += not killed
        print(f"{m.name}: {detail} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
