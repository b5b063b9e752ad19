"""laguerreflow benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload theorem-batch --seed 1 --seconds 35 --trace 0

One process, one thread, one caller: each item is submitted only after the
previous verdict returns, as in a researcher's batch run. ``--trace 0`` runs
batches until ``--seconds`` of timed work is spent and reports the end-to-end
metrics. ``--trace 1`` runs the workload's fixed trace batches once without
and once with spans around the package's public functions, and reports the
per-layer metrics. Either way each batch is checked after its timed section;
the last line of standard output is the JSON result, and the full report
(environment, sample counts, raw and scaled times, output digest, failures)
is printed before it and written under ``.bench_out/``.

End-to-end times are scaled to a reference machine speed. Between items, at
most every CALIBRATE_EVERY_S, the runner times a fixed loop of rational and
big-integer arithmetic that never touches the package (``Calibration``).
Each batch's times are multiplied by
REFERENCE_S over the median loop time sampled during that batch, and each
set-up's by REFERENCE_S over the mean of the samples taken just before and
after it. On a shared host whose speed drifts by tens of percent within
seconds, this keeps runs comparable; the raw times are in the report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("ratpoly", "basis", "realroot", "orthocheck", "flow", "cli")
SETUPS = 5
WARMUP_S = 0.5
CALIBRATE_EVERY_S = 0.1
# The calibration loop's time in the fast phases of the machine the bounds
# were set on (2-vCPU Intel Xeon VM, Python 3.11). It fixes the scale of the
# reported times only; comparisons between commits do not depend on it.
REFERENCE_S = 0.004

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, CliResult, Item, Workload, sha256_json  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def fresh_import() -> SimpleNamespace:
    """Import the package from this checkout's src/, dropping any earlier import."""
    if not (SRC / "laguerreflow" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'laguerreflow'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "laguerreflow" or n.startswith("laguerreflow.")]:
        del sys.modules[name]
    package = importlib.import_module("laguerreflow")
    if Path(package.__file__).resolve().parent != SRC / "laguerreflow":
        raise BenchmarkError(f"imported laguerreflow from {package.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"laguerreflow.{name}") for name in MODULES}
    return SimpleNamespace(package=package, modules=modules, **modules)


class Calibration:
    """Times of a fixed pure-Python loop, sampled as the run goes.

    The loop mixes the package's three kinds of arithmetic, none of it through
    the package: rational Horner steps, big-integer Horner steps at a dyadic
    point, and a rational polynomial long division.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._small = [rng.randint(-10**30, 10**30) for _ in range(24)]
        self._big = [rng.randint(-2**3000, 2**3000) for _ in range(24)]
        self._dividend = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(17)]
        self._divisor = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(8)]
        self._divisor.append(Fraction(1))
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> float:
        """Time the loop once; returns the seconds spent, to be left out of timed work."""
        start = time.perf_counter()
        for k in range(1, 18):
            x, acc = Fraction(k, 997), Fraction(0)
            for c in self._small:
                acc = acc * x + c
        for k in range(1, 40):
            acc, scale = 0, 1
            for c in reversed(self._big):
                acc = acc * k * 12345 + c * scale
                scale <<= 20
        top = len(self._divisor) - 1
        for _ in range(4):
            rem = list(self._dividend)
            for i in range(len(rem) - 1, top - 1, -1):
                q = rem[i] / self._divisor[-1]
                for j, d in enumerate(self._divisor):
                    rem[i - top + j] -= q * d
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end
        return end - start

    def due(self) -> float:
        """Sample if CALIBRATE_EVERY_S has passed since the last sample; seconds spent."""
        if time.perf_counter() - self._last < CALIBRATE_EVERY_S:
            return 0.0
        return self.sample()


@dataclass
class Batch:
    index: int
    items: list[Item]
    outputs: list[Any] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)
    wall: float = 0.0
    scale: float = 1.0


def run_batch(workload: Workload, lf: SimpleNamespace, seed: int, index: int,
              items: Optional[list[Item]] = None, calibration: Optional[Calibration] = None,
              tracer: Optional[spans.Tracer] = None) -> Batch:
    """Generate batch ``index`` (untimed), then time its items one after another."""
    batch = Batch(index, items if items is not None else workload.batch(lf, seed, index))
    workload.before_batch(lf)
    if tracer:
        tracer.install(lf.modules | {"package": lf.package})
    clock = time.perf_counter
    paused = 0.0
    first_sample = len(calibration.samples) if calibration else 0
    try:
        start = clock()
        for i, item in enumerate(batch.items):
            if calibration:
                paused += calibration.due()
            t0 = clock()
            try:
                out = workload.run(lf, item)
            except Exception as exc:  # a failing item is a finding; the loop goes on
                out = None
                batch.errors[i] = f"{type(exc).__name__}: {exc}"
            batch.times.append(clock() - t0)
            batch.outputs.append(out)
        batch.wall = clock() - start - paused
        if calibration:
            during = calibration.samples[first_sample:] or calibration.samples[-1:]
            batch.scale = REFERENCE_S / statistics.median(during)
    finally:
        if tracer:
            tracer.uninstall()
    return batch


def warm_up(workload: Workload, lf: SimpleNamespace, seed: int) -> None:
    """Run items of a separate batch (index -1) for WARMUP_S, results unused."""
    start = time.perf_counter()
    for item in workload.batch(lf, seed, -1):
        workload.before_batch(lf)
        try:
            workload.run(lf, item)
        except Exception:  # the same failure is recorded when a timed item hits it
            pass
        if time.perf_counter() - start > WARMUP_S:
            return


def _plain(value: Any) -> Any:
    """JSON form of an item argument, so a failure can be replayed by hand."""
    if hasattr(value, "coeffs"):
        return {"coeffs": [str(c) for c in value.coeffs]}
    if hasattr(value, "value"):
        return str(value.value)
    if isinstance(value, (int, str)):
        return value
    return str(value)


def _failure(seed: int, batch: Batch, index: int, reason: str) -> dict:
    item = batch.items[index]
    return {"seed": seed, "batch": batch.index, "index": index, "kind": item.kind,
            "reason": reason, "input": [_plain(a) for a in item.args]}


@dataclass
class Ledger:
    """What is kept of each batch once the gate has checked it and its outputs are dropped."""

    workload: Workload
    seed: int
    failures: list[dict] = field(default_factory=list)
    attempted: int = 0
    walls: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)
    scaled_times: list[float] = field(default_factory=list)
    notes: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    digest_items: int = 0

    def check(self, batch: Batch) -> list:
        """Gate one batch; returns its canonical outputs."""
        ok = [i for i in range(len(batch.items)) if i not in batch.errors]
        found = list(batch.errors.items())
        found += [(ok[j], reason) for j, reason in self.workload.problems(
            [batch.items[i] for i in ok], [batch.outputs[i] for i in ok])]
        self.failures += [_failure(self.seed, batch, i, reason) for i, reason in sorted(found)]
        self.attempted += len(batch.items)
        self.walls.append(batch.wall)
        self.scales.append(batch.scale)
        for item, seconds in zip(batch.items, batch.times):
            self.times.setdefault(item.kind, []).append(seconds)
            self.scaled_times.append(seconds * batch.scale)
        for key, value in self.workload.notes(batch.items, batch.outputs).items():
            self.notes[key] = self.notes.get(key, 0) + value
        canon = [{"error": batch.errors[i]} if i in batch.errors
                 else self.workload.canonical(item, out)
                 for i, (item, out) in enumerate(zip(batch.items, batch.outputs))]
        if not self.digest:
            self.digest, self.digest_items = sha256_json(canon), len(canon)
        return canon

    def failed(self) -> int:
        """Failing items; an item run both untraced and traced counts once per run."""
        return len({(f.get("traced", False), f["batch"], f["index"]) for f in self.failures})

    def kind_medians(self) -> dict[str, float]:
        """Median item seconds for each kind of item."""
        return {kind: statistics.median(times) for kind, times in self.times.items()}


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def set_up(workload: Workload, seed: int, calibration: Calibration
           ) -> tuple[SimpleNamespace, list[Item], list[float], list[float]]:
    """Import the package and build batch 0, SETUPS times; all builds must agree.

    Returns the package, batch 0, and the raw and scaled seconds of each set-up.
    """
    raw, scaled, shapes = [], [], set()
    before = calibration.sample()
    for _ in range(SETUPS):
        start = time.perf_counter()
        lf = fresh_import()
        items = workload.batch(lf, seed, 0)
        raw.append(time.perf_counter() - start)
        shapes.add(repr(items))
        after = calibration.sample()
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    if len(shapes) != 1:
        raise BenchmarkError(f"seed {seed} built different inputs on different set-ups")
    return lf, items, raw, scaled


def end_to_end(workload: Workload, lf: SimpleNamespace, seed: int, seconds: float,
               first: list[Item], ledger: Ledger, calibration: Calibration) -> float:
    """Closed loop over batches until ``seconds`` of timed work; returns the time spent."""
    spent = 0.0
    # Start another batch only while it is expected to end in time.
    while not ledger.walls or spent + spent / len(ledger.walls) <= seconds:
        index = len(ledger.walls)
        batch = run_batch(workload, lf, seed, index, first if index == 0 else None, calibration)
        spent += batch.wall
        ledger.check(batch)
    return spent


def traced(workload: Workload, lf: SimpleNamespace, seed: int, first: list[Item],
           ledger: Ledger, report: dict) -> dict[str, tuple[float, str]]:
    """The fixed trace batches without spans, then with them; returns the per-layer metrics."""
    tracer = spans.Tracer()
    traced_ledger = Ledger(workload, seed)
    report_bytes = 0
    for index in range(workload.trace_batches):
        plain = run_batch(workload, lf, seed, index, first if index == 0 else None)
        batch = run_batch(workload, lf, seed, index, tracer=tracer)
        for i, (a, b) in enumerate(zip(ledger.check(plain), traced_ledger.check(batch))):
            if a != b:
                traced_ledger.failures.append(_failure(seed, batch, i, "traced output differs"))
        report_bytes += sum(len(out.text) for out in batch.outputs if isinstance(out, CliResult))
    ledger.failures += [{**f, "traced": True} for f in traced_ledger.failures]
    ledger.attempted += traced_ledger.attempted
    plain_wall, traced_wall = sum(ledger.walls), sum(traced_ledger.walls)
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = (report_bytes, "bytes")
    metrics["trace_overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["failed_ratio"] = (ledger.failed() / ledger.attempted, "ratio")
    layers = tracer.layer_self_seconds()
    report["kind_median_s"] = ledger.kind_medians()
    report["trace_layers"] = {
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "self_s": layers,
        "share_of_wall": {k: v / traced_wall for k, v in layers.items()},
        "covered_share": sum(layers.values()) / traced_wall,
        "spans": len(tracer.spans),
        "missing_targets": tracer.missing,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}.spans.jsonl")
    return metrics


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, run the timed section with the gate after each batch; the full report."""
    calibration = Calibration()
    lf, first, setup_raw, setup_scaled = set_up(workload, seed, calibration)
    warm_up(workload, lf, seed)
    ledger = Ledger(workload, seed)
    report: dict = {"workload": workload.name, "trace": int(trace),
                    "environment": environment(seed)}
    if trace:
        metrics = traced(workload, lf, seed, first, ledger, report)
    else:
        spent = end_to_end(workload, lf, seed, seconds, first, ledger, calibration)
        times = [t for kind_times in ledger.times.values() for t in kind_times]
        walls = [w * k for w, k in zip(ledger.walls, ledger.scales)]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "items_per_s": (len(times) / sum(walls), "1/s"),
            "item_p50_ms": (1000 * statistics.median(ledger.scaled_times), "ms"),
            "item_p90_ms": (1000 * _p90(ledger.scaled_times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["raw"] = {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(ledger.walls),
            "items_per_s": len(times) / spent,
            "item_p50_ms": 1000 * statistics.median(times),
            "item_p90_ms": 1000 * _p90(times),
        }
        report["kind_median_s"] = ledger.kind_medians()
        report["failed_ratio"] = ledger.failed() / ledger.attempted
    report.update({
        "calibration": {"samples": len(calibration.samples),
                        "median_s": statistics.median(calibration.samples),
                        "reference_s": REFERENCE_S},
        "samples": {"setups": len(setup_raw), "batches": len(ledger.walls),
                    "items": ledger.attempted},
        "output_digest": ledger.digest,
        "digest_items": ledger.digest_items,
        "notes": ledger.notes,
        "failures": ledger.failures,
        "result": {
            "correct": not ledger.failures,
            "attempted": ledger.attempted,
            "failed": ledger.failed(),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    })
    return report


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    text = json.dumps(report, indent=1, sort_keys=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
