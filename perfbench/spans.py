"""In-memory call spans around the package's public functions, for the traced run.

``Tracer.install`` patches each traced function where it is looked up:
methods on their class, module functions in every package module that holds
the same object. Calls the package makes to itself are therefore traced as
well as the benchmark's own. ``uninstall`` puts the originals back.

A span's self time is its duration minus the whole time spent in its traced
children, wrapper bookkeeping included, so tracing cost lands in no layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

# metric prefix -> (module, attribute); "Class.method" patches the class.
TIMED = {
    "ratpoly.square_free": ("ratpoly", "Poly.square_free"),
    "ratpoly.mul": ("ratpoly", "Poly.__mul__"),
    "ratpoly.divmod": ("ratpoly", "Poly.__divmod__"),
    "ratpoly.eval": ("ratpoly", "Poly.__call__"),
    "basis.laguerre_transform": ("basis", "laguerre_transform"),
    "basis.heat_semigroup": ("basis", "heat_semigroup"),
    "realroot.sturm_chain": ("realroot", "sturm_chain"),
    "realroot.certify": ("realroot", "certify"),
    "realroot.count_open": ("realroot", "count_real_roots_open"),
    "realroot.enclosure": ("realroot", "largest_root_enclosure"),
    "flow.verify_theorem1": ("flow", "verify_theorem1"),
    "flow.lemma1_localize": ("flow", "lemma1_localize"),
    "flow.lemma2_localize": ("flow", "lemma2_localize"),
    "flow.semigroup_check": ("flow", "semigroup_check"),
    "orthocheck.laguerre_inner": ("orthocheck", "laguerre_inner"),
    "orthocheck.hermite_inner": ("orthocheck", "hermite_inner"),
    "cli.main": ("cli", "main"),
}
# Called too often, or too cheaply, to time: only counted.
COUNTED = {
    "basis.lambda_apply": ("basis", "lambda_apply"),
    "realroot.chain_count": ("realroot", "SturmChain.count"),
}
# Spans whose children are the work other metrics report: their self time is the metric.
SELF_TIMED = {
    "realroot.certify", "realroot.count_open", "realroot.enclosure",
    "flow.verify_theorem1", "flow.lemma1_localize", "flow.lemma2_localize",
    "flow.semigroup_check", "cli.main",
}


def _coeff_bits(poly: Any) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Spans (name, start, end, parent) and counters for one traced pass."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.before = {"ratpoly.square_free": self._square_free_input}
        self.after = {
            "basis.laguerre_transform": self._basis_output,
            "basis.heat_semigroup": self._basis_output,
            "realroot.sturm_chain": self._chain,
            "realroot.certify": self._certificate,
        }

    # -- hooks: work-size counters read at the layer boundary ---------------

    def _max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _square_free_input(self, args: tuple) -> None:
        self._max("ratpoly.square_free.in_bits_max", _coeff_bits(args[0]))

    def _basis_output(self, out: Any) -> None:
        self._max("basis.out_bits_max", _coeff_bits(out))

    def _chain(self, chain: Any) -> None:
        polys = getattr(chain, "polys", ())
        self.counts["realroot.chain_polys"] += len(polys)
        self._max("realroot.chain_bits_max", max((_coeff_bits(p) for p in polys), default=0))

    def _certificate(self, cert: Any) -> None:
        self.counts["realroot.intervals"] += len(cert.intervals)

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn: Callable) -> Callable:
        spans, child_time, stack = self.spans, self.child_time, self.stack
        before, after = self.before.get(name), self.after.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = stack[-1] if stack else -1
            if before:
                before(args)
            index = len(spans)
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            child_time.append(0.0)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(out)
            if parent >= 0:
                child_time[parent] += clock() - entered
            return out

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Patch every traced function in the package's modules."""
        for table, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                owner, _, attr = path.rpartition(".")
                holder = getattr(modules[module], owner, None) if owner else modules[module]
                original = getattr(holder, attr, None)
                if original is None:
                    # Renamed or removed by a later change: its metrics read 0.
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                wrapped = wrap(name, original)
                if owner:
                    sites = [(holder, attr)]
                else:
                    sites = [(mod, key) for mod in modules.values()
                             for key, value in vars(mod).items() if value is original]
                for obj, key in sites:
                    self._undo.append((obj, key, original))
                    setattr(obj, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, self.child_time):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for name, entry in self.totals().items():
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
        return layers

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: (value, unit) by name."""
        totals = self.totals()
        metrics: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = (entry["calls"], "count")
            if name in SELF_TIMED:
                metrics[f"{name}.self_s"] = (entry["self_s"], "s")
            else:
                metrics[f"{name}.s"] = (entry["s"], "s")
        for name in COUNTED:
            metrics[f"{name}.calls"] = (self.counts[name], "count")
        for name in ("ratpoly.square_free.in_bits_max", "basis.out_bits_max",
                     "realroot.chain_bits_max"):
            metrics[name] = (self.maxima[name], "bits")
        chains = totals.get("realroot.sturm_chain", {"calls": 0})["calls"]
        mean_len = self.counts["realroot.chain_polys"] / chains if chains else 0.0
        metrics["realroot.chain_len_mean"] = (mean_len, "count")
        metrics["realroot.intervals"] = (self.counts["realroot.intervals"], "count")
        return metrics

    def write(self, path: Path) -> None:
        """One JSON line per span: [name, start, end, parent index], times from the origin."""
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps(
                    [name, round(start - self.origin, 9), round(end - self.origin, 9), parent]))
                handle.write("\n")
