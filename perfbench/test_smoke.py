"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``. It checks
that every metric BENCHMARK.json names is emitted with its unit, that a
corrupted interval is caught by the gate, and that the benchmark refuses to
run without the package source.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
from workloads import ExactAlgebra, LocalizeLadder, TheoremBatch

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = [
    TheoremBatch(per_degree=1, max_degree=4, trace_batches=1),
    ExactAlgebra(per_degree=1, max_degree=4, tables=(2,), trace_batches=1),
    LocalizeLadder(k_max=2, rungs=3, cofactor_degrees=(0, 2), trace_batches=1),
]


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.measure(workload, seed=1, seconds=0.01, trace=bool(trace))["result"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


class CorruptedTheoremBatch(TheoremBatch):
    """Moves the first isolating interval of every certificate one unit right."""

    def run(self, lf, item):
        out = super().run(lf, item)
        cert = out.certificate
        first = cert.intervals[0]
        moved = replace(first, lo=first.lo + 1, hi=first.hi + 1)
        return replace(out, certificate=replace(cert, intervals=(moved,) + cert.intervals[1:]))


def test_corrupted_interval_raises_failed_ratio():
    workload = CorruptedTheoremBatch(per_degree=1, max_degree=4, trace_batches=1)
    report = run.measure(workload, seed=1, seconds=0.01, trace=False)
    assert report["failed_ratio"] > 0
    assert not report["result"]["correct"]
    failure = report["failures"][0]
    assert failure["seed"] == 1 and "index" in failure and failure["input"]
    traced = run.measure(workload, seed=1, seconds=0.01, trace=True)
    assert traced["result"]["metrics"]["failed_ratio"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "theorem-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
