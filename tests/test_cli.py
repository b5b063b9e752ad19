"""Command-line interface: subcommands, exit codes, report determinism."""

import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from laguerreflow import (
    AlphaParam,
    IsolatingInterval,
    Poly,
    cli,
    laguerre_transform,
    parse_poly_literal,
)
from laguerreflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_transform(capsys):
    code, report, _ = run_json(
        capsys, "transform", "--alpha", "0", "--poly", '{"roots":[["2",2]]}'
    )
    assert code == 0
    assert report["result"]["transformed"] == {"coeffs": ["10", "-8", "1"]}
    assert parse_poly_literal(report["result"]["transformed"]) == Poly([10, -8, 1])
    assert parse_poly_literal(report["inputs"]["poly"]) == Poly([4, -4, 1])


def test_transform_verify_flag(capsys):
    code, report, _ = run_json(
        capsys, "transform", "--verify", "--alpha", "1/2", "--poly", '{"coeffs":["1","2","3"]}'
    )
    assert code == 0 and "transformed" in report["result"]


def test_certify(capsys):
    code, report, _ = run_json(capsys, "certify", "--poly", '{"coeffs":["2","0","1"]}')
    assert code == 0
    assert report["result"]["real_rooted"] is False
    assert report["result"]["distinct_real_roots"] == 0


def test_isolate(capsys):
    code, report, _ = run_json(
        capsys, "isolate", "--poly", '{"coeffs":["-2","0","1"]}', "--width", "1/1024"
    )
    assert code == 0
    assert report["result"]["count"] == 2
    lo, hi = (Fraction(s) for s in report["result"]["intervals"][1])
    assert lo < hi and hi - lo <= Fraction(1, 1024)
    assert len(report["result"]["approx"]) == 2


def test_orthogonality(capsys):
    code, report, _ = run_json(
        capsys, "orthogonality", "--alpha", "1/2", "--xi", "2", "--max-index", "3"
    )
    assert code == 0
    result = report["result"]
    assert result["orthogonal"] is True
    ratios = {entry["k"]: entry["ratio"] for entry in result["hermite"]["diagonal_ratios"]}
    assert ratios[0] == "1" and ratios[1] == "4" and ratios[2] == "16"
    off = [e for e in result["laguerre"]["entries"] if e["n"] != e["m"]]
    assert all(e["value"]["coeff"] == "0" for e in off)


def test_orthogonality_entries_name_their_base_constant(capsys):
    code, report, _ = run_json(capsys, "orthogonality", "--max-index", "6")
    assert code == 0
    result = report["result"]
    families = {
        "laguerre": ("n", "m", "gamma_alpha_plus_1"),
        "hermite": ("k", "n", "sqrt_pi_xi"),
    }
    for family, (row, col, base) in families.items():
        entries = result[family]["entries"]
        assert len(entries) == 7 * 8 // 2
        assert {entry["value"]["base"] for entry in entries} == {base}
        assert all(set(entry["value"]) == {"base", "coeff"} for entry in entries)
        off = [entry["value"]["coeff"] for entry in entries if entry[row] != entry[col]]
        assert off == ["0"] * (7 * 6 // 2)


def test_verify_theorem_single_pass_and_fail(capsys):
    code, report, _ = run_json(
        capsys, "verify-theorem", "--alpha", "0", "--poly", '{"roots":[["2",2]]}'
    )
    assert code == 0 and report["result"]["passed"] is True

    code, report, _ = run_json(
        capsys, "verify-theorem", "--alpha", "0", "--poly", '{"roots":[["-2",2]]}'
    )
    assert code == 1 and report["result"]["passed"] is False
    assert report["result"]["transformed"] == {"coeffs": ["2", "0", "1"]}


def test_verify_theorem_batch(capsys):
    code, report, _ = run_json(capsys, "verify-theorem", "--trials", "40", "--seed", "12")
    assert code == 0
    assert report["result"] == {"trials": 40, "failures": [], "passed": True}


def test_verify_theorem_batch_requires_seed(capsys):
    code, out, err = run(capsys, "verify-theorem", "--trials", "5")
    assert code == 2 and "seed" in err


def test_batch_size_errors(capsys):
    cases = [
        (("verify-theorem", "--trials", "-5", "--seed", "1"), "trials must be a positive integer"),
        (("semigroup", "--trials", "-5", "--seed", "1"), "trials must be a positive integer"),
        (("verify-theorem", "--trials", "0", "--seed", "1"), "trials must be a positive integer"),
        (("verify-theorem", "--max-degree", "0", "--seed", "1"), "max degree must be at least 1"),
        (("semigroup", "--max-degree", "-1", "--seed", "1"), "max degree must be at least 0"),
        (
            ("verify-theorem", "--trials", "2", "--seed", "1", "--max-degree", "100000000"),
            "max degree must be at most 1000",
        ),
        (("semigroup", "--max-degree", "1001", "--seed", "1"), "max degree must be at most 1000"),
        (
            ("verify-lemma2", "--k", "1001", "--p", '{"coeffs":["-3","1"]}', "--h", "1/100"),
            "k must be at most 1000",
        ),
        (
            ("verify-lemma1", "--k", "1001", "--xi", "1", "--p", '{"coeffs":["1"]}',
             "--eta", "1/10"),
            "k must be at most 1000",
        ),
        (("search-counterexamples", "--k", "1001", "--grid", "1"), "k must be at most 1000"),
        (("orthogonality", "--max-index", "97"), "max index must be at most 96, got 97"),
        (
            ("orthogonality", "--alpha", "1e4300", "--xi", "1e4300", "--max-index", "16"),
            "table size max index^2 * bits must be at most 368640, got 16^2 * 14286",
        ),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and message in err


def test_orthogonality_table_size_bound(capsys):
    # (2^5119 + 1)/(2^5119 + 3) has 5120 + 5120 bits: 6^2 * 10240 is exactly the bound.
    assert 6 * 6 * 10240 == cli.MAX_ORTHOGONALITY_SIZE
    at_bound = f"{2**5119 + 1}/{2**5119 + 3}"
    code, report, _ = run_json(capsys, "orthogonality", "--xi", at_bound, "--max-index", "6")
    assert code == 0 and report["result"]["orthogonal"] is True
    # One more numerator bit puts the same table over the bound, before any entry.
    code, out, err = run(
        capsys, "orthogonality", "--xi", f"{2**5120 + 1}/{2**5119 + 3}", "--max-index", "6"
    )
    assert (code, out) == (2, "")
    assert "must be at most 368640, got 6^2 * 10241" in err


def test_verify_lemma2(capsys):
    code, report, _ = run_json(
        capsys,
        "verify-lemma2", "--k", "1", "--p", '{"coeffs":["-3","1"]}', "--alpha", "0",
        "--h", "1/100",
    )
    assert code == 0
    assert report["result"]["passed"] is True
    assert report["result"]["window_hi"] == "1/50"


def test_verify_lemma1(capsys):
    code, report, _ = run_json(
        capsys,
        "verify-lemma1", "--k", "2", "--xi", "1", "--p", '{"coeffs":["1"]}', "--alpha", "0",
        "--eta", "1/10",
    )
    assert code == 0 and report["result"]["passed"] is True

    code, _, err = run(
        capsys,
        "verify-lemma1", "--k", "2", "--xi", "-1", "--p", '{"coeffs":["1"]}', "--alpha", "0",
        "--eta", "1/10",
    )
    assert code == 2 and "Hermite radius undefined" in err


def test_semigroup_single_and_batch(capsys):
    code, report, _ = run_json(
        capsys,
        "semigroup", "--poly", '{"coeffs":["0","0","1"]}', "--alpha", "0",
        "--h1", "1/3", "--h2", "2/7",
    )
    assert code == 0 and report["result"]["equal"] is True

    code, report, _ = run_json(capsys, "semigroup", "--trials", "20", "--seed", "4")
    assert code == 0 and report["result"] == {"trials": 20, "failures": 0, "passed": True}


FAILING_TRIALS = {1, 4}


def test_semigroup_batch_failures_replay(capsys, monkeypatch):
    seen = []
    check = cli.semigroup_check

    def failing(f, alpha, h1, h2):
        seen.append({"poly": cli.poly_literal(f), "alpha": str(alpha.value),
                     "h1": str(h1), "h2": str(h2)})
        return check(f, alpha, h1, h2) and len(seen) - 1 not in FAILING_TRIALS

    monkeypatch.setattr(cli, "semigroup_check", failing)
    code, report, _ = run_json(capsys, "semigroup", "--trials", "6", "--seed", "4")
    assert code == 1 and report["result"]["failures"] == 2
    failed = report["result"]["failed_trials"]
    assert [entry.pop("trial") for entry in failed] == sorted(FAILING_TRIALS)
    assert failed == [seen[i] for i in sorted(FAILING_TRIALS)]
    monkeypatch.undo()
    for entry in failed:
        code, replay, _ = run_json(
            capsys, "semigroup", "--poly", json.dumps(entry["poly"]), "--alpha", entry["alpha"],
            f"--h1={entry['h1']}", f"--h2={entry['h2']}")
        assert code == 0 and replay["result"]["equal"] is True


def test_verify_theorem_batch_failures_replay(capsys, monkeypatch):
    seen = []
    verify = cli.verify_theorem1

    def failing(f, alpha):
        seen.append((f, alpha))
        result = verify(f, alpha)
        return dataclasses.replace(result, passed=len(seen) - 1 not in FAILING_TRIALS)

    monkeypatch.setattr(cli, "verify_theorem1", failing)
    code, report, _ = run_json(capsys, "verify-theorem", "--trials", "6", "--seed", "12")
    assert code == 1 and report["result"]["passed"] is False
    failed = report["result"]["failures"]
    assert [entry["trial"] for entry in failed] == sorted(FAILING_TRIALS)
    monkeypatch.undo()
    for entry in failed:
        f, alpha = seen[entry["trial"]]
        assert entry["poly"] == cli.poly_literal(f) and entry["alpha"] == str(alpha.value)
        code, replay, _ = run_json(
            capsys, "verify-theorem", "--poly", json.dumps(entry["poly"]),
            "--alpha", entry["alpha"])
        assert code == 0 and replay["result"]["transformed"] == entry["transformed"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30) | st.text()
    | st.fractions(),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


def fractions_as_str(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {key: fractions_as_str(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [fractions_as_str(item) for item in value]
    return value


@given(json_values)
def test_report_writer_matches_json_dumps(value):
    expected = json.dumps(fractions_as_str(value), sort_keys=True, indent=2)
    assert cli._json_text(value) == expected


@dataclasses.dataclass(frozen=True)
class _Record:
    count: int
    bound: object


def test_report_writer_writes_any_record_as_its_fields():
    record = _Record(3, [Fraction(-1, 3), Poly([1, 2])])
    expected = {"count": 3, "bound": ["-1/3", {"coeffs": ["1", "2"]}]}
    assert json.loads(cli._json_text({"result": record})) == {"result": expected}


# A namespace has fields by name but is no dataclass, so it is not a record.
@pytest.mark.parametrize(
    "value", [0.5, object(), _Record(1, 0.5), _Record, types.SimpleNamespace(count=1)],
    ids=["float", "object", "record_with_float", "record_class", "namespace"],
)
def test_report_writer_refuses_unknown_values(value):
    with pytest.raises(TypeError):
        cli._json_text({"result": [value]})


@pytest.mark.parametrize("lo, hi, text", [
    (Fraction(-5, 3), Fraction(-1), "-1.33333333333"),
    (Fraction(10**15, 3), Fraction(10**15, 3), "3.33333333333E+14"),
    (Fraction(1, 10**15), Fraction(1, 10**15) + Fraction(2, 3 * 10**20), "1.00000333333E-15"),
    (Fraction(-1, 7), Fraction(1, 7), "0"),
], ids=["negative", "large", "small", "zero"])
def test_approx_is_the_midpoint_to_12_digits(lo, hi, text):
    mid = (lo + hi) / 2
    with localcontext() as ctx:
        ctx.prec = 12
        expected = str(Decimal(mid.numerator) / Decimal(mid.denominator))
    assert cli._approx(IsolatingInterval(lo, hi)) == expected == text


def test_flow_trace_json_and_csv(capsys):
    code, report, _ = run_json(
        capsys,
        "flow-trace", "--poly", '{"roots":[["2",1],["5",1]]}', "--alpha", "0",
        "--grid", "0,1/10,1", "--width", "1/8",
    )
    assert code == 0
    assert len(report["result"]["samples"]) == 3
    assert report["inputs"]["width"] == "1/8"

    code, out, _ = run(
        capsys,
        "flow-trace", "--poly", '{"roots":[["2",1],["5",1]]}', "--alpha", "0",
        "--grid", "0,1/10,1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "h,root_index,interval_lo,interval_hi,approx"
    assert len(lines) == 1 + 3 * 2


def test_search_counterexamples(capsys):
    code, report, _ = run_json(
        capsys, "search-counterexamples", "--alpha", "0", "--k", "2",
        "--grid=-2,-3/2,-1,0",
    )
    assert code == 0
    assert [p["passed"] for p in report["result"]["points"]] == [False, False, True, True]


def test_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "transform", "--alpha", "-1", "--poly", '{"coeffs":["1","1"]}')
    assert code == 2 and "alpha must be nonnegative" in err

    code, _, err = run(capsys, "certify", "--poly", '{"coeffs":["bad"]}')
    assert code == 2 and "malformed rational" in err

    code, _, err = run(capsys, "certify", "--poly", "not json")
    assert code == 2

    code, _, err = run(capsys, "certify", "--poly", '{"coeffs":[true,1]}')
    assert code == 2 and "not JSON true" in err

    code, _, err = run(capsys, "certify", "--poly", '{"coeffs":[1.5,1]}')
    assert code == 2 and "floating-point" in err

    code, _, err = run(
        capsys,
        "verify-lemma2", "--k", "1", "--p", '{"coeffs":["0","1"]}', "--alpha", "0",
        "--h", "1/100",
    )
    assert code == 2 and "p(0)" in err

    code, _, err = run(capsys, "flow-trace", "--poly", '{"coeffs":["0","1"]}', "--grid", "1/2,1")
    assert code == 2 and "start at 0" in err

    code, _, err = run(capsys, "transform", "--alpha", "1e4301", "--poly", '{"coeffs":["1"]}')
    assert code == 2 and "bound of 4300 digits" in err

    code, _, err = run(capsys, "certify", "--poly", '{"coeffs":[%s]}' % ("1" * 4301))
    assert code == 2 and "bound of 4300 digits" in err

    code, _, err = run(capsys, "certify", "--poly", '{"roots":[["1",1000000000]]}')
    assert code == 2 and "degree bound of 1000" in err

    # A key the literal's form does not read is named, not dropped.
    code, _, err = run(capsys, "transform", "--poly", '{"roots":[["2",1]],"Lead":"5"}')
    assert (code, err) == (2, "error: polynomial literal in 'roots' form does not read ['Lead']\n")

    # Past the JSON decoder's recursion limit on every supported Python: exit 2
    # with one error line.
    deep = '{"coeffs":' + "[" * 100_000 + "]" * 100_000 + "}"
    code, out, err = run(capsys, "certify", "--poly", deep)
    assert (code, out, err) == (2, "", "error: polynomial literal nests too deeply\n")

    code, _, err = run(capsys, "flow-trace", "--poly", '{"coeffs":["0","1"]}', "--grid", ",1")
    assert code == 2 and "comma-separated list" in err

    code, _, err = run(capsys, "orthogonality", "--max-index", "-1")
    assert code == 2 and "max index must be nonnegative" in err
    # The index is refused before the work bounds and before any arithmetic on it.
    for literal in ("1e-400", "1e4300"):
        code, out, err = run(
            capsys, "orthogonality", "--alpha", literal, "--xi", literal, "--max-index", "-16"
        )
        assert (code, out, err) == (2, "", "error: max index must be nonnegative\n")

    code, _, err = run(capsys, "semigroup", "--poly", '{"coeffs":["1"]}', "--h1", "1")
    assert code == 2 and "--h1 and --h2 are required" in err

    target = tmp_path / "missing" / "report.json"
    code, out, err = run(
        capsys, "certify", "--poly", '{"coeffs":["-2","0","1"]}', "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert not target.parent.exists()


def test_negative_value_as_separate_argument(capsys):
    poly = '{"coeffs":["1","-2","3"]}'
    argv = ("semigroup", "--poly", poly, "--alpha", "1/2")
    joined = run(capsys, *argv, "--h1=-3/5", "--h2", "7/4")
    separate = run(capsys, *argv, "--h1", "-3/5", "--h2", "7/4")
    assert separate == joined and separate[0] == 0

    code, out, _ = run(
        capsys, "search-counterexamples", "--alpha", "0", "--k", "2", "--grid", "-4,-2,-1,0,1"
    )
    pinned = PINNED_REPORTS["search_counterexamples_readme"]
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == pinned["sha256"]

    code, _, err = run(capsys, "transform", "--alpha", "-1/2", "--poly", '{"coeffs":["1","1"]}')
    assert code == 2 and "alpha must be nonnegative" in err

    code, _, err = run(
        capsys,
        "verify-lemma1", "--k", "2", "--xi", "-1/2", "--p", '{"coeffs":["1"]}', "--eta", "1/10",
    )
    assert code == 2 and "Hermite radius undefined" in err

    with pytest.raises(SystemExit) as exit_info:
        main(["semigroup", "--poly", poly, "--h1", "--h2", "1"])
    assert exit_info.value.code == 2
    assert "--h1: expected one argument" in capsys.readouterr().err


def test_reports_are_byte_identical(capsys):
    args = ("verify-theorem", "--trials", "15", "--seed", "77")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_output_file_and_outdir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "certify", "--poly", '{"coeffs":["-2","0","1"]}', "--output", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["real_rooted"] is True

    monkeypatch.setenv("LAGUERREFLOW_OUTDIR", str(tmp_path))
    code, _, _ = run(
        capsys, "certify", "--poly", '{"coeffs":["-2","0","1"]}', "--output", "nested.json"
    )
    assert code == 0
    assert (tmp_path / "nested.json").exists()


class ClosedPipe:
    """A stdout whose reader is gone: writing, or only flushing, raises BrokenPipeError."""

    def __init__(self, buffered: bool):
        self.buffered = buffered

    def write(self, text: str) -> int:
        if not self.buffered:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return len(text)

    def flush(self) -> None:
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("buffered", [False, True])
def test_closed_stdout_is_a_usage_error(capsys, monkeypatch, buffered):
    closed = ClosedPipe(buffered)
    monkeypatch.setattr(sys, "stdout", closed)
    code = main(["certify", "--poly", '{"coeffs":["-2","0","1"]}'])
    assert code == 2
    assert capsys.readouterr().err == "error: cannot write report to stdout: Broken pipe\n"
    assert sys.stdout is closed  # an in-process caller's stdout is left alone


@pytest.mark.parametrize(
    "argv",
    [
        ["orthogonality", "--max-index", "16"],
        ["certify", "--poly", '{"coeffs":["-2","0","1"]}'],
    ],
)
def test_closed_pipe_exits_2_without_traceback(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "laguerreflow.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    # One error line: no traceback, and nothing "ignored" at interpreter exit.
    assert done.stderr == "error: cannot write report to stdout: Broken pipe\n"
    assert done.returncode == 2


def test_reader_closing_mid_report_exits_2_without_traceback():
    # As `| head -1`: the report (about 100 kB) outgrows the 64 KiB pipe buffer,
    # so console_main is still writing when the reader goes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "laguerreflow.cli", "orthogonality", "--max-index", "24"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == "error: cannot write report to stdout: Broken pipe\n"
    assert code == 2


PINNED_REPORTS = json.loads(Path(__file__).with_name("basis_pinned.json").read_text())[
    "report_sha256"
]


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report_bytes(capsys, name):
    case = PINNED_REPORTS[name]
    code, out, _ = run(capsys, *case["argv"])
    assert code == case.get("exit", 0)
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


def test_reused_parser_gives_each_call_its_own_defaults(capsys):
    single = ("verify-theorem", "--poly", '{"roots":[["1",2],["3",1]]}')
    cli.build_parser.cache_clear()
    first_call = run(capsys, *single)  # built afresh for this call
    batch = run(capsys, "verify-theorem", "--alpha", "5/2", "--trials", "3", "--seed", "1")
    assert batch[0] == 0
    # No --alpha, --trials or --seed of the batch call leaks into the next namespace.
    assert run(capsys, *single) == first_call
    assert cli.build_parser() is cli.build_parser()


def test_lemma_commands_parse_p_once(capsys, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_poly_literal(text)

    monkeypatch.setattr(cli, "parse_poly_literal", counting)
    for argv in (
        ("verify-lemma2", "--k", "1", "--p", '{"coeffs":["-3","1"]}', "--h", "1/100"),
        ("verify-lemma1", "--k", "2", "--xi", "1", "--p", '{"coeffs":["1"]}', "--eta", "1/10"),
    ):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0 and len(calls) == 1


QUAD = '{"coeffs":["-2","0","1"]}'
RATIONAL_COMMANDS = {
    "transform": lambda q: ("transform", "--alpha", q, "--poly", QUAD),
    "certify": lambda q: ("certify", "--poly", QUAD, "--width", q),
    "isolate": lambda q: ("isolate", "--poly", QUAD, "--width", q),
    "orthogonality": lambda q: ("orthogonality", "--alpha", q, "--xi", q, "--max-index", "3"),
    "verify-theorem": lambda q: ("verify-theorem", "--alpha", q, "--poly", '{"roots":[["2",2]]}'),
    "verify-theorem-batch": lambda q: (
        "verify-theorem", "--alpha", q, "--trials", "3", "--seed", "1"
    ),
    "verify-lemma1": lambda q: (
        "verify-lemma1", "--k", "1", "--xi", q, "--p", '{"coeffs":["1"]}', "--alpha", q, "--eta", q
    ),
    "verify-lemma2": lambda q: (
        "verify-lemma2", "--k", "1", "--p", '{"coeffs":["-3","1"]}', "--alpha", q, "--h", q
    ),
    "semigroup": lambda q: ("semigroup", "--poly", QUAD, "--alpha", q, "--h1", q, "--h2", q),
    "flow-trace": lambda q: (
        "flow-trace", "--poly", QUAD, "--alpha", q, "--grid", f"0,{q},1", "--width", q
    ),
    "search-counterexamples": lambda q: (
        "search-counterexamples", "--alpha", q, "--k", "2", f"--grid=-2,{q}"
    ),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_COMMANDS))
def test_rational_spellings_give_identical_reports(capsys, name):
    runs = {run(capsys, *RATIONAL_COMMANDS[name](q)) for q in ("0.5", "1/2", "2/4", " 1/2 ")}
    assert len(runs) == 1
    code, out, err = runs.pop()
    assert code == 0 and err == "" and '"1/2"' in out


@contextlib.contextmanager
def no_int_str_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_exact_results_beyond_the_int_str_limit(capsys):
    # (x - 1/999999)^800: denominators of up to 4,800 digits, from a 30-character literal.
    code, report, _ = run_json(capsys, "certify", "--poly", '{"roots":[["1/999999",800]]}')
    assert code == 0 and report["result"]["distinct_real_roots"] == 1
    expected = [Fraction(math.comb(800, i) * (-1) ** i, 999999**i) for i in range(801)][::-1]
    with no_int_str_limit():
        assert [Fraction(c) for c in report["inputs"]["poly"]["coeffs"]] == expected

    monomial = json.dumps({"coeffs": ["0"] * 800 + ["1"]})
    code, report, _ = run_json(capsys, "transform", "--alpha", "1/999999", "--poly", monomial)
    assert code == 0
    image = laguerre_transform(Poly([0] * 800 + [1]), AlphaParam(Fraction(1, 999999)))
    with no_int_str_limit():
        assert Poly(Fraction(c) for c in report["result"]["transformed"]["coeffs"]) == image


def test_main_restores_int_str_limit(capsys):
    before = sys.get_int_max_str_digits()
    for argv in (
        ("certify", "--poly", QUAD),
        ("verify-theorem", "--alpha", "0", "--poly", '{"roots":[["-2",2]]}'),
        ("certify", "--poly", '{"coeffs":["bad"]}'),
        ("transform", "--alpha", "-1", "--poly", QUAD),
    ):
        run(capsys, *argv)
        assert sys.get_int_max_str_digits() == before


def test_readme_library_example_prints_true(capsys):
    """The README's library example, read from README.md itself, so the doc cannot drift."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True\n"
