"""Command-line front end for scripted verification runs.

Rationals cross the boundary as strings like "3/4", "-2" or "0.5", never
floats; decimal output appears only in fields labeled approx, which
``_approx`` alone writes. argparse maps each subcommand to its function,
which parses its arguments once and returns its parsed inputs, its result and
its verdict as values and records, never as report text. ``main`` alone
builds the report {command, inputs, result}, and one writer, ``_json_text``,
decides how every value in it is written: a polynomial as its coefficient
literal, a rational as "p/q", alpha as its value, and a result record,
any other dataclass, as its fields by name. So spellings of the same value
give byte-identical reports. Exit status is 0 when the requested check passes
(or the command is purely computational), 1 when a verified property fails,
and 2 on usage or domain errors, a report that cannot be written (to --output
or to a closed stdout) among them.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import re
import sys
from collections.abc import Callable
from dataclasses import is_dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .basis import AlphaParam, XiParam, laguerre_transform
from .flow import (
    counterexample_search,
    flow_trace,
    lemma1_localize,
    lemma2_localize,
    random_alpha,
    random_poly,
    random_rational,
    random_real_rooted,
    semigroup_check,
    verify_theorem1,
)
from .orthocheck import (
    hermite_diagonal,
    hermite_diagonal_reference,
    hermite_table,
    laguerre_diagonal,
    laguerre_table,
)
from .ratpoly import LITERAL_DEGREE, Poly, parse_poly_literal, poly_literal, to_rational
from .realroot import DEFAULT_WIDTH, IsolatingInterval, RootCertificate, certify, isolate_roots

OUTDIR_ENV = "LAGUERREFLOW_OUTDIR"
# Highest orthogonality table index. A table costs O(T^3) integer products, one
# moment row per polynomial: at alpha = 7/3 and xi = 5/2, index 16 takes about
# 10 ms, 48 about 60 ms and 96 about 0.7 s and a 1.5 MB report.
MAX_ORTHOGONALITY_INDEX = 96
# Largest table size max_index^2 * bits, where bits is the larger of alpha's and
# xi's numerator-plus-denominator bit lengths. The table's integers grow with
# both factors: alpha = xi = 1e4300 would take 20 s at index 16 (2-vCPU VM,
# Python 3.11), and the largest table accepted, index 96 with 40-bit alpha and
# xi, takes about 9 s.
MAX_ORTHOGONALITY_SIZE = 96 * 96 * 40


def _parse_grid(text: str) -> list[Fraction]:
    parts = [piece.strip() for piece in text.split(",")]
    if not parts or any(not piece for piece in parts):
        raise ValueError("grid must be a comma-separated list of rationals")
    return [to_rational(piece) for piece in parts]


def _approx(iv: IsolatingInterval) -> str:
    """The interval's midpoint as a decimal to 12 significant digits, for approx fields."""
    mid = (iv.lo + iv.hi) / 2
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(mid.numerator) / Decimal(mid.denominator))


def _batch_rng(args: argparse.Namespace, min_degree: int) -> random.Random:
    """Seeded generator for a randomized batch, once its size arguments are checked."""
    if args.seed is None:
        raise ValueError("a seed is required for randomized trials")
    if args.trials < 1:
        raise ValueError(f"trials must be a positive integer, got {args.trials}")
    if args.max_degree < min_degree:
        raise ValueError(f"max degree must be at least {min_degree}, got {args.max_degree}")
    if args.max_degree > LITERAL_DEGREE:
        raise ValueError(f"max degree must be at most {LITERAL_DEGREE}, got {args.max_degree}")
    return random.Random(args.seed)


def _cmd_transform(args: argparse.Namespace) -> tuple[dict, object, bool]:
    f, alpha = parse_poly_literal(args.poly), AlphaParam(args.alpha)
    image = laguerre_transform(f, alpha, verify=args.verify)
    return {"poly": f, "alpha": alpha.value}, {"transformed": image, "display": str(image)}, True


def _cmd_certify(args: argparse.Namespace) -> tuple[dict, object, bool]:
    f, width = parse_poly_literal(args.poly), to_rational(args.width)
    return {"poly": f, "width": width}, certify(f, width), True


def _cmd_isolate(args: argparse.Namespace) -> tuple[dict, object, bool]:
    f, width = parse_poly_literal(args.poly), to_rational(args.width)
    intervals = isolate_roots(f, width)
    result = {
        "count": len(intervals),
        "intervals": intervals,
        "approx": [_approx(iv) for iv in intervals],
    }
    return {"poly": f, "width": width}, result, True


def _cmd_orthogonality(args: argparse.Namespace) -> tuple[dict, object, bool]:
    alpha = AlphaParam(args.alpha)
    xi = XiParam(args.xi)
    top = args.max_index
    if top < 0:
        raise ValueError("max index must be nonnegative")
    if top > MAX_ORTHOGONALITY_INDEX:
        raise ValueError(f"max index must be at most {MAX_ORTHOGONALITY_INDEX}, got {top}")
    bits = max(q.numerator.bit_length() + q.denominator.bit_length()
               for q in (alpha.value, xi.value))
    if top * top * bits > MAX_ORTHOGONALITY_SIZE:
        raise ValueError(
            f"table size max index^2 * bits must be at most {MAX_ORTHOGONALITY_SIZE},"
            f" got {top}^2 * {bits}; bits is the larger numerator-plus-denominator"
            " bit length of alpha and xi"
        )
    ok = True

    # An entry is a rational in units of its family's base constant, named beside it.
    laguerre_entries = []
    for (n, m), value in laguerre_table(top, alpha).items():
        ok = ok and value == (laguerre_diagonal(n, alpha) if n == m else 0)
        laguerre_entries.append(
            {"n": n, "m": m, "value": {"base": "gamma_alpha_plus_1", "coeff": value}}
        )

    hermite_entries = []
    diagonal_ratios = []
    for (k, n), value in hermite_table(top, xi).items():
        ok = ok and value == (hermite_diagonal(k, xi) if k == n else 0)
        if k == n:
            nominal = hermite_diagonal_reference(k)
            diagonal_ratios.append(
                {"k": k, "computed": value, "nominal": nominal, "ratio": value / nominal}
            )
        hermite_entries.append({"k": k, "n": n, "value": {"base": "sqrt_pi_xi", "coeff": value}})

    result = {
        "laguerre": {"entries": laguerre_entries},
        "hermite": {"entries": hermite_entries, "diagonal_ratios": diagonal_ratios},
        "orthogonal": ok,
    }
    return {"alpha": alpha.value, "xi": xi.value, "max_index": top}, result, ok


def _cmd_verify_theorem(args: argparse.Namespace) -> tuple[dict, object, bool]:
    if args.poly is not None:
        alpha = AlphaParam(args.alpha if args.alpha is not None else "0")
        f = parse_poly_literal(args.poly)
        result = verify_theorem1(f, alpha)
        return {"poly": f, "alpha": alpha.value}, result, result.passed

    rng = _batch_rng(args, min_degree=1)
    fixed = None if args.alpha is None else AlphaParam(args.alpha)
    failures = []
    for trial in range(args.trials):
        alpha = fixed if fixed is not None else random_alpha(rng)
        f = random_real_rooted(rng, args.max_degree, nonneg=not args.allow_negative_roots)
        result = verify_theorem1(f, alpha)
        if not result.passed:
            failures.append(
                {"trial": trial, "poly": f, "alpha": alpha.value, "transformed": result.transformed}
            )
    inputs = {
        "trials": args.trials,
        "seed": args.seed,
        "max_degree": args.max_degree,
        "alpha": None if fixed is None else fixed.value,
        "allow_negative_roots": args.allow_negative_roots,
    }
    passed = not failures
    return inputs, {"trials": args.trials, "failures": failures, "passed": passed}, passed


def _cmd_verify_lemma1(args: argparse.Namespace) -> tuple[dict, object, bool]:
    p, xi = parse_poly_literal(args.p), XiParam(args.xi)
    alpha, eta = AlphaParam(args.alpha), to_rational(args.eta)
    localization = lemma1_localize(args.k, xi, p, alpha, eta)
    inputs = {"k": args.k, "xi": xi.value, "p": p, "alpha": alpha.value, "eta": eta}
    return inputs, localization, localization.passed


def _cmd_verify_lemma2(args: argparse.Namespace) -> tuple[dict, object, bool]:
    p, alpha, h = parse_poly_literal(args.p), AlphaParam(args.alpha), to_rational(args.h)
    localization = lemma2_localize(args.k, p, alpha, h)
    inputs = {"k": args.k, "p": p, "alpha": alpha.value, "h": h}
    return inputs, localization, localization.passed


def _cmd_semigroup(args: argparse.Namespace) -> tuple[dict, object, bool]:
    if args.poly is not None:
        if args.h1 is None or args.h2 is None:
            raise ValueError("--h1 and --h2 are required with --poly")
        f, alpha = parse_poly_literal(args.poly), AlphaParam(args.alpha)
        h1, h2 = to_rational(args.h1), to_rational(args.h2)
        equal = semigroup_check(f, alpha, h1, h2)
        return {"poly": f, "alpha": alpha.value, "h1": h1, "h2": h2}, {"equal": equal}, equal

    rng = _batch_rng(args, min_degree=0)
    failures = []
    for trial in range(args.trials):
        f = random_poly(rng, args.max_degree)
        alpha = random_alpha(rng)
        h1 = random_rational(rng, -64, 64)
        h2 = random_rational(rng, -64, 64)
        if not semigroup_check(f, alpha, h1, h2):
            failures.append({"trial": trial, "poly": f, "alpha": alpha.value, "h1": h1, "h2": h2})
    inputs = {"trials": args.trials, "seed": args.seed, "max_degree": args.max_degree}
    passed = not failures
    result = {"trials": args.trials, "failures": len(failures), "passed": passed}
    if failures:
        # Only a failing report has this key, so passing reports keep their bytes.
        result["failed_trials"] = failures
    return inputs, result, passed


def _cmd_flow_trace(args: argparse.Namespace) -> tuple[dict, object, bool]:
    f, alpha = parse_poly_literal(args.poly), AlphaParam(args.alpha)
    grid, width = _parse_grid(args.grid), to_rational(args.width)
    trace = flow_trace(f, alpha, grid, width)
    inputs = {"poly": f, "alpha": alpha.value, "grid": ",".join(map(str, grid)), "width": width}
    if args.format == "csv":
        lines = ["h,root_index,interval_lo,interval_hi,approx"]
        for sample in trace.samples:
            lines.extend(f"{sample.h},{idx},{iv.lo},{iv.hi},{_approx(iv)}"
                         for idx, iv in enumerate(sample.certificate.intervals))
        return inputs, "\n".join(lines), True
    return inputs, trace, True


def _cmd_search_counterexamples(args: argparse.Namespace) -> tuple[dict, object, bool]:
    alpha, grid = AlphaParam(args.alpha), _parse_grid(args.grid)
    points = counterexample_search(alpha, grid, args.k)
    inputs = {"alpha": alpha.value, "k": args.k, "grid": ",".join(map(str, grid))}
    return inputs, {"points": points}, True


@functools.cache  # built on first use, not at import; parse_args returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerreflow",
        description="Exact heat-flow transforms, root certification, and verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run: Callable) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        cmd.add_argument("--output", help="write the report to this path instead of stdout")
        return cmd

    cmd = add("transform", "apply the monomial-to-Laguerre transform", _cmd_transform)
    cmd.add_argument("--poly", required=True, help='polynomial literal, e.g. {"coeffs":["1","2"]}')
    cmd.add_argument("--alpha", default="0", help="nonnegative rational parameter")
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the basis-sum result against the flow at h=1",
    )

    cmd = add("certify", "certify real-rootedness via Sturm counting", _cmd_certify)
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--width", default=DEFAULT_WIDTH, help="max isolating-interval width")

    cmd = add("isolate", "isolate all distinct real roots", _cmd_isolate)
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--width", default=DEFAULT_WIDTH)

    cmd = add("orthogonality", "exact inner-product tables for both weighted families",
              _cmd_orthogonality)
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--xi", default="1", help="positive rational scale")
    cmd.add_argument("--max-index", type=int, default=6)

    cmd = add("verify-theorem", "check the transform preserves real-rootedness",
              _cmd_verify_theorem)
    cmd.add_argument("--poly", help="single input; omit to run randomized trials")
    cmd.add_argument("--alpha", help="fixed rational (batch mode: omit to randomize per trial)")
    cmd.add_argument("--trials", type=int, default=100)
    cmd.add_argument("--seed", type=int, help="required for randomized trials")
    cmd.add_argument("--max-degree", type=int, default=12)
    cmd.add_argument(
        "--allow-negative-roots",
        action="store_true",
        help="sample roots of either sign instead of the verified nonnegative regime",
    )

    cmd = add("verify-lemma1", "count flowed roots near xi in the Hermite-radius window",
              _cmd_verify_lemma1)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--xi", required=True, help="positive rational root location")
    cmd.add_argument("--p", required=True, help="cofactor polynomial literal with p(0) != 0")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--eta", required=True, help="positive rational; flow time is eta^2")

    cmd = add("verify-lemma2", "count flowed roots near 0 in the Laguerre-radius window",
              _cmd_verify_lemma2)
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--p", required=True, help="cofactor polynomial literal with p(0) != 0")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--h", required=True, help="positive rational flow time")

    cmd = add("semigroup", "check flowing by h1 then h2 equals flowing by h1+h2", _cmd_semigroup)
    cmd.add_argument("--poly", help="single input; omit to run randomized trials")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--h1")
    cmd.add_argument("--h2")
    cmd.add_argument("--trials", type=int, default=100)
    cmd.add_argument("--seed", type=int, help="required for randomized trials")
    cmd.add_argument("--max-degree", type=int, default=20)

    cmd = add("flow-trace", "certify the flowed polynomial along a time grid", _cmd_flow_trace)
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--grid", required=True, help="comma-separated rationals, ascending from 0")
    cmd.add_argument("--format", choices=("json", "csv"), default="json")
    cmd.add_argument("--width", default=DEFAULT_WIDTH)

    cmd = add("search-counterexamples", "map pass/fail of the transform over a root grid",
              _cmd_search_counterexamples)
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--k", type=int, default=2, help="multiplicity of the probed root")
    cmd.add_argument("--grid", required=True, help="comma-separated rational root locations")

    return parser


_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join ``--opt -3/5`` into ``--opt=-3/5``, so a negative value reaches its option.

    argparse reads a token that starts with "-" as an option unless it looks
    like -N or -N.N, which leaves out rationals such as -3/5 and grids such as
    -4,-2. No option here starts with a digit or ".", so such a token is always
    a value. After a flag the joined token is refused, as the separate one was.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        # "--" alone ends the options; "--opt=v" already has its value.
        bare_option = prev.startswith("--") and prev != "--" and "=" not in prev
        if bare_option and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _emit(text: str, output: str | None) -> None:
    if output is None:
        # Flushed here, so a reader that closed the pipe fails this call and not the exit.
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            raise ValueError(f"cannot write report to stdout: {exc.strerror}") from exc
        return
    path = output
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        path = os.path.join(outdir, path)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write report to {path}: {exc.strerror or exc}") from exc


def _certificate(cert: RootCertificate) -> dict:
    return {"degree": cert.degree, "distinct_real_roots": cert.distinct_real_roots,
            "real_rooted": cert.is_real_rooted, "simple": cert.is_simple,
            "intervals": cert.intervals}


# How _json_text writes, by its exact type, a value that is not a JSON value;
# any other dataclass is a result record, written as its fields.
_REPORT_FORMS = {
    Poly: poly_literal,
    AlphaParam: lambda alpha: alpha.value,
    IsolatingInterval: lambda iv: [iv.lo, iv.hi],
    RootCertificate: _certificate,
}


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, without its pure-Python encoder.

    Besides dicts with str keys, lists or tuples, str, int, bool and None, a
    report holds exact values and results, written as: a Fraction as its
    "p/q" string, a Poly as its coefficient literal, an AlphaParam
    (FlowTrace.alpha) as its value, an IsolatingInterval as [lo, hi], and a
    RootCertificate under its report keys (real_rooted, simple). Any other
    dataclass instance is a result record and is written as its fields by name
    (``vars``), so its report keys are its field names and renaming a field
    changes the report bytes. Anything else, a float among them, raises
    TypeError.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if type(value) is Fraction:  # isinstance would run Fraction's ABC check on every value
        return f'"{value}"'
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json_text(item, inner) for item in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    form = _REPORT_FORMS.get(type(value))
    if form is not None:
        return _json_text(form(value), indent)
    if is_dataclass(value):
        return _json_text(vars(value), indent)
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    # Exact results can outgrow the interpreter's int-to-str digit limit, so it
    # is lifted while the command runs; to_rational bounds the literals instead.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs, result, passed = args.run(args)
        if not isinstance(result, str):
            result = _json_text({"command": args.command, "inputs": inputs, "result": result})
        _emit(result, args.output)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    return 0 if passed else 1


def console_main() -> int:
    """Process entry point: ``main``, then stdout pointed at os.devnull if its reader is gone.

    A report that could not be written stays in stdout's buffer, and the
    interpreter would fail again flushing it at exit. Only the process's own
    stdout is redirected; ``main`` leaves an in-process caller's alone.
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(console_main())
