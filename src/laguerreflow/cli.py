"""Command-line front end for scripted verification runs.

Rationals cross the boundary as strings like "3/4", "-2" or "0.5", never
floats; decimal output appears only in fields labeled approx. Each command
parses its arguments once and returns its parsed inputs, its result and its
verdict; ``main`` alone builds the report {command, inputs, result} and
writes every input in canonical form (a polynomial as its coefficient
literal, a rational as "p/q", a grid as comma-joined rationals), so spellings
of the same value give byte-identical reports. Exit status is 0 when the
requested check passes (or the command is purely computational), 1 when a
verified property fails, and 2 on usage or domain errors, a report that
cannot be written (to --output or to a closed stdout) among them.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
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
    hermite_inner,
    laguerre_diagonal,
    laguerre_inner,
)
from .ratpoly import LITERAL_DEGREE, Poly, parse_poly_literal, poly_literal, to_rational
from .realroot import DEFAULT_WIDTH, certify, isolate_roots

OUTDIR_ENV = "LAGUERREFLOW_OUTDIR"


def _parse_grid(text: str) -> list[Fraction]:
    parts = [piece.strip() for piece in text.split(",")]
    if not parts or any(not piece for piece in parts):
        raise ValueError("grid must be a comma-separated list of rationals")
    return [to_rational(piece) for piece in parts]


def _alpha(args: argparse.Namespace) -> AlphaParam:
    return AlphaParam(args.alpha)


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


def _cmd_transform(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    f, alpha = parse_poly_literal(args.poly), _alpha(args)
    image = laguerre_transform(f, alpha, verify=args.verify)
    result = {"transformed": poly_literal(image), "display": str(image)}
    return {"poly": f, "alpha": alpha.value}, result, True


def _cmd_certify(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    f, width = parse_poly_literal(args.poly), to_rational(args.width)
    return {"poly": f, "width": width}, certify(f, width).to_json(), True


def _cmd_isolate(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    f, width = parse_poly_literal(args.poly), to_rational(args.width)
    intervals = isolate_roots(f, width)
    result = {
        "count": len(intervals),
        "intervals": [iv.to_json() for iv in intervals],
        "approx": [iv.approx() for iv in intervals],
    }
    return {"poly": f, "width": width}, result, True


def _cmd_orthogonality(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    alpha = _alpha(args)
    xi = XiParam(args.xi)
    top = args.max_index
    if top < 0:
        raise ValueError("max index must be nonnegative")
    if top > LITERAL_DEGREE:
        raise ValueError(f"max index must be at most {LITERAL_DEGREE}, got {top}")
    ok = True

    laguerre_entries = []
    for n in range(top + 1):
        for m in range(n, top + 1):
            value = laguerre_inner(n, m, alpha)
            ok = ok and value.coeff == (laguerre_diagonal(n, alpha) if n == m else 0)
            laguerre_entries.append({"n": n, "m": m, "value": value.to_json()})

    hermite_entries = []
    diagonal_ratios = []
    for k in range(top + 1):
        for n in range(k, top + 1):
            value = hermite_inner(k, n, xi)
            ok = ok and value.coeff == (hermite_diagonal(k, xi) if k == n else 0)
            if k == n:
                nominal = hermite_diagonal_reference(k)
                diagonal_ratios.append(
                    {
                        "k": k,
                        "computed": str(value.coeff),
                        "nominal": str(nominal),
                        "ratio": str(value.coeff / nominal),
                    }
                )
            hermite_entries.append({"k": k, "n": n, "value": value.to_json()})

    result = {
        "laguerre": {"entries": laguerre_entries},
        "hermite": {"entries": hermite_entries, "diagonal_ratios": diagonal_ratios},
        "orthogonal": ok,
    }
    return {"alpha": alpha.value, "xi": xi.value, "max_index": top}, result, ok


def _cmd_verify_theorem(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    if args.poly is not None:
        alpha = AlphaParam(args.alpha if args.alpha is not None else "0")
        f = parse_poly_literal(args.poly)
        result = verify_theorem1(f, alpha)
        return {"poly": f, "alpha": alpha.value}, result.to_json(), result.passed

    rng = _batch_rng(args, min_degree=1)
    fixed = None if args.alpha is None else AlphaParam(args.alpha)
    failures = []
    for trial in range(args.trials):
        alpha = fixed if fixed is not None else random_alpha(rng)
        f = random_real_rooted(rng, args.max_degree, nonneg=not args.allow_negative_roots)
        result = verify_theorem1(f, alpha)
        if not result.passed:
            failures.append(
                {
                    "trial": trial,
                    "poly": poly_literal(f),
                    "alpha": str(alpha.value),
                    "transformed": poly_literal(result.transformed),
                }
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


def _cmd_verify_lemma1(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    p, xi = parse_poly_literal(args.p), XiParam(args.xi)
    alpha, eta = _alpha(args), to_rational(args.eta)
    localization = lemma1_localize(args.k, xi, p, alpha, eta)
    inputs = {"k": args.k, "xi": xi.value, "p": p, "alpha": alpha.value, "eta": eta}
    return inputs, localization.to_json(), localization.passed


def _cmd_verify_lemma2(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    p, alpha, h = parse_poly_literal(args.p), _alpha(args), to_rational(args.h)
    localization = lemma2_localize(args.k, p, alpha, h)
    inputs = {"k": args.k, "p": p, "alpha": alpha.value, "h": h}
    return inputs, localization.to_json(), localization.passed


def _cmd_semigroup(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    if args.poly is not None:
        if args.h1 is None or args.h2 is None:
            raise ValueError("--h1 and --h2 are required with --poly")
        f, alpha = parse_poly_literal(args.poly), _alpha(args)
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
            failures.append({"trial": trial, "poly": poly_literal(f), "alpha": str(alpha.value),
                             "h1": str(h1), "h2": str(h2)})
    inputs = {"trials": args.trials, "seed": args.seed, "max_degree": args.max_degree}
    passed = not failures
    result = {"trials": args.trials, "failures": len(failures), "passed": passed}
    if failures:
        # Only a failing report has this key, so passing reports keep their bytes.
        result["failed_trials"] = failures
    return inputs, result, passed


def _cmd_flow_trace(args: argparse.Namespace) -> tuple[dict, dict | str, bool]:
    f, alpha = parse_poly_literal(args.poly), _alpha(args)
    grid, width = _parse_grid(args.grid), to_rational(args.width)
    trace = flow_trace(f, alpha, grid, width)
    inputs = {"poly": f, "alpha": alpha.value, "grid": grid, "width": width}
    if args.format == "csv":
        lines = ["h,root_index,interval_lo,interval_hi,approx"]
        lines.extend(",".join(row) for row in trace.csv_rows())
        return inputs, "\n".join(lines), True
    return inputs, trace.to_json(), True


def _cmd_search_counterexamples(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    alpha, grid = _alpha(args), _parse_grid(args.grid)
    points = counterexample_search(alpha, grid, args.k)
    inputs = {"alpha": alpha.value, "k": args.k, "grid": grid}
    return inputs, {"points": [p.to_json() for p in points]}, True


_COMMANDS = {
    "transform": _cmd_transform,
    "certify": _cmd_certify,
    "isolate": _cmd_isolate,
    "orthogonality": _cmd_orthogonality,
    "verify-theorem": _cmd_verify_theorem,
    "verify-lemma1": _cmd_verify_lemma1,
    "verify-lemma2": _cmd_verify_lemma2,
    "semigroup": _cmd_semigroup,
    "flow-trace": _cmd_flow_trace,
    "search-counterexamples": _cmd_search_counterexamples,
}

_WIDTH_DEFAULT = str(DEFAULT_WIDTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laguerreflow",
        description="Exact heat-flow transforms, root certification, and verification harnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--output", help="write the report to this path instead of stdout")
        return cmd

    cmd = add("transform", "apply the monomial-to-Laguerre transform")
    cmd.add_argument("--poly", required=True, help='polynomial literal, e.g. {"coeffs":["1","2"]}')
    cmd.add_argument("--alpha", default="0", help="nonnegative rational parameter")
    cmd.add_argument(
        "--verify",
        action="store_true",
        help="cross-check the basis-sum result against the flow at h=1",
    )

    cmd = add("certify", "certify real-rootedness via Sturm counting")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--width", default=_WIDTH_DEFAULT, help="max isolating-interval width")

    cmd = add("isolate", "isolate all distinct real roots")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--width", default=_WIDTH_DEFAULT)

    cmd = add("orthogonality", "exact inner-product tables for both weighted families")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--xi", default="1", help="positive rational scale")
    cmd.add_argument("--max-index", type=int, default=6)

    cmd = add("verify-theorem", "check the transform preserves real-rootedness")
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

    cmd = add("verify-lemma1", "count flowed roots near xi in the Hermite-radius window")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--xi", required=True, help="positive rational root location")
    cmd.add_argument("--p", required=True, help="cofactor polynomial literal with p(0) != 0")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--eta", required=True, help="positive rational; flow time is eta^2")

    cmd = add("verify-lemma2", "count flowed roots near 0 in the Laguerre-radius window")
    cmd.add_argument("--k", type=int, required=True)
    cmd.add_argument("--p", required=True, help="cofactor polynomial literal with p(0) != 0")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--h", required=True, help="positive rational flow time")

    cmd = add("semigroup", "check flowing by h1 then h2 equals flowing by h1+h2")
    cmd.add_argument("--poly", help="single input; omit to run randomized trials")
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--h1")
    cmd.add_argument("--h2")
    cmd.add_argument("--trials", type=int, default=100)
    cmd.add_argument("--seed", type=int, help="required for randomized trials")
    cmd.add_argument("--max-degree", type=int, default=20)

    cmd = add("flow-trace", "certify the flowed polynomial along a time grid")
    cmd.add_argument("--poly", required=True)
    cmd.add_argument("--alpha", default="0")
    cmd.add_argument("--grid", required=True, help="comma-separated rationals, ascending from 0")
    cmd.add_argument("--format", choices=("json", "csv"), default="json")
    cmd.add_argument("--width", default=_WIDTH_DEFAULT)

    cmd = add("search-counterexamples", "map pass/fail of the transform over a root grid")
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


def _canonical(value: object) -> object:
    """An input as the report writes it: a literal, a rational string or a grid string."""
    if isinstance(value, Poly):
        return poly_literal(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, list):
        return ",".join(str(q) for q in value)
    return value


def _json_text(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, without its pure-Python encoder.

    A report holds dicts with str keys, lists or tuples, str, int, bool and None.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json_text(item, inner) for item in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    # Exact results can outgrow the interpreter's int-to-str digit limit, so it
    # is lifted while the command runs; to_rational bounds the literals instead.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        inputs, result, passed = _COMMANDS[args.command](args)
        if not isinstance(result, str):
            report = {
                "command": args.command,
                "inputs": {key: _canonical(value) for key, value in inputs.items()},
                "result": result,
            }
            result = _json_text(report)
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
