"""Command-line front end.

Commands, and the only flags each takes (any other is a usage error):
    table                       print the basis multiplication table: --dim
    decompose U1 U2 U3          decompose one concrete triple product: --dim,
                                --backend, --format
    suite                       run the built-in identity suite: the flags of
                                decompose and --trials, --seed, --coeff-range,
                                --tolerance
    check FILE                  check each identity line in FILE: as suite

`suite` and `check` check their options by the library's one rule,
`core.check_options`, before they read anything.  What depends on the
backend is looked up in its scalar ring, `core.BACKENDS`.

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 I/O error
(a missing file, or the reader closing stdout early, which exits quietly),
3 malformed input (a usage error, bad coefficients, parse errors, a file that
is not UTF-8, options the library refuses, a `decompose` coefficient or
result beyond the backend's numbers, a number too long to print).
Output is byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decomp
from .core import (
    BACKENDS,
    BINARY64,
    DIMS,
    EXACT,
    DigitsError,
    HNum,
    brief,
    check_options,
    coerce_scalar,
    inner,
    norm_sq,
    scalar_str,
)
from .dsl import FAIL, PARSE_ERROR, check_identities, report_json_obj, report_text
from .oracle import build_table, format_table
from .suite import builtin_lines, numbered_lines


def _error(message, code: int = 3) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_checks(args) -> int:
    """`suite` or `check FILE`: options first, then the file, then each
    line's report, with a `line N: ` prefix for a file's lines in text."""
    try:
        check_options(args.backend, args.tolerance, args.trials, args.coeff_range, args.seed,
                      args.dim)
    except ValueError as err:
        return _error(err)
    if args.command == "suite":
        lines = [(None, line) for line in builtin_lines(args.dim)]
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            return _error(err, 2)
        except UnicodeDecodeError as err:
            return _error(f"{args.file}: not UTF-8 text (byte {err.start})")
        lines = numbered_lines(text)
    reports = check_identities([line for _, line in lines], args.dim, args.backend,
                               args.trials, args.seed, args.coeff_range, args.tolerance)
    seen = set()
    for (lineno, _), report in zip(lines, reports):
        if args.fmt == "json":
            sys.stdout.write(json.dumps(report_json_obj(report)) + "\n")
        else:
            prefix = "" if lineno is None else f"line {lineno}: "
            sys.stdout.write(prefix + report_text(report) + "\n")
        seen.add(report.status)
    return 3 if PARSE_ERROR in seen else 1 if FAIL in seen else 0


def _parse_coeffs(text: str, args) -> HNum:
    parts = text.split(",")
    if len(parts) != args.dim:
        raise ValueError(f"expected {args.dim} comma-separated coefficients, got {len(parts)}")
    values = []
    for part in parts:
        part = part.strip()
        try:
            value = coerce_scalar(part, args.backend)
        except DigitsError:  # before ValueError, its base
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"coefficient {brief(part)} has more than {limit} digits") from None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {brief(part)}") from None
        except OverflowError:
            raise ValueError(
                f"coefficient {brief(part)} is beyond the {args.backend} range") from None
        values.append(value)
    return HNum(args.dim, tuple(values), args.backend)


def _run_decompose(args) -> int:
    try:
        u1, u2, u3 = (_parse_coeffs(raw, args) for raw in (args.u1, args.u2, args.u3))
    except ValueError as err:
        return _error(err)
    parts = decomp.decompose_triple(u1, u2, u3)
    try:
        text = _render_decomposition(args, (u1, u2, u3), parts)
    except OverflowError as err:
        return _error(err)
    sys.stdout.write(text)
    return 0


def _render_decomposition(args, inputs, parts) -> str:
    """The whole `decompose` report, rendered before any of it is written;
    OverflowError or DigitsError for a result not finite or too long to print."""
    u1, u2, u3 = inputs
    a, c, s = parts.anticommutator, parts.cross, parts.associator
    lengths = (norm_sq(a), norm_sq(c), norm_sq(s))
    # Each value once, as (text label, JSON key, value): a vector's
    # coefficient tuple, or a scalar.  "group.name" nests a JSON key.
    rows = [
        ("u1            ", "u1", u1.coeffs),
        ("u2            ", "u2", u2.coeffs),
        ("u3            ", "u3", u3.coeffs),
        ("(u1*conj(u2))*u3", "product", parts.product.coeffs),
        ("anticommutator", "anticommutator", a.coeffs),
        ("cross         ", "cross", c.coeffs),
        ("associator    ", "associator", s.coeffs),
        ("inner(anticommutator, cross)     ", "inner_products.anticommutator_cross",
         inner(a, c)),
        ("inner(anticommutator, associator)", "inner_products.anticommutator_associator",
         inner(a, s)),
        ("inner(cross, associator)         ", "inner_products.cross_associator", inner(c, s)),
        ("|anticommutator|^2", "squared_lengths.anticommutator", lengths[0]),
        ("|cross|^2         ", "squared_lengths.cross", lengths[1]),
        ("|associator|^2    ", "squared_lengths.associator", lengths[2]),
        # Added left to right, never with sum(): see core.inner.
        ("sum of squared lengths           ", "squared_length_sum",
         lengths[0] + lengths[1] + lengths[2]),
        ("normsq(u1)*normsq(u2)*normsq(u3) ", "norm_product",
         norm_sq(u1) * norm_sq(u2) * norm_sq(u3)),
    ]
    finite = BACKENDS[args.backend].finite
    if not all(finite(x) for _, _, v in rows for x in (v if isinstance(v, tuple) else (v,))):
        raise OverflowError(f"a result is beyond the {args.backend} range and cannot be printed")
    shown = [[scalar_str(x) for x in v] if isinstance(v, tuple) else scalar_str(v)
             for _, _, v in rows]
    if args.fmt == "text":
        return "".join(f"{label} = {','.join(text) if isinstance(text, list) else text}\n"
                       for (label, _, _), text in zip(rows, shown))
    obj = {"dim": args.dim, "backend": args.backend}
    for (_, key, _), text in zip(rows, shown):
        group, _, name = key.rpartition(".")
        (obj.setdefault(group, {}) if group else obj)[name] = text
    return json.dumps(obj) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input: one line, exit 3
        self.exit(3, f"error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    # Nested parents: each command takes the flags it reads and no others.
    shape = argparse.ArgumentParser(add_help=False)  # table
    shape.add_argument("--dim", type=int, choices=list(DIMS), default=8,
                       help="algebra dimension (default 8)")
    values = argparse.ArgumentParser(add_help=False, parents=[shape])  # decompose
    values.add_argument("--backend", choices=list(BACKENDS), default=EXACT,
                        help="scalar backend (default exact)")
    values.add_argument("--format", dest="fmt", choices=["text", "json"], default="text",
                        help="output format (default text)")
    checks = argparse.ArgumentParser(add_help=False, parents=[values])  # suite, check
    checks.add_argument("--trials", type=int, default=1000,
                        help="random trials per identity (default 1000)")
    checks.add_argument("--seed", type=int, default=42,
                        help="random seed (default 42)")
    checks.add_argument("--coeff-range", type=int, default=9,
                        help="sample coefficients in [-N, N] (default 9)")
    checks.add_argument("--tolerance", type=float, default=None,
                        help="binary64 relative tolerance "
                             f"(default {BACKENDS[BINARY64].tolerance})")

    parser = _Parser(
        prog="triprod",
        description="Check hypercomplex identities and decompose triple products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("suite", parents=[checks],
                   help="run the built-in identity suite")
    p_check = sub.add_parser("check", parents=[checks],
                             help="check identities from a file, one per line")
    p_check.add_argument("file")
    p_dec = sub.add_parser("decompose", parents=[values],
                           help="decompose (u1*conj(u2))*u3 for concrete coefficients")
    p_dec.add_argument("u1", help="comma-separated coefficients, e.g. 0,1,0,0,0,0,0,0")
    p_dec.add_argument("u2")
    p_dec.add_argument("u3")
    sub.add_parser("table", parents=[shape],
                   help="print the basis multiplication table")
    return parser


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away, as `head` does.  Point stdout at devnull so
        # the interpreter's last flush does not fail again on the way out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except DigitsError:  # a report's number that str() cannot print
        limit = sys.get_int_max_str_digits()
        return _error(f"a result has more than {limit} digits and cannot be printed")
    return code


def _dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table":
        sys.stdout.write(format_table(build_table(args.dim)) + "\n")
        return 0
    if args.command == "decompose":
        return _run_decompose(args)
    return _run_checks(args)


if __name__ == "__main__":
    sys.exit(main())
