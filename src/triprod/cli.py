"""Command-line front end.

Commands:
    suite                       run the built-in identity suite
    check FILE                  check each identity line in FILE
    decompose U1 U2 U3          decompose one concrete triple product
    table                       print the basis multiplication table

Exit codes: 0 all checks passed, 1 at least one identity failed, 2 I/O error
(a missing file, or the reader closing stdout early, which exits quietly),
3 malformed input (bad coefficients, parse errors, a file that is not UTF-8,
inconsistent options, a coefficient range or a `decompose` coefficient or
result beyond the backend's numbers or too long to print).
Output is byte-identical across runs with the same configuration.

What depends on the backend is looked up in its scalar ring, `core.BACKENDS`,
and options are checked by the library's own rules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decomp
from .core import (
    BACKENDS,
    DIMS,
    EXACT,
    REL_TOL,
    DigitsError,
    HNum,
    Record,
    brief,
    check_dim,
    check_options,
    coerce_scalar,
    inner,
    norm_sq,
    scalar_ring,
    scalar_str,
)
from .dsl import FAIL, PARSE_ERROR, check_identities, report_json_obj, report_text
from .oracle import build_table, format_table
from .suite import builtin_lines, numbered_lines


class RunConfig(Record):
    """Validated knobs shared by all commands; tolerance only with binary64."""

    __slots__ = ("command", "dim", "backend", "trials", "seed", "coeff_range", "tolerance", "fmt")
    _defaults = {"dim": 8, "backend": EXACT, "trials": 1000, "seed": 42, "coeff_range": 9,
                 "tolerance": None, "fmt": "text"}

    def _check(self):
        # Runs while the fields can still be set, so it can fill in the
        # binary64 default tolerance.
        check_dim(self.dim)
        ring = scalar_ring(self.backend)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.coeff_range < 1:
            raise ValueError("coeff-range must be >= 1")
        if ring.needs_tolerance and self.tolerance is None:
            self.tolerance = REL_TOL
        check_options(self.backend, self.tolerance, self.coeff_range)
        if self.fmt not in ("text", "json"):
            raise ValueError("format must be text or json")


def _emit(report, cfg: RunConfig, out, prefix: str = ""):
    if cfg.fmt == "json":
        out.write(json.dumps(report_json_obj(report)) + "\n")
    else:
        out.write(prefix + report_text(report) + "\n")


def _check_lines(lines, cfg: RunConfig, out, numbered: bool = False):
    """Check lines in order; returns (any_parse_error, any_failure)."""
    any_parse = False
    any_fail = False
    reports = check_identities(
        [line for _, line in lines], dim=cfg.dim, backend=cfg.backend, trials=cfg.trials,
        seed=cfg.seed, coeff_range=cfg.coeff_range, tolerance=cfg.tolerance,
    )
    for (lineno, _), report in zip(lines, reports):
        prefix = f"line {lineno}: " if numbered else ""
        _emit(report, cfg, out, prefix)
        if report.status == PARSE_ERROR:
            any_parse = True
        elif report.status == FAIL:
            any_fail = True
    return any_parse, any_fail


def run_suite(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    lines = [(i + 1, line) for i, line in enumerate(builtin_lines(cfg.dim))]
    any_parse, any_fail = _check_lines(lines, cfg, out)
    return 1 if (any_parse or any_fail) else 0


def run_check(cfg: RunConfig, path: str, out=None) -> int:
    out = out or sys.stdout
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as err:
        print(f"error: {path}: not UTF-8 text (byte {err.start})", file=sys.stderr)
        return 3
    any_parse, any_fail = _check_lines(numbered_lines(text), cfg, out, numbered=True)
    if any_parse:
        return 3
    return 1 if any_fail else 0


def _parse_coeffs(text: str, cfg: RunConfig) -> HNum:
    parts = text.split(",")
    if len(parts) != cfg.dim:
        raise ValueError(f"expected {cfg.dim} comma-separated coefficients, got {len(parts)}")
    values = []
    for part in parts:
        part = part.strip()
        try:
            value = coerce_scalar(part, cfg.backend)
            try:
                scalar_str(value)  # the report prints every input
            except ValueError:
                raise DigitsError from None
        except DigitsError:  # before ValueError, its base
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"coefficient {brief(part)} has more than {limit} digits") from None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {brief(part)}") from None
        except OverflowError:
            raise ValueError(
                f"coefficient {brief(part)} is beyond the {cfg.backend} range") from None
        values.append(value)
    return HNum(cfg.dim, tuple(values), cfg.backend)


def run_decompose(cfg: RunConfig, raw1: str, raw2: str, raw3: str, out=None) -> int:
    out = out or sys.stdout
    try:
        u1 = _parse_coeffs(raw1, cfg)
        u2 = _parse_coeffs(raw2, cfg)
        u3 = _parse_coeffs(raw3, cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    parts = decomp.decompose_triple(u1, u2, u3)
    try:
        text = _render_decomposition(cfg, (u1, u2, u3), parts)
    except OverflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ValueError:
        # str() of an exact integer refuses more than this many digits.
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits and cannot be printed",
              file=sys.stderr)
        return 3
    out.write(text)
    return 0


def _render_decomposition(cfg: RunConfig, inputs, parts) -> str:
    """The whole `decompose` report, rendered before any of it is written;
    OverflowError if a result is not finite."""
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
    finite = BACKENDS[cfg.backend].finite
    if not all(finite(x) for _, _, v in rows for x in (v if isinstance(v, tuple) else (v,))):
        raise OverflowError(f"a result is beyond the {cfg.backend} range and cannot be printed")
    shown = [[scalar_str(x) for x in v] if isinstance(v, tuple) else scalar_str(v)
             for _, _, v in rows]
    if cfg.fmt == "text":
        return "".join(f"{label} = {','.join(text) if isinstance(text, list) else text}\n"
                       for (label, _, _), text in zip(rows, shown))
    obj = {"dim": cfg.dim, "backend": cfg.backend}
    for (_, key, _), text in zip(rows, shown):
        group, _, name = key.rpartition(".")
        (obj.setdefault(group, {}) if group else obj)[name] = text
    return json.dumps(obj) + "\n"


def run_table(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    out.write(format_table(build_table(cfg.dim)) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input: one line, exit 3
        self.exit(3, f"error: {' '.join(message.splitlines())}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, choices=list(DIMS), default=8,
                        help="algebra dimension (default 8)")
    common.add_argument("--backend", choices=list(BACKENDS), default=EXACT,
                        help="scalar backend (default exact)")
    common.add_argument("--trials", type=int, default=1000,
                        help="random trials per identity (default 1000)")
    common.add_argument("--seed", type=int, default=42,
                        help="random seed (default 42)")
    common.add_argument("--coeff-range", type=int, default=9,
                        help="sample coefficients in [-N, N] (default 9)")
    common.add_argument("--tolerance", type=float, default=None,
                        help="binary64 relative tolerance (default 1e-9)")
    common.add_argument("--format", dest="fmt", choices=["text", "json"], default="text",
                        help="output format (default text)")

    parser = _Parser(
        prog="triprod",
        description="Check hypercomplex identities and decompose triple products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("suite", parents=[common],
                   help="run the built-in identity suite")
    p_check = sub.add_parser("check", parents=[common],
                             help="check identities from a file, one per line")
    p_check.add_argument("file")
    p_dec = sub.add_parser("decompose", parents=[common],
                           help="decompose (u1*conj(u2))*u3 for concrete coefficients")
    p_dec.add_argument("u1", help="comma-separated coefficients, e.g. 0,1,0,0,0,0,0,0")
    p_dec.add_argument("u2")
    p_dec.add_argument("u3")
    sub.add_parser("table", parents=[common],
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
    return code


def _dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command, dim=args.dim, backend=args.backend,
            trials=args.trials, seed=args.seed, coeff_range=args.coeff_range,
            tolerance=args.tolerance, fmt=args.fmt,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    if cfg.command == "suite":
        return run_suite(cfg)
    if cfg.command == "check":
        return run_check(cfg, args.file)
    if cfg.command == "decompose":
        return run_decompose(cfg, args.u1, args.u2, args.u3)
    return run_table(cfg)


if __name__ == "__main__":
    sys.exit(main())
