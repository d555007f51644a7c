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
import re
import sys
from fractions import Fraction

from . import decomp
from .core import (
    BACKENDS,
    DIMS,
    EXACT,
    REL_TOL,
    HNum,
    Record,
    check_options,
    coeff_str,
    coerce_scalar,
    inner,
    norm_sq,
    scalar_ring,
    scalar_str,
)
from .dsl import FAIL, PARSE_ERROR, check_identity, report_json_obj, report_text
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
        if self.dim not in DIMS:
            raise ValueError(f"dim must be one of {DIMS}")
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
    for lineno, line in lines:
        report = check_identity(
            line, dim=cfg.dim, backend=cfg.backend, trials=cfg.trials,
            seed=cfg.seed, coeff_range=cfg.coeff_range, tolerance=cfg.tolerance,
        )
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


# A decimal literal split at its exponent: Fraction(mantissa) * 10**exponent.
_SCIENTIFIC = re.compile(r"([-+]?[\d_.]+)[eE]([-+]?\d+(?:_\d+)*)")
# The most digits str() gives an int; 0 for no limit, as before Python 3.10.7.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _rational(text: str) -> Fraction:
    """Fraction(text), without raising 10 to an exponent that no report can print.

    Past `limit + len(text)`, where `limit` is the most digits str() prints,
    a nonzero value is at least 10**(limit+1), or below 10**-(limit+1), in
    magnitude.  It is then returned as that bound with its sign, which every
    ring takes where it takes the value: a float overflows or rounds to the
    same signed zero, and an exact value has too many digits to print.
    """
    match = _SCIENTIFIC.fullmatch(text)
    limit = _max_str_digits()
    if match is None or not limit:
        return Fraction(text)
    exponent = int(match[2])
    if abs(exponent) <= limit + len(text):
        return Fraction(text)
    mantissa = Fraction(match[1])
    if not mantissa:
        return mantissa
    bound = Fraction(10) ** (limit + 1 if exponent > 0 else -limit - 1)
    return bound if mantissa > 0 else -bound


def _parse_coeffs(text: str, cfg: RunConfig) -> HNum:
    parts = text.split(",")
    if len(parts) != cfg.dim:
        raise ValueError(f"expected {cfg.dim} comma-separated coefficients, got {len(parts)}")
    values = []
    for part in parts:
        part = part.strip()
        try:
            value = coerce_scalar(_rational(part), cfg.backend)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {part!r}") from None
        except OverflowError:
            raise ValueError(f"coefficient {part!r} is beyond the {cfg.backend} range") from None
        try:
            scalar_str(value)  # the report prints every input
        except ValueError:
            limit = _max_str_digits()
            raise ValueError(f"coefficient {part!r} has more than {limit} digits") from None
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
    lengths = (
        norm_sq(parts.anticommutator),
        norm_sq(parts.cross),
        norm_sq(parts.associator),
    )
    # Added left to right, never with sum(): see core.inner.
    length_sum = lengths[0] + lengths[1] + lengths[2]
    norm_product = norm_sq(u1) * norm_sq(u2) * norm_sq(u3)
    inners = (
        inner(parts.anticommutator, parts.cross),
        inner(parts.anticommutator, parts.associator),
        inner(parts.cross, parts.associator),
    )
    finite = BACKENDS[cfg.backend].finite
    results = (*parts.product.coeffs, *parts.anticommutator.coeffs, *parts.cross.coeffs,
               *parts.associator.coeffs, *inners, *lengths, length_sum, norm_product)
    if not all(map(finite, results)):
        raise OverflowError(f"a result is beyond the {cfg.backend} range and cannot be printed")
    if cfg.fmt == "json":
        obj = {
            "dim": cfg.dim,
            "backend": cfg.backend,
            "u1": [scalar_str(c) for c in u1.coeffs],
            "u2": [scalar_str(c) for c in u2.coeffs],
            "u3": [scalar_str(c) for c in u3.coeffs],
            "product": [scalar_str(c) for c in parts.product.coeffs],
            "anticommutator": [scalar_str(c) for c in parts.anticommutator.coeffs],
            "cross": [scalar_str(c) for c in parts.cross.coeffs],
            "associator": [scalar_str(c) for c in parts.associator.coeffs],
            "inner_products": {
                "anticommutator_cross": scalar_str(inners[0]),
                "anticommutator_associator": scalar_str(inners[1]),
                "cross_associator": scalar_str(inners[2]),
            },
            "squared_lengths": {
                "anticommutator": scalar_str(lengths[0]),
                "cross": scalar_str(lengths[1]),
                "associator": scalar_str(lengths[2]),
            },
            "squared_length_sum": scalar_str(length_sum),
            "norm_product": scalar_str(norm_product),
        }
        return json.dumps(obj) + "\n"
    return (
        f"u1             = {coeff_str(u1)}\n"
        f"u2             = {coeff_str(u2)}\n"
        f"u3             = {coeff_str(u3)}\n"
        f"(u1*conj(u2))*u3 = {coeff_str(parts.product)}\n"
        f"anticommutator = {coeff_str(parts.anticommutator)}\n"
        f"cross          = {coeff_str(parts.cross)}\n"
        f"associator     = {coeff_str(parts.associator)}\n"
        f"inner(anticommutator, cross)      = {scalar_str(inners[0])}\n"
        f"inner(anticommutator, associator) = {scalar_str(inners[1])}\n"
        f"inner(cross, associator)          = {scalar_str(inners[2])}\n"
        f"|anticommutator|^2 = {scalar_str(lengths[0])}\n"
        f"|cross|^2          = {scalar_str(lengths[1])}\n"
        f"|associator|^2     = {scalar_str(lengths[2])}\n"
        f"sum of squared lengths            = {scalar_str(length_sum)}\n"
        f"normsq(u1)*normsq(u2)*normsq(u3)  = {scalar_str(norm_product)}\n"
    )


def run_table(cfg: RunConfig, out=None) -> int:
    out = out or sys.stdout
    out.write(format_table(build_table(cfg.dim)) + "\n")
    return 0


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

    parser = argparse.ArgumentParser(
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
