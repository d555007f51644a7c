import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import hnums
from triprod import (
    BINARY64,
    DIMS,
    EXACT,
    REL_TOL,
    HNum,
    ParseError,
    acomm2,
    acomm3,
    add,
    assoc3,
    basis,
    check_identities,
    check_identity,
    check_identity_basis,
    conj,
    cross2,
    cross3,
    evaluate,
    hnum,
    imaginary_part,
    inner,
    negate,
    norm_sq,
    parse,
    pretty,
    real_coeff,
    scale,
    sub,
)
from triprod import core
from triprod import dsl
from triprod.dsl import (
    FUNCTIONS,
    GROUP_SIZE,
    MAX_DEGREE,
    MAX_DEPTH,
    VECTOR,
    Add,
    Basis,
    Call,
    CheckReport,
    EvalError,
    Identity,
    Mul,
    Neg,
    Num,
    Sub,
    Unit,
    Var,
    _run_check,
    report_json_obj,
)
from triprod.suite import builtin_lines

DECOMPOSITION_LINE = "(u1*conj(u2))*u3 == acomm3(u1,u2,u3) + cross3(u1,u2,u3) + assoc(u1,u2,u3)"


# --- parsing -----------------------------------------------------------------


def test_parse_free_vars_and_sort():
    ident = parse("cross3(u1,i0,u3) == cross(u1,u3)")
    assert ident.free_vars == ("u1", "u3")
    assert ident.sort == "vector"


def test_parse_decomposition_line():
    ident = parse(DECOMPOSITION_LINE)
    assert ident.free_vars == ("u1", "u2", "u3")
    assert isinstance(ident.lhs, Mul)
    assert isinstance(ident.rhs, Add)


def test_parse_scalar_identity():
    ident = parse("inner(u1,u2) == inner(u2,u1)")
    assert ident.sort == "scalar"


def test_parse_atoms():
    ident = parse("1/2*i0 + e3 - v == v")
    num = ident.lhs.left.left  # ((1/2*i0) + e3) - v
    assert isinstance(ident.lhs, Sub)
    assert isinstance(num, Mul)
    assert num.left == Num(Fraction(1, 2))
    assert num.right == Unit()
    assert ident.lhs.left.right == Basis(3)
    assert ident.lhs.right == Var("v")


def test_multiplication_is_left_associative_and_never_reassociated():
    chained = parse("u1*u2*u3 == u1*u2*u3").lhs
    explicit = parse("(u1*u2)*u3 == u1".replace(" == u1", " == u1")).lhs
    assert chained == explicit
    other = parse("u1*(u2*u3) == u1").lhs
    assert chained != other


@pytest.mark.parametrize("text,col_hint", [
    ("inner(u1,", 10),
    ("u1 +", 5),
    ("(u1*u2 == u1", 8),
    ("u1 ** u2 == u1", 5),
    ("u1 = u2", 4),
    ("u1 == u2 extra", 10),
    ("u1 @ u2 == u1", 4),
])
def test_syntax_errors_carry_column(text, col_hint):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.col == col_hint


def test_arity_errors():
    with pytest.raises(ParseError, match="3 arguments"):
        parse("cross3(u1,u2) == u1")
    with pytest.raises(ParseError, match="2 arguments"):
        parse("inner(u1) == 0")
    with pytest.raises(ParseError, match="1 argument,"):
        parse("conj(u1,u2) == u1")


def test_sort_errors():
    with pytest.raises(ParseError, match="add/subtract"):
        parse("u1 + inner(u1,u2) == u1")
    with pytest.raises(ParseError, match="left operand"):
        parse("u1*2 == u1")
    with pytest.raises(ParseError, match="vector arguments"):
        parse("conj(inner(u1,u2)) == u1")
    with pytest.raises(ParseError, match="scalar-valued"):
        parse("u1 == inner(u1,u2)")


@pytest.mark.parametrize("text,message", [
    # The arity error is raised at the call's ')', before any later error.
    ("conj(u1,u2) == (", "col 1: conj takes 1 argument, got 2"),
    ("u1*2 == conj(u1,u2)", "col 9: conj takes 1 argument, got 2"),
    ("u1 == 1", "col 4: left side is vector-valued but right side is scalar-valued"),
])
def test_text_errors_keep_their_order(text, message):
    report = check_identity(text)
    assert (report.status, report.message) == ("PARSE_ERROR", message)


def test_a_call_checks_its_function_and_arity_when_built():
    u, v = Var("u"), Var("v")
    with pytest.raises(ParseError, match=r"^col 0: conj takes 1 argument, got 2$"):
        Call("conj", (u, v))
    with pytest.raises(ParseError, match=r"^col 3: unknown function 'nope'$"):
        Call("nope", (u,), 3)
    with pytest.raises(ParseError, match=r"^col 0: cross3 takes 3 arguments, got 0$"):
        Call("cross3", ())


def test_a_leaf_checks_its_value_when_built():
    # The parser makes Fraction literals and int indices; a hand-built leaf
    # holding anything else is refused at its column, not deep in a check.
    with pytest.raises(ParseError, match=r"^col 0: literal 2\.5 is not an int or a Fraction$"):
        Identity("t", Num(2.5), Num(2.5))
    for value in ("x", None, True):
        with pytest.raises(ParseError, match=r"^col 4: literal .* is not an int or a Fraction$"):
            Num(value, 4)
    for index in (2.0, True):
        with pytest.raises(ParseError, match=r"^col 0: basis index .* is not an int$"):
            Basis(index)
    assert (Num(Fraction(1, 2)).value, Num(3).value, Basis(7).index) == (Fraction(1, 2), 3, 7)
    assert check_identity(Identity("t", Mul(Num(3), Basis(7)), Basis(7))).status == "FAIL"


def test_an_identity_derives_its_free_variables_and_sort():
    with pytest.raises(ParseError,
                       match="^col 3: left side is vector-valued but right side is scalar-valued$"):
        Identity("u == 1", Var("u"), Num(1), 3)
    identity = Identity("u == w", Var("u"), Var("w"))
    assert (identity.free_vars, identity.sort, identity.col) == (("u", "w"), VECTOR, 0)
    assert check_identity(identity, trials=2).status == "FAIL"
    for derived in ("free_vars", "sort"):
        with pytest.raises(TypeError):
            Identity("u == u", Var("u"), Var("u"), **{derived: identity.free_vars})


def test_a_parsed_identity_round_trips():
    identity = parse(DECOMPOSITION_LINE)
    assert identity.col == DECOMPOSITION_LINE.index("==") + 1
    for copied in (pickle.loads(pickle.dumps(identity)),
                   Identity(identity.text, identity.lhs, identity.rhs, identity.col)):
        assert copied == identity
        assert (copied.free_vars, copied.sort, copied.col) == (
            identity.free_vars, identity.sort, identity.col)


def test_function_name_requires_call():
    with pytest.raises(ParseError):
        parse("conj == u1")


def test_unknown_basis_element():
    with pytest.raises(ParseError, match="e0..e7"):
        parse("e8 == i0")


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0*i0 == i0")


def test_denominators_of_several_digits():
    assert parse("22/7*i0 == i0").lhs.left == Num(Fraction(22, 7))
    assert parse("100/314*i0 == i0").lhs.left == Num(Fraction(50, 157))
    assert check_identity("22/17*u1 - 5/17*u1 == u1", trials=20).status == "PASS"
    assert check_identity("22/17*u1 - 5/17*u1 == 2*u1", trials=20).status == "FAIL"


# --- pretty printing ---------------------------------------------------------


def test_pretty_preserves_parenthesization():
    ident = parse("u1*(u2*u3) == (u1*u2)*u3")
    assert pretty(ident.lhs) == "u1*(u2*u3)"
    assert pretty(ident.rhs) == "u1*u2*u3"  # left association needs no parens


@pytest.mark.parametrize("line", builtin_lines(8))
def test_round_trip_builtin_suite(line):
    ident = parse(line)
    reparsed = parse(f"{pretty(ident.lhs)} == {pretty(ident.rhs)}")
    assert reparsed.lhs == ident.lhs
    assert reparsed.rhs == ident.rhs


def test_round_trip_tricky_forms():
    for text in [
        "1/23*u1 - 22/7*u2 == 0*i0",
        "-(u1 - u2) - -u3 == 0*i0",
        "1/2*(u1 + u2)*u3 == u3",
        "inner(-u1,u2) - -inner(u1,u2) == 0",
        "cross(u1,acomm(u2,e7)) == i0 - u1*(u2 - e1)*e2",
    ]:
        ident = parse(text)
        reparsed = parse(f"{pretty(ident.lhs)} == {pretty(ident.rhs)}")
        assert (reparsed.lhs, reparsed.rhs) == (ident.lhs, ident.rhs)


# --- evaluation --------------------------------------------------------------


def test_evaluate_examples():
    e5 = basis(8, 5)
    ident = parse("i0*u == u")
    assert evaluate(ident.lhs, {"u": e5}, 8, EXACT) == e5
    expr = parse("assoc(e1,e2,e4) == i0").lhs
    assert evaluate(expr, {}, 8, EXACT) == assoc3(basis(8, 1), basis(8, 2), basis(8, 4))
    assert evaluate(parse("normsq(e3) == 1").lhs, {}, 8, EXACT) == 1


def test_evaluate_unbound_variable():
    expr = parse("u1 == u1").lhs
    with pytest.raises(EvalError, match="unbound"):
        evaluate(expr, {}, 8, EXACT)


def test_evaluate_basis_beyond_dimension():
    expr = parse("e5 == e5").lhs
    with pytest.raises(EvalError, match="dimension 4"):
        evaluate(expr, {}, 4, EXACT)


def test_evaluate_rejects_values_of_another_dimension_or_backend():
    expr = parse("conj(u1) == u1").lhs
    with pytest.raises(ValueError, match="dimension 8 exact"):
        evaluate(expr, {"u1": basis(4, 1)}, 8, EXACT)
    with pytest.raises(ValueError, match="dimension 8 exact"):
        evaluate(expr, {"u1": basis(8, 1, BINARY64)}, 8, EXACT)


@pytest.mark.parametrize("dim,backend,match", [
    (3, EXACT, "dimension must be one of"),
    (8, "nope", "unknown backend"),
    # The wording a check of the same line reports, not a bare OverflowError.
    (8, BINARY64, "^number too large for the binary64 backend$"),
])
def test_evaluate_refuses_a_dimension_or_backend_that_does_not_exist(dim, backend, match):
    with pytest.raises(ValueError, match=match):
        evaluate(parse("1" + "0" * 400 + "*i0 == i0").lhs, {}, dim, backend)


def test_evaluate_refuses_an_ill_formed_tree():
    # A tree built by hand skips `parse`; evaluate applies its rules all the
    # same, where it would end in RecursionError or TypeError.
    chain = Var("u")
    for _ in range(3000):
        chain = Add(chain, Var("u"))
    env = {"u": basis(8, 1)}
    with pytest.raises(EvalError, match="^expression nested too deeply"):
        evaluate(chain, env, 8, EXACT)
    with pytest.raises(EvalError, match=r"^scalar factor must be the left operand of '\*'$"):
        evaluate(Mul(Var("u"), Num(2)), env, 8, EXACT)


def test_evaluate_unbound_variable_inside_a_compound():
    expr = parse("cross3(u1, 2*u2, i0) == u1").lhs
    with pytest.raises(EvalError, match="'u2'"):
        evaluate(expr, {"u1": basis(8, 1)}, 8, EXACT)


# --- malformed input ---------------------------------------------------------


@pytest.mark.parametrize("text,col", [
    ("u1 == ²*u1", 7),      # superscript two: str.isdigit accepts it
    ("u1 == u²", 8),
    ("e² == e²", 2),
    ("u1 == ٣*u1", 7),      # Arabic-Indic three
])
def test_non_ascii_digits_are_parse_errors(text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.col == col
    report = check_identity(text, dim=8, trials=5)
    assert report.status == "PARSE_ERROR"
    assert f"col {col}:" in report.message


def test_overlong_number_is_a_parse_error():
    report = check_identity("1" * 5000 + "*u1 == u1", dim=8, trials=5)
    assert report.status == "PARSE_ERROR"
    assert "number too long" in report.message


def _nested(shape: str, levels: int) -> str:
    """An identity whose left side nests `levels` deep in the given way."""
    if shape == "parens":
        return "(" * levels + "u1" + ")" * levels + " == u1"
    if shape == "minus":
        return "-" * levels + "u1 == u1"
    if shape == "calls":
        return "conj(" * levels + "u1" + ")" * levels + " == u1"
    return " + ".join(["u1"] * levels) + " == u1"  # a left-deep chain


# Deepest accepted input of each shape: parentheses add no tree level, a
# unary minus or a call adds one above its operand, a chain of n terms is a
# tree n levels deep.
DEEPEST = {"parens": MAX_DEPTH, "minus": MAX_DEPTH - 1, "calls": MAX_DEPTH - 1, "chain": MAX_DEPTH}


@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_deepest_accepted_nesting_checks(shape):
    report = check_identity(_nested(shape, DEEPEST[shape]), dim=8, trials=3)
    assert report.status in ("PASS", "FAIL")
    assert report.trials == 3


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_nesting_limit_keeps_recursion_far_below_the_interpreter_limit():
    # Parsing, sort checking and generating the identity's function together
    # may use a handful of frames per level, no more (the generated function
    # itself is straight-line code): 6 * MAX_DEPTH is well under the default
    # limit of 1000, whatever the caller's own depth.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 6 * MAX_DEPTH)
    try:
        for shape, levels in DEEPEST.items():
            assert check_identity(_nested(shape, levels), dim=8, trials=2).trials == 2
            too_deep = check_identity(_nested(shape, levels + 3000), dim=8, trials=2)
            assert too_deep.status == "PARSE_ERROR"
    finally:
        sys.setrecursionlimit(old)


@pytest.mark.parametrize("levels", [1, 3000])
@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_too_deep_nesting_is_a_parse_error(shape, levels):
    report = check_identity(_nested(shape, DEEPEST[shape] + levels), dim=8, trials=3)
    assert report.status == "PARSE_ERROR"
    assert "nested too deeply" in report.message
    assert report.message.startswith("col ")


def test_evaluate_source_order_multiplication():
    # (e1*e2)*e4 differs from e1*(e2*e4) for octonions; the evaluator must
    # follow the written order exactly.
    left = evaluate(parse("(e1*e2)*e4 == i0").lhs, {}, 8, EXACT)
    right = evaluate(parse("e1*(e2*e4) == i0").lhs, {}, 8, EXACT)
    assert left != right


# Each entry of FUNCTIONS, scalar times vector, and the vector sums and
# negations the generator unrolls, as the library computes them.
LIBRARY = {
    "u1 + u2": lambda u1, u2, u3: add(u1, u2),
    "u1 - u2": lambda u1, u2, u3: sub(u1, u2),
    "-u1": lambda u1, u2, u3: negate(u1),
    "-conj(-u1)": lambda u1, u2, u3: negate(conj(negate(u1))),
    "conj(u1) + u2": lambda u1, u2, u3: add(conj(u1), u2),
    "u2 - conj(u1)": lambda u1, u2, u3: sub(u2, conj(u1)),
    "conj(u1)": lambda u1, u2, u3: conj(u1),
    "im(u1)": lambda u1, u2, u3: imaginary_part(u1),
    "re(u1)": lambda u1, u2, u3: real_coeff(u1),
    "inner(u1,u2)": lambda u1, u2, u3: inner(u1, u2),
    "normsq(u1)": lambda u1, u2, u3: norm_sq(u1),
    "acomm(u1,u2)": lambda u1, u2, u3: acomm2(u1, u2),
    "cross(u1,u2)": lambda u1, u2, u3: cross2(u1, u2),
    "acomm3(u1,u2,u3)": lambda u1, u2, u3: acomm3(u1, u2, u3),
    "cross3(u1,u2,u3)": lambda u1, u2, u3: cross3(u1, u2, u3),
    "assoc(u1,u2,u3)": lambda u1, u2, u3: assoc3(u1, u2, u3),
    "inner(u1,u2)*u3": lambda u1, u2, u3: scale(inner(u1, u2), u3),
    "2/3*u1": lambda u1, u2, u3: scale(Fraction(2, 3), u1),
}


def _bits(value):
    """Type and shortest repr of each coefficient: equal only if bit-identical,
    but for the sign of a NaN (repr tells -0.0 from 0.0)."""
    coeffs = value.coeffs if isinstance(value, HNum) else (value,)
    return [(type(c), repr(c)) for c in coeffs]


def _assert_evaluate_matches_library(u1, u2, u3):
    env = {"u1": u1, "u2": u2, "u3": u3}
    for text, library in LIBRARY.items():
        got = evaluate(parse(f"{text} == {text}").lhs, env, u1.dim, u1.backend)
        assert _bits(got) == _bits(library(u1, u2, u3)), text


def test_library_cases_cover_every_function():
    assert {text.split("(")[0] for text in LIBRARY} >= set(FUNCTIONS)


@given(hnums(8), hnums(8), hnums(8))
def test_evaluate_delegates_to_library(u1, u2, u3):
    _assert_evaluate_matches_library(u1, u2, u3)


@pytest.mark.parametrize("dim", DIMS)
def test_evaluate_matches_library_bit_for_bit_on_binary64(dim):
    # Uniformly drawn mantissas round at almost every operation, so a
    # reordered sum or a product computed another way shows here.
    rng = random.Random(dim)

    def value():
        return hnum([rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(dim)],
                    BINARY64)

    for _ in range(50):
        _assert_evaluate_matches_library(value(), value(), value())


@pytest.mark.parametrize("dim", DIMS)
def test_evaluate_matches_library_bit_for_bit_at_special_values(dim):
    # Signed zeros show a wrong sign fold, such as 0 - x for -x, that
    # rounded values never do; infinities and NaNs test the sums' order.
    rng = random.Random(dim)
    specials = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]

    def value():
        return hnum([rng.choice(specials) for _ in range(dim)], BINARY64)

    for _ in range(300):
        _assert_evaluate_matches_library(value(), value(), value())


# --- checking ----------------------------------------------------------------


def test_check_decomposition_identity_passes():
    report = check_identity(DECOMPOSITION_LINE, dim=8, backend=EXACT, trials=1000, seed=42)
    assert report.status == "PASS"
    assert report.failures == 0
    assert report.max_deviation == 0
    assert report.witness is None


def test_check_associativity_fails_at_dim8():
    report = check_identity("(u1*u2)*u3 == u1*(u2*u3)", dim=8, trials=100, seed=42)
    assert report.status == "FAIL"
    assert report.failures > 0
    assert set(report.witness) == {"u1", "u2", "u3"}
    # the witness really is a counterexample
    env = report.witness
    lhs = evaluate(parse("(u1*u2)*u3 == u1").lhs, env, 8, EXACT)
    rhs = evaluate(parse("u1*(u2*u3) == u1").lhs, env, 8, EXACT)
    assert lhs != rhs


def test_check_associativity_passes_at_dim4():
    report = check_identity("(u1*u2)*u3 == u1*(u2*u3)", dim=4, trials=200, seed=42)
    assert report.status == "PASS"


def test_check_is_deterministic():
    kwargs = dict(dim=8, backend=EXACT, trials=50, seed=7, coeff_range=5)
    a = check_identity(DECOMPOSITION_LINE, **kwargs)
    b = check_identity(DECOMPOSITION_LINE, **kwargs)
    assert a == b
    assert json.dumps(report_json_obj(a)) == json.dumps(report_json_obj(b))
    c = check_identity(DECOMPOSITION_LINE, dim=8, backend=EXACT, trials=50, seed=8, coeff_range=5)
    assert c.status == "PASS"


def test_check_refuses_a_bad_tolerance():
    with pytest.raises(ValueError, match="exact"):
        check_identity(DECOMPOSITION_LINE, dim=8, backend=EXACT, trials=10, tolerance=1e-9)
    with pytest.raises(ValueError, match="positive and finite"):
        check_identity(DECOMPOSITION_LINE, dim=8, backend=BINARY64, trials=10, tolerance=0)


def test_binary64_checks_default_to_rel_tol():
    # A tolerance of None is the ring's default, on every kind of check.
    def reports(tolerance):
        suite = check_identities(builtin_lines(8), 8, BINARY64, trials=20, tolerance=tolerance)
        return [report_json_obj(report) for report in (
            check_identity(DECOMPOSITION_LINE, backend=BINARY64, trials=20, tolerance=tolerance),
            *suite,
            check_identity_basis(DECOMPOSITION_LINE, backend=BINARY64, tolerance=tolerance),
        )]

    assert reports(None) == reports(REL_TOL)
    assert core.check_options(BINARY64, None) == REL_TOL
    assert core.check_options(EXACT, None) is None


def test_check_binary64_reports_deviation():
    report = check_identity(
        "normsq(u1*u2) == normsq(u1)*normsq(u2)",
        dim=8, backend=BINARY64, trials=200, seed=42, tolerance=1e-9,
    )
    assert report.status == "PASS"
    assert isinstance(report.max_deviation, float)


def test_check_binary64_overflow_never_passes():
    # At dim 2 the product commutes, but coefficients near 1e200 overflow it.
    report = check_identity("u1*u2 == u2*u1", dim=2, backend=BINARY64, trials=5,
                            coeff_range=10**200, tolerance=1e-9)
    assert report.status == "FAIL"
    assert report.failures == 5
    assert not report.max_deviation < float("inf")


@pytest.mark.parametrize("text", [
    "(u1*u2)*(u1*u2) == (u1*u2)*(u1*u2)",
    "normsq(u1*u2) == normsq(u1)*normsq(u2)",
])
def test_equal_sides_that_may_overflow_never_pass(text):
    # At 1e80 the degree-4 values overflow.  Value numbering makes the first
    # line's two sides one tuple, which `==` finds equal to itself even with
    # a NaN inside, and inf == inf: past the bound `==` decides nothing.
    report = check_identity(text, backend=BINARY64, trials=20, coeff_range=10**80)
    assert (report.status, report.failures) == ("FAIL", 20)
    assert report.max_deviation != report.max_deviation


def _compared(monkeypatch) -> dict:
    # `compare` calls per ring, the exact ring's on its binary64 runs too.
    calls = dict.fromkeys(core.BACKENDS, 0)
    for name, ring in core.BACKENDS.items():
        def counted(*args, name=name, compare=ring.compare):
            calls[name] += 1
            return compare(*args)
        monkeypatch.setattr(ring, "compare", counted)
    return calls


@pytest.mark.parametrize("coeff_range", [9, 10**6, 10**80])
def test_equal_sides_pass_without_compare_on_exact(monkeypatch, coeff_range):
    # A trial whose sides are equal passes on `==`: on the exact ring, at any
    # range, only unequal sides are compared.
    calls = _compared(monkeypatch)
    reports = list(check_identities(builtin_lines(8) + ["u1*u2 == u2*u1"], trials=20,
                                    coeff_range=coeff_range))
    assert [r.status for r in reports] == ["PASS"] * 64 + ["FAIL"]
    assert calls == {EXACT: reports[-1].failures, BINARY64: 0}


def test_equal_sides_pass_without_compare_on_binary64_below_the_bound_only(monkeypatch):
    calls = _compared(monkeypatch)
    counts = []
    for coeff_range in (9, 1000, 10**80):
        calls[BINARY64] = 0
        list(check_identities(builtin_lines(8), backend=BINARY64, trials=20,
                              coeff_range=coeff_range))
        counts.append(calls[BINARY64])
    # At 9 every value is exact, so equal; at 1000 some round, and at 1e80
    # the groups whose values may overflow compare every identity.
    assert counts[0] == 0 < counts[1] < counts[2] < 64 * 20
    calls[BINARY64] = 0
    lines = ["u1*u2 == u2*u1 + 0*u2", "(u1*u2)*(u1*u2) == (u1*u2)*(u1*u2)"]
    assert [r.status for r in check_identities(lines, dim=2, backend=BINARY64, trials=20,
                                               coeff_range=10**80)] == ["PASS", "FAIL"]
    assert calls == {EXACT: 0, BINARY64: 2 * 20}


def test_deviation_keeps_a_nan_in_any_place():
    nan = float("nan")
    a = (0.0, 1.0, nan, 2.0)
    b = (0.0, 0.0, 0.0, 0.0)
    compare = core.BACKENDS[BINARY64].compare

    def _deviation(left, right):  # the largest deviation of one trial
        return compare(left, right, 1e-9, [left, right], 0.0)[0]

    assert _deviation(a, b) != _deviation(a, b)
    assert _deviation((0.0, 5.0), (1.0, 2.0)) == 3.0
    # Only the first trial overflows (inf - inf); later, finite ones keep its NaN.
    samples = [((x,),) for x in (1e300, 1.0, 3.0)]
    (report,) = _run_check([parse("u1*u1 == u1*u1 + u1 - u1")], lambda ring: samples, 1, BINARY64,
                           1e-9, 0, 10**300)
    assert report.failures == 1
    assert report.max_deviation != report.max_deviation


def test_check_rejects_coeff_range_beyond_binary64():
    with pytest.raises(ValueError, match="too large"):
        check_identity("u1 == u1", backend=BINARY64, tolerance=1e-9, coeff_range=10**400)
    assert check_identity("u1 == u1", dim=2, trials=3, coeff_range=10**400).status == "PASS"


def test_check_parse_error_status():
    report = check_identity("inner(u1,", dim=8)
    assert report.status == "PARSE_ERROR"
    assert report.trials == 0
    assert "col 10" in report.message


def test_check_basis_index_beyond_dim_is_static_error():
    report = check_identity("e7*e7 == -i0", dim=4)
    assert report.status == "PARSE_ERROR"
    assert "dimension 4" in report.message
    # A parsed identity passes the same rule.
    assert check_identity(parse("e5*u1 == u1"), dim=4).status == "PARSE_ERROR"


BIG = "1" + "0" * 400  # beyond binary64; written BIG in the cases below


@pytest.mark.parametrize("text,backend,message", [
    # Sort errors win over the constants' rules, wherever they are.
    ("e5 + 1 == u1", EXACT, "col 4: cannot add/subtract vector and scalar values"),
    ("e5 == 1", EXACT, "col 4: left side is vector-valued but right side is scalar-valued"),
    ("BIG*u1 == u1 + BIG", BINARY64, "col 412: cannot add/subtract vector and scalar values"),
    # Of two constants that break them, the leftmost is reported.
    ("e7*u1 == e5*u1", EXACT, "col 1: basis element e7 does not exist at dimension 4"),
    ("u1 + BIG*e5 == u1", BINARY64, "col 6: number too large for the binary64 backend"),
    ("e5*u1 == BIG*u1", BINARY64, "col 1: basis element e5 does not exist at dimension 4"),
])
def test_front_end_reports_the_first_rule_broken(text, backend, message):
    tolerance = 1e-9 if backend == BINARY64 else None
    report = check_identity(text.replace("BIG", BIG), dim=4, backend=backend, tolerance=tolerance)
    assert (report.status, report.message) == ("PARSE_ERROR", message)


def test_a_hand_built_identity_passes_the_same_rules():
    # Both sides are walked when the identity is built, before any constant
    # is decided: the right side's sort error wins over the left side's e5.
    lhs = parse("e5*u1 == u1").lhs
    with pytest.raises(ParseError,
                       match=r"^col 9: scalar factor must be the left operand of '\*'$"):
        Identity("built", lhs, Mul(Var("u1"), Num(2), 9))
    # The rules that depend on the dim are the check's.
    identity = Identity("built", lhs, Var("u1"))
    report = check_identity(identity, dim=4)
    assert (report.status, report.message) == (
        "PARSE_ERROR", "col 1: basis element e5 does not exist at dimension 4")
    assert check_identity(identity, dim=8).status == "FAIL"


def _tower(levels: int) -> str:
    """u1 wrapped `levels` times in normsq(...)*i0: degree 2**levels."""
    text = "u1"
    for _ in range(levels):
        text = f"normsq({text})*i0"
    return text


def test_degree_is_capped():
    assert MAX_DEGREE == 64
    line = f"{_tower(6)} == {_tower(6)}"
    assert check_identity(line, dim=1, trials=2, seed=1).status == "PASS"
    assert evaluate(parse(line).lhs, {"u1": hnum([2])}, 1) == hnum([2**64])
    over = check_identity(f"{_tower(6)}*u1 == u1", dim=1, trials=2)
    assert over.message == f"col {len(_tower(6)) + 1}: polynomial degree above 64"


@pytest.mark.parametrize("text,message", [
    # Of the rules applied once the walk is done, the leftmost broken wins.
    ("normsq(e5 + TOWER6)*i0 == u1", "col 1: polynomial degree above 64"),
    ("e5*u1 + TOWER7 == u1", "col 1: basis element e5 does not exist at dimension 4"),
    # A sort error wins wherever it is.
    ("TOWER7 + 1 == u1", f"col {len(_tower(7)) + 2}: cannot add/subtract vector and scalar values"),
])
def test_degree_rule_keeps_the_order_of_the_rules(text, message):
    text = text.replace("TOWER6", _tower(6)).replace("TOWER7", _tower(7))
    report = check_identity(text, dim=4)
    assert (report.status, report.message) == ("PARSE_ERROR", message)


_HANG = f"{_tower(26)} == {_tower(26)}"  # uncapped, seed 1 draws -5 and computes 5**(2**26)


def test_a_line_that_would_hang_is_refused(tmp_path):
    path = tmp_path / "hang.txt"
    path.write_text(_HANG + "\n")
    # Run apart, under a timeout, so a missing cap fails and never hangs the suite.
    result = subprocess.run([sys.executable, "-m", "triprod", "check", str(path), "--dim", "1",
                             "--trials", "1", "--seed", "1"],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 3
    assert result.stdout == f"line 1: PARSE_ERROR | {_HANG} | col 134: polynomial degree above 64\n"
    code = ("import sys\n"
            "from triprod import EvalError, evaluate, hnum, parse\n"
            "try:\n"
            "    evaluate(parse(sys.argv[1]).lhs, {'u1': hnum([-5])}, 1)\n"
            "except EvalError as err:\n"
            "    print(err)\n")
    result = subprocess.run([sys.executable, "-c", code, _HANG],
                            capture_output=True, text=True, timeout=60)
    assert result.stdout == "polynomial degree above 64\n", result.stderr


def test_check_scalar_identity():
    report = check_identity("inner(cross3(u1,u2,u3),u4) == -inner(cross3(u4,u2,u3),u1)",
                            dim=8, trials=300, seed=42)
    assert report.status == "PASS"


def test_check_identity_rejects_bad_trials():
    with pytest.raises(ValueError):
        check_identity(DECOMPOSITION_LINE, trials=0)


@pytest.mark.parametrize("backend,tolerance", [(EXACT, None), (BINARY64, 1e-9)])
@pytest.mark.parametrize("value", [2.5, float("inf"), float("nan"), 9.0, "9"])
def test_check_identity_rejects_non_int_counts(value, backend, tolerance):
    with pytest.raises(ValueError, match="coeff_range must be an int"):
        check_identity("u1 == u1", backend=backend, tolerance=tolerance, coeff_range=value)
    with pytest.raises(ValueError, match="trials must be an int"):
        check_identity("u1 == u1", backend=backend, tolerance=tolerance, trials=value)


def test_literal_beyond_binary64_is_a_parse_error():
    text = "1" + "0" * 400 + "*u1 == u1"
    report = check_identity(text, dim=2, backend=BINARY64, trials=3, tolerance=1e-9)
    assert report.status == "PARSE_ERROR"
    assert report.message == "col 1: number too large for the binary64 backend"
    assert check_identity(text, dim=2, trials=3).status == "FAIL"


def test_shared_products_are_computed_once(monkeypatch):
    # (u1*conj(u2))*u3 and its three parts share products: 8 distinct ones
    # among the 14 the parts' definitions spell out.
    calls = []
    kernel = core._KERNELS[8]

    def counted(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setitem(core._KERNELS, 8, counted)
    check_identity(DECOMPOSITION_LINE, dim=8, trials=1)
    assert len(calls) == 8
    calls.clear()
    for line in builtin_lines(8):
        check_identity(line, dim=8, trials=1)
    assert len(calls) == 276


def test_suite_lines_checked_together_share_products(monkeypatch):
    # The dim-8 suite's lines fall into four groups by free-variable count,
    # each one generated function: 74 distinct products per trial, not 276.
    calls = []
    kernel = core._KERNELS[8]

    def counted(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setitem(core._KERNELS, 8, counted)
    reports = list(check_identities(builtin_lines(8), dim=8, trials=1))
    assert len(calls) == 74
    assert [r.status for r in reports] == ["PASS"] * len(builtin_lines(8))


@pytest.mark.parametrize("backend", [EXACT, BINARY64])
def test_suite_functions_call_one_kernel_per_vector_operation(monkeypatch, backend):
    # Straight-line functions: each call in the source runs once per trial.
    # Every vector product, scaling, sum and difference is one kernel call,
    # and no statement builds a vector from per-coefficient sums.
    sources = []
    source = dsl._source

    def recorded(*args):
        src, ns = source(*args)
        sources.append(src)
        return src, ns

    monkeypatch.setattr(dsl, "_source", recorded)
    assert all(r.status == "PASS" for r in check_identities(builtin_lines(8), 8, backend, trials=1))
    assert len(sources) == 4
    calls = {kernel: sum(src.count(f"{kernel}(") for src in sources)
             for kernel in ("_mul", "_scale", "_add", "_sub")}
    assert calls == {"_mul": 74, "_scale": 49, "_add": 16, "_sub": 34}
    for line in "".join(sources).splitlines():
        rhs = line.partition(" = ")[2]
        if rhs.startswith("("):
            assert " + " not in rhs and " - " not in rhs, line
    assert sum(map(len, sources)) < 14_000


def test_each_call_is_expanded_once_per_function(monkeypatch):
    # A call on the same argument values is value-numbered as a statement is:
    # its definition's text is expanded once per generated function.
    expansions = []
    body = dsl._body

    def counted(text):
        expansions.append(text)
        return body(text)

    monkeypatch.setattr(dsl, "_body", counted)
    list(check_identities(builtin_lines(8), trials=1))
    assert len(expansions) == 37


def test_function_definitions_are_parsed_once(monkeypatch):
    # Each line is tokenized once per check; the definitions of FUNCTIONS,
    # once per process.
    list(check_identities(builtin_lines(8), trials=1))
    texts = []
    tokenize = dsl._tokenize

    def counted(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(dsl, "_tokenize", counted)
    list(check_identities(builtin_lines(8), trials=1))
    assert texts == builtin_lines(8) and len(texts) == 64


@pytest.mark.parametrize("text", [
    "conj(conj(u1)) == u1",
    "-(-u1) == u1",
    "-conj(-u1) == conj(u1)",
    "-re(-u1) == re(u1)",
])
def test_generated_source_negates_a_negated_part_once(text):
    # -(-x) is x bit for bit, so it is written x, never --x.
    identity = parse(text)
    src, _ = dsl._source([identity.lhs, identity.rhs], [identity.free_vars] * 2, 8, EXACT)
    assert "--" not in src
    assert check_identity(text, trials=20).status == "PASS"


@pytest.mark.parametrize("dim", DIMS)
def test_no_statement_rebuilds_a_vector_from_its_own_parts(monkeypatch, dim):
    # A vector of exactly another's parts, in order, as conj(conj(u2)), is
    # that vector: its name is reused, no tuple of its parts is written.
    sources = []
    source = dsl._source

    def recorded(*args):
        src, ns = source(*args)
        sources.append(src)
        return src, ns

    monkeypatch.setattr(dsl, "_source", recorded)
    list(check_identities(builtin_lines(dim) + ["conj(conj(u1)) == u1", "-(-e1) == e1"], dim,
                          trials=1))
    rebuilt = []
    for line in "".join(sources).splitlines():
        _, eq, rhs = line.partition(" = (")
        parts = rhs.rstrip(",)").split(", ")
        owner = parts[0][:-2]
        if eq and parts == [f"{owner}_{i}" for i in range(dim)] and owner[0] != "-":
            rebuilt.append(line)
    assert rebuilt == []


# Lines that fail on every dimension, some by rational deviations, some with
# a constant that no binary64 value equals.
FALSE_LINES = [
    "1/2*u1 == u1",
    "1/2*u1 + 1/2*u1 == 2*u1",
    "1/3*u1 == u1",
    "1/2*u1 + 1/4*u2 == 3/8*(u1 + u2)",
    "3/1024*re(u1) == re(u1)",
    "cross(u1, u2) == u1*u2 + i0",
    "normsq(u1*u2) == -normsq(u1)*normsq(u2)",
    "inner(u1, u2) == 3/2",
    "(u1*conj(u2))*u3 == acomm3(u1,u2,u3) + cross3(u1,u2,u3) - assoc(u1,u2,u3) + 1/2*u3",
    "u1*u1 == 0*i0",
]


def _rendered(reports):
    # Equal reports, rendered alike.  Not repr: a deviation that binary64
    # finds integral is an int where Fractions may hold it as Fraction(n, 1).
    return [(dsl.report_text(r), report_json_obj(r), r) for r in reports]


def _twins(monkeypatch) -> list:
    # What each group's `binary64_twin` call returns: a ring where the group
    # runs in binary64, None where it runs on ints and Fractions.
    used = []
    twin = dsl.binary64_twin
    monkeypatch.setattr(dsl, "binary64_twin", lambda *args: used.append(twin(*args)) or used[-1])
    return used


@pytest.mark.parametrize("coeff_range", [1, 9, 1000, 10**6])
def test_checks_on_binary64_report_what_exact_arithmetic_does(monkeypatch, coeff_range):
    # The same reports, rendered byte for byte, with the binary64 runs of
    # exact checks and without them (a bound that nothing passes).
    used = _twins(monkeypatch)

    def reports():
        out = []
        for dim in DIMS:
            kw = dict(dim=dim, trials=30, coeff_range=coeff_range)
            out += check_identities(builtin_lines(dim), **kw)
            out += check_identities(FALSE_LINES, **kw)
        return _rendered(out)

    fast = reports()
    assert any(used) and not all(used)
    used.clear()
    monkeypatch.setattr(core, "EXACT_BELOW", 0)
    assert reports() == fast
    assert used and not any(used)


def test_basis_checks_on_binary64_report_what_exact_arithmetic_does(monkeypatch):
    def reports():
        return _rendered(check_identity_basis(line, dim=dim)
                         for dim in DIMS for line in FALSE_LINES + builtin_lines(dim)[::4])

    fast = reports()
    monkeypatch.setattr(core, "EXACT_BELOW", 0)
    assert reports() == fast


@pytest.mark.parametrize("text,coeff_range,status,deviation", [
    # Binary64 rounds 64*R**4 + 1 to 64*R**4 at R = 10**5, and would pass it.
    ("normsq(u1)*normsq(u1) + 1 == normsq(u1)*normsq(u1)", 10**5, "FAIL", 1),
    ("(normsq(u1)*normsq(u1) + 1) - normsq(u1)*normsq(u1) == 1", 10**5, "PASS", 0),
    # Both sides are bounded by 0, but binary64 overflows inside them, and
    # 0*inf is NaN: every value's bound counts, not only the sides'.
    ("0*(" + "*".join(["normsq(u1)"] * 32) + ") == 0", 10**5, "PASS", 0),
    # 1/10 is no binary64 value, nor any quotient by a number not a power of 2.
    ("1/10*u1 + 2/10*u1 == 3/10*u1", 9, "PASS", 0),
], ids=["rounded-sum", "rounded-difference", "overflow-inside", "non-dyadic"])
def test_exact_checks_run_in_binary64_only_where_it_is_exact(text, coeff_range, status, deviation):
    report = check_identity(text, coeff_range=coeff_range)
    assert (report.status, report.max_deviation) == (status, deviation)


def test_suite_groups_on_binary64(monkeypatch):
    # How many of the dim-8 suite's four groups run in binary64, by range.
    used = _twins(monkeypatch)
    counts = []
    for coeff_range in (9, 1000, 10**6, 2**52):
        used.clear()
        list(check_identities(builtin_lines(8), trials=1, coeff_range=coeff_range))
        counts.append(sum(map(bool, used)))
    assert counts == [4, 3, 1, 0]


def _reprs(reports):
    # repr tells 0 from 0.0 and shows a NaN, which == on reports does not.
    return [repr(r) for r in reports]


MIXED = [
    "u1 == u1 +",  # parse error
    "u1*u2 == u2*u1",  # fails at dims 4 and 8
    "i0 == i0",  # no variables
    "e7*e7 == -i0",  # parse error at dim 4
    "(u1*u2)*u3 == u1*(u2*u3)",
    "inner(cross3(u1,u2,u3),u4) == -inner(cross3(u4,u2,u3),u1)",
    "u1*(u1*u2) == (u1*u1)*u2",
    "normsq(u1*u2) == normsq(u1)*normsq(u2)",
    "(u1*u2)*(u3*u4) == ((u1*u2)*u3)*u4",
    "1/2*(u2 + u1) == acomm(u1, i0) + 0*u2 + 1/2*u2",
    "u1 == u2",
    "2 == 1 + 1",
    "u1 == conj(",  # parse error
]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("backend,tolerance", [(EXACT, None), (BINARY64, 1e-9)])
def test_checking_together_reports_as_one_by_one(dim, backend, tolerance):
    kw = dict(dim=dim, backend=backend, trials=20, seed=7, coeff_range=9, tolerance=tolerance)
    for lines in (builtin_lines(dim), MIXED):
        together = list(check_identities(lines, **kw))
        assert _reprs(together) == _reprs([check_identity(line, **kw) for line in lines])
    statuses = {r.status for r in together}
    assert statuses == {"PASS", "FAIL", "PARSE_ERROR"}


def test_checking_together_keeps_each_lines_nan():
    # Coefficients near 1e200 overflow products to inf, and inf - inf is NaN
    # in one line's deviation, while lines on the same samples stay finite.
    kw = dict(dim=8, backend=BINARY64, trials=10, coeff_range=10**200, tolerance=1e-9)
    lines = ["u1*u2 == u2*u1", "u1 + u2 == u2 + u1", "u1*u2 == u1*u2", "u1 - u2 == u1 - u2"]
    together = list(check_identities(lines, **kw))
    assert _reprs(together) == _reprs([check_identity(line, **kw) for line in lines])
    devs = [r.max_deviation for r in together]
    assert devs[0] != devs[0] and devs[2] != devs[2]
    assert devs[1] == devs[3] == 0.0
    # Only the first trial overflows; the first line keeps its NaN, and the
    # second, on the same samples, never sees it.
    samples = [((x,),) for x in (1e300, 1.0, 3.0)]
    first, second = _run_check([parse("u1*u1 == u1*u1 + u1 - u1"), parse("u1 == u1 + u1 - u1")],
                               lambda ring: samples, 1, BINARY64, 1e-9, 0, 10**300)
    assert first.failures == 1 and first.max_deviation != first.max_deviation
    assert (second.failures, second.max_deviation) == (0, 0.0)


def test_each_side_is_walked_once(monkeypatch):
    # Building the Identity walks both sides; the check reads what it found.
    walks = []
    sort_of = dsl._sort_of

    def counted(expr, leaves, depth=1):
        if depth == 1:
            walks.append(expr)
        return sort_of(expr, leaves, depth)

    monkeypatch.setattr(dsl, "_sort_of", counted)
    lines = builtin_lines(8)
    assert all(r.status == "PASS" for r in check_identities(lines, trials=1))
    assert len(walks) == 2 * len(lines) == 128
    walks.clear()
    identity = parse(lines[0])
    check_identity(identity, trials=1)
    check_identity_basis(identity, dim=2)
    assert len(walks) == 2


def test_groups_are_capped_and_checked_when_due(monkeypatch):
    made = []
    generate = dsl._generate

    def counted(exprs, names, dim, backend, pairs=False):
        made.append(len(exprs) // 2)
        return generate(exprs, names, dim, backend, pairs)

    monkeypatch.setattr(dsl, "_generate", counted)
    lines = [f"{k + 1}*u1 == u1 + {k}*u1" for k in range(GROUP_SIZE + 1)]
    assert all(r.status == "PASS" for r in check_identities(lines, dim=2, trials=2))
    assert made == [GROUP_SIZE, 1]
    # A group's function is made when its first line is due, not before.
    made.clear()
    reports = check_identities(["u1 == u1", "u1*u2 == u1*u2", "u2 == u2"], dim=2, trials=2)
    next(reports)
    assert made == [2]
    assert [r.status for r in reports] == ["PASS", "PASS"]
    assert made == [2, 1]


def test_every_check_refuses_options_in_one_order():
    # Each check names the same first bad option: the dimension before the
    # backend, the backend before a tolerance it does not take.
    for kw, match in [
        (dict(dim=3, backend="nope"), "dimension must be one of"),
        (dict(dim=3, backend=BINARY64), "dimension must be one of"),
        (dict(backend="nope", tolerance=1e-9), "unknown backend"),
    ]:
        for check in (check_identity, check_identity_basis):
            with pytest.raises(ValueError, match=match):
                check("u1 == u1", **kw)
        with pytest.raises(ValueError, match=match):
            check_identities(["u1 == u1"], **kw)
    with pytest.raises(ValueError, match="trials must be an int"):
        check_identity("u1 == u1", trials=0, backend="nope")


def test_check_identities_refuses_bad_counts_at_once():
    with pytest.raises(ValueError, match="trials must be an int"):
        check_identities(["u1 == u1"], trials=0)
    with pytest.raises(ValueError, match="coeff_range must be an int"):
        check_identities(["u1 == u1"], coeff_range=-1)
    # A range of 0 draws only zeros, on which the false `u1 == 2*u1` holds.
    with pytest.raises(ValueError, match=r"^coeff_range must be an int >= 1, got 0$"):
        check_identity("u1 == 2*u1", coeff_range=0)
    with pytest.raises(ValueError, match=r"^coeff_range must be an int >= 1, got 0$"):
        core.check_options(EXACT, None, coeff_range=0)
    assert check_identity_basis("u1 == 2*u1").status == "FAIL"  # draws no samples, needs no range
    # random.Random seeds with |seed|: -1 would draw the samples of 1.
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        core.check_options(EXACT, None, seed=-1)
    assert check_identity("u1 == u1", seed=0).seed == 0
    # The basis check draws nothing: it takes no seed, and reports 0.
    with pytest.raises(TypeError):
        check_identity_basis("u1 == u1", seed=7)
    assert check_identity_basis("u1 == u1").seed == 0
    # Options are refused when the check is called, whatever the identity
    # text: a generator, or a PARSE_ERROR report, would hide them.
    for text in ("u1 == u1", "u1 =="):
        for check, kw, match in [
            (check_identities, dict(backend=BINARY64, tolerance=1e-9, coeff_range=10**400),
             "too large"),
            (check_identities, dict(backend="nope"), "unknown backend"),
            (check_identities, dict(coeff_range=0), "coeff_range must be an int >= 1"),
            (check_identity, dict(coeff_range=0), "coeff_range must be an int >= 1"),
            (check_identities, dict(seed=-1), r"^seed must be >= 0, got -1$"),
            (check_identity, dict(seed=-1), r"^seed must be >= 0, got -1$"),
            (check_identities, dict(tolerance=1e-9), "tolerance applies only"),
            (check_identity, dict(tolerance=1e-9), "tolerance applies only"),
            (check_identity_basis, dict(tolerance=1e-9), "tolerance applies only"),
            (check_identity_basis, dict(backend="nope"), "unknown backend"),
            (check_identity_basis, dict(backend=BINARY64, tolerance=0.0), "positive and finite"),
            (check_identities, dict(dim=3), "dimension must be one of"),
            (check_identity, dict(dim=3), "dimension must be one of"),
            (check_identity, dict(dim=8.0), "dimension must be one of"),
            (check_identity_basis, dict(dim=3), "dimension must be one of"),
        ]:
            with pytest.raises(ValueError, match=match):
                check(text if check is not check_identities else [text], **kw)


@pytest.mark.parametrize("text,status", [
    ("t0*v0 == t0*v0", "PASS"),
    ("(_mul*k0)*print == _mul*(k0*print)", "FAIL"),
    ("__import__*f == f*__import__", "FAIL"),
    ("inner(_scale, __builtins__)*v1 == inner(__builtins__, _scale)*v1", "PASS"),
])
def test_identity_names_never_reach_generated_source(text, status):
    report = check_identity(text, dim=8, trials=20)
    assert report.status == status
    if status == "FAIL":
        assert set(report.witness) == set(parse(text).free_vars)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet=" u12e0i7()*+-,/=conjmrsacx", max_size=40)),
       st.sampled_from(DIMS), st.sampled_from([(EXACT, None), (BINARY64, 1e-9)]))
def test_any_text_yields_a_report(text, dim, options):
    backend, tolerance = options
    report = check_identity(text, dim=dim, backend=backend, trials=2, tolerance=tolerance)
    assert isinstance(report, CheckReport)
    assert report.status in ("PASS", "FAIL", "PARSE_ERROR")


_NAMES = ("u", "v", "w", "", "u 1")  # all but "w" bound in the fuzz's evaluate
_COLS = st.integers(min_value=0, max_value=99)
_LEAVES = st.one_of(
    st.tuples(st.just(Var), st.sampled_from(_NAMES), _COLS),
    st.tuples(st.just(Num), st.one_of(st.fractions(max_denominator=9),
                                      st.just(Fraction(10**400))), _COLS),
    st.tuples(st.just(Unit), _COLS),
    st.tuples(st.just(Basis), st.integers(min_value=-2, max_value=9), _COLS),
)
_RECIPES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.just(Neg), inner, _COLS),
    st.tuples(st.sampled_from([Add, Sub, Mul]), inner, inner, _COLS),
    st.tuples(st.just(Call), st.sampled_from([*FUNCTIONS, "nope", "_mul"]),
              st.lists(inner, min_size=1, max_size=3).map(tuple), _COLS),
), max_leaves=12)


def _build(recipe):
    """The node a recipe names, built from the node classes as a caller would."""
    cls, *fields = recipe
    if cls is Call:
        func, args, col = fields
        return Call(func, tuple(map(_build, args)), col)
    return cls(*(_build(f) if isinstance(f, tuple) else f for f in fields))


@settings(max_examples=300, deadline=None)
@given(_RECIPES, _RECIPES, st.sampled_from(DIMS),
       st.sampled_from([(EXACT, None), (BINARY64, 1e-9)]))
def test_any_hand_built_tree_is_refused_or_checked(lhs, rhs, dim, options):
    # A hand-built tree is refused when built, or checked; evaluating it gives
    # a value or EvalError.  Never TypeError, KeyError or RecursionError.
    backend, tolerance = options
    try:
        sides = _build(lhs), _build(rhs)
    except ParseError:  # a call of an unknown function or of the wrong arity
        return
    env = {name: basis(dim, dim - 1, backend) for name in _NAMES if name != "w"}
    for side in sides:
        try:
            evaluate(side, env, dim, backend)
        except EvalError:
            pass
    try:
        identity = Identity("built", *sides)
    except ParseError:
        return
    report = check_identity(identity, dim=dim, backend=backend, trials=2, tolerance=tolerance)
    assert report.status in ("PASS", "FAIL", "PARSE_ERROR")


def test_exhaustive_basis_mode():
    report = check_identity_basis(DECOMPOSITION_LINE, dim=8)
    assert report.status == "PASS"
    assert report.trials == 512
    two_var = check_identity_basis("u1*u2 == acomm(u1,u2) + cross(u1,u2)", dim=4)
    assert two_var.trials == 16
    assert two_var.status == "PASS"


def test_exhaustive_basis_mode_finds_failures():
    report = check_identity_basis("(u1*u2)*u3 == u1*(u2*u3)", dim=8)
    assert report.status == "FAIL"
    assert report.witness is not None


# --- report rendering --------------------------------------------------------


def test_report_text_wording():
    from triprod.dsl import report_text

    passing = check_identity("i0*u1 == u1", dim=8, trials=5, seed=1)
    assert "no counterexample found" in report_text(passing)
    failing = check_identity("u1 == conj(u1)", dim=8, trials=20, seed=1)
    text = report_text(failing)
    assert text.startswith("FAIL")
    assert "witness:" in text


def test_report_json_schema():
    report = check_identity("i0*u1 == u1", dim=8, trials=5, seed=1)
    obj = report_json_obj(report)
    assert list(obj) == [
        "identity", "status", "trials", "failures", "max_deviation",
        "witness", "dim", "backend", "seed",
    ]
    assert obj["witness"] is None
    assert obj["max_deviation"] == "0"
    failing = check_identity("u1 == conj(u1)", dim=8, trials=20, seed=1)
    fobj = report_json_obj(failing)
    assert isinstance(fobj["witness"], dict)
    for coeffs in fobj["witness"].values():
        assert len(coeffs) == 8
        assert all(isinstance(c, str) for c in coeffs)


def test_exact_max_deviation_serializes_as_rational():
    report = check_identity("u1 == 1/3*u1", dim=8, trials=3, seed=1, coeff_range=1)
    obj = report_json_obj(report)
    assert report.status == "FAIL"
    assert "/" in obj["max_deviation"]


def test_json_witness_round_trips_to_a_counterexample():
    from triprod import hnum, mul

    text = "(u1*u2)*u3 == u1*(u2*u3)"
    report = check_identity(text, dim=8, trials=50, seed=42)
    obj = report_json_obj(check_identity(text, dim=8, trials=50, seed=42))
    assert obj == report_json_obj(report)
    env = {name: hnum(coeffs) for name, coeffs in obj["witness"].items()}
    left = mul(mul(env["u1"], env["u2"]), env["u3"])
    right = mul(env["u1"], mul(env["u2"], env["u3"]))
    assert left != right
