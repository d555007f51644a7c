import ast
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given

from conftest import as_binary64, hnums, rand_hnum
import triprod
from triprod import (
    BINARY64,
    DIMS,
    EXACT,
    DigitsError,
    add,
    allclose,
    basis,
    coerce_scalar,
    conj,
    embed,
    hnum,
    imaginary_part,
    inner,
    mul,
    negate,
    norm_sq,
    real_coeff,
    scalar_close,
    scale,
    sub,
    unit,
    zero,
)
from triprod.core import ABS_TOL, BACKENDS


def test_unit_coefficients():
    assert unit(8).coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    assert unit(1).coeffs == (1,)


@pytest.mark.parametrize("dim", [0, 3, 5, 16, -1])
def test_unit_invalid_dimension(dim):
    with pytest.raises(ValueError):
        unit(dim)


def test_basis():
    assert basis(8, 0) == unit(8)
    assert basis(8, 1).coeffs == (0, 1, 0, 0, 0, 0, 0, 0)
    assert basis(8, 3).coeffs == (0, 0, 0, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        basis(4, 7)
    with pytest.raises(ValueError):
        basis(8, -1)
    # An index that is not an int, as `dsl.Basis` refuses it: a bool is not one.
    for k in (1.0, "1", True):
        with pytest.raises(ValueError, match=r"^basis index must be an int, got "):
            basis(8, k)


def test_vector_space_ops():
    e1 = basis(8, 1)
    assert add(e1, e1) == scale(2, e1)
    assert sub(e1, e1) == zero(8)
    assert scale(0, rand_hnum(random.Random(0), 8)) == zero(8)
    assert negate(e1) == scale(-1, e1)
    assert scale(Fraction(1, 2), scale(2, e1)) == e1


@pytest.mark.parametrize("backend", [EXACT, BINARY64])
@pytest.mark.parametrize("dim", DIMS)
def test_operators_are_the_functions(dim, backend):
    rng = random.Random(dim)
    u, v = rand_hnum(rng, dim, backend), rand_hnum(rng, dim, backend)
    s = coerce_scalar(Fraction(-3, 2) if backend == EXACT else -1.5, backend)
    assert u + v == add(u, v)
    assert u - v == sub(u, v)
    assert -u == negate(u)
    assert u * v == mul(u, v)
    assert u * s == scale(s, u)
    assert s * u == scale(s, u)


@pytest.mark.parametrize("make", [
    lambda: zero(8.0),
    lambda: zero("8"),
    lambda: embed(hnum([1, 2, 3, 4]), 8.0),
    lambda: embed(hnum([1]), 2.0),
])
def test_zero_and_embed_apply_the_dimension_rule(make):
    with pytest.raises(ValueError, match=r"^dimension must be one of \(1, 2, 4, 8\), got "):
        make()


def test_dimension_and_backend_mismatch():
    a4 = unit(4)
    a8 = unit(8)
    with pytest.raises(ValueError):
        add(a4, a8)
    with pytest.raises(ValueError):
        mul(a4, a8)
    with pytest.raises(ValueError):
        inner(a4, a8)
    with pytest.raises(ValueError):
        add(unit(8, EXACT), unit(8, BINARY64))


def test_exact_backend_rejects_float():
    with pytest.raises(TypeError):
        hnum([0.5, 0, 0, 0])


def test_hnum_accepts_rational_strings():
    u = hnum(["1/2", "-3", "0", "0"])
    assert u.coeffs == (Fraction(1, 2), -3, 0, 0)


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="this Python prints integers of any length")


# Fraction("1e10000000") alone takes seconds to build its power of ten; the
# rings must answer such a string at once, so each case runs in a child
# process with a timeout.
@needs_digit_limit
@pytest.mark.parametrize("backend,text,expected", [
    (EXACT, "1e10000000", "DigitsError"),
    (EXACT, " -2.5E-99999999", "DigitsError"),
    (EXACT, "-0.000e-10000000", "0"),
    (BINARY64, "1e10000000", "OverflowError"),
    (BINARY64, "-10.5e+99999999", "OverflowError"),
    (BINARY64, "1e-10000000", "0.0"),
    (BINARY64, "-1e-10000000", "-0.0"),
    (BINARY64, "-0.0e10000000", "0.0"),
])
def test_huge_exponents_are_answered_at_once(backend, text, expected):
    code = (
        "import triprod\n"
        "try:\n"
        f"    print(repr(triprod.hnum([{text!r}, 0], {backend!r}).coeffs[0]))\n"
        "except (ValueError, OverflowError) as err:\n"
        "    print(type(err).__name__)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=30)
    assert result.stdout == expected + "\n", result.stderr


# 1e4300 and 1e-4300 are within `_rational`'s exponent slack, but 10**4300
# has 4301 digits: the exact ring refuses them as the CLI does.
@needs_digit_limit
@pytest.mark.parametrize("text", ["1e5000", "-3e-5000", "7.5e-4400", "-0.5e4400", "1e4300",
                                  "1e-4300"])
def test_past_the_digit_limit_binary64_rounds_as_fraction(text):
    try:
        expected = float(Fraction(text))
    except OverflowError:
        with pytest.raises(OverflowError):
            coerce_scalar(text, BINARY64)
    else:
        assert repr(coerce_scalar(text, BINARY64)) == repr(expected)
    # The exact value has more digits than str() prints.
    with pytest.raises(DigitsError):
        coerce_scalar(text, EXACT)
    with pytest.raises(ValueError):
        str(Fraction(text))


# A run of digits longer than int() converts: Fraction(text) would raise
# Python's own conversion error, which names no digit limit.
LONG = "1" * 5000


@needs_digit_limit
@pytest.mark.parametrize("text", [LONG, "-" + LONG, " +" + LONG + " "])
def test_long_digit_strings_are_past_the_digit_limit(text):
    with pytest.raises(DigitsError):
        hnum([text])
    with pytest.raises(OverflowError):  # as "1e4999" does
        hnum([text], BINARY64)


@needs_digit_limit
@pytest.mark.parametrize("backend", [EXACT, BINARY64])
def test_leading_zeros_do_not_count_as_digits(backend):
    assert hnum(["0" * 5000 + "7", "-" + "0" * 5000], backend).coeffs == (7, 0)


@needs_digit_limit
@pytest.mark.parametrize("backend", [EXACT, BINARY64])
@pytest.mark.parametrize("text", [LONG + "/3", "3/" + LONG, "0." + LONG, "1e" + LONG, LONG + "x"])
def test_other_long_digit_runs_are_digits_errors(backend, text):
    with pytest.raises(DigitsError) as err:
        hnum([text], backend)
    assert len(str(err.value)) < 100


def test_embed_zero_pads():
    u = hnum([1, 2, 3, 4])
    assert embed(u, 8).coeffs == (1, 2, 3, 4, 0, 0, 0, 0)
    assert embed(u, 4) is u
    with pytest.raises(ValueError):
        embed(unit(8), 4)


@given(hnums(4), hnums(4))
def test_embedding_is_a_subalgebra(a, b):
    # The first four octonion coordinates multiply exactly like quaternions.
    assert mul(embed(a, 8), embed(b, 8)) == embed(mul(a, b), 8)


# Frozen basis products, derived by expanding the doubling recursion by hand;
# test_oracle cross-checks the same values against the structure table.
@pytest.mark.parametrize("i,j,sign,k", [
    (1, 2, 1, 3), (1, 1, -1, 0), (1, 4, 1, 5), (2, 4, 1, 6), (3, 4, 1, 7),
    (2, 5, 1, 7), (1, 6, -1, 7), (4, 5, 1, 1), (5, 4, -1, 1), (1, 3, -1, 2),
])
def test_frozen_basis_products(i, j, sign, k):
    expected = scale(sign, basis(8, k))
    assert mul(basis(8, i), basis(8, j)) == expected


def test_mul_unit_law_examples():
    rng = random.Random(3)
    for dim in DIMS:
        u = rand_hnum(rng, dim)
        assert mul(unit(dim), u) == u
        assert mul(u, unit(dim)) == u


def test_quaternion_table_is_hamilton():
    i, j, k = basis(4, 1), basis(4, 2), basis(4, 3)
    assert mul(i, j) == k
    assert mul(j, k) == i
    assert mul(k, i) == j
    assert mul(i, i) == mul(j, j) == mul(k, k) == negate(unit(4))


def test_conj():
    assert conj(unit(8)) == unit(8)
    assert conj(basis(8, 1)) == negate(basis(8, 1))


@given(hnums(8))
def test_conj_is_an_involution(u):
    assert conj(conj(u)) == u


@given(hnums(8))
def test_conj_formula(u):
    # conj(u) = 2*(u,i0)*i0 - u
    assert conj(u) == sub(scale(2 * real_coeff(u), unit(8)), u)


def test_inner_orthonormal_basis():
    assert inner(basis(8, 1), basis(8, 1)) == 1
    assert inner(basis(8, 1), basis(8, 2)) == 0


def test_inner_half_sum_identity():
    # (a,b)*i0 == (a*conj(b) + b*conj(a)) / 2 on 100 random integer octonions
    rng = random.Random(11)
    half = Fraction(1, 2)
    for _ in range(100):
        a, b = rand_hnum(rng, 8), rand_hnum(rng, 8)
        lhs = scale(inner(a, b), unit(8))
        rhs = scale(half, add(mul(a, conj(b)), mul(b, conj(a))))
        assert lhs == rhs


def test_norm_sq_examples():
    assert norm_sq(unit(8)) == 1
    assert norm_sq(scale(3, basis(8, 5))) == 9
    assert norm_sq(zero(4)) == 0


@given(hnums(8), hnums(8))
def test_norm_multiplicativity(a, b):
    assert norm_sq(mul(a, b)) == norm_sq(a) * norm_sq(b)


@given(hnums(8))
def test_norm_via_conjugate(u):
    # u*conj(u) is (u,u)*i0: unit coefficient carries the norm, the rest vanish
    assert mul(u, conj(u)) == scale(norm_sq(u), unit(8))
    assert mul(conj(u), u) == scale(norm_sq(u), unit(8))


def test_imaginary_part():
    assert imaginary_part(unit(8)) == zero(8)
    assert imaginary_part(basis(8, 7)) == basis(8, 7)
    u = add(scale(2, unit(8)), scale(3, basis(8, 2)))
    assert imaginary_part(u) == scale(3, basis(8, 2))


def test_real_coeff():
    assert real_coeff(unit(8)) == 1
    assert real_coeff(basis(8, 4)) == 0


@given(hnums(8), hnums(8), hnums(8))
def test_real_part_associativity(a, b, c):
    assert real_coeff(mul(mul(a, b), c)) == real_coeff(mul(a, mul(b, c)))


@given(hnums(8), hnums(8))
def test_conjugation_reverses_products(a, b):
    assert conj(mul(a, b)) == mul(conj(b), conj(a))


@given(hnums(8), hnums(8))
def test_transfer_rule(a, b):
    i0 = unit(8)
    assert inner(mul(a, b), i0) == inner(a, conj(b))
    assert inner(mul(a, b), i0) == inner(mul(b, a), i0)


@given(hnums(8), hnums(8))
def test_sandwich_identity(u1, u2):
    # (u1*conj(u2))*u1 == u1*(conj(u2)*u1) == 2*(u1,u2)*u1 - (u1,u1)*u2
    closed = sub(scale(2 * inner(u1, u2), u1), scale(norm_sq(u1), u2))
    assert mul(mul(u1, conj(u2)), u1) == closed
    assert mul(u1, mul(conj(u2), u1)) == closed


@given(hnums(8), hnums(8))
def test_alternativity_dim8(a, b):
    assert mul(mul(a, a), b) == mul(a, mul(a, b))
    assert mul(mul(a, b), b) == mul(a, mul(b, b))


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_associativity_low_dims(dim):
    rng = random.Random(5)
    for _ in range(200):
        a, b, c = (rand_hnum(rng, dim) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_octonions_are_not_associative():
    e1, e2, e4 = basis(8, 1), basis(8, 2), basis(8, 4)
    assert mul(mul(e1, e2), e4) != mul(e1, mul(e2, e4))


def test_binary64_identities_within_tolerance():
    rng = random.Random(17)
    for _ in range(100):
        a = as_binary64(rand_hnum(rng, 8))
        b = as_binary64(rand_hnum(rng, 8))
        assert allclose(conj(mul(a, b)), mul(conj(b), conj(a)))
        assert allclose(mul(mul(a, a), b), mul(a, mul(a, b)))
        lhs = mul(mul(a, conj(b)), a)
        rhs = sub(scale(2 * inner(a, b), a), scale(norm_sq(a), b))
        assert allclose(lhs, rhs)


def test_allclose_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        allclose(unit(4, BINARY64), unit(8, BINARY64))


def test_binary64_sums_run_left_to_right():
    # A compensated sum, as the built-in sum() is from Python 3.12 on, would
    # give 1.0 and 1e16 + 4: the results must not depend on the version.
    a = hnum([1e16, 1.0, -1e16, 0.0], BINARY64)
    b = hnum([1.0, 1.0, 1.0, 0.0], BINARY64)
    assert inner(a, b) == 0.0
    assert norm_sq(hnum([1e8, 1.0, 1.0, 1.0], BINARY64)) == 1e16


def test_binary64_differs_only_beyond_the_bound():
    # The bound is max(ABS_TOL, tol * largest input magnitude); a deviation
    # within ABS_TOL passes whatever the inputs, one that is not finite fails.
    # scalar_close and allclose apply the same rule: close where it passes.
    compare = BACKENDS[BINARY64].compare

    def differs(dev, tolerance, inputs):  # a trial whose sides are `dev` apart
        failed = compare((dev,), (0.0,), tolerance, inputs, 0.0)[1]
        scale = max((abs(c) for u in inputs for c in u), default=0.0)
        assert scalar_close(dev, 0.0, tolerance, scale=scale) is not failed
        a, b = hnum([dev, scale], BINARY64), hnum([0.0, scale], BINARY64)
        assert allclose(a, b, tolerance) is not failed
        return failed

    above = math.nextafter(ABS_TOL, math.inf)
    small = [(1e-4, -2e-4), (5e-5,)]  # tol * scale = 2e-13, below ABS_TOL
    large = [(1.0, -2e6), (0.5,)]  # tol * scale = 2e-3, above ABS_TOL
    assert not differs(ABS_TOL, 1e-9, small)
    assert not differs(ABS_TOL, 1e-9, large)
    assert differs(above, 1e-9, small)
    assert not differs(above, 1e-9, large)
    assert differs(3e-3, 1e-9, large)
    assert not differs(1e-3, 1e-9, large)
    assert differs(above, 1e-9, [])
    for dev in (math.nan, math.inf):
        assert differs(dev, 1e-9, small)
        assert differs(dev, 1e-9, [(1e300,)])
    # An infinite scale is no infinite bound: an overflow is never close.
    assert not scalar_close(0.0, math.inf)
    assert not scalar_close(1.0, math.inf, scale=math.inf)
    assert not allclose(hnum([math.inf, 1.0], BINARY64), hnum([1.0, 1.0], BINARY64))


def test_abs_tol_is_read_only_by_the_binary64_compare():
    # The closeness rule is stated once: allclose and scalar_close call it.
    tree = ast.parse(Path(triprod.core.__file__).read_text(encoding="utf-8"))
    (ring,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "_Binary64"]
    (compare,) = [node for node in ring.body if getattr(node, "name", "") == "compare"]
    inside = set(ast.walk(compare))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "ABS_TOL" and isinstance(node.ctx, ast.Load)]
    assert reads and all(node in inside for node in reads)


def test_all_names_what_the_package_imports():
    # __all__ is every name the `from .x import (...)` lines bind, and
    # `from triprod import *` binds no submodule.
    tree = ast.parse(Path(triprod.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert set(triprod.__all__) == imported
    namespace = {}
    exec("from triprod import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == imported
    assert not any(isinstance(value, ModuleType) for value in namespace.values())


def test_compare_decides_a_trial_on_either_ring():
    exact = BACKENDS[EXACT].compare
    # Equal sides, tuples or scalars, pass and leave `worst` as it was.
    worst = Fraction(7, 2)
    for lhs, rhs in [((1, Fraction(1, 2), 0), (1, Fraction(1, 2), 0)), ((0, 2), (0, Fraction(2))),
                     (Fraction(3, 4), Fraction(3, 4)), (5, 5)]:
        result = exact(lhs, rhs, None, [(1,)], worst)
        assert result == (worst, False) and result[0] is worst
    # Unequal sides fail with the largest absolute difference, or `worst` if larger.
    assert exact((1, Fraction(1, 2), -3), (1, 2, 0), None, [], 0) == (3, True)
    half = Fraction(1, 2)
    assert exact((Fraction(1, 3), 0, 1), (0, -half, 1), None, [], 0) == (half, True)
    assert exact(Fraction(1, 3), 1, None, [], 0) == (Fraction(2, 3), True)
    assert exact((1, 0), (2, 0), None, [], Fraction(5, 2)) == (Fraction(5, 2), True)
    assert exact((1, 0), (4, 0), None, [], Fraction(5, 2)) == (3, True)
    binary64 = BACKENDS[BINARY64].compare
    assert binary64((1.0, 2.0), (1.0, 2.0), 1e-9, [(1.0, 2.0)], 0.5) == (0.5, False)
    assert binary64(2.0, 5.0, 1e-9, [(5.0,)], 0.5) == (3.0, True)
    # inf == inf, but an overflowed trial fails, with a NaN deviation.
    worst, failed = binary64((math.inf,), (math.inf,), 1e-9, [(1e300,)], 0.0)
    assert failed and worst != worst
    # Once `worst` is NaN, a later finite deviation does not replace it.
    assert binary64((5.0, 1.0), (1.0, 1.0), 1e-9, [(5.0, 1.0)], 0.0) == (4.0, True)
    worst, failed = binary64((5.0, 1.0), (1.0, 1.0), 1e-9, [(5.0, 1.0)], math.nan)
    assert failed and worst != worst


def test_backend_switches_live_only_in_core():
    # What depends on the backend is looked up in core.BACKENDS; no other
    # module compares a backend name with == or !=, and `dsl` leaves every
    # scalar comparison to its ring's `compare`: it calls no `abs`.
    src = Path(triprod.__file__).parent
    names = {"EXACT", "BINARY64"}
    values = {EXACT, BINARY64}

    def is_backend(node):
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in names
        return isinstance(node, ast.Constant) and node.value in values

    found = []
    for module in ("dsl", "cli", "decomp", "oracle", "suite"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            is_abs = isinstance(node, ast.Call) and getattr(node.func, "id", "") == "abs"
            if module == "dsl" and is_abs:
                found.append(f"dsl.py:{node.lineno}: abs")
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (is_backend(left) or is_backend(right)):
                    found.append(f"{module}.py:{node.lineno}")
    assert found == []


def test_rings_define_the_same_members():
    # A ring's interface is its public members; its tolerance alone says how
    # it compares, so no member restates it.
    members = [{name for name in vars(ring) if not name.startswith("_")}
               for ring in BACKENDS.values()]
    assert all(m == members[0] for m in members)
    assert "exact" not in members[0]


def test_generator_trusts_its_tree():
    # Every rule a tree must pass runs before `dsl._Gen` writes its code, so
    # the generator raises nothing, and takes basis tuples from `core.basis`.
    tree = ast.parse((Path(triprod.__file__).parent / "dsl.py").read_text(encoding="utf-8"))
    (gen,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Gen"]
    found = [node.lineno for node in ast.walk(gen)
             if isinstance(node, ast.Raise) or isinstance(node, ast.Attribute) and node.attr == "one"]
    assert found == []
