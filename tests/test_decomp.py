import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import hnums, rand_hnum, rand_tuple
from triprod import (
    BINARY64,
    DIMS,
    EXACT,
    acomm2,
    acomm3,
    acomm3_closed,
    add,
    assoc3,
    basis,
    builtin_lines,
    check_identities,
    check_identity_basis,
    conj,
    cross2,
    cross3,
    cross3_closed,
    decompose_pair,
    decompose_triple,
    det3,
    expand_product2,
    gram,
    gram_im,
    hnum,
    imaginary_part,
    inner,
    mirror_product,
    mul,
    negate,
    norm_sq,
    norm_sq_acomm3,
    norm_sq_assoc3,
    norm_sq_cross3,
    okubo_rhs,
    real_coeff,
    scale,
    sub,
    unit,
    zero,
)
from triprod import core, decomp, dsl

I0 = unit(8)
E = [basis(8, k) for k in range(8)]


# --- pair operations -------------------------------------------------------


def test_acomm2_examples():
    rng = random.Random(0)
    u = rand_hnum(rng, 8)
    assert acomm2(I0, u) == u
    assert acomm2(E[1], E[2]) == zero(8)   # e1 and e2 anticommute
    assert acomm2(E[1], E[1]) == negate(I0)


def test_cross2_examples():
    rng = random.Random(1)
    u = rand_hnum(rng, 8)
    assert cross2(I0, u) == zero(8)
    assert cross2(u, I0) == zero(8)
    assert cross2(E[1], E[2]) == E[3]
    assert cross2(u, u) == zero(8)


@given(hnums(8), hnums(8))
def test_cross2_is_imaginary(u1, u2):
    assert inner(cross2(u1, u2), I0) == 0


def test_expand_product2_examples():
    rng = random.Random(2)
    u = rand_hnum(rng, 8)
    assert expand_product2(I0, u) == u
    assert expand_product2(E[1], E[1]) == negate(I0)
    for _ in range(1000):
        a, b = rand_hnum(rng, 8), rand_hnum(rng, 8)
        assert expand_product2(a, b) == mul(a, b)


@given(hnums(8), hnums(8))
def test_pair_decomposition_invariants(u1, u2):
    pair = decompose_pair(u1, u2)
    assert add(pair.anticommutator, pair.commutator) == pair.product
    assert inner(pair.anticommutator, pair.commutator) == 0


# --- triple operations: definitions and reductions -------------------------


def test_acomm3_reductions():
    rng = random.Random(3)
    u1, u3 = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert acomm3(u1, I0, u3) == acomm2(u1, u3)
    assert acomm3(E[1], E[1], E[1]) == E[1]


def test_acomm3_parenthesization_variants():
    rng = random.Random(4)
    for _ in range(1000):
        u1, u2, u3 = rand_tuple(rng, 3, 8)
        c2 = conj(u2)
        variant = scale(Fraction(1, 2), add(mul(u1, mul(c2, u3)), mul(u3, mul(c2, u1))))
        assert acomm3(u1, u2, u3) == variant


def test_cross3_reductions():
    rng = random.Random(5)
    u1, u2, u3 = rand_tuple(rng, 3, 8)
    assert cross3(u1, I0, u3) == cross2(u1, u3)
    assert cross3(u1, u2, u1) == zero(8)
    # frozen from the structure table: cross3(e1, e2, e3) is the unit itself
    assert cross3(E[1], E[2], E[3]) == I0
    assert cross3(E[1], E[2], E[3]) == cross3_closed(E[1], E[2], E[3])
    assert cross3(I0, E[1], E[2]) == negate(E[3])


def test_cross3_parenthesization_variants():
    rng = random.Random(6)
    for _ in range(1000):
        u1, u2, u3 = rand_tuple(rng, 3, 8)
        c2 = conj(u2)
        variant = scale(Fraction(1, 2), sub(mul(u1, mul(c2, u3)), mul(mul(u3, c2), u1)))
        assert cross3(u1, u2, u3) == variant


def test_assoc3_vanishes_for_quaternions():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = rand_tuple(rng, 3, 4)
        assert assoc3(a, b, c) == zero(4)


def test_assoc3_vanishes_with_unit_argument():
    rng = random.Random(8)
    u2, u3 = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert assoc3(I0, u2, u3) == zero(8)
    assert assoc3(u2, I0, u3) == zero(8)
    assert assoc3(u2, u3, I0) == zero(8)


def test_assoc3_frozen_value():
    # derived by expanding both parenthesizations through the structure table
    assert assoc3(E[1], E[2], E[4]) == negate(E[7])


def test_assoc3_parenthesization_variants():
    rng = random.Random(9)
    for _ in range(1000):
        u1, u2, u3 = rand_tuple(rng, 3, 8)
        c2 = conj(u2)
        variant = scale(Fraction(1, 2), sub(mul(u3, mul(c2, u1)), mul(mul(u3, c2), u1)))
        assert assoc3(u1, u2, u3) == variant


# --- closed forms -----------------------------------------------------------


def test_acomm3_closed_examples():
    assert acomm3_closed(E[1], E[1], E[1]) == E[1]
    rng = random.Random(10)
    for _ in range(1000):
        u1, u2, u3 = rand_tuple(rng, 3, 8)
        assert acomm3_closed(u1, u2, u3) == acomm3(u1, u2, u3)


@given(hnums(8), hnums(8), hnums(8))
def test_acomm3_outer_symmetry(u1, u2, u3):
    assert acomm3_closed(u1, u2, u3) == acomm3_closed(u3, u2, u1)


def test_cross3_closed_examples():
    rng = random.Random(11)
    u1, u3 = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert cross3_closed(u1, I0, u3) == cross2(u1, u3)
    assert cross3_closed(E[1], E[2], E[1]) == zero(8)
    for _ in range(1000):
        us = rand_tuple(rng, 3, 8)
        assert cross3_closed(*us) == cross3(*us)


def test_closed_forms_on_all_basis_triples():
    for i in range(8):
        for j in range(8):
            for k in range(8):
                us = (E[i], E[j], E[k])
                assert acomm3_closed(*us) == acomm3(*us)
                assert cross3_closed(*us) == cross3(*us)


# --- the decomposition itself ----------------------------------------------


@given(hnums(8), hnums(8), hnums(8))
def test_reconstruction_and_orthogonality(u1, u2, u3):
    parts = decompose_triple(u1, u2, u3)
    total = add(add(parts.anticommutator, parts.cross), parts.associator)
    assert total == parts.product
    assert parts.product == mul(mul(u1, conj(u2)), u3)
    assert inner(parts.anticommutator, parts.cross) == 0
    assert inner(parts.anticommutator, parts.associator) == 0
    assert inner(parts.cross, parts.associator) == 0


def test_decompose_triple_unit_center():
    parts = decompose_triple(E[1], I0, E[2])
    assert parts.anticommutator == zero(8)
    assert parts.cross == E[3]
    assert parts.associator == zero(8)


@given(hnums(8), hnums(8), hnums(8))
def test_parts_orthogonal_to_arguments(u1, u2, u3):
    c = cross3(u1, u2, u3)
    s = assoc3(u1, u2, u3)
    for u in (u1, u2, u3):
        assert inner(c, u) == 0
        assert inner(s, u) == 0


@given(hnums(8), hnums(8), hnums(8))
def test_associator_seven_orthogonalities(u1, u2, u3):
    s = assoc3(u1, u2, u3)
    assert inner(s, u1) == 0
    assert inner(s, u2) == 0
    assert inner(s, u3) == 0
    assert inner(s, I0) == 0
    assert inner(s, cross2(u1, u2)) == 0
    assert inner(s, cross2(u1, u3)) == 0
    assert inner(s, cross2(u2, u3)) == 0


@given(hnums(8), hnums(8), hnums(8), hnums(8))
def test_quadruple_mixed_product_antisymmetry(u1, u2, u3, u4):
    assert inner(cross3(u1, u2, u3), u4) == -inner(cross3(u4, u2, u3), u1)
    assert inner(assoc3(u1, u2, u3), u4) == -inner(assoc3(u4, u2, u3), u1)


def test_associator_dies_on_generated_quaternion_subalgebra():
    # Arbitrary combinations of i0, v', w' and cross2(v, w) span a quaternion
    # subalgebra, so the associator of any three of them vanishes.
    rng = random.Random(12)
    for _ in range(200):
        v, w = rand_hnum(rng, 8), rand_hnum(rng, 8)
        span = (I0, imaginary_part(v), imaginary_part(w), cross2(v, w))

        def span_element():
            out = zero(8)
            for b in span:
                out = add(out, scale(rng.randint(-3, 3), b))
            return out

        a1, a2, a3 = span_element(), span_element(), span_element()
        assert assoc3(a1, a2, a3) == zero(8)


def test_associator_dies_on_pair_cross_substitution():
    rng = random.Random(13)
    for _ in range(500):
        v, w = rand_hnum(rng, 8), rand_hnum(rng, 8)
        assert assoc3(cross2(v, w), v, w) == zero(8)
        assert assoc3(v, w, cross2(v, w)) == zero(8)


# --- squared-length formulas -------------------------------------------------


def test_norm_sq_acomm3_examples():
    assert norm_sq_acomm3(E[1], E[1], E[1]) == 1
    assert norm_sq(acomm3(E[1], E[1], E[1])) == 1
    # orthonormal imaginary arguments with ([u1,u2],u3) = 0
    assert norm_sq_acomm3(E[1], E[2], E[4]) == norm_sq(acomm3(E[1], E[2], E[4]))


def test_norm_sq_cross3_examples():
    assert norm_sq_cross3(E[1], I0, E[2]) == 1  # reduces to |cross2(e1,e2)|^2
    rng = random.Random(14)
    u = rand_hnum(rng, 8)
    assert norm_sq_cross3(u, u, u) == 0


def test_norm_sq_assoc3_examples():
    rng = random.Random(15)
    a, b, c = rand_tuple(rng, 3, 4)
    assert norm_sq_assoc3(a, b, c) == 0
    assert norm_sq_assoc3(E[1], E[2], E[4]) == 1


def _norm_test_triples(kind: str, dim: int):
    if kind == "basis":
        return itertools.product([basis(dim, k) for k in range(dim)], repeat=3)
    rng = random.Random(16)
    return (rand_tuple(rng, 3, dim) for _ in range(1000))


@pytest.mark.parametrize("kind, dim", [
    ("random", 8), ("random", 4), ("random", 2), ("random", 1),
    ("basis", 8), ("basis", 4), ("basis", 2), ("basis", 1),
])
def test_norm_closed_forms_match_definitional_norms(kind, dim):
    for u1, u2, u3 in _norm_test_triples(kind, dim):
        assert norm_sq_acomm3(u1, u2, u3) == norm_sq(acomm3(u1, u2, u3))
        assert norm_sq_cross3(u1, u2, u3) == norm_sq(cross3(u1, u2, u3))
        assert norm_sq_assoc3(u1, u2, u3) == norm_sq(assoc3(u1, u2, u3))


@given(hnums(8), hnums(8), hnums(8))
def test_norm_sum_identity(u1, u2, u3):
    total = (
        norm_sq(acomm3(u1, u2, u3))
        + norm_sq(cross3(u1, u2, u3))
        + norm_sq(assoc3(u1, u2, u3))
    )
    assert total == norm_sq(u1) * norm_sq(u2) * norm_sq(u3)


# --- mirror product, conjugation parity, unconjugated triple product ---------


def test_mirror_product_unit_center():
    rng = random.Random(17)
    u1, u3 = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert mirror_product(u1, I0, u3) == mul(u3, u1)


@given(hnums(8), hnums(8), hnums(8))
def test_mirror_product_decomposition(u1, u2, u3):
    expected = add(sub(acomm3(u1, u2, u3), cross3(u1, u2, u3)), assoc3(u1, u2, u3))
    assert mirror_product(u1, u2, u3) == expected


@given(hnums(8), hnums(8), hnums(8))
def test_conjugation_parity(u1, u2, u3):
    cs = (conj(u1), conj(u2), conj(u3))
    assert conj(acomm3(*cs)) == acomm3(u1, u2, u3)
    assert conj(assoc3(*cs)) == assoc3(u1, u2, u3)
    assert conj(cross3(*cs)) == negate(cross3(u1, u2, u3))


def test_okubo_rhs_unit_center():
    rng = random.Random(18)
    u1, u3 = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert okubo_rhs(u1, I0, u3) == mul(u1, u3)


@given(hnums(8), hnums(8), hnums(8))
def test_okubo_rhs_matches_plain_triple_product(u1, u2, u3):
    assert okubo_rhs(u1, u2, u3) == mul(mul(u1, u2), u3)


def test_okubo_rhs_quaternions():
    rng = random.Random(19)
    for _ in range(300):
        a, b, c = rand_tuple(rng, 3, 4)
        assert assoc3(a, b, c) == zero(4)
        assert okubo_rhs(a, b, c) == mul(mul(a, b), c)


def test_degenerate_zero_inputs():
    z = zero(8)
    parts = decompose_triple(z, z, z)
    assert parts.product == z
    assert parts.anticommutator == z
    assert parts.cross == z
    assert parts.associator == z
    assert norm_sq_acomm3(z, z, z) == 0


# --- the shared-product fast path against the definitions ---------------------


def _bits(x):
    """Type and repr of every coefficient or scalar: equal only if identical,
    bit for bit on floats (tells -0.0 from 0.0)."""
    if hasattr(x, "coeffs"):
        return x.dim, x.backend, [(type(c), repr(c)) for c in x.coeffs]
    if hasattr(x, "_fields"):
        x = [getattr(x, f) for f in x._fields]
    if isinstance(x, list):
        return [_bits(v) for v in x]
    return type(x), repr(x)


def _assert_matches_definitions(u1, u2, u3):
    """Each fast-path result is what the plain definitions compute, step by
    step in `HNum` arithmetic."""
    i0 = unit(u1.dim, u1.backend)
    mixed = inner(cross2(u1, u2), u3)
    okubo = scale(2 * real_coeff(u2), mul(u1, u3))
    for part in (acomm3, cross3, assoc3):
        okubo = sub(okubo, part(u1, u2, u3))
    expand = add(scale(real_coeff(u1), u2), scale(real_coeff(u2), u1))
    expand = add(sub(expand, scale(inner(u1, u2), i0)), cross2(u1, u2))
    acomm_closed = sub(scale(inner(u1, u2), u3), scale(inner(u1, u3), u2))
    acomm_closed = add(acomm_closed, scale(inner(u2, u3), u1))
    cross_closed = sub(scale(mixed, i0), scale(real_coeff(u1), cross2(u2, u3)))
    cross_closed = add(cross_closed, scale(real_coeff(u2), cross2(u1, u3)))
    cross_closed = sub(cross_closed, scale(real_coeff(u3), cross2(u1, u2)))
    assert _bits(decompose_pair(u1, u2)) == _bits([acomm2(u1, u2), cross2(u1, u2), mul(u1, u2)])
    assert _bits(expand_product2(u1, u2)) == _bits(expand)
    parts = decompose_triple(u1, u2, u3)
    assert _bits(parts) == _bits([acomm3(u1, u2, u3), cross3(u1, u2, u3), assoc3(u1, u2, u3),
                                  mul(mul(u1, conj(u2)), u3)])
    expected = {
        acomm3_closed: acomm_closed,
        cross3_closed: cross_closed,
        mirror_product: mul(u3, mul(conj(u2), u1)),
        norm_sq_acomm3: norm_sq(u1) * norm_sq(u2) * norm_sq(u3) - det3(gram(u1, u2, u3)),
        norm_sq_cross3: mixed * mixed + det3(gram(u1, u2, u3)) - det3(gram_im(u1, u2, u3)),
        norm_sq_assoc3: det3(gram_im(u1, u2, u3)) - mixed * mixed,
        okubo_rhs: okubo,
    }
    for fn, value in expected.items():
        assert _bits(fn(u1, u2, u3)) == _bits(value), fn.__name__


def _random_triples(kind, dim):
    rng = random.Random(f"{kind}-{dim}")

    def coeff(i, real_only):
        if kind == "int":
            return rng.randint(-10**6, 10**6)
        if kind == "fraction":
            return Fraction(rng.randint(-99, 99), rng.randint(1, 60))
        if kind == "mixed":
            # An int, or an int plus a proper fraction; in odd triples only
            # real parts may be Fractions.  An integral result's type, int
            # or Fraction, shows which terms were summed to make it.
            if (i == 0 or not real_only) and rng.random() < 0.5:
                d = rng.randint(2, 60)
                return rng.randint(-9, 9) + Fraction(rng.randint(1, d - 1), d)
            return rng.randint(-9, 9)
        # Uniform mantissas round at almost every operation, so a reordered
        # sum or product shows; the exponents keep degree-6 terms finite.
        return rng.uniform(-1, 1) * 10.0 ** rng.randint(-40, 40)

    backend = BINARY64 if kind == "float" else EXACT
    for n in range(60):
        yield tuple(hnum([coeff(i, n % 2) for i in range(dim)], backend) for _ in range(3))


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "float"])
@pytest.mark.parametrize("dim", DIMS)
def test_fast_paths_equal_the_definitions(kind, dim):
    for us in _random_triples(kind, dim):
        _assert_matches_definitions(*us)


def test_fast_paths_keep_signed_zeros():
    for dim, signs in itertools.product(DIMS, itertools.product((0.0, -0.0), repeat=3)):
        _assert_matches_definitions(*(hnum(([s, -s, s, 0.0] * 2)[:dim], BINARY64)
                                      for s in signs))
    # Signed zeros among small integers: a form that took (u, i0) for re(u)
    # would turn a -0.0 into 0.0, and a later sum shows the sign.
    rng = random.Random(23)
    for dim in DIMS:
        for _ in range(200):
            _assert_matches_definitions(*(
                hnum([rng.choice((0.0, -0.0, 1.0, -1.0, 2.0)) for _ in range(dim)], BINARY64)
                for _ in range(3)))


PAIR_FORMS = (decompose_pair, expand_product2)
# Kernel calls on binary64, which runs the definitions' texts, where the
# exact ring runs texts with fewer products.
BINARY64_PRODUCTS = {decompose_triple: 8, norm_sq_cross3: 2, norm_sq_assoc3: 2}


@pytest.mark.parametrize("fn,products", [
    (decompose_pair, 2),     # 5 through acomm2, cross2 and mul
    (expand_product2, 2),
    (acomm3_closed, 0),
    (cross3_closed, 6),
    (mirror_product, 2),
    (decompose_triple, 4),   # 14 through acomm3, cross3 and assoc3
    (okubo_rhs, 9),          # 13 through acomm3, cross3 and assoc3
    (norm_sq_acomm3, 0),
    (norm_sq_cross3, 1),
    (norm_sq_assoc3, 1),
])
def test_triple_products_are_computed_once(monkeypatch, fn, products):
    calls = []
    kernel = core._KERNELS[8]

    def counted(a, b):
        calls.append(None)
        return kernel(a, b)

    monkeypatch.setitem(core._KERNELS, 8, counted)
    # A function generated before the patch calls the unpatched kernel.
    monkeypatch.setattr(decomp, "_FUNCS", {})
    for backend, count in ((EXACT, products), (BINARY64, BINARY64_PRODUCTS.get(fn, products))):
        calls.clear()
        us = rand_tuple(random.Random(20), 3, 8, backend)
        fn(*(us[:2] if fn in PAIR_FORMS else us))
        assert len(calls) == count, backend


@pytest.mark.parametrize("dim", DIMS)
def test_exact_texts_rest_on_proved_identities(dim):
    # Each side is linear in each variable, so agreement on every tuple of
    # basis elements is a proof of the identity.
    assert decomp._EXACT_FORMS["decompose_triple"][2:] == decomp._FORMS["decompose_triple"][2:]
    lines = [
        f"acomm3(u1, u2, u3) == {decomp._ACOMM3_EXACT}",
        f"cross3(u1, u2, u3) == {decomp._CROSS3_EXACT}",
        f"{decomp._MIXED_PRODUCT} == {decomp._MIXED_PRODUCT_EXACT}",
        f"inner(im(u1), im(u2)) == {decomp._IM_ENTRY.format('u1', 'u2')}",
    ]
    for line in lines:
        assert check_identity_basis(line, dim=dim).status == "PASS", line
    # A control the basis check refutes: the mixed product from the whole
    # product u1*u2, not from that of the imaginary parts.  At dim 1 both
    # sides are 0.
    control = "inner(cross(u1, u2), u3) == inner(u1*u2, u3) - re(u1)*inner(u2, u3)"
    assert check_identity_basis(control, dim=dim).status == ("PASS" if dim == 1 else "FAIL")


def test_generated_functions_leave_no_statement_unread(monkeypatch):
    made = []
    generate = dsl._generate

    def recorded(*args):
        made.append(args)
        return generate(*args)

    monkeypatch.setattr(dsl, "_generate", recorded)
    monkeypatch.setattr(decomp, "_FUNCS", {})
    # A vector negated or conjugated twice is itself: the parts the first
    # negation or conjugation unpacked are never read.
    twice = ["conj(conj(u1)) == u1", "-(-u1) == u1", "-conj(-conj(u1)) == u1"]
    for dim, backend in itertools.product(DIMS, (EXACT, BINARY64)):
        tolerance = core.BACKENDS[backend].tolerance
        assert all(r.status == "PASS" for r in check_identities(
            builtin_lines(dim) + twice, dim=dim, backend=backend, trials=1, tolerance=tolerance))
        us = rand_tuple(random.Random(24), 3, dim, backend)
        for form in decomp._FORMS:
            decomp._run(form, *us)
    unread = []
    for args in made:
        lines = dsl._source(*args)[0].splitlines()
        for n, line in enumerate(lines):
            # A statement `t<n> = ...`, or an unpacking `t<n>_0, t<n>_1, ..., = t<n>`.
            targets = re.match(r" +(\w+(?:, \w+)*),? = ", line)
            if targets and not any(re.search(rf"\b{target}\b", later)
                                   for target in targets[1].split(", ") for later in lines[n + 1:]):
                unread.append((*args[2:], line))
    assert unread == []


def test_fast_paths_generate_once_per_dim_and_backend(monkeypatch):
    generated = []
    generate = dsl._generate

    def counted(*args):
        generated.append(args[2:])
        return generate(*args)

    monkeypatch.setattr(dsl, "_generate", counted)
    monkeypatch.setattr(decomp, "_FUNCS", {})
    decompose_triple(*rand_tuple(random.Random(21), 3, 4))
    decompose_triple(*rand_tuple(random.Random(22), 3, 4))
    assert generated == [(4, EXACT)]
    floats = rand_tuple(random.Random(21), 3, 4, BINARY64)
    parts = decompose_triple(*floats)
    assert generated == [(4, EXACT), (4, BINARY64)]
    assert all(type(c) is float for f in parts._fields for c in getattr(parts, f).coeffs)
    decompose_triple(*floats)
    assert len(generated) == 2


MISMATCHED = [
    ((8, EXACT), (4, EXACT), "dimension mismatch: 8 vs 4"),
    ((4, EXACT), (8, EXACT), "dimension mismatch: 4 vs 8"),
    ((8, EXACT), (8, BINARY64), "backend mismatch: exact vs binary64"),
    ((8, BINARY64), (8, EXACT), "backend mismatch: binary64 vs exact"),
]


@pytest.mark.parametrize("fn", [acomm3_closed, cross3_closed, mirror_product,
                                decompose_triple, norm_sq_acomm3, norm_sq_cross3,
                                norm_sq_assoc3, okubo_rhs])
@pytest.mark.parametrize("odd", [1, 2])
@pytest.mark.parametrize("first,other,message", MISMATCHED)
def test_mismatched_operands_raise(fn, odd, first, other, message):
    # The first operand sets dim and backend; a tuple zip over mismatched
    # operands would silently truncate instead.
    us = [zero(*first)] * 3
    us[odd] = zero(*other)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*us)


@pytest.mark.parametrize("fn", PAIR_FORMS)
@pytest.mark.parametrize("first,other,message", MISMATCHED)
def test_mismatched_pair_operands_raise(fn, first, other, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(zero(*first), zero(*other))
