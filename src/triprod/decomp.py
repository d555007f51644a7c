"""Orthogonal decomposition of pair and triple products.

A pair product splits into the anticommutator and the commutator (the cross
product of the pair), which are mutually orthogonal:

    u1*u2 = acomm2(u1,u2) + cross2(u1,u2)

The product of three arguments with conjugated central factor splits into
three mutually orthogonal parts, obtained by commuting the outer factors and
by alternating the multiplication order:

    (u1*conj(u2))*u3 = acomm3 + cross3 + assoc3

acomm3 is a linear combination of the arguments and is symmetric in the outer
pair; cross3 generalizes the cross product to three arguments and is a linear
combination of i0 and pair cross products; assoc3 measures nonassociativity
and vanishes whenever the arguments sit in a common quaternion subalgebra (in
particular for dim <= 4 and whenever an argument is i0).

Each part's squared length has a closed form in the inner products of the
arguments, via 3x3 Gram determinants; the three squared lengths sum to
(u1,u1)(u2,u2)(u3,u3).

acomm3, cross3 and assoc3 are the definitions; together they make 14
products, of which 8 differ.  decompose_triple makes those 8 once and the
closed forms work on coefficient tuples, with the definitions' operations in
their order, so results equal the definitions' bit for bit (as tested).

Every function here is pure; inputs must share one dimension and backend.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add as _add, mul as _mul, sub as _sub

from .core import (
    _KERNELS,
    BACKENDS,
    HNum,
    Record,
    Scalar,
    _check_same,
    _hnum,
    _t_conj,
    add,
    conj,
    inner,
    mul,
    real_coeff,
    scale,
    sub,
    unit,
)

_HALF = Fraction(1, 2)


def _half(u: HNum) -> HNum:
    return scale(_HALF, u)


class PairDecomposition(Record):
    """product = anticommutator + commutator, the two parts orthogonal."""

    __slots__ = ("anticommutator", "commutator", "product")


class TripleDecomposition(Record):
    """product = (u1*conj(u2))*u3 = anticommutator + cross + associator.

    The three parts are pairwise orthogonal.
    """

    __slots__ = ("anticommutator", "cross", "associator", "product")


def acomm2(u1: HNum, u2: HNum) -> HNum:
    """Pair anticommutator (u1*u2 + u2*u1) / 2."""
    return _half(add(mul(u1, u2), mul(u2, u1)))


def cross2(u1: HNum, u2: HNum) -> HNum:
    """Pair commutator (u1*u2 - u2*u1) / 2, the cross product of the pair.

    Orthogonal to i0, and zero whenever either argument is i0.
    """
    return _half(sub(mul(u1, u2), mul(u2, u1)))


def expand_product2(u1: HNum, u2: HNum) -> HNum:
    """The pair product rebuilt from inner products plus the commutator.

    (u1,i0)*u2 + (u2,i0)*u1 - (u1,u2)*i0 + cross2(u1,u2); equals mul(u1, u2).
    """
    i0 = unit(u1.dim, u1.backend)
    out = scale(real_coeff(u1), u2)
    out = add(out, scale(real_coeff(u2), u1))
    out = sub(out, scale(inner(u1, u2), i0))
    return add(out, cross2(u1, u2))


def decompose_pair(u1: HNum, u2: HNum) -> PairDecomposition:
    return PairDecomposition(acomm2(u1, u2), cross2(u1, u2), mul(u1, u2))


def acomm3(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Triple anticommutator ((u1*conj(u2))*u3 + (u3*conj(u2))*u1) / 2.

    The alternative multiplication order (u1*(conj(u2)*u3) + u3*(conj(u2)*u1))/2
    gives the same value.  Symmetric under swapping u1 and u3; with u2 = i0 it
    reduces to the pair anticommutator of u1 and u3.
    """
    c2 = conj(u2)
    return _half(add(mul(mul(u1, c2), u3), mul(mul(u3, c2), u1)))


def cross3(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Triple cross product ((u1*conj(u2))*u3 - u3*(conj(u2)*u1)) / 2.

    Equals (u1*(conj(u2)*u3) - (u3*conj(u2))*u1)/2; orthogonal to each
    argument, and with u2 = i0 it reduces to the pair commutator of u1 and u3.
    """
    c2 = conj(u2)
    return _half(sub(mul(mul(u1, c2), u3), mul(u3, mul(c2, u1))))


def assoc3(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Associator ((u1*conj(u2))*u3 - u1*(conj(u2)*u3)) / 2.

    Equals (u3*(conj(u2)*u1) - (u3*conj(u2))*u1)/2.  Identically zero for
    dim <= 4 and whenever the three arguments lie in a common quaternion
    subalgebra; orthogonal to the arguments, to i0 and to all three pair
    cross products of the arguments.
    """
    c2 = conj(u2)
    return _half(sub(mul(mul(u1, c2), u3), mul(u1, mul(c2, u3))))


def acomm3_closed(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Closed form of acomm3: (u1,u2)*u3 - (u1,u3)*u2 + (u2,u3)*u1."""
    out = scale(inner(u1, u2), u3)
    out = sub(out, scale(inner(u1, u3), u2))
    return add(out, scale(inner(u2, u3), u1))


def cross3_closed(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Closed form of cross3 as a combination of i0 and pair cross products.

    ([u1,u2],u3)*i0 - (u1,i0)*[u2,u3] + (u2,i0)*[u1,u3] - (u3,i0)*[u1,u2]
    with [a,b] = cross2(a,b).
    """
    i0 = unit(u1.dim, u1.backend)
    c12 = cross2(u1, u2)
    out = scale(inner(c12, u3), i0)
    out = sub(out, scale(real_coeff(u1), cross2(u2, u3)))
    out = add(out, scale(real_coeff(u2), cross2(u1, u3)))
    return sub(out, scale(real_coeff(u3), c12))


def _checked(u1: HNum, u2: HNum, u3: HNum):
    """The ring and coefficient tuples of three operands of one dim and backend."""
    _check_same(u1, u2)
    _check_same(u1, u3)
    return BACKENDS[u1.backend], u1.coeffs, u2.coeffs, u3.coeffs


def decompose_triple(u1: HNum, u2: HNum, u3: HNum) -> TripleDecomposition:
    """Split (u1*conj(u2))*u3 into its three mutually orthogonal parts,
    acomm3, cross3 and assoc3, from their 8 distinct products."""
    ring, a, b, c = _checked(u1, u2, u3)
    k = _KERNELS[u1.dim]
    c2 = _t_conj(b)
    product = k(k(a, c2), c)
    half = ring.coerce(_HALF)
    parts = (
        ring.scale(half, list(map(_add, product, k(k(c, c2), a)))),
        ring.scale(half, list(map(_sub, product, k(c, k(c2, a))))),
        ring.scale(half, list(map(_sub, product, k(a, k(c2, c))))),
        product,
    )
    dim, backend = u1.dim, u1.backend
    return TripleDecomposition(*[_hnum(dim, t, backend) for t in parts])


# On coefficient tuples: sums add left to right from int 0 as `core.inner`
# does, and determinants keep the cofactor order of `oracle.det3`.

def _dot(a, b) -> Scalar:
    return reduce(_add, map(_mul, a, b), 0)


def _gram(a, b, c) -> tuple:
    """The entries (g00, g01, g02, g11, g12, g22) of gram(...) on the tuples."""
    return _dot(a, a), _dot(a, b), _dot(a, c), _dot(b, b), _dot(b, c), _dot(c, c)


def _det3(g00, g01, g02, g11, g12, g22) -> Scalar:
    """det3 of the symmetric matrix with these entries."""
    return (g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
            + g02 * (g01 * g12 - g11 * g02))


def _gram_im_det(ring, a, b, c) -> Scalar:
    """det3(gram_im(...)): the Gram determinant of the imaginary parts."""
    z = (ring.zero,)
    return _det3(*_gram(z + a[1:], z + b[1:], z + c[1:]))


def _mixed(ring, a, b, c) -> Scalar:
    """inner(cross2(u1, u2), u3), the mixed product ([u1,u2],u3)."""
    k = _KERNELS[len(a)]
    return _dot(ring.scale(ring.coerce(_HALF), list(map(_sub, k(a, b), k(b, a)))), c)


def norm_sq_acomm3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the triple anticommutator, from inner products only.

    (u1,u1)(u2,u2)(u3,u3) minus the Gram determinant of the arguments.
    """
    _, a, b, c = _checked(u1, u2, u3)
    g = _gram(a, b, c)
    return g[0] * g[3] * g[5] - _det3(*g)


def norm_sq_cross3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the triple cross product, from inner products only.

    ([u1,u2],u3)^2 plus the Gram determinant of the arguments minus the Gram
    determinant of their imaginary parts.
    """
    ring, a, b, c = _checked(u1, u2, u3)
    mixed = _mixed(ring, a, b, c)
    return mixed * mixed + _det3(*_gram(a, b, c)) - _gram_im_det(ring, a, b, c)


def norm_sq_assoc3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the associator, from inner products only.

    The Gram determinant of the imaginary parts minus ([u1,u2],u3)^2.
    """
    ring, a, b, c = _checked(u1, u2, u3)
    mixed = _mixed(ring, a, b, c)
    return _gram_im_det(ring, a, b, c) - mixed * mixed


def mirror_product(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """The reversed product u3*(conj(u2)*u1).

    Equals acomm3 - cross3 + assoc3: conjugating the decomposition while
    conjugating all arguments fixes the anticommutator and the associator and
    flips the sign of the cross part.
    """
    return mul(u3, mul(conj(u2), u1))


def okubo_rhs(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Okubo's expansion of the plain triple product (u1*u2)*u3.

    2*(u2,i0)*(u1*u3) - acomm3 - cross3 - assoc3, which must equal
    mul(mul(u1, u2), u3); it restates the conjugated-center decomposition for
    an unconjugated central factor.
    """
    plain = mul(u1, u3)
    parts = decompose_triple(u1, u2, u3)  # a mismatched u2 raises here, not in scale
    out = sub(scale(2 * real_coeff(u2), plain), parts.anticommutator)
    out = sub(out, parts.cross)
    return sub(out, parts.associator)
