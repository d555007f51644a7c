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

The rule: the definitions acomm2, cross2, acomm3, cross3 and assoc3 are
`HNum` code, which the tests and `dsl.FUNCTIONS` are checked against;
everything derived from them is `dsl` text in `_FORMS` and runs the function
`dsl` generates from it, made on first use per dim and backend.  That
function computes every distinct operation once.  What it computes depends
on the ring.  Binary64 runs the `_FORMS` texts, in the definitions' order,
so its results equal the definitions' bit for bit (as tested).  A ring
without a tolerance compares exactly, so texts equal in value give equal
results on it, and the exact ring, the one such ring, runs the texts in
`_EXACT_FORMS` for decompose_triple, norm_sq_cross3 and norm_sq_assoc3:
closed forms, proved by the tests on basis tuples, that take 4, 1 and 1
products where the definitions take 8, 2 and 2.  Its results equal the
definitions' in value and type (as tested).

Every function here is pure; inputs must share one dimension and backend.
"""

from __future__ import annotations

from fractions import Fraction

from . import dsl
from .core import (
    BACKENDS,
    HNum,
    Record,
    Scalar,
    _check_same,
    _hnum,
    add,
    conj,
    mul,
    scale,
    sub,
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


def _gram_det(x: str, y: str, z: str, entry: str = "inner({}, {})") -> str:
    """DSL text of det3(gram(x, y, z)), in `oracle.det3`'s cofactor order,
    with `entry` the text of a Gram entry in terms of its two arguments."""
    xx, xy, xz, yy, yz, zz = (entry.format(p, q) for p, q in
                              ((x, x), (x, y), (x, z), (y, y), (y, z), (z, z)))
    return (f"{xx}*({yy}*{zz} - {yz}*{yz}) - {xy}*({xy}*{zz} - {yz}*{xz})"
            f" + {xz}*({xy}*{yz} - {yy}*{xz})")


_GRAM_DET = _gram_det("u1", "u2", "u3")
_GRAM_IM_DET = _gram_det("im(u1)", "im(u2)", "im(u3)")
_MIXED_PRODUCT = "inner(cross(u1, u2), u3)"
_PRODUCT = "(u1*conj(u2))*u3"
_ASSOC = "assoc(u1, u2, u3)"
_PARTS = ("acomm3(u1, u2, u3)", "cross3(u1, u2, u3)", _ASSOC)
_ACOMM3_CLOSED = "inner(u1, u2)*u3 - inner(u1, u3)*u2 + inner(u2, u3)*u1"

# Form -> the DSL expressions of its values, over arguments u1, u2, u3 (a
# pair form gets u2 again as u3, which its text never names).
_FORMS = {
    "decompose_pair": ("acomm(u1, u2)", "cross(u1, u2)", "u1*u2"),
    "expand_product2": ("re(u1)*u2 + re(u2)*u1 - inner(u1, u2)*i0 + cross(u1, u2)",),
    "decompose_triple": (*_PARTS, _PRODUCT),
    "acomm3_closed": (_ACOMM3_CLOSED,),
    "cross3_closed": ("inner(cross(u1, u2), u3)*i0 - re(u1)*cross(u2, u3)"
                      " + re(u2)*cross(u1, u3) - re(u3)*cross(u1, u2)",),
    "mirror_product": ("u3*(conj(u2)*u1)",),
    "norm_sq_acomm3": (f"inner(u1, u1)*inner(u2, u2)*inner(u3, u3) - ({_GRAM_DET})",),
    "norm_sq_cross3": (f"{_MIXED_PRODUCT}*{_MIXED_PRODUCT} + ({_GRAM_DET}) - ({_GRAM_IM_DET})",),
    "norm_sq_assoc3": (f"({_GRAM_IM_DET}) - {_MIXED_PRODUCT}*{_MIXED_PRODUCT}",),
    "okubo_rhs": (" - ".join(["2*re(u2)*(u1*u3)", *_PARTS]),),
}

# Texts equal in value to definitions, from fewer products, by four
# identities that `tests/test_decomp.py` proves on every tuple of basis
# elements (each is linear in each argument): acomm3 is its closed form;
# cross3 is the product less acomm3 and assoc3; the mixed product
# ([u1,u2],u3) takes one product, of the imaginary parts (the commutator
# [u1,u2] is theirs), and no halving; and an imaginary Gram entry is the
# Gram entry less the product of the real parts.
_ACOMM3_EXACT = f"1*({_ACOMM3_CLOSED})"
_CROSS3_EXACT = f"1*({_PRODUCT} - {_ACOMM3_EXACT} - {_ASSOC})"
_MIXED_PRODUCT_EXACT = "(inner(im(u1)*im(u2), u3) + inner(im(u1), im(u2))*re(u3))"
_IM_ENTRY = "(inner({0}, {1}) - re({0})*re({1}))"

# Form -> the texts an exact ring runs in place of its `_FORMS` texts, equal
# in value and type: each vector ends in the ring's scaling 1*(...), as each
# definition ends in a halving, so an integral coefficient is an int.
# norm_sq_assoc3 keeps the definitions' imaginary Gram entries: where only
# real parts are not integers, those give an int and `_IM_ENTRY` a Fraction,
# which its result would keep.
_EXACT_FORMS = {
    "decompose_triple": (_ACOMM3_EXACT, _CROSS3_EXACT, _ASSOC, _PRODUCT),
    "norm_sq_cross3": (f"{_MIXED_PRODUCT_EXACT}*{_MIXED_PRODUCT_EXACT} + ({_GRAM_DET})"
                       f" - ({_gram_det('u1', 'u2', 'u3', _IM_ENTRY)})",),
    "norm_sq_assoc3": (f"({_GRAM_IM_DET}) - {_MIXED_PRODUCT_EXACT}*{_MIXED_PRODUCT_EXACT}",),
}

# (form, dim, backend) -> the form's generated function, made on first use.
# Two threads may both make one; either function gives the same results.
_FUNCS = {}


def _run(form: str, u1: HNum, u2: HNum, u3: HNum) -> tuple:
    """The values of `form` on three operands of one dim and backend, from
    the function `dsl` generates for them: coefficient tuples or scalars.
    A ring without a tolerance runs the form's texts in `_EXACT_FORMS`, if
    it has any, and every other ring its definitions' texts in `_FORMS`."""
    _check_same(u1, u2)
    _check_same(u1, u3)
    key = (form, u1.dim, u1.backend)
    f = _FUNCS.get(key)
    if f is None:
        texts = BACKENDS[u1.backend].tolerance is None and _EXACT_FORMS.get(form) or _FORMS[form]
        exprs = [dsl._body(text) for text in texts]
        names = [("u1", "u2", "u3")] * len(exprs)
        f = _FUNCS[key] = dsl._generate(exprs, names, u1.dim, u1.backend)[0]
    return f(u1.coeffs, u2.coeffs, u3.coeffs)


def _vector(form: str, u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """The one value of a vector-valued `form`, as an HNum."""
    (t,) = _run(form, u1, u2, u3)
    return _hnum(u1.dim, t, u1.backend)


def decompose_pair(u1: HNum, u2: HNum) -> PairDecomposition:
    """Split u1*u2 into acomm2 and cross2, from their 2 distinct products."""
    dim, backend = u1.dim, u1.backend
    return PairDecomposition(*[_hnum(dim, t, backend)
                               for t in _run("decompose_pair", u1, u2, u2)])


def expand_product2(u1: HNum, u2: HNum) -> HNum:
    """The pair product rebuilt from inner products plus the commutator.

    (u1,i0)*u2 + (u2,i0)*u1 - (u1,u2)*i0 + cross2(u1,u2); equals mul(u1, u2).
    """
    return _vector("expand_product2", u1, u2, u2)


def acomm3_closed(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Closed form of acomm3: (u1,u2)*u3 - (u1,u3)*u2 + (u2,u3)*u1."""
    return _vector("acomm3_closed", u1, u2, u3)


def cross3_closed(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Closed form of cross3 as a combination of i0 and pair cross products.

    ([u1,u2],u3)*i0 - (u1,i0)*[u2,u3] + (u2,i0)*[u1,u3] - (u3,i0)*[u1,u2]
    with [a,b] = cross2(a,b).
    """
    return _vector("cross3_closed", u1, u2, u3)


def decompose_triple(u1: HNum, u2: HNum, u3: HNum) -> TripleDecomposition:
    """Split (u1*conj(u2))*u3 into its three mutually orthogonal parts,
    acomm3, cross3 and assoc3, from their 8 distinct products (binary64), or
    from acomm3's closed form, assoc3 and the product, 4 products (exact)."""
    dim, backend = u1.dim, u1.backend
    return TripleDecomposition(*[_hnum(dim, t, backend)
                                 for t in _run("decompose_triple", u1, u2, u3)])


def norm_sq_acomm3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the triple anticommutator, from inner products only.

    (u1,u1)(u2,u2)(u3,u3) minus the Gram determinant of the arguments.
    """
    return _run("norm_sq_acomm3", u1, u2, u3)[0]


def norm_sq_cross3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the triple cross product, from inner products only.

    ([u1,u2],u3)^2 plus the Gram determinant of the arguments minus the Gram
    determinant of their imaginary parts.
    """
    return _run("norm_sq_cross3", u1, u2, u3)[0]


def norm_sq_assoc3(u1: HNum, u2: HNum, u3: HNum) -> Scalar:
    """Squared length of the associator, from inner products only.

    The Gram determinant of the imaginary parts minus ([u1,u2],u3)^2.
    """
    return _run("norm_sq_assoc3", u1, u2, u3)[0]


def mirror_product(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """The reversed product u3*(conj(u2)*u1).

    Equals acomm3 - cross3 + assoc3: conjugating the decomposition while
    conjugating all arguments fixes the anticommutator and the associator and
    flips the sign of the cross part.
    """
    return _vector("mirror_product", u1, u2, u3)


def okubo_rhs(u1: HNum, u2: HNum, u3: HNum) -> HNum:
    """Okubo's expansion of the plain triple product (u1*u2)*u3.

    2*(u2,i0)*(u1*u3) - acomm3 - cross3 - assoc3, which must equal
    mul(mul(u1, u2), u3); it restates the conjugated-center decomposition for
    an unconjugated central factor.
    """
    return _vector("okubo_rhs", u1, u2, u3)
