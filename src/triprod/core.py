"""Hypercomplex arithmetic in dimensions 1, 2, 4 and 8.

Multiplication is built by doubling from the reals: a dim-2n value is a pair
(a1, a2) of dim-n values, and

    (a1, a2) * (b1, b2) = (a1*b1 - conj(b2)*a2,  b2*a1 + a2*conj(b1))

which yields the complex numbers, the quaternions and the octonions in turn.
Index 0 of the coefficient vector is the multiplicative unit i0, and the first
half of the coefficients of a dim-2n value is a dim-n subalgebra (so the
quaternions sit inside the octonions as coordinates 0..3).

`_t_mul` states this recursion on coefficient tuples and is the definition of
the product, with one special case, at dim 4, that makes the recursion's
products but adds them in another order, so on floats its results are not
the plain recursion's: that order is part of the definition.  At import
`_t_mul` is run once per dimension on symbolic operands that record each
scalar operation, and the recording becomes a straight-line kernel that
`mul` calls: the same products and sums in the same order, with the
negations folded into the sums that take them (`x - y` for `x + (-y)`; see
`_Sym`), which is exact, so exact and binary64 results are those of
`_t_mul`, bit for bit, signed zeros included, except the sign of a NaN.
`oracle` derives the product a second way, from basis indices, and shares no
code with this path on purpose; their agreement is the differential test of
both.  Vector sums, differences and each ring's scalings run straight-line
kernels too, one per dimension, made on first use (`_Kernels`): one
expression per coefficient, no loop, the same operation per coefficient as
`_t_add`, `_t_sub` and the ring's scaling rule.  `add`, `sub`, `scale` and
the DSL's generated functions call these kernels.

Two scalar backends are supported, each a scalar ring in the `BACKENDS`
table, which holds all that depends on the backend, down to a ring's
default `tolerance` and its `compare`, which decides whether the two sides
of a trial differ.  A ring's tolerance alone says how it compares.  The
"exact" ring's is None: it keeps coefficients as rationals (int or
Fraction), compared with exact equality.  The "binary64" ring keeps float
coefficients, compared within a tolerance (`REL_TOL` by default), never with
`==`; a deviation that is not finite, from an overflow, always differs.
`allclose` and `scalar_close` apply the binary64 ring's `compare`, so a
non-finite deviation is never close there either.  The exact ring's scaling
keeps integer coefficients as ints wherever the product by a rational is
integral, so halving an even sum builds no Fraction.  `binary64_twin` states
where binary64 computes an exact ring's values exactly, and `rational` gives
a float's exact value: `dsl` runs an exact check in binary64 there, with the
same verdicts and deviations.  `equality_decides` states where two sides that
are `==` pass a trial as the ring's `compare` would decide it.

Values are immutable and every operation is a pure function.  `HNum(dim,
coeffs, backend)` validates its arguments; the results that `add`, `sub`,
`negate`, `mul`, `scale`, `conj`, `imaginary_part` and `embed` build from
already validated operands are made by `_hnum`, which does not check them
again.  Sums of products (`inner`, `norm_sq`) add left to right from int 0,
so binary64 results are the same on every supported Python.

`Record` is the base of the package's immutable value types: fields in
`__slots__`, equality, hashing and a repr over the fields, and a constructor
generated once per class.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import reduce
from operator import add as _add, mul as _mul

EXACT = "exact"
BINARY64 = "binary64"

DIMS = (1, 2, 4, 8)

# Binary64 comparison bounds: relative tolerance against the largest input
# coefficient magnitude (the ring's default), with an absolute floor for
# near-zero data.
REL_TOL = 1e-9
ABS_TOL = 1e-12

Scalar = int | Fraction | float


def _canon(x):
    """Collapse integer-valued Fractions to int.

    Purely a fast path: int arithmetic is much cheaper than Fraction
    arithmetic and the two compare equal, so this never changes semantics.
    """
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


# A decimal literal split at its exponent: Fraction(mantissa) * 10**exponent.
_SCIENTIFIC = re.compile(r"([-+]?[\d_.]+)[eE]([-+]?\d+(?:_\d+)*)")
# The most digits str() gives an int; 0 for no limit, as before Python 3.10.7.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class DigitsError(ValueError):
    """A number, or the text of one, with more digits than str() prints or
    int() converts."""


# The most characters of an input that a message quotes.
_BRIEF = 40


def brief(text: str) -> str:
    """repr(text) for a one-line message: its start alone, and its length, if
    it is longer than `_BRIEF`."""
    return repr(text) if len(text) <= _BRIEF else f"{text[:_BRIEF]!r}... ({len(text)} characters)"


def _rational(text: str, exact: bool) -> Fraction:
    """Fraction(text), without raising 10 to an exponent that no report can
    print, or asking int() for a run of more digits than it converts.

    With `limit` the most digits str() prints, a nonzero value whose exponent
    is past `limit + len(text)`, or an integer of more than `limit` digits
    after its leading zeros, is beyond 10**limit or below 10**-limit in
    magnitude.  An exact ring refuses it with DigitsError; binary64 takes the
    bound 10**(limit+1), or 10**-(limit+1) with the value's sign, which
    overflows or rounds to the same signed zero as the value.  Other text
    with a run of more than `limit` digits is a DigitsError on both rings.
    """
    text = text.strip()
    limit = _max_str_digits()
    # Compiled on first use only: nothing shorter than `limit` needs them.
    if limit and len(text) > limit and any(len(run) > limit for run in re.findall(r"\d+", text)):
        integer = re.fullmatch(r"([-+]?)0*(\d+)", text)  # sign, digits from the first nonzero
        if integer is None:
            raise DigitsError(f"{brief(text)} has a run of more than {limit} digits")
        if len(integer[2]) <= limit:
            return Fraction(integer[1] + integer[2])
        exponent = mantissa = 1  # at least 10**limit: binary64 overflows at either sign
    else:
        match = _SCIENTIFIC.fullmatch(text)
        if match is None or not limit or abs(exponent := int(match[2])) <= limit + len(text):
            return Fraction(text)
        mantissa = Fraction(match[1])
        if not mantissa:
            return mantissa
    if exact:
        raise DigitsError(f"{brief(text)} has more than {limit} digits")
    bound = Fraction(10) ** (limit + 1 if exponent > 0 else -limit - 1)
    return bound if mantissa > 0 else -bound


def _compile(src: str, name: str):
    """The kernel `name` that `src` defines."""
    namespace = {"Fraction": Fraction, "_canon": _canon}
    exec(compile(src, f"<triprod kernel {name}>", "exec"), namespace)
    return namespace[name]


class _Kernels(dict):
    """Dimension -> the straight-line kernel `name` for it, made on first use.

    The kernel is `def <name><dim>(<params>):` with the lines `body(each)`
    returns, where `each(template)` is the tuple display of `template` with
    `{i}` put as each coefficient index in turn: no loop, one expression per
    coefficient.  Two threads may both make one; either gives the same
    results.
    """

    def __init__(self, name: str, params: str, body):
        super().__init__()
        self.name, self.params, self.body = name, params, body

    def __missing__(self, dim: int):
        def each(template: str) -> str:
            return f"({''.join(template.format(i=i) + ', ' for i in range(dim))})"

        name = f"{self.name}{dim}"
        src = f"def {name}({self.params}):\n{self.body(each)}"
        kernel = self[dim] = _compile(src, name)
        return kernel


class _Exact:
    """Rationals, int or Fraction: two sides are equal or they differ."""

    zero = 0
    one = 1
    tolerance = None

    @staticmethod
    def coerce(value) -> Scalar:
        if isinstance(value, float):
            raise TypeError("float coefficient not allowed on the exact backend")
        if isinstance(value, str):
            value = _rational(value, exact=True)
            scalar_str(value)  # DigitsError if no report could print it
        return _canon(value if isinstance(value, (int, Fraction)) else Fraction(value))

    from_ints = tuple

    # n/d times rationals, as the halvings in `decomp` and the suite's
    # 1/2*(...) are: p = n*x over d is an int wherever d divides p, for an int
    # or a Fraction p, and a Fraction in lowest terms elsewhere, so integral
    # products never become Fractions.  An integral Fraction `s` (a product
    # of scalars can be one) acts as the int `coerce` makes.
    scale = _Kernels("_scale", "s, a", lambda each: (
        f"    {each('a{i}')} = a\n"
        "    if type(s) is Fraction:\n"
        "        n, d = s.numerator, s.denominator\n"
        "        if d != 1:\n"
        "            if n != 1:\n"
        f"                {each('a{i}')} = {each('n * a{i}')}\n"
        f"            return {each('a{i} // d if not a{i} % d else Fraction(a{i}, d)')}\n"
        "        s = n\n"
        f"    return {each('p if type(p := s * a{i}) is int else _canon(p)')}\n"
    ))

    @staticmethod
    def finite(x) -> bool:
        return True

    @staticmethod
    def compare(lhs, rhs, tolerance, inputs, worst):
        # Equal sides pass at once; unequal ones fold the largest |x - y| in.
        if lhs == rhs:
            return worst, False
        pairs = zip(lhs, rhs) if isinstance(lhs, tuple) else [(lhs, rhs)]
        return max(worst, *[abs(x - y) for x, y in pairs]), True


class _Binary64:
    """IEEE 754 doubles: two sides differ beyond a tolerance relative to the
    largest input magnitude, or by a deviation that is not finite."""

    zero = 0.0
    one = 1.0
    tolerance = REL_TOL

    @staticmethod
    def coerce(value) -> float:
        if isinstance(value, str):
            value = _rational(value, exact=False)
        return float(value)

    @staticmethod
    def from_ints(ints) -> tuple:
        return tuple(map(float, ints))

    scale = _Kernels("_scale", "s, a", lambda each: (
        f"    {each('a{i}')} = a\n"
        f"    return {each('s * a{i}')}\n"
    ))

    finite = math.isfinite

    @staticmethod
    def compare(lhs, rhs, tolerance, inputs, worst):
        # The largest |x - y|, or a NaN wherever one occurs (`max` would keep
        # it only in first place).  Never `lhs == rhs`: inf == inf.
        dev = 0
        for x, y in zip(lhs, rhs) if isinstance(lhs, tuple) else [(lhs, rhs)]:
            d = abs(x - y)
            if not d <= dev:  # larger, or NaN
                dev = d
                if d != d:
                    break
        if not dev <= worst and worst == worst:  # a NaN, once in, stays
            worst = dev
        # An overflowed trial has an infinite or NaN deviation; NaN compares
        # false with everything, so `dev > bound` alone would pass it.
        if not math.isfinite(dev):
            return worst, True
        if dev <= ABS_TOL:  # within the bound's floor, whatever the inputs
            return worst, False
        scale = max((abs(c) for u in inputs for c in u), default=0.0)
        return worst, dev > max(ABS_TOL, tolerance * scale)


# Backend name -> scalar ring (a class used as a namespace).  `tolerance` is
# the ring's default, None where it takes none: such a ring's arithmetic is
# exact, so texts equal in value compute equal results.
# `scale[dim](s, xs)` multiplies `dim` coefficients `xs` by the ring scalar
# `s`, with the dimension's kernel;
# `compare(lhs, rhs, tolerance, inputs, worst)` decides a trial on
# coefficient tuples `inputs`: `(worst, failed)`, the largest deviation yet
# and whether the sides differ.
BACKENDS = {EXACT: _Exact, BINARY64: _Binary64}


# IEEE 754 gives the exact result of every operation whose exact result is a
# binary64 value (Higham 2002, §2.2), and n/d is one for each whole |n| and
# each power of two d below this.
EXACT_BELOW = 2**52


def binary64_twin(ring, bound: int, denominator: int):
    """The binary64 ring where it computes a check on `ring` exactly, and so
    gives its verdicts: where `ring` has no tolerance, and every value of the
    check is a whole number of magnitude at most `bound` over `denominator`,
    a power of two, both below EXACT_BELOW.  None elsewhere."""
    if (ring.tolerance is None and bound < EXACT_BELOW and denominator < EXACT_BELOW
            and not denominator & denominator - 1):
        return _Binary64
    return None


# No binary64 value of a check overflows, rounding included, where every
# exact value is below this in magnitude: rounding grows a value by far less
# than the factor 2**24 left below the largest float.
FINITE_BELOW = 2**1000


def equality_decides(ring, bound: int, denominator: int) -> bool:
    """Whether two sides that are `==` pass a trial on `ring`, as its
    `compare` decides, in a check whose every value is at most `bound` over
    `denominator` in magnitude: always where `ring` has no tolerance, and
    where the values are below FINITE_BELOW elsewhere.  Past that a value may
    overflow, and `==` takes an infinity for equal to itself, as a tuple does
    a NaN it holds twice."""
    return ring.tolerance is None or bound < FINITE_BELOW * denominator


def rational(x):
    """The exact ring's scalar of binary64 scalar `x`, of the same value."""
    return _canon(Fraction(x))


def scalar_ring(backend: str):
    """The ring of `backend` in `BACKENDS`; ValueError for an unknown name."""
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown backend {backend!r}") from None


def check_dim(dim) -> None:
    """The dimension rule: ValueError unless `dim` is an int in DIMS."""
    if type(dim) is not int or dim not in DIMS:
        raise ValueError(f"dimension must be one of {DIMS}, got {dim}")


def check_options(backend: str, tolerance, trials: int = 1, coeff_range: int = 1, seed=0,
                  dim: int = 8) -> float | None:
    """The rule every check's options follow, ValueError where they break it,
    for the first of them in this order: `dim` follows `check_dim`, `trials`
    and `coeff_range` are ints of at least 1 (a range of 0 samples only
    zeros, which pass false identities), an int `seed` is at least 0 (as
    `random.Random` seeds with |seed|, -1 would name the samples of 1),
    `backend` names a ring, samples up to `coeff_range` must be its scalars,
    and a `tolerance` other than None is taken only by a ring that has one
    and must be positive and finite.  Returns the tolerance the check
    compares with: `tolerance`, or the ring's default where it is None.  The
    defaults are those of a dim-8 check that draws no samples, as
    `check_identity_basis`."""
    check_dim(dim)
    for name, count in (("trials", trials), ("coeff_range", coeff_range)):
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be an int >= 1, got {count!r}")
    if isinstance(seed, int) and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
    ring = scalar_ring(backend)
    try:
        ring.coerce(coeff_range)
    except OverflowError:
        raise ValueError(f"coefficient range is too large for the {backend} backend") from None
    if tolerance is None:
        return ring.tolerance
    if ring.tolerance is None:
        raise ValueError(f"a tolerance applies only to {BINARY64}, not to {backend}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
    return tolerance


def coerce_scalar(value, backend: str) -> Scalar:
    """Convert `value` (int, Fraction, or string like "-3/4") to a backend scalar.

    Floats are accepted only on the binary64 backend; silently turning a float
    into an "exact" rational hides rounding that already happened.
    """
    return scalar_ring(backend).coerce(value)


def scalar_str(x: Scalar) -> str:
    """Lossless decimal string: "p/q" for rationals, shortest round-trip for
    floats; DigitsError for a rational with more digits than str() prints."""
    try:
        return repr(x) if isinstance(x, float) else str(x)
    except ValueError:
        raise DigitsError(f"a number has more than {_max_str_digits()} digits") from None


_new = object.__new__


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in `__slots__`, may give defaults for trailing
    fields in `_defaults`, and may leave fields out of `==` and `hash` by
    naming them in `_uncompared`.  A slot whose name starts with `_` is not a
    field but private state that `_check` fills: the constructor, `==`,
    `hash`, the repr and `__reduce__` leave it out, so a copy rebuilds it.
    When the subclass is defined, a constructor specialised to its fields is
    generated once; it takes them positionally or by keyword, except those
    named in `_derived`, which `__reduce__` also leaves out.  The constructor
    fills an instance of a twin class with the same layout that allows
    assignment, calls the subclass's `_check` if it has one (to validate, or
    to fill in the derived fields and the private state), and then makes the
    instance a member of the subclass, whose slots cannot be assigned or
    deleted.
    """

    __slots__ = ()
    _defaults = {}
    _uncompared = ()
    _derived = ()

    def __init_subclass__(cls, twin=False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(f for c in reversed(cls.__mro__) for f in vars(c).get("__slots__", ())
                       if f[0] != "_")
        if twin or not fields:
            return
        cls._fields = cls.__match_args__ = fields
        cls._open = type(cls.__name__, (cls,), {
            "__slots__": (),
            "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__,
        }, twin=True)
        cls._args = tuple(f for f in fields if f not in cls._derived)
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f for f in cls._args)
        body = "".join(f"    self.{f} = {f}\n" for f in cls._args)
        if hasattr(cls, "_check"):
            body += "    self._check()\n"
        key = "".join(f"self.{f}, " for f in fields if f not in cls._uncompared)
        src = (
            f"def __new__(cls, {params}):\n"
            f"    self = _new(_open)\n{body}"
            f"    self.__class__ = cls\n"
            f"    return self\n"
            f"def _key(self):\n"
            f"    return ({key})\n"
        )
        namespace = {"_new": _new, "_open": cls._open, "_defaults": cls._defaults}
        exec(compile(src, f"<{cls.__qualname__} record>", "exec"), namespace)
        cls.__new__ = staticmethod(namespace["__new__"])
        cls._key = namespace["_key"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._args)


class HNum(Record):
    """A hypercomplex number: `dim` coefficients over a single scalar backend."""

    __slots__ = ("dim", "coeffs", "backend")

    def _check(self):
        check_dim(self.dim)
        if len(self.coeffs) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(self.coeffs)}")
        scalar_ring(self.backend)

    # Operators are conveniences; the module-level functions are the API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return negate(self)

    def __mul__(self, other):
        if isinstance(other, HNum):
            return mul(self, other)
        return scale(other, self)

    def __rmul__(self, s):
        return scale(s, self)

    def __repr__(self):
        body = ", ".join(scalar_str(c) for c in self.coeffs)
        return f"HNum([{body}], backend={self.backend!r})"


_OpenHNum = HNum._open


def _hnum(dim: int, coeffs: tuple, backend: str) -> HNum:
    """An HNum from parts that are valid by construction, left unchecked."""
    u = _new(_OpenHNum)
    u.dim = dim
    u.coeffs = coeffs
    u.backend = backend
    u.__class__ = HNum
    return u


def hnum(values, backend: str = EXACT) -> HNum:
    """Build an HNum from a sequence of coefficients (length fixes the dimension)."""
    coeffs = tuple(coerce_scalar(v, backend) for v in values)
    return HNum(len(coeffs), coeffs, backend)


def zero(dim: int, backend: str = EXACT) -> HNum:
    check_dim(dim)
    return _hnum(dim, (scalar_ring(backend).zero,) * dim, backend)


def unit(dim: int, backend: str = EXACT) -> HNum:
    """The multiplicative unit i0: coefficient 1 at index 0, 0 elsewhere."""
    return basis(dim, 0, backend)


def basis(dim: int, k: int, backend: str = EXACT) -> HNum:
    """Canonical basis element e_k (e0 is the unit i0); ValueError unless `k`
    is an int (a bool is not one) below `dim`."""
    check_dim(dim)
    if type(k) is not int:
        raise ValueError(f"basis index must be an int, got {k!r}")
    if not 0 <= k < dim:
        raise ValueError(f"basis index {k} out of range for dimension {dim}")
    ring = scalar_ring(backend)
    z = ring.zero
    return _hnum(dim, (z,) * k + (ring.one,) + (z,) * (dim - 1 - k), backend)


def embed(u: HNum, dim: int) -> HNum:
    """Widen `u` into a larger algebra by zero-padding (explicit, never implicit)."""
    check_dim(dim)
    if dim < u.dim:
        raise ValueError(f"cannot embed dimension {u.dim} into {dim}")
    if dim == u.dim:
        return u
    z = BACKENDS[u.backend].zero
    return _hnum(dim, u.coeffs + (z,) * (dim - u.dim), u.backend)


def _check_same(a: HNum, b: HNum):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.backend != b.backend:
        raise ValueError(f"backend mismatch: {a.backend} vs {b.backend}")


def add(a: HNum, b: HNum) -> HNum:
    _check_same(a, b)
    return _hnum(a.dim, _ADD[a.dim](a.coeffs, b.coeffs), a.backend)


def sub(a: HNum, b: HNum) -> HNum:
    _check_same(a, b)
    return _hnum(a.dim, _SUB[a.dim](a.coeffs, b.coeffs), a.backend)


def negate(u: HNum) -> HNum:
    return _hnum(u.dim, tuple(-x for x in u.coeffs), u.backend)


def scale(s, u: HNum) -> HNum:
    ring = BACKENDS[u.backend]
    return _hnum(u.dim, ring.scale[u.dim](ring.coerce(s), u.coeffs), u.backend)


def _t_conj(t):
    return (t[0],) + tuple(-x for x in t[1:])


def _t_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _t_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _t_mul(a, b):
    # Doubling recursion on raw coefficient tuples; base case is the reals.
    # This is the definition of the product: `mul` runs the straight-line
    # kernels generated from it below.  The dim-4 case is part of that
    # definition: it has the recursion's products but adds them in another
    # order, so on floats its results differ from the plain recursion's in
    # the last bits, and the dim-4 and dim-8 kernels inherit its order.
    n = len(a)
    if n == 4:
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )
    if n == 1:
        return (a[0] * b[0],)
    h = n // 2
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    lo = _t_sub(_t_mul(a1, b1), _t_mul(_t_conj(b2), a2))
    hi = _t_add(_t_mul(b2, a1), _t_mul(a2, _t_conj(b1)))
    return lo + hi


class _Sym:
    """Operand that records the arithmetic done on it as Python source.

    Its value is `sign` times that of `src`.  A negation flips the sign and
    writes nothing, a product multiplies the signs, and a sum or difference
    writes the operator the signs make of it: `x - y` for `x + (-y)` and
    `y - x` for `(-x) + y`.  These are exact in IEEE 754, signed zeros
    included, and in the rationals.  `-(x + y)` for `(-x) + (-y)` is not:
    where x + y cancels to 0.0 it gives -0.0 and the recursion 0.0, so that
    sum, the one place a negation stays, is written `(-x) - y`.  Running
    `_t_mul` on tuples of these yields, per output coefficient, one
    expression with the products and sums of the recursion, nested in the
    order it performs them.
    """

    __slots__ = ("src", "sign")

    def __init__(self, src: str, sign: int = 1):
        self.src = src
        self.sign = sign

    def _sum(self, other, sign: int):
        """self + sign*other, with the signs folded into its operator."""
        if self.sign > 0:
            return _Sym(f"({self.src} {'+' if sign * other.sign > 0 else '-'} {other.src})")
        if sign * other.sign > 0:
            return _Sym(f"({other.src} - {self.src})")
        return _Sym(f"((-{self.src}) - {other.src})")

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __mul__(self, other):
        return _Sym(f"({self.src} * {other.src})", self.sign * other.sign)

    def __neg__(self):
        return _Sym(self.src, -self.sign)


def _generate_kernel(dim: int):
    """Straight-line product for one dimension, generated from `_t_mul`.

    Each coefficient is computed by the products and sums of the recursion in
    its order, with its negations folded into the sums (see `_Sym`), so
    results agree exactly, bit for bit on floats, except the sign of a NaN.
    An output whose sign ends negative is negated once; none of DIMS has one.
    """
    a = [f"a{i}" for i in range(dim)]
    b = [f"b{i}" for i in range(dim)]
    out = _t_mul(tuple(map(_Sym, a)), tuple(map(_Sym, b)))
    src = (
        f"def _mul{dim}(a, b):\n"
        f"    {', '.join(a)}, = a\n"
        f"    {', '.join(b)}, = b\n"
        f"    return ({', '.join(c.src if c.sign > 0 else f'(-{c.src})' for c in out)},)\n"
    )
    return _compile(src, f"_mul{dim}")


# One straight-line product per dimension, generated once at import.
_KERNELS = {dim: _generate_kernel(dim) for dim in DIMS}

# Vector sums and differences, per dimension: `x + y` and `x - y` per
# coefficient, as `_t_add` and `_t_sub`.
_ADD = _Kernels("_add", "a, b", lambda each: (
    f"    {each('a{i}')} = a\n"
    f"    {each('b{i}')} = b\n"
    f"    return {each('a{i} + b{i}')}\n"
))
_SUB = _Kernels("_sub", "a, b", lambda each: (
    f"    {each('a{i}')} = a\n"
    f"    {each('b{i}')} = b\n"
    f"    return {each('a{i} - b{i}')}\n"
))


def mul(a: HNum, b: HNum) -> HNum:
    """The algebra product.

    Associative for dim <= 4.  For dim 8 the product is alternative,
    (aa)b = a(ab) and (ab)b = a(bb), but not associative, so parenthesization
    matters everywhere octonions are involved.
    """
    _check_same(a, b)
    return _hnum(a.dim, _KERNELS[a.dim](a.coeffs, b.coeffs), a.backend)


def conj(u: HNum) -> HNum:
    """Conjugate: negate every coefficient except the unit's (index 0)."""
    return _hnum(u.dim, _t_conj(u.coeffs), u.backend)


def inner(a: HNum, b: HNum) -> Scalar:
    """Euclidean inner product of the coefficient vectors.

    Coincides with the unit coefficient of (a*conj(b) + b*conj(a)) / 2.
    """
    _check_same(a, b)
    # Left to right from int 0, as `sum` did before Python 3.12 began to
    # compensate float sums: binary64 results must not depend on the version.
    return reduce(_add, map(_mul, a.coeffs, b.coeffs), 0)


def norm_sq(u: HNum) -> Scalar:
    """Squared length (u, u); also the unit coefficient of u * conj(u)."""
    xs = u.coeffs
    return reduce(_add, map(_mul, xs, xs), 0)


def imaginary_part(u: HNum) -> HNum:
    """u with its unit coefficient zeroed."""
    return _hnum(u.dim, (BACKENDS[u.backend].zero,) + u.coeffs[1:], u.backend)


def real_coeff(u: HNum) -> Scalar:
    """The coefficient of the unit, equal to (u, i0)."""
    return u.coeffs[0]


def scalar_close(x, y, rel_tol: float = REL_TOL, scale: float | None = None) -> bool:
    """Whether binary64 scalars are close by the binary64 ring's `compare`,
    relative to `scale`, by default the larger magnitude of the two; a
    deviation that is not finite never is."""
    return not _Binary64.compare(x, y, rel_tol, [(x, y) if scale is None else (scale,)], 0.0)[1]


def allclose(a: HNum, b: HNum, rel_tol: float = REL_TOL) -> bool:
    """Whether `a` and `b` are close by the binary64 ring's `compare`, relative
    to their largest coefficient (the only valid binary64 equality)."""
    _check_same(a, b)
    return not _Binary64.compare(a.coeffs, b.coeffs, rel_tol, (a.coeffs, b.coeffs), 0.0)[1]


def coeff_str(u: HNum) -> str:
    """Comma-joined coefficient string, the same syntax the CLI accepts as input."""
    return ",".join(scalar_str(c) for c in u.coeffs)

