"""A small textual language for stating and checking hypercomplex identities.

Grammar (one identity per string):

    identity := expr "==" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | name | function "(" expr ("," expr)* ")"
              | "(" expr ")" | "-" factor

`rational` is an integer or p/q pair ("3", "1/2") in ASCII digits.  `i0` is
the multiplicative unit, `e0`..`e7` are basis elements, and every other
identifier is a free variable.  Functions: conj, im, re, inner, normsq, cross,
acomm (pair ops), cross3, acomm3, assoc (triple ops, central factor
conjugated internally).

`*` is left-associative and evaluation never reassociates it: octonion
multiplication is not associative, so parenthesization is semantically
significant at dim 8.  Expressions are sorted into scalar-valued (rational
literals, re, inner, normsq and their sums/products) and vector-valued
everything else; a scalar may multiply a vector only from the left.  Sort,
arity and nesting errors (beyond MAX_DEPTH levels) are reported at parse time
with a column number, and by a hand-built `Call` or `Identity` when it is
built, as are a hand-built `Num` whose value is not an int or a Fraction and
a `Basis` whose index is not an int (a bool is neither).  `_sort_of` is the
one walk over a tree, which also finds its degree and collects its leaves.
Each tree passes it once: an identity's sides when the `Identity` is built,
which keeps what the walk found, and `evaluate`'s expression when it is
called.  On those leaves `_checked` then refuses, leftmost first, a basis
element beyond the dimension, a literal beyond the backend or a degree above
MAX_DEGREE, so `_Gen` checks nothing.

Checking identities generates one straight-line function from both sides of
each, `f(v0, v1, ...) -> ((lhs, ...), (rhs, ...))` over coefficient tuples.
Every operation in it is chosen by sort and computed once, however often the
sides use it: each vector product, scaling, sum and difference is one call of
the dimension's kernel in `core`.  The functions of the language are expanded
into the operations of `core` and of the definitions in `decomp`, in their
order, once per function for each tuple of argument values.  `evaluate` and
the fast paths of `decomp` run the same kind of function.  Samples give each
free variable integer coefficients from a seeded generator, the values
`Random.randint` would draw in the same order, with the generator left in
the state those calls leave it.  They are drawn a block of trials at a time
(SAMPLE_BLOCK), most ranges with a few `getrandbits` calls per block
(`_sampler`), made the check's scalars in one conversion per block and cut
into coefficient tuples.  Variables are bound by position, so identities with
equally many free variables see the same samples: `check_identities` checks
those among each GROUP_SIZE lines together, with one function, and whatever
they share is computed once per trial.  A group is made when its first line
is due, from the lines of its batch with as many free variables.  Each report
is the one the identity gets when checked alone, byte for byte; they arrive
in bursts, a group's at once.  Every check passes its options, the dimension
among them, to one call of `core.check_options`, so each refuses the same
first bad option.  The ring's `compare` decides each trial, as no scalar
comparison is made here: whether the sides differ, exactly on the exact
backend, beyond the tolerance or not finite on binary64, and by how much.
Where no value can overflow (`core.equality_decides`), one `==` of the
group's left sides with its right sides passes a trial first, and an `==` of
an identity's sides passes it for that identity; only unequal sides reach
`compare`.  A PASS is a property-check verdict ("no counterexample found"),
not a proof.

An exact check computes in binary64 where a static bound proves that exact.
While writing a function, `_Gen` bounds each value as a whole number over a
denominator, in terms of the largest sample coefficient.  Where the ring's
tolerance is None, every denominator is a power of two and the largest whole
number is below 2**52 (`core.binary64_twin`), `_run_check` runs the same
code on float samples, with the binary64 ring's scaling kernel and float
constants.  IEEE 754 then gives every value exactly, so the sides are equal
as floats where they are equal as rationals.  Their differences are exact
too, whole numbers below 2**53 over the same power of two, so the exact
ring's `compare` decides each trial on the floats, and the largest deviation
is turned back into a rational once: the reports print as those of rational
arithmetic, byte for byte.  (An integral deviation is then an int, where
Fraction arithmetic may leave the equal Fraction(n, 1).)  A witness is turned
back into the integer samples.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import types
from fractions import Fraction

from .core import (
    _ADD,
    _KERNELS,
    _SUB,
    BACKENDS,
    DIMS,
    EXACT,
    HNum,
    Record,
    basis,
    binary64_twin,
    check_dim,
    check_options,
    coeff_str,
    equality_decides,
    rational,
    scalar_ring,
    scalar_str,
)

SCALAR = "scalar"
VECTOR = "vector"

PASS = "PASS"
FAIL = "FAIL"
PARSE_ERROR = "PARSE_ERROR"

# Deepest accepted nesting, and deepest expression tree.  Parsing, sort
# checking, rendering and generating an identity's function each recurse a
# few frames per level, so this keeps all of them far below Python's recursion
# limit; the generated function itself is straight-line code.
MAX_DEPTH = 100

# Highest accepted polynomial degree of a side in its variables' coefficients:
# an exact value's size grows with it, and one `normsq` doubles it.
MAX_DEGREE = 64

# Identities parsed and grouped at a time, so also the most checked by one
# generated function: what a check holds at once grows with it.
GROUP_SIZE = 64

# Trials whose samples are drawn at a time: what a check holds of its samples
# grows with it, not with the number of trials.
SAMPLE_BLOCK = 1024

# The highest index a basis name may give, that of the widest algebra's last
# element; a check refuses one beyond its own dimension.
_TOP_BASIS = max(DIMS) - 1


class ParseError(ValueError):
    """Syntax, arity or sort error, with a 1-based column number."""

    def __init__(self, message: str, col: int):
        super().__init__(f"col {col}: {message}")
        self.message = message
        self.col = col


class EvalError(ValueError):
    """`evaluate`'s refusal: an unbound variable, or a tree a check would refuse."""


# ---------------------------------------------------------------------------
# Abstract syntax


class Node(Record):
    """Base of the syntax tree nodes: `col` is the 1-based source column, kept
    for error messages and left out of equality and hashing."""

    __slots__ = ()
    _defaults = {"col": 0}
    _uncompared = ("col",)


class Var(Node):
    __slots__ = ("name", "col")


class Num(Node):
    __slots__ = ("value", "col")

    def _check(self):
        if type(self.value) not in (int, Fraction):
            raise ParseError(f"literal {self.value!r} is not an int or a Fraction", self.col)


class Unit(Node):
    __slots__ = ("col",)


class Basis(Node):
    __slots__ = ("index", "col")

    def _check(self):
        if type(self.index) is not int:
            raise ParseError(f"basis index {self.index!r} is not an int", self.col)


class Neg(Node):
    __slots__ = ("operand", "col")


class Add(Node):
    __slots__ = ("left", "right", "col")


class Sub(Node):
    __slots__ = ("left", "right", "col")


class Mul(Node):
    __slots__ = ("left", "right", "col")


class Call(Node):
    __slots__ = ("func", "args", "col")

    def _check(self):
        if self.func not in FUNCTIONS:
            raise ParseError(f"unknown function {self.func!r}", self.col)
        arity = FUNCTIONS[self.func][0]
        if len(self.args) != arity:
            raise ParseError(f"{self.func} takes {arity} argument{'s' if arity != 1 else ''}, "
                             f"got {len(self.args)}", self.col)


Expr = Var | Num | Unit | Basis | Neg | Add | Sub | Mul | Call


class Identity(Node):
    """Two expressions of equal sort, `col` being that of `==`; the free
    variables, in order of appearance, and the sort are derived from them.
    The one walk over both sides also keeps, in the private `_leaves`, what
    `_checked` needs of them, so a check walks neither side again."""

    __slots__ = ("text", "lhs", "rhs", "col", "free_vars", "sort", "_leaves")
    _derived = ("free_vars", "sort")

    def _check(self):
        leaves = []
        (ls, _), (rs, _) = _sort_of(self.lhs, leaves), _sort_of(self.rhs, leaves)
        if ls != rs:
            raise ParseError(f"left side is {ls}-valued but right side is {rs}-valued", self.col)
        self.free_vars = tuple(dict.fromkeys(x.name for x in leaves if isinstance(x, Var)))
        self.sort = ls
        self._leaves = tuple(leaves)


# ---------------------------------------------------------------------------
# Lexer

# ASCII only: str.isdigit also accepts characters such as '²', which Fraction
# and int reject.
_DIGITS = "0123456789"


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1] in _DIGITS:
                j += 2
                while j < n and text[j] in _DIGITS:
                    j += 1
            tokens.append(("NUMBER", text[i:j], col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalpha() or text[j] in _DIGITS or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], col))
            i = j
            continue
        if text.startswith("==", i):
            tokens.append(("OP", "==", col))
            i += 2
            continue
        if ch in "+-*(),":
            tokens.append(("OP", ch, col))
            i += 1
            continue
        if ch == "=":
            raise ParseError("single '=' (use '==')", col)
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(("EOF", "", n + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def nested(self, parse, col: int) -> Expr:
        """Run `parse` one nesting level down: a parenthesis, a call argument
        or the operand of a unary minus."""
        if self.depth >= MAX_DEPTH:
            raise _too_deep(col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def accept(self, ops: str):
        """The next token, consumed, if it is one of the operators `ops` (the
        characters of a string, or "=="); None, consuming nothing, if not."""
        tok = self.tokens[self.pos]
        if tok[0] == "OP" and tok[1] in ops:
            self.pos += 1
            return tok
        return None

    def expect(self, value: str):
        tok = self.accept(value)
        if tok is None:
            _, text, col = self.tokens[self.pos]
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", col)
        return tok

    def parse_identity(self) -> tuple:
        lhs = self.parse_expr()
        eq_col = self.expect("==")[2]
        rhs = self.parse_expr()
        kind, text, col = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"unexpected trailing input {text!r}", col)
        return lhs, rhs, eq_col

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while tok := self.accept("+-"):
            node = (Add if tok[1] == "+" else Sub)(node, self.parse_term(), tok[2])
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while tok := self.accept("*"):
            node = Mul(node, self.parse_factor(), tok[2])
        return node

    def parse_factor(self) -> Expr:
        kind, text, col = self.tokens[self.pos]
        self.pos += 1
        if kind == "OP" and text == "-":
            return Neg(self.nested(self.parse_factor, col), col)
        if kind == "OP" and text == "(":
            node = self.nested(self.parse_expr, col)
            self.expect(")")
            return node
        if kind == "NUMBER":
            try:
                value = Fraction(text)
            except ZeroDivisionError:
                raise ParseError("zero denominator", col) from None
            except ValueError:  # more digits than int() converts
                raise ParseError("number too long", col) from None
            return Num(value, col)
        if kind == "NAME":
            return self.parse_name(text, col)
        raise ParseError(f"expected expression, found {text or 'end of input'!r}", col)

    def parse_name(self, name: str, col: int) -> Expr:
        if name in FUNCTIONS:
            self.expect("(")
            args = [self.nested(self.parse_expr, col)]
            while self.accept(","):
                args.append(self.nested(self.parse_expr, col))
            self.expect(")")
            return Call(name, tuple(args), col)
        if name == "i0":
            return Unit(col)
        if name[0] == "e" and name[1:].isdigit():
            # The length first: int() refuses names of thousands of digits.
            index = name[1:].lstrip("0") or "0"
            if len(index) > len(str(_TOP_BASIS)) or int(index) > _TOP_BASIS:
                raise ParseError(f"no basis element {name} (e0..e{_TOP_BASIS})", col)
            return Basis(int(index), col)
        return Var(name, col)


def _sort_of(expr: Expr, leaves: list, depth: int = 1) -> tuple:
    """`(sort, degree)` of an expression, in the one walk over a tree, which
    appends to `leaves` its leaves, left to right, and each node whose degree
    passes MAX_DEGREE where its operands' do not; ParseError on sort
    violations, and on a tree deeper than MAX_DEPTH (a long chain such as
    u+u+...+u is one).  The degree is that of the polynomial in the free
    variables' coefficients: a product adds its factors' degrees."""
    if depth > MAX_DEPTH:
        raise _too_deep(expr.col)
    depth += 1
    if isinstance(expr, (Num, Var, Unit, Basis)):
        leaves.append(expr)
        return SCALAR if isinstance(expr, Num) else VECTOR, int(isinstance(expr, Var))
    if isinstance(expr, Neg):
        return _sort_of(expr.operand, leaves, depth)
    if isinstance(expr, (Add, Sub, Mul)):
        ls, ld = _sort_of(expr.left, leaves, depth)
        rs, rd = _sort_of(expr.right, leaves, depth)
        if not isinstance(expr, Mul):
            if ls != rs:
                raise ParseError(f"cannot add/subtract {ls} and {rs} values", expr.col)
            return ls, max(ld, rd)
        if ls == VECTOR and rs == SCALAR:
            raise ParseError("scalar factor must be the left operand of '*'", expr.col)
        sort, degrees = SCALAR if (ls, rs) == (SCALAR, SCALAR) else VECTOR, (ld, rd)
    elif isinstance(expr, Call):
        degrees = []
        for arg in expr.args:
            sort, degree = _sort_of(arg, leaves, depth)
            if sort != VECTOR:
                raise ParseError(f"{expr.func} takes vector arguments", expr.col)
            degrees.append(degree)
        sort = FUNCTIONS[expr.func][1]
        if expr.func == "normsq":  # inner(u1, u1): its argument is a factor twice
            degrees *= 2
    else:
        raise TypeError(f"unknown node {expr!r}")
    if sum(degrees) > MAX_DEGREE >= max(degrees):
        leaves.append(expr)
    return sort, sum(degrees)


def _too_deep(col: int) -> ParseError:
    return ParseError(f"expression nested too deeply (more than {MAX_DEPTH} levels)", col)


def _checked(leaves, dim: int, backend: str) -> tuple:
    """The free variables among `leaves`, what `_sort_of` collected from
    trees that passed its sort and depth rules, once they pass the rules that
    depend on the check: ParseError for the leftmost basis element beyond
    `dim`, literal beyond `backend` or node of degree above MAX_DEGREE."""
    coerce = scalar_ring(backend).coerce
    # By column: a node of too high a degree follows its operands' leaves.
    for leaf in sorted(leaves, key=lambda leaf: leaf.col):
        if isinstance(leaf, (Mul, Call)):
            raise ParseError(f"polynomial degree above {MAX_DEGREE}", leaf.col)
        if isinstance(leaf, Basis) and not 0 <= leaf.index < dim:
            raise ParseError(f"basis element e{leaf.index} does not exist at dimension {dim}",
                             leaf.col)
        if isinstance(leaf, Num):
            try:
                coerce(leaf.value)
            except OverflowError:
                raise ParseError(f"number too large for the {backend} backend", leaf.col) from None
    return tuple(dict.fromkeys(leaf.name for leaf in leaves if isinstance(leaf, Var)))


def parse(text: str) -> Identity:
    """Parse one identity line; the Identity sort-checks both sides."""
    return Identity(text, *_Parser(text).parse_identity())


def pretty(expr: Expr) -> str:
    """Render an expression; parse(pretty(e)) reproduces e."""
    return _render(expr, 0)


def _render(expr: Expr, parent_prec: int) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Unit):
        return "i0"
    if isinstance(expr, Basis):
        return f"e{expr.index}"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(_render(a, 0) for a in expr.args)})"
    if isinstance(expr, Neg):
        body = f"-{_render(expr.operand, 3)}"
        return f"({body})" if parent_prec > 3 else body
    if isinstance(expr, (Add, Sub)):
        op = " + " if isinstance(expr, Add) else " - "
        body = f"{_render(expr.left, 1)}{op}{_render(expr.right, 2)}"
        return f"({body})" if parent_prec > 1 else body
    if isinstance(expr, Mul):
        body = f"{_render(expr.left, 2)}*{_render(expr.right, 3)}"
        return f"({body})" if parent_prec > 2 else body
    raise TypeError(f"unknown node {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation: one generated function per identity


class _Gen:
    """Writes one straight-line function, statement by statement.

    A value is the name of a local or a constant, possibly negated.  A
    vector's holds its coefficient tuple, and `parts` maps it to the values
    of its coefficients once they are known.  Each operation is one statement,
    value-numbered by its source text: an operation already written on the
    same values is not written again, so whatever the two sides share is
    computed once.  A call of a function of the language is value-numbered
    by its name and its argument values, so it is expanded once.  A tuple of
    names, maybe negated (what `conj`, `im` and a vector's negation make), is
    written by `read` only where it is read whole, by a kernel or as a
    result, and a vector's unpacking into its parts only where a part is
    read, so no statement is left unread.  Vector products, scalings, sums
    and differences call the dimension's kernels in `core` (`_mul`, the
    ring's `_scale`, `_add`, `_sub`), as `core`'s functions do; inner
    products are unrolled into the scalar operations of `core.inner`, in its
    order, so the results are those of `core` bit for bit.  The source names
    only `v<i>` (the coefficients bound to an expression's i-th free
    variable), locals `t<n>`, constants `k<n>` and a vector's coefficients
    `<name>_<i>`: no identity text reaches it.

    Each value also gets a static bound `(c, d, den)` in `bounds`: `den`
    times the value is a whole number of magnitude at most `c * R**d` where
    no variable's coefficient passes R in magnitude (`_widen`, `_times`).
    A vector's bound holds for each coefficient, and a product kernel's or
    an inner product's for each of its partial sums, sums of at most `dim`
    products.  `top` bounds every value at once, variables and constants
    included: `0*x` hides a large `x` from the values that read it.
    """

    def __init__(self, dim: int, backend: str, params: int):
        self.dim = dim
        self.backend = backend
        self.ring = BACKENDS[backend]
        self.ns = {"_mul": _KERNELS[dim], "_scale": self.ring.scale[dim],
                   "_add": _ADD[dim], "_sub": _SUB[dim]}
        self.vars = {}
        self.parts = dict.fromkeys(f"v{i}" for i in range(params))
        self.bounds = dict.fromkeys(self.parts, (1, 1, 1))
        self.top = (1, 1, 1)
        self.memo = {}
        self.lines = []
        self.names = itertools.count()
        self.unwritten = {}  # vector of names -> its tuple's source
        self.unpackings = {}  # vector -> the statement unpacking it, until a part is read

    def bound(self, x: str) -> tuple:
        return self.bounds[x.lstrip("-")]

    def note(self, name: str, bound: tuple):
        self.bounds[name] = bound
        self.top = _widen(self.top, bound)

    def let(self, src: str, bound: tuple, vector: bool = False) -> str:
        name = self.memo.get(src)
        if name is None:
            name = self.memo[src] = f"t{next(self.names)}"
            self.lines.append(f"    {name} = {src}\n")
            self.note(name, bound)
            if vector:
                self.parts[name] = None
        return name

    def const(self, value, bound: tuple | None = None) -> str:
        """The name of constant `value`; a tuple's `bound` is given."""
        key = (type(value), value)
        name = self.memo.get(key)
        if name is None:
            name = self.memo[key] = f"k{len(self.ns)}"
            self.ns[name] = value
            if bound is None:
                q = Fraction(value)
                bound = max(q.numerator, -q.numerator), 0, q.denominator
            self.note(name, bound)
        return name

    def vec(self, elems: list) -> str:
        """The vector of `elems`, names maybe negated: it needs no unpacking,
        and is written only once read whole."""
        src = _tuple(elems)
        name = self.memo.get(src)
        if name is None:
            name = self.memo[src] = f"t{next(self.names)}"
            self.parts[name] = elems
            self.bounds[name] = functools.reduce(_widen, map(self.bound, elems))
            self.unwritten[name] = src
        return name

    def split(self, v: str, parts: list):
        """Give vector `v` its `parts`: the vector of just these, in order,
        is `v`."""
        self.parts[v] = parts
        self.memo[_tuple(parts)] = v

    def read(self, x: str) -> str:
        """`x`, read by the statement about to be written: the tuple of a
        vector of names is written first, and so is the unpacking that gives
        a part `<name>_<i>`."""
        src = self.unwritten.pop(x, None)
        if src is not None:
            for part in self.parts[x]:
                self.read(part)
            self.lines.append(f"    {x} = {src}\n")
        unpacking = self.unpackings.pop(x.lstrip("-").rpartition("_")[0], None)
        if unpacking is not None:
            self.lines.append(unpacking)
        return x

    def elems(self, v: str) -> list:
        """The parts of vector `v`; the statement unpacking them is written
        when the first is read, so an unread one is never written."""
        if self.parts[v] is None:
            parts = [f"{v}_{i}" for i in range(self.dim)]
            self.unpackings[v] = f"    {', '.join(parts)}, = {v}\n"
            self.bounds.update(dict.fromkeys(parts, self.bounds[v]))
            self.split(v, parts)
        return self.parts[v]

    def op(self, sym: str, a: str, b: str) -> str:
        bound = _widen(self.bound(a), self.bound(b), operator.add)
        if a in self.parts:
            kernel = "_add" if sym == "+" else "_sub"
            return self.let(f"{kernel}({self.read(a)}, {self.read(b)})", bound, vector=True)
        return self.let(f"{self.read(a)} {sym} {self.read(b)}", bound)

    def neg(self, a: str) -> str:
        if a in self.parts:
            return self.vec([_negated(x) for x in self.elems(a)])
        return a[1:] if a[0] == "-" else self.let(f"-{self.read(a)}", self.bound(a))

    def mul(self, a: str, b: str) -> str:
        if a in self.parts:
            bound = _times(self.bound(a), self.bound(b), self.dim)
            return self.let(f"_mul({self.read(a)}, {self.read(b)})", bound, vector=True)
        bound = _times(self.bound(a), self.bound(b))
        if b in self.parts:
            return self.let(f"_scale({self.read(a)}, {self.read(b)})", bound, vector=True)
        return self.let(f"{self.read(a)} * {self.read(b)}", bound)

    def value(self, expr: Expr) -> str:
        """The value of `expr`, after writing the statements it needs."""
        if isinstance(expr, Num):
            return self.const(self.ring.coerce(expr.value))
        if isinstance(expr, Var):
            return self.vars[expr.name]
        if isinstance(expr, (Unit, Basis)):
            coeffs = basis(self.dim, getattr(expr, "index", 0), self.backend).coeffs  # i0 is e0
            name = self.const(coeffs, (1, 0, 1))
            self.split(name, [self.const(c) for c in coeffs])
            return name
        if isinstance(expr, Neg):
            return self.neg(self.value(expr.operand))
        if isinstance(expr, Call):
            args = [self.value(arg) for arg in expr.args]
            # Never a statement's key (a str) nor a constant's (a type first).
            key = (expr.func, *args)
            value = self.memo.get(key)
            if value is None:
                body = FUNCTIONS[expr.func][2]
                if isinstance(body, str):
                    outer, self.vars = self.vars, dict(zip(("u1", "u2", "u3"), args))
                    value = self.value(_body(body))
                    self.vars = outer
                else:
                    value = body(self, *args)
                self.memo[key] = value
            return value
        a, b = self.value(expr.left), self.value(expr.right)
        if isinstance(expr, Mul):
            return self.mul(a, b)
        return self.op("+" if isinstance(expr, Add) else "-", a, b)

    # The functions of the language that `core` computes coefficient-wise.

    def conj(self, a):
        first, *rest = self.elems(a)
        return self.vec([first, *map(_negated, rest)])

    def im(self, a):
        return self.vec([self.const(self.ring.zero), *self.elems(a)[1:]])

    def re(self, a):
        return self.elems(a)[0]

    def inner(self, a, b):
        # Left to right from int 0, as `core.inner`: `+` associates left.
        terms = [f"{self.read(x)} * {self.read(y)}" for x, y in zip(self.elems(a), self.elems(b))]
        bound = _times(self.bound(a), self.bound(b), self.dim)
        return self.let(" + ".join([self.const(0), *terms]), bound)


def _negated(x: str) -> str:
    """The negation of a part, a name maybe negated: -(-x) is x, bit for bit."""
    return x[1:] if x[0] == "-" else f"-{x}"


def _tuple(names) -> str:
    """The source of the tuple of `names`."""
    return f"({', '.join(names)},)"


def _widen(x: tuple, y: tuple, join=max) -> tuple:
    """The bound of a sum (`join` add) of values bounded by `x` and `y`, or
    of either one (`join` max), over their least common denominator."""
    den = math.lcm(x[2], y[2])
    return join(x[0] * (den // x[2]), y[0] * (den // y[2])), max(x[1], y[1]), den


def _times(x: tuple, y: tuple, terms: int = 1) -> tuple:
    """The bound of a sum of `terms` products of values bounded by `x` and `y`."""
    return terms * x[0] * y[0], x[1] + y[1], x[2] * y[2]


@functools.cache
def _body(text: str) -> Expr:
    """The tree of definition text, a body in FUNCTIONS or a form in `decomp`,
    parsed once."""
    return _Parser(text).parse_expr()


# name -> (arity, result sort, definition): the generator's method, or the
# function in the language itself, over arguments u1, u2, u3, operation for
# operation as `core.norm_sq` and the definitions in `decomp` compute it.
FUNCTIONS = {
    "conj": (1, VECTOR, _Gen.conj),
    "im": (1, VECTOR, _Gen.im),
    "re": (1, SCALAR, _Gen.re),
    "inner": (2, SCALAR, _Gen.inner),
    "normsq": (1, SCALAR, "inner(u1, u1)"),
    "cross": (2, VECTOR, "1/2*(u1*u2 - u2*u1)"),
    "acomm": (2, VECTOR, "1/2*(u1*u2 + u2*u1)"),
    "cross3": (3, VECTOR, "1/2*((u1*conj(u2))*u3 - u3*(conj(u2)*u1))"),
    "acomm3": (3, VECTOR, "1/2*((u1*conj(u2))*u3 + (u3*conj(u2))*u1)"),
    "assoc": (3, VECTOR, "1/2*((u1*conj(u2))*u3 - u1*(conj(u2)*u3))"),
}


def _source(exprs, names, dim: int, backend: str, pairs: bool = False) -> tuple:
    """The source of `_generate`'s function, and the `_Gen` that wrote it:
    the function runs in its `ns`, and its `top` bounds the values."""
    count = max(map(len, names), default=0)
    gen = _Gen(dim, backend, count)
    outs = []
    for expr, expr_names in zip(exprs, names):
        gen.vars = {name: f"v{i}" for i, name in enumerate(expr_names)}
        outs.append(gen.read(gen.value(expr)))
    if pairs:
        outs = [_tuple(outs[0::2]), _tuple(outs[1::2])]
    params = ", ".join(f"v{i}" for i in range(count))
    return f"def f({params}):\n{''.join(gen.lines)}    return {_tuple(outs)}\n", gen


def _generate(exprs, names, dim: int, backend: str, pairs: bool = False):
    """`f(v0, v1, ...)`: the tuple of the values of `exprs`, each a coefficient
    tuple or a scalar, when `vi` is the coefficient tuple of `names[k][i]` in
    `exprs[k]`.  Expressions that bind the same tuples share their operations.
    With `pairs`, `exprs` alternate the left and right sides of identities,
    and `f` returns the tuple of the left sides' values and that of the right
    sides'.  With `f`, the bound `_Gen.top` of every value it computes."""
    src, gen = _source(exprs, names, dim, backend, pairs)
    exec(compile(src, "<triprod identity>", "exec"), gen.ns)
    return gen.ns["f"], gen.top


def evaluate(expr: Expr, env: dict, dim: int, backend: str = EXACT):
    """Evaluate to an HNum or a scalar, by generating `expr`'s function and
    calling it once.

    Multiplication follows source order; chains are evaluated left to right
    exactly as parsed.  All free variables must be bound in `env` to HNums of
    the requested dimension and backend.  ValueError for a dimension or
    backend that does not exist; EvalError for an unbound variable, and, with
    the message a check reports, for a tree `parse` refuses (a sort or depth
    error), a basis element beyond `dim` or a number beyond the backend's.
    """
    check_dim(dim)
    leaves = []
    try:
        _sort_of(expr, leaves)
        names = _checked(leaves, dim, backend)
    except ParseError as err:
        raise EvalError(err.message) from None
    args = []
    for name in names:
        if name not in env:
            raise EvalError(f"unbound variable {name!r}")
        u = env[name]
        if (u.dim, u.backend) != (dim, backend):
            raise ValueError(f"{name} is not a dimension {dim} {backend} value")
        args.append(u.coeffs)
    (value,) = _generate((expr,), (names,), dim, backend)[0](*args)
    return HNum(dim, value, backend) if isinstance(value, tuple) else value


# ---------------------------------------------------------------------------
# Identity checking


class CheckReport(Record):
    """Outcome of one identity check.

    On the exact backend a PASS means no counterexample was found over the
    sample; max_deviation is 0 there.  `witness` holds the variable assignment
    of the first failing trial, if any; `message` the parse error, if any.
    """

    __slots__ = ("identity", "dim", "backend", "trials", "failures", "max_deviation",
                 "witness", "status", "seed", "message")
    _defaults = {"message": ""}


def _run_check(identities, samples, dim, backend, tolerance, seed, coeff_range) -> list:
    """Reports for identities with equally many free variables, checked
    together: `samples(ring)` yields each trial's sample in `ring`'s scalars,
    a tuple of coefficient tuples bound to each identity's free variables in
    order, and one generated function gives the tuple of the left sides and
    that of the right sides, so whatever they share is computed once.

    Where no sample coefficient passes `coeff_range` in magnitude and
    `core.binary64_twin` finds that binary64 computes every value of the
    function exactly, the function runs on float samples.  Its sides, and so
    the differences `compare` takes, are then exact, and the largest is
    turned back into a rational once, for the report.  Where
    `core.equality_decides` finds that `==` decides a trial as `compare`
    does, a trial whose sides are all equal passes with no `compare` call,
    and so does an identity whose sides are equal."""
    ring = BACKENDS[backend]
    names = [identity.free_vars for identity in identities for _ in (0, 1)]
    exprs = [side for identity in identities for side in (identity.lhs, identity.rhs)]
    sides, (c, d, den) = _generate(exprs, names, dim, backend, True)
    bound = c * coeff_range**d
    floats = binary64_twin(ring, bound, den)
    if floats:
        sides = _on_ring(sides, floats, dim)
    equality = equality_decides(ring, bound, den)
    compare = ring.compare
    count = len(identities)
    trials = 0
    failures = [0] * count
    max_devs = [ring.zero] * count
    witnesses = [None] * count
    for args in samples(floats or ring):
        trials += 1
        lhs, rhs = sides(*args)
        if equality and lhs == rhs:
            continue
        for k, x, y in zip(range(count), lhs, rhs):
            if equality and x == y:
                continue
            max_devs[k], failed = compare(x, y, tolerance, args, max_devs[k])
            if failed:
                failures[k] += 1
                if witnesses[k] is None:
                    witnesses[k] = {name: HNum(dim, tuple(map(rational, a)) if floats else a,
                                               backend)
                                    for name, a in zip(identities[k].free_vars, args)}
    if floats:
        max_devs = list(map(rational, max_devs))
    return [
        CheckReport(
            identity=identity.text, dim=dim, backend=backend, trials=trials,
            failures=failures[k], max_deviation=max_devs[k], witness=witnesses[k],
            status=PASS if failures[k] == 0 else FAIL, seed=seed,
        )
        for k, identity in enumerate(identities)
    ]


def _on_ring(f, ring, dim: int):
    """Generated function `f` on `ring`: the same code, with `ring`'s scaling
    kernel and its scalars for the constants `k<n>`."""
    ns = f.__globals__
    consts = {name: ring.from_ints(value) if type(value) is tuple else ring.coerce(value)
              for name, value in ns.items() if name[0] == "k"}
    return types.FunctionType(f.__code__, {**ns, **consts, "_scale": ring.scale[dim]})


def _prepare(identity, dim: int, backend: str, seed):
    """The identity, parsed if it was text, or its PARSE_ERROR report; the
    check's rules apply to the leaves the identity's walk kept."""
    text = identity if isinstance(identity, str) else identity.text
    try:
        if isinstance(identity, str):
            identity = parse(identity)
        _checked(identity._leaves, dim, backend)
    except ParseError as err:
        return CheckReport(
            identity=text, dim=dim, backend=backend, trials=0, failures=0,
            max_deviation=0, witness=None, status=PARSE_ERROR, seed=seed,
            message=str(err),
        )
    return identity


def _sampler(rng: random.Random, bound: int):
    """`draw(count)`: the list of the next `count` values of
    `rng.randint(-bound, bound)`, leaving `rng` in the state those calls do.

    `randint` runs a rejection loop (`Random._randbelow`): it takes the top
    `k` bits of the generator's next 32-bit word, k the length of
    n = 2*bound + 1, until they are below n.  Where k is at most 8, `draw`
    works in rounds instead, one `getrandbits` call each, for a word per
    value still missing (CPython puts the first word lowest on every host):
    `bytes.translate` keeps each word's top byte, deletes those whose top k
    bits are n or more and maps the others to their values.  A round accepts
    at most as many words as values are missing, so it takes each word that
    `randint` would take, for a value or to reject it, and no other.  A wider
    range draws value by value, with `randint`'s loop minus its two Python
    calls per value.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    if k <= 8:
        shift = 8 - k
        values = bytes((b >> shift) - bound & 0xFF for b in range(256))  # as signed bytes
        rejected = bytes(b for b in range(256) if b >> shift >= n)

        def draw(count: int) -> list:
            out = b""
            while missing := count - len(out):
                words = getrandbits(32 * missing).to_bytes(4 * missing, "little")
                out += words[3::4].translate(values, rejected)
            return memoryview(out).cast("b").tolist()

        return draw

    def draw(count: int) -> list:
        out = []
        while len(out) < count:
            r = getrandbits(k)
            if r < n:
                out.append(r - bound)
        return out

    return draw


def _checks(identities, samples, dim, backend, tolerance, seed, coeff_range):
    """Yield a report per identity, in order, taking GROUP_SIZE at a time.
    When the first of a batch's identities with `count` free variables is
    due, its group, all of those, is made and checked together by
    `_run_check` on the samples `samples(count, ring)` yields in `ring`'s
    scalars, whose coefficients are at most `coeff_range` in magnitude."""
    identities = iter(identities)
    while batch := [_prepare(identity, dim, backend, seed)
                    for identity in itertools.islice(identities, GROUP_SIZE)]:
        reports = {}  # free-variable count -> its group's reports, in order
        for item in batch:
            if isinstance(item, CheckReport):
                yield item
                continue
            count = len(item.free_vars)
            if count not in reports:
                group = [x for x in batch
                         if not isinstance(x, CheckReport) and len(x.free_vars) == count]
                reports[count] = iter(_run_check(group, functools.partial(samples, count), dim,
                                                backend, tolerance, seed, coeff_range))
            yield next(reports[count])


def check_identities(identities, dim: int = 8, backend: str = EXACT, trials: int = 1000,
                     seed: int = 42, coeff_range: int = 9, tolerance: float | None = None):
    """Randomized check of each identity, as `check_identity`: yields its
    report for each one, in order.

    Every identity with `n` free variables sees the same samples, the ones a
    generator seeded with `seed` draws for `n` variables.  So of each
    GROUP_SIZE identities in turn, those with equally many free variables are
    checked together, and what they share is computed once per trial.  The
    reports are those `check_identity` gives, byte for byte, but they arrive
    in bursts: a group's all at once, when its first is due.  ValueError at
    once where `check_identity` refuses the options, whatever the identities.
    """
    tolerance = check_options(backend, tolerance, trials, coeff_range, seed, dim)

    def samples(count, ring):
        # A block of trials' coefficients is drawn and made `ring`'s scalars
        # at once, then cut into coefficient tuples, `count` to a trial.
        if not count:  # zip() of no vectors makes no trials
            yield from itertools.repeat((), trials)
            return
        draw = _sampler(random.Random(seed), coeff_range)
        for start in range(0, trials, SAMPLE_BLOCK):
            size = dim * count * min(SAMPLE_BLOCK, trials - start)
            vectors = zip(*[iter(ring.from_ints(draw(size)))] * dim)
            yield from zip(*[vectors] * count)

    return _checks(identities, samples, dim, backend, tolerance, seed, coeff_range)


def check_identity(identity, dim: int = 8, backend: str = EXACT, trials: int = 1000,
                   seed: int = 42, coeff_range: int = 9,
                   tolerance: float | None = None) -> CheckReport:
    """Randomized check: free variables get integer coefficients in
    [-coeff_range, coeff_range] from a generator seeded with `seed`.

    Deterministic: identical (identity, dim, backend, trials, seed,
    coeff_range) inputs produce identical reports.  `identity` may be an
    Identity or a source string; parse failures yield a PARSE_ERROR report
    rather than raising.  A `tolerance` of None is the ring's default:
    `REL_TOL` on binary64, none on exact.  ValueError where
    `core.check_options` refuses the options, naming the first bad one in its
    order: a dimension outside DIMS, a `trials` or `coeff_range` that is not
    an int of at least 1, a negative `seed`, an unknown backend, a range
    beyond what the backend's scalars hold, a tolerance on a backend that
    takes none or one that is not positive and finite.
    """
    return next(check_identities((identity,), dim, backend, trials, seed, coeff_range,
                                 tolerance))


def check_identity_basis(identity, dim: int = 8, backend: str = EXACT,
                         tolerance: float | None = None) -> CheckReport:
    """Exhaustive check over single basis elements: every assignment of
    e0..e(dim-1) to every free variable, dim**nvars trials in total.

    For low-degree polynomial identities this complements the randomized
    check; it draws nothing, and its report's seed is 0.  A `tolerance` of
    None is the ring's default, as in `check_identity`.  ValueError at once
    where `core.check_options` refuses the dimension, backend or tolerance,
    in its order.
    """
    tolerance = check_options(backend, tolerance, dim=dim)

    def samples(count, ring):
        bases = [ring.from_ints(basis(dim, k).coeffs) for k in range(dim)]
        return itertools.product(bases, repeat=count)

    return next(_checks((identity,), samples, dim, backend, tolerance, 0, 1))


# ---------------------------------------------------------------------------
# Report rendering


def report_json_obj(report: CheckReport) -> dict:
    """The stable JSON schema for one report (deviations as decimal strings)."""
    witness = None
    if report.witness is not None:
        witness = {
            name: [scalar_str(c) for c in value.coeffs]
            for name, value in report.witness.items()
        }
    return {
        "identity": report.identity,
        "status": report.status,
        "trials": report.trials,
        "failures": report.failures,
        "max_deviation": scalar_str(report.max_deviation),
        "witness": witness,
        "dim": report.dim,
        "backend": report.backend,
        "seed": report.seed,
    }


def report_text(report: CheckReport) -> str:
    if report.status == PARSE_ERROR:
        return f"PARSE_ERROR | {report.identity} | {report.message}"
    head = (
        f"{report.status} | {report.identity} | trials={report.trials} "
        f"failures={report.failures} max_deviation={scalar_str(report.max_deviation)}"
    )
    if report.status == PASS:
        return f"{head} | no counterexample found"
    parts = "; ".join(f"{name}={coeff_str(value)}" for name, value in report.witness.items())
    return f"{head} | witness: {parts}"
