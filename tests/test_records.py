"""The immutable record types: construction, immutability, equality, repr,
and what importing the package loads."""

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import triprod
from conftest import rand_hnum
from triprod import (
    BINARY64,
    DIMS,
    EXACT,
    CheckReport,
    GramMatrix,
    HNum,
    add,
    build_table,
    check_identity,
    conj,
    decompose_pair,
    decompose_triple,
    embed,
    hnum,
    imaginary_part,
    mul,
    negate,
    parse,
    scale,
    sub,
)
from triprod.dsl import Add, Basis, Call, Identity, Mul, Neg, Num, Sub, Unit, Var


def test_import_loads_neither_dataclasses_nor_inspect():
    src = Path(triprod.__file__).resolve().parents[1]
    code = ("import sys, triprod, triprod.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'pkgutil') "
            "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


_U = hnum([1, 2, 3, 4])

# (record, one of its fields)
RECORDS = [
    (HNum(2, (1, 2), EXACT), "coeffs"),
    (GramMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))), "entries"),
    (build_table(2), "dim"),
    (decompose_pair(_U, _U), "product"),
    (decompose_triple(_U, _U, _U), "cross"),
    (Var("u1", 3), "name"),
    (Var("u1", 3), "col"),
    (parse("u1 == u1"), "lhs"),
    (parse("u1 == u1"), "free_vars"),
    (check_identity("u1 == u1", dim=2, trials=1), "status"),
]


@pytest.mark.parametrize("record, name", RECORDS, ids=lambda x: type(x).__name__)
def test_fields_cannot_be_assigned_or_deleted(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, name) is before


@pytest.mark.parametrize("record, name", RECORDS, ids=lambda x: type(x).__name__)
def test_copies_and_pickles_are_equal(record, name):
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_private_state_is_not_a_field():
    # An Identity keeps what its walk found in a slot that is no field: the
    # constructor, ==, hash, repr and pickling see the fields alone, and a
    # copy rebuilds the private state, so it checks as the original does.
    identity = parse("u1*e5 == u1")
    assert Identity._fields == ("text", "lhs", "rhs", "col", "free_vars", "sort")
    assert "_leaves" not in repr(identity)
    assert identity.__reduce__()[1] == (identity.text, identity.lhs, identity.rhs, identity.col)
    with pytest.raises(AttributeError):
        identity._leaves = ()
    for twin in (copy.deepcopy(identity), pickle.loads(pickle.dumps(identity))):
        assert twin._leaves == identity._leaves
        assert check_identity(twin, dim=4) == check_identity(identity, dim=4)


_X, _Y = Var("x"), Var("y")
NODES = [
    lambda col: Var("u1", col),
    lambda col: Num(Fraction(1, 2), col),
    Unit,
    lambda col: Basis(3, col),
    lambda col: Neg(_X, col),
    lambda col: Add(_X, _Y, col),
    lambda col: Sub(_X, _Y, col),
    lambda col: Mul(_X, _Y, col),
    lambda col: Call("conj", (_X,), col),
    lambda col: Identity("x == x", _X, _X, col),
]


@pytest.mark.parametrize("make", NODES)
def test_nodes_differing_only_in_col_are_equal(make):
    a, b = make(1), make(7)
    assert (a.col, b.col) == (1, 7)
    assert a == b
    assert hash(a) == hash(b)


def test_nodes_compare_by_class_and_fields():
    assert Var("u1") != Var("u2")
    assert Add(_X, _Y) != Sub(_X, _Y)
    assert Add(_X, _Y) != Add(_Y, _X)
    assert parse("u1 + u2 == u2").lhs == Add(Var("u1", 1), Var("u2", 6), 4)
    assert Unit() != (0,)


def test_positional_and_keyword_construction_agree():
    assert Add(_X, _Y, 5) == Add(right=_Y, left=_X, col=5)
    assert HNum(2, (1, 2), EXACT) == HNum(backend=EXACT, coeffs=(1, 2), dim=2)
    match Var("u1", 3):
        case Var(name, col):
            assert (name, col) == ("u1", 3)


@pytest.mark.parametrize("args, message", [
    ((3, (1, 2, 3), EXACT), "dimension must be one of"),
    ((True, (1,), EXACT), "dimension must be one of"),
    ((2, (1, 2, 3), EXACT), "expected 2 coefficients, got 3"),
    ((2, (1, 2), "decimal"), "unknown backend 'decimal'"),
])
def test_hnum_constructor_validates(args, message):
    with pytest.raises(ValueError, match=message):
        HNum(*args)


def test_gram_matrix_validates():
    with pytest.raises(ValueError, match="3 rows of 3"):
        GramMatrix(((1, 0), (0, 1)))


def test_reprs_are_unchanged():
    assert repr(hnum([1, Fraction(-1, 2)])) == "HNum([1, -1/2], backend='exact')"
    assert repr(hnum([1.5, 0], BINARY64)) == "HNum([1.5, 0.0], backend='binary64')"
    assert repr(Add(Var("u1", 1), Unit(6), 4)) == (
        "Add(left=Var(name='u1', col=1), right=Unit(col=6), col=4)")


def test_defaults_are_unchanged():
    report = CheckReport("u1 == u1", 8, EXACT, 1, 0, 0, None, "PASS", 42)
    assert report.message == ""
    assert report == CheckReport(identity="u1 == u1", dim=8, backend=EXACT, trials=1,
                                 failures=0, max_deviation=0, witness=None,
                                 status="PASS", seed=42, message="")
    assert Var("u1").col == 0


@pytest.mark.parametrize("backend", [EXACT, BINARY64])
@pytest.mark.parametrize("dim", DIMS)
def test_core_results_equal_validated_values(dim, backend):
    rng = random.Random(dim)
    a, b = rand_hnum(rng, dim, backend), rand_hnum(rng, dim, backend)
    results = [
        add(a, b), sub(a, b), negate(a), mul(a, b), conj(a), imaginary_part(a),
        scale(Fraction(1, 2), a), scale(3, a), embed(a, 8),
    ]
    for r in results:
        assert type(r) is HNum
        rebuilt = HNum(r.dim, r.coeffs, r.backend)
        assert r == rebuilt
        assert hash(r) == hash(rebuilt)
        assert r.backend == backend and len(r.coeffs) == r.dim
