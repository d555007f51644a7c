import random

import pytest

from conftest import rand_hnum
from triprod import (
    BINARY64,
    DIMS,
    GramMatrix,
    add,
    basis,
    build_table,
    det3,
    format_table,
    gram,
    gram_im,
    mul,
    mul_table,
    unit,
)

TABLE8 = build_table(8)


def test_build_table_rejects_bad_dimension():
    with pytest.raises(ValueError, match=r"^dimension must be one of \(1, 2, 4, 8\), got 3$"):
        build_table(3)


def test_known_entries():
    assert TABLE8.entries[1][2] == (1, 3)
    assert TABLE8.entries[1][1] == (-1, 0)
    assert TABLE8.entries[0][5] == (1, 5)


@pytest.mark.parametrize("dim", DIMS)
def test_table_invariants(dim):
    table = build_table(dim)
    for j in range(dim):
        assert table.entries[0][j] == (1, j)
        assert table.entries[j][0] == (1, j)
    for i in range(1, dim):
        assert table.entries[i][i] == (-1, 0)
        for j in range(1, dim):
            if i != j:
                s, k = table.entries[i][j]
                assert table.entries[j][i] == (-s, k)


@pytest.mark.parametrize("dim", DIMS)
def test_table_agrees_with_mul_on_basis_pairs(dim):
    table = build_table(dim)
    for i in range(dim):
        for j in range(dim):
            a, b = basis(dim, i), basis(dim, j)
            assert mul_table(a, b, table) == mul(a, b)


@pytest.mark.parametrize("dim", DIMS)
def test_table_agrees_with_mul_on_random_values(dim):
    table = build_table(dim)
    rng = random.Random(23)
    for _ in range(1000):
        a, b = rand_hnum(rng, dim), rand_hnum(rng, dim)
        assert mul_table(a, b, table) == mul(a, b)


def test_mul_table_unit_law():
    rng = random.Random(2)
    u = rand_hnum(rng, 8)
    assert mul_table(unit(8), u, TABLE8) == u
    assert mul_table(u, unit(8), TABLE8) == u


def test_mul_table_dimension_check():
    with pytest.raises(ValueError):
        mul_table(unit(4), unit(4), TABLE8)


def test_mul_table_backend_check():
    with pytest.raises(ValueError, match=r"^backend mismatch: exact vs binary64$"):
        mul_table(unit(8), unit(8, BINARY64), TABLE8)


def test_lower_dimension_tables_are_leading_blocks():
    # each algebra sits inside the next one as the first 2^k coordinates
    for dim in (1, 2, 4):
        small = build_table(dim)
        for i in range(dim):
            for j in range(dim):
                assert small.entries[i][j] == TABLE8.entries[i][j]


def test_gram_orthonormal():
    g = gram(basis(8, 1), basis(8, 2), basis(8, 4))
    assert g.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_gram_im_strips_unit():
    u1 = add(unit(8), basis(8, 1))
    assert gram_im(u1, basis(8, 2), basis(8, 3)) == gram(basis(8, 1), basis(8, 2), basis(8, 3))


def test_gram_repeated_argument_is_singular():
    rng = random.Random(9)
    u, v = rand_hnum(rng, 8), rand_hnum(rng, 8)
    assert det3(gram(u, u, v)) == 0


def test_det3_identity_and_shape():
    assert det3(GramMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 1
    with pytest.raises(ValueError):
        GramMatrix(((1, 0), (0, 1)))


def test_gram_determinants_are_nonnegative():
    # Gram matrices are positive semidefinite; exact arithmetic makes the
    # sign check unambiguous.
    rng = random.Random(31)
    for _ in range(300):
        us = [rand_hnum(rng, 8) for _ in range(3)]
        assert det3(gram(*us)) >= 0
        assert det3(gram_im(*us)) >= 0


def test_format_table_grid():
    text = format_table(build_table(2))
    lines = text.splitlines()
    assert "e0" in lines[0] and "e1" in lines[0]
    assert "-e0" in lines[-1]  # e1*e1 = -e0
    # one header row, one rule, one row per basis element
    assert len(lines) == 4
    big = format_table(TABLE8)
    assert len(big.splitlines()) == 10
    assert "-e7" in big


def test_format_table_row_content():
    # row e1 of the dim-8 table, frozen from the doubling recursion
    row = format_table(TABLE8).splitlines()[3]
    assert row.split("|")[0].strip() == "e1"
    cells = row.split("|")[1].split()
    assert cells == ["+e1", "-e0", "+e3", "-e2", "+e5", "-e4", "-e7", "+e6"]
