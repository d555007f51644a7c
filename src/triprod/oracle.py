"""Structure-constant tables: an independent multiplication path.

`core.mul` recurses on coefficient vectors.  Here the same doubling convention
is expressed as a recursion on basis *indices* instead, producing a signed
table e_i * e_j = sign * e_k.  The two paths share no code, so their agreement
(exhaustive over basis pairs, randomized over dense values) is a meaningful
differential test; the table also pins the multiplication convention for every
hand-frozen expected value in the test suite.

Tables are generated, never hand-typed: published octonion tables differ by
basis orientation, and a transcribed table that disagreed with `core.mul`
would poison every downstream check.

Also hosts the 3x3 Gram matrix helpers, which serve only as the tests'
reference for the squared-length formulas in `decomp`.
"""

from __future__ import annotations

from .core import HNum, Record, Scalar, check_dim, coerce_scalar, imaginary_part, inner


def _basis_product(dim: int, i: int, j: int):
    """(sign, k) with e_i * e_j = sign * e_k, by recursion on the doubling.

    A dim-2h basis element is either (f_i, 0) or (0, f_{i-h}) over the dim-h
    basis f; expanding (a1,a2)(b1,b2) = (a1*b1 - conj(b2)*a2, b2*a1 + a2*conj(b1))
    for the four placements gives the cases below.  Base case: e0*e0 = e0.
    """
    if dim == 1:
        return (1, 0)
    h = dim // 2
    if i < h and j < h:
        return _basis_product(h, i, j)
    if i < h:
        # (f_i, 0)(0, f_j') = (0, f_j' * f_i)
        s, k = _basis_product(h, j - h, i)
        return (s, k + h)
    if j < h:
        # (0, f_i')(f_j, 0) = (0, f_i' * conj(f_j))
        s, k = _basis_product(h, i - h, j)
        return (s if j == 0 else -s, k + h)
    # (0, f_i')(0, f_j') = (-conj(f_j') * f_i', 0)
    jp = j - h
    s, k = _basis_product(h, jp, i - h)
    return (-s if jp == 0 else s, k)


class StructureTable(Record):
    """Signed basis-product table: entries[i][j] = (sign, k) for e_i*e_j = sign*e_k."""

    __slots__ = ("dim", "entries")


def build_table(dim: int) -> StructureTable:
    check_dim(dim)
    entries = tuple(
        tuple(_basis_product(dim, i, j) for j in range(dim)) for i in range(dim)
    )
    return StructureTable(dim, entries)


def mul_table(a: HNum, b: HNum, table: StructureTable) -> HNum:
    """Bilinear expansion of the product through the table.

    Must agree with core.mul for all inputs; disagreement means one of the two
    multiplication paths is wrong.
    """
    if a.dim != table.dim or b.dim != table.dim:
        raise ValueError(f"operands of dimension {a.dim}/{b.dim} do not match table dimension {table.dim}")
    if a.backend != b.backend:
        raise ValueError(f"backend mismatch: {a.backend} vs {b.backend}")
    out = [coerce_scalar(0, a.backend)] * table.dim
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        row = table.entries[i]
        for j, bj in enumerate(b.coeffs):
            if bj == 0:
                continue
            sign, k = row[j]
            term = ai * bj
            out[k] = out[k] + (term if sign > 0 else -term)
    return HNum(table.dim, tuple(out), a.backend)


def format_table(table: StructureTable) -> str:
    """Plain-text grid of signed basis names, one header row and column."""
    names = [f"e{k}" for k in range(table.dim)]
    width = max(len(n) for n in names) + 1
    header = " " * (width + 2) + "| " + " ".join(n.rjust(width) for n in names)
    rule = "-" * (width + 2) + "+" + "-" * (len(header) - width - 3)
    lines = [header, rule]
    for i, row in enumerate(table.entries):
        cells = []
        for sign, k in row:
            mark = "+" if sign > 0 else "-"
            cells.append(f"{mark}e{k}".rjust(width))
        lines.append(f" {names[i].rjust(width)} | " + " ".join(cells))
    return "\n".join(lines)


class GramMatrix(Record):
    """Symmetric 3x3 matrix of pairwise inner products."""

    __slots__ = ("entries",)  # three rows of three scalars

    def _check(self):
        if len(self.entries) != 3 or any(len(row) != 3 for row in self.entries):
            raise ValueError("GramMatrix needs 3 rows of 3 entries")


def gram(u1: HNum, u2: HNum, u3: HNum) -> GramMatrix:
    """Matrix of pairwise inner products of the three arguments."""
    g01 = inner(u1, u2)
    g02 = inner(u1, u3)
    g12 = inner(u2, u3)
    return GramMatrix((
        (inner(u1, u1), g01, g02),
        (g01, inner(u2, u2), g12),
        (g02, g12, inner(u3, u3)),
    ))


def gram_im(u1: HNum, u2: HNum, u3: HNum) -> GramMatrix:
    """Gram matrix of the imaginary parts (unit coefficients stripped)."""
    return gram(imaginary_part(u1), imaginary_part(u2), imaginary_part(u3))


def det3(m: GramMatrix) -> Scalar:
    """Determinant by cofactor expansion along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = m.entries
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
