"""Exact dense linear algebra over the rationals.

Matrices are tuples (or lists) of rows; entries are ints or Fractions.  The
systems that show up here (intertwiner equations, cokernel bases, coordinate
matrices of graded pieces) are small, so dense elimination is the right tool.
Ranks go through fraction-free Bareiss elimination on denominator-cleared
integer rows, which keeps every intermediate value an exact integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    """Normalize nested sequences into a tuple-of-tuples of Fractions."""
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zero_matrix(nrows: int, ncols: int) -> Matrix:
    return tuple((Fraction(0),) * ncols for _ in range(nrows))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def _integer_rows(rows) -> list[list[int]]:
    out = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by one-step fraction-free elimination."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, nrows):
            x = m[r][col]
            row = m[r]
            top = m[rank]
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - x * top[c]) // prev
            row[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank(rows) -> int:
    """Exact rank of a matrix with int or Fraction entries."""
    return bareiss_rank(_integer_rows(rows))


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over the rationals.

    Returns the echelon matrix together with the pivot column indices.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return (), ()
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def inverse(rows) -> Matrix:
    m = mat(rows)
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n:] for row in red)
