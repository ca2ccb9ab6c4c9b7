"""Exact linear algebra over the rationals, eliminated over the integers.

Matrices are lists of rows of rationals.  A matrix is cleared of
denominators once, by clear_denominators; elimination then runs on Python
ints with the integer-preserving pivot step of Bareiss (1968) in Edmonds's
Gauss-Jordan form (1967), and results are divided back into Fractions at
the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError


def pivot(T, r, c, D) -> int:
    """Integer-preserving Gauss-Jordan pivot on T[r][c]; returns the next D.

    T holds D times a rational tableau, D the previous pivot (1 at the
    start).  Every other row becomes (row * p - row[c] * T[r]) // D with
    p = T[r][c]; the division is exact, because the entries are minors of
    the starting matrix.  T then holds p times the pivoted tableau.
    """
    prow = T[r]
    p = prow[c]
    for i, row in enumerate(T):
        f = row[c]
        if i != r and (f or p != D):
            T[i] = [(x * p - f * y) // D for x, y in zip(row, prow)]
    return p


def clear_denominators(rows):
    """The one rational-to-integer scaling: the rows (sequences of ints and
    Fractions) times the lcm L of all their denominators.  Returns (the
    rows as tuples of ints, L)."""
    L = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(x.numerator * (L // x.denominator) for x in row) for row in rows], L


def gauss_jordan(T):
    """Integer Gauss-Jordan elimination of the integer matrix T, in place.

    Returns (pivot columns, D, sign): T / D is then the reduced row echelon
    form of the starting T, and a square T of full rank had determinant
    sign * D.
    """
    pivots = []
    D = sign = 1
    for c in range(len(T[0]) if T else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(T)) if T[i][c]), None)
        if i is None:
            continue
        if i != r:
            T[r], T[i] = T[i], T[r]
            sign = -sign
        D = pivot(T, r, c, D)
        pivots.append(c)
    return pivots, D, sign


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    T = clear_denominators(A)[0]
    pivots, D, _ = gauss_jordan(T)
    return [[Fraction(x, D) for x in row] for row in T], pivots


def rank(A) -> int:
    return len(gauss_jordan(clear_denominators(A)[0])[0])


def nullspace(A):
    """Basis of the kernel of A as a list of Fraction vectors."""
    n = len(A[0]) if A else 0
    R, pivots = rref(A)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def det(A) -> Fraction:
    """Exact determinant, from the last pivot of the integer elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise InputError("determinant needs a square matrix")
    T, L = clear_denominators(A)
    pivots, D, sign = gauss_jordan(T)
    return Fraction(sign * D, L**n) if len(pivots) == n else Fraction(0)


def det_sign(A) -> int:
    d = det(A)
    return (d > 0) - (d < 0)


def orthogonal_complement(rows):
    """Basis of the orthogonal complement of the row span (exact)."""
    return nullspace(rows)
