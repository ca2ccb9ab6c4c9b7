"""Exact linear algebra over the rationals (lists of Fraction rows)."""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeError


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    R = [[Fraction(x) for x in row] for row in A]
    m = len(R)
    n = len(R[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if R[i][c] != 0), None)
        if pivot is None:
            continue
        R[r], R[pivot] = R[pivot], R[r]
        inv = R[r][c]
        R[r] = [x / inv for x in R[r]]
        for i in range(m):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, pivots


def rank(A) -> int:
    return len(rref(A)[1])


def nullspace(A):
    """Basis of the kernel of A as a list of Fraction vectors."""
    n = len(A[0]) if A else 0
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][fc]
        basis.append(v)
    return basis


def det(A) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ShapeError("determinant needs a square matrix")
    M = [[Fraction(x) for x in row] for row in A]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        d *= M[c][c]
        inv = M[c][c]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c] / inv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return sign * d


def det_sign(A) -> int:
    d = det(A)
    return (d > 0) - (d < 0)


def orthogonal_complement(rows):
    """Basis of the orthogonal complement of the row span (exact)."""
    return nullspace(rows)
