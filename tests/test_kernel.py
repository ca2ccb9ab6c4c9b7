"""The integer elimination kernel against the rational loops it replaced and
against sympy as an independent oracle."""

from fractions import Fraction

import pytest

from tvlab import linalg
from tvlab.convexity import common_point_system, lp_feasible

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402


def fraction_lp_feasible(A, b):
    """The phase-one Bland simplex on a Fraction tableau, kept as the
    reference for lp_feasible: same entering rule, same ratio test, same
    tie-break, so the basis sequence and x must agree exactly."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    rhs = []
    for row, bi in zip(A, b):
        bi = Fraction(bi)
        if bi < 0:
            T.append([-Fraction(x) for x in row])
            rhs.append(-bi)
        else:
            T.append([Fraction(x) for x in row])
            rhs.append(bi)
    for i in range(m):
        T[i] += [Fraction(int(i == j)) for j in range(m)]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    red = [sum(T[i][j] for i in range(m)) - cost[j] for j in range(n + m)]
    obj = sum(rhs)
    while True:
        enter = next((j for j in range(n + m) if red[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = rhs[i] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            break
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
                rhs[i] -= f * rhs[leave]
        f = red[enter]
        red = [x - f * y for x, y in zip(red, T[leave])]
        obj -= f * rhs[leave]
        basis[leave] = enter
    if obj != 0:
        return None
    x = [Fraction(0)] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = rhs[i]
        elif rhs[i] != 0:
            return None
    return x


# small rationals, mostly 0, 1, 2 and -1, so that zero rows, zero
# right-hand sides and tied ratios are common
small = st.one_of(
    st.sampled_from([0, 0, 1, 1, 2, -1]).map(Fraction),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4])),
)


@st.composite
def lp_systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    A = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(small, min_size=m, max_size=m))
    # repeat a row (degenerate ratio ties) or zero one out (zero row)
    tweak = draw(st.sampled_from(["none", "repeat", "zero", "scale"]))
    if tweak == "repeat" and m > 1:
        A[-1], b[-1] = list(A[0]), b[0]
    elif tweak == "zero":
        A[-1] = [Fraction(0)] * n
    elif tweak == "scale" and m > 1:
        A[-1], b[-1] = [-2 * x for x in A[0]], -2 * b[0]
    return A, b


@given(lp_systems())
def test_lp_feasible_matches_fraction_tableau(system):
    A, b = system
    x = lp_feasible(A, b)
    assert x == fraction_lp_feasible(A, b)
    if x is not None:
        assert all(v >= 0 for v in x)
        assert [sum(a * v for a, v in zip(row, x)) for row in A] == b


def test_lp_feasible_ties_and_negative_rhs():
    A = [[1, 1, 0], [1, 1, 0], [0, -1, -1], [0, 0, 0]]
    b = [1, 1, -1, 0]
    x = lp_feasible(A, b)
    assert x == fraction_lp_feasible(A, b)
    assert [sum(a * v for a, v in zip(row, x)) for row in A] == b
    # the second and fourth ratio tests tie two rows; the row whose basic
    # variable has the smaller index leaves, and the other choice ends elsewhere
    A = [[0, 1, -1, 1, 2], [2, 2, 0, 0, -1], [0, 0, 1, 1, 1]]
    assert lp_feasible(A, [1, 2, 1]) == fraction_lp_feasible(A, [1, 2, 1]) == [1, 0, 0, 1, 0]
    assert lp_feasible([[0, 0]], [1]) is None
    assert lp_feasible([], []) == []


coords = st.builds(Fraction, st.integers(-2**12, 2**12), st.sampled_from([1, 7, 1024]))


@st.composite
def point_groups(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(2, 3))
    point = st.tuples(*[coords] * d)
    return [draw(st.lists(point, min_size=1, max_size=d + 1)) for _ in range(r)]


@given(point_groups())
def test_common_point_lp_matches_fraction_tableau(groups):
    A, b, offsets = common_point_system(groups)
    assert offsets[-1] == sum(len(g) for g in groups)
    assert lp_feasible(A, b) == fraction_lp_feasible(A, b)


@st.composite
def matrices(draw, square=False):
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=m, max_size=m))
    if rows and draw(st.booleans()):
        rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])  # a dependent row
        if square:
            rows = [row + [row[0]] for row in rows]
    return rows


def as_sympy(sympy, A, n):
    return sympy.Matrix(len(A), n, [sympy.Rational(x.numerator, x.denominator) for row in A for x in row])


def as_fraction(x):
    return Fraction(int(x.p), int(x.q))


@given(matrices())
def test_rref_and_nullspace_match_sympy(A):
    sympy = pytest.importorskip("sympy")
    n = len(A[0]) if A else 0
    R, pivots = linalg.rref(A)
    R_ref, pivots_ref = as_sympy(sympy, A, n).rref()
    assert pivots == list(pivots_ref)
    assert R == [[as_fraction(R_ref[i, j]) for j in range(n)] for i in range(len(A))]
    kernel = [[as_fraction(x) for x in v] for v in as_sympy(sympy, A, n).nullspace()]
    assert linalg.nullspace(A) == kernel
    assert linalg.rank(A) == len(pivots_ref)


@given(matrices(square=True))
def test_det_matches_sympy(A):
    sympy = pytest.importorskip("sympy")
    d = linalg.det(A)
    assert d == as_fraction(as_sympy(sympy, A, len(A)).det())
    assert linalg.det_sign(A) == (d > 0) - (d < 0)


def test_pivot_divides_exactly():
    # a 3x3 integer matrix: Gauss-Jordan leaves det(A) on the diagonal
    T = [[2, 1, 1], [4, -6, 0], [-2, 7, 2]]
    D = 1
    for k in range(3):
        D = linalg.pivot(T, k, k, D)
    assert D == -16 == linalg.det([[2, 1, 1], [4, -6, 0], [-2, 7, 2]])
    assert T == [[-16, 0, 0], [0, -16, 0], [0, 0, -16]]
