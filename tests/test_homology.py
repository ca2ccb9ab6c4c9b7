"""Tests for Smith normal form, homology, and integer system solving."""

import random
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest

from tvlab import homology as homology_module
from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab.deleted_product import (DeletedProductComplex, deleted_product, full_simplex_cell_count,
                                   full_simplex_f_vector)
from tvlab.errors import CapExceeded, InputError, SearchInvariantViolated
from tvlab.homology import (IntMatrix, _eliminate, _leftover_block, _rank_mod_p, _snf_solve,
                            dp_homology, homological_connectivity, homology,
                            smith_diagonal, smith_normal_form,
                            solve_integer_system)
from tvlab.linalg import det

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None


def int_matrix(rows):
    """The sparse IntMatrix of a list of equal-length rows."""
    return IntMatrix(len(rows), len(rows[0]) if rows else 0,
                     [[(j, v) for j, v in enumerate(row) if v] for row in rows])


def columns(rows, n):
    """The n columns [(row, entry), ...] of sparse rows [(col, entry), ...]
    such as IntMatrix.entries, each column's rows ascending."""
    out = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row:
            out[j].append((i, v))
    return out


def dense(M):
    """The rows of a sparse IntMatrix."""
    rows = [[0] * M.cols for _ in range(M.rows)]
    for row, pairs in zip(rows, M.entries):
        for j, v in pairs:
            row[j] = v
    return rows


def product(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def check_snf(M):
    U, D, V = smith_normal_form(M)
    # U*M*V = D
    assert product(product(U, dense(M)), V) == D
    # D diagonal with a divisibility chain
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert D[i][j] == 0
    diag = [D[t][t] for t in range(min(M.rows, M.cols))]
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    # U and V unimodular
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    return diag


IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_examples():
    assert check_snf(int_matrix(IDENTITY_3)) == [1, 1, 1]
    assert check_snf(int_matrix([[1, 0], [0, 0]])) == [1, 0]
    assert check_snf(int_matrix([[2, 4], [6, 8]])) == [2, 4]


def test_snf_random_matrices():
    rng = random.Random(12345)
    for trial in range(30):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = int_matrix(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        check_snf(M)


def test_snf_large_matrix():
    rng = random.Random(777)
    M = int_matrix(
        [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    )
    check_snf(M)


def test_sparse_diagonal_matches_dense():
    rng = random.Random(99)
    leftover_blocks = 0
    for trial in range(120):
        m = rng.randint(1, 10 if trial < 20 else 24)
        n = rng.randint(1, 10 if trial < 20 else 24)
        # the later trials have few units, so that the sparse elimination
        # leaves a dense block behind
        pool = ([0, 0, 0, 1, -1, 2, -3] if trial < 20 else
                [0] * 6 + [2, -2, 3, 4, -6, 1])
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        A = int_matrix(rows)
        _, D, _ = smith_normal_form(A)
        dense_diag = [abs(D[t][t]) for t in range(min(m, n))]
        assert smith_diagonal(columns(A.entries, n), m) == dense_diag
        leftover_blocks += bool(_eliminate(columns(A.entries, n))[1])
    assert leftover_blocks >= 50


def reference_smith_normal_form(M):
    """The oracle for the in-place reduction: the same Smith normal form
    with D, U and V held as three matrices and updated in lockstep."""
    m, n = M.rows, M.cols
    D = dense(M)
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # row_i -= q * row_k, in D and U
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j, k, q):  # col_j -= q * col_k
        for row in D:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j, k):
        for row in D:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def balanced_quotient(a, p):
        q, rem = divmod(a, p)
        if 2 * abs(rem) > abs(p):
            q += 1
        return q

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                a = row[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        p = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                row_op(i, t, balanced_quotient(D[i][t], p))
        for j in range(t + 1, n):
            if D[t][j]:
                col_op(j, t, balanced_quotient(D[t][j], p))
        if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
            continue
        offender = None
        for i in range(t + 1, m):
            row = D[i]
            if any(row[j] % p for j in range(t + 1, n)):
                offender = i
                break
        if offender is not None:
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]
            continue
        if p < 0:
            D[t] = [-a for a in D[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, D, V


def reference_smith_diagonal(cols, m, n):
    """smith_diagonal with the leftover block reduced by the oracle."""
    units, left = _eliminate(cols)
    diag = [1] * units
    if left:
        _, D, _ = reference_smith_normal_form(_leftover_block(left)[2])
        diag += [row[t] for t, row in enumerate(D) if t < len(row) and row[t]]
    return diag + [0] * (min(m, n) - len(diag))


def snf_cases():
    """(A, b): m x n integer matrices, 0 <= m, n <= 8, entries in -6..6
    with some rows and columns all zero, and a right-hand side in the image
    of A or drawn freely."""
    @st.composite
    def case(draw):
        m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        zero_rows = draw(st.sets(st.integers(0, 7)))
        zero_cols = draw(st.sets(st.integers(0, 7)))
        rows = [[0 if i in zero_rows or j in zero_cols else draw(st.integers(-6, 6))
                 for j in range(n)] for i in range(m)]
        A = IntMatrix(m, n, [[(j, v) for j, v in enumerate(row) if v] for row in rows])
        if draw(st.booleans()):
            b = A.mat_vec(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        else:
            b = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
        return A, b

    return case()


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_smith_reduction_matches_the_three_matrix_reference():
    seen = Counter()

    @settings(max_examples=300)
    @given(snf_cases())
    def check(case):
        A, b = case
        expected = reference_smith_normal_form(A)
        assert smith_normal_form(A) == expected
        cols = columns(A.entries, A.cols)
        assert smith_diagonal(cols, A.rows) == reference_smith_diagonal(cols, A.rows, A.cols)
        with mock.patch.object(homology_module, "smith_normal_form", reference_smith_normal_form):
            expected_solve = _snf_solve(A, b)
        assert _snf_solve(A, b) == expected_solve
        seen["solved" if expected_solve[0] is not None else expected_solve[1]["kind"]] += 1
        seen["nonunit"] += any(abs(d) > 1 for row in expected[1] for d in row)

    check()
    assert seen["solved"] >= 100 and seen["divisibility"] >= 15 and seen["rank"] >= 50
    assert seen["nonunit"] >= 30


UNIT_FREE_4x6 = [[2 + (i + 3 * j) % 5 for j in range(6)] for i in range(4)]


@pytest.mark.parametrize("cap, refused", [(23, True), (24, False)])
def test_dense_block_meets_the_cell_cap(monkeypatch, cap, refused):
    # no unit entry: the sparse elimination leaves the whole 4 x 6 block
    A = int_matrix(UNIT_FREE_4x6)
    monkeypatch.setenv("TVLAB_CELL_CAP", str(cap))
    calls = [lambda: smith_normal_form(A),
             lambda: smith_diagonal(columns(A.entries, 6), 4),
             lambda: solve_integer_system(A, [1, 2, 3, 4])]
    for call in calls:
        if refused:
            with pytest.raises(CapExceeded, match=r"entries of the dense Smith block: 24"):
                call()
        else:
            call()


def test_smith_diagonal_allocates_no_transform():
    # a 4 x 1500 block with no unit entry; transforms would take 1500^2 entries
    sparse = [[(i, 2 + (i + 3 * j) % 5) for i in range(4)] for j in range(1500)]
    tracemalloc.start()
    try:
        diag = smith_diagonal(sparse, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag == [1, 1, 5, 5]
    assert peak < 2_000_000


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(p)
    for trial in range(60):
        m = rng.randint(1, 20)
        n = rng.randint(1, 20)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, 3, -5, 10]) for _ in range(n)]
                for _ in range(m)]
        expected = DomainMatrix.from_list(rows, sympy.ZZ).convert_to(sympy.GF(p)).rank()
        cols = columns(int_matrix(rows).entries, n)
        assert _rank_mod_p(cols, p) == expected
        # over a field every nonzero entry is a unit: no row is left over
        assert _eliminate(cols, p=p)[1] == {}


def sympy_rank(cols, shape, p):
    """Rank over GF(p) of an integer matrix given by its columns, computed by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    field = sympy.GF(p)
    rows = {}
    for j, col in enumerate(cols):
        for i, v in col:
            if v % p:
                rows.setdefault(i, {})[j] = field(v)
    return DomainMatrix(rows, shape, field).rank()


def boundary_ranks(rep, shapes):
    """{d: rank of boundary d}, read off the Betti numbers from the top down."""
    ranks = {len(shapes): 0}
    for d in range(len(shapes) - 1, 0, -1):
        ranks[d] = shapes[d] - rep.betti(d) - ranks[d + 1]
    return ranks


# every deleted product of a full simplex with at most about 10,000 cells
SMALL_DELETED_PRODUCTS = [(n, r) for n in range(2, 8) for r in range(2, n + 2)
                          if full_simplex_cell_count(n, r) <= 10_300]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_boundary_ranks_mod_p_match_sympy(p):
    assert (6, 3) in SMALL_DELETED_PRODUCTS and (7, 2) in SMALL_DELETED_PRODUCTS
    for n, r in SMALL_DELETED_PRODUCTS:
        dp = deleted_product(full_simplex(n), r)
        shapes = dp.f_vector()
        boundaries = [None] + [dp.boundary_matrix(d) for d in range(1, dp.dim + 1)]
        ranks = boundary_ranks(homology(boundaries, shapes, p), shapes)
        for d in range(1, dp.dim + 1):
            expected = sympy_rank(boundaries[d], (shapes[d - 1], shapes[d]), p)
            assert ranks[d] == _rank_mod_p(boundaries[d], p) == expected, (n, r, d)


def simplicial_chain_complex(maximal, rng):
    """(boundaries, shapes) of the simplicial complex spanned by the vertex
    sets in maximal, each degree's simplices numbered in a random order."""
    faces = {face for s in maximal for k in range(1, len(s) + 1)
             for face in combinations(sorted(s), k)}
    by_dim = {}
    for face in sorted(faces):
        by_dim.setdefault(len(face) - 1, []).append(face)
    for cells in by_dim.values():
        rng.shuffle(cells)
    index = [{face: i for i, face in enumerate(by_dim[d])} for d in range(len(by_dim))]
    boundaries = [None] + [
        [[(index[d - 1][s[:k] + s[k + 1:]], (-1) ** k) for k in range(len(s))] for s in by_dim[d]]
        for d in range(1, len(by_dim))]
    return boundaries, [len(by_dim[d]) for d in range(len(by_dim))]


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_homology_mod_p_of_random_complexes_matches_sympy():
    seen = Counter()

    @st.composite
    def complexes(draw):
        wide = draw(st.booleans())
        n = draw(st.integers(12, 16) if wide else st.integers(1, 11))
        maximal = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=6),
                                min_size=1, max_size=8))
        if wide:  # the complete graph: 66 to 120 edges, so a boundary of more than 64 rows
            maximal += [(a, b) for a, b in combinations(range(n), 2)]
        return maximal, draw(st.randoms(use_true_random=False))

    @settings(max_examples=150)
    @given(complexes())
    def check(case):
        boundaries, shapes = simplicial_chain_complex(*case)
        for p in (2, 3, 5):
            expected = {len(shapes): 0}
            for d in range(1, len(shapes)):
                expected[d] = sympy_rank(boundaries[d], (shapes[d - 1], shapes[d]), p)
                assert _rank_mod_p(boundaries[d], p) == expected[d]
            assert boundary_ranks(homology(boundaries, shapes, p), shapes) == expected
        seen["over 64 rows"] += any(shapes[d - 1] > 64 for d in range(2, len(shapes)))

    check()
    assert seen["over 64 rows"] >= 40


def test_delta6_r3_integral_homology():
    # the top Betti number is fixed by the Euler characteristic: 126 - 1
    rep = dp_homology(deleted_product(full_simplex(6), 3))
    assert rep.ranks == {0: 1, 1: 0, 2: 0, 3: 0, 4: 125}
    assert all(not t for t in rep.torsion.values())


def test_hexagon_homology():
    dp = deleted_product(full_simplex(2), 2)
    rep = dp_homology(dp)
    assert rep.ranks == {0: 1, 1: 1}  # a circle
    assert rep.torsion == {0: [], 1: []}


def test_single_point_homology():
    rep = homology([None], [1], "Z")
    assert rep.ranks == {0: 1}


def test_delta43_h1_vanishes():
    dp = deleted_product(full_simplex(4), 3)
    rep = dp_homology(dp)
    assert rep.betti(1) == 0 and not rep.torsion[1]


def test_not_a_chain_complex():
    with pytest.raises(InputError, match=r"boundary squared is nonzero in dim 2"):
        homology([None, [[(0, 1)]], [[(0, 1)]]], [1, 1, 1], "Z")


@pytest.mark.parametrize("p", [2, 3])
def test_not_a_chain_complex_mod_p_raises_before_any_rank(monkeypatch, p):
    def rank(*args, **kwargs):
        raise AssertionError("a rank was taken")

    monkeypatch.setattr(homology_module, "_rank_mod_p", rank)
    with pytest.raises(InputError, match=r"boundary squared is nonzero in dim 2"):
        homology([None, [[(0, 1)]], [[(0, 1)]]], [1, 1, 1], p)
    # boundary squared is 3, zero mod 3: the check is over the integers
    with pytest.raises(InputError, match=r"boundary squared is nonzero in dim 2"):
        homology([None, [[(0, 1)]], [[(0, 3)]]], [1, 1, 1], p)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_boundary_squared_check_matches_a_dense_product():
    seen = Counter()
    entries = st.sampled_from([0, 0, 0, 1, -1, 2])

    @st.composite
    def pairs(draw):
        m, n, q = (draw(st.integers(1, 4)) for _ in range(3))
        lower = [[draw(entries) for _ in range(n)] for _ in range(m)]
        upper = [[draw(entries) for _ in range(q)] for _ in range(n)]
        return lower, upper, draw(st.sampled_from(["Z", 2, 3]))

    @settings(max_examples=300)
    @given(pairs())
    def check(case):
        lower, upper, coefficients = case
        squared = [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)]
                   for row in lower]
        boundaries = [None, columns(int_matrix(lower).entries, len(upper)),
                      columns(int_matrix(upper).entries, len(upper[0]))]
        shapes = [len(lower), len(upper), len(upper[0])]
        if any(map(any, squared)):
            with pytest.raises(InputError, match=r"boundary squared is nonzero in dim 2"):
                homology(boundaries, shapes, coefficients)
            seen["nonzero"] += 1
        else:
            homology(boundaries, shapes, coefficients)
            seen["zero"] += 1

    check()
    assert min(seen["zero"], seen["nonzero"]) >= 50


def test_relabel_invariance():
    dp = deleted_product(full_simplex(3), 2)
    rep = dp_homology(dp)
    rng = random.Random(5)
    shapes = [len(dp.cells_by_dim[d]) for d in range(dp.dim + 1)]
    perms = [list(range(s)) for s in shapes]
    for p in perms:
        rng.shuffle(p)
    boundaries = [None]
    for d in range(1, dp.dim + 1):
        relabelled = [None] * shapes[d]
        for j, col in enumerate(dp.boundary_matrix(d)):
            relabelled[perms[d][j]] = [(perms[d - 1][i], v) for i, v in col]
        boundaries.append(relabelled)
    rep2 = homology(boundaries, shapes, "Z")
    assert rep2.ranks == rep.ranks and rep2.torsion == rep.torsion


def test_mod_p_betti_agrees_without_torsion():
    for N, r in [(3, 2), (3, 3), (4, 3)]:
        dp = deleted_product(full_simplex(N), r)
        z = dp_homology(dp, "Z")
        assert all(not t for t in z.torsion.values())
        for p in (2, 3, 5):
            fp = dp_homology(dp, p)
            assert fp.ranks == z.ranks
            assert all(not t for t in fp.torsion.values())


def test_connectivity_values():
    assert homological_connectivity(deleted_product(full_simplex(2), 2)) == 0
    assert homological_connectivity(deleted_product(full_simplex(3), 2)) >= 1
    # the empty complex: reduced homology Z in degree -1, and no degree at all
    empty = deleted_product(full_simplex(1), 3)
    assert homological_connectivity(empty) == -2
    assert dp_homology(empty).ranks == {} and dp_homology(empty, 2).ranks == {}


@pytest.mark.parametrize("n, low", [(4, 0), (60_000, 0), (60_000, 59_996)],
                         ids=["4-vertices", "60000-vertices-low-ids", "60000-vertices-high-ids"])
def test_homology_cost_follows_the_vertices_used_not_those_declared(n, low):
    """Two disjoint edges give the report of their 4-vertex base, each in
    under a second, however many vertices are declared and wherever the
    edges sit: the keys' powers and the matching's buckets cover the used
    vertices only.  While they covered every declared id, the cost grew as
    its square: over Z, 2.4 s and a 123 MiB traced peak on 20,000."""
    small = deleted_product(Complex.from_maximal(4, [[0, 1], [2, 3]]), 2)
    K = Complex.from_maximal(n, [[low, low + 1], [low + 2, low + 3]])
    for coefficients in ("Z", 2, 3):
        start = time.perf_counter()
        assert dp_homology(deleted_product(K, 2), coefficients) == dp_homology(small, coefficients)
        assert time.perf_counter() - start < 1.0, coefficients


def boundary_path_homology(dp, coefficients):
    """homology() on every full boundary_matrix of dp: the path that the
    Morse complex of the element matching replaces."""
    shapes = dp.f_vector()
    return homology([None] + [dp.boundary_matrix(d) for d in range(1, len(shapes))],
                    shapes, coefficients)


@pytest.mark.parametrize("coefficients", ["Z", 2, 3])
def test_morse_homology_matches_the_boundary_path_on_full_simplices(coefficients):
    for n, r in SMALL_DELETED_PRODUCTS:
        dp = deleted_product(full_simplex(n), r)
        assert dp_homology(dp, coefficients) == boundary_path_homology(dp, coefficients), (n, r)


COLORED333 = Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                      for b in range(3, 6) for c in range(6, 9)])
# a base past 61 vertices, whose gradient paths run through thousands of cells
CYCLE70 = Complex.from_maximal(70, [(v, (v + 1) % 70) for v in range(70)])
# the six-vertex real projective plane: its deleted products carry 2-torsion
RP2 = Complex.from_maximal(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                               (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])


@pytest.mark.parametrize("K, r, coefficients", [
    pytest.param(K, r, c, id="%s-r%d-%s" % (name, r, c))
    for name, K, r, cs in [("delta8_2", simplex_skeleton(8, 2), 2, ("Z", 2, 3)),
                           ("delta8_2", simplex_skeleton(8, 2), 3, (2, 3)),
                           ("delta9_3", simplex_skeleton(9, 3), 2, ("Z", 2, 3)),
                           ("colored333", COLORED333, 3, ("Z", 2, 3)),
                           ("rp2", RP2, 2, ("Z", 2, 3)),
                           ("rp2", RP2, 3, ("Z", 2, 3)),
                           ("cycle70", CYCLE70, 2, ("Z", 2, 3))]
    for c in cs])
def test_morse_homology_matches_the_boundary_path_on_other_bases(K, r, coefficients):
    """Bases whose matching is not perfect.  All but the two skeleta with
    r = 2 keep critical cells in adjacent degrees, so Morse boundaries are
    built.  Z on Delta_8^(2) with r = 3 is pinned below instead: its
    boundary path takes about 15 s."""
    dp = deleted_product(K, r)
    assert dp_homology(dp, coefficients) == boundary_path_homology(dp, coefficients)


def test_the_morse_path_keeps_torsion():
    dp = deleted_product(RP2, 2)
    assert dp_homology(dp).torsion[1] == [2, 2] and dp_homology(dp, 2).betti(1) == 2
    boundaries, shapes = dp.morse_complex()
    assert all(shapes) and any(any(column) for column in boundaries[2])


def morse_degrees_walked(monkeypatch) -> list:
    """The degrees d of every Morse boundary that _morse_boundary walks from now on."""
    walked, walk = [], DeletedProductComplex._morse_boundary

    def recorded(self, d, *args):
        walked.append(d)
        return walk(self, d, *args)

    monkeypatch.setattr(DeletedProductComplex, "_morse_boundary", recorded)
    return walked


@pytest.mark.parametrize("K, r", [
    pytest.param(full_simplex(3), 3, id="delta3-r3"),
    pytest.param(full_simplex(5), 5, id="delta5-r5"),
    pytest.param(simplex_skeleton(4, 1), 2, id="k5-r2"),
    pytest.param(RP2, 2, id="rp2-r2"),
    pytest.param(RP2, 3, id="rp2-r3"),
    pytest.param(CYCLE70, 2, id="cycle70-r2")])
def test_a_lone_critical_vertex_takes_no_morse_boundary(monkeypatch, K, r):
    """Each 0-cell flows to +1 times the critical 0-cell that its gradient
    path reaches, and an edge's two facets carry opposite signs, so with one
    critical 0-cell every column into it is 0: no flow is walked, the
    columns are empty, and the homology is the boundary path's."""
    walked = morse_degrees_walked(monkeypatch)
    dp = deleted_product(K, r)
    boundaries, shapes = dp.morse_complex()
    assert shapes[0] == 1 and shapes[1] and boundaries[1] == [[]] * shapes[1]
    assert 1 not in walked
    for coefficients in ("Z", 2, 3):
        assert dp_homology(dp, coefficients) == boundary_path_homology(dp, coefficients)


CYCLE6 = Complex.from_maximal(6, [(v, (v + 1) % 6) for v in range(6)])


@pytest.mark.parametrize("K, r, nonzero", [
    pytest.param(CYCLE6, 3, 2, id="cycle6-r3"),
    pytest.param(CYCLE6, 4, 11, id="cycle6-r4"),
    pytest.param(Complex.from_maximal(7, [[0, 1, 2], [3, 4], [5, 6]]), 2, 0,
                 id="disconnected-r2")])
def test_two_critical_vertices_walk_their_morse_boundary(monkeypatch, K, r, nonzero):
    """With two or more critical 0-cells the flows into them are walked: the
    cycles' critical edges join their critical 0-cells into one component."""
    walked = morse_degrees_walked(monkeypatch)
    dp = deleted_product(K, r)
    boundaries, shapes = dp.morse_complex()
    assert shapes[0] >= 2 and shapes[1] and 1 in walked
    assert sum(map(bool, boundaries[1])) == nonzero
    for coefficients in ("Z", 2, 3):
        assert dp_homology(dp, coefficients) == boundary_path_homology(dp, coefficients)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_morse_homology_matches_the_boundary_path_on_random_bases():
    seen = Counter()

    @st.composite
    def bases(draw):
        n = draw(st.integers(3, 7))
        maximal = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                                min_size=1, max_size=7))
        return Complex.from_maximal(n, maximal), draw(st.integers(2, 3))

    @settings(max_examples=80)
    @given(bases())
    def check(case):
        dp = deleted_product(*case)
        for coefficients in ("Z", 2, 3):
            assert dp_homology(dp, coefficients) == boundary_path_homology(dp, coefficients)
        shapes = dp.morse_complex()[1]
        seen["adjacent critical degrees"] += any(map(min, zip(shapes, shapes[1:])))

    check()
    assert seen["adjacent critical degrees"] >= 20


def full_simplex_critical_counts(n, r):
    """{0: 1, top: (-1)^top (chi - 1)} as a list, top = n + 1 - r, from the
    closed-form f-vector: the Betti numbers of the (n - r)-connected
    r-fold deleted product of the n-simplex."""
    f = full_simplex_f_vector(n + 1, r)
    chi = sum((-1) ** k * fk for k, fk in enumerate(f))
    counts = [0] * len(f)
    counts[0] += 1
    counts[-1] += (-1) ** (len(f) - 1) * (chi - 1)
    return counts


def test_the_matching_of_a_full_simplex_leaves_its_betti_numbers():
    for n, r in SMALL_DELETED_PRODUCTS + [(8, 3)]:
        shapes = deleted_product(full_simplex(n), r).morse_complex()[1]
        assert shapes == full_simplex_critical_counts(n, r), (n, r)
    assert full_simplex_critical_counts(8, 3) == [1, 0, 0, 0, 0, 0, 509]


def gradient_cycle(dp):
    """A directed cycle of the gradient graph of dp's element matching, found
    by an iterative depth-first search, or None.  Each facet pair is an
    edge down, turned up when the facet is matched with the cell; each
    matched pair must be a facet pair with a +-1 entry."""
    mate = dp.element_matching()
    succ, up = {}, 0
    for d in range(1, dp.dim + 1):
        for rho, column in enumerate(dp.boundary_matrix(d)):
            for tau, v in column:
                if mate[d - 1][tau] == rho:
                    assert v in (1, -1) and mate[d][rho] == -1
                    succ.setdefault((d - 1, tau), []).append((d, rho))
                    up += 1
                else:
                    succ.setdefault((d, rho), []).append((d - 1, tau))
    assert up == sum(m is not None and m >= 0 for degree in mate for m in degree)
    assert up == sum(m == -1 for degree in mate for m in degree)
    done, on_path = set(), set()
    for start in succ:
        if start in done:
            continue
        stack = [(start, iter(succ[start]))]
        on_path.add(start)
        while stack:
            node, walk = stack[-1]
            for nxt in walk:
                if nxt in on_path:
                    return [n for n, _ in stack] + [nxt]
                if nxt not in done:
                    on_path.add(nxt)
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return None


def test_gradient_cycle_finds_a_planted_cycle():
    dp = deleted_product(full_simplex(3), 2)
    mate = planted_hexagon_matching(dp)
    dp.element_matching = lambda: mate
    cycle = gradient_cycle(dp)
    assert cycle is not None and cycle[-1] in cycle[:-1] and len(set(cycle)) == 12


@pytest.mark.parametrize("K, r", [pytest.param(full_simplex(n), r, id="delta%d-r%d" % (n, r))
                                  for n, r in SMALL_DELETED_PRODUCTS] + [
    pytest.param(simplex_skeleton(8, 2), 2, id="delta8_2-r2"),
    pytest.param(COLORED333, 3, id="colored333-r3"),
    pytest.param(RP2, 3, id="rp2-r3"),
    pytest.param(CYCLE70, 2, id="cycle70-r2")])
def test_the_element_matching_is_acyclic(K, r):
    assert gradient_cycle(deleted_product(K, r)) is None


HEXAGON_POINTS = [((0,), (1,)), ((0,), (2,)), ((1,), (2,)), ((1,), (0,)), ((2,), (0,)), ((2,), (1,))]
HEXAGON_EDGES = [((0,), (1, 2)), ((0, 1), (2,)), ((1,), (0, 2)), ((1, 2), (0,)), ((2,), (0, 1)),
                 ((0, 2), (1,))]


def planted_hexagon_matching(dp):
    """A matching of dp's cells that goes round the hexagon of Delta_2 inside
    it: each point matched up with the edge to the next point."""
    cells = dp.cells_by_dim
    mate = [[None] * len(cells[d]) for d in range(dp.dim + 1)]
    for point, edge in zip(HEXAGON_POINTS, HEXAGON_EDGES):
        mate[0][cells[0].index(point)] = cells[1].index(edge)
        mate[1][cells[1].index(edge)] = -1
    return mate


def test_a_planted_gradient_cycle_raises():
    dp = deleted_product(full_simplex(3), 2)
    mate = planted_hexagon_matching(dp)
    dp.element_matching = lambda: mate
    with pytest.raises(SearchInvariantViolated, match="gradient cycle through 0-cell"):
        dp_homology(dp)


def test_the_connectivity_of_a_full_simplex_is_n_minus_r():
    """Barany-Shlosman-Szucs: the r-fold deleted product of the N-simplex is
    (N - r)-connected, and no more (its homology sits in degree N + 1 - r)."""
    for n, r in SMALL_DELETED_PRODUCTS + [(8, 3)]:
        assert homological_connectivity(deleted_product(full_simplex(n), r)) == n - r, (n, r)


@pytest.mark.parametrize("K, ranks, critical", [
    pytest.param(full_simplex(8), {0: 1, 6: 509}, [1, 0, 0, 0, 0, 0, 509], id="delta8-r3"),
    pytest.param(simplex_skeleton(8, 2), {0: 1, 2: 168, 4: 1269, 5: 10}, [1, 0, 168, 0, 1344, 85, 0],
                 id="delta8_2-r3")])
def test_integral_homology_of_delta8_products_is_pinned(K, ranks, critical):
    """With v outer, the matching kept 4,108 critical cells of Delta_8^(2), against 1,598."""
    dp = deleted_product(K, 3)
    rep = dp_homology(dp)
    assert rep.ranks == {d: ranks.get(d, 0) for d in range(dp.dim + 1)}
    assert not any(rep.torsion.values())
    assert dp.morse_complex()[1] == critical


# 12 vertices, 40 random triangles: with r = 3 its Morse complex keeps
# thousands of critical cells in adjacent degrees, and entries up to 5
RANDOM12 = Complex.from_maximal(12, random.Random(7).sample(list(combinations(range(12), 3)), 40))


def test_homology_of_a_random_base_is_pinned_and_matches_sympy():
    boundaries, shapes = deleted_product(RANDOM12, 3).morse_complex()
    assert shapes == [1, 44, 538, 2166, 713, 2, 0]
    betti = {0: 1, 1: 21, 2: 180, 3: 1132, 4: 12, 5: 0, 6: 0}
    z = homology(boundaries, shapes, "Z")
    assert z.ranks == betti and not any(z.torsion.values())
    for p in (2, 3):
        expected = {d: sympy_rank(boundaries[d], (shapes[d - 1], shapes[d]), p)
                    for d in range(1, len(shapes))}
        assert {d: _rank_mod_p(boundaries[d], p) for d in expected} == expected
        rep = homology(boundaries, shapes, p)
        assert boundary_ranks(rep, shapes) == {**expected, len(shapes): 0}
        # no torsion over Z, so by universal coefficients the Betti numbers agree
        assert rep.ranks == betti


def test_mat_vec_and_det_refuse_a_wrong_shape():
    with pytest.raises(InputError, match=r"vector length mismatch"):
        int_matrix(IDENTITY_3).mat_vec([1, 2])
    with pytest.raises(InputError, match=r"determinant needs a square matrix"):
        det([[1, 2, 3], [4, 5, 6]])


def test_solve_integer_system():
    A = int_matrix(IDENTITY_3)
    x, cert = solve_integer_system(A, [4, -5, 6])
    assert x == [4, -5, 6] and cert is None

    A = int_matrix([[2]])
    x, cert = solve_integer_system(A, [1])
    assert x is None and cert["kind"] == "divisibility"

    A = int_matrix([[2, 3]])
    x, cert = solve_integer_system(A, [1])
    assert cert is None and 2 * x[0] + 3 * x[1] == 1

    # inconsistent over the rationals already
    A = int_matrix([[1, 1], [1, 1]])
    x, cert = solve_integer_system(A, [0, 1])
    assert x is None and cert["kind"] == "rank"

    with pytest.raises(InputError, match=r"b has length 3, A has 2 rows"):
        solve_integer_system(int_matrix([[1, 0], [0, 1]]), [1, 2, 3])


def test_solve_integer_system_random():
    rng = random.Random(31)
    for trial in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = int_matrix(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = A.mat_vec(x0)
        x, cert = solve_integer_system(A, b)
        assert cert is None and A.mat_vec(x) == b


def test_solve_integer_system_leftover_block():
    # no unit in column 0: the block [[2, 0], [0, 3]] is left after the
    # pivot on the 1 of the last row
    A = int_matrix([[2, 0, 0], [0, 3, 1], [0, 0, 1]])
    x, cert = solve_integer_system(A, [4, 7, 1])
    assert cert is None and x == [2, 2, 1]
    x, cert = solve_integer_system(A, [3, 7, 1])
    assert x is None
    assert cert == {"kind": "divisibility", "index": 2, "diagonal": 6, "coordinate": 21}


def test_witness_that_fails_its_recheck_raises(monkeypatch):
    monkeypatch.setattr(homology_module, "_equation_combination", lambda u, log: {})
    with pytest.raises(SearchInvariantViolated):
        solve_integer_system(int_matrix([[2]]), [1])


def sparse_systems():
    """(rows, b): small integer matrices with few units, so that the unit
    pivots leave a dense block, and right-hand sides in the image, moved off
    it by a small vector, or drawn freely."""
    pool = [0] * 6 + [2, -2, 3, 4, -6, 1, -1]

    def vec(k):
        return st.lists(st.integers(-4, 4), min_size=k, max_size=k)

    def system(shape):
        m, n = shape
        matrix = st.lists(st.lists(st.sampled_from(pool), min_size=n, max_size=n),
                          min_size=m, max_size=m)
        # "moved" is drawn twice as often: it gives most divisibility witnesses
        return st.tuples(matrix, vec(n), vec(m), st.sampled_from(["image", "moved", "moved", "free"]))

    def rhs(case):
        rows, x0, e, how = case
        image = int_matrix(rows).mat_vec(x0)
        b = {"image": image, "moved": [a + b for a, b in zip(image, e)], "free": e}[how]
        return rows, b

    return st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(system).map(rhs)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_sparse_solve_matches_dense_solve(monkeypatch):
    seen = Counter()
    checked = []
    real_check = homology_module._check_witness

    def check_witness(cols, carry, u, d):
        checked.append((u, d))
        real_check(cols, carry, u, d)

    monkeypatch.setattr(homology_module, "_check_witness", check_witness)

    @settings(max_examples=300)
    @given(sparse_systems())
    def check(case):
        rows, b = case
        A = int_matrix(rows)
        del checked[:]
        x, cert = solve_integer_system(A, b)
        dense_x, _, _ = _snf_solve(A, b)
        assert (x is None) == (dense_x is None)
        seen["leftover"] += bool(_eliminate(columns(A.entries, A.cols))[1])
        if x is not None:
            seen["solved"] += 1
            assert A.mat_vec(x) == b
            return
        seen[cert["kind"]] += 1
        # the combination u behind the witness, checked densely here
        [(u, d)] = checked
        assert d == cert.get("diagonal", 0)
        uA = [sum(u.get(i, 0) * rows[i][j] for i in range(A.rows)) for j in range(A.cols)]
        ub = sum(u.get(i, 0) * bi for i, bi in enumerate(b))
        if d:
            assert ub % d and all(s % d == 0 for s in uA)
        else:
            assert ub and not any(uA)
        diag = smith_diagonal(columns(A.entries, A.cols), A.rows)
        if cert["kind"] == "divisibility":
            assert diag[cert["index"]] == cert["diagonal"] > 1
        else:
            assert cert["index"] >= sum(1 for t in diag if t)

    check()
    assert seen["leftover"] >= 150 and seen["solved"] >= 100
    assert seen["divisibility"] >= 30 and seen["rank"] >= 30
