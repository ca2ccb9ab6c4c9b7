"""The r-fold solve on integer images and the mask enumeration of disjoint
tuples, each against a test-side reference: a plain Fraction elimination
of the common-point system on the original images, and the filtered
itertools.combinations enumeration."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from tvlab.complexes import Complex, are_disjoint
from tvlab.convexity import common_point_system
from tvlab.errors import NotGeneric
from tvlab.linalg import det_sign
from tvlab.plmaps import (PLMap, RFoldPoint, coned_extension_oracle, disjoint_tuples,
                          positive_normal_frame, tuple_r_fold_point)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def fraction_rref(M):
    """Textbook Gauss-Jordan over Fractions; returns (R, pivot columns)."""
    R = [[Fraction(x) for x in row] for row in M]
    pivots = []
    for c in range(len(R[0]) if R else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        p = R[r][c]
        R[r] = [x / p for x in R[r]]
        for j in range(len(R)):
            if j != r and R[j][c]:
                f = R[j][c]
                R[j] = [x - f * y for x, y in zip(R[j], R[r])]
        pivots.append(c)
    return R, pivots


def reference_r_fold_point(f, simplices, r, branches):
    """The r-fold solve on the original rational images, with the same
    checks in the same order; records which branch was taken."""
    d = f.ambient_dim
    A, b, offsets = common_point_system([f.image_points(s) for s in simplices])
    n = len(A[0])
    R, pivots = fraction_rref([row + [bi] for row, bi in zip(A, b)])
    if n in pivots:
        branches["inconsistent"] += 1
        return None
    if len(pivots) < n:
        branches["under-determined"] += 1
        raise NotGeneric("under-determined intersection system")
    x = [R[i][n] for i in range(n)]
    if any(v == 0 for v in x):
        branches["boundary"] += 1
        raise NotGeneric("intersection on a simplex boundary")
    if any(v < 0 for v in x):
        branches["outside"] += 1
        return None
    branches["hit"] += 1
    bary = tuple(tuple(x[offsets[i]:offsets[i + 1]]) for i in range(r))
    pts = f.image_points(simplices[0])
    ambient = tuple(sum(c * p[a] for c, p in zip(bary[0], pts)) for a in range(d))
    frames = []
    for s in simplices:
        frames.extend(positive_normal_frame(f.image_points(s), d))
    sgn = det_sign(frames)
    if sgn == 0:
        raise NotGeneric("parallel-degenerate image planes")
    return RFoldPoint(tuple(simplices), bary, ambient, sgn)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotGeneric as exc:
        return "NotGeneric: %s" % exc


COORD = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7))


@st.composite
def tuple_maps(draw):
    """r disjoint m-simplices mapped to R^d with d = kr, m = k(r-1).  The
    images are free, or every simplex's barycenter is one drawn point (an
    r-fold point unless degenerate), or one vertex image is then replaced by
    a copy of an earlier image (coincident), a point on the line through two
    earlier images (collinear) or an affine combination of up to d earlier
    images (cohyperplanar)."""
    r, m, d = draw(st.sampled_from([(2, 1, 2), (2, 2, 4), (3, 2, 3)]))
    nv = r * (m + 1)
    images = [[Fraction(draw(COORD)) for _ in range(d)] for _ in range(nv)]
    mode = draw(st.sampled_from(["free", "barycenter", "barycenter", "coincident",
                                 "collinear", "cohyperplanar"]))
    if mode == "barycenter":
        point = [Fraction(draw(COORD)) for _ in range(d)]
        for i in range(r):
            last = (i + 1) * (m + 1) - 1
            images[last] = [(m + 1) * point[a] - sum(images[u][a] for u in range(last - m, last))
                            for a in range(d)]
    elif mode != "free":
        v = draw(st.integers(1, nv - 1))
        size = {"coincident": 1, "collinear": 2}.get(mode) or draw(st.integers(2, d))
        base = draw(st.lists(st.integers(0, v - 1), min_size=size, max_size=size))
        coef = [Fraction(draw(COORD)) for _ in base[1:]]
        coef.insert(0, 1 - sum(coef))
        images[v] = [sum(c * images[u][a] for c, u in zip(coef, base)) for a in range(d)]
    simplices = tuple(tuple(range(i * (m + 1), (i + 1) * (m + 1))) for i in range(r))
    K = Complex.from_maximal(nv, simplices)
    return PLMap.build(K, d, images), simplices, r


def test_rfold_point_matches_fraction_path():
    branches = Counter()

    @settings(max_examples=400)
    @given(tuple_maps())
    def check(case):
        f, simplices, r = case
        got = outcome(tuple_r_fold_point, f, simplices, r)
        want = outcome(reference_r_fold_point, f, simplices, r, branches)
        assert got == want

    check()
    assert set(branches) == {"inconsistent", "under-determined", "boundary", "outside", "hit"}, \
        branches
    assert min(branches.values()) >= 10, branches


def test_integer_images_are_one_positive_scaling():
    f = PLMap.build(Complex.from_maximal(3, [[0, 1, 2]]), 2,
                    [(Fraction(1, 2), -3), (Fraction(-2, 3), 0), (5, Fraction(1, 4))])
    assert f.integer_images == ((6, -36), (-8, 0), (60, 3))


def test_coned_oracle_on_a_negative_pivot_product():
    # the three coordinate planes of test_plmaps, reflected: the last pivot
    # of some piece is negative, so a dropped sign of D shows
    imgs = [(-2, 0, 0), (1, 1, 0), (1, -1, 0),
            (0, -2, 0), (0, 1, 1), (0, 1, -1),
            (-1, 0, 2), (-1, 0, -1), (2, 0, -1)]
    K = Complex.from_maximal(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    f = PLMap.build(K, 3, imgs)
    key = ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert coned_extension_oracle(f, key, 3) == tuple_r_fold_point(f, key, 3).sign


@st.composite
def simplex_sets(draw):
    nv = draw(st.integers(1, 8))
    maximal = draw(st.lists(st.lists(st.integers(0, nv - 1), min_size=1, max_size=4, unique=True),
                            min_size=1, max_size=8))
    K = Complex.from_maximal(nv, maximal)
    if draw(st.booleans()):
        return K.simplices_of_dim(K.dim)
    return list(K.simplices)


@settings(max_examples=300)
@given(simplex_sets(), st.integers(0, 4))
def test_disjoint_tuples_matches_combinations(simplices, r):
    want = [c for c in combinations(sorted(simplices), r)
            if all(are_disjoint(a, b) for a, b in combinations(c, 2))]
    assert disjoint_tuples(simplices, r) == want
