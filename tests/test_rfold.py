"""The r-fold solve on integer images and the mask enumeration of disjoint
tuples, each against a test-side reference: a plain Fraction elimination
of the common-point system on the original images, with the sign from
stacked normal frames, and the filtered itertools.combinations
enumeration."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from tvlab import linalg, plmaps
from tvlab.complexes import Complex, are_disjoint, simplex_skeleton
from tvlab.convexity import common_point_system, random_rational_points
from tvlab.errors import NotGeneric
from tvlab.linalg import det_sign
from tvlab.plmaps import (PLMap, RFoldPoint, coned_extension_oracle, disjoint_tuples,
                          intersection_cocycle, positive_normal_frame, tuple_r_fold_point)

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


def hit_tuple(k, r, rng):
    """r disjoint k(r-1)-simplices in R^{kr}, each translated so that an
    interior point of it (positive integer barycentric weights) lands on the
    origin: the origin is then an r-fold point, unless the draw is
    degenerate."""
    m, d = k * (r - 1), k * r
    images = []
    for _ in range(r):
        pts = [[rng.randint(-99, 99) for _ in range(d)] for _ in range(m + 1)]
        w = [rng.randint(1, 9) for _ in range(m + 1)]
        centre = [Fraction(sum(wj * p[a] for wj, p in zip(w, pts)), sum(w)) for a in range(d)]
        images += [[p[a] - centre[a] for a in range(d)] for p in pts]
    simplices = tuple(tuple(range(i * (m + 1), (i + 1) * (m + 1))) for i in range(r))
    return PLMap.build(Complex.from_maximal(r * (m + 1), simplices), d, images), simplices


@pytest.mark.parametrize("k,r,count", [(1, 2, 30), (2, 2, 30), (3, 2, 20), (1, 3, 30),
                                       (2, 3, 6), (1, 4, 6)])
def test_sign_is_the_determinant_sign_of_the_solve(k, r, count):
    rng = random.Random(repr(("hit", k, r)))
    signs = Counter()
    for _ in range(count):
        f, simplices = hit_tuple(k, r, rng)
        pt = tuple_r_fold_point(f, simplices, r)
        assert pt == reference_r_fold_point(f, simplices, r, Counter())
        assert pt.ambient == (0,) * (k * r)
        assert coned_extension_oracle(f, simplices, r) == pt.sign
        signs[pt.sign] += 1
    assert set(signs) == {-1, 1}, signs


def test_cocycle_builds_no_frame_and_no_second_determinant(monkeypatch):
    colored = Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                       for b in range(3, 6) for c in range(6, 9)])
    cases = [(PLMap.build(simplex_skeleton(4, 1), 2, random_rational_points(5, 2, "k5")), 2),
             (PLMap.build(colored, 3, random_rational_points(9, 3, repr(("g", 1)))), 3)]
    want = []
    for f, r in cases:
        top = f.domain.simplices_of_dim(f.domain.dim)
        points = {key: reference_r_fold_point(f, key, r, Counter())
                  for key in disjoint_tuples(top, r)}
        want.append({key: 0 if pt is None else pt.sign for key, pt in points.items()})
        assert any(want[-1].values())

    def refuse(*args):
        raise AssertionError("the r-fold solve computed a second orientation")

    monkeypatch.setattr(plmaps, "positive_normal_frame", refuse)
    monkeypatch.setattr(linalg, "det_sign", refuse)
    assert [intersection_cocycle(f, r) for f, r in cases] == want


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
