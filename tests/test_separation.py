"""The separation filter in front of every r-tuple question of plmaps.

intersection_cocycle, global_r_fold_points and is_almost_r_embedding skip a
tuple whose images lie strictly apart along an axis or a diagonal
(convexity.separated).  On generic maps each must answer exactly as the
plain walk over every disjoint tuple does.  A degenerate tuple that is
separated counts 0, the value of every small generic perturbation, though
the solve alone raises NotGeneric on it; a degenerate tuple that is not
separated raises.  A linear almost 3-embedding of Delta_9^(2) in R^3 is
decided with 3,315 of its 59,830 LPs.
"""

import pytest

from tvlab import convexity, plmaps
from tvlab.complexes import Complex, simplex_skeleton
from tvlab.convexity import hulls_intersect, random_rational_points
from tvlab.errors import NotGeneric
from tvlab.plmaps import (PLMap, disjoint_tuples, global_r_fold_points, intersection_cocycle,
                          is_almost_r_embedding, tuple_r_fold_point)

COLORED = Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                   for b in range(3, 6) for c in range(6, 9)])
SEGMENTS = Complex.from_maximal(4, [[0, 1], [2, 3]])


def generic_map(domain, d, seed):
    return PLMap.build(domain, d, random_rational_points(domain.num_vertices, d, seed))


# (map, r): seeded generic maps, then a planar K_4 and Delta_5^(2) -> R^4 with
# vertex 5 inside the simplex of the other five.  An almost embedding answers
# True only after every tuple is walked.
CASES = [
    *((generic_map(simplex_skeleton(5, 2), 4, repr(("separation", 5, i))), 2) for i in range(3)),
    (generic_map(simplex_skeleton(6, 2), 4, repr(("separation", 6, 0))), 2),
    *((generic_map(COLORED, 3, repr(("separation", "colored", i))), 3) for i in (3, 0)),
    (generic_map(simplex_skeleton(4, 1), 2, repr(("separation", "k5", 0))), 2),
    (PLMap.build(simplex_skeleton(3, 1), 2, [(0, 0), (4, 0), (0, 4), (1, 1)]), 2),
    (PLMap.build(simplex_skeleton(5, 2), 4, [(4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0),
                                             (0, 0, 0, 4), (-3, -3, -3, -3), (1, 0, 1, 0)]), 2),
]
IDS = ["delta5-0", "delta5-1", "delta5-2", "delta6", "colored-3", "colored-0", "k5",
       "planar-k4", "delta5-inside"]


def plain_points(f, r):
    """(tuple, r-fold point or None) by one solve per disjoint top-simplex tuple."""
    top = f.domain.simplices_of_dim(f.domain.dim)
    return [(combo, tuple_r_fold_point(f, combo)) for combo in disjoint_tuples(top, r)]


@pytest.mark.parametrize("case", range(len(CASES)), ids=IDS)
def test_filtered_answers_equal_the_plain_walk(case):
    f, r = CASES[case]
    plain = plain_points(f, r)
    assert intersection_cocycle(f, r) == {combo: 0 if pt is None else pt.sign
                                          for combo, pt in plain}
    assert global_r_fold_points(f, r) == [pt for _, pt in plain if pt is not None]
    assert is_almost_r_embedding(f, r) == all(
        convexity.hulls_intersect([f.image_points(s) for s in combo]) is None
        for combo in disjoint_tuples(f.domain.simplices, r))


def test_the_cases_reach_both_answers():
    assert [is_almost_r_embedding(f, r) for f, r in CASES] == [
        False, True, False, False, False, True, False, True, True]
    assert [sum(1 for v in intersection_cocycle(f, r).values() if v) for f, r in CASES] == [
        1, 0, 1, 7, 1, 0, 5, 0, 0]


def test_separated_degenerate_segments_count_zero():
    # collinear segments apart along e_1: the solve is under-determined, the filter skips it
    f = PLMap.build(SEGMENTS, 2, [(0, 0), (1, 0), (2, 0), (3, 0)])
    with pytest.raises(NotGeneric):
        tuple_r_fold_point(f, ((0, 1), (2, 3)))
    assert intersection_cocycle(f, 2) == {((0, 1), (2, 3)): 0}
    assert global_r_fold_points(f, 2) == []
    assert is_almost_r_embedding(f, 2)


def test_overlapping_degenerate_segments_stay_not_generic():
    f = PLMap.build(SEGMENTS, 2, [(0, 0), (2, 0), (1, 0), (3, 0)])
    with pytest.raises(NotGeneric):
        intersection_cocycle(f, 2)
    with pytest.raises(NotGeneric):
        global_r_fold_points(f, 2)
    assert not is_almost_r_embedding(f, 2)


def test_delta10_cocycle_solves_under_a_quarter_of_its_triples(monkeypatch):
    # the generic Delta_10^(2) -> R^3 with r = 3: 15,400 disjoint triples of triangles
    f = generic_map(simplex_skeleton(10, 2), 3, repr(("probe", 10, 0)))
    solved = []

    def counted(f, simplices):
        solved.append(simplices)
        return tuple_r_fold_point(f, simplices)

    monkeypatch.setattr(plmaps, "tuple_r_fold_point", counted)
    table = intersection_cocycle(f, 3)
    assert len(table) == 15400
    assert sum(1 for v in table.values() if v) == 242
    assert len(solved) < 15400 // 4
    assert all(table[combo] == 0 for combo in set(table) - set(solved))


# A linear almost 3-embedding of Delta_9^(2) in R^3: no three pairwise disjoint
# faces have images with a common point.  Delta_10^(2) has none, by the
# generalized van Kampen-Flores theorem, so the bound is sharp for d = 3, r = 3.
DELTA9_ALMOST = [(-11, -18, -10), (8, 12, 7), (14, -6, 20), (13, 8, -6), (13, -19, 5),
                 (16, 0, 20), (7, -17, -1), (-12, -7, -17), (-1, -16, -16), (8, 31, -40)]


def test_delta9_almost_3_embedding_needs_few_lps(monkeypatch):
    f = PLMap.build(simplex_skeleton(9, 2), 3, DELTA9_ALMOST)
    assert len(disjoint_tuples(f.domain.simplices, 3)) == 59830
    lps = []

    def counted(groups):
        lps.append(groups)
        return hulls_intersect(groups)

    monkeypatch.setattr(convexity, "hulls_intersect", counted)
    assert is_almost_r_embedding(f, 3)
    assert len(lps) == 3315
    # so is its restriction to Delta_8^(2)
    assert is_almost_r_embedding(PLMap.build(simplex_skeleton(8, 2), 3, DELTA9_ALMOST[:9]), 3)
