"""Tests for PL maps, r-fold points, intersection cocycles, constructions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tvlab.complexes import Complex, full_simplex
from tvlab.errors import InputError, NotGeneric
from tvlab.linalg import det_sign
from tvlab.plmaps import (PLMap, coned_extension_oracle, constraint_lift,
                          global_r_fold_points, intersection_cocycle,
                          is_almost_r_embedding, join_extension,
                          tuple_r_fold_point)

PENTAGON = [(0, 2), (2, 1), (1, -2), (-1, -2), (-2, 1)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def complete_graph_map(points):
    n = len(points)
    K = Complex.from_maximal(n, [[i, j] for i in range(n) for j in range(i + 1, n)])
    return PLMap.build(K, 2, points)


def segment_crossings(points, edges):
    """Independent oracle: count proper crossings of disjoint straight edges
    by exact orientation predicates."""

    def orient(a, b, c):
        return det_sign([[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]])

    count = 0
    for e, f in combinations(edges, 2):
        if set(e) & set(f):
            continue
        a, b = points[e[0]], points[e[1]]
        c, d = points[f[0]], points[f[1]]
        if (orient(a, b, c) * orient(a, b, d) < 0
                and orient(c, d, a) * orient(c, d, b) < 0):
            count += 1
    return count


def test_two_segments_crossing():
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    f = PLMap.build(K, 2, [(0, 0), (2, 2), (0, 2), (2, 0)])
    pts = global_r_fold_points(f, 2)
    assert len(pts) == 1
    assert pts[0].ambient == (Fraction(1), Fraction(1))
    assert pts[0].sign in (-1, 1)
    assert all(all(c > 0 for c in bc) for bc in pts[0].barycentric)


def test_three_coordinate_triangles():
    K = Complex.from_maximal(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    imgs = [(2, 0, 0), (-1, 1, 0), (-1, -1, 0),
            (0, 2, 0), (0, -1, 1), (0, -1, -1),
            (0, 0, 2), (1, 0, -1), (-1, 0, -1)]
    f = PLMap.build(K, 3, imgs)
    pts = global_r_fold_points(f, 3)
    assert len(pts) == 1
    assert pts[0].ambient == (Fraction(0), Fraction(0), Fraction(0))
    # the three planes are the coordinate planes, so the stacked normal
    # frames are the coordinate axes up to orientation fixes
    assert pts[0].sign == 1


def test_k5_pentagon_crossings():
    pts = [tuple(map(Fraction, p)) for p in PENTAGON]
    f = complete_graph_map(PENTAGON)
    table = intersection_cocycle(f, 2)
    edges = f.domain.simplices_of_dim(1)
    assert segment_crossings(pts, edges) == 5
    nonzero = {k: v for k, v in table.items() if v}
    assert len(nonzero) == 5
    assert all(v in (-1, 1) for v in nonzero.values())
    assert sum(abs(v) for v in table.values()) == 5


def test_k4_square_drawing():
    pts = [tuple(map(Fraction, p)) for p in SQUARE]
    f = complete_graph_map(SQUARE)
    table = intersection_cocycle(f, 2)
    edges = f.domain.simplices_of_dim(1)
    assert segment_crossings(pts, edges) == 1
    nonzero = {k: v for k, v in table.items() if v}
    assert nonzero == {((0, 2), (1, 3)): 1} or nonzero == {((0, 2), (1, 3)): -1}


def test_embedding_has_zero_cocycle():
    # a straight-line plane drawing of the 4-cycle with both diagonals absent
    K = Complex.from_maximal(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    f = PLMap.build(K, 2, SQUARE)
    table = intersection_cocycle(f, 2)
    assert not any(table.values())


def test_sign_antisymmetry_under_vertex_swap():
    # relabeling the two endpoints of one segment flips the orientation of
    # that simplex, so the crossing sign flips
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    f1 = PLMap.build(K, 2, [(0, 0), (2, 2), (0, 2), (2, 0)])
    f2 = PLMap.build(K, 2, [(2, 2), (0, 0), (0, 2), (2, 0)])
    s1 = global_r_fold_points(f1, 2)[0].sign
    s2 = global_r_fold_points(f2, 2)[0].sign
    assert s1 == -s2


def test_not_generic_boundary_crossing():
    # segments meeting exactly at a shared image endpoint of one segment
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    f = PLMap.build(K, 2, [(0, 0), (2, 2), (1, 1), (3, 0)])
    with pytest.raises(NotGeneric):
        tuple_r_fold_point(f, ((0, 1), (2, 3)))


def test_dimension_precondition():
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    f = PLMap.build(K, 2, SQUARE)
    with pytest.raises(InputError):
        global_r_fold_points(f, 3)


def test_oracle_matches_cocycle_k4_k5():
    for drawing in (SQUARE, PENTAGON):
        f = complete_graph_map(drawing)
        table = intersection_cocycle(f, 2)
        for key, val in table.items():
            assert coned_extension_oracle(f, key) == val


def test_oracle_matches_on_triple_point():
    K = Complex.from_maximal(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    imgs = [(2, 0, 0), (-1, 1, 0), (-1, -1, 0),
            (0, 2, 0), (0, -1, 1), (0, -1, -1),
            (1, 0, 2), (1, 0, -1), (-2, 0, -1)]
    f = PLMap.build(K, 3, imgs)
    table = intersection_cocycle(f, 3)
    for key, val in table.items():
        assert coned_extension_oracle(f, key) == val


def test_oracle_seed_independence():
    f = complete_graph_map(PENTAGON)
    key = ((0, 2), (1, 3))
    vals = {coned_extension_oracle(f, key, seed=s) for s in range(5)}
    assert len(vals) == 1


def perturbed(f, seed):
    """The map with every image coordinate moved by a seeded rational of
    size at most 2^-40 times the spread of the coordinates."""
    rng = random.Random(seed)
    coords = [x for p in f.images for x in p]
    eps = (max(coords) - min(coords) or Fraction(1)) / 2**40
    images = tuple(tuple(x + eps * Fraction(rng.randint(-2**20, 2**20), 2**20) for x in p)
                   for p in f.images)
    return PLMap(f.domain, f.ambient_dim, images)


def test_perturbation_stability():
    f = complete_graph_map(PENTAGON)
    base = intersection_cocycle(f, 2)
    for s in (1, 2):
        assert intersection_cocycle(perturbed(f, s), 2) == base


def test_is_almost_r_embedding():
    # an affinely embedded triangle is an almost 2-embedding
    f = PLMap.build(full_simplex(2), 2, [(0, 0), (1, 0), (0, 1)])
    assert is_almost_r_embedding(f, 2)
    # the K_4 square drawing has crossing disjoint edges
    assert not is_almost_r_embedding(complete_graph_map(SQUARE), 2)
    # 3 points on a line: Radon forces a coincidence
    f = PLMap.build(full_simplex(1), 1, [(0,), (2,)])
    g = PLMap.build(full_simplex(2), 1, [(0,), (1,), (2,)])
    assert not is_almost_r_embedding(g, 2)
    with pytest.raises(InputError, match=r"an almost r-embedding needs r >= 2, got 1"):
        is_almost_r_embedding(g, 1)


def test_join_extension():
    f = PLMap.build(full_simplex(2), 2, [(0, 0), (1, 0), (0, 1)])
    j = join_extension(f, 2)
    assert j.domain.num_vertices == 4 and j.ambient_dim == 3
    # old vertices keep their images with a zero appended
    for v in range(3):
        assert j.images[v] == f.images[v] + (Fraction(0),)
    # the new vertex goes to (0, ..., 0, 1)
    assert j.images[3] == (Fraction(0), Fraction(0), Fraction(1))
    # no two disjoint faces have intersecting images, hence no 2-fold points
    assert is_almost_r_embedding(j, 2)


def test_join_extension_needs_full_simplex():
    K = Complex.from_maximal(3, [[0, 1], [1, 2]])
    with pytest.raises(InputError):
        join_extension(PLMap.build(K, 1, [(0,), (1,), (2,)]), 2)


def test_constraint_lift_heights():
    f = PLMap.build(full_simplex(1), 1, [(0,), (1,)])
    lift = constraint_lift(f, 0)
    heights = {face: lift.map.images[i][-1]
               for i, face in enumerate(lift.vertex_faces)}
    assert heights == {(0,): 0, (1,): 0, (0, 1): 1}

    f2 = PLMap.build(full_simplex(2), 2, [(0, 0), (1, 0), (0, 1)])
    lift2 = constraint_lift(f2, 1)
    for i, face in enumerate(lift2.vertex_faces):
        want = max(0, len(face) - 2)
        assert lift2.map.images[i][-1] == want


def test_constraint_lift_zero_set_is_skeleton():
    for N, s in [(2, 1), (3, 1), (3, 2)]:
        f = PLMap.build(full_simplex(N), N,
                        [tuple(int(i == j) for j in range(N)) for i in range(N + 1)])
        lift = constraint_lift(f, s)
        for i, face in enumerate(lift.vertex_faces):
            zero = lift.map.images[i][-1] == 0
            assert zero == (len(face) - 1 <= s)


def test_constraint_lift_restriction_is_f():
    # on original vertices (faces of dimension 0) the lift is (f, 0)
    f = PLMap.build(full_simplex(2), 2, [(0, 0), (3, 0), (0, 3)])
    lift = constraint_lift(f, 1)
    for i, face in enumerate(lift.vertex_faces):
        if len(face) == 1:
            assert lift.map.images[i] == f.images[face[0]] + (Fraction(0),)


def test_plmap_json_roundtrip(tmp_path):
    f = complete_graph_map(SQUARE)
    path = tmp_path / "map.json"
    import json

    path.write_text(json.dumps(f.to_json_dict()))
    g = PLMap.from_json_file(str(path))
    assert g == f


def chains_lift(f, s):
    """Reference: the subdivision's flags by recursive search over all faces."""
    N = f.domain.num_vertices - 1
    faces = sorted(f.domain.simplices, key=lambda t: (len(t), t))
    index = {t: i for i, t in enumerate(faces)}
    maximal = []

    def chains(face, chain):
        chain = chain + [index[face]]
        if len(face) == N + 1:
            maximal.append(chain)
            return
        for sup in faces:
            if len(sup) == len(face) + 1 and set(face) < set(sup):
                chains(sup, chain)

    for v in range(N + 1):
        chains((v,), [])
    images = [tuple(sum(f.images[v][a] for v in t) / len(t) for a in range(f.ambient_dim))
              + (Fraction(max(0, len(t) - 1 - s)),) for t in faces]
    return Complex.from_maximal(len(faces), maximal).simplices, tuple(images), faces


def test_constraint_lift_matches_the_recursive_chain_search():
    for N in range(1, 5):
        f = PLMap.build(full_simplex(N), 2, [(v, v * v - 1) for v in range(N + 1)])
        for s in range(N):
            lift = constraint_lift(f, s)
            want = chains_lift(f, s)
            assert (lift.map.domain.simplices, lift.map.images, lift.vertex_faces) == want
            assert lift.map.ambient_dim == 3
