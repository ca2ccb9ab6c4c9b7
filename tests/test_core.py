"""Tests for simplicial complexes and elementary simplex algebra."""

import json

import pytest

from tvlab.complexes import (Complex, are_disjoint, full_simplex, join,
                             make_simplex, simplex_skeleton)
from tvlab.errors import InputError, InvalidSkeleton


def test_make_simplex_validation():
    assert make_simplex([0, 2, 5]) == (0, 2, 5)
    with pytest.raises(InputError):
        make_simplex([])
    with pytest.raises(InputError):
        make_simplex([2, 1])
    with pytest.raises(InputError):
        make_simplex([0, 0])
    with pytest.raises(InputError):
        make_simplex([-1, 0])


def test_face_closure_from_maximal():
    K = Complex.from_maximal(3, [[0, 1, 2]])
    assert K.has_simplex((0, 1, 2))
    assert K.has_simplex((0, 2))
    assert K.has_simplex((1,))
    assert K.is_face_closed()
    assert K.f_vector() == [3, 3, 1]


def test_full_simplex_counts():
    # the N-simplex has 2^(N+1) - 1 faces
    for N in range(5):
        K = full_simplex(N)
        assert len(K.simplices) == 2 ** (N + 1) - 1
        assert K.dim == N


def test_skeleton():
    K = simplex_skeleton(4, 1)
    assert K.dim == 1
    assert K.f_vector() == [5, 10]  # the complete graph on 5 vertices
    with pytest.raises(InvalidSkeleton):
        simplex_skeleton(3, 5)
    with pytest.raises(InvalidSkeleton):
        simplex_skeleton(3, -1)


def test_join_of_simplices():
    # join of Delta_a and Delta_b is Delta_{a+b+1}
    for a, b in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        J = join(full_simplex(a), full_simplex(b))
        assert J.num_vertices == a + b + 2
        assert len(J.simplices) == 2 ** (a + b + 2) - 1


def test_join_of_two_points_is_segment():
    pt = Complex.from_maximal(1, [[0]])
    J = join(pt, pt)
    assert sorted(J.simplices) == [(0,), (0, 1), (1,)]


def test_are_disjoint():
    assert are_disjoint((0, 1), (2, 3))
    assert not are_disjoint((0, 1), (1, 2))


def test_maximal_simplices_roundtrip():
    K = Complex.from_maximal(5, [[0, 1, 2], [2, 3], [4]])
    assert K.maximal_simplices() == [(0, 1, 2), (2, 3), (4,)]


def test_json_roundtrip(tmp_path):
    K = Complex.from_maximal(4, [[0, 1, 2], [1, 3]])
    data = K.to_json_dict()
    assert Complex.from_json_dict(data) == K
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    assert Complex.from_json_file(str(path)) == K
    with pytest.raises(InputError):
        Complex.from_json_dict({"num_vertices": 2})


def test_vertex_range_enforced():
    with pytest.raises(InputError):
        Complex.from_maximal(2, [[0, 2]])
