"""Tests for simplicial complexes and elementary simplex algebra."""

import json
import sys

import pytest

from tvlab import complexes
from tvlab.complexes import (Complex, check_cap, check_digits, full_simplex, make_simplex,
                             simplex_skeleton)
from tvlab.errors import CapExceeded, InputError
from tvlab.plmaps import PLMap, constraint_lift

try:
    from hypothesis import given, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None


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
    assert K.simplices == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)}
    assert [len(K.simplices_of_dim(k)) for k in range(K.dim + 1)] == [3, 3, 1]


def test_full_simplex_counts():
    # the N-simplex has 2^(N+1) - 1 faces
    for N in range(5):
        K = full_simplex(N)
        assert len(K.simplices) == 2 ** (N + 1) - 1
        assert K.dim == N


def test_skeleton():
    K = simplex_skeleton(4, 1)
    assert K.dim == 1
    # the complete graph on 5 vertices
    assert [len(K.simplices_of_dim(k)) for k in range(K.dim + 1)] == [5, 10]
    with pytest.raises(InputError, match=r"need 0 <= s <= N, got s=5 N=3"):
        simplex_skeleton(3, 5)
    with pytest.raises(InputError, match=r"need 0 <= s <= N, got s=-1 N=3"):
        simplex_skeleton(3, -1)


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


def pairwise_maximal(K):
    """Reference: the faces contained in no other face, by pairwise scan."""
    return sorted(s for s in K.simplices
                  if not any(s != t and set(s) <= set(t) for t in K.simplices))


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_maximal_simplices_match_the_pairwise_scan():
    faces = st.sets(st.integers(0, 7), min_size=1, max_size=8)

    @given(st.lists(faces, min_size=1, max_size=6))
    def check(maximal):
        K = Complex.from_maximal(8, maximal)
        assert K.maximal_simplices() == pairwise_maximal(K)
        assert Complex.from_maximal(8, K.maximal_simplices()) == K

    check()


def test_maximal_simplices_of_subdivided_simplices():
    for N in (2, 3, 4):
        f = PLMap.build(full_simplex(N), 1, [(v,) for v in range(N + 1)])
        K = constraint_lift(f, 0).map.domain
        assert K.maximal_simplices() == pairwise_maximal(K)


def test_cap_gate_at_its_boundary(monkeypatch):
    monkeypatch.setenv("TVLAB_CELL_CAP", "10")
    check_cap(10, "widgets")  # a count equal to the cap passes
    with pytest.raises(CapExceeded) as exc:
        check_cap(11, "widgets")
    assert str(exc.value) == "widgets: 11, over the cell cap 10"
    with pytest.raises(CapExceeded) as exc:  # too many digits for int-to-str
        check_cap(2**20000 + 1, "widgets")
    assert str(exc.value) == "widgets: at least 2^20000, over the cell cap 10"


def test_digit_gate_at_its_boundary():
    limit = sys.get_int_max_str_digits()
    check_digits(10**limit - 1, "widget")  # limit digits still print
    check_digits(-(10**limit - 1), "widget")
    for n in (10**limit, -(10**limit)):
        with pytest.raises(CapExceeded) as exc:
            check_digits(n, "widget")
        assert str(exc.value) == "widget has more than %d digits" % limit


def test_face_closure_is_capped(monkeypatch):
    with pytest.raises(CapExceeded):  # 2^40 - 1 faces, refused before closing
        Complex.from_maximal(40, [range(40)])
    monkeypatch.setenv("TVLAB_CELL_CAP", "20")
    assert len(Complex.from_maximal(8, [[0, 1, 2, 3], [4, 5]]).simplices) == 18
    with pytest.raises(CapExceeded):  # each simplex fits, together they do not
        Complex.from_maximal(8, [[0, 1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("cap, n, maximal, message", [
    (14, 4, [range(4)], "faces of the 3-simplex: 15, over the cell cap 14"),
    (5, 40, [range(40)], "faces of the 39-simplex, at least: 8, over the cell cap 5"),
    (20, 8, [[0, 1, 2, 3], [4, 5, 6]], "faces of the complex: 22, over the cell cap 20"),
    (20, 8, [[0, 1], [0, 1, 2, 3, 4]], "faces of the 4-simplex: 31, over the cell cap 20"),
    (0, 1, [[0]], "faces of the 0-simplex, at least: 1, over the cell cap 0")])
def test_face_closure_names_what_passed_the_cap(monkeypatch, cap, n, maximal, message):
    monkeypatch.setenv("TVLAB_CELL_CAP", str(cap))
    with pytest.raises(CapExceeded) as exc:
        Complex.from_maximal(n, maximal)
    assert str(exc.value) == message


def test_face_closure_reads_the_cap_once(monkeypatch):
    reads = []

    def counted_cap():
        reads.append(1)
        return cell_cap()

    cell_cap = complexes.configured_cell_cap
    monkeypatch.setattr(complexes, "configured_cell_cap", counted_cap)
    monkeypatch.setenv("TVLAB_CELL_CAP", "15")  # the 3-simplex's 15 faces pass
    assert len(Complex.from_maximal(4, [range(4)]).simplices) == 15
    assert len(Complex.from_maximal(8, [[0, 1, 2], [2, 3], [4]]).simplices) == 10
    assert len(reads) == 2
