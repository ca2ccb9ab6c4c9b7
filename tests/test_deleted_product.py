"""Tests for the r-fold deleted product construction."""

import gc
import random
import time
from collections import Counter
from math import comb, factorial

import pytest

from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab import deleted_product as deleted_product_module
from tvlab.deleted_product import (DeletedProductComplex, _disjoint, act_on_cell, cell_dim,
                                   check_full_simplex_cap, deleted_product,
                                   disjoint_tuples, full_simplex_cell_count,
                                   puzzle_reachable)
from tvlab.errors import CapExceeded, InputError
from tvlab.symgroup import compose

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None
needs_hypothesis = pytest.mark.skipif(given is None, reason="needs hypothesis")


def brute_force_cells(K, r):
    """Independent oracle: filter all ordered r-tuples of simplices."""
    from itertools import product

    out = []
    simplices = sorted(K.simplices)
    for tup in product(simplices, repeat=r):
        verts = [v for s in tup for v in s]
        if len(verts) == len(set(verts)):
            out.append(tup)
    return out


def multinomial_f_vector(N, r):
    """Closed-form oracle for the f-vector of the deleted product of Delta_N.

    Cells of dimension D correspond to ordered choices of disjoint subsets
    with sizes a_1..a_r summing to D + r.
    """
    counts = {}

    def rec(sizes, left):
        if len(sizes) == r:
            total = sum(sizes)
            ways = factorial(N + 1) // (
                factorial(N + 1 - total)
            )
            for a in sizes:
                ways //= factorial(a)
            D = total - r
            counts[D] = counts.get(D, 0) + ways
            return
        for a in range(1, left + 1):
            rec(sizes + [a], left - a + 1)

    rec([], N + 1 - (r - 1))
    top = max(counts)
    return [counts.get(d, 0) for d in range(top + 1)]


def test_invalid_multiplicity():
    with pytest.raises(InputError, match=r"deleted product needs r >= 2, got 1"):
        deleted_product(full_simplex(2), 1)


def test_empty_and_six_points():
    assert deleted_product(full_simplex(1), 3).is_empty
    dp = deleted_product(full_simplex(2), 3)
    assert dp.f_vector() == [6]


def test_cells_match_brute_force():
    for N, r in [(2, 2), (3, 3), (3, 2)]:
        K = full_simplex(N)
        dp = deleted_product(K, r)
        expected = sorted(brute_force_cells(K, r))
        got = sorted(c for cs in dp.cells_by_dim.values() for c in cs)
        assert got == expected


def test_f_vector_against_multinomial_oracle():
    for N in range(1, 9):
        for r in range(2, min(N + 1, 6) + 1):
            dp = deleted_product(full_simplex(N), r)
            assert dp.f_vector() == multinomial_f_vector(N, r), (N, r)


def test_hexagon():
    dp = deleted_product(full_simplex(2), 2)
    assert dp.f_vector() == [6, 6]
    # every 0-cell of a hexagon lies on exactly two edges
    incidence = {}
    for column in dp.boundary_matrix(1):
        for i, v in column:
            incidence[i] = incidence.get(i, 0) + 1
    assert all(c == 2 for c in incidence.values())


def test_zero_cell_falling_factorial():
    for N in range(1, 8):
        for r in range(2, 5):
            if r > N + 1:
                continue
            dp = deleted_product(full_simplex(N), r)
            expected = 1
            for i in range(r):
                expected *= N + 1 - i
            assert len(dp.cells_by_dim.get(0, ())) == expected


def test_total_count_formula_matches():
    for N, r in [(3, 2), (4, 3), (5, 4)]:
        dp = deleted_product(full_simplex(N), r)
        listed = sum(len(cs) for cs in dp.cells_by_dim.values())
        assert dp.total_cells() == full_simplex_cell_count(N, r) == listed


def composition_cell_count(N, r):
    """The cell count summed over the factor sizes, one composition at a
    time: the recursion that the closed form replaced."""
    total = 0

    def rec(remaining_vertices, factors_left, acc):
        nonlocal total
        if factors_left == 0:
            total += acc
            return
        for size in range(1, remaining_vertices - (factors_left - 1) + 1):
            rec(remaining_vertices - size, factors_left - 1,
                acc * comb(remaining_vertices, size))

    rec(N + 1, r, 1)
    return total


def test_cell_count_closed_form_matches_composition_sum():
    for N in range(12):
        for r in range(1, 14):
            assert full_simplex_cell_count(N, r) == composition_cell_count(N, r), (N, r)


def test_cap_checked_without_building(monkeypatch):
    monkeypatch.setenv("TVLAB_CELL_CAP", str(full_simplex_cell_count(5, 3)))
    check_full_simplex_cap(5, 3)
    monkeypatch.setenv("TVLAB_CELL_CAP", str(full_simplex_cell_count(5, 3) - 1))
    with pytest.raises(CapExceeded):
        check_full_simplex_cap(5, 3)
    # the base alone: Delta_30 has 2^31 - 1 faces, and its 40-fold deleted
    # product has none
    for N, r in [(30, 2), (30, 40), (10**9, 2), (10**9, 10**9)]:
        with pytest.raises(CapExceeded):
            check_full_simplex_cap(N, r)
    with pytest.raises(InputError, match=r"deleted product needs r >= 2, got 1"):
        check_full_simplex_cap(3, 1)


def test_delta_3_cubed_graph():
    dp = deleted_product(full_simplex(3), 3)
    assert dp.f_vector() == [24, 36]
    # the graph is 3-regular: each vertex cell meets 3 edges
    degree = {}
    for column in dp.boundary_matrix(1):
        for i, v in column:
            degree[i] = degree.get(i, 0) + 1
    assert all(d == 3 for d in degree.values())


def test_boundary_squared_zero():
    for N, r in [(3, 2), (4, 3), (5, 4)]:
        dp = deleted_product(full_simplex(N), r)
        for d in range(2, dp.dim + 1):
            lower = dp.boundary_matrix(d - 1)
            for column in dp.boundary_matrix(d):
                comp = {}
                for i, v in column:
                    for k, w in lower[i]:
                        comp[k] = comp.get(k, 0) + v * w
                assert not any(comp.values())


def cell_of_dims(dims):
    """Pairwise disjoint simplices of the given dimensions, on consecutive
    vertices."""
    cell = []
    start = 0
    for d in dims:
        cell.append(tuple(range(start, start + d + 1)))
        start += d + 1
    return tuple(cell)


def test_koszul_action_sign():
    # permuting 0-dimensional factors is always +1
    assert act_on_cell((1, 0), ((0,), (1,))) == (((1,), (0,)), 1)
    # swapping two odd-dimensional factors is -1
    assert act_on_cell((1, 0), ((0, 1), (2, 3))) == (((2, 3), (0, 1)), -1)
    assert act_on_cell((1, 0), ((0, 1), (2, 3, 4))) == (((2, 3, 4), (0, 1)), 1)
    assert act_on_cell((0, 1), ((0, 1), (2, 3))) == (((0, 1), (2, 3)), 1)


def pairwise_koszul_sign(omega, dims):
    """(-1)^{d_a d_b} over the inversions of omega, pair by pair: the loop
    that the restricted permutation sign replaced."""
    r = len(omega)
    sign = 1
    for a in range(r):
        for b in range(a + 1, r):
            if omega[a] > omega[b] and dims[a] % 2 and dims[b] % 2:
                sign = -sign
    return sign


def test_koszul_sign_matches_pairwise_loop():
    from itertools import permutations, product

    for r in range(1, 6):
        for omega in permutations(range(r)):
            for dims in product(range(3), repeat=r):
                _, s = act_on_cell(omega, cell_of_dims(dims))
                assert s == pairwise_koszul_sign(omega, dims)


def test_cell_boundary_signs():
    dp = deleted_product(full_simplex(3), 2)
    assert dp.cell_boundary(((0, 1, 2), (3,))) == [
        (((1, 2), (3,)), 1), (((0, 2), (3,)), -1), (((0, 1), (3,)), 1)]
    assert dp.cell_boundary(((3,), (0, 1, 2))) == [
        (((3,), (1, 2)), 1), (((3,), (0, 2)), -1), (((3,), (0, 1)), 1)]
    # the second factor's facets carry (-1)^{d_1}
    assert dp.cell_boundary(((0, 1), (2, 3))) == [
        (((1,), (2, 3)), 1), (((0,), (2, 3)), -1),
        (((0, 1), (3,)), -1), (((0, 1), (2,)), 1)]
    assert dp.cell_boundary(((0,), (3,))) == []


if given is not None:
    @st.composite
    def cells(draw, r):
        """An r-tuple of disjoint simplices with 1 to 3 vertices each."""
        sizes = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
        verts = draw(st.permutations(range(sum(sizes) + 2)))
        out, k = [], 0
        for n in sizes:
            out.append(tuple(sorted(verts[k:k + n])))
            k += n
        return tuple(out)

    def action_cases():
        return st.integers(2, 5).flatmap(lambda r: st.tuples(
            st.permutations(range(r)), st.permutations(range(r)), cells(r)))


def old_cell_boundary(cell):
    """Signed facets through per-simplex alternating chains: the loop that
    the direct facet construction replaced."""
    out = []
    shift = 0
    for i, s in enumerate(cell):
        for j in range(len(s) if len(s) > 1 else 0):
            out.append((cell[:i] + (s[:j] + s[j + 1:],) + cell[i + 1:],
                        (-1) ** shift * (-1) ** j))
        shift += len(s) - 1
    return out


@needs_hypothesis
def test_cell_boundary_matches_chain_loop_and_squares_to_zero():
    dp = deleted_product(full_simplex(2), 2)  # cell_boundary looks up no cell

    @given(st.integers(1, 4).flatmap(cells))
    def check(cell):
        assert dp.cell_boundary(cell) == old_cell_boundary(cell)
        acc = {}
        for f, s in dp.cell_boundary(cell):
            for g, t in dp.cell_boundary(f):
                acc[g] = acc.get(g, 0) + s * t
        assert not any(acc.values())

    check()


@needs_hypothesis
def test_act_on_cell_matches_pairwise_loop_and_is_an_action():
    @given(action_cases())
    def check(case):
        a, b, cell = tuple(case[0]), tuple(case[1]), case[2]
        dims = tuple(len(s) - 1 for s in cell)
        img, s = act_on_cell(a, cell)
        assert s == pairwise_koszul_sign(a, dims)
        assert all(img[a[j]] == cell[j] for j in range(len(a)))
        c1, s1 = act_on_cell(b, cell)
        c2, s2 = act_on_cell(a, c1)
        c3, s3 = act_on_cell(compose(a, b), cell)
        assert c2 == c3 and s3 == s1 * s2

    check()


def test_action_is_homomorphism_with_signs():
    dp = deleted_product(full_simplex(4), 3)
    cells = dp.cells_by_dim[2][:40]
    perms = [(1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0)]

    for a in perms:
        for b in perms:
            for cell in cells:
                c1, s1 = act_on_cell(b, cell)
                c2, s2 = act_on_cell(a, c1)
                c3, s3 = act_on_cell(compose(a, b), cell)
                assert c2 == c3 and s3 == s1 * s2


def test_action_free_and_commutes():
    dp = deleted_product(full_simplex(4), 3)
    for omega in [(1, 0, 2), (1, 2, 0), (2, 1, 0)]:
        for cs in dp.cells_by_dim.values():
            assert all(act_on_cell(omega, cell)[0] != cell for cell in cs)
        # boundary-of-action equals action-of-boundary, cell by cell
        for d in range(1, dp.dim + 1):
            for cell in dp.cells_by_dim[d]:
                img, kc = act_on_cell(omega, cell)
                lhs = {f: kc * s for f, s in dp.cell_boundary(img)}
                rhs = {}
                for f, s in dp.cell_boundary(cell):
                    fi, kf = act_on_cell(omega, f)
                    rhs[fi] = rhs.get(fi, 0) + s * kf
                assert lhs == rhs


def test_identity_action_trivial():
    dp = deleted_product(full_simplex(2), 2)
    for cell in dp.cells_by_dim[1]:
        img, s = act_on_cell((0, 1), cell)
        assert img == cell and s == 1


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("TVLAB_CELL_CAP", "100")
    with pytest.raises(CapExceeded):
        deleted_product(full_simplex(5), 3)
    K = simplex_skeleton(4, 1)
    monkeypatch.setenv("TVLAB_CELL_CAP", "10")
    with pytest.raises(CapExceeded):
        deleted_product(K, 2)


def test_many_unused_vertex_ids():
    # 2^num_vertices is never formed for a base that cannot be a full simplex
    K = Complex.from_maximal(10**12, [[0, 1], [2, 3]])
    assert deleted_product(K, 2).f_vector() == [12, 8, 2]


COLORED333 = Complex.from_maximal(9, [(a, b, c) for a in range(3)
                                     for b in range(3, 6) for c in range(6, 9)])


DISCONNECTED = Complex.from_maximal(7, [[0, 1, 2], [3, 4], [5, 6]])
# the six-vertex real projective plane, and a cycle past 61 vertices
RP2 = Complex.from_maximal(6, [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                               (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])
CYCLE70 = Complex.from_maximal(70, [(v, (v + 1) % 70) for v in range(70)])


def malformed_cells(K, cell):
    """Near misses of a cell of K's deleted product: a repeated factor, an
    overlapping one, a non-face, an empty factor, one factor fewer, one more
    (empty, or a free vertex) and each factor of two or more vertices
    reversed."""
    head = cell[:-1]
    free = sorted(set(range(K.num_vertices)).difference(*cell))
    out = [head + (cell[0],), head + (cell[0][:1],), head + (tuple(range(K.dim + 2)),),
           head + ((),), head, cell + ((),)] + [cell + ((v,),) for v in free[:1]]
    out += [cell[:i] + (s[::-1],) + cell[i + 1:] for i, s in enumerate(cell) if len(s) > 1]
    return out


def test_has_cell_matches_the_cell_lists():
    """Membership by definition against membership in the cell lists, on
    every cell and on near misses of a sample of them."""
    bases = [full_simplex(n) for n in range(6)] + [simplex_skeleton(6, 2), COLORED333]
    for K in bases:
        for r in (2, 3, 4):
            dp = deleted_product(K, r)
            members = {d: set(cs) for d, cs in dp.cells_by_dim.items()}
            cells = [c for d in sorted(members) for c in dp.cells_by_dim[d]]
            assert all(map(dp.has_cell, cells))
            for cell in cells[::max(1, len(cells) // 500)]:
                for bad in malformed_cells(K, cell):
                    assert dp.has_cell(bad) == (bad in members.get(cell_dim(bad), ())), bad


def reference_boundary_matrix(dp, d):
    """The oracle: the construction boundary_matrix replaced, with nested-tuple
    facets from cell_boundary looked up in an index of the (d-1)-cells."""
    rows = {c: i for i, c in enumerate(dp.cells_by_dim.get(d - 1, ()))}
    return [[(rows[facet], eps) for facet, eps in dp.cell_boundary(cell)]
            for cell in dp.cells_by_dim.get(d, ())]


def reference_keys_and_growth(dp, d):
    """The oracle for the walk's keys and growth masks, recomputed from each
    d-cell: the key sum (i + 1) * q^v over the vertices v of factor i, q the
    least prime above r, and the vertices that the cell lacks and that extend
    one of its factors to a simplex of the base."""
    q = next(p for p in range(dp.r + 1, 2 * dp.r + 2) if all(p % k for k in range(2, p)))
    extend = {s: {v for v in range(dp.base.num_vertices)
                  if tuple(sorted(s + (v,))) in dp.base.simplices} for s in dp.base.simplices}
    keys, growth = [], []
    for cell in dp.cells_by_dim.get(d, ()):
        keys.append(sum((i + 1) * q ** v for i, s in enumerate(cell) for v in s))
        growth.append(sum(1 << v for v in set().union(*map(extend.get, cell)).difference(*cell)))
    return keys, growth


@pytest.mark.parametrize("K, r", [pytest.param(full_simplex(n), r, id="delta%d-r%d" % (n, r))
                                  for n in range(7) for r in (2, 3, 4)] + [
    pytest.param(COLORED333, 3, id="colored333-r3"),
    pytest.param(simplex_skeleton(6, 2), 2, id="delta6_2-r2"),
    pytest.param(RP2, 2, id="rp2-r2"),
    pytest.param(RP2, 3, id="rp2-r3"),
    pytest.param(CYCLE70, 2, id="cycle70-r2"),
    pytest.param(Complex.from_maximal(200, [(v, (v + 1) % 200) for v in range(200)]), 2,
                 id="cycle200-r2")])
def test_boundary_matrix_matches_the_tuple_index(K, r):
    """Cell keys find the same rows as the tuple index, entry for entry and in
    order, also on a base of more than 61 vertices; the walk that lists the
    cells keys each at its position and masks its growth as recomputed from
    the cell."""
    dp = deleted_product(K, r)
    _, _, keys, indices, growth = dp._keys
    for d in range(dp.dim + 2):
        assert dp.boundary_matrix(d) == reference_boundary_matrix(dp, d)
        expected, grows = reference_keys_and_growth(dp, d)
        assert keys.get(d, []) == expected and growth.get(d, []) == grows
        assert indices.get(d, {}) == {key: j for j, key in enumerate(expected)}


def test_vertex_masks_of_a_large_base_hash_apart():
    """The dict keys of the lister and the count: an int mask would hash
    vertex v and v + 61 alike, and 79,800 masks to 1,891 hashes."""
    from tvlab.deleted_product import _mask_key

    masks = [1 << a | 1 << b for a in range(400) for b in range(a)]
    keys = list(map(_mask_key, masks))
    assert len(set(map(hash, keys))) == len(keys) == 79_800


def test_cells_come_out_sorted_and_boundaries_are_rebuilt_equal():
    """boundary_matrix indexes rows and columns in sorted cell order, which
    deleted_product builds without a sort; a boundary is rebuilt per call."""
    for K in [full_simplex(n) for n in range(7)] + [COLORED333]:
        for r in (2, 3, 4):
            dp = deleted_product(K, r)
            for cells in dp.cells_by_dim.values():
                assert cells == sorted(cells)
            if dp.total_cells() < 50000:
                for d in range(1, dp.dim + 1):
                    assert dp.boundary_matrix(d) == dp.boundary_matrix(d)


def test_puzzle_hexagon():
    dp = deleted_product(full_simplex(2), 2)
    ok, path = puzzle_reachable(dp, ((0,), (1,)), ((1,), (0,)))
    assert ok
    # opposite corners of the hexagon are three edges apart
    assert sum(1 for c in path if cell_dim(c) == 1) == 3
    assert path[0] == ((0,), (1,)) and path[-1] == ((1,), (0,))
    ok, path = puzzle_reachable(dp, ((0,), (1,)), ((0,), (1,)))
    assert ok and path == []


def test_puzzle_delta3_cubed():
    dp = deleted_product(full_simplex(3), 3)
    ok, path = puzzle_reachable(dp, ((0,), (1,), (2,)), ((3,), (1,), (0,)))
    assert ok
    # verify the path alternates 0-cells and 1-cells and is connected
    for i, cell in enumerate(path):
        assert cell_dim(cell) == i % 2
    for i in range(0, len(path) - 1, 2):
        ends = [f for f, _ in dp.cell_boundary(path[i + 1])]
        assert path[i] in ends and path[i + 2] in ends


def test_puzzle_unknown_cell():
    dp = deleted_product(full_simplex(2), 2)
    with pytest.raises(InputError, match=r"not a 0-cell of this deleted product"):
        puzzle_reachable(dp, ((0,), (0,)), ((1,), (0,)))
    with pytest.raises(InputError, match=r"not a 0-cell of this deleted product"):
        puzzle_reachable(dp, ((0, 1), (2,)), ((1,), (0,)))


def reference_puzzle_path(dp, start, goal):
    """Breadth first over the edges of cells_by_dim[1], in their sorted order."""
    incident = {}  # 0-cell: (edge, its two ends) for each 1-cell on it, in sorted order
    for edge in dp.cells_by_dim.get(1, ()):
        ends = [f for f, _ in dp.cell_boundary(edge)]
        for v in ends:
            incident.setdefault(v, []).append((edge, ends))
    prev, queue = {start: None}, [start]
    for v in queue:
        for edge, ends in incident.get(v, ()):
            for w in ends:
                if w not in prev:
                    prev[w] = (v, edge)
                    queue.append(w)
    if goal not in prev:
        return False, []
    path, node = [goal], goal
    while prev[node] is not None:
        node, edge = prev[node]
        path += [edge, node]
    return True, path[::-1]


@pytest.mark.parametrize("K, r", [(full_simplex(4), 3), (full_simplex(5), 2), (COLORED333, 2),
                                  (COLORED333, 3), (DISCONNECTED, 2), (full_simplex(1), 2)],
                         ids=["delta4-r3", "delta5-r2", "colored333-r2", "colored333-r3",
                              "disconnected", "delta1-unreachable"])
def test_puzzle_lists_no_cell_and_walks_the_same_path(monkeypatch, K, r):
    """puzzle steps along the base's edges: it neither reads cells_by_dim nor
    calls the lister, and it walks the reference's path."""
    dp = deleted_product(K, r)
    zeros = dp.cells_by_dim[0]
    pairs = [(zeros[0], zeros[-1]), (zeros[-1], zeros[len(zeros) // 2 - 1])]
    expected = [reference_puzzle_path(dp, *pair) for pair in pairs]

    def cells_by_dim(self):
        raise AssertionError("puzzle listed the cells of every degree")

    def lister(*args):
        raise AssertionError("puzzle called the lister")

    monkeypatch.setattr(DeletedProductComplex, "cells_by_dim", property(cells_by_dim))
    monkeypatch.setattr(deleted_product_module, "_disjoint", lister)
    dp = deleted_product(K, r)
    assert [puzzle_reachable(dp, *pair) for pair in pairs] == expected


@needs_hypothesis
def test_puzzle_walks_the_reference_path_on_random_bases():
    """Random bases of at most 8 vertices, r from 2 to 4, and drawn pairs of
    0-cells, unreachable ones included."""
    seen = Counter()

    @settings(max_examples=150)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
                             min_size=1, max_size=6))),
           st.integers(2, 4), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def check(base, r, a, b):
        n, maximal = base
        dp = deleted_product(Complex.from_maximal(n, [sorted(m) for m in maximal]), r)
        zeros = dp.cells_by_dim.get(0, [])
        if zeros:
            start, goal = zeros[a % len(zeros)], zeros[b % len(zeros)]
            expected = reference_puzzle_path(dp, start, goal) if start != goal else (True, [])
            assert puzzle_reachable(dp, start, goal) == expected
            seen[expected[0]] += 1

    check()
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_disconnected_deleted_product():
    # two disjoint segments: the 2-fold deleted product of K (a single
    # segment pair) keeps the factors apart
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    dp = deleted_product(K, 2)
    assert not dp.is_empty
    # cells: ordered pairs of disjoint simplices
    assert all(len(set(c[0]) & set(c[1])) == 0
               for cs in dp.cells_by_dim.values() for c in cs)


def test_enumerations_leave_no_reference_cycle():
    # a cycle would keep every cell alive until a full gc pass, so memory
    # grew from one deleted product to the next
    gc.collect()
    gc.disable()
    try:
        dp = deleted_product(simplex_skeleton(6, 2), 3)
        assert dp.cells_by_dim
        disjoint_tuples(dp.base.simplices_of_dim(2), 3)
        del dp
        assert gc.collect() == 0
    finally:
        gc.enable()


def recursive_cells_by_dim(K, r):
    """Each degree's cells by the recursion that the level-by-level listing
    replaced: every prefix is extended by each simplex disjoint from it, in
    sorted order, so each degree comes out sorted."""
    masks = [(sum(1 << v for v in s), s) for s in sorted(K.simplices)]
    out = {}
    cells = [None] * r

    def rec(i, used, dim):
        if i == r:
            out.setdefault(dim, []).append(tuple(cells))
            return
        for m, s in masks:
            if not m & used:
                cells[i] = s
                rec(i + 1, used | m, dim + len(s) - 1)

    rec(0, 0, 0)
    return out


def product_f_vector(K, r):
    """Cells per degree by filtering itertools.product (brute_force_cells)."""
    counts = Counter(map(cell_dim, brute_force_cells(K, r)))
    return [counts[d] for d in range(len(counts))]


def check_listing(K, r):
    """The listing against the recursion, order included; the counted
    f-vector against the listed lengths and, when there are at most 64^3
    ordered r-tuples of simplices, against itertools.product."""
    dp = deleted_product(K, r)
    expected = recursive_cells_by_dim(K, r)
    assert dp.cells_by_dim == expected
    assert dp.f_vector() == [len(dp.cells_by_dim[d]) for d in range(dp.dim + 1)]
    assert dp.total_cells() == sum(map(len, expected.values()))
    if len(K.simplices) ** r <= 64 ** 3:
        assert dp.f_vector() == product_f_vector(K, r)


UNUSED_IDS = Complex.from_maximal(12, [[0, 1, 5], [5, 9], [11], [2, 7]])


@pytest.mark.parametrize("N", range(6))
def test_listing_matches_the_recursion_on_full_simplices(N):
    for r in range(2, 6):
        check_listing(full_simplex(N), r)


@pytest.mark.parametrize("K, r", [(simplex_skeleton(8, 2), 3), (COLORED333, 3), (COLORED333, 2),
                                  (UNUSED_IDS, 2), (UNUSED_IDS, 3), (DISCONNECTED, 2),
                                  (DISCONNECTED, 3), (DISCONNECTED, 4)],
                         ids=["skeleton-8-2", "colored333", "colored333-r2", "unused-ids",
                              "unused-ids-r3", "disconnected", "disconnected-r3",
                              "disconnected-r4"])
def test_listing_matches_the_recursion_on_other_bases(K, r):
    check_listing(K, r)


@needs_hypothesis
def test_listing_matches_the_recursion_on_random_complexes():
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                             min_size=1, max_size=5))),
           st.integers(2, 4))
    def check(base, r):
        n, maximal = base
        check_listing(Complex.from_maximal(n, [sorted(m) for m in maximal]), r)

    check()


def ordered_cells_of_degree(K, r, d):
    out = ([], [], [])
    _disjoint(K.simplices, r, d, lambda degree: out, [1] * K.num_vertices)
    return out[0]


def random_base(seed, n):
    rng = random.Random(seed)
    return Complex.from_maximal(n, [rng.sample(range(n), rng.randint(1, 4)) for _ in range(6)])


@pytest.mark.parametrize("K, rs", [(full_simplex(N), (2, 3, 4)) for N in range(7)]
                         + [(COLORED333, (2, 3, 4)), (random_base("one degree", 8), (2, 3))],
                         ids=["delta%d" % N for N in range(7)] + ["colored333", "random"])
def test_an_ordered_listing_of_one_degree_is_that_degree_of_cells_by_dim(K, rs):
    for r in rs:
        dp = deleted_product(K, r)
        for d in range(-1, dp.dim + 2):
            assert ordered_cells_of_degree(K, r, d) == dp.cells_by_dim.get(d, []), (r, d)


def test_the_count_keys_wide_masks_of_a_large_base_by_bytes(monkeypatch):
    """Vertices 61 and up put a middle level's masks past the int hash
    modulus: the count keys them by bytes and still counts what is listed."""
    wide = []

    def counted_mask_key(mask):
        wide.append(mask)
        return mask_key(mask)

    mask_key = deleted_product_module._mask_key
    monkeypatch.setattr(deleted_product_module, "_mask_key", counted_mask_key)
    for K in (Complex.from_maximal(72, [[0, 64, 70], [1, 65], [65, 71], [2, 3], [62, 66, 69]]),
              random_base("wide", 80)):
        wide.clear()
        deleted_product(K, 3)
        assert wide, "no mask of the count passed the int hash modulus"
        check_listing(K, 3)  # f_vector() against the listed lengths


def test_a_huge_r_is_counted_empty_at_once():
    for K in (DISCONNECTED, UNUSED_IDS):
        dp = deleted_product(K, 2 ** 64)
        assert dp.is_empty and dp.cells_by_dim == {} and dp.f_vector() == []


def test_disjoint_tuples_of_1100_isolated_vertices_within_a_second():
    # one tuple out of 1,100 vertices: each level keeps the one prefix that leaves
    # a vertex for every later factor, where walking the sorted prefixes took 2^n
    vertices = [(v,) for v in range(1100)]
    start = time.perf_counter()
    assert disjoint_tuples(vertices, 1100) == [tuple(vertices)]
    assert time.perf_counter() - start < 1.0


def test_a_level_of_prefixes_meets_the_cap(monkeypatch):
    # four disjoint triangles need 12 vertices and Delta_9 has 10, so no tuple
    # exists, yet about 2,100 disjoint pairs of triangles are listed on the way
    triangles = simplex_skeleton(9, 2).simplices_of_dim(2)
    assert disjoint_tuples(triangles, 4) == []
    monkeypatch.setenv("TVLAB_CELL_CAP", "2000")
    with pytest.raises(CapExceeded, match=r"^prefixes of disjoint 4-tuples, at least: \d+, "
                                          r"over the cell cap 2000$"):
        disjoint_tuples(triangles, 4)
    monkeypatch.setenv("TVLAB_CELL_CAP", "279")  # Delta_7 has 280 disjoint pairs of triangles
    with pytest.raises(CapExceeded, match=r"^disjoint 2-tuples, at least: 280, "
                                          r"over the cell cap 279$"):
        disjoint_tuples(simplex_skeleton(7, 2).simplices_of_dim(2), 2)


def tuple_count_f_vector(K, r):
    """Cells per degree, one ordered r-tuple of pairwise disjoint simplices
    at a time: each factor tried against the vertex set of the tuple so far."""
    simplices, counts = [frozenset(s) for s in K.simplices], Counter()

    def grow(left, used, dim):
        if not left:
            counts[dim] += 1
            return
        for s in simplices:
            if not s & used:
                grow(left - 1, used | s, dim + len(s) - 1)

    grow(r, frozenset(), 0)
    return [counts[d] for d in range(len(counts))]


@needs_hypothesis
def test_the_count_matches_the_ordered_tuples_on_random_bases():
    """Bases of at most 8 vertices and r from 2 to 4, empty products (r
    above the vertex count) included."""
    seen = Counter()

    @settings(max_examples=150)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
                             min_size=1, max_size=5))),
           st.integers(2, 4))
    def check(base, r):
        n, maximal = base
        K = Complex.from_maximal(n, [sorted(m) for m in maximal])
        expected = tuple_count_f_vector(K, r)
        assert deleted_product(K, r).f_vector() == expected
        seen[bool(expected)] += 1

    check()
    assert seen[True] >= 20 and seen[False] >= 5, seen


@pytest.mark.parametrize("r", [2, 3, 4])
def test_the_count_matches_the_ordered_tuples_past_vertex_61(r):
    K = Complex.from_maximal(72, [[0, 64, 70], [1, 65], [65, 71], [2, 3], [62, 66, 69], [61]])
    assert deleted_product(K, r).f_vector() == tuple_count_f_vector(K, r)


# "cells of the deleted product, at least: N" as each cap passes, the running
# count at the first state that takes it past the cap
COUNT_REFUSALS = {
    (COLORED333, 3): {1: 63, 50: 63, 100: 108, 300: 308, 1000: 1029, 5000: 5134, 10000: 10080},
    (simplex_skeleton(7, 2), 2): {1: 92, 50: 92, 100: 104, 300: 320, 1000: 1004, 2000: 2011},
    (simplex_skeleton(7, 2), 3): {1: 92, 100: 104, 500: 511, 5000: 5088, 10000: 10120},
}


@pytest.mark.parametrize("K, r", list(COUNT_REFUSALS),
                         ids=["colored333-r3", "delta7_2-r2", "delta7_2-r3"])
def test_the_count_refuses_with_the_running_count(monkeypatch, K, r):
    for cap, count in COUNT_REFUSALS[K, r].items():
        monkeypatch.setenv("TVLAB_CELL_CAP", str(cap))
        with pytest.raises(CapExceeded) as exc:
            deleted_product(K, r)
        assert str(exc.value) == ("cells of the deleted product, at least: %d, "
                                  "over the cell cap %d" % (count, cap))


def test_a_long_cycle_refuses_at_once(monkeypatch):
    """3,000 vertices: the last factor counts each state's fits by popcount,
    where a scan of the whole simplex table per state made this refusal slow."""
    monkeypatch.delenv("TVLAB_CELL_CAP", raising=False)
    K = Complex.from_maximal(3000, [(v, (v + 1) % 3000) for v in range(3000)])
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        deleted_product(K, 2)
    assert time.perf_counter() - start < 5.0
    assert str(exc.value) == ("cells of the deleted product, at least: 5000664, "
                              "over the cell cap 5000000")
