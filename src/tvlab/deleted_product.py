"""Simplicial r-fold deleted products with boundary maps and symmetric action.

A cell is an ordered r-tuple of pairwise vertex-disjoint non-empty simplices
of the base complex (has_cell checks just that; no cell index is kept); its
dimension is the sum of the factor dimensions.  The boundary operator
carries the Koszul sign (-1)^{d_1+...+d_{i-1}} on the i-th factor, and the
symmetric group permutes factors with the Koszul sign of permuting graded
slots: the sign of the permutation restricted to the odd-dimensional
factors.  The action is free; its orbits are the unordered tuples, one
sorted cell each, which disjoint_tuples enumerates by total dimension.
"""

from __future__ import annotations

from collections import deque
from math import comb

from .complexes import Complex, check_cap, check_simplex_faces, configured_cell_cap
from .errors import InputError
from .symgroup import sign

ProductCell = tuple  # tuple of Simplex, pairwise disjoint


def cell_dim(cell: ProductCell) -> int:
    return sum(len(s) - 1 for s in cell)


def full_simplex_cell_count(N: int, r: int) -> int:
    """Total cells of the r-fold deleted product of the N-simplex.

    A cell labels each of the N+1 vertices with one of the r factors or with
    "unused", every factor label being used; by inclusion-exclusion over the
    j factors left empty that is sum_j (-1)^j C(r, j) (r+1-j)^(N+1).
    """
    if r > N + 1:
        return 0
    return sum((-1) ** j * comb(r, j) * (r + 1 - j) ** (N + 1) for j in range(r + 1))


def check_full_simplex_cap(N: int, r: int) -> None:
    """Raise CapExceeded, before anything is built, when the N-simplex's
    2^(N+1)-1 faces or its r-fold deleted product exceed the cell cap."""
    if r < 2:
        raise InputError("deleted product needs r >= 2, got %d" % r)
    check_simplex_faces(N)
    check_cap(full_simplex_cell_count(N, r), "cells of the deleted product")


class DeletedProductComplex:
    """Immutable deleted product with dimension-major cell storage: each
    degree's cells in sorted order, as deleted_product builds them."""

    def __init__(self, base: Complex, r: int, cells_by_dim: dict):
        self.base = base
        self.r = r
        self.cells_by_dim = cells_by_dim

    @property
    def dim(self) -> int:
        return max(self.cells_by_dim, default=-1)

    @property
    def is_empty(self) -> bool:
        return not self.cells_by_dim

    def f_vector(self) -> list:
        return [len(self.cells_by_dim.get(d, ())) for d in range(self.dim + 1)]

    def total_cells(self) -> int:
        return sum(len(cs) for cs in self.cells_by_dim.values())

    def has_cell(self, cell: ProductCell) -> bool:
        """True iff cell is r pairwise vertex-disjoint simplices of the base."""
        return (len(cell) == self.r and all(s in self.base.simplices for s in cell)
                and len(set().union(*cell)) == sum(map(len, cell)))

    def cell_boundary(self, cell: ProductCell) -> list:
        """Signed facets [(facet_cell, sign)] with the Koszul convention:
        dropping vertex j of factor i has sign (-1)^(j + d_1 + ... + d_{i-1})."""
        out = []
        shift = 0
        for i, s in enumerate(cell):
            if len(s) > 1:
                head, tail = cell[:i], cell[i + 1:]
                for j in range(len(s)):
                    out.append((head + (s[:j] + s[j + 1:],) + tail,
                                -1 if (shift + j) % 2 else 1))
            shift += len(s) - 1
        return out

    def boundary_matrix(self, d: int) -> dict:
        """Sparse boundary from dimension d to d-1: {(row, col): sign}.

        Rows index (d-1)-cells, columns index d-cells, in sorted cell order.
        Each entry is assigned once: the facets of one cell are distinct cells.
        """
        rows = {c: i for i, c in enumerate(self.cells_by_dim.get(d - 1, ()))}
        return {(rows[facet], j): eps
                for j, cell in enumerate(self.cells_by_dim.get(d, ()))
                for facet, eps in self.cell_boundary(cell)}


def deleted_product(K: Complex, r: int) -> DeletedProductComplex:
    """Build the r-fold simplicial deleted product of K.

    Refuses construction when the total cell count would exceed the cap
    (default 5e6, overridable by the TVLAB_CELL_CAP variable); for a full
    simplex base that is decided by check_full_simplex_cap before any cell
    is enumerated.
    """
    if r < 2:
        raise InputError("deleted product needs r >= 2, got %d" % r)
    if K.is_full_simplex():
        check_full_simplex_cap(K.num_vertices - 1, r)
    cap = configured_cell_cap()
    if r > K.num_vertices:  # r disjoint non-empty simplices need r vertices
        return DeletedProductComplex(K, r, {})

    # in lexicographic order, so each degree's cells come out already sorted
    masks = [(sum(1 << v for v in s), s) for s in sorted(K.simplices)]

    cells_by_dim = {}
    count = 0
    cells = [None] * r

    def rec(i, used, dim):
        nonlocal count
        if i == r:
            count += 1
            if count > cap:
                check_cap(count, "cells of the deleted product, at least")
            cells_by_dim.setdefault(dim, []).append(tuple(cells))
            return
        for m, s in masks:
            if m & used:
                continue
            cells[i] = s
            rec(i + 1, used | m, dim + len(s) - 1)

    rec(0, 0, 0)
    del rec  # rec refers to itself: left alone, the cycle holds every cell until a full gc pass
    return DeletedProductComplex(K, r, cells_by_dim)


def disjoint_tuples(simplices, r, dim=None) -> list:
    """Unordered r-tuples of pairwise vertex-disjoint simplices, of total
    dimension dim if given, in the order of itertools.combinations over the
    sorted simplices.  A prefix that meets the next simplex's vertex mask,
    or whose dimension can no longer reach dim, is never extended.  Raises
    CapExceeded as soon as more tuples than the cell cap are listed."""
    cap = configured_cell_cap()
    simplices = sorted(simplices)
    masks = [sum(1 << v for v in s) for s in simplices]
    top = max(map(len, simplices), default=1) - 1
    out = []
    chosen = []

    def extend(start, used, total):
        left = r - len(chosen)
        if dim is not None and not total <= dim <= total + left * top:
            return
        if not left:
            out.append(tuple(chosen))
            if len(out) > cap:
                check_cap(len(out), "disjoint %d-tuples, at least" % r)
            return
        for i in range(start, len(simplices)):
            if not masks[i] & used:
                chosen.append(simplices[i])
                extend(i + 1, used | masks[i], total + len(simplices[i]) - 1)
                chosen.pop()

    try:
        extend(0, 0, 0)
    finally:
        del extend  # the self-referring closure would keep out alive until a full gc pass
    return out


def act_on_cell(omega: tuple, cell: ProductCell):
    """Apply a 0-based permutation to a cell; returns (new_cell, sign).

    Slot i of the image holds factor omega^{-1}(i), so omega moves the
    factor in slot j to slot omega(j).  The sign is the Koszul sign of
    permuting graded factors, (-1)^{d_i d_j} over the inversions of omega:
    the sign of omega restricted to the odd-dimensional factors, collected
    in the same pass.
    """
    new = [None] * len(omega)
    odd = []  # omega restricted to the odd-dimensional factors
    for w, s in zip(omega, cell):
        new[w] = s
        if not len(s) % 2:
            odd.append(w)
    return tuple(new), sign(odd)


def puzzle_reachable(dp: DeletedProductComplex, start: ProductCell, goal: ProductCell):
    """Walk between 0-cells along edges of the deleted product.

    Returns (reachable, path) where path alternates 0-cells and 1-cells;
    path is [] when start == goal.
    """
    for c in (start, goal):
        if cell_dim(c) != 0 or not dp.has_cell(c):
            raise InputError("not a 0-cell of this deleted product: %r" % (c,))
    if start == goal:
        return True, []

    adjacency = {}
    for edge in dp.cells_by_dim.get(1, ()):
        ends = [facet for facet, _ in dp.cell_boundary(edge)]
        for v in ends:
            adjacency.setdefault(v, []).append((edge, ends))

    prev = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            break
        for edge, ends in adjacency.get(v, ()):
            for w in ends:
                if w not in prev:
                    prev[w] = (v, edge)
                    queue.append(w)
    if goal not in prev:
        return False, []
    path = [goal]
    node = goal
    while prev[node] is not None:
        v, edge = prev[node]
        path.append(edge)
        path.append(v)
        node = v
    path.reverse()
    return True, path
