"""Simplicial r-fold deleted products with boundary maps and symmetric action.

A cell is an ordered r-tuple of pairwise vertex-disjoint non-empty simplices
of the base complex (has_cell checks just that; no cell index is kept); its
dimension is the sum of the factor dimensions.  deleted_product counts the
cells of each degree, checking the cell cap as it counts, for every base;
cells_by_dim lists them on its first read.  The boundary operator carries
the Koszul sign (-1)^{d_1+...+d_{i-1}} on the i-th factor, and the symmetric
group permutes factors with the Koszul sign of permuting graded slots: the
sign of the permutation restricted to the odd-dimensional factors.  The
action is free; its orbits are the unordered tuples, one sorted cell each,
which disjoint_tuples enumerates by total dimension.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from math import comb

from .complexes import Complex, check_cap, check_simplex_faces, configured_cell_cap
from .errors import InputError
from .symgroup import sign

ProductCell = tuple  # tuple of Simplex, pairwise disjoint


def cell_dim(cell: ProductCell) -> int:
    return sum(len(s) - 1 for s in cell)


def full_simplex_f_vector(n: int, r: int) -> list:
    """Cells per degree of the r-fold deleted product of the simplex on n
    vertices: a d-cell maps d+r of them onto the r factors, in one of
    sum_j (-1)^j C(r, j) (r-j)^(d+r) ways by inclusion-exclusion."""
    return [comb(n, m) * sum((-1) ** j * comb(r, j) * (r - j) ** m for j in range(r + 1))
            for m in range(r, n + 1)]


def full_simplex_cell_count(N: int, r: int) -> int:
    """Total cells of the r-fold deleted product of the N-simplex."""
    return sum(full_simplex_f_vector(N + 1, r))


def check_full_simplex_cap(N: int, r: int) -> None:
    """Raise CapExceeded when the N-simplex's faces or its r-fold deleted product exceed the cap."""
    if r < 2:
        raise InputError("deleted product needs r >= 2, got %d" % r)
    check_simplex_faces(N)
    check_cap(full_simplex_cell_count(N, r), "cells of the deleted product")


def vertex_mask(s) -> int:
    return sum(1 << v for v in s)


def _simplex_table(K: Complex) -> tuple:
    """K's simplices as sorted (vertex mask, size, (simplex,)), and how many vertices they use."""
    table = [(vertex_mask(s), len(s), (s,)) for s in sorted(K.simplices)]
    return table, len(set().union(*K.simplices))


def _fits(table, n: int, later: int, used: int) -> list:
    """The entries of table off the vertex mask used that leave a vertex for each later factor."""
    left = n - later - used.bit_count()
    return [e for e in table if not e[0] & used and e[1] <= left]


class DeletedProductComplex:
    """Immutable deleted product: the cell count per degree, known when it
    is built, and each degree's cells in sorted order, listed on first use."""

    def __init__(self, base: Complex, r: int, f_vector: list):
        self.base = base
        self.r = r
        self._f_vector = f_vector

    @property
    def dim(self) -> int:
        return len(self._f_vector) - 1

    @property
    def is_empty(self) -> bool:
        return not self._f_vector

    def f_vector(self) -> list:
        return list(self._f_vector)

    def total_cells(self) -> int:
        return sum(self._f_vector)

    @cached_property
    def cells_by_dim(self) -> dict:
        """{degree: sorted cells}, grown factor by factor from prefixes in sorted order."""
        if self.is_empty:
            return {}
        (table, n), r, cells, masks = _simplex_table(self.base), self.r, [()], [0]
        for i in range(r - 1):
            extensions, grown, grown_masks = {}, [], []
            for cell, used in zip(cells, masks):
                if used not in extensions:
                    fit = _fits(table, n, r - 1 - i, used)
                    extensions[used] = ([t for m, k, t in fit], [used | m for m, k, t in fit])
                tails, after = extensions[used]
                grown += map(cell.__add__, tails)
                grown_masks += after
            cells, masks = grown, grown_masks
        out, extensions = {d: [] for d in range(self.dim + 1)}, {}
        for cell, used in zip(cells, masks):  # the last factor: each cell into its degree
            if used not in extensions:
                base = used.bit_count() - r
                extensions[used] = [(out[base + k], t) for m, k, t in _fits(table, n, 0, used)]
            for into, t in extensions[used]:
                into.append(cell + t)
        return out

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
    """The r-fold deleted product of K, counted and not listed: a full simplex by a closed form,
    any other base as {used vertex mask: ordered prefixes} over the prefixes _fits keeps, each
    with cells of its own, so CapExceeded comes as soon as the running count passes the cap."""
    if r < 2:
        raise InputError("deleted product needs r >= 2, got %d" % r)
    if K.is_full_simplex():
        check_full_simplex_cap(K.num_vertices - 1, r)
        return DeletedProductComplex(K, r, full_simplex_f_vector(K.num_vertices, r))
    (table, n), states, cap = _simplex_table(K), {0: 1}, configured_cell_cap()
    if r > n:  # r disjoint non-empty simplices need r vertices
        return DeletedProductComplex(K, r, [])
    for i in range(r):
        grown, total = {}, 0
        for used, ways in states.items():
            fit = _fits(table, n, r - 1 - i, used)
            for m, k, t in fit:
                grown[used | m] = grown.get(used | m, 0) + ways
            total += ways * len(fit)
            if total > cap:
                check_cap(total, "cells of the deleted product, at least")
        states = grown
    f = {}
    for used, ways in states.items():
        f[used.bit_count() - r] = f.get(used.bit_count() - r, 0) + ways
    return DeletedProductComplex(K, r, [f[d] for d in range(len(f))])  # no degree is skipped


def disjoint_tuples(simplices, r, dim=None) -> list:
    """Unordered r-tuples of pairwise vertex-disjoint simplices, of total
    dimension dim if given, in the order of itertools.combinations over the
    sorted simplices.  A prefix that meets the next simplex's vertex mask,
    or whose dimension can no longer reach dim, is never extended.  Raises
    CapExceeded as soon as more tuples than the cell cap are listed."""
    cap = configured_cell_cap()
    simplices = sorted(simplices)
    masks = [vertex_mask(s) for s in simplices]
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
