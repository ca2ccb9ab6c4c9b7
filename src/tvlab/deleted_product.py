"""Simplicial r-fold deleted products with boundary maps and symmetric action.

A cell is an ordered r-tuple of pairwise vertex-disjoint non-empty simplices
of the base complex (has_cell checks just that; no cell index is kept); its
dimension is the sum of the factor dimensions.  deleted_product counts the
cells of each degree, checking the cell cap as it counts, for every base:
past the middle factors, found by _fits, the last one is counted by popcount
over bitsets of simplex table positions, one per size and one per vertex,
the latter built on the vertex's first use.
The boundary operator carries the Koszul sign (-1)^{d_1+...+d_{i-1}} on the
i-th factor, and the symmetric group permutes factors with the Koszul sign of
permuting graded slots: the sign of the permutation restricted to the
odd-dimensional factors.  The action is free; its orbits are the unordered
tuples, one sorted cell each.  One lister, _disjoint, grows tuples level by
level and meets the cell cap at each level: cells_by_dim lists the cells on
its first read, and disjoint_tuples the sorted ones, optionally of one degree.
A boundary matrix is a list of columns, column j the (row, sign) pairs of
the j-th d-cell's facets.  A facet's row is found by an integer cell key,
sum (i + 1) * q^v over the vertices v of each factor i, with q the least
prime above r: the facet's key is its cell's key less (i + 1) * q^v, so no
facet is built as a tuple.  The walk that lists the cells keys each one as
it goes, and masks its growth, the vertices that it lacks and that extend
one of its factors in the base: a prefix carries its key and the union of
its factors' reach, each step found once per mask and level with the
extension itself, so no cell is read again for its key or its masks.  The
keyed walk lists every ordering of the factors, and the unkeyed one, which
disjoint_tuples runs, the increasing tuples.  puzzle_reachable builds no
deleted product and lists no cell: it steps from each 0-cell it reaches
along the base's edges, each slot's vertex to a neighbour that the 0-cell
lacks, and meets the cell cap on the 0-cells it keeps.  _simplex_table ranks
the vertices that the base uses, once: masks, keys, powers and buckets read
a vertex by its rank, so they are as wide as the vertex count, whatever the
ids, and only cells_by_dim names a cell back by its ids.  Dicts over vertex
masks key a mask past the int hash modulus by its bytes, so a base that
uses more than 61 vertices hashes well.

Homology is reduced on a Morse complex.  Read a cell as the set of pairs
(v, i), vertex v in factor i; a facet drops one pair.  The element matching
walks the pairs with i outer and v descending, and at each pair it matches
every unmatched cell that lacks v to the cell with v added to factor i, if
that is an unmatched cell: its key is the cell's key plus (i + 1) * q^v.  A
sequence of element matchings is acyclic (Jonsson 2008, the cluster lemma),
and each matched pair is a +-1 boundary entry, so the unmatched, critical
cells carry the homology over Z and every GF(p) (Skoldberg 2006).  On every
full simplex tried (Delta_N up to N = 7, and Delta_8 with r <= 4) they are
exactly its Betti numbers.  The Morse boundary of a critical cell sums the
flows of its facets: a critical cell flows to itself, a cell matched down to
0, and a cell matched up follows its partner's other facets; each flow is
found once, on an explicit stack that meets a gradient cycle as a cell
already on it.  Into a lone critical 0-cell no flow is walked: an edge's two
facets carry opposite signs, so every 0-cell flows to +1 times the critical
0-cell at the end of its gradient path, and each critical edge's column is
that cell less itself, 0.  The one facet walk, _facets, serves the boundary
matrices and the flows.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import repeat
from math import comb

from .complexes import Complex, check_cap, check_simplex_faces, configured_cell_cap
from .errors import InputError, SearchInvariantViolated
from .symgroup import is_prime, sign

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


def _simplex_table(simplices) -> tuple:
    """Sorted (ranked simplex, its vertex mask, size, (simplex,)) entries, and
    how many vertices they use: each vertex is ranked among those, once, and
    the ranking is monotone, so the ranked simplices sort as the simplices do."""
    rank = {v: i for i, v in enumerate(sorted(set().union(*simplices)))}
    table, get, bit = [], rank.__getitem__, (1).__lshift__
    for s in sorted(simplices):
        t = tuple(map(get, s))
        table.append((t, sum(map(bit, t)), len(s), (s,)))
    return table, len(rank)


_HASH_MODULUS = sys.hash_info.modulus  # an int hashes to itself modulo this prime, 2^61 - 1


def _mask_key(mask: int):
    """The dict key of a vertex mask: the mask itself below _HASH_MODULUS, its
    bytes from there on, where the int's hash would fold vertex v onto v + 61."""
    return mask if mask < _HASH_MODULUS else mask.to_bytes((mask.bit_length() + 7) // 8, "little")


def _fits(table, n: int, later: int, used: int, least: int = 1) -> list:
    """The entries off the mask used, of size least or more, leaving a vertex per later factor."""
    most = n - later - used.bit_count()
    return [e for e in table if not e[1] & used and least <= e[2] <= most]


def _disjoint(simplices, r: int, dim, into, powers=None) -> None:
    """Append each r-tuple of pairwise vertex-disjoint simplices, of total
    dimension dim if given, to the list into(its dimension), in
    lexicographic order.  Unkeyed, the walk lists the increasing tuples: a
    prefix grows by the _fits of its mask past its least vertex, found once
    per mask and level, after its last factor, with a simplex left per later
    factor.  Keyed, given the powers q^v of a prime q above r, it lists
    the ranked tuples, each vertex v its rank among those used, in every
    ordering of the factors, a prefix growing by all the _fits of its mask;
    into(degree) names a (cells, keys, growth) triple of lists instead, and
    each prefix also carries its key, sum (i + 1) * q^v over the vertices v
    of its factor i, and its reach, the vertices that extend one of its
    factors in the base: each tuple goes into cells, its key into keys, and
    its reach off its own vertices into growth.  A key's and a reach's step
    from a prefix to its extension are found with the extension.  A
    dimension target is a budget of dim + r vertices and a least size that
    reaches it."""
    (table, n), cap = _simplex_table(simplices), configured_cell_cap()
    big = max((e[2] for e in table), default=0)
    if r > n or dim is not None and not 0 <= dim <= min(n - r, r * (big - 1)):
        return  # r factors use r to n vertices, and dim is their sizes less r
    if not r:
        into(0).append(())
    if powers is not None:  # each ranked simplex is its own tail, with its key weight and reach
        extend = {e[0]: 0 for e in table}  # the vertices that extend each simplex
        for s in extend:
            if len(s) > 1:
                for k, v in enumerate(s):
                    extend[s[:k] + s[k + 1:]] |= 1 << v
        table = [(s, m, k, (s,), sum(powers[v] for v in s), extend[s]) for s, m, k, _ in table]
    budget, tuples, masks = n if dim is None else dim + r, [()], [0]
    keys = reaches = [0]
    for later in range(r - 1, -1, -1):
        hi, label = len(table) - later, r - later
        what = "%sdisjoint %d-tuples, at least" % ("prefixes of " if later else "", r)
        extensions, grown, grown_masks, grown_keys, grown_reaches, count = {}, [], [], [], [], 0
        for t, used, key, reach in zip(tuples, masks, keys, reaches):
            at = used if used < _HASH_MODULUS else _mask_key(used)  # a call per wide mask only
            pairs = extensions.get(at)
            if pairs is None:  # (tail, its grown mask, or at the last level its list[, steps])
                least = 1 if dim is None else budget - used.bit_count() - later * big
                if powers is None:  # increasing: past the least vertex of used
                    lo = bisect_left(table, (((used & -used).bit_length(),),))
                    fit = _fits(table[lo:hi], budget, later, used, least)
                    pairs = [(e[3], into((used | e[1]).bit_count() - r) if not later
                              else used | e[1]) for e in fit]
                else:  # with the key's step, the reach's, and the vertices left free
                    fit = _fits(table, budget, later, used, least)
                    pairs = [(e[3], into((used | e[1]).bit_count() - r) if not later
                              else used | e[1], label * e[4], e[5], ~(used | e[1])) for e in fit]
                extensions[at] = pairs
            if powers is None:  # no tail equals t's last factor, so only tails are compared
                pairs = pairs[bisect_right(pairs, (t[-1:],)):]
                if later:
                    for tail, after in pairs:
                        grown.append(t + tail)
                        grown_masks.append(after)
                else:  # the last factor: each tuple into its list
                    for tail, out in pairs:
                        out.append(t + tail)
            elif later:
                for tail, after, add, grow, _ in pairs:
                    grown.append(t + tail)
                    grown_masks.append(after)
                    grown_keys.append(key + add)
                    grown_reaches.append(reach | grow)
            else:  # the last factor: each cell, its key and its growth into its degree
                for tail, (cells, cell_keys, growth), add, grow, free in pairs:
                    cells.append(t + tail)
                    cell_keys.append(key + add)
                    growth.append((reach | grow) & free)
            count += len(pairs)
            if count > cap:
                check_cap(count, what)
        tuples, masks = grown, grown_masks
        keys, reaches = (grown_keys, grown_reaches) if powers is not None else (repeat(0),) * 2


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
        """{degree: sorted cells}, listed ranked by the one keyed walk of
        _keys and named back by the base's vertex ids."""
        ids = sorted(set().union(*self.base.simplices))
        return {d: [tuple(tuple(map(ids.__getitem__, s)) for s in cell) for cell in cells]
                for d, cells in self._keys[1].items()}

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

    @cached_property
    def _keys(self) -> tuple:
        """(drops, cells, keys, indices, growth), from the one keyed walk of
        _disjoint, in every ordering of the factors, each vertex read by its
        rank v among the n that the base uses: drops[i][v] is (i + 1) * q^v
        for the least prime q above r and v below n, cells[d] the ranked
        d-cells in sorted order, keys[d] their keys, indices[d] the {key:
        position} of keys[d], and growth[d] the mask of the vertices that
        each d-cell lacks and that extend one of its factors in the base.  A
        cell's key writes label i + 1 at each vertex of factor i as a base-q
        digit, so distinct cells have distinct keys; powers of an odd prime,
        unlike bit shifts, do not fold vertex v onto v + 61 in CPython's int
        hash.  An empty product walks nothing and keys nothing."""
        if self.is_empty:
            return [], {}, {}, {}, {}
        q = self.r + 1
        while not is_prime(q):
            q += 1
        powers = [q ** v for v in range(sum(len(s) == 1 for s in self.base.simplices))]
        out = {d: ([], [], []) for d in range(self.dim + 1)}
        _disjoint(self.base.simplices, self.r, None, out.__getitem__, powers)
        drops = [[label * w for w in powers] for label in range(1, self.r + 1)]
        cells, keys, growth = ({d: lists[k] for d, lists in out.items()} for k in range(3))
        indices = {d: dict(zip(column, range(len(column)))) for d, column in keys.items()}
        return drops, cells, keys, indices, growth

    @staticmethod
    def _facets(drops, rows, cell, key) -> list:
        """(row, sign) of each facet of the cell with this key, in the order
        of cell_boundary, rows the {key: position} of the cells one degree
        down: a facet's key is the cell's key less drops[i][v]."""
        column, shift = [], 0
        for drop, s in zip(drops, cell):
            if len(s) > 1:
                sign = -1 if shift & 1 else 1
                for v in s:
                    column.append((rows[key - drop[v]], sign))
                    sign = -sign
                shift += len(s) - 1
        return column

    def boundary_matrix(self, d: int) -> list:
        """Sparse boundary from dimension d to d-1 as columns: column j lists
        (row, sign) for the facets of the j-th d-cell, in the order of
        cell_boundary.  Rows index (d-1)-cells and columns d-cells, both in
        sorted cell order; the facets of one cell are distinct cells.
        """
        drops, cells, keys, indices, _ = self._keys
        rows, facets = indices.get(d - 1, {}), self._facets
        return [facets(drops, rows, cell, key)
                for cell, key in zip(cells.get(d, ()), keys.get(d, ()))]

    def element_matching(self) -> list:
        """The element matching, as mate[d][j] for the j-th d-cell: the index
        of its (d+1)-cell partner when it is matched up, -1 when it is matched
        down, None when it is critical.  For each pair (v, i), i outer and v
        descending, every unmatched cell that lacks v is matched to the cell
        with v added to factor i, when that is an unmatched cell; its key is
        the cell's key plus drops[i][v].  Each degree's cells are bucketed
        by the vertices of their growth masks, those that they lack and that
        extend one of their factors in the base, so a sparse base with many
        vertices has few candidates, and a bucket keeps only the cells that
        have not been matched.  A vertex is its rank among those that the
        base uses, so each one walked has a bucket and a drop."""
        drops, _, keys, indices, growth = self._keys
        top, n = self.dim, len(drops[0]) if drops else 0
        mate = [[None] * len(keys[d]) for d in range(top + 1)]
        lacking = [[[] for _ in range(top)] for _ in range(n)]  # [v][d]: d-cells v may grow
        for d in range(top):
            for j, grow in enumerate(growth[d]):
                while grow:
                    v = grow.bit_length() - 1
                    lacking[v][d].append(j)
                    grow ^= 1 << v
        for drop in drops:
            for v in range(n - 1, -1, -1):
                add = drop[v]
                for d in range(top):
                    here, there, upper, at = mate[d], mate[d + 1], indices[d + 1], keys[d]
                    left = []
                    for j in lacking[v][d]:
                        if here[j] is None:
                            k = upper.get(at[j] + add)
                            if k is not None and there[k] is None:
                                here[j], there[k] = k, -1
                            else:
                                left.append(j)
                    lacking[v][d] = left
        return mate

    def morse_complex(self) -> tuple:
        """(boundaries, shapes) of the Morse complex of element_matching, in
        the column format of boundary_matrix: shapes[d] counts the critical
        d-cells, and boundaries[d] maps them to the critical (d-1)-cells.
        A matched pair is a +-1 entry of the boundary, so this complex has
        the homology of the deleted product over Z and over every GF(p).
        The Morse boundary of a critical cell sums the flows of its facets,
        each (d-1)-cell's flow found once: a critical cell flows to itself,
        a cell matched down to 0, and a cell tau matched up with rho to
        -e * sum c * flow(tau') over the other facets tau' of rho, with
        e and c their boundary signs in rho.  The flow walks gradient paths
        on an explicit stack, and a cell met again on its own path is a
        gradient cycle: SearchInvariantViolated.  No boundary is built into
        a degree or out of one that has no critical cell, nor into a lone
        critical 0-cell: an edge's two facets carry opposite signs, so each
        0-cell's flow is +1 times the critical 0-cell its gradient path
        reaches, and with one critical 0-cell a critical edge's column is
        the sum of its two facet signs, 0, times that cell."""
        if self.dim < 1:  # nothing to match, and no cell is listed
            return [None], self.f_vector()
        mate = self.element_matching()
        critical = [[j for j, m in enumerate(degree) if m is None] for degree in mate]
        shapes = [len(c) for c in critical]
        boundaries = [None]
        for d in range(1, len(shapes)):
            if shapes[d] and shapes[d - 1] > (d == 1):  # a lone critical 0-cell takes none
                boundaries.append(self._morse_boundary(d, mate, critical))
            else:
                boundaries.append([[] for _ in critical[d]])
        return boundaries, shapes

    def _morse_boundary(self, d: int, mate: list, critical: list) -> list:
        """The columns of the Morse boundary from the critical d-cells to the
        critical (d-1)-cells, by the flows that morse_complex describes, one
        rule for every degree: a matched cell's flow is the sum over its
        partner's other facets, an edge's one other facet included.  flows[t]
        is None until the walk reaches t and False while it is on t."""
        drops, cells, keys, indices, _ = self._keys
        cells, keys, rows = cells[d], keys[d], indices[d - 1]
        facets = self._facets
        lower = mate[d - 1]
        flows = [{} if m == -1 else None for m in lower]
        for row, t in enumerate(critical[d - 1]):
            flows[t] = {row: 1}

        def partner(t) -> tuple:
            """t, on the walk, and the facets of the d-cell it is matched with."""
            flows[t] = False
            return t, facets(drops, rows, cells[lower[t]], keys[lower[t]])

        def flow(t) -> dict:
            stack = [partner(t)]
            while stack:
                u, column = stack[-1]
                for u2, _ in column:
                    f = flows[u2]
                    if f is None:
                        stack.append(partner(u2))
                        break
                    if f is False and u2 != u:
                        raise SearchInvariantViolated(
                            "gradient cycle through %d-cell %d" % (d - 1, u2))
                else:
                    stack.pop()
                    out, e = {}, next(c for u2, c in column if u2 == u)
                    for u2, c in column:
                        if u2 != u:
                            for row, w in flows[u2].items():
                                out[row] = out.get(row, 0) - e * c * w
                    flows[u] = {row: w for row, w in out.items() if w}
            return flows[t]

        out = []
        for j in critical[d]:
            total = {}
            for t, c in facets(drops, rows, cells[j], keys[j]):
                f = flows[t]
                for row, w in (flow(t) if f is None else f).items():
                    total[row] = total.get(row, 0) + c * w
            out.append([(row, w) for row, w in total.items() if w])
        return out


def _bitset(positions, length: int) -> int:
    """The int with a bit at each of these positions below length, in one linear pass."""
    bits = bytearray((length + 7) >> 3)
    for i in positions:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def deleted_product(K: Complex, r: int) -> DeletedProductComplex:
    """The r-fold deleted product of K, counted and not listed: a full simplex by a closed form,
    any other base as {mask key: (used vertex mask, ordered prefixes)} over the prefixes _fits
    keeps at each factor but the last, in table order.  The last factor is counted by popcount
    over table positions: a state's blocked set is the OR of its used vertices' bitsets, each
    built on its first use, and the k-simplices off it add ways times their number to the
    count of their degree.  CapExceeded comes as soon as the running count passes the cap."""
    if r < 2:
        raise InputError("deleted product needs r >= 2, got %d" % r)
    if K.is_full_simplex():
        check_full_simplex_cap(K.num_vertices - 1, r)
        return DeletedProductComplex(K, r, full_simplex_f_vector(K.num_vertices, r))
    (table, n), states, cap = _simplex_table(K.simplices), {0: (0, 1)}, configured_cell_cap()
    if r > n:  # r disjoint non-empty simplices need r vertices
        return DeletedProductComplex(K, r, [])
    what = "cells of the deleted product, at least"
    for later in range(r - 1, 0, -1):
        grown, total = {}, 0
        for used, ways in states.values():
            fit = _fits(table, n, later, used)
            for s, m, k, t in fit:
                after = used | m
                at = after if after < _HASH_MODULUS else _mask_key(after)  # wide masks only
                old = grown.get(at)
                grown[at] = (after, ways) if old is None else (after, old[1] + ways)
            total += ways * len(fit)
            if total > cap:
                check_cap(total, what)
        states = grown
    big, length = max(e[2] for e in table), len(table)
    places = [array("L") for _ in range(n)]  # [v]: the table positions of vertex v's simplices
    sizes = [bytearray((length + 7) >> 3) for _ in range(big + 1)]
    for i, e in enumerate(table):
        sizes[e[2]][i >> 3] |= 1 << (i & 7)
        for v in e[0]:
            places[v].append(i)
    sizes = [int.from_bytes(bits, "little") for bits in sizes]  # sizes[k]: the k-simplices
    f, on, total = {}, [0] * n, 0  # on[v]: the simplices on vertex v, once v is used
    for used, ways in states.values():
        blocked, rest = 0, used
        while rest:
            v = (rest & -rest).bit_length() - 1
            bits = on[v]
            if not bits:
                bits = on[v] = _bitset(places[v], length)
            blocked |= bits
            rest &= rest - 1
        fits, free, taken = 0, ~blocked, used.bit_count()
        low = taken - r  # with a k-simplex, a cell of degree low + k
        for k in range(1, min(big, n - taken) + 1):
            c = (sizes[k] & free).bit_count()
            if c:
                f[low + k] = f.get(low + k, 0) + ways * c
                fits += c
        total += ways * fits
        if total > cap:
            check_cap(total, what)
    return DeletedProductComplex(K, r, [f[d] for d in range(len(f))])  # no degree is skipped


def disjoint_tuples(simplices, r, dim=None) -> list:
    """Unordered r-tuples of pairwise vertex-disjoint simplices, of total
    dimension dim if given, in the order of itertools.combinations over the
    sorted simplices: the increasing tuples that _disjoint lists."""
    out = []
    _disjoint(simplices, r, dim, lambda degree: out)
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


def puzzle_reachable(base: Complex, r: int, start: ProductCell, goal: ProductCell):
    """Walk breadth first between 0-cells along edges of the r-fold deleted
    product of base, building no deleted product and listing no cell.

    A 0-cell is r distinct vertices of the base, one factor (v,) each.  An
    edge at a 0-cell v replaces one factor (u,) with a base edge on u and
    a vertex x that v lacks, and its other end has (x,) in that slot.  Each
    0-cell's (edge, other end) pairs are visited in sorted order, the order
    of the sorted 1-cells.  Only 0-cells are kept, and their running count
    meets the cell cap.

    Returns (reachable, path) where path alternates 0-cells and 1-cells;
    path is [] when start == goal.
    """
    for c in (start, goal):
        if not (len(c) == r == len(set(c)) and all(len(s) == 1 and s in base.simplices for s in c)):
            raise InputError("not a 0-cell of this deleted product: %r" % (c,))
    if start == goal:
        return True, []

    neighbours = {}  # the base's edges, from each end
    for s in base.simplices:
        if len(s) == 2:
            neighbours.setdefault(s[0], []).append(s[1])
            neighbours.setdefault(s[1], []).append(s[0])
    prev, queue, cap = {start: None}, [start], configured_cell_cap()
    for v in queue:
        if v == goal:
            break
        steps = sorted((v[:i] + ((min(u, x), max(u, x)),) + v[i + 1:], v[:i] + ((x,),) + v[i + 1:])
                       for i, (u,) in enumerate(v) for x in neighbours.get(u, ()) if (x,) not in v)
        for edge, w in steps:
            if w not in prev:
                prev[w] = (v, edge)
                queue.append(w)
        if len(prev) > cap:
            check_cap(len(prev), "0-cells reached by the puzzle walk, at least")
    if goal not in prev:
        return False, []
    path, node = [goal], goal
    while prev[node] is not None:
        node, edge = prev[node]
        path += [edge, node]
    return True, path[::-1]
