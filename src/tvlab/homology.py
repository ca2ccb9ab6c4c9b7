"""Exact integer linear algebra and cellular homology.

A boundary matrix is a list of columns, column j the (row, entry) pairs of
its nonzero entries, each row at most once, as deleted_product builds it.
The check that boundaries square to zero, the elimination and the integer
solve read columns.  IntMatrix is the one sparse row layout: a shape and,
per row, the (column, entry) pairs of its nonzero entries with the columns
ascending.  The coboundary, the leftover block and the input of a solve
are held in it, and a solve transposes its rows into columns once.  One
sparse elimination serves Z and GF(p).  Over Z it pivots on unit entries;
the small block left over is the one dense array, reduced in place to its
Smith normal form with no transforms.  Over GF(p) every nonzero entry is a
unit, so nothing is left over and the pivots are the rank.  Integer linear
systems run on the same elimination over Z: the right-hand side is carried
along as a column that is never a pivot, the leftover block is solved by
its Smith normal form with U and V riding along as columns and rows of the
same array, and the logged pivot rows are back-substituted; an
infeasibility certificate is re-verified through the combination of
equations behind it.  A dense block's m*n entries pass the cell cap before
it is allocated.  The homology of a deleted product is that of the Morse
complex of its element matching (deleted_product.morse_complex): the same
homology() reduces its few critical cells, not the full boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import check_cap
from .errors import InputError, SearchInvariantViolated
from .symgroup import is_prime


@dataclass
class IntMatrix:
    """Sparse arbitrary-precision integer matrix: its shape and, per row,
    the (column, entry) pairs of its nonzero entries, columns ascending."""

    rows: int
    cols: int
    entries: list

    def mat_vec(self, v):
        if self.cols != len(v):
            raise InputError("vector length mismatch")
        return [sum(a * v[j] for j, a in row) for row in self.entries]


def _smith(T: list, m: int, n: int) -> None:
    """Smith normal form, in place, of the block of the first m rows of T
    and their first n columns.

    A row operation acts on a whole row, so columns of T right of column n
    ride along; a column operation acts on columns < n of every row, so
    rows of T below row m ride along.  Pivot choice: minimal nonzero
    absolute value, the first unit in row-major order, to limit entry
    growth.  The diagonal ends as d_1 | d_2 | ..., nonnegative.
    """
    t = 0
    while t < min(m, n):
        pivot = best = None
        for i in range(t, m):
            row = T[i]
            for j in range(t, n):
                a = row[j]
                if a and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        T[t], T[i] = T[i], T[t]
        for row in T:
            row[t], row[j] = row[j], row[t]
        prow = T[t]
        p = prow[t]
        # one reduction pass over column and row t, then re-pivot if any
        # balanced remainder survived (it is strictly smaller than |p|): the
        # quotient q = (2a + h) // 2p leaves |a - q*p| <= |p| / 2, a tie at q = floor(a / p)
        h = p - 1 if p > 0 else p + 1
        for i in range(t + 1, m):
            if T[i][t]:
                q = (2 * T[i][t] + h) // (2 * p)
                T[i] = [a - q * b for a, b in zip(T[i], prow)]
        for j in range(t + 1, n):
            if prow[j]:
                q = (2 * prow[j] + h) // (2 * p)
                for row in T:
                    row[j] -= q * row[t]
        if any(T[i][t] for i in range(t + 1, m)) or any(prow[t + 1:n]):
            continue
        # enforce divisibility of the remaining block by the pivot: add the
        # first offending row to row t and redo this pivot
        offender = next((i for i in range(t + 1, m)
                         if any(T[i][j] % p for j in range(t + 1, n))), None)
        if offender is not None:
            T[t] = [a + b for a, b in zip(prow, T[offender])]
            continue
        if p < 0:
            T[t] = [-a for a in prow]
        t += 1


def _dense(M: IntMatrix) -> list:
    """The rows of M as lists, the one dense allocation.  Its m*n entries
    pass the cell cap first; transforms that ride along are not counted."""
    check_cap(M.rows * M.cols, "entries of the dense Smith block")
    rows = [[0] * M.cols for _ in range(M.rows)]
    for row, pairs in zip(rows, M.entries):
        for j, v in pairs:
            row[j] = v
    return rows


def smith_normal_form(M: IntMatrix):
    """Return (U, D, V) with U*M*V = D diagonal, d_1 | d_2 | ..., U,V unimodular.

    M is densified with the identity right of its rows, which ends as U,
    and below them, which ends as V; U, D and V come back as lists of rows.
    """
    m, n = M.rows, M.cols
    T = _dense(M)
    for i, row in enumerate(T):
        row += [int(i == k) for k in range(m)]
    T += [[int(i == j) for j in range(n)] for i in range(n)]
    _smith(T, m, n)
    return [row[n:] for row in T[:m]], [row[:n] for row in T[:m]], T[m:]


def _eliminate(columns: list, carry=None, log=None, p=None):
    """Sparse elimination over Z, or over GF(p) for a prime p, sweeping the
    columns in order.

    In each column the pivot is a unit entry in the shortest row that holds
    one: +-1 over Z, any nonzero entry over GF(p), where the entries are
    reduced mod p.  Each pivot removes its row and column and leaves the
    Schur complement, so over Z the Smith normal form of the input is one 1
    per pivot followed by that of the rows left.  Over GF(p) every column
    that is not zero takes a pivot and no row is left, so the number of
    pivots is the rank.  Returns (number of pivots, {row: {col: entry}}
    left).

    Column ``carry`` (a right-hand side) is eliminated along but never
    chosen as a pivot.  A ``log`` list receives one (row, col, pivot, pivot
    row, [(row, multiplier), ...]) per pivot, in order: the pivot row is
    {col: entry} of its other entries at that step, and each listed row had
    multiplier times the pivot row subtracted from it.  Both are for the
    integer solve, over Z.
    """
    rows = {}
    cols = {}
    for j, column in enumerate(columns):
        live = set()
        for i, v in column:
            if p:
                v %= p
            if v:
                rows.setdefault(i, {})[j] = v
                live.add(i)
        if live:
            cols[j] = live
    pivots = 0
    for j in sorted(cols):
        if j == carry:
            continue
        units = cols[j] if p else [i for i in cols[j] if rows[i][j] in (1, -1)]
        if not units:
            continue
        pivots += 1
        pi = min(units, key=lambda i: len(rows[i]))
        prow = rows.pop(pi)
        pv = prow.pop(j)  # +-1 over Z, its own inverse
        if p:
            pv = pow(pv, -1, p)
        for c in prow:
            cols[c].discard(pi)
        others = cols.pop(j)
        others.discard(pi)
        if log is not None:
            log.append((pi, j, pv, prow, [(i, rows[i][j] * pv) for i in others]))
        for i in others:
            row = rows[i]
            f = row.pop(j) * pv
            for c, w in prow.items():
                nv = row.get(c, 0) - f * w
                if p:
                    nv %= p
                if nv:
                    row[c] = nv
                    cols[c].add(i)
                elif c in row:
                    del row[c]
                    cols[c].discard(i)
            if not row:
                del rows[i]
    return pivots, rows


def _leftover_block(left: dict, carry=None):
    """The rows left by _eliminate, renumbered over their live columns.

    Returns (row ids, column ids, IntMatrix), rows and columns in increasing
    order; the carried column is not part of the block.
    """
    row_ids = sorted(left)
    col_ids = sorted({j for row in left.values() for j in row if j != carry})
    at = {j: b for b, j in enumerate(col_ids)}
    rows = [sorted((at[j], v) for j, v in left[i].items() if j != carry) for i in row_ids]
    return row_ids, col_ids, IntMatrix(len(row_ids), len(col_ids), rows)


def smith_diagonal(columns: list, m: int) -> list:
    """Diagonal of the Smith normal form of a matrix with m rows, given by
    its n = len(columns) columns, no transforms.

    One 1 per unit pivot of the sparse elimination, then the nonzero
    diagonal of the dense Smith normal form of the block left over (a
    divisibility chain, which the leading 1s divide), then zeros.
    """
    units, left = _eliminate(columns)
    diag = [1] * units
    if left:
        block = _leftover_block(left)[2]
        T = _dense(block)
        _smith(T, block.rows, block.cols)
        diag += [row[t] for t, row in enumerate(T) if t < block.cols and row[t]]
    return diag + [0] * (min(m, len(columns)) - len(diag))


@dataclass
class HomologyReport:
    """Per-dimension free ranks and torsion, with a coefficient tag."""

    coefficients: str  # "Z" or "GF(p)"
    ranks: dict        # dim -> free rank (Betti number)
    torsion: dict      # dim -> list of torsion coefficients (each > 1, dividing the next)

    def betti(self, d: int) -> int:
        return self.ranks.get(d, 0)


def _rank_mod_p(columns: list, p: int) -> int:
    """Rank over GF(p) of a matrix given by its columns: the number of
    pivots of _eliminate over GF(p)."""
    return _eliminate(columns, p=p)[0]


def coefficient_tag(coefficients) -> str:
    """"Z", or "GF(p)" for a prime p; raises InputError for anything else."""
    if coefficients == "Z":
        return "Z"
    p = int(coefficients)
    if not is_prime(p):
        raise InputError("homology coefficients must be Z or a prime field, got %d" % p)
    return "GF(%d)" % p


def homology(boundaries: list, shapes: list, coefficients="Z") -> HomologyReport:
    """Cellular homology from sparse boundary matrices.

    boundaries[d] maps dimension d to d-1 (d >= 1), as its shapes[d]
    columns, each a list of (row, entry) with a row at most once; shapes[d]
    is the number of d-cells.  coefficients is "Z" or a prime p.  Over Z
    the rank and torsion of each boundary are read from its one
    smith_diagonal; over GF(p) only its rank is kept, from _rank_mod_p.
    """
    tag = coefficient_tag(coefficients)
    top = len(shapes) - 1
    # chain-complex sanity, over Z: boundary d-1 takes every column of
    # boundary d to zero, each column's image summed into its own {row: value}
    for d in range(2, top + 1):
        lower = boundaries[d - 1]
        for column in boundaries[d]:
            image = {}
            for i, v in column:
                for k, w in lower[i]:
                    image[k] = image.get(k, 0) + v * w
            if any(image.values()):
                raise InputError("boundary squared is nonzero in dim %d" % d)

    # rank[d], and torsion[d - 1]: the rank and the entries past 1 of boundary d's Smith diagonal
    rank, torsion = [0] * (top + 2), [[] for _ in range(top + 1)]
    for d in range(top, 0, -1):
        if tag == "Z":
            diag = smith_diagonal(boundaries[d], shapes[d - 1])
            rank[d] = sum(1 for x in diag if x)
            torsion[d - 1] = [x for x in diag if x > 1]
        else:
            rank[d] = _rank_mod_p(boundaries[d], int(coefficients))
    ranks = {d: shapes[d] - rank[d] - rank[d + 1] for d in range(top + 1)}
    return HomologyReport(tag, ranks, dict(enumerate(torsion)))


def dp_homology(dp, coefficients="Z") -> HomologyReport:
    """Homology of a deleted product complex, reduced on the Morse complex
    of its element matching; no degrees when it is empty."""
    return homology(*dp.morse_complex(), coefficients)


def homological_connectivity(dp) -> int:
    """Largest j with vanishing reduced homology in all degrees <= j.

    Reports -1 for a disconnected (but non-empty) complex and -2 for the
    empty one, whose reduced homology is Z in degree -1.
    """
    if dp.is_empty:
        return -2
    rep = dp_homology(dp, "Z")
    if rep.betti(0) != 1:
        return -1
    return next((d - 1 for d in range(1, dp.dim + 1) if rep.betti(d) or rep.torsion.get(d)), dp.dim)


def _snf_solve(A: IntMatrix, b: list):
    """Dense Smith-normal-form solve of A x = b.

    Returns (x, None, None) or (None, witness, u): the witness names the
    violated coordinate t of U b, and u, row t of U, combines the equations
    into one that A satisfies and b violates (modulo the diagonal entry d_t,
    or exactly beyond the rank).
    """
    U, D, V = smith_normal_form(A)
    c = [sum(u * x for u, x in zip(row, b)) for row in U]
    y = [0] * A.cols
    for t in range(min(A.rows, A.cols)):
        d = D[t][t]
        if d:
            if c[t] % d:
                return None, {"kind": "divisibility", "index": t,
                              "diagonal": d, "coordinate": c[t]}, U[t]
            y[t] = c[t] // d
    for t in range(A.rows):
        if (t >= A.cols or D[t][t] == 0) and c[t]:
            return None, {"kind": "rank", "index": t, "coordinate": c[t]}, U[t]
    return [sum(v * x for v, x in zip(row, y)) for row in V], None, None


def solve_integer_system(A: IntMatrix, b: list):
    """Integer solution of A x = b, or an infeasibility certificate.

    b rides along as a carried column of the sparse unit-pivot elimination;
    the block left over is solved by the dense Smith normal form, and the
    pivot rows are back-substituted in reverse (columns without a pivot
    are 0).  Returns (x, None) on success or (None, certificate) where the
    certificate names the violated SNF coordinate: either a diagonal
    divisibility failure or a nonzero transformed coordinate beyond the
    rank, indexed after the unit pivots.  Before it is returned, the
    certificate is re-verified: the combination u of the equations behind
    it has u A = 0 and u b != 0 modulo the diagonal entry (exactly for a
    rank certificate), or SearchInvariantViolated is raised.
    """
    if A.rows != len(b):
        raise InputError("b has length %d, A has %d rows" % (len(b), A.rows))
    carry = A.cols
    columns = [[] for _ in range(carry)]
    for i, row in enumerate(A.entries):  # each column's rows ascending, the pivot tie order
        for j, v in row:
            columns[j].append((i, v))
    columns.append([(i, v) for i, v in enumerate(b) if v])
    log = []
    units, left = _eliminate(columns, carry=carry, log=log)
    x = [0] * A.cols
    if left:
        row_ids, col_ids, block = _leftover_block(left, carry)
        y, witness, u_block = _snf_solve(block, [left[i].get(carry, 0) for i in row_ids])
        if witness is not None:
            witness["index"] += units
            u = _equation_combination(dict(zip(row_ids, u_block)), log)
            _check_witness(columns, carry, u, witness.get("diagonal", 0))
            return None, witness
        for j, yj in zip(col_ids, y):
            x[j] = yj
    for _, j, pv, prow, _ in reversed(log):
        rest = sum(w * x[c] for c, w in prow.items() if c != carry)
        x[j] = pv * (prow.get(carry, 0) - rest)  # pv = +-1 is its own inverse
    return x, None


def _equation_combination(u: dict, log: list) -> dict:
    """Coefficients over the original rows of the combination u of the rows
    left by the elimination; the log is read in reverse, and each pivot row
    gets minus the u-weighted sum of its multipliers."""
    for pi, _, _, _, multipliers in reversed(log):
        u[pi] = -sum(u.get(i, 0) * f for i, f in multipliers)
    return {i: ui for i, ui in u.items() if ui}


def _check_witness(columns: list, carry: int, u: dict, d: int) -> None:
    """u A = 0 and u b != 0 modulo d (exactly for d = 0), or raise."""
    uA = [sum(u[i] * v for i, v in column if i in u) for column in columns]
    ub = uA.pop(carry)
    if d:
        ok = ub % d and not any(s % d for s in uA)
    else:
        ok = ub and not any(uA)
    if not ok:
        raise SearchInvariantViolated("infeasibility witness failed re-verification")
