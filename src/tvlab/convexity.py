"""Exact-rational convex geometry: Radon and Tverberg partitions.

Inputs and answers are exact rationals (fractions.Fraction).  Feasibility
of common points of convex hulls is decided by a phase-one simplex with
Bland's rule on an integer tableau, so every positive answer comes with
exact barycentric certificates and every answer is deterministic.

One separation test serves every r-tuple question: the Tverberg search
here, and the intersection cocycle, the r-fold points and the
almost-embedding test of plmaps.  Once per point set the points, scaled to
integers, are projected onto the axes e_a and the diagonals e_a + e_b,
e_a - e_b (a < b), and each group of points gets a box: per direction, its
least and greatest projection.  If along one direction u some group's least
u.x exceeds another group's greatest, a hyperplane separates the two groups,
their hulls cannot meet, and the tuple needs no LP and no solve.  The
Tverberg search walks the partitions in canonical order and skips only
infeasible ones, so the first feasible partition, its LP, witness and
certificates are those of the plain walk.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from operator import gt

from . import linalg
from .complexes import check_digits
from .errors import InputError, SearchInvariantViolated


def lp_feasible(A, b):
    """Find x >= 0 with A x = b (rationals), or None.

    Phase-one simplex with Bland's anticycling rule on an integer tableau.
    A and b are scaled by the lcm L of all their denominators and the
    artificial columns stay the identity; that scales the phase-one
    objective by L and keeps every sign and ratio comparison, so the pivot
    sequence and x are those of the rational tableau.  The tableau holds D
    times the rational one, D > 0 the last pivot (see linalg.pivot).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i, row in enumerate(linalg.clear_denominators([(*row, bi) for row, bi in zip(A, b)])[0]):
        # rows with negative right-hand side are negated so artificials start feasible
        if row[-1] < 0:
            row = [-x for x in row]
        T.append([*row[:n], *(int(i == j) for j in range(m)), row[n]])
    # last row: reduced costs of the artificial basis for the phase-one
    # objective (minimize the sum of artificials), then the objective value
    obj = [sum(col) for col in zip(*T)] or [0]
    obj[n:n + m] = [0] * m
    T.append(obj)
    basis = list(range(n, n + m))
    D = 1
    while True:
        enter = next((j for j in range(n + m) if T[m][j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = T[i][enter]
            # ratio test by cross-multiplying; ties go to the smaller basis index
            if a > 0 and (leave is None or (T[i][-1] * T[leave][enter], basis[i])
                          < (T[leave][-1] * a, basis[leave])):
                leave = i
        if leave is None:
            break  # unbounded phase-one objective cannot happen; defensive
        D = linalg.pivot(T, leave, enter, D)
        basis[leave] = enter

    if T[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = Fraction(T[i][-1], D)
        elif T[i][-1] != 0:  # artificial stuck in basis at nonzero level
            return None
    return x


@dataclass
class TverbergPartition:
    """A certified partition into parts with intersecting convex hulls."""

    parts: list          # list of sorted index tuples, partitioning 0..n-1
    witness: tuple       # common point, Fractions
    certificates: list   # per part: convex coefficients over the part's points

    def verify(self, points) -> bool:
        n = len(points)
        seen = sorted(i for part in self.parts for i in part)
        if seen != list(range(n)):
            return False
        d = len(self.witness)
        for part, cert in zip(self.parts, self.certificates):
            if len(cert) != len(part):
                return False
            if any(c < 0 for c in cert) or sum(cert) != 1:
                return False
            for a in range(d):
                if sum(c * points[i][a] for c, i in zip(cert, part)) != self.witness[a]:
                    return False
        return True


def read_rational(text: str) -> Fraction:
    """Fraction(text), after the digit gate refuses an exponent past the
    digit limit by the mantissa's length: Fraction would build that power of
    ten first, and a nonzero mantissa leaves a part past the limit."""
    mantissa, _, exponent = text.lower().partition("e")
    shift = abs(int(exponent)) - len(mantissa) if exponent else 0  # int fails as Fraction would
    limit = sys.get_int_max_str_digits()
    check_digits(10 ** max(0, min(shift, limit)), "the power of ten in a coordinate")
    return Fraction(text)


def rational_text(x) -> str:
    """The one writer of a rational, an int or a Fraction, as a string; a
    part too long to print raises CapExceeded (complexes.check_digits)."""
    check_digits(max(abs(x.numerator), x.denominator), "a number in the report")
    return str(x)


_READ = {int: Fraction, str: read_rational}  # the other coordinate types; type(True) is bool


def as_points(points, dim=None):
    """The one reader of rational points, as tuples of Fractions: a list or
    tuple of lists or tuples of coordinates, each an int (not a bool), a
    Fraction (passed through) or a rational string, all dim long; with dim
    None, at least one point, whose length sets dim.  InputError otherwise."""
    if type(points) not in (list, tuple) or not points and dim is None:
        raise InputError("need a non-empty list of points")
    pts = []
    for p in points:
        if type(p) not in (list, tuple):
            raise InputError("a point is a list of coordinates, got %s" % type(p).__name__)
        if dim is None:
            dim = len(p)
        if len(p) != dim:
            raise InputError("need points with %d coordinates, got %d" % (dim, len(p)))
        try:
            pts.append(tuple([x if type(x) is Fraction else _READ[type(x)](x) for x in p]))
        except KeyError as exc:  # no reader for this type
            raise InputError("a coordinate is an int, a Fraction or a rational string, got %s"
                             % exc.args[0].__name__) from None
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError("bad point coordinates: %s" % exc) from exc
    return pts


def common_point_system(groups):
    """The linear system "the convex combinations of the groups agree".

    One barycentric unknown per point, group after group.  The rows say,
    coordinate by coordinate, that group g's combination minus group 0's is
    0 (g >= 1), then that each group's coefficients sum to 1.  Returns
    (A, b, offsets), group g's unknowns being offsets[g]:offsets[g + 1].
    This row order fixes the pivot path of lp_feasible.
    """
    d = len(groups[0][0])
    offsets = [0, *accumulate(len(g) for g in groups)]
    A = []
    for g in range(1, len(groups)):
        for a in range(d):
            row = [0] * offsets[-1]
            row[:offsets[1]] = [-p[a] for p in groups[0]]
            row[offsets[g]:offsets[g + 1]] = [p[a] for p in groups[g]]
            A.append(row)
    for g in range(len(groups)):
        row = [0] * offsets[-1]
        row[offsets[g]:offsets[g + 1]] = [1] * len(groups[g])
        A.append(row)
    b = [0] * (len(A) - len(groups)) + [1] * len(groups)
    return A, b, offsets


def hulls_intersect(groups):
    """Common point of the convex hulls of the groups, or None.

    groups is a list of non-empty lists of rational points of equal
    dimension.  Returns (witness, coefficient lists) or None.
    """
    first = as_points(groups[0])
    d = len(first[0])
    groups = [first, *(as_points(g, d) for g in groups[1:])]
    A, b, offsets = common_point_system(groups)
    x = lp_feasible(A, b)
    if x is None:
        return None
    certs = [x[offsets[g]: offsets[g + 1]] for g in range(len(groups))]
    witness = tuple(sum(c * p[a] for c, p in zip(certs[0], groups[0])) for a in range(d))
    return witness, certs


def radon_partition(points) -> TverbergPartition:
    """Split d+2 points in R^d into two groups with intersecting hulls."""
    pts = as_points(points)
    d = len(pts[0])
    if len(pts) != d + 2:
        raise InputError("need d+2 = %d points, got %d" % (d + 2, len(pts)))
    # affine dependence: sum c_i x_i = 0 and sum c_i = 0, c nonzero
    rows = [[pts[i][a] for i in range(d + 2)] for a in range(d)]
    rows.append([Fraction(1)] * (d + 2))
    c = linalg.nullspace(rows)[0]
    pos = tuple(sorted(i for i in range(d + 2) if c[i] > 0))
    rest = tuple(sorted(i for i in range(d + 2) if i not in pos))
    s = sum(c[i] for i in pos)
    witness = tuple(sum(c[i] * pts[i][a] for i in pos) / s for a in range(d))
    cert_pos = [c[i] / s for i in pos]
    cert_rest = [(-c[i] / s if c[i] < 0 else Fraction(0)) for i in rest]
    part = TverbergPartition([pos, rest], witness, [cert_pos, cert_rest])
    if not part.verify(pts):
        raise SearchInvariantViolated("radon certificate failed self-check")
    return part


def _depth_first(choices, depth):
    """Each sequence of depth choices, depth first: choices(prefix) iterates those that may
    follow the list prefix.  Its own stack keeps depth off the recursion limit."""
    prefix, stack = [], []
    while True:
        if len(prefix) < depth:
            stack.append(iter(choices(prefix)))
        else:
            yield tuple(prefix)
        while stack and (choice := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        prefix[len(stack) - 1:] = [choice]  # the top level's next choice; deeper ones are gone


def canonical_partitions(n, r):
    """The partitions of 0..n-1 into r non-empty parts, parts largest first and
    equal sizes in lexicographic order, by size signature, ascending (the most
    balanced first), then lexicographically: two depth-first walks in order."""
    def next_sizes(prefix):
        # from a fair share of the points left up to the last size, leaving a point per later part
        total, k = n - sum(prefix), r - len(prefix)
        return range(-(-total // k), min(prefix[-1] if prefix else n, total - k + 1) + 1)

    for sizes in _depth_first(next_sizes, r):
        lefts = [range(n)]  # lefts[j]: the points that the first j parts leave

        def next_parts(prefix):
            j = len(prefix)
            if j:  # depth first, so lefts[j - 1] is still that of prefix[:j - 1]
                lefts[j:] = [[i for i in lefts[j - 1] if i not in prefix[-1]]]
            prev = prefix[-1] if j and len(prefix[-1]) == sizes[j] else ()  # equal sizes increase
            return filter(prev.__lt__, combinations(lefts[j], sizes[j]))

        yield from _depth_first(next_parts, r)


def _directions(d):
    """The test directions in R^d, each as its (coordinate, coefficient)
    pairs: the axes e_a, then e_a + e_b and e_a - e_b for a < b.  Sparse,
    so that the d^2 directions take O(d^2) space and time, not O(d^3)."""
    return [((a, 1),) for a in range(d)] + [((a, 1), (b, s)) for a, b in combinations(range(d), 2)
                                            for s in (1, -1)]


def projections(points):
    """projections[i][k] = u_k . x_i for the integer points x_i of R^d and
    the directions u_k of _directions(d), with d read off the points; scale
    rational points to integers first, with linalg.clear_denominators."""
    U = _directions(len(points[0])) if points else ()
    return [tuple(sum(c * p[a] for a, c in u) for u in U) for p in points]


def box(proj, group):
    """The box of the points that group indexes in proj (projections): (lows,
    highs), per direction the least and the greatest projection.  Both are
    lazy maps over the directions, so that separated, stopping at the first
    direction that parts two boxes, computes no more; tuple() them to keep
    a box for many tuples."""
    columns = list(zip(*map(proj.__getitem__, group)))
    return map(min, columns), map(max, columns)


def separated(boxes):
    """Whether two of the r boxes lie strictly apart along one direction.

    Along that direction u the greatest of the lows exceeds the least of
    the highs, so a hyperplane u . x = c parts those two point groups, and
    the r convex hulls share no point.  With d = 0 there is no direction,
    and no tuple is separated.
    """
    lows, highs = zip(*boxes)
    return any(map(gt, map(max, zip(*lows)), map(min, zip(*highs))))


def tverberg_search(points, r) -> TverbergPartition:
    """First certified r-part partition in the canonical enumeration order.

    Requires r >= 2 and exactly (d+1)(r-1)+1 points; by Tverberg's theorem
    a valid partition always exists, so search exhaustion signals a bug.
    A separated partition gets no LP.
    """
    if r < 2:
        raise InputError("a Tverberg partition needs r >= 2 parts, got %d" % r)
    pts = as_points(points)
    d = len(pts[0])
    want = (d + 1) * (r - 1) + 1
    if len(pts) != want:
        raise InputError("need (d+1)(r-1)+1 = %d points, got %d" % (want, len(pts)))
    proj = projections(linalg.clear_denominators(pts)[0])
    for parts in canonical_partitions(len(pts), r):
        if separated([box(proj, part) for part in parts]):
            continue
        res = hulls_intersect([[pts[i] for i in part] for part in parts])
        if res is not None:
            witness, certs = res
            out = TverbergPartition(list(parts), witness, certs)
            if not out.verify(pts):
                raise SearchInvariantViolated("tverberg certificate failed self-check")
            return out
    raise SearchInvariantViolated("no Tverberg partition found; implementation bug")


def random_rational_points(n, d, seed):
    """Deterministic pseudo-random rational points with denominator 1024."""
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(-2**20, 2**20), 1024) for _ in range(d))
        for _ in range(n)
    ]
