"""PL maps with rational vertex images and their r-fold intersection data.

A PL map is linear on every simplex of its domain, so all r-fold point
computations reduce to exact rational linear algebra.  The intersection
sign of r pairwise disjoint top simplices follows the stacked-normal-frame
convention: orient each simplex by increasing vertex order, take the
positively oriented normal k-frame of each image plane, stack the r frames
and read off the determinant sign.  That is the sign of det A for the
square common-point system A x = b in the row order of
convexity.common_point_system.  A unique solution makes A nonsingular, so
the image simplices are nondegenerate and their normal frames span R^d.

The solve runs on the affine system: the r sum rows substituted away.
Group g's unknowns are lambda_{g,0..m}.  Below the R = d(r-1) coordinate
rows, row R + g (0-based) says that group g's coefficients sum to 1; put
lambda_{g,0} = 1 - sum_{k>=1} lambda_{g,k}.  The affine system A' y = b'
keeps the R coordinate rows and the columns (g, k), k >= 1, in order:

    A'[:, (g,k)] = A[:, (g,k)] - A[:, (g,0)],   b' = b - sum_g A[:, (g,0)].

Its solutions and those of A x = b correspond one to one, so the two are
uniquely solvable, inconsistent or under-determined together.  The column
operations col(g,k) -= col(g,0) keep det A and leave sum row R + g a
single 1, in column offsets[g].  The Laplace expansion of det A along the
r sum rows then has one term: the minor on the columns offsets[0] < ... <
offsets[r-1] is the identity, and its complement is A'.  In 1-based
indices the term's sign is (-1) to the power sum_g (R + g + 1) +
sum_g (offsets[g] + 1) = rR + r(r+1)/2 + r + sum_g offsets[g], so

    det A = eps * det A',   eps = (-1)^(rR + r(r-1)/2 + sum_{g<r} offsets[g]),

and |det A| = |det A'| is the elimination's last pivot D either way.  For
k-codimensional m-simplices offsets[g] = g(m+1): eps = -1 for segments in
the plane and for 3-simplices in R^6 (r = 2), +1 for triangles in R^4
(r = 2) and in R^3 (r = 3).  Points mapped to R^0 (m = d = 0) leave A'
empty, with determinant 1, and eps = +1.

The intersection cocycle enumerates the disjoint tuples of top simplices
once, with deleted_product.disjoint_tuples (the enumerator of the sorted
cells, one per Sigma_r-orbit).  A tuple whose images lie strictly apart
along an axis or a diagonal (convexity.separated, on one box per simplex)
counts 0 with no solve.  Every tuple not separated gets its affine system
solved on the map's images scaled once to integers (a positive uniform
scaling changes neither the solution nor the sign of det A).  One integer
elimination per tuple gives the solution and, from its last pivot, det A';
Fractions are made only for the tuples whose images meet.  The r-fold
points and the almost-embedding test skip separated tuples too.

The coned-extension oracle recomputes the same number independently: it
extends the r-fold product map over the product polytope by coning from
the barycenter to a generic apex and counts signed crossings of the
diagonal, piece by affine piece.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from . import convexity, linalg
from .complexes import Complex, check_cap, check_simplex_faces, full_simplex, integer
from .deleted_product import disjoint_tuples, full_simplex_cell_count
from .errors import InputError, NotGeneric, read_json


@dataclass(frozen=True)
class PLMap:
    """Map linear on each simplex, determined by rational vertex images."""

    domain: Complex
    ambient_dim: int
    images: tuple  # one coordinate tuple per vertex 0..num_vertices-1

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise InputError("need an ambient dimension d >= 0, got %d" % self.ambient_dim)
        if len(self.images) != self.domain.num_vertices:
            raise InputError("need one image per domain vertex")

    @classmethod
    def build(cls, domain, ambient_dim, images) -> "PLMap":
        return cls(domain, ambient_dim, tuple(convexity.as_points(images, ambient_dim)))

    def image_points(self, simplex):
        return [self.images[v] for v in simplex]

    @cached_property
    def integer_images(self) -> tuple:
        """The images times the lcm of all their denominators, as ints.

        A positive uniform scaling leaves the barycentric solution of every
        common-point system, its pivots and every orientation unchanged.
        """
        return tuple(linalg.clear_denominators(self.images)[0])

    def to_json_dict(self) -> dict:
        return {
            "complex": self.domain.to_json_dict(),
            "d": self.ambient_dim,
            "images": [[convexity.rational_text(x) for x in p] for p in self.images],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLMap":
        try:
            return cls.build(Complex.from_json_dict(data["complex"]), integer(data["d"], "d"),
                             data["images"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("bad PL map JSON: %s" % exc) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "PLMap":
        return cls.from_json_dict(read_json("PL map %s" % path, path))


@dataclass
class RFoldPoint:
    """A common image point of r pairwise disjoint simplices, with its sign."""

    simplices: tuple     # canonical (sorted) tuple of simplices
    barycentric: tuple   # per simplex, strictly positive coordinates summing to 1
    ambient: tuple       # the common image point
    sign: int


def split_dimensions(m, d, r):
    """The codimension k with m = k(r-1) and d = k*r, or an error."""
    if r < 2 or m % (r - 1) or d * (r - 1) != m * r:
        raise InputError(
            "need dim = k(r-1) and ambient = kr; got dim %d ambient %d r %d"
            % (m, d, r)
        )
    return m // (r - 1)


def positive_normal_frame(points):
    """Positively oriented normal frame of the affine span of the points.

    points spans an m-plane in R^d; returns d-m rows N with (tangent, N)
    positively oriented.  Raises NotGeneric on a degenerate span.
    """
    base = points[0]
    tangent = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    if linalg.rank(tangent) != len(tangent):
        raise NotGeneric("degenerate simplex image")
    normal = linalg.orthogonal_complement(tangent)
    frame = tangent + normal
    if linalg.det_sign(frame) < 0:
        normal[0] = [-x for x in normal[0]]
    return normal


def _unique_solution(T, n, degenerate):
    """The solution of the integer system T = [A | b] in n unknowns, eliminated in place.

    T may have no rows.  Returns (numerators, D, sign) with D > 0,
    x_i = numerators[i] / D and, for a square A, det A = sign * D; None if
    there is no solution, NotGeneric if there are many.
    """
    pivots, D, sign = linalg.gauss_jordan(T)
    if n in pivots:
        return None
    if len(pivots) < n:
        raise NotGeneric(degenerate)
    if D < 0:
        return [-T[i][n] for i in range(n)], -D, -sign
    return [T[i][n] for i in range(n)], D, sign


def sum_row_sign(R: int, offsets) -> int:
    """eps with det A = eps * det A' (module docstring), for the common-point
    system A with R coordinate rows and these group offsets."""
    r = len(offsets) - 1
    return -1 if (r * R + r * (r - 1) // 2 + sum(offsets[:r])) % 2 else 1


def tuple_r_fold_point(f: PLMap, simplices):
    """The strictly interior common image point of one disjoint r-tuple.

    Solves the affine system equating the r affine images (the common-point
    system with lambda_{g,0} substituted away, module docstring), on the
    map's integer images, by one integer elimination.  The sign of the point
    is that of the common-point system's determinant: eps times the affine
    system's.  Returns an RFoldPoint, or None if the images miss each
    other.  Raises NotGeneric on under-determined systems or boundary
    solutions.
    """
    d = f.ambient_dim
    ints = f.integer_images
    A, b, offsets = convexity.common_point_system([[ints[v] for v in s] for s in simplices])
    R = len(A) - len(simplices)
    spans = list(zip(offsets, offsets[1:]))
    T = []
    for row, bi in zip(A[:R], b):
        out = []
        for lo, hi in spans:
            first = row[lo]
            out.extend(x - first for x in row[lo + 1:hi])
        out.append(bi - sum(row[lo] for lo, _ in spans))
        T.append(out)
    sol = _unique_solution(T, offsets[-1] - len(simplices),
                           "under-determined intersection system")
    if sol is None:
        return None  # inconsistent: the image planes do not meet
    tails, D, sgn = sol
    nums = []
    for g, (lo, hi) in enumerate(spans):
        tail = tails[lo - g:hi - g - 1]  # lambda_{g,1..}, g first coordinates substituted
        nums.append(D - sum(tail))
        nums.extend(tail)
    if 0 in nums:
        raise NotGeneric("intersection on a simplex boundary")
    if any(v < 0 for v in nums):
        return None
    x = [Fraction(v, D) for v in nums]
    bary = tuple(tuple(x[a:b]) for a, b in spans)
    pts = f.image_points(simplices[0])
    ambient = tuple(sum(c * p[a] for c, p in zip(bary[0], pts)) for a in range(d))
    return RFoldPoint(tuple(simplices), bary, ambient, sum_row_sign(R, offsets) * sgn)


def _boxes(f: PLMap, simplices) -> dict:
    """The box of each simplex's images (convexity.box), kept for every tuple."""
    proj = convexity.projections(f.integer_images)
    return {s: tuple(map(tuple, convexity.box(proj, s))) for s in simplices}


def _top_r_fold_points(f: PLMap, r: int):
    """(tuple, its r-fold point or None) per disjoint r-tuple of top simplices,
    once the dimensions fit.  A separated tuple (convexity.separated) gets
    None with no solve: its images share no point."""
    m = f.domain.dim
    split_dimensions(m, f.ambient_dim, r)
    top = f.domain.simplices_of_dim(m)
    tuples = disjoint_tuples(top, r)
    boxes = _boxes(f, top)
    for combo in tuples:
        apart = convexity.separated([boxes[s] for s in combo])
        yield combo, None if apart else tuple_r_fold_point(f, combo)


def global_r_fold_points(f: PLMap, r: int) -> list:
    """All r-fold points among pairwise disjoint top simplices."""
    return [pt for _, pt in _top_r_fold_points(f, r) if pt is not None]


def intersection_cocycle(f: PLMap, r: int) -> dict:
    """Signed r-fold point count per disjoint top-simplex tuple."""
    return {combo: 0 if pt is None else pt.sign for combo, pt in _top_r_fold_points(f, r)}


def orientation_pairing_sign(k, r) -> int:
    """Constant sign relating the diagonal-crossing determinant of the coned
    extension to the stacked-normal-frame convention; depends only on (k, r)."""
    return -1 if (k * (r - 1) * (r * (r - 1) // 2)) % 2 else 1


def default_apexes(f: PLMap, simplices, seed=0):
    """Deterministic generic apex tuple for the coned extension."""
    rng = random.Random((seed, tuple(simplices)).__repr__())
    pts = [p for s in simplices for p in f.image_points(s)]
    coords = [x for p in pts for x in p]
    spread = max(coords) - min(coords) if coords else Fraction(1)
    if spread == 0:
        spread = Fraction(1)
    center = [Fraction(sum(p[a] for p in pts), len(pts)) for a in range(f.ambient_dim)]
    return [
        tuple(
            center[a] + spread * Fraction(rng.randint(-2**20, 2**20), 2**18)
            for a in range(f.ambient_dim)
        )
        for _ in simplices
    ]


def coned_extension_oracle(f: PLMap, simplices, seed=0) -> int:
    """Signed diagonal crossings of a generic coned extension over the tuple.

    The product of the r simplices is parametrized by the free barycentric
    coordinates u in R^{rm}; the r-fold product map is affine there.  Coning
    from the barycenter to the apex tuple makes the extension affine on each
    cone-over-facet piece, and each piece contributes the sign of the
    determinant pairing its differential with the diagonal directions.
    """
    d = f.ambient_dim
    r = len(simplices)
    m = len(simplices[0]) - 1
    k = split_dimensions(m, d, r)
    if k == 0:  # points mapped to R^0: there is no cone to extend over
        raise InputError("the coned extension needs dim = k(r-1) with k >= 1, got k = 0")
    apex = [x for p in default_apexes(f, simplices, seed) for x in p]  # point of (R^d)^r
    n = r * m  # parameter dimension
    rd = r * d

    # affine map L(u) = Lmat u + Lconst for the r-fold product map
    Lmat = [[Fraction(0)] * n for _ in range(rd)]
    Lconst = []
    for i, s in enumerate(simplices):
        pts = f.image_points(s)
        for a in range(d):
            Lconst.append(pts[0][a])
            for j in range(m):
                Lmat[i * d + a][i * m + j] = pts[j + 1][a] - pts[0][a]
    center_u = [Fraction(1, m + 1)] * n
    Lc = [sum(row[j] * center_u[j] for j in range(n)) + c0
          for row, c0 in zip(Lmat, Lconst)]

    # facets of the product polytope: u_{i,j} >= 0 and sum_j u_{i,j} <= 1
    facets = []
    for i in range(r):
        for j in range(m):
            grad = [Fraction(0)] * n
            grad[i * m + j] = Fraction(1)
            facets.append((grad, Fraction(0)))  # g(u) = grad.u + const
        grad = [Fraction(0)] * n
        for j in range(m):
            grad[i * m + j] = Fraction(-1)
        facets.append((grad, Fraction(1)))

    gc = Fraction(1, m + 1)  # every facet functional takes this value at the center
    total = 0
    drift = [lc - a for lc, a in zip(Lc, apex)]
    for grad, const in facets:
        # F(u) = apex + t(u) (Lc - apex) + L(u) - Lc,  t(u) = 1 - g(u)/g(c)
        Fmat = [row[:] for row in Lmat]
        Fconst = []
        for a in range(rd):
            coef = -drift[a] / gc
            for j in range(n):
                Fmat[a][j] += coef * grad[j]
            Fconst.append(apex[a] + drift[a] * (1 - const / gc) + Lconst[a] - Lc[a])
        # diagonal condition F_i(u) = F_{i+1}(u)
        A = []
        b = []
        for i in range(r - 1):
            for a in range(d):
                A.append([Fmat[i * d + a][j] - Fmat[(i + 1) * d + a][j]
                          for j in range(n)])
                b.append(Fconst[(i + 1) * d + a] - Fconst[i * d + a])
        T = linalg.clear_denominators([row + [bi] for row, bi in zip(A, b)])[0]
        sol = _unique_solution(T, n, "coned extension meets the diagonal non-transversally")
        if sol is None:
            continue  # this piece's affine extension misses the diagonal
        u = [Fraction(v, sol[1]) for v in sol[0]]
        g_u = sum(gj * uj for gj, uj in zip(grad, u)) + const
        t = 1 - g_u / gc
        if t <= 0 or t >= 1:
            if t == 0 or t == 1:
                raise NotGeneric("diagonal crossing on a piece boundary")
            continue
        x = [cu + (uu - cu) / t for cu, uu in zip(center_u, u)]
        for grad2, const2 in facets:
            if grad2 is grad:
                continue
            val = sum(gj * xj for gj, xj in zip(grad2, x)) + const2
            if val == 0:
                raise NotGeneric("diagonal crossing on a piece boundary")
            if val < 0:
                break  # the crossing lies outside this piece
        else:
            # crossing sign: differential columns paired with diagonal directions
            M = [Fmat[a] + [Fraction(int(a % d == l)) for l in range(d)] for a in range(rd)]
            sgn = linalg.det_sign(M)
            if sgn == 0:
                raise NotGeneric("degenerate diagonal crossing")
            total += sgn
    return orientation_pairing_sign(k, r) * total


def is_almost_r_embedding(f: PLMap, r: int) -> bool:
    """True iff no r pairwise disjoint simplices have intersecting images.

    Decided by exact LP feasibility of the common-point system, so mixed
    and degenerate dimension counts are handled uniformly; a separated
    tuple (convexity.separated) needs no LP.
    """
    if r < 2:
        raise InputError("an almost r-embedding needs r >= 2, got %d" % r)
    tuples = disjoint_tuples(f.domain.simplices, r)
    boxes = _boxes(f, f.domain.simplices)
    for combo in tuples:
        if convexity.separated([boxes[s] for s in combo]):
            continue
        if convexity.hulls_intersect([f.image_points(s) for s in combo]) is not None:
            return False
    return True


def join_extension(f: PLMap, r: int) -> PLMap:
    """Join of f with the constant map sending r-1 new vertices to height 1.

    Old vertices map to (f(v), 0); the new vertices map to (0,...,0,1).
    The domain must be a full simplex, and the output is the full simplex
    on r-1 more vertices, one ambient dimension up.
    """
    N = f.domain.num_vertices - 1
    if not f.domain.is_full_simplex():
        raise InputError("join extension needs the full simplex as domain")
    check_simplex_faces(N + r - 1)
    images = [p + (Fraction(0),) for p in f.images]
    new_pt = tuple([Fraction(0)] * f.ambient_dim) + (Fraction(1),)
    images += [new_pt] * (r - 1)
    return PLMap(full_simplex(N + r - 1), f.ambient_dim + 1, tuple(images))


@dataclass
class ConstraintLift:
    """f x rho-hat on the barycentric subdivision, with carrier bookkeeping."""

    map: PLMap
    vertex_faces: list  # subdivision vertex index -> carrier face of Delta_N


def constraint_lift(f: PLMap, s: int) -> ConstraintLift:
    """Pair f with the PL skeleton-distance surrogate rho-hat.

    On the barycentric subdivision of the full simplex, the vertex sitting
    at the barycenter of a face sigma gets the extra coordinate
    max(0, dim sigma - s), so the zero set of the new coordinate is exactly
    the s-skeleton.  The subdivision's maximal simplices are the full flags
    of faces, one per vertex ordering p, whose k-th face holds p[:k].  A
    chain of k faces is, by its successive differences, a cell of the
    k-fold deleted product of Delta_N; those counts give the subdivision's
    size, checked against the cell cap before any flag is built.
    """
    N = f.domain.num_vertices - 1
    if not f.domain.is_full_simplex():
        raise InputError("constraint lift needs the full simplex as domain")
    if not 0 <= s < N:
        raise InputError("need 0 <= s < N")
    check_cap(sum(full_simplex_cell_count(N, k) for k in range(1, N + 2)),
              "simplices of the subdivided %d-simplex" % N)
    faces = sorted(f.domain.simplices, key=lambda t: (len(t), t))
    index = {t: i for i, t in enumerate(faces)}
    maximal = [[index[tuple(sorted(p[:k]))] for k in range(1, N + 2)]
               for p in permutations(range(N + 1))]
    subdiv = Complex.from_maximal(len(faces), maximal)
    images = []
    for t in faces:
        bary = tuple(sum(f.images[v][a] for v in t) / len(t) for a in range(f.ambient_dim))
        images.append(bary + (Fraction(max(0, len(t) - 1 - s)),))
    return ConstraintLift(PLMap(subdiv, f.ambient_dim + 1, tuple(images)), faces)
