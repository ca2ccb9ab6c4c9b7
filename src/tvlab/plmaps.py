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

The intersection cocycle enumerates the disjoint tuples of top simplices
once, from vertex bitmasks, and solves every tuple's common-point system
on the map's images scaled once to integers (a positive uniform scaling
changes neither the solution nor the sign of det A).  One integer
elimination per tuple gives the solution and, from its last pivot, det A;
Fractions are made only for the tuples whose images meet.

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
from math import lcm

from . import convexity, linalg
from .complexes import Complex, full_simplex
from .deleted_product import check_simplex_faces
from .errors import InputError, InvalidMultiplicity, NotGeneric, read_json


@dataclass(frozen=True)
class PLMap:
    """Map linear on each simplex, determined by rational vertex images."""

    domain: Complex
    ambient_dim: int
    images: tuple  # one coordinate tuple per vertex 0..num_vertices-1

    def __post_init__(self):
        if len(self.images) != self.domain.num_vertices:
            raise InputError("need one image per domain vertex")
        for p in self.images:
            if len(p) != self.ambient_dim:
                raise InputError("image dimension mismatch")

    @classmethod
    def build(cls, domain, ambient_dim, images) -> "PLMap":
        pts = tuple(tuple(Fraction(x) for x in p) for p in images)
        return cls(domain, ambient_dim, pts)

    def image_points(self, simplex):
        return [self.images[v] for v in simplex]

    @cached_property
    def integer_images(self) -> tuple:
        """The images times the lcm of all their denominators, as ints.

        A positive uniform scaling leaves the barycentric solution of every
        common-point system, its pivots and every orientation unchanged.
        """
        images = [[Fraction(x) for x in p] for p in self.images]
        L = lcm(*(x.denominator for p in images for x in p))
        return tuple(tuple(x.numerator * (L // x.denominator) for x in p) for p in images)

    def to_json_dict(self) -> dict:
        return {
            "complex": self.domain.to_json_dict(),
            "d": self.ambient_dim,
            "images": [[str(x) for x in p] for p in self.images],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PLMap":
        try:
            dom = Complex.from_json_dict(data["complex"])
            d = int(data["d"])
            images = [[Fraction(x) for x in p] for p in data["images"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputError("bad PL map JSON: %s" % exc) from exc
        return cls.build(dom, d, images)

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


def disjoint_tuples(simplices, r):
    """Unordered r-tuples of pairwise vertex-disjoint simplices, sorted.

    The order is that of itertools.combinations over the sorted simplices.
    A simplex that meets the vertex mask of those already chosen is skipped
    together with every extension through it, so only disjoint prefixes
    are ever built.
    """
    simplices = sorted(simplices)
    masks = [sum(1 << v for v in s) for s in simplices]
    out = []
    chosen = []

    def extend(start, used):
        if len(chosen) == r:
            out.append(tuple(chosen))
            return
        for i in range(start, len(simplices)):
            if not masks[i] & used:
                chosen.append(simplices[i])
                extend(i + 1, used | masks[i])
                chosen.pop()

    extend(0, 0)
    del extend  # the self-referring closure would keep out alive until a full gc pass
    return out


def positive_normal_frame(points, d):
    """Positively oriented normal frame of the affine span of the points.

    points spans an m-plane in R^d; returns d-m rows N with (tangent, N)
    positively oriented.  Raises NotGeneric on a degenerate span.
    """
    base = points[0]
    tangent = [[p[a] - base[a] for a in range(d)] for p in points[1:]]
    if linalg.rank(tangent) != len(tangent):
        raise NotGeneric("degenerate simplex image")
    normal = linalg.orthogonal_complement(tangent)
    frame = tangent + normal
    if linalg.det_sign(frame) < 0:
        normal[0] = [-x for x in normal[0]]
    return normal


def _unique_solution(T, degenerate):
    """The solution of the square integer system T = [A | b], eliminated in place.

    Returns (numerators, D, sign) with D > 0, x_i = numerators[i] / D and
    det A = sign * D; None if there is no solution, NotGeneric if there are
    many.
    """
    n = len(T[0]) - 1
    pivots, D, sign = linalg.gauss_jordan(T)
    if n in pivots:
        return None
    if len(pivots) < n:
        raise NotGeneric(degenerate)
    if D < 0:
        return [-T[i][n] for i in range(n)], -D, -sign
    return [T[i][n] for i in range(n)], D, sign


def tuple_r_fold_point(f: PLMap, simplices, r):
    """The strictly interior common image point of one disjoint r-tuple.

    Solves the square system equating the r affine images with barycentric
    unknowns, on the map's integer images, by one integer elimination; the
    sign of the point is the sign of the system's determinant.  Returns an
    RFoldPoint, or None if the images miss each other.  Raises NotGeneric
    on under-determined systems or boundary solutions.
    """
    d = f.ambient_dim
    ints = f.integer_images
    A, b, offsets = convexity.common_point_system([[ints[v] for v in s] for s in simplices])
    sol = _unique_solution([row + [bi] for row, bi in zip(A, b)],
                           "under-determined intersection system")
    if sol is None:
        return None  # inconsistent: the image planes do not meet
    nums, D, sgn = sol
    if 0 in nums:
        raise NotGeneric("intersection on a simplex boundary")
    if any(v < 0 for v in nums):
        return None
    x = [Fraction(v, D) for v in nums]
    bary = tuple(tuple(x[offsets[i]:offsets[i + 1]]) for i in range(r))
    pts = f.image_points(simplices[0])
    ambient = tuple(sum(c * p[a] for c, p in zip(bary[0], pts)) for a in range(d))
    return RFoldPoint(tuple(simplices), bary, ambient, sgn)


def _top_tuples(f: PLMap, r: int) -> list:
    """The disjoint r-tuples of top simplices, once the dimensions fit."""
    m = f.domain.dim
    split_dimensions(m, f.ambient_dim, r)
    return disjoint_tuples(f.domain.simplices_of_dim(m), r)


def global_r_fold_points(f: PLMap, r: int) -> list:
    """All r-fold points among pairwise disjoint top simplices."""
    points = (tuple_r_fold_point(f, combo, r) for combo in _top_tuples(f, r))
    return [pt for pt in points if pt is not None]


def intersection_cocycle(f: PLMap, r: int) -> dict:
    """Signed r-fold point count per disjoint top-simplex tuple."""
    table = {}
    for combo in _top_tuples(f, r):
        pt = tuple_r_fold_point(f, combo, r)
        table[combo] = 0 if pt is None else pt.sign
    return table


def orientation_pairing_sign(k, r) -> int:
    """Constant sign relating the diagonal-crossing determinant of the coned
    extension to the stacked-normal-frame convention; depends only on (k, r)."""
    return -1 if (k * (r - 1) * (r * (r - 1) // 2)) % 2 else 1


def default_apexes(f: PLMap, simplices, r, seed=0):
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
        for _ in range(r)
    ]


def coned_extension_oracle(f: PLMap, simplices, r, apexes=None, seed=0) -> int:
    """Signed diagonal crossings of a generic coned extension over the tuple.

    The product of the r simplices is parametrized by the free barycentric
    coordinates u in R^{rm}; the r-fold product map is affine there.  Coning
    from the barycenter to the apex tuple makes the extension affine on each
    cone-over-facet piece, and each piece contributes the sign of the
    determinant pairing its differential with the diagonal directions.
    """
    d = f.ambient_dim
    m = len(simplices[0]) - 1
    k = split_dimensions(m, d, r)
    if apexes is None:
        apexes = default_apexes(f, simplices, r, seed)
    apex = [Fraction(x) for p in apexes for x in p]  # point of (R^d)^r
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
        T = linalg.integer_rows([row + [bi] for row, bi in zip(A, b)])[0]
        sol = _unique_solution(T, "coned extension meets the diagonal non-transversally")
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
    and degenerate dimension counts are handled uniformly.
    """
    if r < 2:
        raise InvalidMultiplicity("an almost r-embedding needs r >= 2, got %d" % r)
    simplices = sorted(f.domain.simplices, key=lambda s: (len(s), s))
    for combo in disjoint_tuples(simplices, r):
        groups = [f.image_points(s) for s in combo]
        if convexity.hulls_intersect(groups) is not None:
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
    the s-skeleton.
    """
    N = f.domain.num_vertices - 1
    if not f.domain.is_full_simplex():
        raise InputError("constraint lift needs the full simplex as domain")
    if not 0 <= s < N:
        raise InputError("need 0 <= s < N")
    faces = sorted(f.domain.simplices, key=lambda t: (len(t), t))
    index = {t: i for i, t in enumerate(faces)}
    # flags (chains of faces) are the simplices of the subdivision
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
    subdiv = Complex.from_maximal(len(faces), maximal)
    images = []
    for t in faces:
        bary = tuple(
            sum(f.images[v][a] for v in t) / len(t) for a in range(f.ambient_dim)
        )
        height = Fraction(max(0, len(t) - 1 - s))
        images.append(bary + (height,))
    return ConstraintLift(PLMap(subdiv, f.ambient_dim + 1, tuple(images)), faces)


def perturbed(f: PLMap, seed: int) -> PLMap:
    """Deterministic tiny rational perturbation of the vertex images.

    Magnitude 2^-40 times the configuration diameter, driven by the seed;
    used to escape NotGeneric configurations reproducibly.
    """
    rng = random.Random(seed)
    coords = [x for p in f.images for x in p]
    spread = max(coords) - min(coords)
    if spread == 0:
        spread = Fraction(1)
    eps = spread / 2**40
    images = tuple(
        tuple(x + eps * Fraction(rng.randint(-2**20, 2**20), 2**20) for x in p)
        for p in f.images
    )
    return PLMap(f.domain, f.ambient_dim, images)
