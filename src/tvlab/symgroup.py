"""Symmetric group machinery and the matrix-sphere model.

Permutations are tuples over 0..r-1 (position i maps to omega[i]).  The
Sylow subgroup construction follows the truncated p-adic tree on leaf
blocks: for every complete block of size p^t the generator cyclically
shifts the block by p^{t-1}; incomplete blocks are left in their linear
order.  That yields exactly sum_k floor(r/p^k) generators and a group of
order p^{alpha_p}.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .errors import DiagonalInput, InputError, NoSplit, NotPrime


def identity_perm(r):
    return tuple(range(r))


def compose(a, b):
    """(a ∘ b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        out[ai] = i
    return tuple(out)


def sign(omega) -> int:
    """Parity of the inversion count of a sequence of distinct integers;
    for a permutation, its sign."""
    inv = 0
    for i, a in enumerate(omega):
        for b in omega[i + 1:]:
            inv += a > b
    return -1 if inv % 2 else 1


# Miller-Rabin on the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster 2016).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(p) -> bool:
    """Deterministic Miller-Rabin; raises InputError at or above the bound
    where the fixed bases are proven exact."""
    if p < 2:
        return False
    if p >= MILLER_RABIN_BOUND:
        raise InputError("primality is decided only below %d, got %d" % (MILLER_RABIN_BOUND, p))
    if p in PRIME_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def p_order_in_factorial(r, p) -> int:
    """Exponent of the prime p in r! (Legendre's formula)."""
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    total = 0
    q = p
    while q <= r:
        total += r // q
        q *= p
    return total


@dataclass
class PermGroup:
    """Subgroup of the symmetric group on 0..degree-1, given by generators."""

    degree: int
    generators: list
    _elements: frozenset = field(default=None, repr=False, compare=False)

    def elements(self) -> frozenset:
        if self._elements is None:
            ident = identity_perm(self.degree)
            seen = {ident}
            queue = deque([ident])
            while queue:
                g = queue.popleft()
                for h in self.generators:
                    gh = compose(h, g)
                    if gh not in seen:
                        seen.add(gh)
                        queue.append(gh)
            object.__setattr__(self, "_elements", frozenset(seen))
        return self._elements

    def order(self) -> int:
        return len(self.elements())

    def orbits(self) -> list:
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen:
                continue
            orbit = {start}
            queue = deque([start])
            while queue:
                v = queue.popleft()
                for g in self.generators:
                    w = g[v]
                    if w not in orbit:
                        orbit.add(w)
                        queue.append(w)
            out.append(tuple(sorted(orbit)))
            seen |= orbit
        return out


def symmetric_group(r) -> PermGroup:
    gens = [tuple(range(1, r)) + (0,)] if r > 1 else []
    if r > 2:
        t = list(range(r))
        t[0], t[1] = t[1], t[0]
        gens.append(tuple(t))
    return PermGroup(r, gens)


def trivial_group(r) -> PermGroup:
    return PermGroup(r, [])


def sylow_tree_subgroup(r, p) -> PermGroup:
    """A Sylow p-subgroup of the symmetric group on 0..r-1.

    Leaves 0..r-1 sit at the bottom of a truncated p-ary tree; each complete
    depth-t block [b*p^t, (b+1)*p^t) contributes the generator shifting the
    block cyclically by p^{t-1}.  The generator count is Legendre's sum, and
    the generated group has order p^{alpha_p}.
    """
    if r < 1:
        raise InputError("need r >= 1 for the symmetric group on 0..r-1, got %d" % r)
    if not is_prime(p):
        raise NotPrime("%d is not prime" % p)
    if p > r:
        return trivial_group(r)
    gens = []
    size = p
    while size <= r:
        step = size // p
        for start in range(0, r - size + 1, size):
            g = list(range(r))
            for i in range(size):
                g[start + i] = start + (i + step) % size
            gens.append(tuple(g))
        size *= p
    return PermGroup(r, gens)


def is_transitive(G: PermGroup) -> bool:
    return len(G.orbits()) == 1


def invariant_block_split(G: PermGroup):
    """A split (k, r-k) into invariant index sets, from the orbit of 0."""
    orbits = G.orbits()
    if len(orbits) == 1:
        raise NoSplit("group is transitive; no invariant split exists")
    k = len(orbits[0])
    return (k, G.degree - k)


@dataclass(frozen=True)
class MatrixSpherePoint:
    """Nonzero d x r rational matrix with zero row sums, up to positive scale."""

    matrix: tuple  # tuple of row tuples of Fractions

    def __post_init__(self):
        if all(all(x == 0 for x in row) for row in self.matrix):
            raise DiagonalInput("zero matrix is not a sphere point")
        for row in self.matrix:
            if sum(row) != 0:
                raise DiagonalInput("row sums must vanish")

    def permuted(self, omega) -> "MatrixSpherePoint":
        return MatrixSpherePoint(
            tuple(tuple(row[i] for i in inverse(omega)) for row in self.matrix)
        )


def invariant_matrix_point(k, r, d) -> MatrixSpherePoint:
    """The d x r matrix with each row (k-r)...(k-r), k...k, fixed by any
    permutation preserving the split {0..k-1} | {k..r-1}."""
    row = tuple([Fraction(k - r)] * k + [Fraction(k)] * (r - k))
    return MatrixSpherePoint(tuple(row for _ in range(d)))


def pi_projection(points) -> MatrixSpherePoint:
    """Columns are the input points minus their mean (unnormalized)."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    r = len(pts)
    d = len(pts[0])
    mean = [sum(p[a] for p in pts) / r for a in range(d)]
    if all(p == pts[0] for p in pts):
        raise DiagonalInput("all points equal; projection undefined")
    return MatrixSpherePoint(
        tuple(tuple(p[a] - mean[a] for p in pts) for a in range(d))
    )


def all_permutations(r):
    return [tuple(p) for p in permutations(range(r))]
