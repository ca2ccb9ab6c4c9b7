"""Equivariant cochains on deleted products and the null-cohomology decision.

A cochain of degree q stores one integer per group orbit of q-cells of the
deleted product and extends to all cells by the twisted equivariance rule

    c(omega . e) = sgn(omega)^twist * kappa(omega, e) * c(e),

where kappa is the Koszul sign of permuting the graded factors and twist is
the parity of the ambient dimension of the underlying intersection problem
(twist = k*r when the domain dimension is k(r-1)).  For top-dimensional
cells this composite sign reduces to sgn(omega)^k.

A cell is located in its orbit by definition (locate): the representative
is the orbit's least cell, carried to the cell by one group element, as the
action is free.  The factors are distinct simplices, so over the full
symmetric group that is the sorted cell and the sorting permutation; over a
subgroup (restriction and transfer) the least image.  No table is kept
(orbit_reps): the Sigma_r representatives are the sorted tuples e of the
base (deleted_product.disjoint_tuples), and tau . e sorts as tau^-1, so the
least cell of the G-orbit (G tau) . e is f^-1 . e, f least in tau^-1 G.

The coboundary needs no locate: a top rep's facets are read off by sorted
insertion.  Dropping a vertex of factor i leaves a factor t that the
facet's rep carries to position bisect_left(others, t) among the other,
still sorted factors, and chi of that one move is a closed-form sign
(coboundary_matrix).

The obstruction decision solves delta c = v over the integers on the top
two degrees: the coboundary, built one top-orbit row at a time, goes to the
unit-pivot solve of tvlab.homology (a dense Smith normal form only on the
block left after the +-1 pivots), which returns either a certificate
cochain, re-verified here against the coboundary, or a Smith-normal-form
infeasibility witness, re-verified through the combination of top-orbit
equations behind it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, permutations
from math import factorial, prod

from .complexes import check_cap, check_digits
from .deleted_product import DeletedProductComplex, act_on_cell, cell_dim, disjoint_tuples
from .errors import InputError, SearchInvariantViolated
from .homology import IntMatrix, solve_integer_system
from .symgroup import (PermGroup, compose, identity_perm, inverse, is_prime,
                       p_order_in_factorial, sign, symmetric_group)


def chi(omega, cell, twist) -> int:
    """Twisted action sign: sgn(omega)^twist times the Koszul cell sign."""
    _, kappa = act_on_cell(omega, cell)
    s = sign(omega) if twist % 2 else 1
    return s * kappa


def locate(group: PermGroup, cell) -> tuple:
    """(rep, omega) with omega . rep = cell, rep the least cell of the orbit:
    over the full symmetric group the sorted cell, omega sending each factor
    back to its slot; over a subgroup the least image g . cell, omega = g^-1."""
    if group.order() == factorial(group.degree):
        rep = tuple(sorted(cell))
        return rep, tuple(map(cell.index, rep))
    rep, g = min((act_on_cell(g, cell)[0], g) for g in group.elements())
    return rep, inverse(g)


def orbit_reps(dp: DeletedProductComplex, group: PermGroup, degree: int) -> list:
    """Least cell per group orbit of degree-cells, in sorted order: f^-1 . e
    for each sorted tuple e and left coset fG; over Sigma_r, the tuples."""
    if group.degree != dp.r:
        raise InputError("group degree %d, but r = %d factors" % (group.degree, dp.r))
    reps = disjoint_tuples(dp.base.simplices, dp.r, degree)
    cosets = coset_representatives(group)
    if len(cosets) > 1:
        reps = sorted(tuple(map(e.__getitem__, f)) for e in reps for f in cosets)
    return reps


@dataclass
class EquivariantCochain:
    """Integer cochain determined by its values on orbit representatives."""

    dp: DeletedProductComplex
    group: PermGroup
    degree: int
    twist: int
    values: dict  # orbit representative cell -> integer; an orbit not listed reads 0

    def __post_init__(self):
        if self.group.degree != self.dp.r:
            raise InputError("group degree %d, but r = %d factors" % (self.group.degree, self.dp.r))

    def locate(self, cell):
        """(representative, omega) with omega . representative = cell."""
        if not self.dp.has_cell(cell) or cell_dim(cell) != self.degree:
            raise InputError("not a %d-cell of this deleted product: %r" % (self.degree, cell))
        return locate(self.group, cell)

    def value(self, cell) -> int:
        rep, omega = self.locate(cell)
        return chi(omega, rep, self.twist) * self.values.get(rep, 0)


def _default_twist(dp: DeletedProductComplex) -> int:
    return dp.base.dim * dp.r // (dp.r - 1)


def cocycle_from_table(dp: DeletedProductComplex, table: dict) -> EquivariantCochain:
    """Top-degree equivariant cochain from an intersection table.

    Table keys are tuples of pairwise disjoint top simplices; the canonical
    (sorted) key is the orbit representative.  Only the orbits the table
    names get a value, in the table's order; the others read 0.  Keys that
    repeat an orbit must agree with the twisted-equivariance extension, and
    a key that is not a top cell raises InputError.
    """
    twist = _default_twist(dp)
    out = EquivariantCochain(dp, symmetric_group(dp.r), dp.dim, twist, {})
    for key, val in table.items():
        rep, omega = out.locate(tuple(key))
        # val = chi(omega, rep) * c(rep), and chi is its own inverse
        rep_val = chi(omega, rep, twist) * val
        if out.values.setdefault(rep, rep_val) != rep_val:
            raise InputError("table conflicts with the twisted action")
    return out


def coboundary_matrix(dp: DeletedProductComplex, twist=None):
    """Matrix of delta from degree top-1 orbit cochains to top orbit cochains.

    Returns (IntMatrix, top_reps, facet_reps); entry (i, j) is the signed
    multiplicity of facet orbit j in the boundary of top representative i,
    with all twisted-equivariance signs folded in; each row is built alone,
    as the nonzero (j, entry) pairs of its facet terms, j ascending.

    A row is written down, not located facet by facet.  Dropping vertex j of
    factor i of the sorted rep e leaves the factor t among others = e less
    e[i], still sorted; the facet's orbit rep inserts t at
    k = bisect_left(others, t), moving it past |i - k| factors.  The entry is
    the boundary sign (-1)^(s_i + j), s_i the dimensions of e[:i] summed,
    times chi of that move: sgn^twist (-1)^|i - k| and the Koszul sign
    (-1)^(dim t * d), d the dimensions of the passed factors summed.  Facets
    that drop different vertices use different vertex sets, so each facet
    orbit meets a row once and every entry is +-1.
    """
    if twist is None:
        twist = _default_twist(dp)
    group = symmetric_group(dp.r)
    top = dp.dim
    top_reps = orbit_reps(dp, group, top)
    facet_reps = orbit_reps(dp, group, top - 1)
    col = {rep: j for j, rep in enumerate(facet_reps)}
    rows = []
    for e in top_reps:
        dims = [len(s) - 1 for s in e]
        below = [0, *accumulate(dims)]  # below[i] = s_i
        row = []
        for i, s in enumerate(e):
            if not dims[i]:
                continue
            others = e[:i] + e[i + 1:]
            odd_t = (dims[i] - 1) & 1
            for j in range(len(s)):
                t = s[:j] + s[j + 1:]
                k = bisect_left(others, t)
                passed = below[k + 1] - below[i + 1] if k >= i else below[i] - below[k]
                parity = below[i] + j + twist * (k - i) + odd_t * passed
                row.append((col[others[:k] + (t,) + others[k:]], -1 if parity & 1 else 1))
        row.sort()
        rows.append(row)
    return IntMatrix(len(top_reps), len(facet_reps), rows), top_reps, facet_reps


@dataclass
class NullCohomologyResult:
    """Outcome of the delta c = v decision with a checkable certificate."""

    trivial: bool
    certificate: EquivariantCochain  # when trivial: c with delta c = v
    infeasibility: dict              # when nontrivial: SNF witness


def is_null_cohomologous(v: EquivariantCochain) -> NullCohomologyResult:
    """Decide integer solvability of delta c = v on the top two degrees of v.dp.

    The coboundary is that of the full symmetric group, so v must be over it.
    """
    dp = v.dp
    if v.degree != dp.dim:
        raise InputError("cochain degree %d is not the top dimension %d" % (v.degree, dp.dim))
    if v.group.order() != factorial(dp.r):  # its degree is dp.r (EquivariantCochain)
        raise InputError("the decision is over the full symmetric group on %d letters; "
                         "got a group of order %d" % (dp.r, v.group.order()))
    A, top_reps, facet_reps = coboundary_matrix(dp, v.twist)
    b = [v.values.get(rep, 0) for rep in top_reps]
    x, witness = solve_integer_system(A, b)
    if x is None:
        return NullCohomologyResult(False, None, witness)
    cert = EquivariantCochain(dp, v.group, v.degree - 1, v.twist,
                              {rep: xi for rep, xi in zip(facet_reps, x)})
    # re-verify the certificate against the coboundary matrix
    check = A.mat_vec([cert.values.get(rep, 0) for rep in facet_reps])
    if check != b:
        raise SearchInvariantViolated("certificate failed re-verification")
    return NullCohomologyResult(True, cert, None)


def restrict_to_subgroup(c: EquivariantCochain, G: PermGroup) -> EquivariantCochain:
    """Same cochain, re-indexed over the finer orbits of a subgroup."""
    values = {rep: c.value(rep) for rep in orbit_reps(c.dp, G, c.degree)}
    return EquivariantCochain(c.dp, G, c.degree, c.twist, values)


def coset_representatives(G: PermGroup) -> list:
    """The least element g of each left coset gG in Sigma_r, r = G.degree, in
    increasing order: g <= g h for all h in G.  CapExceeded first when r! > cap."""
    if symmetric_group(G.degree).order() == G.order():
        return [identity_perm(G.degree)]
    members = G.elements()
    return [g for g in permutations(range(G.degree)) if all(g <= compose(g, h) for h in members)]


def transfer(x: EquivariantCochain) -> EquivariantCochain:
    """Sum of x over coset translates, landing in a fully equivariant cochain.

    For left coset representatives f_1..f_s of x's group,
    t(x)(e) = sum_i chi(f_i, f_i^{-1} e) * x(f_i^{-1} e); composing with
    restriction multiplies by the index s.  With f_i least in its coset,
    f_i^{-1} e is a representative of x (orbit_reps), read as it is.
    """
    cosets = coset_representatives(x.group)
    full = symmetric_group(x.dp.r)
    values = {}
    for cell in orbit_reps(x.dp, full, x.degree):
        pres = [(f, tuple(map(cell.__getitem__, f))) for f in cosets]  # f^-1 . cell
        values[cell] = sum(chi(f, pre, x.twist) * x.values.get(pre, 0) for f, pre in pres)
    return EquivariantCochain(x.dp, full, x.degree, x.twist, values)


@dataclass
class OzaydinReport:
    """Per-prime Sylow analysis and the no-common-multiple arithmetic."""

    r: int
    rows: list          # per prime: dict with p, alpha, order, transitive, split, invariant_point
    relation_gcd: int   # gcd of r!/p^alpha_p over non-transitive primes (0 if none)
    is_prime_power: bool
    argument_applies: bool


def ozaydin_report(r: int) -> OzaydinReport:
    """Sylow-subgroup table and the gcd test behind the r-fold vanishing
    argument, read off r's base-p expansions.

    With p^K the largest power of p at most r, the tree Sylow p-subgroup's
    orbit of 0 is [0, p^K): it is transitive exactly when p^K = r, and
    otherwise fixes the split (p^K, r - p^K) and its matrix point.  The gcd
    of the indices r!/p^alpha_p over non-transitive p is the product of
    q^alpha_q over transitive q (0 if all are): 1 unless r is a prime power.
    Raises CapExceeded, before any row is built, when r exceeds the cell cap
    or a Sylow order p^alpha_p (the gcd is 0, 1 or one of them) has more
    decimal digits than int-to-str conversion allows.
    """
    if r < 2:
        raise InputError("need r >= 2, got %d" % r)
    check_cap(r, "r, up to which the report lists the primes")
    expansions = []  # (p, alpha_p, p^alpha_p, p^K)
    for p in range(2, r + 1):
        if not is_prime(p):
            continue
        alpha = p_order_in_factorial(r, p)
        order = p**alpha
        check_digits(order, "the Sylow order %d^%d" % (p, alpha))
        top = p
        while top * p <= r:
            top *= p
        expansions.append((p, alpha, order, top))
    rows = [{
        "p": p,
        "alpha": alpha,
        "sylow_order": order,
        "transitive": top == r,
        "split": None if top == r else (top, r - top),
        "invariant_point_exists": top != r,
    } for p, alpha, order, top in expansions]
    transitive_orders = [order for p, alpha, order, top in expansions if top == r]
    relation_gcd = prod(transitive_orders) if len(transitive_orders) < len(expansions) else 0
    return OzaydinReport(r, rows, relation_gcd, bool(transitive_orders), relation_gcd == 1)
