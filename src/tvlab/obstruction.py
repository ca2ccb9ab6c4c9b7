"""Equivariant cochains on deleted products and the null-cohomology decision.

A cochain of degree q stores one integer per group orbit of q-cells of the
deleted product and extends to all cells by the twisted equivariance rule

    c(omega . e) = sgn(omega)^twist * kappa(omega, e) * c(e),

where kappa is the Koszul sign of permuting the graded factors and twist is
the parity of the ambient dimension of the underlying intersection problem
(twist = k*r when the domain dimension is k(r-1)).  For top-dimensional
cells this composite sign reduces to sgn(omega)^k.

Orbits come from one table per (group, degree): orbit_table maps every cell
to its orbit's least cell and the unique group element carrying that cell to
it.  The same table serves the symmetric group and its Sylow subgroups, for
locating cells, coboundary assembly, restriction and transfer.

The obstruction decision solves delta c = v over the integers on the top
two degrees: the sparse coboundary goes to the unit-pivot solve of
tvlab.homology (a dense Smith normal form only on the block left after the
+-1 pivots), which returns either a certificate cochain, re-verified here
against the coboundary, or a Smith-normal-form infeasibility witness,
re-verified through the combination of top-orbit equations behind it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd

from .deleted_product import DeletedProductComplex, act_on_cell
from .errors import DegreeError, InputError, InvalidMultiplicity, NotEquivariant, UnknownCell
from .homology import IntMatrix, solve_integer_system
from .symgroup import (PermGroup, compose, inverse, invariant_block_split,
                       invariant_matrix_point, is_prime, is_transitive,
                       p_order_in_factorial, sign, sylow_tree_subgroup,
                       symmetric_group)


def chi(omega, cell, twist) -> int:
    """Twisted action sign: sgn(omega)^twist times the Koszul cell sign."""
    _, kappa = act_on_cell(omega, cell)
    s = sign(omega) if twist % 2 else 1
    return s * kappa


def orbit_table(dp: DeletedProductComplex, group: PermGroup, degree: int) -> dict:
    """{cell: (rep, omega)} over the degree-cells, with omega . rep = cell.

    Cells are visited in sorted order, so the first cell met in an orbit is
    its least cell, rep.  The action is free, so omega is unique.
    """
    elements = group.elements()
    table = {}
    for cell in dp.cells_by_dim.get(degree, ()):
        if cell not in table:
            for omega in elements:
                table[act_on_cell(omega, cell)[0]] = (cell, omega)
    return table


def _reps(table: dict) -> list:
    """The orbit representatives of an orbit table, in sorted order."""
    return [cell for cell, (rep, _) in table.items() if cell == rep]


def orbit_reps(dp: DeletedProductComplex, group: PermGroup, degree: int) -> list:
    """Lexicographically minimal representative per group orbit of cells."""
    return _reps(orbit_table(dp, group, degree))


@dataclass
class EquivariantCochain:
    """Integer cochain determined by its values on orbit representatives."""

    dp: DeletedProductComplex
    group: PermGroup
    degree: int
    twist: int
    values: dict  # orbit representative cell -> integer
    _orbits: dict = field(default=None, repr=False, compare=False)

    def orbits(self) -> dict:
        """The orbit table of the group on the degree-cells, built once."""
        if self._orbits is None:
            self._orbits = orbit_table(self.dp, self.group, self.degree)
        return self._orbits

    def locate(self, cell):
        """(representative, omega) with omega . representative = cell."""
        table = self.orbits()
        try:
            return table[cell]
        except KeyError:
            raise UnknownCell("not a %d-cell of this deleted product: %r"
                              % (self.degree, cell)) from None

    def value(self, cell) -> int:
        rep, omega = self.locate(cell)
        return chi(omega, rep, self.twist) * self.values.get(rep, 0)

    def is_zero(self) -> bool:
        return not any(self.values.values())


def _default_twist(dp: DeletedProductComplex) -> int:
    return dp.base.dim * dp.r // (dp.r - 1)


def cocycle_from_table(dp: DeletedProductComplex, table: dict, twist=None) -> EquivariantCochain:
    """Top-degree equivariant cochain from an intersection table.

    Table keys are tuples of pairwise disjoint top simplices; the canonical
    (sorted) key is the orbit representative.  Keys that repeat an orbit
    must agree with the twisted-equivariance extension, and a key that is
    not a top cell raises UnknownCell.
    """
    if twist is None:
        twist = _default_twist(dp)
    out = EquivariantCochain(dp, symmetric_group(dp.r), dp.dim, twist, {})
    assigned = {}
    for key, val in table.items():
        rep, omega = out.locate(tuple(key))
        # val = chi(omega, rep) * c(rep), and chi is its own inverse
        rep_val = chi(omega, rep, twist) * val
        if rep in assigned and assigned[rep] != rep_val:
            raise NotEquivariant("table conflicts with the twisted action")
        assigned[rep] = rep_val
    out.values = {rep: assigned.get(rep, 0) for rep in _reps(out.orbits())}
    return out


def coboundary_matrix(dp: DeletedProductComplex, twist=None):
    """Matrix of delta from degree top-1 orbit cochains to top orbit cochains.

    Returns (IntMatrix, top_reps, facet_reps); entry (i, j) is the signed
    multiplicity of facet orbit j in the boundary of top representative i,
    with all twisted-equivariance signs folded in.  The nonzero entries are
    kept in row-major order, in which the elimination breaks pivot ties.
    """
    if twist is None:
        twist = _default_twist(dp)
    group = symmetric_group(dp.r)
    top = dp.dim
    top_reps = orbit_reps(dp, group, top)
    facets = orbit_table(dp, group, top - 1) if top >= 1 else {}
    facet_reps = _reps(facets)
    col = {rep: j for j, rep in enumerate(facet_reps)}
    entries = {}
    for i, cell in enumerate(top_reps):
        for facet, eps in dp.cell_boundary(cell):
            rep, omega = facets[facet]
            key = (i, col[rep])
            entries[key] = entries.get(key, 0) + eps * chi(omega, rep, twist)
    entries = {key: v for key, v in sorted(entries.items()) if v}
    return IntMatrix(len(top_reps), len(facet_reps), entries), top_reps, facet_reps


@dataclass
class NullCohomologyResult:
    """Outcome of the delta c = v decision with a checkable certificate."""

    trivial: bool
    certificate: EquivariantCochain  # when trivial: c with delta c = v
    infeasibility: dict              # when nontrivial: SNF witness


def is_null_cohomologous(v: EquivariantCochain, dp: DeletedProductComplex) -> NullCohomologyResult:
    """Decide integer solvability of delta c = v on the top two degrees.

    The coboundary is that of the full symmetric group, so v must be over it.
    """
    if v.degree != dp.dim:
        raise DegreeError("cochain degree %d is not the top dimension %d"
                          % (v.degree, dp.dim))
    if (v.group.degree, v.group.order()) != (dp.r, factorial(dp.r)):
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
        raise NotEquivariant("certificate failed re-verification")
    return NullCohomologyResult(True, cert, None)


def restrict_to_subgroup(c: EquivariantCochain, G: PermGroup) -> EquivariantCochain:
    """Same cochain, re-indexed over the finer orbits of a subgroup."""
    table = orbit_table(c.dp, G, c.degree)
    values = {rep: c.value(rep) for rep in _reps(table)}
    return EquivariantCochain(c.dp, G, c.degree, c.twist, values, table)


def coset_representatives(G: PermGroup, r: int) -> list:
    """Lexicographically minimal representative of each left coset gG."""
    members = G.elements()
    seen = set()
    reps = []
    for g in sorted(symmetric_group(r).elements()):
        if g in seen:
            continue
        reps.append(g)
        for h in members:
            seen.add(compose(g, h))
    return reps


def transfer(x: EquivariantCochain, r: int) -> EquivariantCochain:
    """Sum of x over coset translates, landing in a fully equivariant cochain.

    For left coset representatives f_1..f_s of x's group,
    t(x)(e) = sum_i chi(f_i, f_i^{-1} e) * x(f_i^{-1} e); composing with
    restriction multiplies by the index s.
    """
    cosets = coset_representatives(x.group, r)
    full = symmetric_group(r)
    table = orbit_table(x.dp, full, x.degree)
    values = {}
    for cell in _reps(table):
        total = 0
        for f in cosets:
            pre, _ = act_on_cell(inverse(f), cell)
            total += chi(f, pre, x.twist) * x.value(pre)
        values[cell] = total
    return EquivariantCochain(x.dp, full, x.degree, x.twist, values, table)


@dataclass
class OzaydinReport:
    """Per-prime Sylow analysis and the no-common-multiple arithmetic."""

    r: int
    rows: list          # per prime: dict with p, alpha, order, transitive, split, invariant_point
    relation_gcd: int   # gcd of r!/p^alpha_p over non-transitive primes (0 if none)
    is_prime_power: bool
    argument_applies: bool


def _is_prime_power(r) -> bool:
    for p in range(2, r + 1):
        if is_prime(p):
            q = p
            while q < r:
                q *= p
            if q == r:
                return True
    return False


def ozaydin_report(r: int) -> OzaydinReport:
    """Sylow-subgroup table and the gcd test behind the r-fold vanishing
    argument: the argument applies exactly when the indices r!/p^{alpha_p}
    over non-transitive primes have gcd 1, i.e. when r is not a prime power."""
    if r < 2:
        raise InvalidMultiplicity("need r >= 2, got %d" % r)
    rows = []
    indices = []
    for p in range(2, r + 1):
        if not is_prime(p):
            continue
        alpha = p_order_in_factorial(r, p)
        G = sylow_tree_subgroup(r, p)
        transitive = is_transitive(G)
        if transitive:
            split = None
            inv_point = None
        else:
            split = invariant_block_split(G)
            inv_point = invariant_matrix_point(split[0], r, 1)
            indices.append(factorial(r) // p**alpha)
        rows.append({
            "p": p,
            "alpha": alpha,
            "sylow_order": p**alpha,
            "transitive": transitive,
            "split": split,
            "invariant_point_exists": inv_point is not None,
        })
    relation_gcd = 0
    for idx in indices:
        relation_gcd = gcd(relation_gcd, idx)
    pp = _is_prime_power(r)
    return OzaydinReport(r, rows, relation_gcd, pp, relation_gcd == 1)
