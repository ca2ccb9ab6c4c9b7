"""Tests for equivariant cochains, the null-cohomology decision, transfer,
and the prime-power arithmetic report."""

import random
from functools import lru_cache

import pytest

from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab.convexity import random_rational_points
from tvlab.deleted_product import act_on_cell, deleted_product
from tvlab.errors import DegreeError, NotEquivariant, TvlabError, UnknownCell
from tvlab.homology import smith_diagonal
from tvlab.obstruction import (EquivariantCochain, chi, cocycle_from_table,
                               coboundary_matrix, coset_representatives,
                               is_null_cohomologous, orbit_reps, orbit_table,
                               ozaydin_report, restrict_to_subgroup, transfer)
from tvlab.plmaps import PLMap, intersection_cocycle, perturbed
from tvlab.symgroup import (inverse, is_prime, sylow_tree_subgroup,
                            symmetric_group, trivial_group)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None

PENTAGON = [(0, 2), (2, 1), (1, -2), (-1, -2), (-2, 1)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def complete_graph_map(n, points):
    K = simplex_skeleton(n - 1, 1)
    return PLMap.build(K, 2, points)


def k5_setup(points=PENTAGON):
    f = complete_graph_map(5, points)
    dp = deleted_product(f.domain, 2)
    v = cocycle_from_table(dp, intersection_cocycle(f, 2))
    return f, dp, v


def test_orbit_counts_k5():
    _, dp, _ = k5_setup()
    assert len(orbit_reps(dp, symmetric_group(2), 2)) == 15
    assert len(orbit_reps(dp, symmetric_group(2), 1)) == 30


def test_orbit_counts_two_disjoint_edges():
    K = Complex.from_maximal(4, [[0, 1], [2, 3]])
    dp = deleted_product(K, 2)
    assert len(orbit_reps(dp, symmetric_group(2), 2)) == 1
    assert len(orbit_reps(dp, symmetric_group(2), 1)) == 4


def scan_orbit_reps(dp, group, degree):
    """Orbit representatives by marking every image of each new cell: the
    pass that orbit_reps made before the orbit table."""
    seen = set()
    reps = []
    for cell in dp.cells_by_dim.get(degree, ()):
        if cell in seen:
            continue
        reps.append(cell)
        for omega in group.elements():
            seen.add(act_on_cell(omega, cell)[0])
    return reps


def scan_locate(group, cell):
    """(rep, omega) with omega . rep = cell by scanning all |G| images of
    the cell for the least: the per-call search that the table replaced."""
    best = None
    for omega in group.elements():
        img, _ = act_on_cell(omega, cell)
        if best is None or img < best[0]:
            best = (img, omega)
    rep, omega_to_rep = best
    return rep, inverse(omega_to_rep)


COLORED333 = [(a, b, c) for a in range(3) for b in range(3, 6) for c in range(6, 9)]


def base_complex(name):
    """"deltaN", its 2-skeleton "deltaN/2", or "colored333"."""
    if name == "colored333":
        return Complex.from_maximal(9, COLORED333)
    N = int(name[len("delta"):].split("/")[0])
    return simplex_skeleton(N, 2) if name.endswith("/2") else full_simplex(N)


GROUPS_UP_TO_5 = [(r, p) for r in range(2, 6)
                  for p in [None] + [q for q in range(2, r + 1) if is_prime(q)]]


@pytest.mark.skipif(given is None, reason="needs hypothesis")
@pytest.mark.parametrize("r,p", GROUPS_UP_TO_5)
def test_orbit_table_matches_scan(r, p):
    """Sigma_r (p None) and every tree Sylow subgroup for r <= 5, on
    Delta_4..Delta_6, their 2-skeleta and the colored complex [3]*[3]*[3]
    (r <= 4: its r = 5 product has 941,760 cells)."""
    names = ["delta%d%s" % (N, sk) for N in (4, 5, 6) for sk in ("", "/2")]
    names += ["colored333"] if r <= 4 else []
    group = symmetric_group(r) if p is None else sylow_tree_subgroup(r, p)

    @lru_cache(maxsize=None)
    def product(name):
        return deleted_product(base_complex(name), r)

    @lru_cache(maxsize=None)
    def results(name, degree):
        """orbit_table, orbit_reps and the scanned representatives, once
        per drawn complex and degree."""
        dp = product(name)
        return (orbit_table(dp, group, degree), orbit_reps(dp, group, degree),
                scan_orbit_reps(dp, group, degree))

    @settings(max_examples=8)
    @given(st.sampled_from(names), st.integers(0, 20),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
    def check(name, degree, picks):
        dp = product(name)
        degree %= dp.dim + 1
        table, reps, scanned = results(name, degree)
        cells = dp.cells_by_dim[degree]
        assert sorted(table) == cells
        assert reps == scanned
        for k in picks:
            cell = cells[k % len(cells)]
            rep, omega = table[cell]
            assert (rep, omega) == scan_locate(group, cell)
            assert act_on_cell(omega, rep)[0] == cell

    check()


def test_cocycle_from_table_rejects_unknown_cells():
    _, dp, _ = k5_setup()
    for key in [((0, 1), (2,)), ((0, 1), (1, 2)), ((0, 1), (5, 6)), ((1, 0), (2, 3))]:
        with pytest.raises(UnknownCell):
            cocycle_from_table(dp, {key: 1})


def test_coboundary_matrix_shape():
    _, dp, _ = k5_setup()
    A, top_reps, facet_reps = coboundary_matrix(dp)
    assert (A.rows, A.cols) == (15, 30)


def dense_coboundary(dp, twist):
    """The coboundary as a list of rows, assembled entry by entry as
    coboundary_matrix did before it stored only nonzero entries."""
    group = symmetric_group(dp.r)
    facets = orbit_table(dp, group, dp.dim - 1)
    col = {rep: j for j, rep in enumerate(orbit_reps(dp, group, dp.dim - 1))}
    rows = []
    for cell in orbit_reps(dp, group, dp.dim):
        row = [0] * len(col)
        for facet, eps in dp.cell_boundary(cell):
            rep, omega = facets[facet]
            row[col[rep]] += eps * chi(omega, rep, twist)
        rows.append(row)
    return rows


@pytest.mark.parametrize("domain,d,r", [("k5", 2, 2), ("colored333", 3, 3), ("delta6/2", 4, 2)])
def test_sparse_coboundary_matches_dense_assembly(domain, d, r):
    K = simplex_skeleton(4, 1) if domain == "k5" else base_complex(domain)
    f = PLMap.build(K, d, random_rational_points(K.num_vertices, d, repr(("cob", domain))))
    dp = deleted_product(f.domain, r)
    twist = cocycle_from_table(dp, {}).twist
    A, top_reps, facet_reps = coboundary_matrix(dp, twist)
    rows = dense_coboundary(dp, twist)
    assert (A.rows, A.cols) == (len(rows), len(facet_reps)) == (len(top_reps), len(rows[0]))
    # the nonzeros in the order of the old dense-to-sparse scan: the
    # elimination breaks pivot ties in this order, so witnesses depend on it
    nonzeros = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    assert A.entries == nonzeros
    assert list(A.entries) == sorted(A.entries)


def test_cocycle_from_table_zero_and_consistency():
    _, dp, _ = k5_setup()
    zero = cocycle_from_table(dp, {})
    assert zero.is_zero()
    # a table repeating an orbit must match the twisted extension:
    # swapping the two edge factors flips the sign (Koszul sign -1)
    good = {((0, 1), (2, 3)): 5, ((2, 3), (0, 1)): -5}
    c = cocycle_from_table(dp, good)
    assert c.values[((0, 1), (2, 3))] == 5
    with pytest.raises(NotEquivariant):
        cocycle_from_table(dp, {((0, 1), (2, 3)): 5, ((2, 3), (0, 1)): 5})


def test_cochain_extension_signs():
    _, dp, v = k5_setup()
    for rep, val in list(v.values.items())[:5]:
        swapped = (rep[1], rep[0])
        assert v.value(swapped) == -val  # k = 1: swap acts by -1 on top cells


def test_k4_is_null_cohomologous_with_certificate():
    f = complete_graph_map(4, SQUARE)
    dp = deleted_product(f.domain, 2)
    v = cocycle_from_table(dp, intersection_cocycle(f, 2))
    res = is_null_cohomologous(v, dp)
    assert res.trivial
    # re-verify the certificate by hand: delta c = v on every top rep
    A, top_reps, facet_reps = coboundary_matrix(dp)
    image = A.mat_vec([res.certificate.values[rep] for rep in facet_reps])
    assert image == [v.values[rep] for rep in top_reps]


def test_k5_is_not_null_cohomologous():
    _, dp, v = k5_setup()
    res = is_null_cohomologous(v, dp)
    assert not res.trivial
    assert res.infeasibility["kind"] in ("divisibility", "rank")


def test_k5_mod2_invariant():
    # every coboundary column has even support, so the parity of sum |v|
    # over disjoint pairs is an invariant; for K_5 it is 1
    _, dp, v = k5_setup()
    A, _, _ = coboundary_matrix(dp)
    column_sums = [0] * A.cols
    for (_, j), a in A.entries.items():
        column_sums[j] += a
    assert all(s % 2 == 0 for s in column_sums)
    assert sum(abs(x) for x in v.values.values()) % 2 == 1


def test_zero_cochain_trivial():
    _, dp, _ = k5_setup()
    zero = cocycle_from_table(dp, {})
    res = is_null_cohomologous(zero, dp)
    assert res.trivial and res.certificate.is_zero()


def test_degree_error():
    _, dp, v = k5_setup()
    bad = EquivariantCochain(dp, v.group, 1, v.twist, {})
    with pytest.raises(DegreeError):
        is_null_cohomologous(bad, dp)


def test_decision_refuses_a_cochain_over_a_subgroup():
    # the decision solves against the Sigma_3 coboundary; over P_2 its
    # "certificate" missed delta c = w on 4 of the 108 P_2-orbits
    K = Complex.from_maximal(9, COLORED333)
    f = PLMap.build(K, 3, random_rational_points(9, 3, repr(("g", 1))))
    dp = deleted_product(K, 3)
    v = cocycle_from_table(dp, intersection_cocycle(f, 3))
    assert is_null_cohomologous(v, dp).trivial
    for G in (sylow_tree_subgroup(3, 2), sylow_tree_subgroup(3, 3), trivial_group(3)):
        with pytest.raises(TvlabError):
            is_null_cohomologous(restrict_to_subgroup(v, G), dp)


def test_vertex_move_difference_is_null_cohomologous():
    # drawings of K_5 differing by moving one vertex generically differ by
    # a null-cohomologous cochain (finger moves at cochain level)
    _, dp, v1 = k5_setup()
    moved = [PENTAGON[0]] + [(3, 4)] + [tuple(p) for p in PENTAGON[2:]]
    _, _, v2 = k5_setup(moved)
    diff = EquivariantCochain(dp, v1.group, v1.degree, v1.twist,
                              {k: v1.values[k] - v2.values[k] for k in v1.values})
    res = is_null_cohomologous(diff, dp)
    assert res.trivial



def generic_skeleton_map(N, d, seed):
    K = simplex_skeleton(N, 2)
    return PLMap.build(K, d, random_rational_points(K.num_vertices, d, seed))


def test_delta8_r3_in_r3_trivial_with_certificate():
    # a 280 x 2520 system: out of reach of the dense Smith normal form
    f = generic_skeleton_map(8, 3, repr(("d8", 2)))
    dp = deleted_product(f.domain, 3)
    v = cocycle_from_table(dp, intersection_cocycle(f, 3))
    assert not v.is_zero()
    res = is_null_cohomologous(v, dp)
    assert res.trivial
    A, top_reps, facet_reps = coboundary_matrix(dp, v.twist)
    assert (A.rows, A.cols) == (280, 2520)
    image = A.mat_vec([res.certificate.values.get(rep, 0) for rep in facet_reps])
    assert image == [v.values.get(rep, 0) for rep in top_reps]


@pytest.mark.parametrize("N,units", [(6, 69), (7, 245)])
def test_van_kampen_flores_witness_pinned(N, units):
    f = generic_skeleton_map(N, 4, repr(("d%d" % N, 2)))
    dp = deleted_product(f.domain, 2)
    v = cocycle_from_table(dp, intersection_cocycle(f, 2))
    res = is_null_cohomologous(v, dp)
    assert not res.trivial
    witness = res.infeasibility
    assert (witness["kind"], witness["index"], witness["diagonal"]) == ("divisibility", units, 2)
    assert witness["coordinate"] % 2
    # the index counts the unit invariant factors of the coboundary, and the
    # diagonal is its one Z/2 factor
    A, _, _ = coboundary_matrix(dp, v.twist)
    diag = smith_diagonal(A.entries, A.rows, A.cols)
    assert diag.count(1) == units and [t for t in diag if t > 1] == [2]

def test_restriction_to_full_group_is_identity():
    _, dp, v = k5_setup()
    r = restrict_to_subgroup(v, symmetric_group(2))
    assert r.values == v.values


def test_restriction_to_trivial_group():
    _, dp, v = k5_setup()
    r = restrict_to_subgroup(v, trivial_group(2))
    assert len(r.values) == 30  # one value per oriented top cell
    for cell, val in r.values.items():
        assert val == v.value(cell)


def test_coset_representatives():
    for r in (2, 3, 4):
        for G in (trivial_group(r), sylow_tree_subgroup(r, 2), symmetric_group(r)):
            reps = coset_representatives(G, r)
            import math

            assert len(reps) * G.order() == math.factorial(r)
            # cosets are disjoint and cover
            from tvlab.symgroup import compose

            seen = set()
            for f in reps:
                for h in G.elements():
                    seen.add(compose(f, h))
            assert len(seen) == math.factorial(r)


def disjoint_simplices_complex(r, m):
    """r pairwise disjoint m-simplices; its r-fold deleted product has a
    single free top orbit."""
    verts = []
    for i in range(r):
        verts.append(list(range(i * (m + 1), (i + 1) * (m + 1))))
    return Complex.from_maximal(r * (m + 1), verts)


def test_transfer_restrict_is_index_times_identity():
    rng = random.Random(2024)
    cases = []
    for r in (2, 3, 4):
        K = disjoint_simplices_complex(r, 1)  # r disjoint edges
        dp = deleted_product(K, r)
        groups = [trivial_group(r)]
        for p in (2, 3):
            if p <= r:
                groups.append(sylow_tree_subgroup(r, p))
        cases.append((r, dp, groups))
    for r, dp, groups in cases:
        reps = orbit_reps(dp, symmetric_group(r), dp.dim)
        for G in groups:
            index = 1
            import math

            index = math.factorial(r) // G.order()
            for trial in range(10):
                values = {rep: rng.randint(-9, 9) for rep in reps}
                x = EquivariantCochain(dp, symmetric_group(r), dp.dim, r, values)
                back = transfer(restrict_to_subgroup(x, G), r)
                assert back.values == {k: index * v for k, v in values.items()}


def test_transfer_of_sigma_r_cochain_is_identity():
    _, dp, v = k5_setup()
    back = transfer(restrict_to_subgroup(v, symmetric_group(2)), 2)
    assert back.values == v.values


def test_ozaydin_r6():
    rep = ozaydin_report(6)
    assert rep.relation_gcd == 1 and rep.argument_applies
    assert not rep.is_prime_power
    assert [row["p"] for row in rep.rows] == [2, 3, 5]
    assert all(not row["transitive"] for row in rep.rows)
    splits = {row["p"]: row["split"] for row in rep.rows}
    assert splits == {2: (4, 2), 3: (3, 3), 5: (5, 1)}
    # gcd(6!/2^4, 6!/3^2, 6!/5) = gcd(45, 80, 144) = 1
    assert rep.relation_gcd == 1


def test_ozaydin_prime_powers():
    for r in (2, 3, 4, 5, 7, 8, 9):
        rep = ozaydin_report(r)
        assert rep.is_prime_power
        assert not rep.argument_applies
    assert ozaydin_report(4).relation_gcd == 8
    assert ozaydin_report(3).relation_gcd == 3


def test_relation_gcd_iff_not_prime_power():
    def is_pp(r):
        for p in range(2, r + 1):
            q = p
            while q < r:
                q *= p
            if q == r and all(p % f for f in range(2, p)):
                return True
        return False

    for r in range(2, 31):
        rep = ozaydin_report(r)
        assert (rep.relation_gcd == 1) == (not is_pp(r))
        assert rep.is_prime_power == is_pp(r)
