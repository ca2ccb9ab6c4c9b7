"""Tests for equivariant cochains, the null-cohomology decision, transfer,
and the prime-power arithmetic report."""

import random
from functools import lru_cache
from math import factorial, gcd

import pytest

from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab.convexity import random_rational_points
from tvlab.deleted_product import act_on_cell, cell_dim, deleted_product
from tvlab.errors import CapExceeded, InputError, TvlabError
from tvlab.homology import smith_diagonal
from tvlab.obstruction import (EquivariantCochain, chi, cocycle_from_table,
                               coboundary_matrix, coset_representatives,
                               is_null_cohomologous, locate, orbit_reps,
                               ozaydin_report, restrict_to_subgroup, transfer)
from tvlab.plmaps import PLMap, intersection_cocycle
from tvlab import obstruction as obstruction_module
from tvlab.symgroup import (compose, invariant_block_split, invariant_matrix_point, inverse,
                            is_prime, is_transitive, p_order_in_factorial,
                            sylow_tree_subgroup, symmetric_group, trivial_group)

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
    """Orbit representatives by marking every image of each new cell."""
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
    the cell for the least."""
    best = None
    for omega in group.elements():
        img, _ = act_on_cell(omega, cell)
        if best is None or img < best[0]:
            best = (img, omega)
    rep, omega_to_rep = best
    return rep, inverse(omega_to_rep)


COLORED333 = [(a, b, c) for a in range(3) for b in range(3, 6) for c in range(6, 9)]


def base_complex(name):
    """"deltaN", its k-skeleton "deltaN/k", or "colored333"."""
    if name == "colored333":
        return Complex.from_maximal(9, COLORED333)
    N, _, k = name[len("delta"):].partition("/")
    return simplex_skeleton(int(N), int(k)) if k else full_simplex(int(N))


GROUPS_UP_TO_5 = [(r, p) for r in range(2, 6)
                  for p in [None] + [q for q in range(2, r + 1) if is_prime(q)]]


@pytest.mark.skipif(given is None, reason="needs hypothesis")
@pytest.mark.parametrize("r,p", GROUPS_UP_TO_5)
def test_orbit_table_matches_scan(r, p):
    """locate and orbit_reps, which replace the orbit table, against the
    scans: Sigma_r (p None), where locate sorts, and every tree Sylow
    subgroup, where it takes the least image, for r <= 5, on
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
        """orbit_reps and the scanned representatives, once per drawn
        complex and degree."""
        dp = product(name)
        return orbit_reps(dp, group, degree), scan_orbit_reps(dp, group, degree)

    @settings(max_examples=8)
    @given(st.sampled_from(names), st.integers(0, 20),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
    def check(name, degree, picks):
        dp = product(name)
        degree %= dp.dim + 1
        reps, scanned = results(name, degree)
        cells = dp.cells_by_dim[degree]
        assert reps == scanned
        for k in picks:
            cell = cells[k % len(cells)]
            rep, omega = locate(group, cell)
            assert (rep, omega) == scan_locate(group, cell)
            assert act_on_cell(omega, rep)[0] == cell
            assert rep in reps

    check()


def groups_of(r):
    """Sigma_r, the trivial group and every tree Sylow subgroup of Sigma_r."""
    return [symmetric_group(r), trivial_group(r)] + [
        sylow_tree_subgroup(r, p) for p in range(2, r + 1) if is_prime(p)]


@pytest.mark.parametrize("name,r", [("delta5", 2), ("delta6/2", 3), ("colored333", 3),
                                    ("delta5", 4), ("delta5", 5)])
def test_sigma_r_representatives_read_no_cell_list(name, r):
    """orbit_reps enumerates the sorted tuples from the base and splits them
    by the cosets: over Sigma_r, the trivial group and every tree Sylow
    subgroup, with the cell lists emptied it returns the same list in every
    degree as the scan of the cells."""
    dp = deleted_product(base_complex(name), r)
    degrees = range(dp.dim + 1)
    want = [[orbit_reps(dp, G, d) for d in degrees] for G in groups_of(r)]
    assert want == [[scan_orbit_reps(dp, G, d) for d in degrees] for G in groups_of(r)]
    dp.cells_by_dim = {}
    assert [[orbit_reps(dp, G, d) for d in degrees] for G in groups_of(r)] == want


def test_cocycle_from_table_rejects_unknown_cells():
    _, dp, _ = k5_setup()
    for key in [((0, 1), (2,)), ((0, 1), (1, 2)), ((0, 1), (5, 6)), ((1, 0), (2, 3))]:
        with pytest.raises(InputError, match=r"not a 2-cell of this deleted product"):
            cocycle_from_table(dp, {key: 1})


def test_coboundary_matrix_shape():
    _, dp, _ = k5_setup()
    A, top_reps, facet_reps = coboundary_matrix(dp)
    assert (A.rows, A.cols) == (15, 30)


def dense_coboundary(dp, twist):
    """The coboundary as a list of rows, assembled entry by entry as
    coboundary_matrix did before it stored only nonzero entries."""
    group = symmetric_group(dp.r)
    col = {rep: j for j, rep in enumerate(scan_orbit_reps(dp, group, dp.dim - 1))}
    rows = []
    for cell in scan_orbit_reps(dp, group, dp.dim):
        row = [0] * len(col)
        for facet, eps in dp.cell_boundary(cell):
            rep, omega = scan_locate(group, facet)
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
    # row i holds the nonzeros of row i of the dense assembly, columns ascending
    assert A.entries == [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def located_coboundary(dp, twist):
    """(rows, top_reps, facet_reps) as coboundary_matrix built them before
    its rows were written down: every facet from cell_boundary located in
    its orbit and signed by chi, the terms summed per column."""
    group = symmetric_group(dp.r)
    top_reps = orbit_reps(dp, group, dp.dim)
    facet_reps = orbit_reps(dp, group, dp.dim - 1)
    col = {rep: j for j, rep in enumerate(facet_reps)}
    rows = []
    for cell in top_reps:
        row = {}
        for facet, eps in dp.cell_boundary(cell):
            rep, omega = locate(group, facet)
            j = col[rep]
            row[j] = row.get(j, 0) + eps * chi(omega, rep, twist)
        rows.append(sorted((j, v) for j, v in row.items() if v))
    return rows, top_reps, facet_reps


def random_2_complex(seed):
    rng = random.Random(seed)
    maximal = [rng.sample(range(10), rng.choice([2, 3, 3, 3])) for _ in range(30)]
    return Complex.from_maximal(10, maximal)


@pytest.mark.parametrize("name,r,twist", [
    ("delta5/2", 2, None), ("delta6/2", 2, None), ("delta7/2", 2, None),
    ("delta8/2", 3, 2), ("delta8/2", 3, 3), ("delta9/3", 2, None), ("delta9/2", 4, None),
    ("colored333", 3, None), ("random", 2, None), ("random", 3, None)])
def test_coboundary_rows_by_insertion_match_the_located_facets(name, r, twist):
    K = random_2_complex("cob random") if name == "random" else base_complex(name)
    dp = deleted_product(K, r)
    if twist is None:
        twist = cocycle_from_table(dp, {}).twist
    A, top_reps, facet_reps = coboundary_matrix(dp, twist)
    rows, want_top, want_facets = located_coboundary(dp, twist)
    assert rows and any(rows)
    assert (A.entries, top_reps, facet_reps) == (rows, want_top, want_facets)
    assert (A.rows, A.cols) == (len(top_reps), len(facet_reps))


def test_cocycle_from_table_zero_and_consistency():
    _, dp, _ = k5_setup()
    zero = cocycle_from_table(dp, {})
    assert zero.values == {}  # every orbit reads 0
    # a table repeating an orbit must match the twisted extension:
    # swapping the two edge factors flips the sign (Koszul sign -1)
    good = {((0, 1), (2, 3)): 5, ((2, 3), (0, 1)): -5}
    c = cocycle_from_table(dp, good)
    assert c.values[((0, 1), (2, 3))] == 5
    with pytest.raises(InputError, match=r"table conflicts with the twisted action"):
        cocycle_from_table(dp, {((0, 1), (2, 3)): 5, ((2, 3), (0, 1)): 5})


@pytest.mark.parametrize("domain", ["k5", "colored333"])
def test_a_table_of_its_nonzero_orbits_decides_like_the_full_table(domain):
    if domain == "k5":
        f, dp, full = k5_setup()
        table = intersection_cocycle(f, 2)
    else:
        K = base_complex(domain)
        f = PLMap.build(K, 3, random_rational_points(9, 3, repr(("g", 1))))
        dp = deleted_product(K, 3)
        table = intersection_cocycle(f, 3)
        full = cocycle_from_table(dp, table)
    partial = cocycle_from_table(dp, {key: v for key, v in table.items() if v})
    assert 0 < len(partial.values) < len(full.values) == len(table)
    assert partial.values == {rep: v for rep, v in full.values.items() if v}
    _, _, facet_reps = coboundary_matrix(dp, full.twist)
    results = [is_null_cohomologous(v) for v in (full, partial)]
    assert results[0].trivial == results[1].trivial == (domain == "colored333")
    assert results[0].infeasibility == results[1].infeasibility
    if results[0].trivial:
        certificates = [[res.certificate.values.get(rep, 0) for rep in facet_reps]
                        for res in results]
        assert certificates[0] == certificates[1] and any(certificates[0])


def test_cochain_extension_signs():
    _, dp, v = k5_setup()
    for rep, val in list(v.values.items())[:5]:
        swapped = (rep[1], rep[0])
        assert v.value(swapped) == -val  # k = 1: swap acts by -1 on top cells


def test_k4_is_null_cohomologous_with_certificate():
    f = complete_graph_map(4, SQUARE)
    dp = deleted_product(f.domain, 2)
    v = cocycle_from_table(dp, intersection_cocycle(f, 2))
    res = is_null_cohomologous(v)
    assert res.trivial
    # re-verify the certificate by hand: delta c = v on every top rep
    A, top_reps, facet_reps = coboundary_matrix(dp)
    image = A.mat_vec([res.certificate.values[rep] for rep in facet_reps])
    assert image == [v.values[rep] for rep in top_reps]


def test_k5_is_not_null_cohomologous():
    _, dp, v = k5_setup()
    res = is_null_cohomologous(v)
    assert not res.trivial
    assert res.infeasibility["kind"] in ("divisibility", "rank")


def test_k5_mod2_invariant():
    # every coboundary column has even support, so the parity of sum |v|
    # over disjoint pairs is an invariant; for K_5 it is 1
    _, dp, v = k5_setup()
    A, _, _ = coboundary_matrix(dp)
    column_sums = [0] * A.cols
    for row in A.entries:
        for j, a in row:
            column_sums[j] += a
    assert all(s % 2 == 0 for s in column_sums)
    assert sum(abs(x) for x in v.values.values()) % 2 == 1


def test_zero_cochain_trivial():
    _, dp, _ = k5_setup()
    zero = cocycle_from_table(dp, {})
    res = is_null_cohomologous(zero)
    assert res.trivial and not any(res.certificate.values.values())


def test_degree_error():
    _, dp, v = k5_setup()
    bad = EquivariantCochain(dp, v.group, 1, v.twist, {})
    with pytest.raises(InputError, match=r"cochain degree 1 is not the top dimension 2"):
        is_null_cohomologous(bad)


def test_decision_refuses_a_cochain_over_a_subgroup():
    # the decision solves against the Sigma_3 coboundary; over P_2 its
    # "certificate" missed delta c = w on 4 of the 108 P_2-orbits
    K = Complex.from_maximal(9, COLORED333)
    f = PLMap.build(K, 3, random_rational_points(9, 3, repr(("g", 1))))
    dp = deleted_product(K, 3)
    v = cocycle_from_table(dp, intersection_cocycle(f, 3))
    assert is_null_cohomologous(v).trivial
    for G in (sylow_tree_subgroup(3, 2), sylow_tree_subgroup(3, 3), trivial_group(3)):
        with pytest.raises(TvlabError):
            is_null_cohomologous(restrict_to_subgroup(v, G))


def test_vertex_move_difference_is_null_cohomologous():
    # drawings of K_5 differing by moving one vertex generically differ by
    # a null-cohomologous cochain (finger moves at cochain level)
    _, dp, v1 = k5_setup()
    moved = [PENTAGON[0]] + [(3, 4)] + [tuple(p) for p in PENTAGON[2:]]
    _, _, v2 = k5_setup(moved)
    diff = EquivariantCochain(dp, v1.group, v1.degree, v1.twist,
                              {k: v1.values[k] - v2.values[k] for k in v1.values})
    res = is_null_cohomologous(diff)
    assert res.trivial



def generic_skeleton_map(N, d, seed):
    K = simplex_skeleton(N, 2)
    return PLMap.build(K, d, random_rational_points(K.num_vertices, d, seed))


def test_delta8_r3_in_r3_trivial_with_certificate():
    # a 280 x 2520 system: out of reach of the dense Smith normal form
    f = generic_skeleton_map(8, 3, repr(("d8", 2)))
    dp = deleted_product(f.domain, 3)
    v = cocycle_from_table(dp, intersection_cocycle(f, 3))
    assert any(v.values.values())
    res = is_null_cohomologous(v)
    assert res.trivial
    A, top_reps, facet_reps = coboundary_matrix(dp, v.twist)
    assert (A.rows, A.cols) == (280, 2520)
    image = A.mat_vec([res.certificate.values.get(rep, 0) for rep in facet_reps])
    assert image == [v.values.get(rep, 0) for rep in top_reps]


def test_delta10_r3_coboundary_rows():
    # the coboundary of the Delta_10^(2) -> R^3, r = 3 decision: it depends
    # on the domain alone, so no map is built
    dp = deleted_product(simplex_skeleton(10, 2), 3)
    A, top_reps, facet_reps = coboundary_matrix(dp)
    assert (A.rows, A.cols) == (len(top_reps), len(facet_reps)) == (15_400, 46_200)
    assert len(A.entries) == A.rows
    assert sum(map(len, A.entries)) == 138_600
    for row in A.entries:
        columns = [j for j, _ in row]
        assert 0 <= columns[0] and columns[-1] < A.cols
        assert all(a < b for a, b in zip(columns, columns[1:]))
        assert all(v in (1, -1) for _, v in row)


@pytest.mark.parametrize("N,units", [(6, 69), (7, 245)])
def test_van_kampen_flores_witness_pinned(N, units):
    f = generic_skeleton_map(N, 4, repr(("d%d" % N, 2)))
    dp = deleted_product(f.domain, 2)
    v = cocycle_from_table(dp, intersection_cocycle(f, 2))
    res = is_null_cohomologous(v)
    assert not res.trivial
    witness = res.infeasibility
    assert (witness["kind"], witness["index"], witness["diagonal"]) == ("divisibility", units, 2)
    assert witness["coordinate"] % 2
    # the index counts the unit invariant factors of the coboundary, and the
    # diagonal is its one Z/2 factor
    A, _, _ = coboundary_matrix(dp, v.twist)
    columns = [[] for _ in range(A.cols)]
    for i, row in enumerate(A.entries):
        for j, a in row:
            columns[j].append((i, a))
    diag = smith_diagonal(columns, A.rows)
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
            reps = coset_representatives(G)
            import math

            assert len(reps) * G.order() == math.factorial(r)
            # cosets are disjoint and cover
            from tvlab.symgroup import compose

            seen = set()
            for f in reps:
                for h in G.elements():
                    seen.add(compose(f, h))
            assert len(seen) == math.factorial(r)


def marked_coset_representatives(G, r):
    """The least element of each left coset gG, by walking Sigma_r in
    increasing order and marking every member of each new coset."""
    members = G.elements()
    seen = set()
    reps = []
    for g in sorted(symmetric_group(r).elements()):
        if g in seen:
            continue
        reps.append(g)
        seen.update(compose(g, h) for h in members)
    return reps


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_coset_representatives_match_the_marking_loop(r):
    for G in groups_of(r):
        assert coset_representatives(G) == marked_coset_representatives(G, r)


def test_coset_representatives_over_the_cap_raise_before_any_element(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a permutation was listed before the cap was checked")

    monkeypatch.setattr(obstruction_module, "permutations", no_walk)
    groups = (trivial_group(5), sylow_tree_subgroup(5, 2), symmetric_group(5))
    monkeypatch.setenv("TVLAB_CELL_CAP", "119")  # 5! = 120
    for G in groups:
        with pytest.raises(CapExceeded):
            coset_representatives(G)
        assert G._elements is None


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
                back = transfer(restrict_to_subgroup(x, G))
                assert back.values == {k: index * v for k, v in values.items()}


def test_transfer_of_sigma_r_cochain_is_identity():
    _, dp, v = k5_setup()
    back = transfer(restrict_to_subgroup(v, symmetric_group(2)))
    assert back.values == v.values


def test_a_group_on_other_letters_than_the_factors_raises_input_error():
    """The group's degree is the r of the transfer and the cosets, so where a
    group meets a deleted product, in orbit_reps and in a cochain, a group on
    r - 1 or r + 2 letters is refused, not read until an IndexError."""
    dp = deleted_product(full_simplex(4), 3)
    x = cocycle_from_table(dp, {})
    for G in (trivial_group(2), sylow_tree_subgroup(2, 2), trivial_group(5),
              sylow_tree_subgroup(5, 2)):
        refusal = "group degree %d, but r = 3" % G.degree
        with pytest.raises(InputError, match=refusal):
            orbit_reps(dp, G, dp.dim)
        with pytest.raises(InputError, match=refusal):
            restrict_to_subgroup(x, G)
        with pytest.raises(InputError, match=refusal):
            EquivariantCochain(dp, G, dp.dim, x.twist, {})


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
    with pytest.raises(InputError, match=r"need r >= 2, got 1"):
        ozaydin_report(1)


def group_ozaydin_report(r):
    """(rows, relation_gcd) from the tree Sylow subgroups themselves: the
    orbit of 0 gives transitivity and the split, the invariant matrix point
    is built, and the gcd is taken over the factorial quotients."""
    rows, indices = [], []
    for p in filter(is_prime, range(2, r + 1)):
        alpha = p_order_in_factorial(r, p)
        G = sylow_tree_subgroup(r, p)
        transitive = is_transitive(G)
        split = None if transitive else invariant_block_split(G)
        point = None if transitive else invariant_matrix_point(split[0], r, 1)
        if not transitive:
            indices.append(factorial(r) // p**alpha)
        rows.append({"p": p, "alpha": alpha, "sylow_order": p**alpha,
                     "transitive": transitive, "split": split,
                     "invariant_point_exists": point is not None})
    return rows, gcd(*indices)


def test_ozaydin_arithmetic_matches_the_sylow_subgroups():
    for r in range(2, 121):
        rows, relation_gcd = group_ozaydin_report(r)
        rep = ozaydin_report(r)
        assert (rep.r, rep.rows, rep.relation_gcd) == (r, rows, relation_gcd), r
        assert rep.is_prime_power == any(row["transitive"] for row in rows)
        assert rep.argument_applies == (relation_gcd == 1)


def table_locate(dp):
    """locate read off orbit tables, one per group and degree, built as the
    deleted product built them before orbits were located by sorting: the
    sorted cells are visited in order, and the first cell met in an orbit,
    its least, is stored as the representative of each of its images."""
    tables = {}

    def locate_in_table(group, cell):
        key = (tuple(group.generators), cell_dim(cell))
        if key not in tables:
            table = {}
            for c in dp.cells_by_dim.get(key[1], ()):
                if c not in table:
                    for omega in group.elements():
                        table[act_on_cell(omega, c)[0]] = (c, omega)
            tables[key] = table
        return tables[key][cell]

    return locate_in_table


def test_obstruction_maps_match_the_orbit_tables(monkeypatch):
    # the seeds give intersection tables that are not zero
    for name, d, r, seed in [("colored333", 3, 3, 5), ("delta6/2", 4, 2, 0)]:
        K = base_complex(name)
        f = PLMap.build(K, d, random_rational_points(K.num_vertices, d,
                                                     repr(("tables", name, seed))))
        dp = deleted_product(K, r)
        table = intersection_cocycle(f, r)
        subgroups = [trivial_group(r)] + [sylow_tree_subgroup(r, p) for p in (2, 3) if p <= r]

        def outputs():
            v = cocycle_from_table(dp, table)
            A, top_reps, facet_reps = coboundary_matrix(dp, v.twist)
            out = [v.values, A.entries, top_reps, facet_reps]
            for G in subgroups:
                down = restrict_to_subgroup(v, G)
                out += [down.values, transfer(down).values]
            return out

        with monkeypatch.context() as patch:
            patch.setattr(obstruction_module, "locate", table_locate(dp))
            by_tables = outputs()
        assert any(by_tables[0].values())
        assert outputs() == by_tables, name


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
