"""Acceptance gate: twelve end-to-end criteria over the whole library.

Each criterion prints exactly one pass/fail line (visible under pytest -s or
on failure) and asserts its own wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction
from itertools import permutations

from tvlab import convexity, homology, obstruction, plmaps, symgroup
from tvlab.complexes import Complex, full_simplex, simplex_skeleton
from tvlab.convexity import as_points, radon_partition, random_rational_points, \
    tverberg_search
from tvlab.deleted_product import act_on_cell, deleted_product
from tvlab.errors import NotGeneric
from tvlab.obstruction import (EquivariantCochain, coboundary_matrix,
                               cocycle_from_table, coset_representatives,
                               is_null_cohomologous, orbit_reps,
                               ozaydin_report, restrict_to_subgroup, transfer)
from tvlab.plmaps import (PLMap, coned_extension_oracle, constraint_lift,
                          intersection_cocycle, is_almost_r_embedding,
                          join_extension)
from tvlab.symgroup import (inverse, invariant_block_split,
                            is_prime, is_transitive, p_order_in_factorial,
                            pi_projection, sylow_tree_subgroup,
                            symmetric_group, trivial_group)

PENTAGON = [(0, 2), (2, 1), (1, -2), (-1, -2), (-2, 1)]
HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 0)]


def criterion(num, budget_seconds):
    """Run the body, print one line, and enforce the time budget."""

    class _Gate:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.t0
            verdict = "PASS" if exc_type is None and elapsed < budget_seconds \
                else "FAIL"
            print("criterion %02d: %s (%.1fs, budget %ds)"
                  % (num, verdict, elapsed, budget_seconds))
            if exc_type is None:
                assert elapsed < budget_seconds, \
                    "criterion %d over budget: %.1fs" % (num, elapsed)
            return False

    return _Gate()


def permuted_cell(omega, cell):
    out = [None] * len(omega)
    for j, s in enumerate(cell):
        out[omega[j]] = s
    return tuple(out)


def disjoint_simplices_complex(r, m):
    return Complex.from_maximal(
        r * (m + 1),
        [tuple(range(i * (m + 1), (i + 1) * (m + 1))) for i in range(r)])


def k4_square_map():
    return PLMap.build(simplex_skeleton(3, 1), 2,
                       [(0, 0), (1, 0), (1, 1), (0, 1)])


def k5_map(points):
    return PLMap.build(simplex_skeleton(4, 1), 2, points)


def test_criterion_01_deleted_product_golden_values():
    with criterion(1, 60):
        # deleted_product counts; each timed region also lists the cells
        t = time.perf_counter()
        dp = deleted_product(full_simplex(1), 3)
        assert dp.is_empty and dp.cells_by_dim == {}
        assert time.perf_counter() - t < 1.0
        t = time.perf_counter()
        dp = deleted_product(full_simplex(2), 3)
        assert len(dp.cells_by_dim[0]) == 6
        assert time.perf_counter() - t < 1.0
        assert dp.f_vector() == [6] and dp.dim == 0
        for n in range(1, 8):
            for r in (2, 3, 4):
                t = time.perf_counter()
                dp = deleted_product(full_simplex(n), r)
                listed = [len(dp.cells_by_dim[d]) for d in sorted(dp.cells_by_dim)]
                assert time.perf_counter() - t < 1.0
                assert dp.f_vector() == listed
                if n + 1 >= r:
                    assert dp.dim == n + 1 - r
                else:
                    assert dp.is_empty and dp.dim == -1


def test_criterion_02_chain_complex_and_free_action():
    with criterion(2, 60):
        for n in range(1, 8):
            for r in (2, 3, 4):
                dp = deleted_product(full_simplex(n), r)
                if dp.is_empty:
                    continue
                for d in range(2, dp.dim + 1):
                    lower = dp.boundary_matrix(d - 1)
                    for column in dp.boundary_matrix(d):
                        comp = {}
                        for j, w in column:
                            for i, w2 in lower[j]:
                                comp[i] = comp.get(i, 0) + w * w2
                        assert all(v == 0 for v in comp.values())
                nontrivial = [w for w in permutations(range(r))
                              if w != tuple(range(r))]
                gens = [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, r))
                        for i in range(r - 1)]
                for cells in dp.cells_by_dim.values():
                    for cell in cells:
                        for w in nontrivial:
                            assert permuted_cell(w, cell) != cell
                for d in range(1, dp.dim + 1):
                    for cell in dp.cells_by_dim[d]:
                        bnd = dp.cell_boundary(cell)
                        for g in gens:
                            img, s = act_on_cell(g, cell)
                            lhs = {}
                            for f, c in dp.cell_boundary(img):
                                lhs[f] = lhs.get(f, 0) + c
                            rhs = {}
                            for f, c in bnd:
                                fi, si = act_on_cell(g, f)
                                rhs[fi] = rhs.get(fi, 0) + s * si * c
                            assert lhs == rhs


def test_criterion_03_connectivity_lemma():
    with criterion(3, 600):
        for n, r in ((2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (5, 4)):
            dp = deleted_product(full_simplex(n), r)
            rep = homology.dp_homology(dp, "Z")
            assert rep.ranks[0] == 1 and not rep.torsion.get(0, [])
            for j in range(1, n - r + 1):
                assert rep.ranks.get(j, 0) == 0, (n, r, j)
                assert not rep.torsion.get(j, []), (n, r, j)


def test_criterion_04_radon_fuzz():
    with criterion(4, 60):
        for d in (1, 2, 3, 4):
            for i in range(200):
                pts = random_rational_points(d + 2, d, ("radon", d, i).__repr__())
                part = radon_partition(pts)
                assert part.verify(as_points(pts)), (d, i)


def test_criterion_05_tverberg_fuzz_and_golden():
    with criterion(5, 300):
        part = tverberg_search(HEXAGON, 3)
        assert part.witness == (Fraction(0), Fraction(0))
        assert part.verify(as_points(HEXAGON))
        for i in range(100):
            pts = random_rational_points(7, 2, ("tverberg", i).__repr__())
            part = tverberg_search(pts, 3)
            assert part.verify(as_points(pts)), i


def test_criterion_06_cocycle_matches_oracle():
    with criterion(6, 300):
        for f, r in ((k4_square_map(), 2), (k5_map(PENTAGON), 2)):
            table = intersection_cocycle(f, r)
            for key, val in table.items():
                assert coned_extension_oracle(f, key) == val, key
        made = 0
        attempt = 0
        while made < 25:
            K = disjoint_simplices_complex(2, 1)
            pts = random_rational_points(4, 2, ("seg", attempt).__repr__())
            attempt += 1
            f = PLMap.build(K, 2, pts)
            try:
                table = intersection_cocycle(f, 2)
                for key, val in table.items():
                    assert coned_extension_oracle(f, key) == val
            except NotGeneric:
                continue
            made += 1
        made = 0
        attempt = 0
        while made < 25:
            K = disjoint_simplices_complex(3, 2)
            pts = random_rational_points(9, 3, ("tri", attempt).__repr__())
            attempt += 1
            f = PLMap.build(K, 3, pts)
            try:
                table = intersection_cocycle(f, 3)
                for key, val in table.items():
                    assert coned_extension_oracle(f, key) == val
            except NotGeneric:
                continue
            made += 1


def test_criterion_07_van_kampen_obstruction():
    with criterion(7, 300):
        f = k4_square_map()
        dp = deleted_product(f.domain, 2)
        v = cocycle_from_table(dp, intersection_cocycle(f, 2))
        res = is_null_cohomologous(v)
        assert res.trivial
        A, top_reps, facet_reps = coboundary_matrix(dp, v.twist)
        x = [res.certificate.values[rep] for rep in facet_reps]
        assert A.mat_vec(x) == [v.values[rep] for rep in top_reps]

        dp5 = deleted_product(simplex_skeleton(4, 1), 2)
        made = 0
        attempt = 0
        while made < 50:
            pts = random_rational_points(5, 2, ("k5", attempt).__repr__())
            attempt += 1
            try:
                table = intersection_cocycle(k5_map(pts), 2)
            except NotGeneric:
                continue
            made += 1
            assert sum(abs(val) for val in table.values()) % 2 == 1
            v5 = cocycle_from_table(dp5, table)
            assert not is_null_cohomologous(v5).trivial


def test_criterion_08_sylow_tree_subgroups():
    with criterion(8, 60):
        for r in range(2, 10):
            for p in range(2, r + 1):
                if not is_prime(p):
                    continue
                G = sylow_tree_subgroup(r, p)
                assert G.order() == len(G.elements()) == p ** p_order_in_factorial(r, p)
                power_of_p = r == p ** round(math.log(r, p))
                assert is_transitive(G) == power_of_p, (r, p)
        splits = {2: (4, 2), 3: (3, 3), 5: (5, 1)}
        orbit_tables = {2: [(0, 1, 2, 3), (4, 5)],
                        3: [(0, 1, 2), (3, 4, 5)],
                        5: [(0, 1, 2, 3, 4), (5,)]}
        for p, expected in splits.items():
            G = sylow_tree_subgroup(6, p)
            assert invariant_block_split(G) == expected
            assert G.orbits() == orbit_tables[p]


def test_criterion_09_transfer_identity():
    with criterion(9, 60):
        rng = random.Random("transfer-acceptance")
        cases = []
        for r in (2, 3, 4):
            dp = deleted_product(disjoint_simplices_complex(r, 1), r)
            groups = [trivial_group(r)]
            for p in (2, 3):
                if p <= r:
                    groups.append(sylow_tree_subgroup(r, p))
            reps = orbit_reps(dp, symmetric_group(r), dp.dim)
            for G in groups:
                cases.append((r, dp, reps, G))
        done = 0
        while done < 100:
            for r, dp, reps, G in cases:
                index = math.factorial(r) // G.order()
                values = {rep: rng.randint(-9, 9) for rep in reps}
                x = EquivariantCochain(dp, symmetric_group(r), dp.dim, r, values)
                back = transfer(restrict_to_subgroup(x, G))
                assert back.values == {k: index * v for k, v in values.items()}
                done += 1


def test_criterion_10_constructions():
    with criterion(10, 60):
        f = PLMap.build(full_simplex(2), 2, [(0, 0), (1, 0), (0, 1)])
        g = join_extension(f, 2)
        assert g.ambient_dim == 3
        assert (0, 1, 2, 3) in g.domain.simplices
        assert is_almost_r_embedding(g, 2)
        corners = {2: [(0, 0), (1, 0), (0, 1)],
                   3: [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]}
        for n, s in ((2, 1), (3, 1), (3, 2)):
            base = PLMap.build(full_simplex(n), n, corners[n])
            lift = constraint_lift(base, s)
            assert lift.map.ambient_dim == n + 1
            for image, face in zip(lift.map.images, lift.vertex_faces):
                height = image[-1]
                assert height >= 0
                assert (height == 0) == (len(face) - 1 <= s), (n, s, face)


def test_criterion_11_pi_projection_equivariance():
    with criterion(11, 60):
        for r in (2, 3, 4):
            for d in (1, 2, 3):
                for i in range(100):
                    pts = random_rational_points(r, d, ("pi", r, d, i).__repr__())
                    base = pi_projection(pts)
                    for omega in permutations(range(r)):
                        shuffled = [pts[j] for j in inverse(omega)]
                        assert pi_projection(shuffled) == base.permuted(omega)


def test_criterion_12_ozaydin_report():
    with criterion(12, 60):
        rep6 = ozaydin_report(6)
        assert rep6.relation_gcd == 1 and rep6.argument_applies
        assert all(not row["transitive"] for row in rep6.rows)
        for r in (2, 3, 4, 5, 7, 8, 9):
            assert not ozaydin_report(r).argument_applies, r
        for r in range(2, 31):
            rep = ozaydin_report(r)
            assert (rep.relation_gcd == 1) == (not rep.is_prime_power), r
