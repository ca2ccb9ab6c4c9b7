"""Tests for permutations, Sylow tree subgroups, and the matrix sphere."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from tvlab.errors import CapExceeded, InputError
from tvlab.symgroup import (MILLER_RABIN_BOUND, MatrixSpherePoint,
                            compose, identity_perm,
                            invariant_block_split, invariant_matrix_point,
                            inverse, is_prime, is_transitive,
                            p_order_in_factorial, sign,
                            sylow_tree_subgroup, symmetric_group,
                            trivial_group)


def test_sign():
    assert sign((0, 1, 2)) == 1
    assert sign((1, 0, 2)) == -1
    assert sign((1, 2, 0)) == 1  # 3-cycle


def test_compose_inverse():
    for a in permutations(range(4)):
        assert compose(a, inverse(a)) == identity_perm(4)
        assert sign(a) * sign(inverse(a)) == 1


def test_sign_multiplicative():
    perms = list(permutations(range(4)))
    for a in perms[::5]:
        for b in perms[::7]:
            assert sign(compose(a, b)) == sign(a) * sign(b)


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 20000) if is_prime(n) != trial_division(n)] == []


def test_is_prime_pseudoprimes_and_bound():
    # a Carmichael number, and strong pseudoprimes to the prime bases up
    # to 7 and up to 31: Miller-Rabin on fewer bases calls them prime
    assert 3215031751 == 151 * 751 * 28351
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    for n in (561, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 10**30):
        with pytest.raises(InputError, match=str(MILLER_RABIN_BOUND)):
            is_prime(n)


def test_p_order_in_factorial():
    assert p_order_in_factorial(6, 2) == 4
    assert p_order_in_factorial(6, 5) == 1
    assert p_order_in_factorial(9, 3) == 4
    with pytest.raises(InputError, match=r"4 is not prime"):
        p_order_in_factorial(6, 4)
    with pytest.raises(InputError, match=r"4 is not prime"):
        sylow_tree_subgroup(5, 4)


def test_sylow_orders():
    for r in range(2, 10):
        for p in (2, 3, 5, 7):
            if p > r:
                continue
            G = sylow_tree_subgroup(r, p)
            # the closed-form order is that of the generated group
            assert G.order() == len(G.elements()) == p ** p_order_in_factorial(r, p)


def test_sylow_p_larger_than_r():
    assert sylow_tree_subgroup(3, 5).order() == 1


def test_sylow_elements_have_p_power_order():
    for r, p in [(6, 2), (6, 3), (8, 2), (9, 3)]:
        G = sylow_tree_subgroup(r, p)
        for g in G.elements():
            k = g
            order = 1
            while k != identity_perm(r):
                k = compose(g, k)
                order += 1
            while order % p == 0:
                order //= p
            assert order == 1


def test_sylow_transitivity_iff_prime_power():
    for r in range(2, 10):
        for p in (2, 3, 5, 7):
            if p > r:
                continue
            G = sylow_tree_subgroup(r, p)
            q = p
            while q < r:
                q *= p
            assert is_transitive(G) == (q == r)


def test_sylow_r6_splittings():
    # p = 5: a 5-cycle fixing the last point
    G5 = sylow_tree_subgroup(6, 5)
    assert G5.order() == len(G5.elements()) == 5 and G5.orbits() == [(0, 1, 2, 3, 4), (5,)]
    # p = 3: independent 3-rotations of the two triples
    G3 = sylow_tree_subgroup(6, 3)
    assert G3.order() == len(G3.elements()) == 9 and G3.orbits() == [(0, 1, 2), (3, 4, 5)]
    # p = 2: order 16, preserving {0,1,2,3} u {4,5} and {0,1} u {2,3}
    G2 = sylow_tree_subgroup(6, 2)
    assert G2.order() == len(G2.elements()) == 16
    assert G2.orbits() == [(0, 1, 2, 3), (4, 5)]
    for g in G2.elements():
        assert {g[0], g[1], g[2], g[3]} == {0, 1, 2, 3}
        assert {g[4], g[5]} == {4, 5}
        # the blocks {0,1} and {2,3} are preserved as a pair
        assert {frozenset((g[0], g[1])), frozenset((g[2], g[3]))} == \
            {frozenset((0, 1)), frozenset((2, 3))}


def test_orders_in_closed_form_list_no_element():
    for r in range(1, 7):
        assert symmetric_group(r).order() == len(symmetric_group(r).elements()) == factorial(r)
    for G, order in [(symmetric_group(10), factorial(10)), (sylow_tree_subgroup(12, 2), 2**10),
                     (sylow_tree_subgroup(9, 3), 3**4)]:
        assert G.order() == order
        assert G._elements is None


def test_symmetric_group_over_the_cap_raises_before_any_generator(monkeypatch):
    monkeypatch.setenv("TVLAB_CELL_CAP", "24")
    assert symmetric_group(4).order() == 24
    for r in (5, 2**64):  # 2^64 letters could not even be listed
        with pytest.raises(CapExceeded):
            symmetric_group(r)


def test_invariant_block_split():
    assert invariant_block_split(sylow_tree_subgroup(6, 5)) == (5, 1)
    assert invariant_block_split(sylow_tree_subgroup(6, 3)) == (3, 3)
    assert invariant_block_split(sylow_tree_subgroup(6, 2)) == (4, 2)
    assert invariant_block_split(trivial_group(2)) == (1, 1)
    with pytest.raises(InputError, match=r"group is transitive; no invariant split exists"):
        invariant_block_split(symmetric_group(3))


def test_invariant_matrix_point():
    pt = invariant_matrix_point(1, 2, 1)
    assert pt.matrix == ((Fraction(-1), Fraction(1)),)
    pt = invariant_matrix_point(5, 6, 2)
    for row in pt.matrix:
        assert row == tuple([Fraction(-1)] * 5 + [Fraction(5)])
        assert sum(row) == 0
    # fixed by every split-preserving permutation
    pt = invariant_matrix_point(4, 6, 3)
    for g in sylow_tree_subgroup(6, 2).elements():
        assert pt.permuted(g) == pt


def test_matrix_sphere_invariants():
    with pytest.raises(InputError, match=r"zero matrix is not a sphere point"):
        MatrixSpherePoint(((Fraction(0), Fraction(0)),))
    with pytest.raises(InputError, match=r"row sums must vanish"):
        MatrixSpherePoint(((Fraction(1), Fraction(1)),))
