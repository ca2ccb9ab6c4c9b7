"""Tests for exact-rational Radon and Tverberg machinery."""

from fractions import Fraction

import pytest

from tvlab.convexity import (TverbergPartition, as_points,
                             canonical_partitions, general_position_check,
                             hulls_intersect, lp_feasible, radon_partition,
                             random_rational_points, tverberg_search)
from tvlab.errors import InputError, InvalidMultiplicity, WrongCardinality

HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2), (0, 0)]


def test_lp_feasible_basic():
    # x + y = 1, x - y = 0 with x, y >= 0 has the solution (1/2, 1/2)
    one = Fraction(1)
    x = lp_feasible([[one, one], [one, -one]], [one, Fraction(0)])
    assert x == [Fraction(1, 2), Fraction(1, 2)]
    # x + y = -1 is infeasible in nonnegative variables
    assert lp_feasible([[one, one]], [Fraction(-1)]) is None


def test_radon_line():
    part = radon_partition([(0,), (1,), (2,)])
    assert sorted(map(tuple, part.parts)) == [(0, 2), (1,)]
    assert part.witness == (Fraction(1),)


def test_radon_square():
    part = radon_partition([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert sorted(map(tuple, part.parts)) == [(0, 2), (1, 3)]
    assert part.witness == (Fraction(1, 2), Fraction(1, 2))


def test_radon_wrong_count():
    with pytest.raises(WrongCardinality):
        radon_partition([(0, 0), (1, 1)])


def test_radon_random_fuzz():
    for d in (1, 2, 3):
        for i in range(25):
            pts = random_rational_points(d + 2, d, ("radon", d, i).__repr__())
            part = radon_partition(pts)
            assert part.verify(as_points(pts))


def test_radon_affine_invariance():
    pts = random_rational_points(4, 2, "affine")
    part = radon_partition(pts)
    # scale by 3/2 and translate; the same index sets stay certified
    moved = [(Fraction(3, 2) * x + 7, Fraction(3, 2) * y - 2) for x, y in pts]
    witness = tuple(Fraction(3, 2) * w + t for w, t in zip(part.witness, (7, -2)))
    again = TverbergPartition(part.parts, witness, part.certificates)
    assert again.verify(as_points(moved))


def test_hulls_intersect_examples():
    # nested triangles
    outer = [(0, 0), (6, 0), (0, 6)]
    inner = [(1, 1), (2, 1), (1, 2)]
    assert hulls_intersect([outer, inner]) is not None
    # disjoint intervals on a line
    assert hulls_intersect([[(0,), (1,)], [(2,), (3,)]]) is None
    # three triangles all containing the origin
    tris = [
        [(2, 0), (-1, 1), (-1, -1)],
        [(0, 2), (1, -1), (-1, -1)],
        [(0, -2), (1, 1), (-1, 1)],
    ]
    res = hulls_intersect(tris)
    assert res is not None


def test_tverberg_hexagon_witness_is_center():
    part = tverberg_search(HEXAGON, 3)
    assert part.witness == (Fraction(0), Fraction(0))
    assert part.verify(as_points(HEXAGON))


def test_tverberg_agrees_with_radon():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    part = tverberg_search(pts, 2)
    assert part.verify(as_points(pts))
    radon = radon_partition(pts)
    assert radon.verify(as_points(pts))


def test_tverberg_wrong_count():
    with pytest.raises(WrongCardinality):
        tverberg_search([(0, 0)] * 6, 3)


def test_tverberg_random():
    for i in range(10):
        pts = random_rational_points(7, 2, ("tv", i).__repr__())
        part = tverberg_search(pts, 3)
        assert part.verify(as_points(pts))
        assert len(part.parts) == 3


def test_tverberg_deterministic():
    pts = random_rational_points(7, 2, "det")
    a = tverberg_search(pts, 3)
    b = tverberg_search(pts, 3)
    assert a.parts == b.parts and a.witness == b.witness


def test_general_position():
    assert not general_position_check([(0, 0), (1, 0), (2, 0)])
    assert general_position_check([(0, 0), (1, 0), (1, 1), (0, 1)])
    # standard basis vertices of a simplex
    basis = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    assert general_position_check(basis)
    # repeated point
    assert not general_position_check([(0, 0), (0, 0), (1, 1)])
    # the dimension comes from the points: two distinct points in the plane
    assert general_position_check([(0, 0), (1, 0)]) is True
    assert general_position_check([(0, 0), (0, 0)]) is False


def test_tverberg_and_radon_reject_bad_input():
    with pytest.raises(InvalidMultiplicity):
        tverberg_search([(0, 0)], 1)
    with pytest.raises(InvalidMultiplicity):
        tverberg_search([(0, 0)], 0)
    with pytest.raises(InputError):
        radon_partition([])
    with pytest.raises(InputError):
        radon_partition([(0, 0), (1,), (0, 1), (1, 1)])
    # one 3-coordinate point among 2-D points is not silently cut down
    mixed = [(2, 0), (1, 2), (-1, 2), (-2, 0, 5), (-1, -2), (1, -2), (0, 0)]
    with pytest.raises(InputError):
        tverberg_search(mixed, 3)
    with pytest.raises(InputError):
        hulls_intersect([[(0, 0)], [(0,)]])


def reference_set_partitions(n, r):
    """All partitions of 0..n-1 into exactly r non-empty parts, by
    restricted growth strings."""
    codes = [0] * n

    def rec(i, used):
        if i == n:
            if used == r:
                parts = [[] for _ in range(r)]
                for j, cj in enumerate(codes):
                    parts[cj].append(j)
                yield tuple(tuple(p) for p in parts)
            return
        if used + (n - i) < r:
            return
        for c in range(min(used + 1, r)):
            codes[i] = c
            yield from rec(i + 1, used + (c == used))

    yield from rec(0, 0)


def canonical(parts):
    return tuple(sorted(parts, key=lambda p: (-len(p), p)))


def test_canonical_partitions_match_sorted_reference():
    for n in range(1, 11):
        for r in range(1, min(n, 5) + 1):
            expected = sorted({canonical(p) for p in reference_set_partitions(n, r)},
                              key=lambda parts: (tuple(map(len, parts)), parts))
            assert list(canonical_partitions(n, r)) == expected, (n, r)
    assert list(canonical_partitions(2, 3)) == []


def test_canonical_partitions_stream():
    # S(13, 5) = 7,508,501: the balanced partitions come without the rest
    first = next(canonical_partitions(13, 5))
    assert first == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10), (11, 12))


# parts and witness of the searches of the tverberg benchmark workload, as
# the rational simplex found them
TVERBERG_PINS = {
    (2, 0): ([(0, 2, 6), (1, 3), (4, 5)],
             ("1486911080990184783/2219515152677888",
              "-114056249055923875/2219515152677888")),
    (3, 1): ([(0, 1, 5), (2, 4, 8), (3, 6, 7)],
             ("-50787284262657259390341499452614107340885/1071393875205631235154437968217068498944",
              "1088761205056612021598770103262549766494113/2142787750411262470308875936434136997888",
              "106460177953864069636758984947792639715961/714262583470420823436291978811378999296")),
    (3, 0): ([(0, 2, 6), (1, 3, 5), (4, 7, 8)],
             ("3247326096658943522565542671094938284505/27794354929005333486005258924621475584",
              "15376196400115815226259292801332862896797/55588709858010666972010517849242951168",
              "60771451154365422087984548101111370307/434286795765708335718832170697210556")),
    (3, 2): ([(0, 5, 7), (1, 4, 8), (2, 3, 6)],
             ("-133614986339594429041634897954389442667/888583019092144237573389556008080896",
              "-255555023099728600212920397561351101549/1777166038184288475146779112016161792",
              "811634521040279988595702388840169855199/1777166038184288475146779112016161792")),
}


@pytest.mark.parametrize("d,i", sorted(TVERBERG_PINS))
def test_tverberg_search_pinned(d, i):
    pts = random_rational_points((d + 1) * 2 + 1, d, repr(("tverberg", d, 3, i)))
    part = tverberg_search(pts, 3)
    parts, witness = TVERBERG_PINS[d, i]
    assert part.parts == parts
    assert part.witness == tuple(Fraction(w) for w in witness)


def test_tverberg_hexagon_pinned():
    part = tverberg_search(HEXAGON, 3)
    assert part.parts == [(0, 1, 3), (2, 5), (4, 6)]
    assert part.certificates == [[Fraction(1, 2), 0, Fraction(1, 2)],
                                 [Fraction(1, 2), Fraction(1, 2)], [0, 1]]
