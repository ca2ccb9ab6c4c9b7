"""Tests for exact-rational Radon and Tverberg machinery."""

from fractions import Fraction

import pytest

from tvlab import convexity
from tvlab.convexity import (TverbergPartition, _directions, as_points, box,
                             canonical_partitions, hulls_intersect,
                             lp_feasible, projections, radon_partition,
                             random_rational_points, separated, tverberg_search)
from tvlab.errors import InputError
from tvlab.linalg import clear_denominators

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is a test extra
    given = None
needs_hypothesis = pytest.mark.skipif(given is None, reason="needs hypothesis")

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
    with pytest.raises(InputError, match=r"need d\+2 = 4 points, got 2"):
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


def test_verify_rejects_a_broken_certificate():
    pts = as_points([(0,), (1,), (2,)])
    part = radon_partition(pts)
    assert part.verify(pts) and part.parts == [(0, 2), (1,)]
    broken = [
        ([[Fraction(1, 2)], [Fraction(1)]], part.witness),                      # wrong length
        ([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(1)]], part.witness),     # negative
        ([[Fraction(1, 2), Fraction(1, 4)], [Fraction(1)]], part.witness),      # sum 3/4
        (part.certificates, (Fraction(2),)),                                    # wrong witness
    ]
    for certificates, witness in broken:
        assert not TverbergPartition(part.parts, witness, certificates).verify(pts)


def test_tverberg_wrong_count():
    with pytest.raises(InputError, match=r"need \(d\+1\)\(r-1\)\+1 = 7 points, got 6"):
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


def test_tverberg_and_radon_reject_bad_input():
    with pytest.raises(InputError, match=r"a Tverberg partition needs r >= 2 parts, got 1"):
        tverberg_search([(0, 0)], 1)
    with pytest.raises(InputError, match=r"a Tverberg partition needs r >= 2 parts, got 0"):
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


# the searches of the tverberg benchmark workload, (d, set) with r = 3, and
# the hulls_intersect calls each makes with and without the
# separating-direction test
BENCHMARK_SETS = [(2, 0), (3, 1), (3, 0), (3, 2)]
FILTERED_CALLS = [3, 5, 11, 54]
UNFILTERED_CALLS = [25, 37, 102, 239]


def benchmark_points(d, i):
    return random_rational_points((d + 1) * 2 + 1, d, repr(("tverberg", d, 3, i)))


def unfiltered_search(points, r):
    """The search without the separating-direction test: the first
    partition in canonical order whose hulls meet, as (parts, witness,
    certificates)."""
    pts = as_points(points)
    for parts in canonical_partitions(len(pts), r):
        res = hulls_intersect([[pts[i] for i in part] for part in parts])
        if res is not None:
            return list(parts), res[0], res[1]


def assert_same_as_unfiltered(points, r):
    part = tverberg_search(points, r)
    assert (part.parts, part.witness, part.certificates) == unfiltered_search(points, r)


def test_filtered_search_matches_unfiltered_on_fixed_sets():
    for d, i in BENCHMARK_SETS:
        assert_same_as_unfiltered(benchmark_points(d, i), 3)
    assert_same_as_unfiltered(HEXAGON, 3)
    assert_same_as_unfiltered([(0, 0)] * 7, 3)
    assert_same_as_unfiltered([(1, 1, 1)] * 9, 3)
    assert_same_as_unfiltered([(t, 2 * t + 1) for t in range(7)], 3)
    assert_same_as_unfiltered([(t,) for t in (3, 1, 4, 1, 5)], 3)
    assert_same_as_unfiltered([(Fraction(1, 3),), (0,), (Fraction(1, 3),)], 2)


def test_directions_and_projections():
    assert _directions(0) == []
    assert _directions(1) == [((0, 1),)]
    # e_1, e_2, e_3, e_1 + e_2, e_1 - e_2, e_1 + e_3, e_1 - e_3, e_2 + e_3, e_2 - e_3
    assert _directions(3) == [((0, 1),), ((1, 1),), ((2, 1),), ((0, 1), (1, 1)), ((0, 1), (1, -1)),
                              ((0, 1), (2, 1)), ((0, 1), (2, -1)), ((1, 1), (2, 1)),
                              ((1, 1), (2, -1))]
    # scaled by the lcm 6 of the denominators
    ints = clear_denominators(as_points([(Fraction(1, 2), Fraction(1, 3)), (1, 0)]))[0]
    assert projections(ints) == [(3, 2, 5, 1), (6, 0, 6, 6)]
    proj = projections([(0,), (1,), (2,), (2,)])

    def apart(*groups):
        return separated([box(proj, g) for g in groups])

    assert apart((0, 1), (2, 3))
    assert not apart((0, 2), (1, 3))
    # touching parts share a point and are not separated
    assert not apart((0, 2), (3,))
    # two of three groups apart suffice, whichever two
    assert apart((1,), (0,), (2, 3))
    assert tuple(map(tuple, box(proj, (0, 2)))) == ((0,), (2,))
    # a box kept as tuples answers as the lazy one does
    assert separated([tuple(map(tuple, box(proj, g))) for g in ((0, 1), (2, 3))])
    # R^0 has no direction: nothing is separated
    assert not separated([box(projections([(), ()]), g) for g in ((0,), (1,))])


def test_rejected_partitions_are_separated():
    """Every partition the search skips has two parts strictly apart along
    one of the directions, recomputed on the rational points, and hulls
    that do not meet."""
    cases = [benchmark_points(d, i) for d, i in BENCHMARK_SETS] + [HEXAGON]
    skipped = []
    for pts in map(as_points, cases):
        d = len(pts[0])
        proj = projections(clear_denominators(pts)[0])
        skipped.append(0)
        for parts in canonical_partitions(len(pts), 3):
            groups = [[pts[i] for i in part] for part in parts]
            if not separated([box(proj, part) for part in parts]):
                if hulls_intersect(groups) is not None:
                    break
                continue
            skipped[-1] += 1
            values = [[[sum(c * pts[i][a] for a, c in u) for i in part] for part in parts]
                      for u in _directions(d)]
            assert any(max(map(min, v)) > min(map(max, v)) for v in values)
            assert hulls_intersect(groups) is None
    assert skipped[:4] == [u - f for u, f in zip(UNFILTERED_CALLS, FILTERED_CALLS)]
    assert skipped[4] > 0


@pytest.mark.parametrize("case", range(len(BENCHMARK_SETS)))
def test_hulls_intersect_calls_pinned(monkeypatch, case):
    calls = []

    def counted(groups):
        calls.append(groups)
        return hulls_intersect(groups)

    monkeypatch.setattr(convexity, "hulls_intersect", counted)
    tverberg_search(benchmark_points(*BENCHMARK_SETS[case]), 3)
    assert len(calls) == FILTERED_CALLS[case]


def point_sets():
    """(points, r) for d = 1-3 and r = 2-3: rational, integer-only,
    repeated and collinear sets."""
    coord = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-4, max_value=4, max_denominator=6))

    @st.composite
    def draw_set(draw):
        d = draw(st.integers(1, 3))
        r = draw(st.integers(2, 3))
        n = (d + 1) * (r - 1) + 1
        kind = draw(st.sampled_from(["rational", "integer", "repeated", "collinear"]))
        point = st.tuples(*[st.integers(-3, 3) if kind == "integer" else coord] * d)
        if kind == "repeated":
            pool = draw(st.lists(point, min_size=1, max_size=3))
            pts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        elif kind == "collinear":
            base, step = draw(point), draw(st.tuples(*[st.integers(-2, 2)] * d))
            ts = draw(st.lists(coord, min_size=n, max_size=n))
            pts = [tuple(b + t * s for b, s in zip(base, step)) for t in ts]
        else:
            pts = draw(st.lists(point, min_size=n, max_size=n))
        return pts, r

    return draw_set()


@needs_hypothesis
def test_filtered_search_matches_unfiltered_on_drawn_sets():
    @settings(max_examples=60)
    @given(point_sets())
    def check(case):
        assert_same_as_unfiltered(*case)

    check()
