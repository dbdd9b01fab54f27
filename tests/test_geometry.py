import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from simembed import (
    COORD_LIMIT,
    CoordinateBudgetError,
    DegenerateSegmentError,
    DuplicatePointError,
    GridPoint,
    InvalidInstanceError,
    Segment,
    convex_hull,
    find_collinear_triple,
    orient,
    parabola_pointset,
    segments_conflict,
)
from simembed.geometry import _next_prime, _parabola_lift

P = GridPoint


def brute_collinear_triple(points):
    """Independent cubic-scan oracle for find_collinear_triple."""
    n = len(points)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if orient(points[i], points[j], points[k]) == 0:
                    return (i, j, k)
    return None


def test_orient_basic():
    assert orient(P(0, 0), P(1, 0), P(0, 1)) == 1
    assert orient(P(0, 0), P(1, 1), P(2, 2)) == 0
    assert orient(P(0, 0), P(2, 0), P(1, -5)) == -1


def test_orient_antisymmetric_random():
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (P(rng.randrange(-50, 50), rng.randrange(-50, 50)) for _ in range(3))
        s = orient(a, b, c)
        assert orient(b, a, c) == -s
        assert orient(a, c, b) == -s
        assert orient(c, b, a) == -s


def test_orient_matches_exact_fraction_reeval():
    rng = random.Random(1)
    lim = COORD_LIMIT
    for _ in range(10_000):
        a, b, c = (P(rng.randrange(-lim, lim), rng.randrange(-lim, lim)) for _ in range(3))
        det = (Fraction(b.x) - a.x) * (Fraction(c.y) - a.y) - (
            Fraction(b.y) - a.y
        ) * (Fraction(c.x) - a.x)
        expect = 0 if det == 0 else (1 if det > 0 else -1)
        assert orient(a, b, c) == expect


def test_coordinate_budget_enforced():
    P(COORD_LIMIT, -COORD_LIMIT)
    with pytest.raises(CoordinateBudgetError):
        P(COORD_LIMIT + 1, 0)
    with pytest.raises(CoordinateBudgetError):
        P(0.5, 0)


def test_segment_degenerate():
    with pytest.raises(DegenerateSegmentError):
        Segment(P(3, 3), P(3, 3))


def test_predicates_exact_at_budget_extremes():
    lim = COORD_LIMIT
    # near-collinear at full magnitude: off by one unit must be detected
    assert orient(P(-lim, -lim), P(lim, lim), P(0, 0)) == 0
    assert orient(P(-lim, -lim), P(lim, lim), P(0, 1)) == 1
    assert orient(P(-lim, -lim), P(lim, lim), P(0, -1)) == -1
    s1 = Segment(P(-lim, 0), P(lim, 1))
    s2 = Segment(P(-lim, 1), P(lim, 0))
    assert segments_conflict(s1, s2)


def test_segments_conflict_cases():
    assert segments_conflict(Segment(P(0, 0), P(2, 2)), Segment(P(0, 2), P(2, 0)))
    assert not segments_conflict(Segment(P(0, 0), P(1, 1)), Segment(P(1, 1), P(2, 0)))
    assert segments_conflict(Segment(P(0, 0), P(3, 0)), Segment(P(1, 0), P(2, 0)))
    # endpoint in the interior of the other segment
    assert segments_conflict(Segment(P(0, 0), P(4, 0)), Segment(P(2, 0), P(2, 5)))
    # collinear, sharing exactly one endpoint
    assert not segments_conflict(Segment(P(0, 0), P(1, 1)), Segment(P(1, 1), P(2, 2)))
    # identical segments overlap everywhere
    assert segments_conflict(Segment(P(0, 0), P(2, 2)), Segment(P(0, 0), P(2, 2)))
    # disjoint collinear
    assert not segments_conflict(Segment(P(0, 0), P(1, 0)), Segment(P(2, 0), P(3, 0)))


def test_segments_conflict_symmetric_random():
    rng = random.Random(2)
    for _ in range(500):
        coords = [rng.randrange(-6, 7) for _ in range(8)]
        try:
            s1 = Segment(P(coords[0], coords[1]), P(coords[2], coords[3]))
            s2 = Segment(P(coords[4], coords[5]), P(coords[6], coords[7]))
        except DegenerateSegmentError:
            continue
        assert segments_conflict(s1, s2) == segments_conflict(s2, s1)


def test_find_collinear_triple_examples():
    assert find_collinear_triple([P(0, 0), P(1, 1), P(2, 2)]) == (0, 1, 2)
    assert find_collinear_triple([P(0, 0), P(1, 0), P(0, 1)]) is None
    assert find_collinear_triple(parabola_pointset(7).points) is None


def test_find_collinear_triple_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(200):
        pts = []
        seen = set()
        while len(pts) < 9:
            cand = (rng.randrange(7), rng.randrange(7))
            if cand not in seen:
                seen.add(cand)
                pts.append(P(*cand))
        assert find_collinear_triple(pts) == brute_collinear_triple(pts)


def test_find_collinear_triple_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        find_collinear_triple([P(0, 0), P(1, 1), P(0, 0)])


def test_orient_zero_iff_triple_reported():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = (P(rng.randrange(-5, 6), rng.randrange(-5, 6)) for _ in range(3))
        if len({(p.x, p.y) for p in (a, b, c)}) < 3:
            continue
        zero = orient(a, b, c) == 0
        assert zero == (find_collinear_triple([a, b, c]) == (0, 1, 2))


def hull_bruteforce_membership(points):
    """A point is on the hull iff some closed halfplane through it contains
    every other point (cubic check over directions from the point)."""
    n = len(points)
    on_hull = set()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            side = [orient(points[i], points[j], points[k]) for k in range(n) if k not in (i, j)]
            if all(s >= 0 for s in side) or all(s <= 0 for s in side):
                on_hull.add(i)
                break
    return on_hull


def test_convex_hull_square():
    hull = convex_hull([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
    assert len(hull) == 4
    # counterclockwise: every consecutive triple turns left
    pts = [P(0, 0), P(1, 0), P(1, 1), P(0, 1)]
    for i in range(4):
        assert orient(pts[hull[i]], pts[hull[(i + 1) % 4]], pts[hull[(i + 2) % 4]]) == 1


def test_convex_hull_drops_interior():
    assert sorted(convex_hull([P(0, 0), P(4, 0), P(0, 4), P(1, 1)])) == [0, 1, 2]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_convex_hull_of_fewer_than_three_points_is_a_package_error(k):
    with pytest.raises(InvalidInstanceError, match="at least 3 points"):
        convex_hull([P(i, i * i) for i in range(k)])


def test_convex_hull_matches_halfplane_oracle():
    pts = parabola_pointset(5).points
    assert set(convex_hull(pts)) == hull_bruteforce_membership(pts)
    rng = random.Random(4)
    for _ in range(50):
        pts = []
        seen = set()
        while len(pts) < 10:
            cand = (rng.randrange(30), rng.randrange(30))
            if cand not in seen:
                seen.add(cand)
                pts.append(P(*cand))
        if find_collinear_triple(pts) is not None:
            continue
        assert set(convex_hull(pts)) == hull_bruteforce_membership(pts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), max_size=30),
    st.integers(-20, 20),
    st.integers(0, 30),
    st.integers(0, 3),
    st.integers(0, 2),
)
def test_parabola_lift_leaves_no_collinear_triple(coords, row, row_len, mult, extra):
    # Any base points, repeats allowed, plus a fully collinear row; any
    # prime p >= the point count and any scale that p divides.
    base = [P(x, y) for x, y in coords] + [P(x, row) for x in range(row_len)]
    p = _next_prime(len(base))
    for _ in range(extra):
        p = _next_prime(p + 1)
    lifted = _parabola_lift(base, mult * p, p)
    assert find_collinear_triple(lifted) is None
    assert lifted == [P(mult * p * b.x + i, mult * p * b.y + i * i % p) for i, b in enumerate(base)]


def test_next_prime():
    assert [_next_prime(m) for m in (0, 1, 2, 3, 4, 14, 4507, 4508)] == [2, 2, 2, 3, 5, 17, 4507, 4513]
