"""Property tests for the outerplanar point-set split.

``_select_split`` claims a split exists for every n_a; these tests draw
general-position point sets and try every n_a on the designated hull edge,
and check that with an empty side the rule picks the first point of one
angular order, which is the split the driver takes without it.
"""

import sys

from hypothesis import given, settings, strategies as st

from helpers import embedding_of, general_position_points
from simembed import (
    Layer,
    LayeredInstance,
    certify_embedding,
    convex_hull,
    embed_outerplanar_on_points,
    generate,
    orient,
    parabola_pointset,
)
from simembed import unmapped


def lowest_hull_edge(pts):
    hull = convex_hull(pts)
    edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    p, q = min(edges, key=lambda e: sorted((pts[e[0]], pts[e[1]])))
    return (p, q) if pts[p] < pts[q] else (q, p)


def separated_at(pts, r, left, right):
    # A line through r and some point w, turned slightly about r so that w
    # joins its own set, has ``left`` strictly on one side, ``right`` on
    # the other.  Such lines cover every separating line through r.
    for w in left + right:
        sl = {orient(pts[r], pts[w], pts[x]) for x in left if x != w}
        sr = {orient(pts[r], pts[w], pts[x]) for x in right if x != w}
        if len(sl) <= 1 and len(sr) <= 1 and not sl & sr and 0 not in sl | sr:
            return True
    return False


def root_orders(pts):
    p, q = lowest_hull_edge(pts)
    others = [i for i in range(len(pts)) if i not in (p, q)]
    return p, q, unmapped._angular_sort(pts, p, q, others), unmapped._angular_sort(pts, q, p, others)


@settings(max_examples=150, deadline=None)
@given(general_position_points())
def test_split_exists_for_every_n_a(pts):
    p, q, by_p, by_q = root_orders(pts)
    m = len(by_p)
    for n_a in range(m):
        r, (part_a, a_by_r), (b_by_r, part_b) = unmapped._select_split(
            pts, p, q, by_p, by_q, n_a, m - 1 - n_a
        )
        # each side comes back in its subproblem's two angular orders
        assert part_a == unmapped._angular_sort(pts, p, r, part_a)
        assert a_by_r == unmapped._angular_sort(pts, r, p, part_a)
        assert b_by_r == unmapped._angular_sort(pts, r, q, part_b)
        assert part_b == unmapped._angular_sort(pts, q, r, part_b)
        assert len(part_a) == n_a and len(part_b) == m - 1 - n_a
        assert sorted(part_a + part_b + [r]) == sorted(by_p)
        # A strictly beyond line pr (away from q), B strictly beyond line rq
        away_q = -orient(pts[p], pts[r], pts[q])
        away_p = -orient(pts[r], pts[q], pts[p])
        assert all(orient(pts[p], pts[r], pts[x]) == away_q for x in part_a)
        assert all(orient(pts[r], pts[q], pts[x]) == away_p for x in part_b)
        assert separated_at(pts, r, [p] + part_a, [q] + part_b)


@settings(max_examples=150, deadline=None)
@given(general_position_points())
def test_split_with_an_empty_side_takes_the_first_point(pts):
    # The split driver takes these two splits without calling the rule;
    # here the rule itself picks the same r and the same surviving order.
    p, q, by_p, by_q = root_orders(pts)
    m = len(by_p)
    r, (part_a, _), (_, part_b) = unmapped._select_split(pts, p, q, by_p, by_q, 0, m - 1)
    assert (r, part_a, part_b) == (by_q[0], [], by_q[1:])
    r, (part_a, _), (_, part_b) = unmapped._select_split(pts, p, q, by_p, by_q, m - 1, 0)
    assert (r, part_a, part_b) == (by_p[0], by_p[1:], [])


@settings(max_examples=60, deadline=None)
@given(general_position_points(max_size=20), st.integers(0, 10**6))
def test_embedding_certifies_on_any_points(pts, seed):
    k = len(pts)
    lay = generate("maximal-outerplanar", k, seed)
    phi = embed_outerplanar_on_points(lay, pts)
    emb = embedding_of(pts, assignments=[phi])
    assert certify_embedding(emb, LayeredInstance(n=k, layers=[lay], mapping="free")).ok


def test_deep_fan_needs_no_recursion():
    # every chord at vertex 0: the subproblems nest n - 2 deep
    n = 300
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    edges += [(0, i) for i in range(2, n - 1)]
    fan = Layer("outerplanar", edges, outer_cycle=list(range(n)))
    pts = parabola_pointset(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        phi = embed_outerplanar_on_points(fan, pts)
    finally:
        sys.setrecursionlimit(limit)
    emb = embedding_of(pts, assignments=[phi])
    assert certify_embedding(emb, LayeredInstance(n=n, layers=[fan], mapping="free")).ok
