"""Embedders for instances without a prescribed vertex mapping.

The pipeline building blocks: a shift-method grid drawing for plane
triangulations, a mod-p parabola lift that upgrades it to general position
in closed form, parabola-based point sets that are collinearity-free by
construction, and the split-by-split embedding of a maximal outerplanar
graph onto an arbitrary general-position point set: one angular-rank split
rule, proved in :func:`_select_split`, applied to an explicit stack of
subproblems that sort their angular orders only when a split reads them.
:func:`simul_embed_free` composes them: one point set, then every
outerplanar layer mapped onto it.
"""

from __future__ import annotations

import heapq
from functools import cmp_to_key
from itertools import groupby
from typing import Optional

from .errors import (
    InternalInvariantError,
    InvalidInstanceError,
    UnsupportedInstanceError,
)
from .geometry import (
    COORD_LIMIT,
    GridPoint,
    _check_coord_budget,
    _next_prime,
    _parabola_lift,
    _translate_to_origin,
    convex_hull,
    find_collinear_triple,
    orient,
)
from .graphs import (
    Layer,
    SimultaneousEmbedding,
    check_plane_embedding,
    maximalize_outerplanar,
    triangulate_plane,
    validate_layer,
)


# ---------------------------------------------------------------------------
# Shift-method drawing of plane triangulations
# ---------------------------------------------------------------------------


def planar_grid_draw(layer: Layer, n: int) -> list[GridPoint]:
    """Draw a plane triangulation on the (2n-4) x (n-2) grid.

    Incremental construction: vertices enter in a canonical order along
    the outer face, each insertion shifting the covered part of the
    drawing right by one or two columns so the new fan stays planar.
    The outer face is the lexicographically smallest face walk.
    """
    check_plane_embedding(layer, n)
    if len(layer.edges) != 3 * n - 6:
        raise InvalidInstanceError("grid drawing requires a triangulation (E = 3n-6)")
    return _draw_triangulation(layer.rotation, n)


def _draw_triangulation(rotation: list[list[int]], n: int) -> list[GridPoint]:
    """planar_grid_draw for a rotation system already known to be a plane
    embedding with 3n - 6 edges, in time linear in n.

    Every face is a triangle: Euler gives 2n - 4 faces, whose walks share
    the 6n - 12 darts and each take at least 3.  The smallest face walk
    contains vertex 0, and each dart (0, x) starts exactly one triangle
    (0, x, w), w the predecessor of 0 in x's rotation, so the outer face is
    the smallest of those.

    Placement follows Chrobak & Payne (IPL 1995): instead of shifting the
    absolute x of every covered vertex right of an insertion, ``dx[w]`` keeps
    x(w) minus the x of w's predecessor on the outer path, frozen once w is
    covered (the first covered vertex of a fan counts from the vertex that
    covers it).  An insertion then changes three offsets, and one pass over
    the peel order adds them up.
    """
    v1, v2, v_top = min(
        (0, x, rotation[x][rotation[x].index(0) - 1]) for x in rotation[0]
    )

    # Reverse canonical order: peel chord-free outer vertices off the path
    # from v1 to v2, recording the fan of alive neighbors each leaves behind.
    # ``path_deg[v]`` counts v's neighbours on the path (all alive), kept
    # up to date as vertices enter and leave it; a path vertex other than
    # v1, v2 is chord-free when it has exactly its two path neighbours.
    # ``ready`` is a heap of such vertices, checked again when popped, so
    # the smallest chord-free vertex is picked.
    alive = [True] * n
    on_path = [False] * n
    path_deg = [0] * n
    nxt = {v1: v_top, v_top: v2}
    prv = {v_top: v1, v2: v_top}
    ready: list[int] = []

    def enter(w: int) -> None:
        on_path[w] = True
        for x in rotation[w]:
            if on_path[x]:
                path_deg[x] += 1
                path_deg[w] += 1
                if path_deg[x] == 2 and x != v1 and x != v2:
                    heapq.heappush(ready, x)
        if path_deg[w] == 2 and w != v1 and w != v2:
            heapq.heappush(ready, w)

    def path_iter():
        v = v1
        while True:
            yield v
            if v == v2:
                return
            v = nxt[v]

    for v in (v1, v_top, v2):
        enter(v)
    fans: dict[int, tuple[int, list[int], int]] = {}
    removal_order: list[int] = []
    for _ in range(n - 3):
        while ready and not (on_path[ready[0]] and path_deg[ready[0]] == 2):
            heapq.heappop(ready)
        if not ready:
            raise InternalInvariantError("no chord-free outer vertex available")
        u = heapq.heappop(ready)
        a, b = prv[u], nxt[u]
        alive_ring = [w for w in rotation[u] if alive[w]]
        ia = alive_ring.index(a)
        ring_a = alive_ring[ia:] + alive_ring[:ia]
        if ring_a[-1] == b:
            interior = ring_a[1:-1]
        else:
            ib = alive_ring.index(b)
            ring_b = alive_ring[ib:] + alive_ring[:ib]
            if ring_b[-1] != a:
                raise InternalInvariantError("outer vertex fan is not contiguous")
            interior = ring_b[1:-1][::-1]
        fans[u] = (a, interior, b)
        removal_order.append(u)
        alive[u] = False
        on_path[u] = False
        for x in rotation[u]:
            if on_path[x]:
                path_deg[x] -= 1
                if path_deg[x] == 2 and x != v1 and x != v2:
                    heapq.heappush(ready, x)
        prev = a
        for w in interior:
            enter(w)
            nxt[prev] = w
            prv[w] = prev
            prev = w
        nxt[prev] = b
        prv[b] = prev

    remaining = [v for v in path_iter()]
    if len(remaining) != 3:
        raise InternalInvariantError("canonical peeling left a non-triangle")
    v3 = remaining[1]

    # Replaying the peel in reverse, v covers exactly its fan's interior,
    # the path between a and b.
    dx = [0] * n
    ys = [0] * n
    dx[v3], ys[v3] = 1, 1
    dx[v2] = 1
    for v in reversed(removal_order):
        a, interior, b = fans[v]
        # Shift the interior right by one column, b and all right of it by two.
        dx[interior[0] if interior else b] += 1
        dx[b] += 1
        run = sum(dx[w] for w in interior) + dx[b]  # x(b) - x(a)
        ya, yb = ys[a], ys[b]
        if (run - ya + yb) % 2 != 0:
            raise InternalInvariantError("diagonal intersection left the lattice")
        dx[v] = (run - ya + yb) // 2
        ys[v] = (run + ya + yb) // 2
        dx[b] = run - dx[v]
        if interior:
            dx[interior[0]] -= dx[v]

    # The path ends as v1, v_top, v2, and each vertex is placed before the
    # fan interior it covers, which follows it in the peel order.
    xs = [0] * n
    xs[v_top] = dx[v_top]
    xs[v2] = xs[v_top] + dx[v2]
    for v in removal_order:
        x = xs[v]
        for w in fans[v][1]:
            x += dx[w]
            xs[w] = x

    if min(xs) < 0 or max(xs) > 2 * n - 4 or min(ys) < 0 or max(ys) > n - 2:
        raise InternalInvariantError("drawing escaped the (2n-4) x (n-2) grid")
    return [GridPoint(xs[v], ys[v]) for v in range(n)]


# ---------------------------------------------------------------------------
# General-position drawing
# ---------------------------------------------------------------------------


def _planar_lift(n: int) -> tuple[int, int]:
    # The prime p and scale lambda of planar_general_position_draw.
    p = _next_prime(n)
    return p, p * (6 * n + 1)


def general_position_bounds(n: int) -> tuple[int, int]:
    """Documented extent bound for :func:`planar_general_position_draw`."""
    if n > COORD_LIMIT:
        # refused before a prime search near n; the check's own calls stay below 2^40
        _check_general_position_budget(n)
    p, lam = _planar_lift(n)
    return lam * (2 * n - 4) + p, lam * (n - 2) + p


def _check_general_position_budget(n: int) -> None:
    # the CLI's gen runs it too, so it writes no instance that embed refuses
    _check_coord_budget(
        n, lambda k: max(general_position_bounds(k)), "a general-position drawing"
    )


def planar_general_position_draw(layer: Layer, n: int) -> list[GridPoint]:
    """Draw a plane graph so that additionally no three vertices are collinear.

    Triangulates and draws the triangulation on the (2n-4) x (n-2) grid as
    base points b_i, then lifts vertex i to lam * b_i + o_i with offset
    o_i = (i, i^2 mod p), p the smallest prime >= n and lam = p(6n + 1).
    The drawing fits in :func:`general_position_bounds`, which is checked
    against COORD_LIMIT before any work: at most 4507 vertices fit.  As p
    divides lam, :func:`geometry._parabola_lift` leaves no three collinear.

    Orientations: a lifted triple's determinant is lam^2 D_b + lam E + D_o,
    with D_b the base determinant, D_o that of the offsets and E the two
    mixed cross products of base and offset differences.  Base differences
    are at most 2n - 4 and n - 2 per axis and offset differences at most
    p - 1, so |E| < 2(3n - 6)p < 6np and |D_o| < 2p^2 <= lam * p.  Hence
    lam^2 = lam * 6np + lam * p exceeds the error, and every nonzero base
    orientation keeps its sign.

    Plane: the base drawing is plane with distinct points.  With no three
    lifted points collinear, no vertex lies on an edge and edges sharing an
    endpoint cannot overlap, so lifted edges ab and cd can only cross
    properly, each separating the other's endpoints.
      * No base orientation among a, b, c, d is zero: all four signs are
        kept, so the base edges would cross.
      * c or d on base line ab (beyond the edge), neither a nor b on base
        line cd: a and b keep their strict sides of line cd, so base
        segment ab meets line cd, at the one common point of the two
        lines, which is the vertex of c, d on line ab.  That vertex would
        lie on base edge ab, which the plane base forbids.  Likewise for
        a or b on base line cd.
      * c or d on base line ab and a or b on base line cd: if the lines
        differ, both vertices sit at their one common point, impossible.
        Otherwise all four are collinear and the base edges are disjoint
        intervals of one line with primitive direction w.  In w . (x, y),
        distinct base points on it differ by at least |w|^2 and two
        offsets by at most (|w_x| + |w_y|)(p - 1) < lam |w|^2, so the
        lifted points keep their order along w and a line across w
        separates the edges.
    """
    _check_general_position_budget(n)
    tri, _dummies = triangulate_plane(layer, n)
    base = _draw_triangulation(tri.rotation, n)
    p, lam = _planar_lift(n)
    return _parabola_lift(base, lam, p)


# ---------------------------------------------------------------------------
# Parabola point sets
# ---------------------------------------------------------------------------


def _check_parabola_budget(n: int) -> None:
    # coordinates of parabola_pointset(n) stay below its prime; the CLI's
    # gen runs it too, so it writes no instance that embed refuses
    _check_coord_budget(n, _next_prime, "a parabola point set")


def parabola_pointset(n: int) -> list[GridPoint]:
    """The n points (t, t^2 mod p) for t = 1..n, p the smallest prime >= n.

    No three are collinear, by construction.  As in
    :func:`geometry._parabola_lift`, the determinant of the points with
    parameters a < b < c, reduced mod p, is that of the offsets (t, t^2)
    for t = a, b, c: the Vandermonde product (b - a)(c - a)(c - b).  Each
    factor lies in 1..n-1 and so below p, which is prime and divides none
    of them; hence the determinant is nonzero.
    """
    if n < 1:
        raise InvalidInstanceError("point set needs at least one point")
    _check_parabola_budget(n)
    p = _next_prime(n)
    return [GridPoint(t, (t * t) % p) for t in range(1, n + 1)]


# ---------------------------------------------------------------------------
# Outerplanar graphs onto fixed point sets
# ---------------------------------------------------------------------------

def _angular_sort(
    pts: list[GridPoint], pivot: int, ref: int, others: list[int]
) -> list[int]:
    # Sort point indices by angle around the pivot, from the ray pivot->ref;
    # every point lies strictly on one side of the line through the two.
    # The key -dot/|cross| is minus the cotangent of that angle, strictly
    # increasing in it.  CPython's int / int is correctly rounded, hence
    # monotone, so two points with different float keys are in the right
    # order; only a run of equal keys needs the exact orientation predicate.
    o, r = pts[pivot], pts[ref]
    dx, dy = r.x - o.x, r.y - o.y
    # dot = d . (s - o) and cross = d x (s - o) for d = ref - pivot, with
    # d . o and d x o taken out of the loop.
    dot_o, cross_o = dx * o.x + dy * o.y, dx * o.y - dy * o.x
    key = {
        s: (dot_o - dx * pts[s].x - dy * pts[s].y)
        / abs(dx * pts[s].y - dy * pts[s].x - cross_o)
        for s in others
    }
    order = sorted(others, key=key.__getitem__)
    if len(set(key.values())) == len(order):
        return order
    side = orient(o, r, pts[order[0]])
    exact = cmp_to_key(lambda s, t: -side * orient(o, pts[s], pts[t]))
    repaired: list[int] = []
    for _, run in groupby(order, key.__getitem__):
        repaired.extend(sorted(run, key=exact))
    return repaired


def embed_outerplanar_on_points(layer: Layer, pts: list[GridPoint]) -> list[int]:
    """Map a maximal outerplanar graph onto general-position points without
    crossings; returns point index per vertex.

    Split by split: the designated outer-cycle edge sits on a hull edge
    (p, q) of its point subset; the apex of its internal triangle goes to
    the split point r that :func:`_select_split` proves to exist, and the
    two sides become subproblems whose designated edges (p, r) and (r, q)
    are again hull edges of their own subsets.  Pending subproblems live on
    an explicit stack, so the depth of the outerplanar graph's dual tree
    never meets the interpreter's recursion limit.

    A split does only the work its side sizes need (see
    :func:`_embed_chain`).  When one side is empty, r is the first point
    in one angular order and the other side keeps the rest of that order,
    so nothing is sorted; the fan-like layers that
    :func:`graphs.maximalize_outerplanar` makes from sparse input are mostly
    such splits.  An angular order is sorted only when a split with two
    nonempty sides needs it, by float keys that are exact up to ties (see
    :func:`_angular_sort`), and then only around its new point r, with no
    rank table (see :func:`_select_split`).  What stays quadratic in the
    worst case is work per split over the whole subproblem: the copy of
    the surviving order, the sort around r when one side stays small (the
    apex two past the low end), and, when the empty side alternates as in
    a zig-zag, the sort of the order the parent did not pass down.
    """
    validate_layer(layer, len(pts))
    if layer.kind != "outerplanar":
        raise InvalidInstanceError("point-set embedding expects an outerplanar layer")
    if find_collinear_triple(pts) is not None:
        raise InvalidInstanceError("points are not in general position")
    return _embed_on_general_position(layer, pts, _hull_root(pts))


#: The root of the split: the designated hull edge (p, q) and the other
#: points by angle around p, from ray pq.
Root = tuple[int, int, list[int]]


def _hull_root(pts: list[GridPoint]) -> Optional[Root]:
    """The root of the split on distinct points in general position: the
    lexicographically least hull edge, its ends (p, q) in point order, and
    the other points sorted by angle around p.  It depends on the points
    alone, so :func:`simul_embed_free` computes it once for all of its
    outerplanar layers.  None for fewer than three points, which no split
    reads."""
    if len(pts) < 3:
        return None
    hull = convex_hull(pts)
    hull_edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    best = min(hull_edges, key=lambda e: sorted((pts[e[0]], pts[e[1]])))
    p_idx, q_idx = sorted(best, key=pts.__getitem__)
    others = [i for i in range(len(pts)) if i != p_idx and i != q_idx]
    return p_idx, q_idx, _angular_sort(pts, p_idx, q_idx, others)


def _embed_on_general_position(
    layer: Layer, pts: list[GridPoint], root: Optional[Root]
) -> list[int]:
    # embed_outerplanar_on_points for a valid outerplanar layer and points
    # known to be distinct and in general position, such as the point sets
    # of simul_embed_free, which are so by construction; root is
    # _hull_root(pts), which the caller may share between layers.
    k = len(pts)
    if k == 1:
        return [0]
    if k == 2:
        return [0, 1]
    if len(layer.edges) != 2 * k - 3:
        raise InvalidInstanceError(
            "point-set embedding expects a maximal outerplanar layer (E = 2n-3)"
        )
    adj = [set() for _ in range(k)]
    for u, v in layer.edges:
        adj[u].add(v)
        adj[v].add(u)
    cyc = layer.outer_cycle
    for i in range(k):
        if cyc[(i + 1) % k] not in adj[cyc[i]]:
            raise InvalidInstanceError("maximal outerplanar layer is missing a cycle edge")

    p_idx, q_idx, by_p = root
    chain = [cyc[0]] + cyc[:0:-1]
    phi = [-1] * k
    _embed_chain(pts, adj, chain, phi, [(0, k - 1, by_p, None, p_idx, q_idx)])
    if sorted(phi) != list(range(k)):
        raise InternalInvariantError("point assignment is not a bijection")
    return phi


#: A pending subproblem (lo, hi, by_p, by_q, p_i, q_i) of :func:`_embed_chain`.
Subproblem = tuple[int, int, Optional[list[int]], Optional[list[int]], int, int]


def _embed_chain(
    pts: list[GridPoint],
    adj: list[set[int]],
    chain: list[int],
    phi: list[int],
    stack: list[Subproblem],
) -> None:
    """Run the pending subproblems on ``stack`` to the end.

    A subproblem (lo, hi, by_p, by_q, p_i, q_i) maps the ends of the
    interval ``chain[lo..hi]`` of the root chain to the hull edge
    (p_i, q_i) and its inner vertices to its points, listed by angle
    around p_i from ray p_i q_i (``by_p``) and around q_i from ray q_i p_i
    (``by_q``).  Either order may be None, not sorted yet, but never both.
    That (p_i, q_i) is a hull edge of the subproblem's points follows from
    the proof in :func:`_select_split` and is not checked again here.  The
    apex of the designated edge (u, v) is a common neighbour strictly
    inside the interval, found through the positions of the chain's
    vertices in time linear in the smaller degree.

    With n_a points on the p side of the apex and n_b on the q side, the
    split rule of :func:`_select_split` needs no sort when a side is
    empty.  If n_b = 0, every q-rank is at most m - 1 = n_a, so r is
    ``by_p[0]`` and A keeps ``by_p[1:]`` as its order around p, with its
    order around r not sorted.  If n_a = 0, r is the first point in p-order
    with q-rank 0, which is ``by_q[0]``, and B keeps ``by_q[1:]``.  A
    missing order is sorted only when a split needs it.  Every order is a
    total order of its points (general position, all on one side of the
    edge), and :func:`_angular_sort` is exact, so a late sort equals the
    one the parent would have passed down, and the result is the same as
    with both orders always kept.  Beyond those sorts and the rule, the
    only pass a split makes over its points is the copy of that tail.
    """
    pos = [0] * len(chain)
    for i, v in enumerate(chain):
        pos[v] = i
    while stack:
        lo, hi, by_p, by_q, p_i, q_i = stack.pop()
        u, v = chain[lo], chain[hi]
        phi[u] = p_i
        phi[v] = q_i
        if hi - lo == 1:
            continue
        apexes = [w for w in adj[u] & adj[v] if lo < pos[w] < hi]
        if len(apexes) != 1:
            raise InvalidInstanceError(
                f"edge ({u},{v}) must close exactly one triangle inside its chain"
            )
        j = pos[apexes[0]]
        n_a = j - lo - 1
        n_b = hi - j - 1

        # Sort a missing order only if the split below reads it: by_p
        # unless n_a = 0 < n_b, by_q unless n_b = 0.
        if by_p is None and (n_a > 0 or n_b == 0):
            by_p = _angular_sort(pts, p_i, q_i, by_q)
        if by_q is None and n_b > 0:
            by_q = _angular_sort(pts, q_i, p_i, by_p)
        if n_b == 0:
            r, part_a, part_b = by_p[0], (by_p[1:], None), ([], [])
        elif n_a == 0:
            r, part_a, part_b = by_q[0], ([], []), (None, by_q[1:])
        else:
            r, part_a, part_b = _select_split(pts, p_i, q_i, by_p, by_q, n_a, n_b)
        stack.append((j, hi, *part_b, r, q_i))
        stack.append((lo, j, *part_a, p_i, r))


def _select_split(
    pts: list[GridPoint],
    p: int,
    q: int,
    by_p: list[int],
    by_q: list[int],
    n_a: int,
    n_b: int,
) -> tuple[int, tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    """Pick the apex point r and the point sets A (n_a points) and B (n_b).

    The m = n_a + n_b + 1 points lie strictly on one side of the hull edge
    (p, q); ``by_p`` and ``by_q`` list them by angle around p, from ray pq,
    and around q, from ray qp.  This is the constructive split behind the
    point-set embeddings of Gritzmann, Mohar, Pach & Pollack (1991) and
    Bose (CGTA 2002).  A point lies beyond line pr (on the far side from
    q) exactly when its p-rank is above r's, beyond line qr (on the far
    side from p) exactly when its q-rank is above r's, and inside triangle
    pqr exactly when both its ranks are below r's.

    Rule: r is the first point in p-order whose q-rank is at most n_a.
    Points beyond pr only go to A and points beyond qr only go to B.  The
    points beyond both fill the wedge at r opposite the triangle; sorted
    by angle around r, they are cut so that |A| = n_a.  A line through r
    between the two parts of that wedge crosses the open segment pq, with
    p and A strictly on one side and q and B on the other.  A lies beyond
    pr and B beyond qr, so (p, r) and (r, q) are hull edges of their sides
    and the two sub-drawings meet only at r.

    Nothing in the package re-checks this hull-edge invariant per split.
    It is checked instead by the eager driver in ``tests/reference.py``,
    which asserts it on every split and which the production driver must
    match; by the property tests in ``tests/test_split.py``; and, for
    every drawing, by the certifier that runs on every ``embed``, which
    reports any crossing the split would cause.

    Existence: the n_b + 1 lowest p-ranks and the n_a + 1 lowest q-ranks
    make m + 1 picks from m points, so some point is picked twice; r, the
    first such point in p-order, has p-rank <= n_b and q-rank <= n_a.  A
    point inside triangle pqr would have both ranks below r's and so come
    before r, hence the triangle is empty: every point but r lies beyond
    pr, beyond qr, or both.  At least m - 1 - n_b = n_a points lie beyond
    pr and at least n_b beyond qr, so at most n_a lie beyond pr only, at
    most n_b beyond qr only, and the cut falls inside the wedge.  (Equally,
    r is the first point in p-order with an empty triangle pqr, at least
    n_a points beyond pr and at least n_b beyond qr.)

    Degenerate sides: if n_b = 0, every q-rank is at most m - 1 = n_a, so
    r = ``by_p[0]`` and A is ``by_p[1:]``; if n_a = 0, r is the point of
    q-rank 0, ``by_q[0]``, and B is ``by_q[1:]``.  :func:`_embed_chain`
    takes those splits itself, without this function's sorts.

    Returns each side as its subproblem's two angular orders: A around p
    and around r, B around r and around q.  The rule needs no rank table:
    r is the first point of ``by_p`` among the n_a + 1 first of ``by_q``.
    Around r, from ray rp, the points after r in ``by_p`` (beyond pr) put
    those beyond pr only before the wedge; there are at most n_a of them
    and at least n_a points beyond pr, so A is the n_a first points of
    that order, which is A's order around r.  B takes the rest, reversed,
    after the points before r in ``by_p``: those lie beyond qr only, as
    triangle pqr is empty, so from ray rq they come first.  A lies beyond
    pr and B beyond qr, so A's order around p is ``by_p`` restricted to A
    and B's around q is ``by_q`` restricted to B.  Only orders around the
    new point r need sorting (general position makes every order total),
    and every point is sorted around r once.  :func:`_angular_sort` keys
    each point by minus the cotangent of its angle, -dot/|cross|, a
    correctly rounded int / int that never inverts two points; only points
    with equal float keys are ordered by the exact orientation predicate.
    """
    head = set(by_q[: n_a + 1])
    i, r = next((i, x) for i, x in enumerate(by_p) if x in head)
    beyond_p = by_p[i + 1 :]
    around_r = _angular_sort(pts, r, p, beyond_p)
    in_a = set(around_r[:n_a])
    return (
        r,
        ([x for x in beyond_p if x in in_a], around_r[:n_a]),
        (
            _angular_sort(pts, r, q, by_p[:i]) + around_r[n_a:][::-1],
            [x for x in by_q[by_q.index(r) + 1 :] if x not in in_a],
        ),
    )


# ---------------------------------------------------------------------------
# Composition pipelines
# ---------------------------------------------------------------------------


def simul_embed_free(layers: list[Layer], n: int) -> SimultaneousEmbedding:
    """Embed at most one plane graph and any number of outerplanar graphs
    on one point set, with no vertex mapping given.

    The points are the plane layer's general-position drawing, within
    :func:`general_position_bounds`, or without a plane layer the
    parabola set, within p x p for p the smallest prime >= n.  Both
    check their extent against COORD_LIMIT before any work, and both leave
    no three points collinear by construction, so neither is checked
    again.  Each outerplanar layer is maximalized, which validates it and
    refuses crossing chords before any point is drawn, and mapped onto
    those points by the split of :func:`embed_outerplanar_on_points`.
    Layers keep their order and their own index spaces; the returned
    assignments map them onto the shared points, the identity for the
    plane layer.
    """
    if not layers:
        raise InvalidInstanceError("need at least one layer")
    kinds = [layer.kind for layer in layers]
    if any(k not in ("planar", "outerplanar") for k in kinds) or kinds.count("planar") > 1:
        raise UnsupportedInstanceError(
            f"no without-mapping embedder for classes {kinds}; supported: "
            "at most one planar layer plus any number of outerplanar layers"
        )
    planar = [layer for layer in layers if layer.kind == "planar"]
    if not planar:
        _check_parabola_budget(n)  # the plane drawing checks its own first
    # None for the plane layer, which its drawing validates
    maximal = [
        maximalize_outerplanar(layer, n)[0] if layer.kind == "outerplanar" else None
        for layer in layers
    ]
    pts = planar_general_position_draw(planar[0], n) if planar else parabola_pointset(n)
    root = _hull_root(pts) if "outerplanar" in kinds else None
    assignments = [
        list(range(n)) if m is None else _embed_on_general_position(m, pts, root)
        for m in maximal
    ]
    xs, ys = _translate_to_origin([p.x for p in pts], [p.y for p in pts])
    return SimultaneousEmbedding(xs=xs, ys=ys, assignments=assignments)
