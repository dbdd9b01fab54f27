"""Straightforward reference versions of optimized package routines.

Each function here is the plain algorithm the package's faster code must
match exactly; ``test_reference.py`` compares them on random inputs.
``brute_force_point_assignment`` is an exhaustive oracle instead: tests
use it to confirm that small point sets admit the embeddings found.

The five-point search has one oracle per mode, which place vertices on
coordinates and test them with ``_conflict_raw`` through one shared
``five_point_level_check``, and share no mask or grid table with
``simembed.smallcases``: ``five_point_check_dfs`` for the exhaustive
search, with its placement counts, ``sampled_five_point_check``, the
sampled probe as it drew, for the path sets no order type carries, which
the search still reports as that many failed draws, and
``five_point_witness_scan`` for the others above grid 8, which reads only
the order types' points, ``_ORDER_TYPES``, from the package.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from functools import cmp_to_key
from typing import Callable, Optional, Sequence

from simembed import (
    Caterpillar,
    GridPoint,
    PathOrder,
    Violation,
    InternalInvariantError,
    InvalidInstanceError,
    Layer,
    convex_hull,
    validate_layer,
)
from simembed import certify, unmapped
from simembed.errors import SearchBudgetError
from simembed.geometry import _conflict_raw, orient
from simembed.graphs import _adjacency, _connected, _trace_faces, rotation_system_from_faces
from simembed.smallcases import (
    EXHAUSTIVE_GRID_LIMIT,
    _ORDER_TYPES,
    FivePointSearchResult,
    _fundamental_domain,
    _grid_points,
)


def _chords_cross(n: int, pos_a: int, pos_b: int, pos_c: int, pos_d: int) -> bool:
    # Chords (a,b) and (c,d) of a cyclic order cross iff exactly one of c, d
    # lies strictly inside the arc from a to b.
    def inside(p: int) -> bool:
        return (p - pos_a) % n < (pos_b - pos_a) % n and p != pos_a

    return inside(pos_c) != inside(pos_d)


def chords_cross(cycle: list[int], e: tuple[int, int], f: tuple[int, int]) -> bool:
    """Whether chords e and f share no endpoint and cross in ``cycle``."""
    pos = {v: i for i, v in enumerate(cycle)}
    (a, b), (c, d) = e, f
    return len({a, b, c, d}) == 4 and _chords_cross(
        len(cycle), pos[a], pos[b], pos[c], pos[d]
    )


def crossing_chords_pair_scan(
    cycle: list[int], edges: list[tuple[int, int]]
) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """The first pair of chords, in edge order, that cross in the cyclic
    order ``cycle``, found by testing every pair; None when no two cross."""
    n = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    chords = [(u, v) for u, v in edges if (pos[v] - pos[u]) % n not in (1, n - 1)]
    for i, (a, b) in enumerate(chords):
        for c, d in chords[i + 1 :]:
            if len({a, b, c, d}) == 4 and _chords_cross(n, pos[a], pos[b], pos[c], pos[d]):
                return (a, b), (c, d)
    return None


def plane_triangulation_rebuild(n: int, seed: int) -> Layer:
    """``generate("plane-triangulation", n, seed)`` as it was written first:
    the dart -> face map is rebuilt and every edge re-sorted before each of
    the 4n flips."""
    rng = random.Random(("plane-triangulation", n, seed).__repr__())
    labels = list(range(n))
    rng.shuffle(labels)
    a, b, c = labels[0], labels[1], labels[2]
    faces = [(a, b, c), (a, c, b)]
    for v in labels[3:]:
        fa, fb, fc = faces.pop(rng.randrange(len(faces)))
        faces.extend([(fa, fb, v), (fb, fc, v), (fc, fa, v)])

    def edge_faces():
        m = {}
        for fi, f in enumerate(faces):
            for i in range(3):
                m[(f[i], f[(i + 1) % 3])] = fi
        return m

    edge_set = set()
    for f in faces:
        for i in range(3):
            edge_set.add(frozenset((f[i], f[(i + 1) % 3])))
    for _ in range(4 * n):
        darts = edge_faces()
        u, v = sorted(rng.choice(sorted(tuple(sorted(e)) for e in edge_set)))
        if rng.random() < 0.5:
            u, v = v, u
        f1 = faces[darts[(u, v)]]
        f2 = faces[darts[(v, u)]]
        cc = next(x for x in f1 if x not in (u, v))
        dd = next(x for x in f2 if x not in (u, v))
        if cc == dd or frozenset((cc, dd)) in edge_set:
            continue
        faces[darts[(u, v)]] = (cc, u, dd)
        faces[darts[(v, u)]] = (dd, v, cc)
        edge_set.discard(frozenset((u, v)))
        edge_set.add(frozenset((cc, dd)))

    edges = sorted(tuple(sorted(e)) for e in edge_set)
    return Layer(kind="planar", edges=edges, rotation=rotation_system_from_faces(n, faces))


def plane_triangulation_sorted_flips(n: int, seed: int) -> Layer:
    """``generate("plane-triangulation", n, seed)`` with the flip
    bookkeeping written plainly: a flip finds each face's third vertex by a
    scan and rewrites all six darts of its two faces, and the initial edge
    list comes from a set of ``(min, max)`` pairs."""
    if n < 3:
        raise InvalidInstanceError("triangulation needs n >= 3")
    rng = random.Random(("plane-triangulation", n, seed).__repr__())
    labels = list(range(n))
    rng.shuffle(labels)
    a, b, c = labels[0], labels[1], labels[2]
    faces: list[tuple[int, int, int]] = [(a, b, c), (a, c, b)]
    for v in labels[3:]:
        fa, fb, fc = faces.pop(rng.randrange(len(faces)))
        faces.extend([(fa, fb, v), (fb, fc, v), (fc, fa, v)])

    darts = {(f[i], f[(i + 1) % 3]): fi for fi, f in enumerate(faces) for i in range(3)}
    edges = sorted({(min(u, v), max(u, v)) for u, v in darts})
    for _ in range(4 * n):
        edge = rng.choice(edges)
        u, v = edge
        if rng.random() < 0.5:
            u, v = v, u
        i1, i2 = darts[(u, v)], darts[(v, u)]
        cc = next(x for x in faces[i1] if x not in (u, v))
        dd = next(x for x in faces[i2] if x not in (u, v))
        if cc == dd or (cc, dd) in darts:
            continue
        del darts[(u, v)], darts[(v, u)]
        for fi, f in ((i1, (cc, u, dd)), (i2, (dd, v, cc))):
            faces[fi] = f
            for i in range(3):
                darts[(f[i], f[(i + 1) % 3])] = fi
        del edges[bisect.bisect_left(edges, edge)]
        bisect.insort(edges, (min(cc, dd), max(cc, dd)))

    rotation = rotation_system_from_faces(n, faces)
    return Layer(kind="planar", edges=edges, rotation=rotation)


def as_path_neighbour_lists(layer: Layer, n: int) -> PathOrder:
    """``as_path`` by adjacency lists: from the lower end, each step keeps
    the neighbours of the last vertex other than the one before it."""
    validate_layer(layer, n)
    if len(layer.edges) != n - 1:
        raise InvalidInstanceError(f"path on {n} vertices needs {n - 1} edges")
    if n == 1:
        return PathOrder([0])
    adj = _adjacency(n, layer.edges)
    deg = [len(a) for a in adj]
    if any(d > 2 for d in deg):
        bad = next(v for v in range(n) if deg[v] > 2)
        raise InvalidInstanceError(f"not a path: branch vertex {bad}")
    ends = [v for v in range(n) if deg[v] == 1]
    if len(ends) != 2:
        raise InvalidInstanceError("not a path: contains a cycle or is disconnected")
    order = [min(ends)]
    prev = -1
    while len(order) < n:
        nxt = [w for w in adj[order[-1]] if w != prev]
        if not nxt:
            raise InvalidInstanceError("not a path: disconnected")
        prev = order[-1]
        order.append(nxt[0])
    return PathOrder(order)


def caterpillar_decompose_neighbour_lists(layer: Layer, n: int) -> Caterpillar:
    """``caterpillar_decompose`` by adjacency lists: a search for
    connectivity, a spine set with pruned degrees, and a walk that keeps the
    spine neighbours of the last vertex other than the one before it."""
    validate_layer(layer, n)
    if len(layer.edges) != n - 1:
        raise InvalidInstanceError(f"tree on {n} vertices needs {n - 1} edges")
    adj = _adjacency(n, layer.edges)
    if not _connected(n, adj):
        raise InvalidInstanceError("not a tree: disconnected")
    if n == 1:
        return Caterpillar([0], [[]])
    deg = [len(a) for a in adj]
    spine_set = {v for v in range(n) if deg[v] >= 2}
    if not spine_set:
        u, v = layer.edges[0]
        return Caterpillar([min(u, v)], [[max(u, v)]])
    pruned_deg = {v: sum(1 for w in adj[v] if w in spine_set) for v in spine_set}
    if any(d > 2 for d in pruned_deg.values()):
        bad = next(v for v in sorted(spine_set) if pruned_deg[v] > 2)
        raise InvalidInstanceError(
            f"not a caterpillar: pruned tree branches at vertex {bad}"
        )
    if len(spine_set) == 1:
        spine = [next(iter(spine_set))]
    else:
        endpoints = sorted(v for v in spine_set if pruned_deg[v] <= 1)
        if len(endpoints) != 2:
            raise InternalInvariantError("pruned tree of a tree must stay connected")
        spine = [endpoints[0]]
        prev = -1
        while True:
            nxt = [w for w in adj[spine[-1]] if w in spine_set and w != prev]
            if not nxt:
                break
            prev = spine[-1]
            spine.append(nxt[0])
        if len(spine) != len(spine_set):
            raise InternalInvariantError("pruned tree walk did not cover the spine")
    legs = [[w for w in adj[p] if deg[w] == 1] for p in spine]
    return Caterpillar(spine, legs)


def path_caterpillar_rescan(p: PathOrder, cat: Caterpillar) -> tuple[list[GridPoint], int]:
    """The path + caterpillar layout with every shift applied by a pass over
    all n vertices: spine vertex i (from 0) starts in column 2i + 2, its
    legs in column 2i + 3.  Returns the coordinates and the shift count."""
    n = p.n
    ys = [0] * n
    for i, v in enumerate(p.order):
        ys[v] = i + 1
    xs = [0] * n
    for i, s in enumerate(cat.spine):
        xs[s] = 2 * (i + 1)
        for leg in cat.legs[i]:
            xs[leg] = 2 * (i + 1) + 1
    shifts = 0
    for i in range(len(cat.spine) - 1):
        a = cat.spine[i]
        b = cat.spine[i + 1]
        while any(
            (xs[b] - xs[a]) * (ys[leg] - ys[a]) == (ys[b] - ys[a]) * (xs[leg] - xs[a])
            for leg in cat.legs[i]
        ):
            threshold = xs[b]
            for v in range(n):
                if xs[v] >= threshold:
                    xs[v] += 1
            shifts += 1
    return [GridPoint(xs[v], ys[v]) for v in range(n)], shifts


def maximalize_outerplanar_fans(
    layer: Layer, n: int
) -> tuple[Layer, list[tuple[int, int]]]:
    """Maximalize by tracing the faces of the convex rotation once and
    fanning every inner face from its second corner in cycle order, the
    faces taken by (position of the last corner, minus that of the first)."""
    validate_layer(layer, n)
    cyc = list(layer.outer_cycle)
    pos = {v: i for i, v in enumerate(cyc)}
    edges = list(layer.edges)
    edge_set = {frozenset(e) for e in edges}
    if n <= 2:
        if n == 2 and frozenset((cyc[0], cyc[1])) not in edge_set:
            edges.append((cyc[0], cyc[1]))
        return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), edges[len(layer.edges) :]
    if crossing_chords_pair_scan(cyc, edges) is not None:
        raise InvalidInstanceError("chords cross")
    for i in range(n):
        u, v = cyc[i], cyc[(i + 1) % n]
        if frozenset((u, v)) not in edge_set:
            edges.append((u, v))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    rotation = [sorted(neighbors[v], key=lambda w: (pos[w] - pos[v]) % n) for v in range(n)]
    inner = [
        sorted((v for _, v in face), key=pos.__getitem__)
        for face in _trace_faces(n, edges, rotation)
        if (cyc[1], cyc[0]) not in face
    ]
    inner.sort(key=lambda c: (pos[c[-1]], -pos[c[0]]))
    for c in inner:
        edges.extend((c[1], w) for w in c[3:])
    return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), edges[len(layer.edges) :]


def layer_crossings_all_pairs(
    xs: list[int], ys: list[int], edges: list[tuple[int, int]], layer_idx: int
) -> list[Violation]:
    """Visit all m(m-1)/2 edge pairs, skip those whose bounding boxes miss,
    and test the rest with the exact predicate, looked up on the certify
    module so that a test can count its calls."""
    m = len(edges)
    ax = [xs[e[0]] for e in edges]
    ay = [ys[e[0]] for e in edges]
    bx = [xs[e[1]] for e in edges]
    by = [ys[e[1]] for e in edges]
    lo_x = [min(a, b) for a, b in zip(ax, bx)]
    hi_x = [max(a, b) for a, b in zip(ax, bx)]
    lo_y = [min(a, b) for a, b in zip(ay, by)]
    hi_y = [max(a, b) for a, b in zip(ay, by)]
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            if lo_x[i] > hi_x[j] or lo_x[j] > hi_x[i]:
                continue
            if lo_y[i] > hi_y[j] or lo_y[j] > hi_y[i]:
                continue
            if certify._conflict_raw(
                ax[i], ay[i], bx[i], by[i], ax[j], ay[j], bx[j], by[j]
            ):
                out.append(Violation("layer-crossing", (layer_idx, i, j)))
    return out


def conflict_four_orientations(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """``geometry._conflict_raw`` as it was before it stopped at the first
    separating line: all four orientations first, then the proper-crossing,
    collinear and touching cases."""
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)

    if (o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0 and (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0:
        return True  # proper crossing

    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # Collinear: conflict iff the 1-D overlap is longer than a point.
        if ax != bx:
            lo1, hi1 = min(ax, bx), max(ax, bx)
            lo2, hi2 = min(cx, dx), max(cx, dx)
        else:
            lo1, hi1 = min(ay, by), max(ay, by)
            lo2, hi2 = min(cy, dy), max(cy, dy)
        return max(lo1, lo2) < min(hi1, hi2)

    def strictly_between(px, py, qx, qy, rx, ry) -> bool:
        # q is collinear with p-r; is it strictly inside the segment?
        if px != rx:
            return min(px, rx) < qx < max(px, rx)
        return min(py, ry) < qy < max(py, ry)

    # Endpoint of one segment strictly inside the other.
    if o1 == 0 and strictly_between(ax, ay, cx, cy, bx, by):
        return True
    if o2 == 0 and strictly_between(ax, ay, dx, dy, bx, by):
        return True
    if o3 == 0 and strictly_between(cx, cy, ax, ay, dx, dy):
        return True
    if o4 == 0 and strictly_between(cx, cy, bx, by, dx, dy):
        return True
    return False


def same_ray(xs: list[int], ys: list[int], v: int, a: int, b: int) -> bool:
    """Whether points a and b both differ from point v and lie on one ray
    from it."""
    dax, day = xs[a] - xs[v], ys[a] - ys[v]
    dbx, dby = xs[b] - xs[v], ys[b] - ys[v]
    if (dax, day) == (0, 0) or (dbx, dby) == (0, 0):
        return False
    return dax * dby == day * dbx and dax * dbx + day * dby > 0


def certifier_pair_tests(xs: list[int], ys: list[int], edges: list[tuple[int, int]]) -> int:
    """How many edge pairs the certifier's listing hands to the exact
    predicate: the pairs of edges of nonzero length that share no endpoint
    position and whose bounding boxes overlap."""
    count = 0
    ends = [{(xs[a], ys[a]), (xs[b], ys[b])} for a, b in edges]
    for i, (a, b) in enumerate(edges):
        for (c, d), other in zip(edges[i + 1 :], ends[i + 1 :]):
            count += (
                len(ends[i]) == 2
                and len(other) == 2
                and not ends[i] & other
                and min(xs[a], xs[b]) <= max(xs[c], xs[d])
                and min(xs[c], xs[d]) <= max(xs[a], xs[b])
                and min(ys[a], ys[b]) <= max(ys[c], ys[d])
                and min(ys[c], ys[d]) <= max(ys[a], ys[b])
            )
    return count


def next_prime_trial_division(m: int) -> int:
    """The smallest prime >= max(m, 2), each candidate divided by every
    d up to its square root."""
    c = max(m, 2)
    while any(c % d == 0 for d in range(2, math.isqrt(c) + 1)):
        c += 1
    return c


def collinear_triples_cubic(points: list[GridPoint]) -> list[tuple[int, int, int]]:
    """Every index triple i < j < k of collinear points, by testing each."""
    n = len(points)
    return [
        (i, j, k)
        for i in range(n - 2)
        for j in range(i + 1, n - 1)
        for k in range(j + 1, n)
        if orient(points[i], points[j], points[k]) == 0
    ]


def _grid_sides(grid_extent: int | tuple[int, int]) -> tuple[int, int]:
    return grid_extent if isinstance(grid_extent, tuple) else (grid_extent, grid_extent)


def five_point_level_check(
    paths: Sequence[PathOrder],
) -> Callable[[Sequence[int], Sequence[int], int], bool]:
    """``level_ok(px, py, lvl)`` for the five-point searches below: whether
    vertex ``lvl``, at ``(px[lvl], py[lvl])``, is collinear with no two of
    vertices 0..lvl-1 and conflicts, by ``_conflict_raw``, in no same-path
    disjoint edge pair whose largest vertex is ``lvl``.  Vertices 0..lvl
    must be placed.  Passing every level is exactly: no three collinear
    and no path with two disjoint edges in conflict."""
    for p in paths:
        if p.n != 5:
            raise InvalidInstanceError("the search is defined for 5-vertex paths")
    cross_checks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(5)]
    for p in paths:
        edges = [tuple(sorted(e)) for e in p.edges()]
        for e1, e2 in itertools.combinations(edges, 2):
            if not set(e1) & set(e2):
                cross_checks[max(*e1, *e2)].append((*e1, *e2))
    tri_checks = [list(itertools.combinations(range(lvl), 2)) for lvl in range(5)]

    def level_ok(px: Sequence[int], py: Sequence[int], lvl: int) -> bool:
        x, y = px[lvl], py[lvl]
        for i, j in tri_checks[lvl]:
            if (px[j] - px[i]) * (y - py[i]) == (py[j] - py[i]) * (x - px[i]):
                return False
        for a, b, c, d in cross_checks[lvl]:
            if _conflict_raw(px[a], py[a], px[b], py[b], px[c], py[c], px[d], py[d]):
                return False
        return True

    return level_ok


def five_point_check_dfs(
    grid_extent: int | tuple[int, int], paths: Sequence[PathOrder]
) -> FivePointSearchResult:
    """The exhaustive five-point search before it worked on candidate
    bitmasks: every candidate of every level placed in turn, points in
    ascending index order and vertex 0 confined to the fundamental domain,
    and :func:`five_point_level_check` run per placed vertex.  Grids up to
    extent 8 only, sides below 3 included, where nothing passes."""
    w, h = _grid_sides(grid_extent)
    if w < 1 or h < 1:
        raise InvalidInstanceError("grid extent must be positive")
    if max(w, h) > EXHAUSTIVE_GRID_LIMIT:
        raise SearchBudgetError(f"grid {w}x{h} exceeds the exhaustive budget")
    level_ok = five_point_level_check(paths)
    pts = _grid_points(w, h)
    first_candidates = _fundamental_domain(w, h)
    # coordinates and point indices of vertices 0..4
    px = [0] * 5
    py = [0] * 5
    placement = [0] * 5
    checked = 0

    def dfs(lvl: int) -> bool:
        nonlocal checked
        for pt in first_candidates if lvl == 0 else range(len(pts)):
            if pt in placement[:lvl]:
                continue
            placement[lvl] = pt
            px[lvl], py[lvl] = pts[pt]
            if lvl == 4:
                checked += 1
            if level_ok(px, py, lvl) and (lvl == 4 or dfs(lvl + 1)):
                return True
        return False

    found = dfs(0)
    return FivePointSearchResult(
        counterexample=[GridPoint(x, y) for x, y in zip(px, py)] if found else None,
        placements_checked=checked,
        exhaustive=True,
        grid=(w, h),
    )


def sampled_five_point_check(
    grid_extent: int | tuple[int, int],
    paths: Sequence[PathOrder],
    seed: Optional[int],
    samples: int,
) -> FivePointSearchResult:
    """The sampled five-point probe as it drew: up to ``samples`` draws of
    five distinct grid points from ``random.Random(seed)``, x then y per
    point, each tested by :func:`five_point_level_check` on every level,
    whether or not any order type carries the paths."""
    w, h = _grid_sides(grid_extent)
    level_ok = five_point_level_check(paths)
    rng = random.Random(seed)
    for checked in range(1, samples + 1):
        drawn: list[tuple[int, int]] = []
        while len(drawn) < 5:
            cand = (rng.randrange(w), rng.randrange(h))
            if cand not in drawn:
                drawn.append(cand)
        px, py = zip(*drawn)
        if all(level_ok(px, py, lvl) for lvl in range(5)):
            return FivePointSearchResult(
                counterexample=[GridPoint(x, y) for x, y in drawn],
                placements_checked=checked,
                exhaustive=False,
                grid=(w, h),
            )
    return FivePointSearchResult(
        counterexample=None, placements_checked=samples, exhaustive=False, grid=(w, h)
    )


def five_point_witness_scan(
    grid_extent: int | tuple[int, int], paths: Sequence[PathOrder], samples: int
) -> FivePointSearchResult:
    """The five-point search above grid 8 placed label by label: every
    labeling of every ``_ORDER_TYPES`` point set in turn, each point set
    transposed on a grid less than 7 high, tested by
    :func:`five_point_level_check` on every level.  The first that passes
    is the counterexample, and ``samples`` is reported as the placements
    checked, whether or not one passes."""
    w, h = _grid_sides(grid_extent)
    level_ok = five_point_level_check(paths)
    for rep in _ORDER_TYPES:
        for pts in itertools.permutations(rep if h >= 7 else [(y, x) for x, y in rep]):
            px, py = zip(*pts)
            if all(level_ok(px, py, lvl) for lvl in range(5)):
                return FivePointSearchResult(
                    counterexample=[GridPoint(x, y) for x, y in pts],
                    placements_checked=samples,
                    exhaustive=False,
                    grid=(w, h),
                )
    return FivePointSearchResult(
        counterexample=None, placements_checked=samples, exhaustive=False, grid=(w, h)
    )


def _canonical_face(walk: list[tuple[int, int]]) -> tuple[int, ...]:
    verts = [d[0] for d in walk]
    k = verts.index(min(verts))
    return tuple(verts[k:] + verts[:k])


def draw_triangulation_path_walk(
    rotation: list[list[int]], faces: list[list[tuple[int, int]]], n: int
) -> tuple[list[int], list[int]]:
    """``unmapped._draw_triangulation`` as it was written first: each of the
    n - 3 peeled vertices is picked by walking the whole outer path and
    counting every path vertex's alive path neighbours."""
    if any(len(f) != 3 for f in faces):
        raise InvalidInstanceError("grid drawing requires all faces to be triangles")

    walk = min(_canonical_face(f) for f in faces)
    v1, v2, v_top = walk

    adj = [set(r) for r in rotation]

    # Reverse canonical order: peel chord-free outer vertices off the path
    # from v1 to v2, recording the fan of alive neighbors each leaves behind.
    alive = [True] * n
    on_path = [False] * n
    nxt = {v1: v_top, v_top: v2}
    prv = {v_top: v1, v2: v_top}
    for v in (v1, v_top, v2):
        on_path[v] = True

    def path_iter():
        v = v1
        while True:
            yield v
            if v == v2:
                return
            v = nxt[v]

    fans: dict[int, tuple[int, list[int], int]] = {}
    removal_order: list[int] = []
    for _ in range(n - 3):
        candidate = None
        for v in path_iter():
            if v == v1 or v == v2:
                continue
            path_neighbors = sum(
                1 for w in adj[v] if alive[w] and on_path[w]
            )
            if path_neighbors == 2 and (candidate is None or v < candidate):
                candidate = v
        if candidate is None:
            raise InternalInvariantError("no chord-free outer vertex available")
        u = candidate
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
        prev = a
        for w in interior:
            on_path[w] = True
            nxt[prev] = w
            prv[w] = prev
            prev = w
        nxt[prev] = b
        prv[b] = prev

    remaining = [v for v in path_iter()]
    if len(remaining) != 3:
        raise InternalInvariantError("canonical peeling left a non-triangle")
    v3 = remaining[1]

    xs = [0] * n
    ys = [0] * n
    xs[v2] = 2
    xs[v3], ys[v3] = 1, 1
    covered: list[list[int]] = [[v] for v in range(n)]
    path = [v1, v3, v2]

    for v in reversed(removal_order):
        a, interior, b = fans[v]
        ia = path.index(a)
        ib = path.index(b)
        if path[ia + 1 : ib] != interior:
            raise InternalInvariantError("insertion fan does not match the outer path")
        for w in path[ia + 1 : ib]:
            for t in covered[w]:
                xs[t] += 1
        for w in path[ib:]:
            for t in covered[w]:
                xs[t] += 2
        xa, ya = xs[a], ys[a]
        xb, yb = xs[b], ys[b]
        if (xa - ya + xb + yb) % 2 != 0:
            raise InternalInvariantError("diagonal intersection left the lattice")
        xs[v] = (xa - ya + xb + yb) // 2
        ys[v] = (xb + yb - xa + ya) // 2
        bag = [v]
        for w in interior:
            bag.extend(covered[w])
        covered[v] = bag
        path[ia + 1 : ib] = [v]

    if min(xs) < 0 or max(xs) > 2 * n - 4 or min(ys) < 0 or max(ys) > n - 2:
        raise InternalInvariantError("drawing escaped the (2n-4) x (n-2) grid")
    return xs, ys


def angular_sort_comparator(
    xs: list[int], ys: list[int], pivot: int, others: list[int], side: int
) -> list[int]:
    """``unmapped._angular_sort`` as it was written first: the exact
    orientation predicate as the comparator, sweeping from the boundary ray
    of ``side``, for points all strictly on that side."""
    pts = list(map(GridPoint, xs, ys))

    def cmp(s: int, t: int) -> int:
        return -side * orient(pts[pivot], pts[s], pts[t])

    return sorted(others, key=cmp_to_key(cmp))


def select_split_rank_dicts(
    xs: list[int],
    ys: list[int],
    p: int,
    q: int,
    by_p: list[int],
    by_q: list[int],
    n_a: int,
    n_b: int,
) -> tuple[int, tuple[list[int], list[int]], tuple[list[int], list[int]]]:
    """``unmapped._select_split`` as it was written first: full p- and
    q-rank dicts, r as the first point in p-order of q-rank at most n_a,
    the points beyond pr only, beyond qr only and beyond both found by
    filtering on ranks, each sorted around r on its own, and the wedge
    (beyond both) cut so that |A| = n_a."""
    rank_p = {x: i for i, x in enumerate(by_p)}
    rank_q = {x: i for i, x in enumerate(by_q)}
    r = next(x for x in by_p if rank_q[x] <= n_a)
    i, j = rank_p[r], rank_q[r]
    beyond_p, beyond_q = by_p[i + 1 :], by_q[j + 1 :]
    only_a = [x for x in beyond_p if rank_q[x] < j]
    only_b = [x for x in beyond_q if rank_p[x] < i]
    both = unmapped._angular_sort(xs, ys, r, p, [x for x in beyond_p if rank_q[x] > j])
    cut = n_a - len(only_a)
    in_a = set(both[:cut])
    return (
        r,
        (
            [x for x in beyond_p if rank_q[x] < j or x in in_a],
            unmapped._angular_sort(xs, ys, r, p, only_a) + both[:cut],
        ),
        (
            unmapped._angular_sort(xs, ys, r, q, only_b) + both[cut:][::-1],
            [x for x in beyond_q if x not in in_a],
        ),
    )


def embed_on_general_position_eager(
    layer: Layer, xs: list[int], ys: list[int]
) -> list[int]:
    """``unmapped._embed_on_general_position`` as it was written first, for
    a valid maximal outerplanar layer on the columns of k >= 3 points:
    every subproblem carries its chain as a slice and both angular orders,
    sorted by the comparator, and every split goes through
    ``_select_split``."""
    pts = list(map(GridPoint, xs, ys))
    k = len(pts)
    cyc = layer.outer_cycle
    adj: list[set[int]] = [set() for _ in range(k)]
    for u, v in layer.edges:
        adj[u].add(v)
        adj[v].add(u)
    hull = convex_hull(pts)
    hull_edges = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    best = min(hull_edges, key=lambda e: sorted((pts[e[0]], pts[e[1]])))
    p_idx, q_idx = sorted(best, key=pts.__getitem__)
    others = [i for i in range(k) if i != p_idx and i != q_idx]
    side = orient(pts[p_idx], pts[q_idx], pts[others[0]])
    by_p = angular_sort_comparator(xs, ys, p_idx, others, side)
    by_q = angular_sort_comparator(xs, ys, q_idx, others, -side)
    phi = [-1] * k
    stack = [([cyc[0]] + cyc[:0:-1], by_p, by_q, p_idx, q_idx)]
    while stack:
        chain, by_p, by_q, p_i, q_i = stack.pop()
        phi[chain[0]] = p_i
        phi[chain[-1]] = q_i
        if len(chain) == 2:
            continue
        u, v = chain[0], chain[-1]
        apexes = [w for w in chain[1:-1] if w in adj[u] and w in adj[v]]
        if len(apexes) != 1:
            raise InvalidInstanceError(
                f"edge ({u},{v}) must close exactly one triangle inside its chain"
            )
        j = chain.index(apexes[0])
        n_a = j - 1
        n_b = len(chain) - 2 - j
        sides = {orient(pts[p_i], pts[q_i], pts[s]) for s in by_p}
        if 0 in sides or len(sides) > 1:
            raise InternalInvariantError(
                "designated edge is not a hull edge of its point subset"
            )
        r, part_a, part_b = unmapped._select_split(xs, ys, p_i, q_i, by_p, by_q, n_a, n_b)
        stack.append((chain[j:], *part_b, r, q_i))
        stack.append((chain[: j + 1], *part_a, p_i, r))
    return phi


def brute_force_point_assignment(
    layer: Layer, pts: list[GridPoint]
) -> Optional[list[int]]:
    """Exhaustively search crossing-free bijections vertex -> point.

    Independent of the package's point-set embedder: works on any layer's
    edge set, returns the lexicographically first solution or None.
    Limited to 9 points.
    """
    k = len(pts)
    if k > 9:
        raise SearchBudgetError("brute-force assignment is limited to 9 points")
    validate_layer(layer, k)
    edges = layer.edges
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    by_level: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for u, v in edges:
        by_level[max(u, v)].append((u, v))

    phi = [-1] * k
    used = [False] * k
    placed: list[tuple[int, int, int, int]] = []

    def dfs(lvl: int) -> bool:
        if lvl == k:
            return True
        for pt in range(k):
            if used[pt]:
                continue
            phi[lvl] = pt
            used[pt] = True
            new_segs = []
            ok = True
            for u, v in by_level[lvl]:
                seg = (xs[phi[u]], ys[phi[u]], xs[phi[v]], ys[phi[v]])
                for old in placed + new_segs:
                    if _conflict_raw(*old, *seg):
                        ok = False
                        break
                if not ok:
                    break
                new_segs.append(seg)
            if ok:
                placed.extend(new_segs)
                if dfs(lvl + 1):
                    return True
                del placed[len(placed) - len(new_segs) :]
            used[pt] = False
        phi[lvl] = -1
        return False

    if dfs(0):
        return list(phi)
    return None
