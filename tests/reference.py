"""Straightforward reference versions of optimized package routines.

Each function here is the plain algorithm the package's faster code must
match exactly; ``test_reference.py`` compares them on random inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional, Sequence

from simembed import (
    GridPoint,
    PathOrder,
    Violation,
    InternalInvariantError,
    InvalidInstanceError,
    Layer,
    check_plane_embedding,
    validate_layer,
)
from simembed import certify
from simembed.errors import SearchBudgetError
from simembed.geometry import _conflict_raw, orient
from simembed.graphs import _chords_cross, _trace_faces
from simembed.mapped import (
    EXHAUSTIVE_GRID_LIMIT,
    FivePointSearchResult,
    _check_permutation,
    _fundamental_domain,
    _grid_points,
)


def _offset_scan(half_w: int, half_h: int):
    # Row-major from the cell center outward: dy = 0, +1, -1, ...; within a
    # row dx = 0, +1, -1, ...
    def steps(limit: int):
        yield 0
        for d in range(1, limit + 1):
            yield d
            yield -d

    for dy in steps(half_h):
        for dx in steps(half_w):
            yield dx, dy


def scatter_direction_hash(
    centers: list[tuple[int, int]], half_w: int, half_h: int
) -> list[GridPoint]:
    """Greedy placement: one point per cell (center +- half sizes), the
    first candidate in scan order that is collinear with no two placed
    points.  The general-position drawings used this before the closed-form
    parabola lift replaced it.

    A candidate c is collinear with placed points a and b exactly when the
    directions from c to a and from c to b, each reduced by its gcd and
    with its sign normalised, are equal.  So one pass over the m placed
    points with a set of directions tests a candidate in O(m) rather than
    over all O(m^2) pairs.  A candidate on a placed point has no direction
    to it; it lies on a line with that point and any other, so it is
    rejected once two points are placed.
    """
    gcd = math.gcd
    placed: list[tuple[int, int]] = []
    for cx, cy in centers:
        m = len(placed)
        for dx, dy in _offset_scan(half_w, half_h):
            x = cx + dx
            y = cy + dy
            seen: set[tuple[int, int]] = set()
            for a, b in placed:
                a -= x
                b -= y
                g = gcd(a, b)
                if g == 0:
                    if m >= 2:
                        break
                    continue
                if a < 0 or (a == 0 and b < 0):
                    g = -g
                direction = (a // g, b // g)
                if direction in seen:
                    break
                seen.add(direction)
            else:
                break
        else:
            raise InternalInvariantError("no collinearity-free slot in cell")
        placed.append((x, y))
    return [GridPoint(x, y) for x, y in placed]


def scatter_pair_scan(
    centers: list[tuple[int, int]], half_w: int, half_h: int
) -> list[GridPoint]:
    """Per cell, the first candidate in scan order that is collinear with no
    pair of placed points, tested pair by pair: O(m^2) per candidate."""
    px: list[int] = []
    py: list[int] = []
    for cx, cy in centers:
        for dx, dy in _offset_scan(half_w, half_h):
            x, y = cx + dx, cy + dy
            m = len(px)
            if not any(
                (px[k] - px[j]) * (y - py[j]) == (py[k] - py[j]) * (x - px[j])
                for j in range(m - 1)
                for k in range(j + 1, m)
            ):
                break
        else:
            raise InternalInvariantError("no collinearity-free slot in cell")
        px.append(x)
        py.append(y)
    return [GridPoint(x, y) for x, y in zip(px, py)]


def _first_chord(big, edge_set):
    corner = [d[1] for d in big]
    for i in range(len(big)):
        for j in range(i + 2, len(big)):
            p, q = corner[i], corner[j]
            if p != q and frozenset((p, q)) not in edge_set:
                return i, j
    raise InternalInvariantError("face admits no chord")


def triangulate_plane_retrace(layer: Layer, n: int) -> tuple[Layer, list[tuple[int, int]]]:
    """Triangulate by re-tracing every face after each added chord."""
    check_plane_embedding(layer, n)
    rotation = [list(r) for r in layer.rotation or []]
    edges = list(layer.edges)
    edge_set = {frozenset(e) for e in edges}
    dummies = []
    while True:
        big = next((f for f in _trace_faces(n, edges, rotation) if len(f) > 3), None)
        if big is None:
            break
        i, j = _first_chord(big, edge_set)
        p, q = big[i][1], big[j][1]
        rotation[p].insert(rotation[p].index(big[i][0]), q)
        rotation[q].insert(rotation[q].index(big[j][0]), p)
        edges.append((p, q))
        edge_set.add(frozenset((p, q)))
        dummies.append((p, q))
    return Layer(kind="planar", edges=edges, rotation=rotation), dummies


def maximalize_outerplanar_retrace(
    layer: Layer, n: int
) -> tuple[Layer, list[tuple[int, int]]]:
    """Maximalize by rebuilding the convex rotation and re-tracing every
    face after each added chord."""
    validate_layer(layer, n)
    cyc = list(layer.outer_cycle)
    pos = {v: i for i, v in enumerate(cyc)}
    edges = list(layer.edges)
    edge_set = {frozenset(e) for e in edges}
    dummies = []
    if n <= 2:
        if n == 2 and frozenset((cyc[0], cyc[1])) not in edge_set:
            edges.append((cyc[0], cyc[1]))
            dummies.append((cyc[0], cyc[1]))
        return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), dummies
    chords = [(u, v) for u, v in edges if (pos[v] - pos[u]) % n not in (1, n - 1)]
    for a, b in chords:
        for c, d in chords:
            if len({a, b, c, d}) == 4 and _chords_cross(n, pos[a], pos[b], pos[c], pos[d]):
                raise InvalidInstanceError("chords cross")
    for i in range(n):
        u, v = cyc[i], cyc[(i + 1) % n]
        if frozenset((u, v)) not in edge_set:
            edges.append((u, v))
            edge_set.add(frozenset((u, v)))
            dummies.append((u, v))
    outer_dart = (cyc[1], cyc[0])
    while True:
        neighbors: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        rotation = [sorted(neighbors[v], key=lambda w: (pos[w] - pos[v]) % n) for v in range(n)]
        faces = _trace_faces(n, edges, rotation)
        outer = next(f for f in faces if outer_dart in f)
        big = next((f for f in faces if f is not outer and len(f) > 3), None)
        if big is None:
            break
        i, j = _first_chord(big, edge_set)
        chord = (big[i][1], big[j][1])
        edges.append(chord)
        edge_set.add(frozenset(chord))
        dummies.append(chord)
    return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc), dummies


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


def same_ray(xs: list[int], ys: list[int], v: int, a: int, b: int) -> bool:
    """Whether points a and b both differ from point v and lie on one ray
    from it."""
    dax, day = xs[a] - xs[v], ys[a] - ys[v]
    dbx, dby = xs[b] - xs[v], ys[b] - ys[v]
    if (dax, day) == (0, 0) or (dbx, dby) == (0, 0):
        return False
    return dax * dby == day * dbx and dax * dbx + day * dby > 0


def certifier_pair_tests(xs: list[int], ys: list[int], edges: list[tuple[int, int]]) -> int:
    """How many edge pairs the certifier hands to the exact predicate: the
    pairs that share an endpoint and leave it along one ray, and the pairs
    that share no endpoint and whose bounding boxes overlap."""
    count = 0
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            shared = {a, b} & {c, d}
            if shared:
                count += any(
                    same_ray(xs, ys, v, b if a == v else a, d if c == v else c) for v in shared
                )
            else:
                count += (
                    min(xs[a], xs[b]) <= max(xs[c], xs[d])
                    and min(xs[c], xs[d]) <= max(xs[a], xs[b])
                    and min(ys[a], ys[b]) <= max(ys[c], ys[d])
                    and min(ys[c], ys[d]) <= max(ys[a], ys[b])
                )
    return count


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


def five_point_check_table(
    grid_extent: int | tuple[int, int],
    paths: Sequence[PathOrder],
    seed: Optional[int] = None,
    samples: Optional[int] = None,
) -> FivePointSearchResult:
    """The five-point search before its two modes shared one per-level
    check: a precomputed ``count**4`` conflict table on grids up to 6 x 6,
    the direct predicate above that, and its own sampled loop.

    Returns the first placement, no 3 collinear, where every given path is
    crossing-free, or None if every valid placement forces a crossing in
    some path.  Grids up to extent 8 are exhausted; larger grids require
    ``samples`` and are randomly probed with the seeded generator.
    """
    if isinstance(grid_extent, tuple):
        w, h = grid_extent
    else:
        w = h = grid_extent
    if w < 1 or h < 1:
        raise InvalidInstanceError("grid extent must be positive")
    if samples is not None and samples < 1:
        # a verdict after no placements would claim what nothing checked
        raise InvalidInstanceError(f"sample count must be positive, got {samples}")
    for p in paths:
        if p.n != 5:
            raise InvalidInstanceError("the search is defined for 5-vertex paths")
        _check_permutation(p.order, 5, "path")

    # Same-path disjoint edge pairs, bucketed by their largest vertex so the
    # search can check each pair as soon as its last endpoint is placed.
    cross_checks: list[list[tuple[int, int, int, int]]] = [[] for _ in range(5)]
    for p in paths:
        edges = [tuple(sorted(e)) for e in p.edges()]
        for e1, e2 in itertools.combinations(edges, 2):
            if set(e1) & set(e2):
                continue
            level = max(*e1, *e2)
            cross_checks[level].append((*e1, *e2))
    tri_checks: list[list[tuple[int, int]]] = [
        [(i, j) for i in range(lvl) for j in range(i + 1, lvl)] for lvl in range(5)
    ]

    if max(w, h) > EXHAUSTIVE_GRID_LIMIT:
        if samples is None:
            raise SearchBudgetError(
                f"grid {w}x{h} exceeds the exhaustive budget "
                f"({EXHAUSTIVE_GRID_LIMIT}); pass a sample count"
            )
        return sampled_five_point_check(w, h, cross_checks, tri_checks, seed, samples)

    pts = _grid_points(w, h)
    count = len(pts)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]

    def conflict(a: int, b: int, c: int, d: int) -> bool:
        return _conflict_raw(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d])

    conflict_table: Optional[bytearray] = None
    if count**4 <= 2_000_000:
        conflict_table = bytearray(count**4)
        for a in range(count):
            for b in range(count):
                if a == b:
                    continue
                base = (a * count + b) * count
                for c in range(count):
                    for d in range(count):
                        if c == d:
                            continue
                        if conflict(a, b, c, d):
                            conflict_table[(base + c) * count + d] = 1

    placement = [0] * 5
    checked = 0
    first_candidates = _fundamental_domain(w, h)

    def collinear(a: int, b: int, c: int) -> bool:
        return (xs[b] - xs[a]) * (ys[c] - ys[a]) == (ys[b] - ys[a]) * (xs[c] - xs[a])

    def level_ok(lvl: int) -> bool:
        pt = placement[lvl]
        for i, j in tri_checks[lvl]:
            if collinear(placement[i], placement[j], pt):
                return False
        for a, b, c, d in cross_checks[lvl]:
            pa, pb, pc, pd = placement[a], placement[b], placement[c], placement[d]
            if conflict_table is not None:
                if conflict_table[((pa * count + pb) * count + pc) * count + pd]:
                    return False
            elif conflict(pa, pb, pc, pd):
                return False
        return True

    def dfs(lvl: int) -> Optional[list[int]]:
        nonlocal checked
        candidates = first_candidates if lvl == 0 else range(count)
        for pt in candidates:
            if pt in placement[:lvl]:
                continue
            placement[lvl] = pt
            if lvl == 4:
                checked += 1
            if not level_ok(lvl):
                continue
            if lvl == 4:
                return list(placement)
            found = dfs(lvl + 1)
            if found is not None:
                return found
        return None

    witness = dfs(0)
    counterexample = (
        [GridPoint(xs[i], ys[i]) for i in witness] if witness is not None else None
    )
    return FivePointSearchResult(
        counterexample=counterexample,
        placements_checked=checked,
        exhaustive=True,
        grid=(w, h),
    )


def sampled_five_point_check(
    w: int,
    h: int,
    cross_checks: list[list[tuple[int, int, int, int]]],
    tri_checks: list[list[tuple[int, int]]],
    seed: Optional[int],
    samples: int,
) -> FivePointSearchResult:
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        pts: list[tuple[int, int]] = []
        used = set()
        while len(pts) < 5:
            cand = (rng.randrange(w), rng.randrange(h))
            if cand not in used:
                used.add(cand)
                pts.append(cand)
        checked += 1
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        ok = True
        for lvl in range(5):
            for i, j in tri_checks[lvl]:
                if (xs[j] - xs[i]) * (ys[lvl] - ys[i]) == (ys[j] - ys[i]) * (
                    xs[lvl] - xs[i]
                ):
                    ok = False
                    break
            if not ok:
                break
            for a, b, c, d in cross_checks[lvl]:
                if _conflict_raw(
                    xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return FivePointSearchResult(
                counterexample=[GridPoint(x, y) for x, y in pts],
                placements_checked=checked,
                exhaustive=False,
                grid=(w, h),
            )
    return FivePointSearchResult(
        counterexample=None, placements_checked=checked, exhaustive=False, grid=(w, h)
    )
