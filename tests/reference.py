"""Straightforward reference versions of optimized package routines.

Each function here is the plain algorithm the package's faster code must
match exactly; ``test_reference.py`` compares them on random inputs.
"""

from __future__ import annotations

from simembed import (
    GridPoint,
    Violation,
    InternalInvariantError,
    InvalidInstanceError,
    Layer,
    check_plane_embedding,
    validate_layer,
)
from simembed import certify
from simembed.geometry import orient
from simembed.graphs import _chords_cross, _trace_faces
from simembed.mapped import _offset_scan


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
