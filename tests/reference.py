"""Straightforward reference versions of optimized package routines.

Each function here is the plain algorithm the package's faster code must
match exactly; ``test_reference.py`` compares them on random inputs.
"""

from __future__ import annotations

from simembed import (
    GridPoint,
    InternalInvariantError,
    InvalidInstanceError,
    Layer,
    check_plane_embedding,
    validate_layer,
)
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
