"""Seeded layer thinning shared by the golden and reference tests, the
general-position point sets of the split, reference and unmapped tests, and
the columns and the embedding of a list of points.

``generate`` only yields maximal layers, which leave ``triangulate_plane``
and ``maximalize_outerplanar`` no face to complete; thinning removes edges
so that they have real work.
"""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import assume, strategies as st

from simembed import GridPoint, Layer, SimultaneousEmbedding, find_collinear_triple, orient


def columns(points: list[GridPoint]) -> tuple[list[int], list[int]]:
    """The x and the y column of ``points``, as the package's split reads them."""
    return [p.x for p in points], [p.y for p in points]


def embedding_of(points: list[GridPoint], assignments=None) -> SimultaneousEmbedding:
    """The embedding whose point i is ``points[i]``."""
    xs, ys = columns(points)
    return SimultaneousEmbedding(xs=xs, ys=ys, assignments=assignments)


@st.composite
def general_position_points(draw, max_size: int = 14, coord_max: int = 60):
    """Between 3 and ``max_size`` grid points, no three collinear: a point
    drawn on the line of two kept ones is dropped."""
    coord = st.integers(0, coord_max)
    size = draw(st.integers(3, max_size))
    raw = draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size, unique=True))
    pts: list[GridPoint] = []
    for x, y in raw:
        c = GridPoint(x, y)
        if all(orient(a, b, c) != 0 for a, b in combinations(pts, 2)):
            pts.append(c)
    assume(len(pts) >= 3)
    return pts


def random_general_position(k: int, rng: random.Random) -> list[GridPoint]:
    """``k`` distinct seeded points in the 6k x 6k square, no three
    collinear: a whole draw is repeated until one has none."""
    extent = 6 * k
    while True:
        pts = []
        seen = set()
        while len(pts) < k:
            c = (rng.randrange(extent), rng.randrange(extent))
            if c not in seen:
                seen.add(c)
                pts.append(GridPoint(*c))
        if find_collinear_triple(pts) is None:
            return pts


def thin_plane(layer: Layer, n: int, share: float, rng: random.Random) -> Layer:
    """Drop ``share`` of the non-tree edges of a random spanning tree (1.0
    leaves the tree) and prune the rotation to match.  Deleting a non-bridge
    edge of a connected plane embedding merges two faces, so the result is
    again a connected plane embedding."""
    order = sorted(tuple(sorted(e)) for e in layer.edges)
    rng.shuffle(order)
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    spare = []
    for u, v in order:
        ru, rv = find(u), find(v)
        if ru == rv:
            spare.append((u, v))
        else:
            root[ru] = rv
    dropped = set(spare[: round(share * len(spare))])
    gone: list[set[int]] = [set() for _ in range(n)]
    for u, v in dropped:
        gone[u].add(v)
        gone[v].add(u)
    assert layer.rotation is not None
    return Layer(
        kind="planar",
        edges=[e for e in layer.edges if tuple(sorted(e)) not in dropped],
        rotation=[[w for w in rot if w not in gone[v]] for v, rot in enumerate(layer.rotation)],
    )


def thin_outerplanar(layer: Layer, density: float, rng: random.Random) -> Layer:
    """Keep a ``density`` share of the chords and every outer-cycle edge."""
    cyc = layer.outer_cycle
    assert cyc is not None
    n = len(cyc)
    pos = {v: i for i, v in enumerate(cyc)}
    cycle, chords = [], []
    for u, v in layer.edges:
        (cycle if (pos[v] - pos[u]) % n in (1, n - 1) else chords).append((u, v))
    kept = rng.sample(chords, round(density * len(chords)))
    return Layer(kind="outerplanar", edges=cycle + kept, outer_cycle=list(cyc))


def flip_and_shuffle(layer: Layer, rng: random.Random) -> Layer:
    """Reverse each edge with probability 1/2 and shuffle the edge list,
    which changes where face walks start but not the graph."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in layer.edges]
    rng.shuffle(edges)
    return Layer(layer.kind, edges, rotation=layer.rotation, outer_cycle=layer.outer_cycle)


def bare_cycle(kind: str, n: int, rng: random.Random) -> Layer:
    """A planar or outerplanar n-cycle through a random vertex order, every
    edge in one direction (forward or backward at random) and the edge
    list shuffled."""
    order = rng.sample(range(n), n)
    step = rng.choice((1, -1))
    edges = [(order[i], order[(i + step) % n]) for i in range(n)]
    rng.shuffle(edges)
    if kind == "outerplanar":
        return Layer(kind, edges, outer_cycle=order)
    rotation = [[] for _ in range(n)]
    for i, v in enumerate(order):
        rotation[v] = [order[i - 1], order[(i + 1) % n]]
    return Layer(kind, edges, rotation=rotation)
