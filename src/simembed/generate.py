"""Seeded random generation of layers, fuel for the property tests."""

from __future__ import annotations

import bisect
import random

from .errors import InvalidInstanceError
from .graphs import Layer, rotation_system_from_faces

KINDS = ("path", "caterpillar", "maximal-outerplanar", "plane-triangulation")


def generate(kind: str, n: int, seed: int) -> Layer:
    """Deterministic random layer of the given kind on n vertices."""
    rng = random.Random((kind, n, seed).__repr__())
    if kind == "path":
        return _path(n, rng)
    if kind == "caterpillar":
        return _caterpillar(n, rng)
    if kind == "maximal-outerplanar":
        return _maximal_outerplanar(n, rng)
    if kind == "plane-triangulation":
        return _plane_triangulation(n, rng)
    raise InvalidInstanceError(f"unknown generator kind {kind!r}")


def _path(n: int, rng: random.Random) -> Layer:
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    return Layer(kind="path", edges=edges)


def _caterpillar(n: int, rng: random.Random) -> Layer:
    if n < 1:
        raise InvalidInstanceError("caterpillar needs at least one vertex")
    labels = list(range(n))
    rng.shuffle(labels)
    spine_len = rng.randint(1, n)
    spine = labels[:spine_len]
    legs = labels[spine_len:]
    edges = [(spine[i], spine[i + 1]) for i in range(spine_len - 1)]
    for leg in legs:
        parent = spine[rng.randrange(spine_len)]
        edges.append((parent, leg))
    return Layer(kind="caterpillar", edges=edges)


def _maximal_outerplanar(n: int, rng: random.Random) -> Layer:
    if n < 3:
        raise InvalidInstanceError("maximal outerplanar layer needs n >= 3")
    cyc = list(range(n))
    rng.shuffle(cyc)
    edges = [(cyc[i], cyc[(i + 1) % n]) for i in range(n)]

    def fan(lo: int, hi: int) -> None:
        # Triangulate the sub-polygon cyc[lo..hi] with a random apex split.
        if hi - lo < 2:
            return
        mid = rng.randint(lo + 1, hi - 1)
        if mid - lo > 1:
            edges.append((cyc[lo], cyc[mid]))
        if hi - mid > 1:
            edges.append((cyc[mid], cyc[hi]))
        fan(lo, mid)
        fan(mid, hi)

    fan(0, n - 1)
    return Layer(kind="outerplanar", edges=edges, outer_cycle=cyc)


def _plane_triangulation(n: int, rng: random.Random) -> Layer:
    if n < 3:
        raise InvalidInstanceError("triangulation needs n >= 3")
    labels = list(range(n))
    rng.shuffle(labels)
    a, b, c = labels[0], labels[1], labels[2]
    faces: list[tuple[int, int, int]] = [(a, b, c), (a, c, b)]
    for v in labels[3:]:
        fa, fb, fc = faces.pop(rng.randrange(len(faces)))
        faces.extend([(fa, fb, v), (fb, fc, v), (fc, fa, v)])

    # Stacked triangulations are a narrow family; scramble with random
    # diagonal flips.  Edge (u, v) between oriented faces (u, v, c) and
    # (v, u, d) becomes (c, d) with faces (c, u, d) and (d, v, c).  Of the
    # six darts of the two faces only (u, d), (d, c), (v, c) and (c, d)
    # change face; (c, u) and (d, v) keep theirs.  The dart -> face map and
    # the sorted edge list are kept up to date.
    darts = {}
    for fi, (x, y, z) in enumerate(faces):
        darts[x, y] = darts[y, z] = darts[z, x] = fi
    edges = sorted(dart for dart in darts if dart[0] < dart[1])
    for _ in range(4 * n):
        edge = rng.choice(edges)
        u, v = edge
        if rng.random() < 0.5:
            u, v = v, u
        i1, i2 = darts[u, v], darts[v, u]
        cc = sum(faces[i1]) - u - v
        dd = sum(faces[i2]) - u - v
        if cc == dd or (cc, dd) in darts:
            continue
        del darts[u, v], darts[v, u]
        faces[i1] = (cc, u, dd)
        faces[i2] = (dd, v, cc)
        darts[u, dd] = darts[dd, cc] = i1
        darts[v, cc] = darts[cc, dd] = i2
        del edges[bisect.bisect_left(edges, edge)]
        bisect.insort(edges, (cc, dd) if cc < dd else (dd, cc))

    rotation = rotation_system_from_faces(n, faces)
    return Layer(kind="planar", edges=edges, rotation=rotation)
