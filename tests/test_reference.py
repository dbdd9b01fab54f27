"""The optimized scatter and face completion against their plain references.

The package's direction-hash scatter and trace-once face completion must
return exactly what the pair scan and the re-trace-per-chord loops in
``reference.py`` return, on inputs chosen so that candidates are rejected
and faces of every size get completed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import thin_outerplanar, thin_plane
from reference import (
    maximalize_outerplanar_retrace,
    scatter_pair_scan,
    triangulate_plane_retrace,
)
from simembed import (
    GridPoint,
    InternalInvariantError,
    Layer,
    generate,
    maximalize_outerplanar,
    triangulate_plane,
)
from simembed.mapped import _scatter_general_position


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InternalInvariantError:
        return "no slot"


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=14),
    st.integers(0, 2),
    st.integers(0, 3),
)
def test_scatter_matches_pair_scan(centers, half_w, half_h):
    # Cells this small and this close overlap, so candidates are rejected
    # for collinearity and for coinciding with placed points.
    assert _outcome(_scatter_general_position, centers, half_w, half_h) == _outcome(
        scatter_pair_scan, centers, half_w, half_h
    )


def test_scatter_coincident_candidates():
    P = GridPoint
    # With one point placed there is no pair, so a coincident candidate is
    # accepted; from two placed points on it is rejected.
    assert _scatter_general_position([(0, 0), (0, 0)], 0, 0) == [P(0, 0), P(0, 0)]
    with pytest.raises(InternalInvariantError):
        _scatter_general_position([(0, 0), (3, 1), (0, 0)], 0, 0)
    for centers in ([(0, 0), (3, 1), (0, 0)], [(0, 0), (0, 0), (5, 2)], [(1, 1), (4, 2), (1, 1)]):
        assert _outcome(_scatter_general_position, centers, 1, 1) == _outcome(
            scatter_pair_scan, centers, 1, 1
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10**6), st.floats(0, 1))
def test_triangulate_plane_matches_retrace(n, seed, share):
    # share 1.0 thins the triangulation down to a spanning tree
    layer = thin_plane(generate("plane-triangulation", n, seed), n, share, random.Random(seed))
    assert triangulate_plane(layer, n) == triangulate_plane_retrace(layer, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 30), st.integers(0, 10**6), st.floats(0, 1), st.floats(0, 1))
def test_maximalize_outerplanar_matches_retrace(n, seed, density, cycle_keep):
    rng = random.Random(seed)
    thinned = thin_outerplanar(generate("maximal-outerplanar", n, seed), density, rng)
    cyc = thinned.outer_cycle
    cycle = {frozenset((cyc[i], cyc[(i + 1) % n])) for i in range(n)}
    edges = [e for e in thinned.edges if frozenset(e) not in cycle or rng.random() < cycle_keep]
    layer = Layer("outerplanar", edges, outer_cycle=cyc)
    assert maximalize_outerplanar(layer, n) == maximalize_outerplanar_retrace(layer, n)


def test_maximalize_small_cycles_match_retrace():
    for n in (1, 2, 3):
        for edges in ([], [(0, 1)]):
            if n == 1 and edges:
                continue
            layer = Layer("outerplanar", edges, outer_cycle=list(range(n)))
            assert maximalize_outerplanar(layer, n) == maximalize_outerplanar_retrace(layer, n)
