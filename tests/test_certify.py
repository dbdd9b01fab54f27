import dataclasses

import pytest

from simembed import (
    CertificateReport,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    PathOrder,
    SimultaneousEmbedding,
    certify_bounds,
    certify_embedding,
    certify_general_position,
    embed_two_paths,
    generate,
    parabola_pointset,
    refine_general_position,
    simul_embed_free,
)

P = GridPoint


def test_two_path_output_certifies():
    emb = embed_two_paths(PathOrder([0, 1, 2, 3, 4, 5, 6]), PathOrder([1, 4, 0, 3, 2, 5, 6]))
    inst = LayeredInstance(n=7, layers=[Layer("path", e) for e in emb.layers])
    assert certify_embedding(emb, inst).ok


def test_crossing_in_one_layer_reported():
    emb = SimultaneousEmbedding(
        coords=[P(0, 0), P(2, 2), P(0, 2), P(2, 0)],
        layers=[[(0, 1), (2, 3)]],
        width=3,
        height=3,
    )
    inst = LayeredInstance(n=4, layers=[Layer("path", [(0, 1), (2, 3)])])
    rep = certify_embedding(emb, inst)
    assert not rep.ok
    assert rep.violations[0].kind == "layer-crossing"
    assert rep.violations[0].witness == (0, 0, 1)


def test_same_segments_in_different_layers_allowed():
    emb = SimultaneousEmbedding(
        coords=[P(0, 0), P(2, 2), P(0, 2), P(2, 0)],
        layers=[[(0, 1)], [(2, 3)]],
        width=3,
        height=3,
    )
    inst = LayeredInstance(
        n=4, layers=[Layer("path", [(0, 1)]), Layer("path", [(2, 3)])]
    )
    assert certify_embedding(emb, inst).ok


def test_duplicate_coordinates_reported():
    emb = SimultaneousEmbedding(
        coords=[P(1, 1), P(1, 1), P(2, 2)],
        layers=[[(0, 2)]],
        width=2,
        height=2,
    )
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 2)])])
    rep = certify_embedding(emb, inst)
    assert any(v.kind == "duplicate-point" and v.witness == (0, 1) for v in rep.violations)


def test_bad_bijection_reported():
    emb = SimultaneousEmbedding(
        coords=[P(0, 0), P(1, 2), P(3, 1)],
        layers=[[(0, 1), (1, 2)]],
        width=4,
        height=3,
        assignments=[[0, 0, 2]],
    )
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 1), (1, 2)])], mapping="free")
    rep = certify_embedding(emb, inst)
    assert any(v.kind == "bad-bijection" for v in rep.violations)


def test_free_mapping_requires_assignments():
    emb = SimultaneousEmbedding(
        coords=[P(0, 0), P(1, 2), P(3, 1)], layers=[[(0, 1)]], width=4, height=3
    )
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 1)])], mapping="free")
    with pytest.raises(InvalidInstanceError):
        certify_embedding(emb, inst)


def test_arity_mismatch_is_an_error_not_a_report():
    emb = SimultaneousEmbedding(coords=[P(0, 0)], layers=[[]], width=1, height=1)
    inst = LayeredInstance(n=2, layers=[Layer("path", [(0, 1)])])
    with pytest.raises(InvalidInstanceError):
        certify_embedding(emb, inst)


def test_general_position_reports():
    assert certify_general_position(parabola_pointset(10).points).ok
    rep = certify_general_position([P(0, 0), P(1, 1), P(2, 2)])
    assert not rep.ok
    assert rep.violations[0].kind == "collinear-triple"
    assert rep.violations[0].witness == (0, 1, 2)
    out = refine_general_position([P(0, 0), P(1, 0), P(2, 0), P(0, 1), P(1, 1)], 4)
    assert certify_general_position(out).ok


def test_certify_bounds():
    emb = embed_two_paths(PathOrder([0, 1, 2]), PathOrder([2, 0, 1]))
    assert certify_bounds(emb, 3, 3).ok
    rep = certify_bounds(emb, 1, 1)
    assert not rep.ok
    assert all(v.kind == "out-of-bounds" for v in rep.violations)
    # translation to (1,1) happens before checking
    shifted = SimultaneousEmbedding(
        coords=[P(100, 200), P(101, 201)], layers=[[(0, 1)]], width=2, height=2
    )
    assert certify_bounds(shifted, 2, 2).ok


def test_report_round_trips_through_json():
    rep = certify_general_position([P(0, 0), P(1, 1), P(2, 2)])
    again = CertificateReport.from_json(rep.to_json())
    assert again.ok == rep.ok
    assert [(v.kind, v.witness) for v in again.violations] == [
        (v.kind, v.witness) for v in rep.violations
    ]


def _valid_embeddings():
    # A free-mapping result (three outerplanar layers on the parabola set)
    # and a given-mapping one (two paths), each certified clean first.
    n = 40
    layers = [generate("maximal-outerplanar", n, seed) for seed in (1, 2, 3)]
    free = (simul_embed_free(layers, n), LayeredInstance(n=n, layers=layers, mapping="free"))
    order = [3, 0, 7, 5, 1, 8, 2, 6, 4, 9]
    emb = embed_two_paths(PathOrder(list(range(10))), PathOrder(order))
    given = (emb, LayeredInstance(n=10, layers=[Layer("path", e) for e in emb.layers]))
    for emb, inst in (free, given):
        assert certify_embedding(emb, inst).ok
    return [free, given]


@pytest.mark.parametrize("case", [0, 1], ids=["free", "given"])
@pytest.mark.parametrize("li", [0, 1])
def test_vertex_moved_onto_an_edge_of_its_layer_is_named(case, li):
    # Doubling every coordinate keeps the drawing valid and puts the midpoint
    # of each edge on the grid; moving the point of a vertex there plants a
    # conflict between that edge and every edge at the vertex.
    emb, inst = _valid_embeddings()[case]
    phi = emb.assignments[li] if emb.assignments else list(range(inst.n))
    edges = emb.layers[li]
    i = len(edges) // 2
    a, b = phi[edges[i][0]], phi[edges[i][1]]
    v = next(w for w in range(inst.n) if phi[w] not in (a, b))
    coords = [P(2 * p.x, 2 * p.y) for p in emb.coords]
    mid = P((coords[a].x + coords[b].x) // 2, (coords[a].y + coords[b].y) // 2)
    assert mid not in coords
    coords[phi[v]] = mid
    rep = certify_embedding(dataclasses.replace(emb, coords=coords), inst)
    assert not rep.ok
    named = {(x.kind, x.witness) for x in rep.violations}
    at_v = [j for j, e in enumerate(edges) if v in e]
    assert at_v
    for j in at_v:
        assert ("layer-crossing", (li, min(i, j), max(i, j))) in named


@pytest.mark.parametrize("case", [0, 1], ids=["free", "given"])
def test_duplicated_point_is_named(case):
    emb, inst = _valid_embeddings()[case]
    coords = list(emb.coords)
    coords[7] = coords[2]
    rep = certify_embedding(dataclasses.replace(emb, coords=coords), inst)
    assert not rep.ok
    assert rep.violations[0].kind == "duplicate-point"
    assert rep.violations[0].witness == (2, 7)


def test_broken_bijection_is_named():
    emb, inst = _valid_embeddings()[0]
    assignments = [list(phi) for phi in emb.assignments]
    assignments[1][9] = assignments[1][4]
    rep = certify_embedding(dataclasses.replace(emb, assignments=assignments), inst)
    assert [(x.kind, x.witness) for x in rep.violations] == [("bad-bijection", (1, 4, 9))]
