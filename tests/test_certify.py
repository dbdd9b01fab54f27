import dataclasses
import random

import pytest

from helpers import embedding_of
from simembed import (
    CertificateReport,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    PathOrder,
    as_path,
    caterpillar_decompose,
    certify_embedding,
    certify_general_position,
    embed_path_caterpillar,
    embed_two_paths,
    generate,
    parabola_pointset,
    refine_general_position,
    simul_embed_free,
)
from simembed import certify
from simembed.certify import _sweep_frame, check_embedding_shape

P = GridPoint


def test_two_path_output_certifies():
    paths = [PathOrder([0, 1, 2, 3, 4, 5, 6]), PathOrder([1, 4, 0, 3, 2, 5, 6])]
    emb = embed_two_paths(*paths)
    inst = LayeredInstance(n=7, layers=[Layer("path", p.edges()) for p in paths])
    assert certify_embedding(emb, inst).ok


def test_crossing_in_one_layer_reported():
    emb = embedding_of([P(0, 0), P(2, 2), P(0, 2), P(2, 0)])
    inst = LayeredInstance(n=4, layers=[Layer("path", [(0, 1), (2, 3)])])
    rep = certify_embedding(emb, inst)
    assert not rep.ok
    assert rep.violations[0].kind == "layer-crossing"
    assert rep.violations[0].witness == (0, 0, 1)


def test_same_segments_in_different_layers_allowed():
    emb = embedding_of([P(0, 0), P(2, 2), P(0, 2), P(2, 0)])
    inst = LayeredInstance(
        n=4, layers=[Layer("path", [(0, 1)]), Layer("path", [(2, 3)])]
    )
    assert certify_embedding(emb, inst).ok


def test_duplicate_coordinates_reported():
    emb = embedding_of([P(1, 1), P(1, 1), P(2, 2)])
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 2)])])
    rep = certify_embedding(emb, inst)
    assert any(v.kind == "duplicate-point" and v.witness == (0, 1) for v in rep.violations)


def test_bad_bijection_reported():
    emb = embedding_of([P(0, 0), P(1, 2), P(3, 1)], assignments=[[0, 0, 2]])
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 1), (1, 2)])], mapping="free")
    rep = certify_embedding(emb, inst)
    assert any(v.kind == "bad-bijection" for v in rep.violations)


def test_free_mapping_requires_assignments():
    emb = embedding_of([P(0, 0), P(1, 2), P(3, 1)])
    inst = LayeredInstance(n=3, layers=[Layer("path", [(0, 1)])], mapping="free")
    with pytest.raises(InvalidInstanceError):
        certify_embedding(emb, inst)


def test_arity_mismatch_is_an_error_not_a_report():
    emb = embedding_of([P(0, 0)])
    inst = LayeredInstance(n=2, layers=[Layer("path", [(0, 1)])])
    with pytest.raises(InvalidInstanceError):
        certify_embedding(emb, inst)


def test_general_position_reports():
    assert certify_general_position(parabola_pointset(10)).ok
    rep = certify_general_position([P(0, 0), P(1, 1), P(2, 2)])
    assert not rep.ok
    assert rep.violations[0].kind == "collinear-triple"
    assert rep.violations[0].witness == (0, 1, 2)
    out = refine_general_position([P(0, 0), P(1, 0), P(2, 0), P(0, 1), P(1, 1)], 4)
    assert certify_general_position(out).ok


def test_certify_bounds():
    paths = [PathOrder([0, 1, 2]), PathOrder([2, 0, 1])]
    emb = embed_two_paths(*paths)
    inst = LayeredInstance(n=3, layers=[Layer("path", p.edges()) for p in paths])
    assert certify_embedding(emb, inst, bounds=(3, 3)).ok
    rep = certify_embedding(emb, inst, bounds=(1, 1))
    assert not rep.ok
    assert all(v.kind == "out-of-bounds" for v in rep.violations)
    # translation to (1,1) happens before checking
    shifted = embedding_of([P(100, 200), P(101, 201)])
    shifted_inst = LayeredInstance(n=2, layers=[Layer("path", [(0, 1)])])
    assert certify_embedding(shifted, shifted_inst, bounds=(2, 2)).ok


def test_certify_bounds_at_the_extent():
    # Extents 5 (x from 3 to 7) and 4 (y from 10 to 13): bounds equal to
    # them pass, and one under names exactly the points beyond the edge.
    emb = embedding_of([P(3, 10), P(7, 11), P(5, 13), P(4, 12)])
    assert (emb.width, emb.height) == (5, 4)
    inst = LayeredInstance(n=4, layers=[Layer("path", [(0, 1), (1, 2), (2, 3)])])
    assert certify_embedding(emb, inst, bounds=(5, 4)).ok

    def witnesses(w, h):
        return [(v.kind, v.witness) for v in certify_embedding(emb, inst, bounds=(w, h)).violations]

    assert witnesses(4, 4) == [("out-of-bounds", (1,))]
    assert witnesses(5, 3) == [("out-of-bounds", (2,))]
    assert witnesses(4, 3) == [("out-of-bounds", (1,)), ("out-of-bounds", (2,))]
    # only the minimum corner, point 0, fits a 1 x 1 grid
    assert witnesses(1, 1) == [("out-of-bounds", (i,)) for i in (1, 2, 3)]


def test_given_mapping_refuses_assignments():
    # Under a given mapping vertex v is drawn at coords[v] in every layer;
    # per-layer assignments would let each layer relabel the points.
    paths = [PathOrder([0, 1, 2]), PathOrder([2, 0, 1])]
    emb = embed_two_paths(*paths)
    inst = LayeredInstance(n=3, layers=[Layer("path", p.edges()) for p in paths])
    relabeled = dataclasses.replace(emb, assignments=[[0, 1, 2], [1, 2, 0]])
    with pytest.raises(InvalidInstanceError, match="given-mapping"):
        certify_embedding(relabeled, inst)
    with pytest.raises(InvalidInstanceError, match="given-mapping"):
        check_embedding_shape(relabeled, inst)


def test_instance_without_vertices_is_refused_not_certified():
    # no point to take an extent of: the shape check refuses the instance
    # as validate_instance would, before any scan reads the columns
    emb = embedding_of([])
    inst = LayeredInstance(n=0, layers=[Layer("path", [])], mapping="given")
    with pytest.raises(InvalidInstanceError, match="at least one vertex"):
        certify_embedding(emb, inst, bounds=(0, 0))
    with pytest.raises(InvalidInstanceError, match="at least one vertex"):
        check_embedding_shape(emb, inst)


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
    paths = [PathOrder(list(range(10))), PathOrder(order)]
    emb = embed_two_paths(*paths)
    given = (emb, LayeredInstance(n=10, layers=[Layer("path", p.edges()) for p in paths]))
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
    edges = inst.layers[li].edges
    i = len(edges) // 2
    a, b = phi[edges[i][0]], phi[edges[i][1]]
    v = next(w for w in range(inst.n) if phi[w] not in (a, b))
    doubled = embedding_of([P(2 * p.x, 2 * p.y) for p in emb.coords], emb.assignments)
    # the extent is read off the new points: doubled, they span 2w - 1 columns
    assert (doubled.width, doubled.height) == (2 * emb.width - 1, 2 * emb.height - 1)
    coords = list(doubled.coords)
    mid = P((coords[a].x + coords[b].x) // 2, (coords[a].y + coords[b].y) // 2)
    assert mid not in coords
    coords[phi[v]] = mid
    rep = certify_embedding(embedding_of(coords, emb.assignments), inst)
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
    rep = certify_embedding(embedding_of(coords, emb.assignments), inst)
    assert not rep.ok
    assert rep.violations[0].kind == "duplicate-point"
    assert rep.violations[0].witness == (2, 7)


def test_broken_bijection_is_named():
    emb, inst = _valid_embeddings()[0]
    assignments = [list(phi) for phi in emb.assignments]
    assignments[1][9] = assignments[1][4]
    rep = certify_embedding(dataclasses.replace(emb, assignments=assignments), inst)
    assert [(x.kind, x.witness) for x in rep.violations] == [("bad-bijection", (1, 4, 9))]


def test_sweep_axis_is_the_one_a_sweep_line_meets_fewer_edges_on():
    # Each path of a two-paths layout steps by one on its own axis and
    # jumps across the grid on the other, so a sweep along that own axis
    # meets about one edge at a time, and one along the other about n / 3.
    rng = random.Random(5)
    orders = [rng.sample(range(200), 200) for _ in range(2)]
    paths = [PathOrder(orders[0]), PathOrder(orders[1])]
    emb = embed_two_paths(*paths)
    xs = [p.x for p in emb.coords]
    ys = [p.y for p in emb.coords]
    first = [_sweep_frame(xs, ys, p.edges(), 199, 199)[0] for p in paths]
    assert first[0] is xs and first[1] is ys
    # Passed the other way round, each layer still sweeps along its own path.
    first = [_sweep_frame(ys, xs, p.edges(), 199, 199)[0] for p in paths]
    assert first[0] is xs and first[1] is ys
    # Horizontal edges only: every vertical sweep line meets many of them
    # (sum |dx| > 0), every horizontal one meets none (sum |dy| = 0).
    xs, ys = [0, 5, 1, 6, 2, 7], [0, 0, 1, 1, 2, 2]
    assert _sweep_frame(xs, ys, [(0, 1), (2, 3), (4, 5)], 7, 2) == (ys, xs)


def test_path_layers_of_given_mapping_drawings_skip_the_sweep(monkeypatch):
    # Each path of a two-paths drawing steps by one along its own axis, and
    # the path of a path-caterpillar drawing along y, so the chain rule
    # proves those layers and the sweep never starts on them; it does start
    # on the caterpillar.
    swept = []
    real = certify._any_conflict

    def counting(xs, ys, edges):
        swept.append(edges)
        return real(xs, ys, edges)

    monkeypatch.setattr(certify, "_any_conflict", counting)
    rng = random.Random(11)
    for n in (2, 3, 10, 400):
        paths = [PathOrder(rng.sample(range(n), n)) for _ in range(2)]
        inst = LayeredInstance(n=n, layers=[Layer("path", p.edges()) for p in paths])
        assert certify_embedding(embed_two_paths(*paths), inst).ok
    assert swept == []
    for seed in (1, 2, 3):
        n = 300
        path, cat = generate("path", n, seed), generate("caterpillar", n, seed)
        emb, _ = embed_path_caterpillar(as_path(path, n), caterpillar_decompose(cat, n))
        inst = LayeredInstance(n=n, layers=[path, cat])
        assert certify_embedding(emb, inst).ok
        assert swept.pop() is cat.edges and swept == []
