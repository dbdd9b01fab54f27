import functools
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import embedding_of
from simembed import (
    COORD_LIMIT,
    Caterpillar,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    ParseError,
    PathOrder,
    SimultaneousEmbedding,
    as_path,
    certify_embedding,
    cli_main,
    embed_two_paths,
    generate,
    parse_instance,
    parse_result,
    render_svg,
    serialize_instance,
    serialize_result,
)
from simembed import cli, graphs, unmapped
from simembed.documents import _dumps, instance_to_json, result_to_json
from simembed.generate import KINDS
from test_golden import CASES, GEN_KINDS


MINIMAL_TWO_PATHS = json.dumps(
    {
        "n": 3,
        "mapping": "given",
        "layers": [
            {"class": "path", "edges": [[0, 1], [1, 2]]},
            {"class": "path", "edges": [[2, 0], [0, 1]]},
        ],
    }
)


def test_parse_minimal_two_paths():
    inst = parse_instance(MINIMAL_TWO_PATHS)
    assert inst.n == 3
    assert [l.kind for l in inst.layers] == ["path", "path"]


def test_parse_rejects_unknown_fields():
    doc = json.loads(MINIMAL_TWO_PATHS)
    doc["surprise"] = 1
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))
    doc = json.loads(MINIMAL_TWO_PATHS)
    doc["layers"][0]["color"] = "red"
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_planar_without_rotation():
    doc = {
        "n": 3,
        "mapping": "given",
        "layers": [{"class": "planar", "edges": [[0, 1], [1, 2], [2, 0]]}],
    }
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_parse_accepts_bytes():
    inst = parse_instance(MINIMAL_TWO_PATHS.encode("utf-8"))
    assert inst.n == 3


def test_int_pairs_accepts_exactly_two_element_integer_lists():
    from simembed.documents import _int_pair_list

    pairs = [[0, 1], [-3, 10**30]]
    assert _int_pair_list(pairs, "edges") is pairs
    assert _int_pair_list([], "coords") == []
    # bools are ints to isinstance, but JSON true is no vertex; edges and
    # coordinates are refused in the same words, and a document refuses
    # every entry that JSON can carry (a tuple loads as a list)
    for bad in ([[0, 1.0]], [["0", 1]], [[0, None]], [[0]], [[0, 1, 2]], [(0, 1)], [None], {},
                [[True, 2]], [[0, False]], [[0, 1], [2, 1.5]]):
        words = "must be a list of pairs" if bad == {} else "entries must be integer pairs"
        with pytest.raises(ParseError, match=f"^coords {words}$"):
            _int_pair_list(bad, "coords")
        if json.loads(json.dumps(bad)) != bad:
            continue
        layer = {"class": "outerplanar", "edges": bad, "outer_cycle": [0, 1, 2]}
        with pytest.raises(ParseError, match=f"^layer 0 edges {words}$"):
            parse_instance(json.dumps({"n": 3, "mapping": "free", "layers": [layer]}))
        with pytest.raises(ParseError, match=f"^coords {words}$"):
            parse_result(json.dumps({"coords": bad, "width": 1, "height": 1}))


def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randrange(3, 15)
    kind = rng.choice(KINDS)
    layer = generate(kind, n, seed)
    mapping = "free" if layer.kind in ("planar", "outerplanar") else "given"
    second = generate(kind, n, seed + 1)
    return LayeredInstance(n=n, layers=[layer, second], mapping=mapping)


def test_serialize_parse_roundtrip():
    for seed in range(100):
        inst = random_instance(seed)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text


def test_result_document_roundtrip():
    emb = embed_two_paths(PathOrder([0, 1, 2]), PathOrder([1, 2, 0]))
    text = serialize_result(emb)
    again, cert = parse_result(text)
    assert cert is None
    assert [(p.x, p.y) for p in again.coords] == [(p.x, p.y) for p in emb.coords]
    assert (again.width, again.height) == (emb.width, emb.height)


_COORDS = st.integers(-3, 3) | st.integers(-COORD_LIMIT, COORD_LIMIT)


@st.composite
def _certified_embeddings(draw):
    # A gen kind's embed result, or random points (duplicates and collinear
    # triples included) with or without assignments, certified on a path.
    if draw(st.booleans()):
        inst_text, _ = _valid_documents(
            draw(st.sampled_from(sorted(cli._EMBEDDERS))), draw(st.integers(3, 7)),
            draw(st.integers(0, 3)),
        )
        inst = parse_instance(inst_text)
        emb = cli._dispatch_embed(inst)
    else:
        coords = draw(st.lists(st.builds(GridPoint, _COORDS, _COORDS), min_size=1, max_size=8))
        n = len(coords)
        free = draw(st.booleans())
        emb = embedding_of(
            coords, assignments=[draw(st.permutations(range(n)))] if free else None
        )
        inst = LayeredInstance(n=n, layers=[Layer("path", [(i, i + 1) for i in range(n - 1)])],
                               mapping="free" if free else "given")
    return emb, draw(st.none() | st.just(certify_embedding(emb, inst)))


@settings(max_examples=200, deadline=None)
@given(_certified_embeddings())
def test_result_document_roundtrip_keeps_points_extent_and_assignments(case):
    emb, report = case
    text = serialize_result(emb, report)
    # the coords are written from the columns, as json.dumps writes their pairs
    assert text == _stdlib_dumps(result_to_json(emb, report)) + "\n"
    again, cert = parse_result(text)
    assert again.coords == emb.coords and again.assignments == emb.assignments
    xs, ys = [p.x for p in emb.coords], [p.y for p in emb.coords]
    assert (again.width, again.height) == (emb.width, emb.height)
    assert (emb.width, emb.height) == (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)
    assert cert == report


def _stdlib_dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


# Ints beyond 64 bits; strings with quotes, backslashes, control and
# non-ASCII characters; lists that are all ints or all int pairs but for a
# bool or None, which the writer must not take for an int.
_INTS = st.integers() | st.integers(min_value=2**63) | st.integers(max_value=-(2**63))
_STRINGS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\tAé☃\U0001f600') | st.characters())
_NEAR_INTS = _INTS | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | _INTS
    | st.floats()
    | _STRINGS
    | st.lists(_INTS)
    | st.lists(_NEAR_INTS)
    | st.lists(st.lists(_INTS, min_size=2, max_size=2))
    | st.lists(st.lists(_NEAR_INTS, min_size=2, max_size=2))
    | st.lists(st.lists(_INTS, min_size=1, max_size=3)),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_STRINGS, kids, max_size=4),
    max_leaves=24,
)


@settings(max_examples=250, deadline=None)
@given(_JSON_VALUES)
def test_writer_matches_indented_json_dumps(value):
    assert _dumps(value) == _stdlib_dumps(value)


def test_result_without_points_writes_empty_coords():
    emb = SimultaneousEmbedding(xs=[], ys=[])
    assert serialize_result(emb) == _stdlib_dumps(result_to_json(emb)) + "\n"
    assert '"coords": []' in serialize_result(emb)


@pytest.mark.parametrize("name", sorted(CASES))
def test_documents_match_indented_json_dumps_on_the_golden_corpus(tmp_path, name):
    # The instance as gen or serialize_instance wrote it, and the result
    # and certificate documents that embed and certify write for it.
    inst_path = CASES[name](tmp_path)
    text = inst_path.read_text(encoding="utf-8")
    inst = parse_instance(text)
    assert text == serialize_instance(inst) == _stdlib_dumps(instance_to_json(inst)) + "\n"
    result, report = tmp_path / "result.json", tmp_path / "report.json"
    assert cli_main(["embed", "--in", str(inst_path), "--out", str(result)]) == 0
    assert cli_main(["certify", "--in", str(result), "--instance", str(inst_path),
                     "--out", str(report)]) == 0
    for path in (result, report):
        doc = path.read_text(encoding="utf-8")
        assert doc == _stdlib_dumps(json.loads(doc)) + "\n"


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def test_svg_two_path_structure():
    paths = [PathOrder([0, 1, 2, 3, 4, 5, 6]), PathOrder([1, 4, 0, 3, 2, 5, 6])]
    emb = embed_two_paths(*paths)
    inst = LayeredInstance(n=7, layers=[Layer("path", p.edges()) for p in paths])
    svg = render_svg(emb, inst)
    assert svg.count("<g id=\"layer-") == 2
    assert svg.count("<line") == 12
    assert svg.count("<circle") == 7
    assert render_svg(emb, inst) == svg  # deterministic


def test_svg_single_vertex():
    from simembed import GridPoint

    emb = embedding_of([GridPoint(1, 1)])
    svg = render_svg(emb, LayeredInstance(n=1, layers=[Layer("path", [])]))
    assert svg.count("<circle") == 1
    assert svg.count("<line") == 0


def test_svg_three_layers():
    n = 8
    path = Layer("outerplanar", [(i, i + 1) for i in range(n - 1)], outer_cycle=list(range(n)))
    star = Layer("outerplanar", [(0, i) for i in range(1, n)], outer_cycle=list(range(n)))
    cyc = Layer("outerplanar", [(i, (i + 1) % n) for i in range(n)], outer_cycle=list(range(n)))
    from simembed import simul_embed_free

    emb = simul_embed_free([path, star, cyc], n)
    svg = render_svg(emb, LayeredInstance(n=n, layers=[path, star, cyc], mapping="free"))
    assert svg.count("<g id=\"layer-") == 3


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_generate_is_deterministic_and_valid():
    from simembed import (
        as_path,
        caterpillar_decompose,
        check_plane_embedding,
        maximalize_outerplanar,
    )

    for seed in (0, 1, 17):
        assert generate("path", 9, seed).edges == generate("path", 9, seed).edges
        as_path(generate("path", 5, seed), 5)
        caterpillar_decompose(generate("caterpillar", 20, seed), 20)
        lay = generate("plane-triangulation", 15, seed)
        assert check_plane_embedding(lay, 15) == 2 * 15 - 4
        _aug, dummies = maximalize_outerplanar(generate("maximal-outerplanar", 15, seed), 15)
        assert dummies == []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [10**5000, -(10**5000), 2**40 + 1], ids=["10^5000", "-10^5000", "2^40+1"])
def test_generate_refuses_a_vertex_count_over_the_budget(kind, n):
    # refused before the seed, which formats n, and before any list of n
    with pytest.raises(InvalidInstanceError) as exc:
        generate(kind, n, 1)
    assert str(exc.value) == "the vertex count of a generated layer is over 2^40 in magnitude"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_embed_certify_render_roundtrip(tmp_path):
    inst_file = tmp_path / "inst.json"
    out_file = tmp_path / "result.json"
    svg_file = tmp_path / "drawing.svg"
    inst_file.write_text(MINIMAL_TWO_PATHS, encoding="utf-8")

    rc = cli_main(
        ["embed", "--in", str(inst_file), "--out", str(out_file), "--svg", str(svg_file)]
    )
    assert rc == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["certificate"]["ok"] is True
    assert svg_file.read_text(encoding="utf-8").startswith("<?xml")

    rc = cli_main(
        ["certify", "--in", str(out_file), "--instance", str(inst_file), "--out", "-"]
    )
    assert rc == 0

    rc = cli_main(
        [
            "render",
            "--in", str(out_file),
            "--instance", str(inst_file),
            "--svg", str(tmp_path / "again.svg"),
        ]
    )
    assert rc == 0


def test_cli_gen_then_embed_all_kinds(tmp_path):
    for kind, n in (
        ("two-paths", 9),
        ("two-caterpillars", 8),
        ("path-caterpillar", 10),
        ("outerplanars", 7),
        ("planar-outerplanar", 7),
    ):
        inst_file = tmp_path / f"{kind}.json"
        out_file = tmp_path / f"{kind}-result.json"
        rc = cli_main(
            ["gen", "--kind", kind, "--n", str(n), "--seed", "3", "--out", str(inst_file)]
        )
        assert rc == 0
        rc = cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)])
        assert rc == 0, kind
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert doc["certificate"]["ok"] is True, kind


def test_cli_embed_reversed_layer_orders(tmp_path):
    from simembed import generate as gen_layer
    from simembed.documents import instance_to_json

    # caterpillar first, path second
    n = 8
    cat = gen_layer("caterpillar", n, 1)
    path = gen_layer("path", n, 2)
    inst = LayeredInstance(n=n, layers=[cat, path], mapping="given")
    f = tmp_path / "cp.json"
    f.write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
    out = tmp_path / "cp-r.json"
    assert cli_main(["embed", "--in", str(f), "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["certificate"]["ok"] is True

    # outerplanar first, planar second
    outer = gen_layer("maximal-outerplanar", n, 3)
    plane = gen_layer("plane-triangulation", n, 4)
    inst = LayeredInstance(n=n, layers=[outer, plane], mapping="free")
    f2 = tmp_path / "op.json"
    f2.write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
    out2 = tmp_path / "op-r.json"
    assert cli_main(["embed", "--in", str(f2), "--out", str(out2)]) == 0
    doc2 = json.loads(out2.read_text(encoding="utf-8"))
    assert doc2["certificate"]["ok"] is True


_SVG_LINE = re.compile(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"/>')
_SVG_CIRCLE = re.compile(r'<circle cx="([^"]+)" cy="([^"]+)"')


def _gen_instance(kind):
    def build(tmp_path):
        path = tmp_path / "inst.json"
        args = ["gen", "--kind", kind, "--n", "12", "--seed", "3", "--out", str(path)]
        assert cli_main(args) == 0
        return path

    return build


_SVG_CASES = {f"gen-{kind}-n12-s3": _gen_instance(kind) for kind in GEN_KINDS}
_SVG_CASES.update((name, build) for name, build in CASES.items() if name.startswith("reversed-"))


@pytest.mark.parametrize("case", sorted(_SVG_CASES))
def test_embed_svg_equals_render(tmp_path, case):
    # embed --svg and render draw one result against one instance, so they
    # write the same bytes; each layer group draws that instance layer's
    # edges, in the instance's layer order and edge order.
    inst_file = _SVG_CASES[case](tmp_path)
    result, embed_svg, render_svg_file = (
        tmp_path / "r.json", tmp_path / "embed.svg", tmp_path / "render.svg"
    )
    assert cli_main(["embed", "--in", str(inst_file), "--out", str(result),
                     "--svg", str(embed_svg)]) == 0
    assert cli_main(["render", "--in", str(result), "--instance", str(inst_file),
                     "--svg", str(render_svg_file)]) == 0
    svg = embed_svg.read_bytes()
    assert svg == render_svg_file.read_bytes()

    inst = parse_instance(inst_file.read_text(encoding="utf-8"))
    emb, _ = parse_result(result.read_text(encoding="utf-8"))
    text = svg.decode("utf-8")
    points = {xy: i for i, xy in enumerate(_SVG_CIRCLE.findall(text))}
    assert len(points) == inst.n
    groups = text.split('<g id="layer-')[1:]
    assert [g.split('"', 1)[0] for g in groups] == [str(i) for i in range(len(inst.layers))]
    for li, (group, layer) in enumerate(zip(groups, inst.layers)):
        slot = range(inst.n) if emb.assignments is None else emb.assignments[li]
        drawn = [(points[m[:2]], points[m[2:]]) for m in _SVG_LINE.findall(group)]
        assert drawn == [(slot[u], slot[v]) for u, v in layer.edges], li


def test_cli_rejects_unsupported_combination(tmp_path, capsys):
    doc = {
        "n": 4,
        "mapping": "given",
        "layers": [
            {
                "class": "planar",
                "edges": [[0, 1], [1, 2], [2, 0], [0, 3], [1, 3], [2, 3]],
                "rotation": [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]],
            },
            {
                "class": "planar",
                "edges": [[0, 1], [1, 2], [2, 0], [0, 3], [1, 3], [2, 3]],
                "rotation": [[1, 2, 3], [2, 0, 3], [0, 1, 3], [0, 2, 1]],
            },
        ],
    }
    inst_file = tmp_path / "two-planar.json"
    inst_file.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    # one reason line, which lists every given-mapping row of the table
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    for mapping, classes, _check, _embed in cli._EMBEDDERS.values():
        if mapping == "given":
            assert "+".join(sorted(classes)) in err[0], (classes, err)


def test_readme_documents_every_embedder_row():
    # one row of "What it can embed" per _EMBEDDERS row, found by its gen
    # kind, with the row's mapping and a given mapping's layer classes;
    # the "Generator kinds:" sentence names the same kinds
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## What it can embed\n", 1)[1].split("\n## ", 1)[0]
    cells = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|") and "---" not in line
    ]
    assert cells[0] == ["layers", "mapping", "grid", "`gen --kind`"]
    rows = {kind.strip("`"): (layers, mapping) for layers, mapping, _grid, kind in cells[1:]}
    assert len(rows) == len(cells) - 1 and sorted(rows) == sorted(cli._EMBEDDERS)
    for kind, (mapping, classes, _check, _embed) in cli._EMBEDDERS.items():
        assert rows[kind][1] == mapping, kind
        if mapping == "given":
            assert rows[kind][0] == " + ".join(classes), kind
    sentence = readme.split("Generator kinds:", 1)[1].split(".\n", 1)[0]
    listed = re.findall(r"`([a-z]+(?:-[a-z]+)*)`", sentence)
    assert listed == list(cli._EMBEDDERS)


def _embed_free(tmp_path, layers, n):
    from simembed.documents import instance_to_json

    inst_file = tmp_path / "free.json"
    inst = LayeredInstance(n=n, layers=layers, mapping="free")
    inst_file.write_text(json.dumps(instance_to_json(inst)), encoding="utf-8")
    out_file = tmp_path / "free-r.json"
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)])
    return rc, (json.loads(out_file.read_text(encoding="utf-8")) if rc == 0 else None)


def test_cli_free_planar_between_outerplanars(tmp_path):
    n = 10
    layers = [
        generate("maximal-outerplanar", n, 1),
        generate("plane-triangulation", n, 2),
        generate("maximal-outerplanar", n, 3),
    ]
    rc, doc = _embed_free(tmp_path, layers, n)
    assert rc == 0
    assert doc["certificate"]["ok"] is True
    assert len(doc["assignments"]) == 3
    assert doc["assignments"][1] == list(range(n))


def test_cli_free_lone_planar_layer(tmp_path):
    n = 9
    rc, doc = _embed_free(tmp_path, [generate("plane-triangulation", n, 4)], n)
    assert rc == 0
    assert doc["certificate"]["ok"] is True
    assert doc["assignments"] == [list(range(n))]


@pytest.mark.parametrize(
    "kinds",
    [("plane-triangulation", "plane-triangulation"), ("path", "maximal-outerplanar")],
    ids=["two-planar", "path"],
)
def test_cli_free_unsupported_classes_one_error_line(tmp_path, capsys, kinds):
    n = 7
    layers = [generate(kind, n, seed) for seed, kind in enumerate(kinds)]
    capsys.readouterr()
    rc, _doc = _embed_free(tmp_path, layers, n)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and "without-mapping" in err[0]


def test_cli_planar_layer_over_budget_one_error_line(tmp_path, capsys, monkeypatch):
    # 5160 vertices: the general-position drawing would pass 2^40; 5159
    # fit, so that instance passes the check and reaches the triangulation
    def passed(*args):
        raise InvalidInstanceError("passed the budget check")

    monkeypatch.setattr(unmapped, "triangulate_plane", passed)
    for n, message in ((5160, "at most 5159 vertices fit"), (5159, "passed the budget check")):
        doc = {
            "n": n,
            "mapping": "free",
            "layers": [
                {
                    "class": "planar",
                    "edges": [[i, i + 1] for i in range(n - 1)],
                    "rotation": [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)],
                },
                {
                    "class": "outerplanar",
                    "edges": [[i, (i + 1) % n] for i in range(n)],
                    "outer_cycle": list(range(n)),
                },
            ],
        }
        inst_file = tmp_path / "big-planar.json"
        inst_file.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = cli_main(["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]


def test_cli_broken_split_is_caught_by_the_certificate(tmp_path, capsys, monkeypatch):
    # No split re-checks its hull edge; a rule that keeps both side sizes
    # but takes the wrong apex must still end in a failed certificate,
    # never in a silent crossing or a traceback.
    def wrong_apex(xs, ys, p, q, by_p, by_q, n_a, n_b):
        r, rest = by_p[-1], by_p[:-1]
        return r, (rest[:n_a], None), (None, rest[n_a:])

    monkeypatch.setattr(unmapped, "_select_split", wrong_apex)
    n = 40
    inst_file = tmp_path / "outerplanars.json"
    out_file = tmp_path / "r.json"
    layers = [generate("maximal-outerplanar", n, seed) for seed in (1, 2, 3)]
    inst_file.write_text(
        serialize_instance(LayeredInstance(n=n, layers=layers, mapping="free")), encoding="utf-8"
    )
    capsys.readouterr()
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("certificate FAILED:"), err
    certificate = json.loads(out_file.read_text(encoding="utf-8"))["certificate"]
    assert not certificate["ok"]
    assert "layer-crossing" in {v["kind"] for v in certificate["violations"]}


def _sorted_path(path):
    # a path through every vertex, but not the layer's
    return PathOrder(sorted(path.order))


def _legs_on_first_spine_vertex(cat):
    # a caterpillar on every vertex, but not the layer's
    legs = [leg for legs in cat.legs for leg in legs]
    return Caterpillar(cat.spine, [legs] + [[] for _ in cat.spine[1:]])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "kind, recovery, wrong",
    [
        ("two-paths", "_path_order", _sorted_path),
        ("path-caterpillar", "_caterpillar", _legs_on_first_spine_vertex),
    ],
)
def test_cli_embed_certifies_the_instance_edges(
    tmp_path, capsys, monkeypatch, kind, recovery, wrong, seed
):
    # The certifier reads each layer's edges from the instance, never from
    # the embedder: a recovery that hands back a wrong but valid order for
    # the second layer draws the wrong graph, and embed must fail the same
    # certificate that certify computes from the same two files.
    inst_file = tmp_path / "inst.json"
    out_file = tmp_path / "r.json"
    report_file = tmp_path / "report.json"
    assert cli_main(["gen", "--kind", kind, "--n", "30", "--seed", str(seed),
                     "--out", str(inst_file)]) == 0
    second = parse_instance(inst_file.read_text(encoding="utf-8")).layers[1].edges
    real = getattr(cli, recovery)

    def recover(layer, n):
        got = real(layer, n)
        return wrong(got) if layer.edges == second else got

    monkeypatch.setattr(cli, recovery, recover)
    capsys.readouterr()
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("certificate FAILED:"), err
    certificate = json.loads(out_file.read_text(encoding="utf-8"))["certificate"]
    argv = ["certify", "--in", str(out_file), "--instance", str(inst_file),
            "--out", str(report_file)]
    assert cli_main(argv) == 2
    assert certificate == json.loads(report_file.read_text(encoding="utf-8"))
    assert "layer-crossing" in {v["kind"] for v in certificate["violations"]}


HUGE_N = 10**12

HUGE_INSTANCES = {
    "given-two-paths": {
        "n": HUGE_N,
        "mapping": "given",
        "layers": [{"class": "path", "edges": [[0, 1]]}, {"class": "path", "edges": [[1, 2]]}],
    },
    "free-outerplanar-triangle": {
        "n": HUGE_N,
        "mapping": "free",
        "layers": [
            {"class": "outerplanar", "edges": [[0, 1], [1, 2], [2, 0]], "outer_cycle": [0, 1, 2]}
        ],
    },
    "free-planar-triangle": {
        "n": HUGE_N,
        "mapping": "free",
        "layers": [
            {
                "class": "planar",
                "edges": [[0, 1], [1, 2], [2, 0]],
                "rotation": [[1, 2], [2, 0], [0, 1]],
            }
        ],
    },
}


@pytest.mark.parametrize("command", ["embed", "certify", "render"])
@pytest.mark.parametrize("instance", sorted(HUGE_INSTANCES))
def test_cli_huge_vertex_count_one_error_line(tmp_path, capsys, command, instance):
    # Nothing may allocate per vertex before the instance is known to be
    # consistent: each run ends in one error line, not in exhausted memory.
    inst_file = tmp_path / "huge.json"
    inst_file.write_text(json.dumps(HUGE_INSTANCES[instance]), encoding="utf-8")
    result_file = tmp_path / "result.json"
    result_file.write_text(
        json.dumps({"coords": [[0, 0], [1, 0], [0, 1]], "width": 2, "height": 2}),
        encoding="utf-8",
    )
    args = {
        "embed": ["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json")],
        "certify": ["certify", "--in", str(result_file), "--instance", str(inst_file)],
        "render": ["render", "--in", str(result_file), "--instance", str(inst_file),
                   "--svg", str(tmp_path / "out.svg")],
    }[command]
    capsys.readouterr()
    rc = cli_main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc in (1, 2)
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_cli_out_of_memory_one_error_line(tmp_path):
    # The budget admits this n, so running out of memory is the host's
    # failure, as an I/O error is: one error line naming the command and n,
    # exit 1, and no output file.  The address-space limit is set on the
    # child only.
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = tmp_path / "inst.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "simembed", "gen", "--kind", "two-paths",
         "--n", "100000000", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit_memory,
        capture_output=True,
        text=True,
        timeout=120,
    )
    err = proc.stderr.splitlines()
    assert proc.returncode == 1, proc.stderr
    assert err == ["error: gen at n = 100000000 ran out of memory"], proc.stderr
    assert not out.exists()


# The largest n whose drawing fits the coordinate budget, per gen kind: the
# grid side n, the width 2n, the prime p >= n of the parabola set (the
# largest prime below 2^40 is 2^40 - 87), p * n + p - 1, and the
# general-position bound.
_LARGEST_N = {
    "two-paths": 2**40,
    "path-caterpillar": 2**39,
    "outerplanars": 2**40 - 87,
    "two-caterpillars": 1048573,
    "planar-outerplanar": 5159,
}

# Far over the budget: no kind may evaluate its extent, which for a prime
# near n would take long, nor allocate per vertex.
_OVER_BUDGET = [
    (["--kind", kind, "--n", str(n)], f"at most {largest} vertices fit")
    for kind, largest in _LARGEST_N.items()
    for n in (2**40 + 1, 10**20)
]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--kind", "two-paths", "--n", "0"], "at least one vertex"),
        (["--kind", "outerplanars", "--n", "5", "--layers", "0"], "at least one layer"),
        (["--kind", "outerplanars", "--n", "5", "--layers", "-2"], "at least one layer"),
        *_OVER_BUDGET,
    ],
    ids=[
        "two-paths-n0",
        "outerplanars-layers0",
        "outerplanars-layers-2",
        *(f"{options[1]}-n{options[3]}" for options, _ in _OVER_BUDGET),
    ],
)
def test_cli_gen_refuses_what_embed_would_reject(tmp_path, capsys, options, message):
    out_file = tmp_path / "inst.json"
    capsys.readouterr()
    start = time.perf_counter()
    rc = cli_main(["gen", *options, "--out", str(out_file)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and not out_file.exists()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err
    assert elapsed < 1.0


@pytest.mark.parametrize("kind, fits", sorted(_LARGEST_N.items()))
def test_cli_gen_checks_the_coordinate_budget_before_generating(
    tmp_path, capsys, monkeypatch, kind, fits
):
    # one vertex over the budget, gen refuses with embed's own message;
    # at the budget the check passes and generation starts
    def passed(*args):
        raise InvalidInstanceError("passed the budget check")

    monkeypatch.setattr(cli, "generate", passed)
    for n, message in ((fits + 1, f"at most {fits} vertices fit"), (fits, "passed the budget check")):
        out = tmp_path / f"{kind}-{n}.json"
        capsys.readouterr()
        rc = cli_main(["gen", "--kind", kind, "--n", str(n), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and not out.exists()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


@pytest.mark.parametrize("n", [1, 2])
def test_cli_planar_outerplanar_below_three_vertices_one_error_line(tmp_path, capsys, n):
    # the one-vertex plane layer is a plane embedding with one face; both
    # sizes fail for what they are, too small to triangulate
    doc = {
        "n": n,
        "mapping": "free",
        "layers": [
            {
                "class": "planar",
                "edges": [[0, 1]][: n - 1],
                "rotation": [[1 - v] for v in range(n)] if n == 2 else [[]],
            },
            {"class": "outerplanar", "edges": [[0, 1]][: n - 1], "outer_cycle": list(range(n))},
        ],
    }
    inst_file = tmp_path / "small.json"
    inst_file.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == ["error: triangulation needs at least 3 vertices"]


@pytest.mark.parametrize(
    "chords, rc, message",
    [([[0, 1]], 1, "duplicate edge"), ([[0, 2], [1, 3]], 2, "cross")],
    ids=["duplicate-edge", "crossing-chords"],
)
def test_cli_invalid_instance_exit_code_follows_where_it_is_caught(
    tmp_path, capsys, chords, rc, message
):
    # A structural error is caught while the document is parsed (exit 1);
    # chords that cross in the declared cycle, while embedding (exit 2).
    cycle = [[0, 1], [1, 2], [2, 3], [3, 0]]
    layer = {"class": "outerplanar", "edges": cycle + chords, "outer_cycle": [0, 1, 2, 3]}
    doc = {"n": 4, "mapping": "free", "layers": [layer]}
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json")]) == rc
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and message in err[0], err


def _disjoint_triangles_and_hexagon():
    # a plane layer of two disjoint triangles, which is no connected plane
    # embedding, beside an outerplanar hexagon
    rotation = [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    planar = {
        "class": "planar",
        "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]],
        "rotation": rotation,
    }
    hexagon = {
        "class": "outerplanar",
        "edges": [[i, (i + 1) % 6] for i in range(6)],
        "outer_cycle": list(range(6)),
    }
    return {"n": 6, "mapping": "free", "layers": [planar, hexagon]}


@pytest.mark.parametrize(
    "command, document, rc, message",
    [
        (
            ["embed"],
            {**json.loads(MINIMAL_TWO_PATHS), "mapping": "partial"},
            1,
            "mapping must be 'given' or 'free'",
        ),
        (["gen", "--kind", "nosuch", "--n", "5"], None, 2, "unknown kind 'nosuch'"),
        (
            ["embed"],
            _disjoint_triangles_and_hexagon(),
            2,
            "plane embedding check requires a connected graph",
        ),
    ],
    ids=["mapping-partial", "gen-unknown-kind", "disconnected-plane-layer"],
)
def test_cli_refusals_one_error_line(tmp_path, capsys, command, document, rc, message):
    out_file = tmp_path / "out.json"
    args = [*command, "--out", str(out_file)]
    if document is not None:
        inst_file = tmp_path / "inst.json"
        inst_file.write_text(json.dumps(document), encoding="utf-8")
        args += ["--in", str(inst_file)]
    capsys.readouterr()
    assert cli_main(args) == rc
    out, err = capsys.readouterr()
    assert out == "" and not out_file.exists()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


def test_parse_result_refuses_a_document_without_width():
    with pytest.raises(ParseError, match="^result document missing 'width'$"):
        parse_result(json.dumps({"coords": [[1, 1]], "height": 1}))


def test_cli_io_error_exit_code(tmp_path):
    rc = cli_main(["embed", "--in", str(tmp_path / "missing.json"), "--out", "-"])
    assert rc == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert cli_main(["embed", "--in", str(bad), "--out", "-"]) == 1


def test_cli_usage_errors(tmp_path):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(MINIMAL_TWO_PATHS, encoding="utf-8")
    rc = cli_main(["embed", "--in", str(inst_file), "--out", "-", "--bounds", "banana"])
    assert rc == 1
    rc = cli_main(["embed", "--in", str(inst_file), "--out", str(tmp_path / "r.json"), "--bounds", "3x3"])
    assert rc == 0


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    inst = tmp_path / "inst.json"
    inst.write_text(MINIMAL_TWO_PATHS, encoding="utf-8")
    result, report = tmp_path / "result.json", tmp_path / "report.json"
    assert cli_main(["embed", "--in", str(inst), "--out", str(result)]) == 0
    certify = ["certify", "--in", str(result), "--instance", str(inst), "--out", str(report)]
    assert cli_main(certify) == 0
    first = report.read_text(encoding="utf-8")
    report.unlink()
    assert cli_main(["certify", "--in", str(result)]) == 1  # no --instance
    assert cli_main(["certify", "--instance", str(inst), "--bogus"]) == 1
    assert cli_main(certify) == 0
    assert report.read_text(encoding="utf-8") == first
    capsys.readouterr()
    assert cli_main(["--help"]) == 0
    assert cli_main(["certify", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: simembed") and "--instance" in out


def test_cli_certify_from_threads_matches_serial_runs(tmp_path):
    # Eight results, each certified against its own bounds: some fit, some
    # fail with their own out-of-bounds witnesses.
    runs = []
    for i in range(8):
        inst, result = tmp_path / f"inst{i}.json", tmp_path / f"result{i}.json"
        assert cli_main(["gen", "--kind", "two-paths", "--n", "30", "--seed", str(i),
                         "--out", str(inst)]) == 0
        assert cli_main(["embed", "--in", str(inst), "--out", str(result)]) == 0
        runs.append(["certify", "--in", str(result), "--instance", str(inst),
                     "--bounds", f"{5 * i + 1}x30"])

    def certify(i, tag):
        out = tmp_path / f"report{i}-{tag}.json"
        rc = cli_main(runs[i] + ["--out", str(out)])
        return rc, out.read_text(encoding="utf-8")

    interval = sys.getswitchinterval()
    try:
        with redirect_stderr(io.StringIO()):
            serial = [certify(i, "serial") for i in range(8)]
            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(certify, range(8), ["thread"] * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert {rc for rc, _ in serial} == {0, 2}
    assert len({doc for _, doc in serial}) > 2


# Every exit of cli_main: an embed that certifies, a usage error, an
# unreadable file, a failed certificate, and an embedder out of memory.
GC_CASES = {
    "exit-0": ([], 0),
    "exit-1-usage": (["--bogus"], 1),
    "exit-1-missing-file": (["--in", "missing.json"], 1),
    "exit-2-certificate": (["--bounds", "1x1"], 2),
    "memory": ([], 1),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", sorted(GC_CASES))
def test_cli_main_pauses_the_gc_and_leaves_it_as_it_found_it(
    tmp_path, monkeypatch, case, enabled
):
    inst = tmp_path / "inst.json"
    inst.write_text(MINIMAL_TWO_PATHS, encoding="utf-8")
    extra, code = GC_CASES[case]
    argv = ["embed", "--in", str(inst), "--out", str(tmp_path / "r.json")] + extra
    monkeypatch.chdir(tmp_path)
    real = cli.embed_two_paths
    during = []

    def embed(p1, p2):
        during.append(gc.isenabled())
        if case == "memory":
            raise MemoryError
        return real(p1, p2)

    monkeypatch.setattr(cli, "embed_two_paths", embed)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        after = gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    assert rc == code
    assert after is enabled
    assert during == ([] if case.startswith("exit-1") else [False])


def test_cli_embed_and_certify_from_threads_match_serial_runs_and_restore_the_gc(
    tmp_path, monkeypatch
):
    # Sixteen commands on eight threads, each entering and leaving the GC
    # pause while others are inside it: outputs are the serial ones, every
    # command reads its instance with collection paused, and collection is
    # on again once all have returned.
    embeds, certifies = [], []
    for i in range(8):
        inst, result = tmp_path / f"inst{i}.json", tmp_path / f"result{i}.json"
        kind = ("two-paths", "path-caterpillar")[i % 2]
        assert cli_main(["gen", "--kind", kind, "--n", "40", "--seed", str(i),
                         "--out", str(inst)]) == 0
        assert cli_main(["embed", "--in", str(inst), "--out", str(result)]) == 0
        embeds.append(["embed", "--in", str(inst)])
        certifies.append(["certify", "--in", str(result), "--instance", str(inst),
                          "--bounds", f"{5 * i + 1}x40"])
    runs = embeds + certifies

    def run(i, tag):
        out = tmp_path / f"out{i}-{tag}.json"
        rc = cli_main(runs[i] + ["--out", str(out)])
        return rc, out.read_text(encoding="utf-8")

    real, during = cli.parse_instance, []

    def parse_instance(text):
        during.append(gc.isenabled())
        return real(text)

    monkeypatch.setattr(cli, "parse_instance", parse_instance)
    assert gc.isenabled()
    interval = sys.getswitchinterval()
    try:
        with redirect_stderr(io.StringIO()):
            serial = [run(i, "serial") for i in range(16)]
            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, i, "thread") for i in range(16)]
                threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert {rc for rc, _ in serial} == {0, 2}
    assert during == [False] * 32
    assert gc.isenabled()


def test_cli_fivepaths_sampled(tmp_path):
    out = tmp_path / "sampled.json"
    rc = cli_main(["fivepaths", "--grid", "12", "--samples", "300", "--seed", "9", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["search"]["exhaustive"] is False
    assert doc["search"]["counterexample"] is None


def test_cli_fivepaths_places_a_carried_set_at_its_witness(tmp_path, capsys):
    # five seeded draws found no placement of these four paths, which embed;
    # the order-type verdict's witness places them, whatever the seed
    capsys.readouterr()
    reports = []
    for seed in ("3", "4"):
        out = tmp_path / f"carried{seed}.json"
        rc = cli_main(["fivepaths", "--grid", "12", "--samples", "5", "--seed", seed,
                       "--paths", "12345,13542,25134,32415", "--out", str(out)])
        assert rc == 0
        reports.append(out.read_bytes())
    assert capsys.readouterr().err.splitlines() == ["counterexample found: all paths embed"] * 2
    assert reports[0] == reports[1]
    doc = json.loads(reports[0])
    assert doc["verdict"] == "counterexample found: all paths embed"
    assert doc["search"] == {
        "counterexample": [[2, 4], [1, 2], [2, 0], [0, 1], [0, 5]],
        "exhaustive": False,
        "placements_checked": 5,
    }


# ("4", "5"): a count at or below grid 8 would be ignored by the exhaustive search
@pytest.mark.parametrize("grid, samples", [("12", "0"), ("12", "-5"), ("4", "0"), ("4", "5")])
def test_cli_fivepaths_rejects_a_sample_count_below_one(tmp_path, capsys, grid, samples):
    out = tmp_path / "five.json"
    capsys.readouterr()
    rc = cli_main(["fivepaths", "--grid", grid, "--samples", samples, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and "sample count" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("grid", ["-3", "0", "1", "2"])
def test_cli_fivepaths_refuses_a_grid_without_five_points(tmp_path, capsys, grid):
    # no five points in general position: the search would check nothing
    out = tmp_path / "five.json"
    capsys.readouterr()
    rc = cli_main(["fivepaths", "--grid", grid, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error:") and f"grid {grid}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("grid", ["2000000000000", str(2**40 + 2)])
def test_cli_fivepaths_refuses_a_grid_over_the_coordinate_budget(tmp_path, capsys, grid):
    # refused before the sampled probe runs, not when its result is built
    out = tmp_path / "five.json"
    capsys.readouterr()
    start = time.perf_counter()
    rc = cli_main(["fivepaths", "--grid", grid, "--samples", "3", "--paths", "12345",
                   "--out", str(out)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and not out.exists()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"sides up to {2**40 + 1} fit" in err[0]
    assert elapsed < 1.0


def test_cli_fivepaths_verdict(tmp_path):
    out_file = tmp_path / "five.json"
    rc = cli_main(["fivepaths", "--grid", "4", "--out", str(out_file)])
    assert rc == 0
    doc = json.loads(out_file.read_text(encoding="utf-8"))
    assert doc["coverage"]["all_covered"] is True
    assert doc["search"]["counterexample"] is None
    assert "no counterexample" in doc["verdict"]


@pytest.mark.parametrize("module", ["simembed", "simembed.cli"])
def test_cli_runs_as_a_module(tmp_path, module):
    # The package and its cli module both run the command line under
    # python -m, in a fresh interpreter that finds this checkout's package,
    # without runpy's warning that the module was imported before it ran.
    out = tmp_path / "five.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", module, "fivepaths", "--grid", "3", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["search"]["placements_checked"] == 420


def test_cli_gen_seed(tmp_path):
    outs = []
    for i, seed in enumerate(("42", "42", "43")):
        out = tmp_path / f"{i}.json"
        argv = ["gen", "--kind", "two-paths", "--n", "6", "--seed", seed, "--out", str(out)]
        assert cli_main(argv) == 0
        outs.append(out.read_text(encoding="utf-8"))
    assert outs[0] == outs[1] != outs[2]


@pytest.mark.parametrize("paths", ["12a45", "12345,13542,25134,32415,3521x"])
def test_cli_fivepaths_rejects_a_path_that_is_not_digits(tmp_path, capsys, paths):
    out = tmp_path / "five.json"
    capsys.readouterr()
    rc = cli_main(["fivepaths", "--grid", "4", "--paths", paths, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "path digits" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "paths, message",
    [
        ("11345", "path must be a permutation of 0..4"),
        ("", "the search is defined for 5-vertex paths"),
    ],
)
def test_cli_fivepaths_refuses_paths_that_are_not_five_vertex_permutations(
    tmp_path, capsys, paths, message
):
    # an empty --paths is a list of one empty path, not the default five
    out = tmp_path / "five.json"
    capsys.readouterr()
    rc = cli_main(["fivepaths", "--grid", "4", "--paths", paths, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert err == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["embed", "certify"])
@pytest.mark.parametrize("bounds", ["0x0", "0x3", "3x0", "-3x4"])
def test_cli_bounds_must_be_positive(tmp_path, capsys, command, bounds):
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(MINIMAL_TWO_PATHS, encoding="utf-8")
    result_file = tmp_path / "result.json"
    assert cli_main(["embed", "--in", str(inst_file), "--out", str(result_file)]) == 0
    out = tmp_path / "out.json"
    args = {
        "embed": ["embed", "--in", str(inst_file)],
        "certify": ["certify", "--in", str(result_file), "--instance", str(inst_file)],
    }[command]
    capsys.readouterr()
    rc = cli_main([*args, "--out", str(out), f"--bounds={bounds}"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error:") and "positive" in err[0], err
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed result documents: one error line, never a traceback
# ---------------------------------------------------------------------------


@pytest.fixture
def outerplanar_result(tmp_path):
    inst_file = tmp_path / "inst.json"
    out_file = tmp_path / "result.json"
    assert cli_main(["gen", "--kind", "outerplanars", "--n", "6", "--layers", "2",
                     "--seed", "1", "--out", str(inst_file)]) == 0
    assert cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)]) == 0
    return inst_file, json.loads(out_file.read_text(encoding="utf-8"))


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


MALFORMED_RESULTS = {
    "few-coords": lambda doc: doc["coords"].pop(),
    "assignment-out-of-range": lambda doc: doc["assignments"][0].__setitem__(0, 99),
    "few-assignments": lambda doc: doc["assignments"].pop(),
    "width-abc": _set("width", "abc"),
    "height-null": _set("height", None),
    "width-zero": _set("width", 0),
    # every embedder writes the coordinates' extent, max - min + 1
    "width-not-the-extent": _set("width", 1),
    "height-not-the-extent": _set("height", 99999),
    "certificate-no-violations": _set("certificate", {"ok": True}),
    "certificate-string": _set("certificate", "yes"),
}


@pytest.mark.parametrize("command", ["render", "certify"])
@pytest.mark.parametrize("defect", sorted(MALFORMED_RESULTS))
def test_cli_malformed_result_one_error_line(tmp_path, capsys, outerplanar_result, command, defect):
    inst_file, doc = outerplanar_result
    MALFORMED_RESULTS[defect](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    target = ["--svg", str(tmp_path / "out.svg")] if command == "render" else ["--out", "-"]
    capsys.readouterr()
    rc = cli_main([command, "--in", str(bad), "--instance", str(inst_file)] + target)
    err = capsys.readouterr().err.splitlines()
    assert rc in (1, 2)
    if command == "certify" and defect == "assignment-out-of-range":
        # certify reports a broken bijection as a failed certificate
        assert rc == 2 and len(err) == 1 and err[0].startswith("certificate FAILED"), err
    else:
        assert len(err) == 1 and err[0].startswith("error: "), err



@pytest.mark.parametrize("command", ["certify", "render"])
def test_cli_given_mapping_result_with_assignments_one_error_line(tmp_path, capsys, command):
    # Coordinates (i, i^2) and, per layer, an assignment that puts the
    # layer's path in order along the curve: each layer alone is drawn
    # without a crossing, but vertex v sits at a different point in each,
    # which a given mapping forbids.
    inst_file = tmp_path / "inst.json"
    assert cli_main(["gen", "--kind", "two-paths", "--n", "8", "--seed", "3",
                     "--out", str(inst_file)]) == 0
    inst = parse_instance(inst_file.read_text(encoding="utf-8"))
    assignments = []
    for layer in inst.layers:
        phi = [0] * inst.n
        for k, v in enumerate(as_path(layer, inst.n).order):
            phi[v] = k
        assignments.append(phi)
    n = inst.n
    doc = {"coords": [[i, i * i] for i in range(n)], "width": n, "height": (n - 1) ** 2 + 1,
           "assignments": assignments}
    res_file = tmp_path / "result.json"
    res_file.write_text(json.dumps(doc), encoding="utf-8")
    target = ["--svg", str(tmp_path / "out.svg")] if command == "render" else ["--out", "-"]
    capsys.readouterr()
    rc = cli_main([command, "--in", str(res_file), "--instance", str(inst_file)] + target)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == ["error: given-mapping embedding must not carry assignments"]
    assert not (tmp_path / "out.svg").exists()


# ---------------------------------------------------------------------------
# documents that the reader itself refuses: one error line, never a traceback
# ---------------------------------------------------------------------------


_THREE_VERTEX_PATHS = {
    "n": 3, "mapping": "given", "layers": [{"class": "path", "edges": [[0, 1], [1, 2]]}] * 2,
}
_THREE_VERTEX_RESULT = {"coords": [[1, 1], [2, 2], [3, 3]], "width": 3, "height": 3}


@pytest.mark.parametrize("command", ["certify", "render"])
def test_cli_result_with_a_coordinate_over_the_budget_one_error_line(tmp_path, capsys, command):
    # The embedding checks its columns once each and names the first bad
    # point as GridPoint does; the exit code is the budget error's.
    big = 2**40 + 1
    inst_file, res_file = tmp_path / "inst.json", tmp_path / "result.json"
    inst_file.write_text(json.dumps(_THREE_VERTEX_PATHS), encoding="utf-8")
    doc = {"coords": [[1, 1], [big, 2], [3, -big]], "width": big, "height": 2 * big}
    res_file.write_text(json.dumps(doc), encoding="utf-8")
    target = ["--svg", str(tmp_path / "out.svg")] if command == "render" else ["--out", "-"]
    capsys.readouterr()
    rc = cli_main([command, "--in", str(res_file), "--instance", str(inst_file)] + target)
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.splitlines() == [f"error: coordinate magnitude exceeds budget 2^40: ({big}, 2)"]
    assert not (tmp_path / "out.svg").exists()


def _run_every_reader(directory: Path, instance: bytes, result: bytes,
                      good_instance: bytes, good_result: bytes) -> dict:
    # Runs each command that reads a document on the given ones (the
    # instance through embed, from a file and from stdin, and through
    # certify --instance beside good_result; the result through certify
    # --in and render beside good_instance) and returns each run's exit
    # code and stderr lines.  Each run writes to its own out-<i> file.
    files = {}
    for name, data in (("inst", instance), ("res", result),
                       ("good-inst", good_instance), ("good-res", good_result)):
        files[name] = str(directory / f"{name}.json")
        Path(files[name]).write_bytes(data)
    runs = {
        "embed --in": ["embed", "--in", files["inst"], "--out"],
        "embed stdin": ["embed", "--in", "-", "--out"],
        "certify --instance": ["certify", "--in", files["good-res"],
                               "--instance", files["inst"], "--out"],
        "certify --in": ["certify", "--in", files["res"], "--instance", files["good-inst"],
                         "--out"],
        "render": ["render", "--in", files["res"], "--instance", files["good-inst"], "--svg"],
    }
    outcomes = {}
    for i, (name, argv) in enumerate(runs.items()):
        # Under a C or POSIX locale Python opens stdin with surrogateescape,
        # which turns bytes that are not UTF-8 into text instead of failing.
        stdin = io.TextIOWrapper(io.BytesIO(instance), encoding="utf-8", errors="surrogateescape")
        saved, sys.stdin = sys.stdin, stdin
        err = io.StringIO()
        try:
            with redirect_stderr(err):
                rc = cli_main(argv + [str(directory / f"out-{i}")])
        finally:
            sys.stdin = saved
        outcomes[name] = rc, err.getvalue().splitlines()
    return outcomes


def _refused_by_every_reader(tmp_path, instance: bytes, result: bytes):
    # Every reader refuses the bad documents with exit 1, one error line and
    # no output; returns the error lines.
    good_instance = json.dumps(_THREE_VERTEX_PATHS).encode()
    good_result = json.dumps(_THREE_VERTEX_RESULT).encode()
    outcomes = _run_every_reader(tmp_path, instance, result, good_instance, good_result)
    messages = []
    for name, (rc, err) in outcomes.items():
        assert rc == 1, name
        assert len(err) == 1 and err[0].startswith("error: "), (name, err)
        messages.append(err[0])
    assert not list(tmp_path.glob("out-*"))
    return messages


def test_cli_non_utf8_document_one_error_line(tmp_path):
    instance = b"\xff\xfe" + json.dumps(_THREE_VERTEX_PATHS).encode()
    result = b"\xff\xfe" + json.dumps(_THREE_VERTEX_RESULT).encode()
    messages = _refused_by_every_reader(tmp_path, instance, result)
    assert all("is not UTF-8 text" in m for m in messages), messages


def test_cli_over_deep_document_one_error_line(tmp_path):
    deep = "[" * 100000 + "]" * 100000
    instance = ('{"n": 3, "mapping": "given", "layers": ' + deep + "}").encode()
    result = ('{"coords": ' + deep + ', "width": 3, "height": 3}').encode()
    messages = _refused_by_every_reader(tmp_path, instance, result)
    assert all("malformed JSON" in m and "recursion" in m for m in messages), messages


def test_cli_over_long_integer_document_one_error_line(tmp_path):
    digits = "9" * 5000
    instance = ('{"n": ' + digits + ', "mapping": "given", "layers": []}').encode()
    result = ('{"coords": [[1, 1], [2, 2], [3, ' + digits + ']], "width": 3, "height": 3}')
    messages = _refused_by_every_reader(tmp_path, instance, result.encode())
    assert all("malformed JSON" in m and "digits" in m for m in messages), messages


@pytest.mark.parametrize("kind", ["two-paths", "path-caterpillar", "two-caterpillars"])
def test_cli_validates_each_layer_once(tmp_path, monkeypatch, kind):
    # parse_instance validates both layers; the embedders recover paths and
    # caterpillars from them without validating again
    inst, res = str(tmp_path / "inst.json"), str(tmp_path / "res.json")
    assert cli_main(["gen", "--kind", kind, "--n", "40", "--seed", "3", "--out", inst]) == 0
    calls = []
    validate = graphs.validate_layer
    monkeypatch.setattr(
        graphs, "validate_layer", lambda layer, n: calls.append(layer.kind) or validate(layer, n)
    )
    assert cli_main(["embed", "--in", inst, "--out", res]) == 0
    assert len(calls) == 2, calls
    calls.clear()
    assert cli_main(["certify", "--in", res, "--instance", inst,
                     "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 2, calls


def _replace_first_one(rows):
    # Put true in place of the first integer 1 in a list of integer lists.
    i, j = next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x == 1)
    rows[i][j] = True


_CYCLE_4 = {
    "n": 4,
    "mapping": "free",
    "layers": [{"class": "outerplanar", "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                "outer_cycle": [0, 1, 2, 3]}],
}
_TRIANGLE = {
    "n": 3,
    "mapping": "free",
    "layers": [{"class": "planar", "edges": [[0, 1], [1, 2], [2, 0]],
                "rotation": [[1, 2], [2, 0], [0, 1]]}],
}
# Each case puts JSON true where the document needs an integer 1, so a
# parser that took true for 1 would embed or certify it without complaint.
BOOLEAN_FIELDS = {
    "n": (None, lambda doc: doc.update(n=True)),
    "edge": (_CYCLE_4, lambda doc: doc["layers"][0]["edges"][0].__setitem__(1, True)),
    "rotation": (_TRIANGLE, lambda doc: doc["layers"][0]["rotation"][0].__setitem__(0, True)),
    "outer-cycle": (_CYCLE_4, lambda doc: doc["layers"][0]["outer_cycle"].__setitem__(1, True)),
    "coords": (_CYCLE_4, lambda doc: _replace_first_one(doc["coords"])),
    "width": (_CYCLE_4, lambda doc: doc.update(width=True)),
    "height": (_CYCLE_4, lambda doc: doc.update(height=True)),
    "assignments": (_CYCLE_4, lambda doc: _replace_first_one(doc["assignments"])),
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_FIELDS))
def test_cli_rejects_json_booleans_as_integers(tmp_path, capsys, field):
    instance, mutate = BOOLEAN_FIELDS[field]
    inst_file, res_file = tmp_path / "inst.json", tmp_path / "result.json"
    if instance is None:  # two one-vertex paths, which embed for n = 1
        instance = {"n": 1, "mapping": "given", "layers": [{"class": "path", "edges": []}] * 2}
    instance = json.loads(json.dumps(instance))
    if field in ("n", "edge", "rotation", "outer-cycle"):
        mutate(instance)
        inst_file.write_text(json.dumps(instance), encoding="utf-8")
        args = ["embed", "--in", str(inst_file), "--out", str(res_file)]
    else:
        inst_file.write_text(json.dumps(instance), encoding="utf-8")
        assert cli_main(["embed", "--in", str(inst_file), "--out", str(res_file)]) == 0
        doc = json.loads(res_file.read_text(encoding="utf-8"))
        mutate(doc)
        res_file.write_text(json.dumps(doc), encoding="utf-8")
        args = ["certify", "--in", str(res_file), "--instance", str(inst_file), "--out", "-"]
    capsys.readouterr()
    rc = cli_main(args)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "integer" in err[0], err


# ---------------------------------------------------------------------------
# fuzzed contract: a mutated document ends in exit 0, 1 or 2, and a nonzero
# exit prints exactly one reason line
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _valid_documents(kind, n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        inst, res = Path(tmp, "inst.json"), Path(tmp, "res.json")
        with redirect_stderr(io.StringIO()):
            assert cli_main(["gen", "--kind", kind, "--n", str(n), "--layers", "2",
                             "--seed", str(seed), "--out", str(inst)]) == 0
            assert cli_main(["embed", "--in", str(inst), "--out", str(res)]) == 0
        return inst.read_text(encoding="utf-8"), res.read_text(encoding="utf-8")


def _node_paths(node, path):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _is_permutation_list(path):
    # An outer cycle, one vertex's rotation, or one layer's assignment.
    return path[-1] == "outer_cycle" or (
        len(path) >= 3 and path[-2] in ("rotation", "assignments")
    )


_MUTATIONS = {
    "wrong-type": lambda path: True,
    "deleted-key": lambda path: len(path) > 1,
    "out-of-range-id": lambda path: len(path) > 1,
    "huge-integer": lambda path: len(path) > 1,
    "duplicate-edge": lambda path: len(path) > 2 and path[-2] == "edges",
    "broken-rotation-or-cycle": lambda path: len(path) > 1 and _is_permutation_list(path),
}


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(cli._EMBEDDERS)), st.integers(3, 7), st.integers(0, 3),
       st.sampled_from(sorted(_MUTATIONS)), st.data())
def test_cli_mutated_documents_keep_the_exit_contract(kind, n, seed, how, data):
    inst_text, res_text = _valid_documents(kind, n, seed)
    docs = {"instance": json.loads(inst_text), "result": json.loads(res_text)}
    targets = [
        path
        for name in ("instance", "result")
        for path in _node_paths(docs[name], (name,))
        if _MUTATIONS[how](path)
    ]
    assume(targets)
    path = data.draw(st.sampled_from(targets), label="node")
    parent = docs
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "wrong-type":
        parent[key] = data.draw(st.sampled_from(["x", None, 1.5, True, [], {}, [[0, 1]]]))
    elif how == "deleted-key":
        del parent[key]
    elif how == "out-of-range-id":
        parent[key] = data.draw(st.sampled_from([-1, n, n + 1]))
    elif how == "huge-integer":
        parent[key] = data.draw(st.sampled_from([10**30, -(10**30), 2**64]))
    elif how == "duplicate-edge":
        edge = parent[key]
        parent.append(data.draw(st.sampled_from([list(edge), list(edge[::-1])])))
    else:
        order = parent[key]
        change = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
        if change == "drop":
            order.pop()
        elif change == "repeat":
            order[1] = order[0]
        else:
            order[0], order[1] = order[1], order[0]

    with tempfile.TemporaryDirectory() as tmp:
        inst, res = Path(tmp, "inst.json"), Path(tmp, "res.json")
        inst.write_text(json.dumps(docs["instance"]), encoding="utf-8")
        res.write_text(json.dumps(docs["result"]), encoding="utf-8")
        runs = [
            ["embed", "--in", str(inst), "--out", str(Path(tmp, "out.json"))],
            ["certify", "--in", str(res), "--instance", str(inst),
             "--out", str(Path(tmp, "report.json"))],
            ["render", "--in", str(res), "--instance", str(inst),
             "--svg", str(Path(tmp, "out.svg"))],
        ]
        for argv in runs:
            err = io.StringIO()
            with redirect_stderr(err):
                rc = cli_main(argv)
            assert rc in (0, 1, 2), (argv[0], rc)
            if rc:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, (argv[0], lines)
                assert lines[0].startswith(("error:", "certificate FAILED:")), (argv[0], lines)


_INTEGER_LITERAL = re.compile(rb"-?[0-9]+")
# An inflated literal gains one or two digits or is replaced by a value
# inside the two-path budget (10^7, 10^9), past every budget (2^64, 10^20)
# or over CPython's 4300-digit limit.
_INFLATIONS = (b"0", b"00", b"10000000", b"1000000000", str(2**64).encode(),
               str(10**20).encode(), b"9" * 5000)


def _mutate_bytes(doc: bytes, other: bytes, how: str, data) -> bytes:
    # One byte-level mutation of a document; other is the other document of
    # the pair, a source for splices.
    if how == "truncate":
        return doc[: data.draw(st.integers(0, len(doc) - 1), label="cut")]
    if how == "splice":
        source = data.draw(st.sampled_from([doc, other]), label="source")
        i, j = sorted(data.draw(st.lists(st.integers(0, len(doc)), min_size=2, max_size=2)))
        a, b = sorted(data.draw(st.lists(st.integers(0, len(source)), min_size=2, max_size=2)))
        return doc[:i] + source[a:b] + doc[j:]
    if how == "flip":
        out = bytearray(doc)
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(out) - 1), label="at")
            out[at] ^= data.draw(st.integers(1, 255), label="mask")
        return bytes(out)
    literals = list(_INTEGER_LITERAL.finditer(doc))
    if how == "inflate":
        m = data.draw(st.sampled_from(literals), label="literal")
        inflation = data.draw(st.sampled_from(_INFLATIONS), label="inflation")
        grown = m.group() + inflation if inflation in (b"0", b"00") else inflation
        return doc[: m.start()] + grown + doc[m.end() :]
    # nest the whole document, or one integer literal, in arrays or objects
    depth = data.draw(st.sampled_from([1, 2, 64, 100000]), label="depth")
    opener, closer = data.draw(st.sampled_from([(b"[", b"]"), (b'{"x": ', b"}")]), label="bracket")
    m = data.draw(st.sampled_from([None] + literals), label="literal")
    start, end = (0, len(doc)) if m is None else m.span()
    return doc[:start] + opener * depth + doc[start:end] + closer * depth + doc[end:]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(cli._EMBEDDERS)), st.integers(3, 7), st.integers(0, 3),
       st.sampled_from(["truncate", "splice", "flip", "nest", "inflate"]), st.data())
def test_cli_byte_mutated_documents_keep_the_exit_contract(kind, n, seed, how, data):
    # Both documents of a valid pair are mutated at the byte level, and each
    # is read beside the other's valid original.
    instance, result = (text.encode() for text in _valid_documents(kind, n, seed))
    bad_instance = _mutate_bytes(instance, result, how, data)
    bad_result = _mutate_bytes(result, instance, how, data)
    with tempfile.TemporaryDirectory() as tmp:
        outcomes = _run_every_reader(Path(tmp), bad_instance, bad_result, instance, result)
    for name, (rc, err) in outcomes.items():
        assert rc in (0, 1, 2), (name, rc)
        assert not any("Traceback" in line for line in err), (name, err)
        if rc:
            assert len(err) == 1, (name, err)
            assert err[0].startswith(("error:", "certificate FAILED:")), (name, err)


# ---------------------------------------------------------------------------
# fuzzed contract: malformed numeric flags end in exit 0, 1 or 2 with one
# reason line, and write nothing when they fail
# ---------------------------------------------------------------------------

# Huge values lie past every budget: vertex and layer counts over 2^40, grid
# sides over 2^40 + 1.  A positive count inside its budget but above about
# 10^4, or a sample count that large on a grid above 8, is a legitimate
# request that allocates or runs long, so none is drawn.
_HUGE = st.sampled_from([2**40 + 2, 10**20, 10**30]) | st.integers(2**40 + 2, 10**30)
_NOT_DECIMAL = st.sampled_from(["", "abc", "0x10", "1e3", "1.5", "12abc", "--"]) | st.text(
    alphabet="abcxyz.-+_ !?", max_size=6
)
_BAD_NUMBER = st.one_of(st.integers(max_value=0).map(str), _HUGE.map(str), _NOT_DECIMAL)
_SEED = st.one_of(st.integers(-(10**30), 10**30).map(str), _NOT_DECIMAL)


@st.composite
def _malformed_flags(draw):
    """A command line with some of its numeric flags drawn malformed;
    ``{inst}`` and ``{res}`` stand for a valid instance and its result."""

    def maybe(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["gen", "fivepaths", "embed", "certify"]))
    if command == "gen":
        n = draw(_BAD_NUMBER | st.just("5"))
        return ["gen", "--kind", draw(st.sampled_from(sorted(cli._EMBEDDERS))), f"--n={n}",
                *maybe("--layers", _BAD_NUMBER), *maybe("--seed", _SEED)]
    if command == "fivepaths":
        paths = st.lists(_BAD_NUMBER, min_size=1, max_size=3).map(",".join)
        return ["fivepaths", *maybe("--grid", _BAD_NUMBER), *maybe("--samples", _BAD_NUMBER),
                *maybe("--seed", _SEED), *maybe("--paths", paths)]
    bounds = draw(st.builds("{}x{}".format, _BAD_NUMBER, _BAD_NUMBER) | _NOT_DECIMAL)
    if command == "embed":
        return ["embed", "--in", "{inst}", f"--bounds={bounds}"]
    return ["certify", "--in", "{res}", "--instance", "{inst}", f"--bounds={bounds}"]


@settings(max_examples=200, deadline=None)
@given(_malformed_flags())
@example(["gen", "--kind", "two-paths", "--n=99999999999999999999"])
@example(["gen", "--kind", "path-caterpillar", "--n=99999999999999999999"])
@example(["gen", "--kind", "outerplanars", "--n=99999999999999999999"])
@example(["gen", "--kind", "two-caterpillars", "--n=99999999999999999999"])
@example(["gen", "--kind", "planar-outerplanar", "--n=99999999999999999999"])
@example(["gen", "--kind", "outerplanars", "--n=5", "--layers=99999999999999999999"])
@example(["gen", "--kind", "outerplanars", "--n=5", "--layers=-9223372036854775809"])
@example(["fivepaths", "--grid=2000000000000", "--samples=3", "--paths=12345"])
@example(["fivepaths", "--grid=12", "--samples=99999999999999999999"])
def test_cli_malformed_flags_keep_the_exit_contract(argv):
    inst_text, res_text = _valid_documents("two-paths", 5, 0)
    with tempfile.TemporaryDirectory() as tmp:
        files = {"inst": Path(tmp, "inst.json"), "res": Path(tmp, "res.json")}
        files["inst"].write_text(inst_text, encoding="utf-8")
        files["res"].write_text(res_text, encoding="utf-8")
        out = Path(tmp, "out")
        argv = [arg.format(**files) if arg in ("{inst}", "{res}") else arg for arg in argv]
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            rc = cli_main([*argv, "--out", str(out)])
        assert rc in (0, 1, 2), (argv, rc)
        if rc:
            lines = [line for line in err.getvalue().splitlines() if "error:" in line]
            assert len(lines) == 1, (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert not out.exists(), argv
