"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the summary lines.
"""

import json
import random
import time

from reference import brute_force_point_assignment
from simembed import (
    FIVE_PATHS,
    GridPoint,
    Layer,
    LayeredInstance,
    PathOrder,
    SimultaneousEmbedding,
    caterpillar_decompose,
    certify_embedding,
    certify_general_position,
    cli_main,
    embed_outerplanar_on_points,
    embed_path_caterpillar,
    embed_two_caterpillars,
    embed_two_paths,
    exhaustive_five_point_check,
    find_collinear_triple,
    five_path_pair_coverage,
    general_position_bounds,
    generate,
    parabola_pointset,
    parse_instance,
    path_from_digits,
    planar_general_position_draw,
    planar_grid_draw,
    refine_general_position,
    serialize_instance,
    simul_embed_free,
)
from simembed.generate import KINDS
from simembed.geometry import _next_prime

P = GridPoint


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def given_instance(layer_edges, n, kinds):
    return LayeredInstance(n=n, layers=[Layer(k, e) for k, e in zip(kinds, layer_edges)])


def test_criterion_1_two_paths():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(500):
        n = rng.randrange(2, 101)
        o1, o2 = list(range(n)), list(range(n))
        rng.shuffle(o1)
        rng.shuffle(o2)
        p1, p2 = PathOrder(o1), PathOrder(o2)
        emb = embed_two_paths(p1, p2)
        assert emb.width == n and emb.height == n
        xs = sorted(p.x for p in emb.coords)
        ys = sorted(p.y for p in emb.coords)
        assert xs == list(range(1, n + 1)) and ys == list(range(1, n + 1))
        inst = given_instance([p1.edges(), p2.edges()], n, ["path", "path"])
        assert certify_embedding(emb, inst, bounds=(n, n)).ok
    elapsed = time.monotonic() - t0

    emb = embed_two_paths(
        PathOrder([0, 1, 2, 3, 4, 5, 6]), PathOrder([1, 4, 0, 3, 2, 5, 6])
    )
    fixture_ok = [(p.x, p.y) for p in emb.coords] == [
        (1, 3), (2, 1), (3, 5), (4, 4), (5, 2), (6, 6), (7, 7),
    ]
    report(
        1,
        fixture_ok and elapsed < 5.0,
        f"500 random pairs exact n x n and certified in {elapsed:.2f}s; "
        f"scrambled-path fixture bit-exact",
    )


def test_criterion_2_five_paths():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    cov = five_path_pair_coverage(paths)
    coverage_ok = (
        len(cov.pairs) == 15
        and cov.all_covered
        and cov.per_path_counts(5) == [3] * 5
    )

    t0 = time.monotonic()
    full = exhaustive_five_point_check(5, paths)
    search_time = time.monotonic() - t0
    no_counterexample = full.counterexample is None and full.exhaustive

    drops_ok = True
    for drop in range(5):
        four = [p for i, p in enumerate(paths) if i != drop]
        if five_path_pair_coverage(four).all_covered:
            drops_ok = False
        witness = exhaustive_five_point_check(5, four)
        if witness.counterexample is None:
            drops_ok = False
        else:
            pts = witness.counterexample
            emb = SimultaneousEmbedding(coords=pts)
            inst = given_instance([p.edges() for p in four], 5, ["path"] * 4)
            if not certify_embedding(emb, inst).ok:
                drops_ok = False

    report(
        2,
        coverage_ok and no_counterexample and search_time < 60.0 and drops_ok,
        f"15/15 pairs, 3 per path; g=5 exhausted in {search_time:.1f}s with no "
        f"counterexample; each 4-subset loses coverage and embeds",
    )


def test_criterion_3_refinement():
    rng = random.Random(103)
    for _ in range(200):
        extent = rng.randrange(4, 51)
        count = rng.randrange(3, extent + 1)
        base = []
        seen = set()
        while len(base) < count:
            # a base grid of extent m has m coordinate values per axis
            c = (rng.randrange(extent), rng.randrange(extent))
            if c not in seen:
                seen.add(c)
                base.append(P(*c))
        out = refine_general_position(base, extent)
        assert find_collinear_triple(out) is None
        # the parabola lift: p * base_i + (i, i^2 mod p), p prime >= count
        p = _next_prime(count)
        for i, (src, dst) in enumerate(zip(base, out)):
            assert (dst.x, dst.y) == (p * src.x + i, p * src.y + i * i % p)
        for i in range(count):
            for j in range(count):
                if base[i].x < base[j].x:
                    assert out[i].x < out[j].x
                if base[i].y < base[j].y:
                    assert out[i].y < out[j].y
        width = max(q.x for q in out) - min(q.x for q in out) + 1
        height = max(q.y for q in out) - min(q.y for q in out) + 1
        assert width <= p * extent and height <= p * extent
    report(3, True, "200 refinements: general position, parabola lift, order-preserving, in bounds")


def test_criterion_4_caterpillars():
    rng = random.Random(104)
    for trial in range(200):
        n = rng.randrange(2, 61)
        c1 = caterpillar_decompose(generate("caterpillar", n, trial), n)
        c2 = caterpillar_decompose(generate("caterpillar", n, trial + 9999), n)
        emb = embed_two_caterpillars(c1, c2)
        inst = given_instance([c1.edges(), c2.edges()], n, ["caterpillar", "caterpillar"])
        assert certify_embedding(emb, inst).ok
        assert emb.width <= _next_prime(n) * n and emb.height <= _next_prime(n) * n

    for trial in range(200):
        n = rng.randrange(2, 101)
        cat = caterpillar_decompose(generate("caterpillar", n, trial + 555), n)
        order = list(range(n))
        rng.shuffle(order)
        p = PathOrder(order)
        emb, shifts = embed_path_caterpillar(p, cat)
        k = cat.leg_count()
        assert shifts <= k
        assert emb.width <= 2 * n - k
        assert emb.height == n
        inst = given_instance([p.edges(), cat.edges()], n, ["path", "caterpillar"])
        assert certify_embedding(emb, inst).ok
    report(4, True, "200 caterpillar pairs + 200 path/caterpillar instances certified in bounds")


def test_criterion_5_planar_drawing():
    rng = random.Random(105)
    for trial in range(100):
        n = rng.randrange(4, 51)
        lay = generate("plane-triangulation", n, trial)
        pts = planar_grid_draw(lay, n)
        assert 0 <= min(p.x for p in pts) and max(p.x for p in pts) <= 2 * n - 4
        assert 0 <= min(p.y for p in pts) and max(p.y for p in pts) <= n - 2
        emb = SimultaneousEmbedding(coords=pts)
        inst = LayeredInstance(n=n, layers=[lay])
        assert certify_embedding(emb, inst, bounds=(2 * n - 3, n - 1)).ok

    for trial in range(100):
        n = rng.randrange(4, 51)
        lay = generate("plane-triangulation", n, trial + 3000)
        pts = planar_general_position_draw(lay, n)
        assert certify_general_position(pts).ok
        w_bound, h_bound = general_position_bounds(n)
        emb = SimultaneousEmbedding(coords=pts)
        assert emb.width <= w_bound and emb.height <= h_bound
        inst = LayeredInstance(n=n, layers=[lay])
        assert certify_embedding(emb, inst).ok
    report(5, True, "100 grid drawings fit (2n-4) x (n-2); general-position variant in documented bounds")


def test_criterion_6_parabola_sets():
    for n in range(2, 201):
        p = _next_prime(n)
        assert p < 2 * n, (n, p)
        assert certify_general_position(parabola_pointset(n)).ok

    n = 25
    layers = [generate("maximal-outerplanar", n, s) for s in range(5)]
    emb = simul_embed_free(layers, n)
    inst = LayeredInstance(n=n, layers=layers, mapping="free")
    assert certify_embedding(emb, inst).ok
    p = _next_prime(n)
    assert certify_embedding(emb, inst, bounds=(p, p)).ok
    report(6, True, "parabola sets general position with p < 2n for n in 2..200; 5 layers on n=25 certified")


def test_criterion_7_outerplanar_on_points():
    rng = random.Random(107)
    for trial in range(200):
        k = rng.randrange(3, 8)
        lay = generate("maximal-outerplanar", k, trial)
        while True:
            pts = []
            seen = set()
            while len(pts) < k:
                c = (rng.randrange(5 * k), rng.randrange(5 * k))
                if c not in seen:
                    seen.add(c)
                    pts.append(P(*c))
            if find_collinear_triple(pts) is None:
                break
        phi = embed_outerplanar_on_points(lay, pts)
        emb = SimultaneousEmbedding(coords=pts, assignments=[phi])
        inst = LayeredInstance(n=k, layers=[lay], mapping="free")
        assert certify_embedding(emb, inst).ok
        assert brute_force_point_assignment(lay, pts) is not None
    report(7, True, "200 embeddings certified, brute force concurs")


def test_criterion_8_planar_outerplanar_pipeline():
    rng = random.Random(108)
    for trial in range(100):
        n = rng.randrange(4, 21)
        g1 = generate("plane-triangulation", n, trial)
        g2 = generate("maximal-outerplanar", n, trial + 4000)
        emb = simul_embed_free([g1, g2], n)
        inst = LayeredInstance(n=n, layers=[g1, g2], mapping="free")
        assert certify_embedding(emb, inst).ok
        assert emb.assignments is not None
        for phi in emb.assignments:
            assert sorted(phi) == list(range(n))
        w_bound, h_bound = general_position_bounds(n)
        assert certify_embedding(emb, inst, bounds=(w_bound, h_bound)).ok
    report(8, True, "100 planar+outerplanar pairs certified on shared points with bijections, documented bounds")


def test_criterion_9_end_to_end(tmp_path):
    for kind, n in (
        ("two-paths", 9),
        ("two-caterpillars", 8),
        ("path-caterpillar", 11),
        ("outerplanars", 8),
        ("planar-outerplanar", 9),
    ):
        inst_file = tmp_path / f"{kind}.json"
        out_file = tmp_path / f"{kind}-r.json"
        cert_file = tmp_path / f"{kind}-c.json"
        assert cli_main(["gen", "--kind", kind, "--n", str(n), "--seed", "5", "--out", str(inst_file)]) == 0
        assert cli_main(["embed", "--in", str(inst_file), "--out", str(out_file)]) == 0
        assert cli_main([
            "certify", "--in", str(out_file), "--instance", str(inst_file), "--out", str(cert_file),
        ]) == 0
        stored = json.loads(out_file.read_text(encoding="utf-8"))["certificate"]
        rechecked = json.loads(cert_file.read_text(encoding="utf-8"))
        assert stored == rechecked, kind

    rng = random.Random(109)
    for seed in range(100):
        n = rng.randrange(3, 16)
        kind = rng.choice(KINDS)
        layer = generate(kind, n, seed)
        mapping = "free" if layer.kind in ("planar", "outerplanar") else "given"
        inst = LayeredInstance(n=n, layers=[layer, generate(kind, n, seed + 1)], mapping=mapping)
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text
    report(9, True, "embed->certify agrees for all supported combinations; 100 round trips exact")
