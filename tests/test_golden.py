"""Golden corpus: SHA-256 digests of ``simembed embed`` result documents
(and, in a table of their own, of ``fivepaths`` reports, plus two digests
over many five-point search results, on the grids the search exhausts and
above them).

Every ``gen`` kind at small n and a few seeds, plus free-mapping instances
whose planar and outerplanar layers were thinned, so that face completion
and the general-position lift do real work.  A refactor that is meant
to keep behaviour must keep every digest; one that changes output on
purpose must say why and record the new digests.
"""

import hashlib
import itertools
import json
import random

import pytest

from helpers import thin_outerplanar, thin_plane
from simembed import (
    FIVE_PATHS,
    LayeredInstance,
    PathOrder,
    cli_main,
    exhaustive_five_point_check,
    general_position_bounds,
    generate,
    parse_instance,
    path_from_digits,
    serialize_instance,
)

GEN_KINDS = ("two-paths", "two-caterpillars", "path-caterpillar", "outerplanars", "planar-outerplanar")


def _gen_case(kind, n, seed):
    def build(tmp_path):
        path = tmp_path / "inst.json"
        args = ["gen", "--kind", kind, "--n", str(n), "--seed", str(seed), "--out", str(path)]
        assert cli_main(args) == 0
        return path

    return f"gen-{kind}-n{n}-s{seed}", build


def _thinned_case(kind, n, seed, plane_share, density):
    def build(tmp_path):
        rng = random.Random(repr((kind, n, seed)))
        if kind == "planar-outerplanar":
            layers = [
                thin_plane(generate("plane-triangulation", n, seed), n, plane_share, rng),
                thin_outerplanar(generate("maximal-outerplanar", n, seed + 1), density, rng),
            ]
        elif kind == "planar-outerplanars":
            layers = [
                thin_outerplanar(generate("maximal-outerplanar", n, seed + 1), density, rng),
                thin_plane(generate("plane-triangulation", n, seed), n, plane_share, rng),
                thin_outerplanar(generate("maximal-outerplanar", n, seed + 2), 1.0, rng),
            ]
        else:
            layers = [
                thin_outerplanar(generate("maximal-outerplanar", n, seed + i), d, rng)
                for i, d in enumerate((1.0, density, 0.0))
            ]
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(LayeredInstance(n=n, layers=layers, mapping="free")))
        return path

    return f"thin-{kind}-n{n}-s{seed}-drop{plane_share}-chords{density}", build


def _reversed_case(kind, n, seed):
    # The embedders take path before caterpillar and planar before
    # outerplanar; these instances list the layers the other way round.
    def build(tmp_path):
        _, gen_build = _gen_case(kind, n, seed)
        path = gen_build(tmp_path)
        inst = parse_instance(path.read_text(encoding="utf-8"))
        inst.layers.reverse()
        path.write_text(serialize_instance(inst))
        return path

    return f"reversed-{kind}-n{n}-s{seed}", build


CASES = dict(
    [_gen_case(kind, n, seed) for kind in GEN_KINDS for n in (6, 11) for seed in (1, 2)]
    + [
        _thinned_case("planar-outerplanar", n, seed, share, density)
        for n in (8, 14, 24)
        for seed in (1, 2)
        for share, density in ((0.4, 0.5), (1.0, 0.0))
    ]
    + [_thinned_case("outerplanars", n, seed, 0.0, 0.5) for n in (7, 13, 30) for seed in (1, 2)]
    + [_thinned_case("planar-outerplanars", 12, 1, 0.4, 0.5)]
    + [
        _reversed_case(kind, n, seed)
        for kind in ("path-caterpillar", "planar-outerplanar")
        for n in (6, 11)
        for seed in (1, 2)
    ]
)

# Recorded before the scatter and face-completion rewrites; the reversed-*
# entries before the embed dispatch became table-driven.  The
# two-caterpillars and planar-outerplanar entries (gen, thin and reversed)
# were re-recorded when the closed-form parabola lift replaced the greedy
# general-position scatter, which moves every point of those results.  The
# path-caterpillar entries (gen and reversed) were re-recorded when that
# layout moved one column left to start in column 1, which made its width
# the drawing's true width.  The thin-planar-outerplanars entry, a plane
# layer between two outerplanar ones, was recorded when the free pipelines
# were merged into one, which made that instance embeddable.  Sixteen
# thin-* entries were re-recorded when face completion stopped following
# the chord order of re-tracing after every chord: maximalize_outerplanar
# now fans each inner face from its second corner and triangulate_plane
# takes its long faces off a stack, so a thinned layer gets other dummies.
# Every entry with a plane layer (gen, reversed and thin planar-outerplanar,
# and thin-planar-outerplanars) was re-recorded when the sheared lift onto
# the O(n^2) x O(n^3) grid replaced the parabola lift at scale p(6n + 1),
# which moves every point of those results.
DIGESTS = {
    "gen-outerplanars-n11-s1": "0c25a39f70c4e105879a6ed03e47afa12a4d7b2dabab6baeff35a33629fc7abe",
    "gen-outerplanars-n11-s2": "1c84398644564d3635c5f05ed758b348501ef9f6c48e6ea298b757d2f94de049",
    "gen-outerplanars-n6-s1": "e81323c026ba8faf88f5388317db0cb2b2ad9a2dce7f7fb6bc6a157e5527aa83",
    "gen-outerplanars-n6-s2": "726f51cfb98d9cf32be5da1175e71f7be742c5057bee0c4e99821a37f11321fb",
    "gen-path-caterpillar-n11-s1": "a188cb5821cd3280205c74a6ad0ae3b0d6bf3b6691b78df845b1162c6a891cf7",
    "gen-path-caterpillar-n11-s2": "9bdf43cff7d283468574fb5eae7f309eb3c9bf90b2b4d9ec559431f1ca5d04cb",
    "gen-path-caterpillar-n6-s1": "d9b29a7eee79e3222632f6f3d820fe83d19f99bdbcabc57ed803e739de87d06e",
    "gen-path-caterpillar-n6-s2": "38d1b7a23594fc03bb8d4df73f87c358d015b6e831f304ed0d760e577835b246",
    "gen-planar-outerplanar-n11-s1": "059f1e190474f111370ee811dea360bb6ac4f9aa333a07798b3e2adeebd41e7d",
    "gen-planar-outerplanar-n11-s2": "41e0450e5014a0f08f6d2b44b95138a8630bda5b8ae08b63ea12196877569b83",
    "gen-planar-outerplanar-n6-s1": "cca161d94c27d7333055f0da8bba7e9cf4dce15dc100cbefac7d6499b51c7a86",
    "gen-planar-outerplanar-n6-s2": "aa51a7b1864ed5fe48e71dd636b85879141bad8318b746ef71dc4f947fd9ce8a",
    "gen-two-caterpillars-n11-s1": "1b3e7da09452750de51a60acf632797375194c209eda7fa981961e1e758287d8",
    "gen-two-caterpillars-n11-s2": "e6e19c724d51bd653f67e19c56bf58332482053d89277afe1e3abac03859ef1e",
    "gen-two-caterpillars-n6-s1": "1b71e7f6e4787a6b1b1f19105edd7c79ecc3707107c71641106141eb6a69cc48",
    "gen-two-caterpillars-n6-s2": "4955c4d46808fde09ac3df9875fe04dcd9c3da997d7a9f0e4afd15ee8a49a36b",
    "gen-two-paths-n11-s1": "f6bdc079e63002f828cf7bff88f05cc50d5c465e62bc649785e91a841cbd204a",
    "gen-two-paths-n11-s2": "c5bd614447f2db7ff438ce839ed1403bd80714a365a766fe5f424817d7a7aeac",
    "gen-two-paths-n6-s1": "29c1b084019b84fd8e95e77113545190f4d7b52f88c72f2148a07eba1ce3b651",
    "gen-two-paths-n6-s2": "07184b35ca94303eb9d8b2e03f9e4a126e4268376056052dc6606d3011a36636",
    "reversed-path-caterpillar-n11-s1": "a188cb5821cd3280205c74a6ad0ae3b0d6bf3b6691b78df845b1162c6a891cf7",
    "reversed-path-caterpillar-n11-s2": "9bdf43cff7d283468574fb5eae7f309eb3c9bf90b2b4d9ec559431f1ca5d04cb",
    "reversed-path-caterpillar-n6-s1": "d9b29a7eee79e3222632f6f3d820fe83d19f99bdbcabc57ed803e739de87d06e",
    "reversed-path-caterpillar-n6-s2": "38d1b7a23594fc03bb8d4df73f87c358d015b6e831f304ed0d760e577835b246",
    "reversed-planar-outerplanar-n11-s1": "7d6cb2504ee90beb3d6648ff636bd82e2f8a2a1b94c0de17862f6b4fe47e2a9c",
    "reversed-planar-outerplanar-n11-s2": "88ae14bdf346a4054304219c518219a588b7c174d3e821bf7f439bc2ec9da9e9",
    "reversed-planar-outerplanar-n6-s1": "482472c3f9b810c6f15e0baf086b670d4142be6be7049b7382d3c80d0093a0ac",
    "reversed-planar-outerplanar-n6-s2": "c6bf3cee6372a8fedf925a9e458502550dbacd82d8129f3b58a4b9d1bc503167",
    "thin-outerplanars-n13-s1-drop0.0-chords0.5": "a719a311bfbbae551270e205765e65d49fadc6c74639165f068acf6a0c8f57c1",
    "thin-outerplanars-n13-s2-drop0.0-chords0.5": "42fd4557f4dd658df15602eff1b1407a10f1f38349d4be086661e1c6ee3fb8e9",
    "thin-outerplanars-n30-s1-drop0.0-chords0.5": "ea88b079167b20c6f736c1a56f562e61fbb001fd20f61cf99343414930ce8c1a",
    "thin-outerplanars-n30-s2-drop0.0-chords0.5": "8c207cf1ad0d49ce2d14d2c404fbd7a28a7f0ec68e46d859d82640b1a066f49d",
    "thin-outerplanars-n7-s1-drop0.0-chords0.5": "2ffd31fb634436270efb5a3fd9b85c25944de4c29353be3174c4e79e3e6bb2ad",
    "thin-outerplanars-n7-s2-drop0.0-chords0.5": "1ac99a1dc64a3a874d804f535d26417f6810deb8ae3445a4cebd957b9436630e",
    "thin-planar-outerplanar-n14-s1-drop0.4-chords0.5": "f452604c6d6ae14aff2cf6a91e0b225e735d856782693a4788ef24c10b39e268",
    "thin-planar-outerplanar-n14-s1-drop1.0-chords0.0": "c43d49620e44f0d1f958af1132bfb04c8c1895deb869f4e36e013da7dd00813a",
    "thin-planar-outerplanar-n14-s2-drop0.4-chords0.5": "ee0206108cb3a57144a36135837c7c7b3e25fb051aebe6ad8cc9bc854a270aaf",
    "thin-planar-outerplanar-n14-s2-drop1.0-chords0.0": "6fc4f304e116c26a8218280cd597ed7451355320553925e6436cdd55418fb095",
    "thin-planar-outerplanar-n24-s1-drop0.4-chords0.5": "ac2d57d53b43015fec7d3ae05525b0383438dd084b60f8d30e29c9ceb590b16d",
    "thin-planar-outerplanar-n24-s1-drop1.0-chords0.0": "fd91a0504cf12654a8dae33945fbb56c32a1c6ac223a6ca7248d68329a005b0d",
    "thin-planar-outerplanar-n24-s2-drop0.4-chords0.5": "ab90bcffda7c6010743c6da7603befb69196e8ec8084b2e2dcf78904997eef20",
    "thin-planar-outerplanar-n24-s2-drop1.0-chords0.0": "9d7f9844c8e7cbc056aa1cbab083640c8f6bfd30e41c0d50ea3cf74e6915bbea",
    "thin-planar-outerplanar-n8-s1-drop0.4-chords0.5": "a5c772fdc95a126eadcf4f02c09fd1fdbd681958c8e358eedd30c7187bade5a9",
    "thin-planar-outerplanar-n8-s1-drop1.0-chords0.0": "6b6da4607f104d915c47f049bd0cb3e14d7ce12f8db982d006af885bcba24387",
    "thin-planar-outerplanar-n8-s2-drop0.4-chords0.5": "f1d7a871d9d41c8e1c8687d821351b90535dcbbef99ac2723d8e63f5136ff3eb",
    "thin-planar-outerplanar-n8-s2-drop1.0-chords0.0": "c6a4906e679ec75d961fbd7f268eae495f77f52800afbbdd3477758f9c405f2f",
    "thin-planar-outerplanars-n12-s1-drop0.4-chords0.5": "957bf85dbf38b6a4e19f5816195a4bcded3a0c544414d347e96d8563907647e5",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_embed_result_digest(case, tmp_path):
    inst = CASES[case](tmp_path)
    out = tmp_path / "result.json"
    assert cli_main(["embed", "--in", str(inst), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]


# Every golden instance with a plane layer, and gen's at n = 7 and 60.
_PLANE_CASES = {
    **{case: build for case, build in CASES.items() if "planar-outerplanar" in case},
    **dict(_gen_case("planar-outerplanar", n, 1) for n in (7, 60)),
}


@pytest.mark.parametrize("case", sorted(_PLANE_CASES))
def test_plane_results_fit_the_sheared_grid(case, tmp_path):
    # certified within general_position_bounds(n), and narrower than 2n^2
    inst = _PLANE_CASES[case](tmp_path)
    n = json.loads(inst.read_text(encoding="utf-8"))["n"]
    w, h = general_position_bounds(n)
    out = tmp_path / "result.json"
    assert cli_main(["embed", "--in", str(inst), "--out", str(out), "--bounds", f"{w}x{h}"]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["certificate"] == {"ok": True, "violations": []}
    assert doc["width"] < 2 * n * n


# ``fivepaths`` report documents, kept apart from CASES, which test_io_cli
# imports for embed: the bundled paths on grids 3 to 6, a four-path subset
# whose grid-5 search finds a counterexample, and one seeded sampled grid.
FIVEPATHS_DIGESTS = {
    ("--grid", "3"): "f4e6121e1e9861a0840598a50436d9011db0ebcda38a3a6597a5b2139a330ae8",
    ("--grid", "4"): "f632d69f046b2a8585c0a9b857e12c0e2b2087a4a91dbd9da0c412a7b9419fb7",
    ("--grid", "5"): "d2ee88c2ff820acd5acaadd2fad2f736aa53799774cc46ae397951980b25c09c",
    ("--grid", "6"): "43349141eabef9ef5b15d987474992611a19c57c3a6bd2206ecd002cf3f60edc",
    ("--paths", "12345,13542,25134,32415", "--grid", "5"):
        "048b077fc6ca27d605b6163baae8cf454155683ec61a704ff712fe48819f912d",
    ("--grid", "12", "--samples", "300", "--seed", "9"):
        "895e98a9bfa05f6e8bb28a323e1d4aa0df1fae5d9759053737cb3a7e72ea2637",
}


@pytest.mark.parametrize("args", sorted(FIVEPATHS_DIGESTS), ids=" ".join)
def test_fivepaths_report_digest(args, tmp_path):
    out = tmp_path / "fivepaths.json"
    assert cli_main(["fivepaths", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIVEPATHS_DIGESTS[args]


# ``exhaustive_five_point_check`` results, (counterexample, placements
# checked, exhaustive, grid), for every nonempty subset of the five paths
# and for seeded random sets of 1 to 15 five-vertex paths: on the grids
# the search exhausts, 3 to 8, 3 x 7 and 7 x 3, and with 5 samples on
# grids 9 to 12, each list under a digest of its own.
FIVE_POINT_GRIDS = [(g, None) for g in range(3, 9)] + [((3, 7), None), ((7, 3), None)]
FIVE_POINT_SAMPLED_GRIDS = [(g, 5) for g in range(9, 13)]

# Recorded before the search read its path set as one covered-pair mask.
FIVE_POINT_DIGEST = "72b4047a3ec565bb9fc1980902a1c6b31156b871e2cabe3710351b5c4a7108ce"
# Recorded when a set some order type carries was first placed at its
# order-type witness above grid 8, not by the search of the grid's corner.
FIVE_POINT_SAMPLED_DIGEST = "449a30d929b6acf9e856902cfd01749f2ab1829e6330231a6306a0760d41a5e6"


def _five_point_path_sets():
    subsets = [
        [path_from_digits(d) for d in subset]
        for k in range(1, 6)
        for subset in itertools.combinations(FIVE_PATHS, k)
    ]
    rng = random.Random(39)
    randoms = [
        [PathOrder(rng.sample(range(5), 5)) for _ in range(rng.randint(1, 15))]
        for _ in range(40)
    ]
    return subsets, randoms


def _five_point_rows(grids):
    subsets, randoms = _five_point_path_sets()
    rows = []
    # grid by grid, so that each grid's tables are built once
    for grid, samples in grids:
        for paths in subsets + randoms:
            res = exhaustive_five_point_check(grid, paths, samples=samples)
            cx = res.counterexample
            rows.append([
                None if cx is None else [[p.x, p.y] for p in cx],
                res.placements_checked,
                res.exhaustive,
                list(res.grid),
            ])
    return rows


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def test_five_point_search_results_digest():
    rows = _five_point_rows(FIVE_POINT_GRIDS)
    # an 8 x 8 grid holds a placement of every set some order type carries
    # (each order type is realized in 3 x 7), and of no other
    subsets, randoms = _five_point_path_sets()
    per_grid = len(subsets) + len(randoms)
    grid_8 = per_grid * FIVE_POINT_GRIDS.index((8, None))
    carried = [row[0] is not None for row in rows[grid_8 + len(subsets):grid_8 + per_grid]]
    assert any(carried) and not all(carried)
    assert _digest(rows) == FIVE_POINT_DIGEST


def test_five_point_results_above_grid_8_digest():
    assert _digest(_five_point_rows(FIVE_POINT_SAMPLED_GRIDS)) == FIVE_POINT_SAMPLED_DIGEST
