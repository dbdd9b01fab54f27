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
DIGESTS = {
    "gen-outerplanars-n11-s1": "0c25a39f70c4e105879a6ed03e47afa12a4d7b2dabab6baeff35a33629fc7abe",
    "gen-outerplanars-n11-s2": "1c84398644564d3635c5f05ed758b348501ef9f6c48e6ea298b757d2f94de049",
    "gen-outerplanars-n6-s1": "e81323c026ba8faf88f5388317db0cb2b2ad9a2dce7f7fb6bc6a157e5527aa83",
    "gen-outerplanars-n6-s2": "726f51cfb98d9cf32be5da1175e71f7be742c5057bee0c4e99821a37f11321fb",
    "gen-path-caterpillar-n11-s1": "a188cb5821cd3280205c74a6ad0ae3b0d6bf3b6691b78df845b1162c6a891cf7",
    "gen-path-caterpillar-n11-s2": "9bdf43cff7d283468574fb5eae7f309eb3c9bf90b2b4d9ec559431f1ca5d04cb",
    "gen-path-caterpillar-n6-s1": "d9b29a7eee79e3222632f6f3d820fe83d19f99bdbcabc57ed803e739de87d06e",
    "gen-path-caterpillar-n6-s2": "38d1b7a23594fc03bb8d4df73f87c358d015b6e831f304ed0d760e577835b246",
    "gen-planar-outerplanar-n11-s1": "8963fe906672da75431a9edeb01b92f8dcf671493407e1cdac90c3893a063568",
    "gen-planar-outerplanar-n11-s2": "629af0f0852adb92d99cddf374700123d9fb94f490038b3c7ef54c0bef3f9840",
    "gen-planar-outerplanar-n6-s1": "88a0028faf4a6e04dd2786c1bf936c32eb68150558f0d3f092ecbd6e07f55f99",
    "gen-planar-outerplanar-n6-s2": "6e5c6b7f8557ca82ee58a30ca61478bf4d2671f5673f60d32a797e4d5be5df50",
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
    "reversed-planar-outerplanar-n11-s1": "8c7003287311a8adad71c3b081a403334fec59f6bc7670994a6f3ca2fadca170",
    "reversed-planar-outerplanar-n11-s2": "731e15ed4fa7df62264af8e98b8ab4c3ca9cd601f63b00632f401eb4dc1e164e",
    "reversed-planar-outerplanar-n6-s1": "7eaf0557c739859a9da2b3c9009d8c1dba8e3e254c7f44d079cc39ef24d25d46",
    "reversed-planar-outerplanar-n6-s2": "0322ca45485c29064a58d1b43894c51ef7cb7c0ce3736923d22102b1d51bba91",
    "thin-outerplanars-n13-s1-drop0.0-chords0.5": "a719a311bfbbae551270e205765e65d49fadc6c74639165f068acf6a0c8f57c1",
    "thin-outerplanars-n13-s2-drop0.0-chords0.5": "42fd4557f4dd658df15602eff1b1407a10f1f38349d4be086661e1c6ee3fb8e9",
    "thin-outerplanars-n30-s1-drop0.0-chords0.5": "ea88b079167b20c6f736c1a56f562e61fbb001fd20f61cf99343414930ce8c1a",
    "thin-outerplanars-n30-s2-drop0.0-chords0.5": "8c207cf1ad0d49ce2d14d2c404fbd7a28a7f0ec68e46d859d82640b1a066f49d",
    "thin-outerplanars-n7-s1-drop0.0-chords0.5": "2ffd31fb634436270efb5a3fd9b85c25944de4c29353be3174c4e79e3e6bb2ad",
    "thin-outerplanars-n7-s2-drop0.0-chords0.5": "1ac99a1dc64a3a874d804f535d26417f6810deb8ae3445a4cebd957b9436630e",
    "thin-planar-outerplanar-n14-s1-drop0.4-chords0.5": "fd83b072271c289263ae754608ff358a6599bf13a3af1e78616f843bf9de3c4f",
    "thin-planar-outerplanar-n14-s1-drop1.0-chords0.0": "eaf6bedbac590d13171ec8f187adc325c4bb2b5610f0233ee2353dad0fcbd2b3",
    "thin-planar-outerplanar-n14-s2-drop0.4-chords0.5": "a32c88e40a47d04c798d22243bf4dfe0ae43689c89629fb53b72533c02b83e86",
    "thin-planar-outerplanar-n14-s2-drop1.0-chords0.0": "738110a3970881a1aacbeea71fdfcda1a3a2172e4f41e43949ce422eb1237290",
    "thin-planar-outerplanar-n24-s1-drop0.4-chords0.5": "5e8829a7bbcbd56f51bf141ecea821936c9eff0c5f7a783cb9e49fd0891d3f91",
    "thin-planar-outerplanar-n24-s1-drop1.0-chords0.0": "a05fd07d6a3ec2a64bef20ebb4c4a4c8ee14d4f9f46ae3adefa0855670c1fb4b",
    "thin-planar-outerplanar-n24-s2-drop0.4-chords0.5": "b463abbb77f54135111c2c5b2c4d64d59fee457230b0c5cc347bd00434e45a9e",
    "thin-planar-outerplanar-n24-s2-drop1.0-chords0.0": "60444b422f04c5f2b77d284ffd42f63fcc2ec22f56356bbc78b812f1149f35dc",
    "thin-planar-outerplanar-n8-s1-drop0.4-chords0.5": "0c7a3cd80bcbaab083fa564a1b59f2b9c494b469f915057321eec1190daeadf9",
    "thin-planar-outerplanar-n8-s1-drop1.0-chords0.0": "8b56d59565ce44158a487916d78c0984628d13a2b6ad03c6b1773dd7addb75de",
    "thin-planar-outerplanar-n8-s2-drop0.4-chords0.5": "6b55d20f99b8fabf8ec28b2ede9ee52d9e70edc74dfcfd1038581ce2bed3ceaa",
    "thin-planar-outerplanar-n8-s2-drop1.0-chords0.0": "8675d4fe807c4b4b8e46f6bddd633b9c100e257df42336c1bb25836dc4d0f535",
    "thin-planar-outerplanars-n12-s1-drop0.4-chords0.5": "7e0c68851b38af92171f86c900b920275b8487f0014a202d8dec6bce943c05ab",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_embed_result_digest(case, tmp_path):
    inst = CASES[case](tmp_path)
    out = tmp_path / "result.json"
    assert cli_main(["embed", "--in", str(inst), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]


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
