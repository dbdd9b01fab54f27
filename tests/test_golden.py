"""Golden corpus: SHA-256 digests of ``simembed embed`` result documents
(and, in a table of their own, of ``fivepaths`` reports, plus one digest
over many five-point search results).

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
# were merged into one, which made that instance embeddable.
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
    "thin-outerplanars-n13-s2-drop0.0-chords0.5": "84d042f13c1f425ef90fea0949d6222e92417117a2314e3240417c3f541563d0",
    "thin-outerplanars-n30-s1-drop0.0-chords0.5": "43dddcaca88d582f5ae6b6065f9b7688536dd685764b7058fe4ef9086cec9527",
    "thin-outerplanars-n30-s2-drop0.0-chords0.5": "f93e3c912df6eb20e08692f3fb1ac4a78efbafeeec15d48613f54a0e8268a97d",
    "thin-outerplanars-n7-s1-drop0.0-chords0.5": "2ffd31fb634436270efb5a3fd9b85c25944de4c29353be3174c4e79e3e6bb2ad",
    "thin-outerplanars-n7-s2-drop0.0-chords0.5": "333d48261695b25f6c4136ccdbbe7885ea76a7773f3cfce74c634446188292e5",
    "thin-planar-outerplanar-n14-s1-drop0.4-chords0.5": "8bf2976afb95ad2c7aeaf2e4eab381a2379e03779996e71083c13d1b19805c36",
    "thin-planar-outerplanar-n14-s1-drop1.0-chords0.0": "c022698d882d4bc6031b9c21e82e4c12797f322742a5942ba6dd11640afab870",
    "thin-planar-outerplanar-n14-s2-drop0.4-chords0.5": "ce931aa0fa75c575d501ed9254868e215c28f0649adba6ec6d1a180b39e241d4",
    "thin-planar-outerplanar-n14-s2-drop1.0-chords0.0": "c182e1686f29a2352a6788886ec2472cbbce1e2b73af30215ed6d56149b84a0e",
    "thin-planar-outerplanar-n24-s1-drop0.4-chords0.5": "125db416082d4413c178b8edd6624d2b4954f1f33bb222e2ec0583d451ac30bb",
    "thin-planar-outerplanar-n24-s1-drop1.0-chords0.0": "1a39fc8984b54881c596144db909e23d2478fb396f2b5efe245d0a1426e9193f",
    "thin-planar-outerplanar-n24-s2-drop0.4-chords0.5": "6ba198d4af388793e19fa7a015b53b051b98147cc5b46c8a9e1d57d577b328b3",
    "thin-planar-outerplanar-n24-s2-drop1.0-chords0.0": "00e45e7ec9178057ddc0091ee3be73664de8acdc1ca788db8491b0803fbafa73",
    "thin-planar-outerplanar-n8-s1-drop0.4-chords0.5": "69ed2df4e3290c8da416a5a6b17d85266ae95097b2fa08967307597f38000901",
    "thin-planar-outerplanar-n8-s1-drop1.0-chords0.0": "59a5f7d15cb08aa80aa803a888d1a137820707415976329148b3a846e2214c93",
    "thin-planar-outerplanar-n8-s2-drop0.4-chords0.5": "f54ea47379aba7ff36f485bdf2129b37092ddc0e022e6053e209f873480c4c3b",
    "thin-planar-outerplanar-n8-s2-drop1.0-chords0.0": "8675d4fe807c4b4b8e46f6bddd633b9c100e257df42336c1bb25836dc4d0f535",
    "thin-planar-outerplanars-n12-s1-drop0.4-chords0.5": "77d0937fe907b5ba18b2c70644e84dad3cbcb198826297ce788c1555e881d0d6",
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
# and for seeded random sets of 1 to 15 five-vertex paths, on grids 3 to 8,
# 3 x 7 and 7 x 3, and with 5 samples on grids 9 to 12.
FIVE_POINT_GRIDS = [(g, None) for g in range(3, 9)] + [((3, 7), None), ((7, 3), None)] + [
    (g, 5) for g in range(9, 13)
]

# Recorded before the search read its path set as one covered-pair mask.
FIVE_POINT_DIGEST = "56a053031f4b552fefdabd5ef43842c057f0c3a14f166e1251ec4fdc9e866d08"


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


def test_five_point_search_results_digest():
    subsets, randoms = _five_point_path_sets()
    rows = []
    # grid by grid, so that each grid's tables are built once
    for grid, samples in FIVE_POINT_GRIDS:
        for paths in subsets + randoms:
            res = exhaustive_five_point_check(grid, paths, samples=samples)
            cx = res.counterexample
            rows.append([
                None if cx is None else [[p.x, p.y] for p in cx],
                res.placements_checked,
                res.exhaustive,
                list(res.grid),
            ])
    # an 8 x 8 grid holds a placement of every set some order type carries
    # (each order type is realized in 3 x 7), and of no other
    per_grid = len(subsets) + len(randoms)
    grid_8 = per_grid * FIVE_POINT_GRIDS.index((8, None))
    carried = [row[0] is not None for row in rows[grid_8 + len(subsets):grid_8 + per_grid]]
    assert any(carried) and not all(carried)
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == FIVE_POINT_DIGEST
