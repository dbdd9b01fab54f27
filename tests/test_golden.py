"""Golden corpus: SHA-256 digests of ``simembed embed`` result documents.

Every ``gen`` kind at small n and a few seeds, plus free-mapping instances
whose planar and outerplanar layers were thinned, so that face completion
and the general-position scatter do real work.  A refactor that is meant
to keep behaviour must keep every digest; one that changes output on
purpose must say why and record the new digests.
"""

import hashlib
import random

import pytest

from helpers import thin_outerplanar, thin_plane
from simembed import LayeredInstance, cli_main, generate, parse_instance, serialize_instance

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
    + [
        _reversed_case(kind, n, seed)
        for kind in ("path-caterpillar", "planar-outerplanar")
        for n in (6, 11)
        for seed in (1, 2)
    ]
)

# Recorded before the scatter and face-completion rewrites; the reversed-*
# entries before the embed dispatch became table-driven.
DIGESTS = {
    "gen-outerplanars-n11-s1": "0c25a39f70c4e105879a6ed03e47afa12a4d7b2dabab6baeff35a33629fc7abe",
    "gen-outerplanars-n11-s2": "1c84398644564d3635c5f05ed758b348501ef9f6c48e6ea298b757d2f94de049",
    "gen-outerplanars-n6-s1": "e81323c026ba8faf88f5388317db0cb2b2ad9a2dce7f7fb6bc6a157e5527aa83",
    "gen-outerplanars-n6-s2": "726f51cfb98d9cf32be5da1175e71f7be742c5057bee0c4e99821a37f11321fb",
    "gen-path-caterpillar-n11-s1": "d38719ffd29208bf287984bc9af126a74abf28f76f3b44efbd1273d59e278030",
    "gen-path-caterpillar-n11-s2": "ea4ebec1c098491f69f3c3bdfce71c9adecda32bb98e7a4e63c3ee2a5bb4d325",
    "gen-path-caterpillar-n6-s1": "b85c207d9cc89380790e33245a99ef53fae52b35889a4ef016f047ca9e8fc1c8",
    "gen-path-caterpillar-n6-s2": "9a5e51ba57e048f5972a499b036f604a2313620f94a9a3c84a3879e787c546a6",
    "gen-planar-outerplanar-n11-s1": "a509fa9f194615adce58291aefc6eb516a4114163ba1a6f6fbf27cb7acc16684",
    "gen-planar-outerplanar-n11-s2": "4eb02b1c8a8d29adefc464003b8a67165b6a2f7bf1f9b02a9f06586b89a38d52",
    "gen-planar-outerplanar-n6-s1": "9f60d34d8f3832bd1516a05aa4cd7a7e0b3052a9cd1471ad50934c4bd5059e9b",
    "gen-planar-outerplanar-n6-s2": "85ea92f25ab5439aa67385d80848058f0e0f63f849e52a148913116abe9fb489",
    "gen-two-caterpillars-n11-s1": "45b9aaf4d11384f3cd475689fafa3b4435a1b4aee41f3ac5409619b118bc1472",
    "gen-two-caterpillars-n11-s2": "2311c2913a67b5e8a94acfab33731fae08f29456761fbffe8f936d02165ea2cf",
    "gen-two-caterpillars-n6-s1": "de2c4c4c343aafd4daab850f126db8ce036b83f1de3d7845423a6c3f251a12aa",
    "gen-two-caterpillars-n6-s2": "53100c4d599382e471024ace80b4ee134e51176d91c71a3babae682da0d2d7c3",
    "gen-two-paths-n11-s1": "f6bdc079e63002f828cf7bff88f05cc50d5c465e62bc649785e91a841cbd204a",
    "gen-two-paths-n11-s2": "c5bd614447f2db7ff438ce839ed1403bd80714a365a766fe5f424817d7a7aeac",
    "gen-two-paths-n6-s1": "29c1b084019b84fd8e95e77113545190f4d7b52f88c72f2148a07eba1ce3b651",
    "gen-two-paths-n6-s2": "07184b35ca94303eb9d8b2e03f9e4a126e4268376056052dc6606d3011a36636",
    "reversed-path-caterpillar-n11-s1": "d38719ffd29208bf287984bc9af126a74abf28f76f3b44efbd1273d59e278030",
    "reversed-path-caterpillar-n11-s2": "ea4ebec1c098491f69f3c3bdfce71c9adecda32bb98e7a4e63c3ee2a5bb4d325",
    "reversed-path-caterpillar-n6-s1": "b85c207d9cc89380790e33245a99ef53fae52b35889a4ef016f047ca9e8fc1c8",
    "reversed-path-caterpillar-n6-s2": "9a5e51ba57e048f5972a499b036f604a2313620f94a9a3c84a3879e787c546a6",
    "reversed-planar-outerplanar-n11-s1": "45731d4faa19f7e7a729768bc65d9b78e80b953bbe0bf2299fe162780ea87dea",
    "reversed-planar-outerplanar-n11-s2": "5dc1811c57dfeeb36c3d7cafc87f13003e6925bb4c629608f4a6e4af138805c3",
    "reversed-planar-outerplanar-n6-s1": "b485029f99e0d6fabecd77d39b0304d2c25bc0e28d2453f3fc7a82e432aa9741",
    "reversed-planar-outerplanar-n6-s2": "38d0cbb63b450cd8ec2d9b0e1157ec63abc2cc8e76a8ab3de86e67d41628fa9d",
    "thin-outerplanars-n13-s1-drop0.0-chords0.5": "a719a311bfbbae551270e205765e65d49fadc6c74639165f068acf6a0c8f57c1",
    "thin-outerplanars-n13-s2-drop0.0-chords0.5": "84d042f13c1f425ef90fea0949d6222e92417117a2314e3240417c3f541563d0",
    "thin-outerplanars-n30-s1-drop0.0-chords0.5": "43dddcaca88d582f5ae6b6065f9b7688536dd685764b7058fe4ef9086cec9527",
    "thin-outerplanars-n30-s2-drop0.0-chords0.5": "f93e3c912df6eb20e08692f3fb1ac4a78efbafeeec15d48613f54a0e8268a97d",
    "thin-outerplanars-n7-s1-drop0.0-chords0.5": "2ffd31fb634436270efb5a3fd9b85c25944de4c29353be3174c4e79e3e6bb2ad",
    "thin-outerplanars-n7-s2-drop0.0-chords0.5": "333d48261695b25f6c4136ccdbbe7885ea76a7773f3cfce74c634446188292e5",
    "thin-planar-outerplanar-n14-s1-drop0.4-chords0.5": "1533b2d576a3f30ea279049ecb80582d659efaeb95f417e3caef0ac974dd59c8",
    "thin-planar-outerplanar-n14-s1-drop1.0-chords0.0": "ed14cc3fa59508ce70c166689b32b1283fcb6805af69d9d82b3c80cec9b6be80",
    "thin-planar-outerplanar-n14-s2-drop0.4-chords0.5": "75c6ac72dd034e92264acf370f62fd5098217b5d4b4a238a3c8422ed99496d4c",
    "thin-planar-outerplanar-n14-s2-drop1.0-chords0.0": "4869be9def7e6f6c4dd3ade1adcc696949728211407044a746e40c4e839c20d8",
    "thin-planar-outerplanar-n24-s1-drop0.4-chords0.5": "41d65d122e6a44d2d3e67784d350b92a0d3cc50eec753ebe2a03edbb506d3026",
    "thin-planar-outerplanar-n24-s1-drop1.0-chords0.0": "c8b654e0e084f8085b31dff504889bab08d401524d541eb6197659bda661624d",
    "thin-planar-outerplanar-n24-s2-drop0.4-chords0.5": "3fff5546f8e58bb01f019fd2bdd3ed67c1238f532feca520aca90b95d01aa844",
    "thin-planar-outerplanar-n24-s2-drop1.0-chords0.0": "458a4f38c85e44272256d0922e97c842cb4ff063db8a468d30c394817793e68d",
    "thin-planar-outerplanar-n8-s1-drop0.4-chords0.5": "39b3c4e2a0d5bb3af716ec65d1aafbd396b69ab10ed6ab00a0ea2a0dcafa525d",
    "thin-planar-outerplanar-n8-s1-drop1.0-chords0.0": "88cd031ac01bb62b3f1a81c39e5645c71daa015853c700de07f4ce5b492378fa",
    "thin-planar-outerplanar-n8-s2-drop0.4-chords0.5": "d22d90c89d7d9ed52619296424eabbc8cc23d23d287c00e108b54c491e139b35",
    "thin-planar-outerplanar-n8-s2-drop1.0-chords0.0": "39ef43faaded85b080d860193571c8ae5eba6cff32b9f1a385658f45a3edef19",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_embed_result_digest(case, tmp_path):
    inst = CASES[case](tmp_path)
    out = tmp_path / "result.json"
    assert cli_main(["embed", "--in", str(inst), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case]
