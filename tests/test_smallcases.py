"""The order-type verdict of the five-point search.

Its three representatives must cover every order type of five points in
general position, and its labeling masks must reproduce the counts of
crossing-free labelings and of failing path sets that a plain scan over
every labeling of every path set gives.  Above grid 8 nothing is drawn:
when the verdict is None the search reports what drawing would, and
otherwise the placement that the search of the grid's corner finds, which
every order type's realization in a 3 x 7 box guarantees.
"""

import functools
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import embedding_of
from reference import five_point_check_dfs, sampled_five_point_check
from simembed import (
    FIVE_PATHS,
    GridPoint,
    InvalidInstanceError,
    Layer,
    LayeredInstance,
    PathOrder,
    certify_embedding,
    convex_hull,
    exhaustive_five_point_check,
    find_collinear_triple,
    five_path_pair_coverage,
    orient,
    path_from_digits,
)
from simembed.geometry import COORD_LIMIT, _conflict_raw
from simembed.smallcases import (
    EXHAUSTIVE_GRID_LIMIT,
    _ORDER_TYPES,
    _PAIRS,
    _covered_pairs,
    _labeling_masks,
    _order_type_witness,
)

# the 60 undirected 5-vertex paths, each once
ALL_PATHS = ["".join(p) for p in itertools.permutations("12345") if p[0] < p[-1]]

# the other five-path set with 12345 that no point set carries
SECOND_FAILING_SET = ("12345", "15243", "23514", "25413", "42135")


def _sign_vector(pts):
    gp = [GridPoint(*p) for p in pts]
    return tuple(orient(gp[i], gp[j], gp[k]) > 0 for i, j, k in itertools.combinations(range(5), 3))


def _relabeled_sign_vectors(rep):
    return {_sign_vector(pts) for pts in itertools.permutations(rep)}


_REP_SIGNS = [_relabeled_sign_vectors(rep) for rep in _ORDER_TYPES]


def _need(digit_strings):
    return _covered_pairs([path_from_digits(d) for d in digit_strings])


def _fitting_labelings(digit_strings):
    need = _need(digit_strings)
    return sum(1 for _, mask in _labeling_masks() if not mask & need)


def test_covered_pair_mask_is_read_off_the_edge_sets():
    # the 15 pairs are the disjoint K5 edge pairs in lexicographic order;
    # a set's mask, and its coverage, hold pair k exactly when some path
    # has both its edges, whichever way the path runs
    edges = list(itertools.combinations(range(5), 2))
    assert list(_PAIRS) == [(e, f) for e, f in itertools.combinations(edges, 2) if not {*e} & {*f}]
    rng = random.Random(39)
    sets = [[d] for d in ALL_PATHS] + [rng.sample(ALL_PATHS, rng.randint(2, 8)) for _ in range(50)]
    for digits in sets:
        paths = [path_from_digits(d) for d in digits]
        paths += [PathOrder(p.order[::-1]) for p in paths]
        edge_sets = [{tuple(sorted(e)) for e in p.edges()} for p in paths]
        covered_by = [[i for i, es in enumerate(edge_sets) if e in es and f in es] for e, f in _PAIRS]
        assert _covered_pairs(paths) == sum(1 << k for k, c in enumerate(covered_by) if c)
        cov = five_path_pair_coverage(paths)
        assert (cov.pairs, cov.covered_by) == (list(_PAIRS), covered_by)


def test_order_type_representatives_are_in_general_position_with_hull_sizes_5_4_3():
    for rep, hull_size in zip(_ORDER_TYPES, (5, 4, 3)):
        pts = [GridPoint(*p) for p in rep]
        assert find_collinear_triple(pts) is None
        hull = convex_hull(pts)
        assert len(hull) == hull_size
        # hull vertices first, counterclockwise
        assert sorted(hull) == list(range(hull_size))
        assert all(orient(pts[0], pts[1], pts[k]) > 0 for k in range(2, 5))
    assert len(_labeling_masks()) == 360
    assert all(not x & y for x, y in itertools.combinations(_REP_SIGNS, 2))


@st.composite
def five_general_position_points(draw):
    w = draw(st.integers(3, 16))
    h = draw(st.integers(3, 16))
    cells = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    pts = draw(st.lists(cells, min_size=5, max_size=5, unique=True))
    assume(find_collinear_triple([GridPoint(*p) for p in pts]) is None)
    return pts


@settings(max_examples=300, deadline=None)
@given(five_general_position_points())
def test_every_five_points_match_exactly_one_representative(pts):
    signs = _sign_vector(pts)
    assert sum(signs in rep_signs for rep_signs in _REP_SIGNS) == 1


def test_five_paths_fit_no_labeling_and_each_four_path_subset_fits_26():
    assert _fitting_labelings(FIVE_PATHS) == 0
    assert _order_type_witness(_need(FIVE_PATHS)) is None
    for subset in itertools.combinations(FIVE_PATHS, 4):
        assert _fitting_labelings(subset) == 26


def _fits_table():
    # fits[need] for every 15-bit need mask: a need fits some labeling
    # iff it misses some mask that is minimal under inclusion
    masks = {mask for _, mask in _labeling_masks()}
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return bytearray(any(not need & m for m in minimal) for need in range(1 << 15))


def test_no_four_paths_on_five_vertices_fail():
    fits = _fits_table()
    needs = [_need([d]) for d in ALL_PATHS]
    sets = failing = 0
    for a, b, c, d in itertools.combinations(needs, 4):
        sets += 1
        failing += not fits[a | b | c | d]
    assert (sets, failing) == (487635, 0)


def test_exactly_two_five_path_sets_with_12345_fail():
    fits = _fits_table()
    needs = {d: _need([d]) for d in ALL_PATHS}
    first = needs.pop("12345")
    failing = [
        ("12345", a, b, c, d)
        for a, b, c, d in itertools.combinations(needs, 4)
        if not fits[first | needs[a] | needs[b] | needs[c] | needs[d]]
    ]
    assert sorted(failing) == sorted([FIVE_PATHS, SECOND_FAILING_SET])
    assert _fitting_labelings(SECOND_FAILING_SET) == 0


def test_order_type_witness_is_crossing_free_on_every_proper_subset():
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    for k in range(1, 5):
        for subset in itertools.combinations(paths, k):
            pts = _order_type_witness(_covered_pairs(subset))
            assert pts is not None
            assert find_collinear_triple([GridPoint(*p) for p in pts]) is None
            # every disjoint edge pair of every path, read off the path
            for path in subset:
                for (a, b), (c, d) in itertools.combinations(path.edges(), 2):
                    if not {a, b} & {c, d}:
                        assert not _conflict_raw(*pts[a], *pts[b], *pts[c], *pts[d]), (subset, pts)


def test_order_type_witness_of_one_path_is_the_first_labeling():
    # a single path asks for three pairs; the convex pentagon in hull order
    # draws 12345 as four hull edges
    pts = _order_type_witness(_covered_pairs([PathOrder([0, 1, 2, 3, 4])]))
    assert pts == list(_ORDER_TYPES[0])


# a four-path set that the witness at grid 5 embeds
FITTING_SET = ("12345", "13542", "25134", "32415")

SAMPLED_GRIDS = [9, 10, 11, 12, (9, 12)]


def _outcome(res):
    return res.counterexample, res.placements_checked, res.exhaustive, res.grid


def _no_random(*args, **kwargs):
    raise AssertionError("the search made a random generator")


def _sides(grid):
    return grid if isinstance(grid, tuple) else (grid, grid)


def _corner(grid):
    return tuple(min(side, EXHAUSTIVE_GRID_LIMIT) for side in _sides(grid))


@pytest.mark.parametrize("digits", [FIVE_PATHS, SECOND_FAILING_SET], ids=["five", "second"])
def test_sampled_probe_draws_nothing_when_no_order_type_fits(digits, monkeypatch):
    paths = [path_from_digits(d) for d in digits]
    monkeypatch.setattr(random, "Random", _no_random)
    for grid in [9, 12, (9, 12), COORD_LIMIT + 1]:
        for samples in (1, 5000, COORD_LIMIT):
            res = exhaustive_five_point_check(grid, paths, samples=samples)
            assert _outcome(res) == (None, samples, False, _sides(grid))


@pytest.mark.parametrize("digits", [FIVE_PATHS, SECOND_FAILING_SET], ids=["five", "second"])
def test_sampled_probe_without_witness_matches_the_drawing_reference(digits):
    # the reference draws every sample and tests it on coordinates
    paths = [path_from_digits(d) for d in digits]
    for grid in SAMPLED_GRIDS:
        for seed in range(10):
            want = _outcome(sampled_five_point_check(grid, paths, seed, 200))
            assert want[:3] == (None, 200, False)
            got = exhaustive_five_point_check(grid, paths, samples=200)
            assert _outcome(got) == want


def test_probe_with_a_witness_searches_the_8_by_8_corner(monkeypatch):
    # the four paths embed; a probe of 5 seeded draws on grid 12 reported
    # that some path must cross
    paths = [path_from_digits(d) for d in FITTING_SET]
    assert _order_type_witness(_covered_pairs(paths)) is not None
    want = five_point_check_dfs(EXHAUSTIVE_GRID_LIMIT, paths)
    assert want.counterexample == [GridPoint(0, 0), GridPoint(0, 2), GridPoint(1, 1),
                                   GridPoint(2, 1), GridPoint(5, 0)]
    assert want.placements_checked == 4237
    monkeypatch.setattr(random, "Random", _no_random)
    for grid in SAMPLED_GRIDS:
        for samples in (5, 200):
            res = exhaustive_five_point_check(grid, paths, samples=samples)
            assert _outcome(res) == (want.counterexample, 4237, False, _sides(grid))


#: One realization of each order type in the 3 x 7 box, hull vertices
#: first and counterclockwise, as the search's docstring names them.
BOX_REALIZATIONS = (
    ((0, 0), (2, 0), (2, 1), (1, 3), (0, 1)),
    ((0, 1), (2, 0), (2, 4), (0, 5), (1, 2)),
    ((0, 0), (2, 0), (0, 6), (1, 1), (1, 2)),
)


def test_every_order_type_is_realized_in_the_3_by_7_box():
    for pts, hull_size, rep_signs in zip(BOX_REALIZATIONS, (5, 4, 3), _REP_SIGNS):
        gp = [GridPoint(*p) for p in pts]
        assert max(p.x for p in gp) <= 2 and max(p.y for p in gp) <= 6
        assert find_collinear_triple(gp) is None
        assert sorted(convex_hull(gp)) == list(range(hull_size))
        assert _sign_vector(pts) in rep_signs
    # and all three occur among the 5-subsets of the box in general position
    box = [GridPoint(x, y) for x in range(3) for y in range(7)]
    seen = set()
    for pts in itertools.combinations(box, 5):
        signs = [orient(pts[i], pts[j], pts[k]) for i, j, k in itertools.combinations(range(5), 3)]
        if all(signs):
            seen.add(tuple(sign > 0 for sign in signs))
    assert all(seen & rep_signs for rep_signs in _REP_SIGNS)


#: Grids above 8, whose corners are 8 x 8, 3 x 8 and 8 x 3.
CORNER_GRIDS = [9, 12, 16, (3, 9), (9, 3), (9, 12), (3, COORD_LIMIT + 1)]


def _carried_sets():
    # the fitting set, every single path, every 37th pair and random sets of
    # 2 to 6 paths, keeping those that some order type carries
    rng = random.Random(38)
    sets = [list(FITTING_SET)] + [[d] for d in ALL_PATHS]
    sets += [list(pair) for pair in itertools.combinations(ALL_PATHS, 2)][::37]
    sets += [rng.sample(ALL_PATHS, rng.randint(2, 6)) for _ in range(60)]
    return [
        digits for digits in sets
        if _order_type_witness(_need(digits))
    ]


CARRIED_SETS = _carried_sets()


@functools.cache
def _corner_oracle(corner):
    # shared by the grids with one corner: the oracle places vertex by vertex
    return [five_point_check_dfs(corner, [path_from_digits(d) for d in digits])
            for digits in CARRIED_SETS]


@pytest.mark.parametrize("grid", CORNER_GRIDS, ids=lambda g: "x".join(map(str, _sides(g))))
def test_a_carried_set_above_grid_8_is_placed_by_the_corner_search(grid, monkeypatch):
    assert len(CARRIED_SETS) > 100 and any(len(d) >= 4 for d in CARRIED_SETS)
    wants = _corner_oracle(_corner(grid))
    monkeypatch.setattr(random, "Random", _no_random)
    for digits, want in zip(CARRIED_SETS, wants):
        paths = [path_from_digits(d) for d in digits]
        assert want.counterexample is not None, digits
        for samples in (1, 5, 5000):
            res = exhaustive_five_point_check(grid, paths, samples=samples)
            assert _outcome(res) == (want.counterexample, want.placements_checked, False,
                                     _sides(grid))
        instance = LayeredInstance(n=5, layers=[Layer("path", p.edges()) for p in paths])
        assert certify_embedding(embedding_of(res.counterexample), instance).ok, digits


def test_sample_count_is_capped_at_the_coordinate_budget():
    # one over 2^40 is refused before any work, as is a count too long to
    # print, whether or not the set would be drawn
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    fitting = [path_from_digits(d) for d in FITTING_SET]
    for samples in (COORD_LIMIT + 1, 10**5000):
        for which in (paths, fitting):
            with pytest.raises(InvalidInstanceError, match=r"over the cap 2\^40"):
                exhaustive_five_point_check(12, which, samples=samples)


def test_sample_count_below_one_is_refused():
    # the refusal leaves the count out, which CPython will not format past
    # 4300 digits
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    for samples in (0, -1, -(10**5000)):
        with pytest.raises(InvalidInstanceError, match="sample count must be positive$"):
            exhaustive_five_point_check(12, paths, samples=samples)


@pytest.mark.parametrize(
    "grid, samples, message",
    [
        (12, 2.5, "sample count must be an integer, got float$"),
        (12, True, "sample count must be an integer, got bool$"),
        (12, "300", "sample count must be an integer, got str$"),
        (5, 1.0, "sample count must be an integer, got float$"),
        (5.0, None, "grid sides must be integers, got float x float$"),
        (True, None, "grid sides must be integers, got bool x bool$"),
        ((3, 5.0), None, "grid sides must be integers, got int x float$"),
        ((5, "5"), None, "grid sides must be integers, got int x str$"),
        ((10**5000, 2.0), None, "grid sides must be integers, got int x float$"),
        ((4,), None, r"a tuple grid must be a \(width, height\) pair$"),
        ((3, 4, 5), None, r"a tuple grid must be a \(width, height\) pair$"),
    ],
    ids=["2.5", "True", "str", "grid-5-1.0", "5.0", "grid-True", "3x5.0", "5x'5'",
         "huge-x-2.0", "(4,)", "3x4x5"],
)
def test_search_refuses_a_grid_or_sample_count_that_is_not_an_int(grid, samples, message):
    # checked before the magnitude and size checks, so that each of those
    # compares integers: with the bundled paths a float count would be
    # reported as the placements checked and a float side would reach range
    paths = [path_from_digits(d) for d in FIVE_PATHS]
    with pytest.raises(InvalidInstanceError, match=message):
        exhaustive_five_point_check(grid, paths, samples=samples)
