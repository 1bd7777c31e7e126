"""Edge-coloring checks, forced configurations, and the Ramsey floor."""

import itertools

import pytest
from hypothesis import given, strategies as st

from redblue.algebra import (
    ALGEBRA_ONE_BLUE,
    ALGEBRA_TWO_BLUE,
    IDENTITY,
    AlgebraSpec,
    NeedPair,
    blue,
    is_mandatory,
    needs_of,
    red,
)
from redblue.cube import GroupColoring, layer_partition
from redblue.repcheck import (
    EdgeColoring,
    check_representation,
    coloring_from_group,
    mandatory_configuration,
    needs_deficit,
    parse_coloring,
    red_clique_floor,
    write_coloring,
)
from redblue.cube import parse_split
from redblue.repcheck import coloring_header

# the smallest one-blue representation found by exhaustive search: 8 points,
# 12 blue edges, the rest red
EIGHT_POINT_BLUE = [
    (0, 1), (0, 5), (0, 7), (1, 4), (1, 6), (2, 5),
    (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 5),
]


def complete_coloring(V, blue_edges, b=blue(0)):
    out = EdgeColoring(V)
    blues = {tuple(sorted(e)) for e in blue_edges}
    for j in range(V):
        for i in range(j):
            out.set_color(i, j, b if (i, j) in blues else red(0))
    return out


def cycle_coloring(V):
    """Blue cycle edges, red chords, on V >= 5 points."""
    return complete_coloring(
        V, [(i, (i + 1) % V) for i in range(V)]
    )


# ---------------------------------------------------------------------------
# the coloring container
# ---------------------------------------------------------------------------


def test_edge_coloring_basics():
    c = EdgeColoring(4)
    assert not c.is_total
    c.set_color(2, 1, blue(0))
    assert c.color_of(1, 2) == blue(0) and c.color_of(2, 1) == blue(0)
    assert c.color_of(0, 3) is None
    assert c.colored_edges() == [(1, 2)]
    assert len(c.all_edges()) == 6 and len(c.uncolored_edges()) == 5


def test_edge_coloring_rejects_bad_input():
    c = EdgeColoring(3)
    with pytest.raises(ValueError):
        c.set_color(1, 1, red(0))
    with pytest.raises(ValueError):
        c.set_color(0, 3, red(0))
    with pytest.raises(ValueError):
        c.set_color(0, 1, IDENTITY)
    with pytest.raises(ValueError):
        EdgeColoring(0)
    with pytest.raises(ValueError):
        EdgeColoring(2, {(0, 2): red(0)})


def test_coloring_from_group_difference_property():
    part = layer_partition(1)
    group = GroupColoring(4, {red(0): part.R, blue(0): part.B})
    verts = [0, 3, 5, 9, 14, 15]
    c = coloring_from_group(group, verts)
    assert c.V == len(verts) and c.is_total
    for i, j in itertools.combinations(range(len(verts)), 2):
        assert c.color_of(i, j) == group.color_of(verts[i] ^ verts[j])
    with pytest.raises(ValueError):
        coloring_from_group(group, [0, 1, 1])


def test_group_difference_coloring_passes_check():
    # the full 16-point difference coloring of the k = 1 layer pair
    part = layer_partition(1)
    group = GroupColoring(4, {red(0): part.R, blue(0): part.B})
    result = check_representation(coloring_from_group(group), ALGEBRA_ONE_BLUE)
    assert result.ok and not result.violations


# ---------------------------------------------------------------------------
# brute-force checking
# ---------------------------------------------------------------------------


def test_check_accepts_eight_point_witness():
    c = complete_coloring(8, EIGHT_POINT_BLUE)
    result = check_representation(c, ALGEBRA_ONE_BLUE)
    assert result.ok
    assert bool(result) is True


def test_check_rejects_seven_cycle():
    # ruled out by exhaustive search: the distance-3 chords of the 7-cycle
    # have no common blue neighbor
    result = check_representation(cycle_coloring(7), ALGEBRA_ONE_BLUE)
    assert not result.ok
    assert all(v.kind == "missing-need" for v in result.violations)
    bad_edges = {v.edge for v in result.violations}
    assert bad_edges == {(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)}
    assert len(result.violations) == 7
    assert all(
        v.need == NeedPair(blue(0), blue(0)) for v in result.violations
    )


def test_check_reports_forbidden_triangles():
    c = complete_coloring(3, [(0, 1), (0, 2), (1, 2)])
    result = check_representation(c, ALGEBRA_ONE_BLUE)
    assert not result.ok
    first = result.violations[0]
    assert first.kind == "forbidden-triangle"
    assert first.triangle == (0, 1, 2)
    # each blue edge also lacks its three red-involving needs
    assert sum(v.kind == "missing-need" for v in result.violations) == 9


def test_check_rejects_partial_and_foreign_colors():
    partial = EdgeColoring(3, {(0, 1): red(0)})
    with pytest.raises(ValueError):
        check_representation(partial, ALGEBRA_ONE_BLUE)
    c = complete_coloring(4, [(0, 1)], b=blue(1))
    with pytest.raises(ValueError):
        check_representation(c, ALGEBRA_ONE_BLUE)


def test_check_reports_unrealized_colors_last():
    # one point has no edges, so it realizes none of the diversity colors
    result = check_representation(EdgeColoring(1), ALGEBRA_TWO_BLUE)
    assert not result.ok
    assert [str(v) for v in result.violations] == [
        "[missing-color] no edge realizes color r",
        "[missing-color] no edge realizes color b1",
        "[missing-color] no edge realizes color b2",
    ]
    all_blue = complete_coloring(3, [(0, 1), (0, 2), (1, 2)])
    kinds = [v.kind for v in check_representation(all_blue, ALGEBRA_ONE_BLUE).violations]
    assert kinds == ["forbidden-triangle"] + ["missing-need"] * 9 + ["missing-color"]


@given(st.integers(min_value=5, max_value=9))
def test_cycle_chords_need_blue_pairs(V):
    # in any cycle coloring every red chord at distance >= 3 misses (b, b)
    result = check_representation(cycle_coloring(V), ALGEBRA_ONE_BLUE)
    expect_bad = {
        tuple(sorted((i, (i + d) % V)))
        for d in range(3, V - 2)
        for i in range(V)
    }
    got_bb = {
        v.edge
        for v in result.violations
        if v.need == NeedPair(blue(0), blue(0))
    }
    assert expect_bad == got_bb


# ---------------------------------------------------------------------------
# the configuration hanging off a red edge
# ---------------------------------------------------------------------------


def test_configuration_census_two_blues():
    config = mandatory_configuration(2)
    c = config.coloring
    assert c.V == 10
    assert len(c.colored_edges()) == 39
    assert len(c.uncolored_edges()) == 6
    census = {}
    for e, col in c.colors.items():
        census[col] = census.get(col, 0) + 1
    assert census == {red(0): 27, blue(0): 6, blue(1): 6}
    # the uncolored edges are exactly the mixed-witness pairs
    rb = [config.rb_vertex(side, i) for side in (0, 1) for i in (1, 2)]
    assert set(c.uncolored_edges()) == {
        tuple(sorted(e)) for e in itertools.combinations(rb, 2)
    }


def test_configuration_roles_and_indexing():
    config = mandatory_configuration(2)
    assert [config.bb_vertex(i, j) for i in (1, 2) for j in (1, 2)] == [2, 3, 4, 5]
    assert config.bb_vertex(1, 1) == 2 and config.bb_vertex(2, 2) == 5
    assert config.rb_vertex(0, 1) == 6 and config.rb_vertex(1, 2) == 9
    c = config.coloring
    assert c.color_of(0, 1) == red(0)
    assert c.color_of(0, config.bb_vertex(1, 2)) == blue(0)
    assert c.color_of(1, config.bb_vertex(1, 2)) == blue(1)
    assert c.color_of(0, config.rb_vertex(0, 2)) == red(0)
    assert c.color_of(1, config.rb_vertex(0, 2)) == blue(1)


def test_configuration_clique_extension():
    config = mandatory_configuration(2, k6=True)
    c = config.coloring
    assert c.V == 12
    assert len(c.colored_edges()) == 48  # 9 new red edges close the 6-clique
    extras = [c.V - 2, c.V - 1]  # the last two vertices
    clique = [config.bb_vertex(i, j) for i in (1, 2) for j in (1, 2)] + extras
    for a, b in itertools.combinations(clique, 2):
        assert c.color_of(a, b) == red(0)
    assert all(c.color_of(v, w) is None for v in extras for w in range(c.V) if w not in clique)
    with pytest.raises(ValueError):
        mandatory_configuration(3, k6=True)


def test_configuration_scales_with_blue_count():
    config = mandatory_configuration(3)
    c = config.coloring
    assert c.V == 2 + 9 + 6
    assert len(c.uncolored_edges()) == 15  # C(6, 2) mixed-witness pairs
    assert [config.bb_vertex(i, j) for i in (1, 2, 3) for j in (1, 2, 3)] == list(range(2, 11))
    with pytest.raises(ValueError):
        mandatory_configuration(0)


def test_configuration_has_no_forbidden_triangle():
    # precolored triangles must all be allowed; check every total triple
    config = mandatory_configuration(2)
    c = config.coloring
    spec = AlgebraSpec(1, 2)
    for i, j, k in itertools.combinations(range(c.V), 3):
        cols = (c.color_of(i, j), c.color_of(i, k), c.color_of(j, k))
        if None in cols:
            continue
        assert is_mandatory(spec, *cols), (i, j, k, cols)


# ---------------------------------------------------------------------------
# counting what the precoloring cannot witness
# ---------------------------------------------------------------------------


def test_needs_deficit_bb_diagonal_edge():
    config = mandatory_configuration(2)
    probe = needs_deficit(config, config.bb_vertex(1, 1), config.bb_vertex(2, 2))
    assert probe.edge == (2, 5)
    assert len(probe.unsatisfied) == 7
    sat = probe.satisfied
    assert set(sat) == {
        NeedPair(red(0), red(0)),
        NeedPair(blue(0), blue(1)),
    }
    assert sat[NeedPair(blue(0), blue(1))] == (0, 1)
    assert sat[NeedPair(red(0), red(0))] == (3, 4, 6, 7, 8, 9)
    # the witnesses really do carry the claimed colors
    c = config.coloring
    for need, wits in sat.items():
        for w in wits:
            assert c.color_of(probe.edge[0], w) == need.first
            assert c.color_of(w, probe.edge[1]) == need.second


def test_needs_deficit_covers_every_need_once():
    config = mandatory_configuration(2)
    spec = AlgebraSpec(1, 2)
    probe = needs_deficit(config, 2, 5)
    all_needs = set(needs_of(spec, red(0)))
    assert set(probe.satisfied) | set(probe.unsatisfied) == all_needs
    assert not set(probe.satisfied) & set(probe.unsatisfied)


def test_needs_deficit_rejects_uncolored_probe():
    config = mandatory_configuration(2)
    rb = [config.rb_vertex(0, i) for i in (1, 2)]
    with pytest.raises(ValueError):
        needs_deficit(config, rb[0], rb[1])


# ---------------------------------------------------------------------------
# the Ramsey floor
# ---------------------------------------------------------------------------


def test_red_clique_floor_table():
    f9 = red_clique_floor(9)
    assert f9.size == 4 and not f9.informational and not f9.floor_only
    f17 = red_clique_floor(17)
    assert f17.size == 5 and f17.informational
    f18 = red_clique_floor(18)
    assert f18.size == 6 and not f18.informational and not f18.floor_only
    f25 = red_clique_floor(25)
    assert f25.size == 6 and f25.floor_only
    assert int(f25) == 6
    assert red_clique_floor(1).size == 1
    assert red_clique_floor(8).size == 3
    with pytest.raises(ValueError):
        red_clique_floor(0)


@given(st.integers(min_value=1, max_value=60))
def test_red_clique_floor_monotone(points):
    assert red_clique_floor(points + 1).size >= red_clique_floor(points).size


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------


def test_coloring_file_round_trip():
    c = complete_coloring(8, EIGHT_POINT_BLUE)
    text = write_coloring(c, ALGEBRA_ONE_BLUE)
    assert text.startswith("kn V=8 colors=2\n")
    back = parse_coloring(text, ALGEBRA_ONE_BLUE)
    assert back.V == c.V and back.colors == c.colors


def test_coloring_file_partial_round_trip():
    config = mandatory_configuration(2)
    text = write_coloring(config.coloring, ALGEBRA_TWO_BLUE)
    back = parse_coloring(text, ALGEBRA_TWO_BLUE)
    assert back.colors == config.coloring.colors
    assert not back.is_total


def test_parse_coloring_errors():
    with pytest.raises(ValueError):
        parse_coloring("", ALGEBRA_ONE_BLUE)
    with pytest.raises(ValueError):
        parse_coloring("cube m=3 colors=2\n", ALGEBRA_ONE_BLUE)
    with pytest.raises(ValueError):
        parse_coloring("kn V=3 colors=3\n0 1 r\n", ALGEBRA_ONE_BLUE)
    with pytest.raises(ValueError):
        parse_coloring("kn V=3 colors=2\n0 1 r\n1 0 b\n", ALGEBRA_ONE_BLUE)
    with pytest.raises(ValueError):
        parse_coloring("kn V=3 colors=2\n0 1\n", ALGEBRA_ONE_BLUE)


@pytest.mark.parametrize(
    "text",
    [
        "kn V=5\n",
        "kn V=5 x=2\n",
        "kn colors=2 x=5\n0 1 r\n",
        "cube m=3 x=2\nr: 1\n",
        "cube colors=2 y=3\n",
        "cube m=3\n",
    ],
)
def test_malformed_headers_raise_value_error(text):
    parse = parse_split if text.startswith("cube") else coloring_header
    with pytest.raises(ValueError):
        parse(text)
