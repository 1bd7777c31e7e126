"""Composition law, need enumeration, and size-bound formulas."""

import math

import pytest
from hypothesis import given, strategies as st

from redblue.algebra import (
    ALGEBRA_ONE_BLUE,
    ALGEBRA_TWO_BLUE,
    BOUND_CSV_HEADER,
    IDENTITY,
    AlgebraSpec,
    best_upper_bound,
    blue,
    bound_table,
    composition,
    is_mandatory,
    iter_bound_csv,
    lower_bound_points,
    needs_of,
    polynomial_regime_k,
    red,
    smallest_certifying_k,
    threshold_check,
    union_bound_failure,
)
from redblue.algebra import BoundRow, bound_row, union_bound_at

specs = st.builds(
    AlgebraSpec, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)
)


def diversity_color(spec: AlgebraSpec) -> st.SearchStrategy:
    return st.sampled_from(spec.diversity_colors())


# ---------------------------------------------------------------------------
# colors and composition
# ---------------------------------------------------------------------------


def test_color_identity_and_ordering():
    assert IDENTITY.is_identity and not IDENTITY.is_diversity
    assert red(0).is_red and blue(1).is_blue
    ranked = sorted([blue(1), red(0), IDENTITY, blue(0)], key=lambda c: c.sort_key())
    assert ranked == [IDENTITY, red(0), blue(0), blue(1)]


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(0, 1)
    with pytest.raises(ValueError):
        AlgebraSpec(1, 0)


def test_color_name_round_trip():
    spec = ALGEBRA_TWO_BLUE
    for c in spec.diversity_colors():
        assert spec.parse_color(spec.color_name(c)) == c
    assert spec.parse_color("1'") == IDENTITY
    with pytest.raises(ValueError):
        spec.parse_color("b3")
    with pytest.raises(ValueError):
        AlgebraSpec(2, 1).parse_color("r")  # ambiguous with several reds


def test_two_blue_composition_table():
    spec = ALGEBRA_TWO_BLUE
    r, b1, b2 = red(0), blue(0), blue(1)
    assert composition(spec, b1, b2) == frozenset({r})
    assert composition(spec, r, r) == frozenset({IDENTITY, r, b1, b2})
    assert composition(spec, b1, b1) == frozenset({IDENTITY, r})
    assert composition(spec, r, b2) == frozenset({r, b1, b2})


def test_all_blue_forbidden_red_flexible():
    spec = ALGEBRA_TWO_BLUE
    for c1 in spec.diversity_colors():
        for c2 in spec.diversity_colors():
            for c3 in spec.diversity_colors():
                expected = c1.is_red or c2.is_red or c3.is_red
                assert is_mandatory(spec, c1, c2, c3) == expected


@given(specs, st.data())
def test_is_mandatory_permutation_invariant(spec, data):
    colors = [data.draw(diversity_color(spec)) for _ in range(3)]
    c1, c2, c3 = colors
    reference = is_mandatory(spec, c1, c2, c3)
    assert is_mandatory(spec, c2, c1, c3) == reference
    assert is_mandatory(spec, c3, c2, c1) == reference
    assert is_mandatory(spec, c1, c3, c2) == reference


# ---------------------------------------------------------------------------
# needs
# ---------------------------------------------------------------------------


def test_needs_counts_for_two_blue():
    spec = ALGEBRA_TWO_BLUE
    r, b1, b2 = red(0), blue(0), blue(1)
    assert len(needs_of(spec, r)) == 9
    assert needs_of(spec, b1) == [
        (r, r), (r, b1), (r, b2), (b1, r), (b2, r),
    ]
    assert len(needs_of(ALGEBRA_ONE_BLUE, red(0))) == 4


@given(specs, st.data())
def test_needs_count_formula_and_symmetry(spec, data):
    c = data.draw(diversity_color(spec))
    pairs = needs_of(spec, c)
    t = spec.num_diversity
    expected = t * t if c.is_red else t * t - spec.q * spec.q
    assert len(pairs) == expected
    assert len(set(pairs)) == len(pairs)
    for c1, c2 in pairs:
        assert (c2, c1) in pairs  # symmetric atoms swap freely


def test_needs_reject_identity():
    with pytest.raises(ValueError):
        needs_of(ALGEBRA_TWO_BLUE, IDENTITY)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_lower_bound_values():
    assert lower_bound_points(1) == 7
    assert lower_bound_points(2) == 17
    assert lower_bound_points(3) == 31
    for n in range(1, 101):
        assert lower_bound_points(n) == 2 * n * n + 4 * n + 1
        assert lower_bound_points(n) > n * n + 2 * n + 3


def test_union_bound_exact_small_case():
    ev = union_bound_failure(2, 1)
    assert ev.value == pytest.approx(2**4 * 12 * (3 / 4) ** 2, rel=1e-12)
    assert ev.value == pytest.approx(108.0, rel=1e-12)
    assert 2 ** ev.log2_relaxed == pytest.approx(2**6 * 4 * (3 / 4) ** 2, rel=1e-12)
    assert not ev.certifies_success


def test_union_bound_certifying_cases():
    assert union_bound_failure(14, 14).value < 1.0
    assert union_bound_failure(2, 3).value > 1.0
    n = 91
    assert union_bound_failure(n, polynomial_regime_k(n)).value < 1.0


def test_union_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        union_bound_failure(1, 3)
    with pytest.raises(ValueError):
        union_bound_failure(2, 0)


@given(st.integers(min_value=2, max_value=40))
def test_union_bound_decreasing_in_k(n):
    # strictly decreasing once 2^k overtakes 3n^2: from there each k step
    # adds 3 to the exponent but at least 3*log2(e) to the decay
    start = max(1, math.ceil(math.log2(3 * n * n)))
    values = [union_bound_failure(n, k).log2_value for k in range(start, start + 8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_boundary_is_exact():
    for n in range(1, 65):
        assert threshold_check(n) == (n >= 14)


def test_smallest_certifying_k():
    assert smallest_certifying_k(2) == 6
    assert smallest_certifying_k(3) == 8
    assert smallest_certifying_k(14) == 13


def test_best_upper_bound_regimes():
    assert best_upper_bound(2) == (1024, 10, "explicit-split")
    assert best_upper_bound(7) == (None, None, "")
    value, log2, source = best_upper_bound(14)
    assert (value, log2, source) == (2**43, 43, "layer-theorem")
    value, log2, source = best_upper_bound(20)
    assert (value, log2, source) == (2**61, 61, "layer-theorem")
    # large n: the polynomial-regime union bound beats 2^(3n+1); n=33 has
    # enough ceiling slack for the bound at k=ceil(3*log2(n)) to certify
    value, log2, source = best_upper_bound(33)
    assert source == "union-bound"
    assert log2 == 3 * polynomial_regime_k(33) + 1 == 49
    # the gate is not monotone in n: at n=40 the same k rounds down too
    # close to 3*log2(n) and the bound stays above 1
    assert best_upper_bound(40)[2] == "layer-theorem"


def test_bound_table_rows():
    rows = {r.n: r for r in bound_table(16)}
    assert rows[2].lower == 26 and rows[2].lower_certified
    assert rows[2].upper == 1024 and rows[2].log2_upper == 10
    for n in range(3, 14):
        assert rows[n].upper is None
    assert rows[14].upper == 2**43
    plain = {r.n: r for r in bound_table(4, sat_certified=False)}
    assert plain[2].lower == 17 and not plain[2].lower_certified


def test_bound_csv_shape():
    lines = list(iter_bound_csv(bound_table(5)))
    assert lines[0] == BOUND_CSV_HEADER == "n,lower,upper,log2_upper"
    assert lines[1] == "2,26,1024,10"
    assert lines[2] == "3,31,,"
    assert len(lines) == 5


def test_bound_row_serves_table_and_single_n():
    assert bound_table(16) == [bound_row(n, True) for n in range(2, 17)]
    assert bound_table(5, sat_certified=False) == [bound_row(n, False) for n in range(2, 6)]
    assert bound_row(1, True) == BoundRow(1, 7, False, None, None, "")
    assert bound_row(2, True).lower == 26 and bound_row(2, False).lower == 17


def test_union_bound_at_defaults_to_the_scan():
    assert union_bound_at(1, None) is None
    assert union_bound_at(2, None) == union_bound_failure(2, smallest_certifying_k(2))
    assert union_bound_at(1, 3) is None
    assert union_bound_at(2, 3) == union_bound_failure(2, 3)
