"""Deterministic splitting, violation counting, and local-search repair."""

import hashlib
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from redblue.algebra import AlgebraSpec, NeedPair, blue, is_mandatory, red, union_bound_failure
from redblue.cube import CubeSubset, LayerPartition, pair_counts, pair_counts_naive
from redblue.cube import layer_partition, verify_group_representation, walsh_hadamard
from redblue.search import (
    SEARCH_CSV_HEADER,
    MonteCarloResult,
    SplitState,
    _ClimbEngine,
    embedded_split_state,
    hill_climb,
    iter_trial_csv,
    monte_carlo,
    part_index,
    random_split,
    split_from_coloring,
    trial_seed,
    violations,
    violations_naive,
)
from redblue.search import _broken, _counts, _rule_table, iter_trials
from redblue import cube, search

TWO_BLUE = AlgebraSpec(1, 2)
ONE_BLUE = AlgebraSpec(1, 1)


# ---------------------------------------------------------------------------
# the counter-based generator
# ---------------------------------------------------------------------------


def test_prng_frozen_values():
    assert part_index(12345, 127, 2) == 0
    assert part_index(0, 1, 3) == 1
    assert trial_seed(7, 0) == 1346066267577507604


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=1, max_value=16),
)
def test_part_index_in_range_and_stable(seed, element, parts):
    first = part_index(seed, element, parts)
    assert 0 <= first < parts
    assert part_index(seed, element, parts) == first


def test_part_index_spreads_elements(part2):
    counts = [0, 0, 0]
    for e in part2.R.elements():
        counts[part_index(99, e, 3)] += 1
    assert all(c > 0 for c in counts)  # 98 elements cannot all collide


# ---------------------------------------------------------------------------
# split states
# ---------------------------------------------------------------------------


def test_random_split_deterministic(part2):
    a = random_split(part2, 1, 2, 41)
    b = random_split(part2, 1, 2, 41)
    assert a == b
    assert a.red_assign == b.red_assign and a.blue_assign == b.blue_assign
    other = random_split(part2, 1, 2, 42)
    assert other.blue_assign != a.blue_assign


def _one_part_per_layer(part, blue_label=1):
    """Labels putting the red layer in red part 0 and the blue layer at `blue_label`."""
    labels = np.full(1 << part.m, -1)
    labels[part.R.to_array()] = 0
    labels[part.B.to_array()] = blue_label
    return labels


def test_split_state_validation(part1):
    with pytest.raises(ValueError):
        SplitState(part1, 1, 2, 0, labels=np.full(1 << part1.m, -1))
    state = SplitState(part1, 1, 2, 0, labels=_one_part_per_layer(part1))
    assert state.spec == TWO_BLUE
    assert not state.parts()[blue(1)]
    with pytest.raises(ValueError):
        SplitState(part1, 1, 1, 0, labels=_one_part_per_layer(part1, blue_label=4))


def test_trivial_split_is_solved(part1, part2):
    for part in (part1, part2):
        report = violations(random_split(part, 1, 1, 5), ONE_BLUE)
        assert report.solved and report.count == 0


def test_violation_count_frozen(part2):
    report = violations(random_split(part2, 1, 2, 7), TWO_BLUE)
    assert report.count == report.broken == 101
    assert not report.solved
    assert not report.empty_parts


def _judged(table, counts, labels):
    """The `_broken` matrix of `counts`, False at unlabeled positions."""
    return _broken(table, counts, labels, slice(None)) & (labels >= 0)


def _fresh_judged(state, spec, naive=False):
    """`_judged` on a fresh count of `state` by either route."""
    return _judged(_rule_table(spec), _counts(state, spec, naive), state.labels)


def test_violations_match_naive_path(part2):
    for seed in (7, 19, 23):
        state = random_split(part2, 1, 2, seed)
        fast = violations(state, TWO_BLUE)
        slow = violations_naive(state, TWO_BLUE)
        assert fast == slow
        assert np.array_equal(_fresh_judged(state, TWO_BLUE),
                              _fresh_judged(state, TWO_BLUE, naive=True))


def _reference_report(state, spec):
    """The whole report straight from the definitions: per labeled element
    in ascending order and ordered color pair in rank order, read
    `is_mandatory` and the directly enumerated pair count."""
    colors = spec.diversity_colors()
    parts = {c: CubeSubset.from_indicator(state.base.m, state.labels == code)
             for code, c in enumerate(colors)}
    counts = {(c1, c2): pair_counts_naive(parts[c1], parts[c2])
              for c1 in colors for c2 in colors}
    unsatisfied, forbidden = [], []
    for z in np.flatnonzero(state.labels >= 0).tolist():
        target = colors[state.labels[z]]
        for c1 in colors:
            for c2 in colors:
                witnessed = counts[(c1, c2)][z] > 0
                if is_mandatory(spec, c1, c2, target) and not witnessed:
                    unsatisfied.append((z, NeedPair(c1, c2)))
                elif not is_mandatory(spec, c1, c2, target) and witnessed:
                    forbidden.append((z, NeedPair(c1, c2)))
    empty = tuple(c for c in colors if not parts[c])
    return tuple(unsatisfied), tuple(forbidden), empty


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 2), (2, 2), (1, 3), (3, 2)]),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.booleans(),
)
@example((2, 2), 2, 5, True, False)
@example((1, 2), 2, 7, False, True)
def test_report_matches_reference(shape, k, seed, emptied, moved):
    p, q = shape
    spec = AlgebraSpec(p, q)
    base = layer_partition(k)
    labels = random_split(base, p, q, seed).labels.copy()
    if emptied:  # fold the last blue part into the first
        labels[labels == p + q - 1] = p
    if moved:  # recolor one red element blue: all-blue sums then hit blue
        x = sorted(base.R.elements())[part_index(seed, 0, len(base.R))]
        point = CubeSubset.from_elements(base.m, [x])
        base = LayerPartition(k, base.R - point, base.B | point)
        labels[x] = p
    state = SplitState(base, p, q, seed, labels=labels)
    unsatisfied, forbidden, empty = _reference_report(state, spec)
    assert bool(forbidden) == moved  # the blue layer is sum-free until then
    assert not emptied or spec.color_at(p + q - 1) in empty
    # a broken rule on an unordered pair breaks both its ordered pairs
    expected = {(z, *sorted(map(spec.color_index, pair))) for z, pair in unsatisfied + forbidden}
    table = _rule_table(spec)
    for naive, report in ((False, violations(state, spec)), (True, violations_naive(state, spec))):
        assert (report.broken, report.empty_parts) == (len(unsatisfied) + len(forbidden), empty)
        rows, zs = np.nonzero(_fresh_judged(state, spec, naive))
        assert {(z, *table.unordered[u]) for u, z in zip(rows.tolist(), zs.tolist())} == expected


def test_rules_depend_only_on_the_target_layer():
    # the climb keeps a moved element's own tally as it is, since a move
    # never takes an element out of its layer
    for p in range(1, 5):
        for q in range(1, 6):
            need = _rule_table(AlgebraSpec(p, q)).need
            for first, last in ((0, p), (p, p + q)):
                assert (need[first:last] == need[first]).all(), (p, q)


@pytest.mark.parametrize(
    "k, p, q",
    [(2, p, q) for p in range(1, 7) for q in range(1, 8 - p)] + [(3, 1, 2), (3, 2, 3), (3, 3, 4)],
)
def test_packed_counts_match_naive_route(k, p, q):
    # at m = 7 seven rows share an inverse transform, at m = 10 four: the
    # larger shapes take several packs and a partial last one
    state = random_split(layer_partition(k), p, q, trial_seed(19, p * 8 + q))
    spec = AlgebraSpec(p, q)
    assert np.array_equal(_counts(state, spec, naive=False), _counts(state, spec, naive=True))


def test_packed_counts_match_one_inverse_per_row_at_k5():
    # m = 16 packs two rows per inverse transform; the reference takes one
    # int64 inverse per row, as the transform route did before packing
    spec = AlgebraSpec(1, 3)
    state = random_split(layer_partition(5), 1, 3, 5)
    m = state.base.m
    fwd = [walsh_hadamard((state.labels == code).astype(np.int64)) for code in range(4)]
    reference = []
    for a, b in search._rule_table(spec).unordered:
        row = walsh_hadamard(fwd[a] * fwd[b])
        assert not (row & ((1 << m) - 1)).any()
        reference.append(row >> m)
    assert np.array_equal(_counts(state, spec, naive=False), np.stack(reference))


@pytest.mark.parametrize("variant", ["drawn", "emptied-last", "emptied-other", "moved"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2)])
def test_counts_from_layer_sums_match_both_routes(shape, variant):
    p, q = shape
    spec = AlgebraSpec(p, q)
    seed = 11
    base = layer_partition(2)
    labels = random_split(base, p, q, seed).labels.copy()
    if variant.startswith("emptied"):  # fold a part of each divided layer into another
        for first, parts in ((0, p), (p, q)):
            last = first + parts - 1
            gone, kept = (last, first) if variant == "emptied-last" else (first, last)
            labels[labels == gone] = kept
    if variant == "moved":  # the base of test_report_matches_reference's `moved`
        x = sorted(base.R.elements())[part_index(seed, 0, len(base.R))]
        point = CubeSubset.from_elements(base.m, [x])
        base = LayerPartition(base.k, base.R - point, base.B | point)
        labels[x] = p
    state = SplitState(base, p, q, seed, labels=labels)
    parts = list(state.parts().values())  # the direct route: one convolution per pair
    direct = np.stack([pair_counts(parts[a], parts[b]) for a, b in search._rule_table(spec).unordered])
    assert np.array_equal(_counts(state, spec, naive=False), direct)
    assert np.array_equal(_counts(state, spec, naive=True), direct)


def test_empty_part_is_a_violation(part2):
    state = SplitState(part2, 1, 2, 0, labels=_one_part_per_layer(part2))
    report = violations(state, TWO_BLUE)
    assert blue(1) in report.empty_parts
    assert not report.solved


def test_embedded_state_round_trip():
    state = embedded_split_state()
    assert violations(state, TWO_BLUE).solved
    rebuilt = split_from_coloring(state.base, state.to_coloring(), 1, 2)
    assert rebuilt.blue_assign == state.blue_assign
    assert rebuilt.red_assign == state.red_assign


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_array_draw_matches_part_index(seed, k, p, q):
    # m = 3k + 1 runs up to 10; the uint64 draw must neither warn nor differ
    part = layer_partition(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = random_split(part, p, q, seed)
    assert state.red_assign == {x: part_index(seed, x, p) for x in part.R.elements()}
    assert state.blue_assign == {x: part_index(seed, x, q) for x in part.B.elements()}
    assert state.labels[0] == -1


def test_random_split_equals_hand_built_state(part2):
    drawn = random_split(part2, 2, 3, 17)
    labels = np.full(1 << part2.m, -1)
    for x in part2.R.elements():
        labels[x] = part_index(17, x, 2)
    for x in part2.B.elements():
        labels[x] = 2 + part_index(17, x, 3)
    assert SplitState(part2, 2, 3, 17, labels=labels) == drawn
    assert SplitState(part2, 2, 3, 18, labels=labels) != drawn
    assert random_split(part2, 2, 3, 18) != drawn


def test_split_labels_are_read_only(part2):
    state = random_split(part2, 1, 2, 7)
    with pytest.raises(ValueError):
        state.labels[1] = 0
    red_assign = state.red_assign
    red_assign[next(iter(red_assign))] = 5  # a copy: the state is unchanged
    assert state.red_assign == random_split(part2, 1, 2, 7).red_assign


def test_layer_indicators_computed_once_per_partition(part2):
    # random_split and SplitState's label check read the partition's
    # read-only layer indicators and compute none of their own
    for vec in (*part2.layers, *part2.fwd, *part2.rows):
        assert not vec.flags.writeable
    with mock.patch.object(CubeSubset, "indicator", autospec=True,
                           side_effect=CubeSubset.indicator) as spy:
        states = [random_split(part2, 1, 2, seed) for seed in range(3)]
        SplitState(part2, 1, 2, 0, labels=states[0].labels)
    assert spy.call_count == 0
    red_layer, blue_layer = part2.layers
    with pytest.raises(ValueError):
        SplitState(part2, 1, 2, 0, labels=np.where(red_layer, 1, states[0].labels))


# ---------------------------------------------------------------------------
# incremental engine vs fresh recount
# ---------------------------------------------------------------------------


def _support(engine, u):
    """Where count row u can be nonzero: its layers' pairs, position 0 aside."""
    support = engine.base.rows[engine.table.group[u]] > 0
    support[0] = False
    return support


def _check_engine_counts(engine, state, spec):
    """The engine's count rows against a fresh count of `state`.

    A row the engine keeps equals it exactly, position 0 included, which
    no rule judges.  A stale row's kept and fresh counts are both above 2
    on its support (its layers' pairs, position 0 aside) and equal off it.
    Every floor is at most its row's fresh minimum on the support."""
    fresh = _counts(state, spec, naive=False)
    for u, (kept, true) in enumerate(zip(engine.counts, fresh)):
        support = _support(engine, u)
        assert true[support].min() >= engine.floor[u]
        if u not in engine.stale:
            assert np.array_equal(kept, true)
            continue
        assert engine.floor[u] > 2
        assert (kept[support] > 2).all() and (true[support] > 2).all()
        off = ~support
        off[0] = False
        assert np.array_equal(kept[off], true[off])
    return fresh


def _engine_judged(engine):
    """The `_broken` matrix of the engine's kept counts at labeled positions;
    a stale row judges as its fresh count does."""
    return _judged(engine.table, engine.counts, engine.labels)


def test_engine_incremental_matches_fresh(part1):
    # blue layer of the 16-point cube: weights 3 and 4
    state = random_split(part1, 1, 2, 3)
    engine = _ClimbEngine(state, TWO_BLUE)
    moves = [
        (7, blue(1)), (11, blue(0)), (7, blue(0)), (15, blue(1)),
        (13, blue(1)), (15, blue(0)), (11, blue(1)),
    ]
    for e, target in moves:
        code = TWO_BLUE.color_index(target)
        if engine.labels[e] == code:
            continue
        engine.apply(engine.propose(e, code))
        state = engine.to_state(0)
        assert engine.violation_count() == violations(state, TWO_BLUE).count
        assert np.array_equal(_engine_judged(engine), _fresh_judged(state, TWO_BLUE))


def test_engine_moves_in_both_layers_match_fresh(part2):
    # p = 2, q = 2: every move updates a mirrored pair of count vectors
    # in place, so the two entries of an unordered pair must not share memory
    spec = AlgebraSpec(2, 2)
    state = random_split(part2, 2, 2, 13)
    engine = _ClimbEngine(state, spec)
    reds = sorted(part2.R.elements())[:4]
    blues = sorted(part2.B.elements())[:4]
    for e in [reds[0], blues[0], reds[1], blues[1], reds[0], blues[2], reds[3], blues[0]]:
        current = engine.labels[e]
        target = next(c for c in engine.options(e) if c != current)
        engine.apply(engine.propose(e, target))
        state = engine.to_state(0)
        assert engine.violation_count() == violations(state, spec).count
        assert np.array_equal(_engine_judged(engine), _fresh_judged(state, spec))


def test_engine_move_pool_stays_in_blue_layer(part2):
    state = random_split(part2, 1, 2, 7)
    engine = _ClimbEngine(state, TWO_BLUE)
    pool = np.nonzero(engine.move_pool())[0]
    assert pool.size  # violations exist at this seed
    blue_layer = set(part2.B.elements())
    assert set(pool.tolist()) <= blue_layer  # p = 1 pins the red layer


# ---------------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------------


def test_hill_climb_fixed_point():
    state = embedded_split_state()
    final, trace = hill_climb(state, TWO_BLUE, budget=1000, seed=1)
    assert final == state
    assert trace == []


def test_hill_climb_trace_monotone(part2):
    state = random_split(part2, 1, 2, 7)
    final, trace = hill_climb(state, TWO_BLUE, budget=3000, seed=2)
    counts = [c for _, c in trace]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert violations(final, TWO_BLUE).count <= violations(state, TWO_BLUE).count


def test_hill_climb_solves_small_instance(part3):
    state = random_split(part3, 1, 2, 5)
    final, trace = hill_climb(state, TWO_BLUE, budget=200_000, seed=5)
    report = violations_naive(final, TWO_BLUE)
    assert report.solved, f"{report.count} violations left"
    assert verify_group_representation(final.to_coloring(), TWO_BLUE).ok


def test_hill_climb_success_is_rechecked(part2, monkeypatch):
    # the engine's first count is true; after that it claims every split solved
    true_count = _ClimbEngine.violation_count
    calls = []

    def lying_count(engine):
        calls.append(None)
        return true_count(engine) if len(calls) == 1 else 0

    monkeypatch.setattr(_ClimbEngine, "violation_count", lying_count)
    with pytest.raises(RuntimeError, match="diverged"):
        hill_climb(random_split(part2, 1, 2, 7), TWO_BLUE, budget=100, seed=2)


@pytest.mark.parametrize("emptied", [False, True])
def test_hill_climb_start_is_rechecked(part2, monkeypatch, emptied):
    # an engine that calls every split solved, from its first count on; the
    # start is unsolved, or has an empty part the engine does not see
    state = random_split(part2, 1, 2, 7)
    if emptied:
        labels = state.labels.copy()
        labels[labels == 2] = 1
        state = SplitState(part2, 1, 2, 7, labels=labels)
    assert not violations(state, TWO_BLUE).solved
    monkeypatch.setattr(_ClimbEngine, "violation_count", lambda engine: 0)
    with pytest.raises(RuntimeError, match="diverged"):
        hill_climb(state, TWO_BLUE, budget=100, seed=2)


def test_hill_climb_budget_zero_returns_start(part2):
    state = random_split(part2, 1, 2, 7)
    final, trace = hill_climb(state, TWO_BLUE, budget=0, seed=0)
    assert final == state and trace == []


def test_hill_climb_anneal_path(part2):
    state = random_split(part2, 1, 2, 11)
    final, _ = hill_climb(state, TWO_BLUE, budget=2000, seed=3, anneal=True)
    # uphill moves are allowed, so only soundness is guaranteed
    assert violations(final, TWO_BLUE).count == violations_naive(final, TWO_BLUE).count


def test_hill_climb_determinism(part3):
    a, trace_a = hill_climb(random_split(part3, 1, 2, 9), TWO_BLUE, 50_000, 9)
    b, trace_b = hill_climb(random_split(part3, 1, 2, 9), TWO_BLUE, 50_000, 9)
    assert a == b and trace_a == trace_b


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_monte_carlo_trivial_split(part1):
    result = monte_carlo(part1, 1, 1, 10, 123)
    assert result.successes == 10 and result.trials == 10
    assert result.rate == 1.0
    assert result.prediction is None  # no split, no failure probability


def test_monte_carlo_deterministic(part2):
    a = monte_carlo(part2, 1, 2, 25, 77)
    b = monte_carlo(part2, 1, 2, 25, 77)
    assert a.rows == b.rows and a.successes == b.successes
    assert list(iter_trial_csv(a)) == list(iter_trial_csv(b))


def test_monte_carlo_rows_and_csv(part2):
    result = monte_carlo(part2, 1, 2, 5, 3)
    assert result.prediction.n == 2 and result.prediction.k == 2
    lines = list(iter_trial_csv(result))
    assert lines[0] == SEARCH_CSV_HEADER
    assert len(lines) == 6
    for row, line in zip(result.rows, lines[1:]):
        assert line == f"{row.trial},{row.seed},{row.violations},{int(row.solved)}"
        assert row.seed == trial_seed(3, row.trial)


def test_monte_carlo_high_k_succeeds():
    # at k=6 the strict failure bound is 0.063, so random splits work
    part = layer_partition(6)
    result = monte_carlo(part, 1, 2, 3, 2024)
    assert result.successes == 3
    bound = union_bound_failure(2, 6)
    assert bound.certifies_success
    if 1.0 - result.rate > bound.value:
        warnings.warn(
            f"empirical failure rate {1 - result.rate:.3f} above the bound "
            f"{bound.value:.3f}; statistical fluke or a counting bug"
        )


def test_iter_trials_is_the_monte_carlo_loop(part2):
    pairs = list(iter_trials(part2, 1, 2, 6, 3))
    assert tuple(row for row, _ in pairs) == monte_carlo(part2, 1, 2, 6, 3).rows
    for row, state in pairs:
        assert state == random_split(part2, 1, 2, row.seed)


@pytest.mark.parametrize("anneal", [False, True])
def test_iter_trials_repairs_with_a_budget(part2, anneal):
    spec = AlgebraSpec(1, 3)
    for row, state in iter_trials(part2, 1, 3, 3, 5, 400, anneal):
        start = random_split(part2, 1, 3, row.seed)
        final, _trace = hill_climb(start, spec, 400, row.seed, anneal=anneal)
        report = violations(final, spec)
        assert state == final
        assert (row.violations, row.solved) == (report.count, report.solved)


def test_trial_loop_transform_count(part2, part3, monkeypatch):
    """With the layers' transforms held by the partition and the count
    rows packed into one inverse transform, each (1, 2) trial takes 2
    transforms, and so do a lone report and a climb's setup: one forward
    and one inverse, where the direct route takes 3 forward and 6 inverse.
    A whole climb takes its setup's 2 and 2 per recount of its stale rows
    (`_ClimbEngine.refreshes`): its move pools take none.  Building a
    partition takes 3: two forward and one inverse."""
    calls = []

    def counted(vec):
        calls.append(vec.shape)
        return walsh_hadamard(vec)

    monkeypatch.setattr(search, "walsh_hadamard", counted)
    monkeypatch.setattr(cube, "walsh_hadamard", counted)
    # one trial share: trials dealt to worker processes are not counted here
    monkeypatch.setattr(cube, "usable_cpus", lambda: 1)
    trials = 7
    monte_carlo(part2, 1, 2, trials, 3)
    assert len(calls) == 2 * trials
    calls.clear()
    state = random_split(part2, 1, 2, 7)
    violations(state, TWO_BLUE)
    assert len(calls) == 2
    calls.clear()
    _ClimbEngine(state, TWO_BLUE)
    assert len(calls) == 2
    calls.clear()
    assert not violations(state, TWO_BLUE).solved
    calls.clear()
    engines = []

    class Recorded(_ClimbEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(search, "_ClimbEngine", Recorded)
    _final, trace = hill_climb(state, TWO_BLUE, 200, 7)
    assert trace and len(calls) == 2 + 2 * engines[-1].refreshes
    calls.clear()
    ts = trial_seed(3, 0)
    _final, trace = hill_climb(random_split(part3, 1, 2, ts), TWO_BLUE, 2000, ts)
    assert trace[-1][1] == 0 and engines[-1].refreshes
    assert len(calls) == 2 + 2 * engines[-1].refreshes
    calls.clear()
    layer_partition(2)
    assert len(calls) == 3


def test_monte_carlo_rejects_zero_trials(part1):
    with pytest.raises(ValueError):
        monte_carlo(part1, 1, 2, 0, 1)


# ---------------------------------------------------------------------------
# the violation predicate against the independent sumset verifier
# ---------------------------------------------------------------------------


def _sumset_accepts(state, spec):
    try:
        coloring = state.to_coloring()
    except ValueError:  # an empty part realizes no color
        return False
    return verify_group_representation(coloring, spec).ok


def _refined_embedded(p, q, seed):
    # the solved 1024-point split with its reds split p ways and, for q = 3,
    # its second blue part split in two; for (1, 2), one blue element moved
    base = embedded_split_state()  # labels: red 0, blues 1 and 2
    labels = np.where(base.labels > 0, base.labels + p - 1, base.labels)
    for x in np.flatnonzero(base.labels == 0).tolist():
        labels[x] = part_index(seed, x, p)
    if q == 3:
        for x in np.flatnonzero(base.labels == 2).tolist():
            labels[x] = p + 1 + part_index(seed, x, 2)
    if (p, q) == (1, 2):  # move one blue element to the other blue part
        blues = np.flatnonzero(base.labels > 0)
        e = blues[part_index(seed, 0, blues.size)]
        labels[e] = 3 - labels[e]
    return SplitState(base.base, p, q, seed, labels=labels)


def _red_moved_to_blue(base, seed, part):
    # a solved (1, 2) split with one red element recolored blue `part`; the
    # blue layer is then no longer sum-free, so an all-blue sum hits blue
    reds = np.flatnonzero(base.labels == 0)
    x = int(reds[part_index(seed, 0, reds.size)])
    point = CubeSubset.from_elements(base.base.m, [x])
    layers = LayerPartition(base.base.k, base.base.R - point, base.base.B | point)
    labels = base.labels.copy()
    labels[x] = 1 + part
    return SplitState(layers, 1, 2, seed, labels=labels)


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (1, 3)])
def test_violations_agree_with_sumset_verifier(shape, part2, part3):
    p, q = shape
    spec = AlgebraSpec(p, q)
    states = [random_split(part, p, q, seed) for part in (part2, part3) for seed in range(20)]
    states += [_refined_embedded(p, q, seed) for seed in range(20)]
    if shape == (1, 2):
        states.append(embedded_split_state())
        states += [_red_moved_to_blue(embedded_split_state(), seed, 1) for seed in range(20)]
    verdicts = set()
    for state in states:
        solved = violations(state, spec).solved
        assert solved == _sumset_accepts(state, spec), (shape, state.seed)
        verdicts.add(solved)
    # both verdicts are exercised; every (1, 3) state tried here is rejected
    assert verdicts == ({False} if shape == (1, 3) else {True, False})


@pytest.mark.parametrize("shape", [(1, 2), (1, 3)])
def test_violations_agree_with_sumset_verifier_k4(shape, part4):
    # random (1, 3) splits at k = 4 all fail, so a repaired one is added
    spec = AlgebraSpec(*shape)
    states = [random_split(part4, *shape, seed) for seed in range(4)]
    states.append(hill_climb(states[0], spec, 100_000, 0)[0])
    verdicts = set()
    for state in states:
        solved = violations(state, spec).solved
        assert solved == _sumset_accepts(state, spec), (shape, state.seed)
        verdicts.add(solved)
    assert verdicts == {True, False}


def test_sumset_verifier_at_k5(part5):
    # the first solved 65,536-point (1, 2) split, and a copy with one red
    # element moved into b1, which both routes must reject
    solved = next(
        state
        for state in (random_split(part5, 1, 2, seed) for seed in range(32))
        if violations(state, TWO_BLUE).solved
    )
    assert verify_group_representation(solved.to_coloring(), TWO_BLUE).ok
    moved = _red_moved_to_blue(solved, 0, 0)
    assert not violations(moved, TWO_BLUE).solved
    result = verify_group_representation(moved.to_coloring(), TWO_BLUE, collect_all=True)
    assert not result.ok and result.violations


# (input, number of violations, sha256 of their strings joined by newlines),
# recorded from the element-by-element Gray walk that the word gathers
# replaced: the same violations with the same minimum elements
PINNED_VERIFIER_REPORTS = [
    ("k5-moved", 7, "c87fda8b045e131f6a99865bd45c6346d3c5ca212c1fefa7156caf8013205312"),
    ("k4-random", 3, "f1b0ba78a6c953c5f03ec93b15ecdcc353e7b141e84f824cbe94bbbac8ee93a3"),
]


@pytest.mark.parametrize("case, count, digest", PINNED_VERIFIER_REPORTS)
def test_sumset_verifier_reports_pinned(case, count, digest, part4, part5):
    if case == "k5-moved":
        # the first solved (1, 2) split at k = 5 (seed 0), one red element
        # moved into b1, as in test_sumset_verifier_at_k5
        solved = random_split(part5, 1, 2, 0)
        assert violations(solved, TWO_BLUE).solved
        state, spec = _red_moved_to_blue(solved, 0, 0), TWO_BLUE
    else:
        state, spec = random_split(part4, 1, 3, 0), AlgebraSpec(1, 3)
        assert not violations(state, spec).solved
    result = verify_group_representation(state.to_coloring(), spec, collect_all=True)
    text = "\n".join(str(v) for v in result.violations)
    assert not result.ok
    assert (len(result.violations), hashlib.sha256(text.encode()).hexdigest()) == (count, digest)


# ---------------------------------------------------------------------------
# frozen climbs at k = 3 and the incremental tallies
# ---------------------------------------------------------------------------

# (p, q, anneal, trial), accepted moves, last trace entry, sha256 of the
# trace as "move,count;..." text, sha256 of the final int8 labels; budget
# 3,000 at trial_seed(5, trial).  Recorded before the climb engine kept
# per-position tallies, and they pin its trajectories at m = 10.
FROZEN_K3_CLIMBS = [
    ((1, 3, False, 0), 120, (2843, 359),
     "da26ff6e70d3f6d0c0e13bfc5d8ff1573490a3c1def6959cdac9fc6369cf803a",
     "3656a0444f50d4cd0ae431e804b5225854ce150a07b10c4e4c2fb40eeb40687a"),
    ((1, 3, False, 1), 136, (2877, 366),
     "bbeb0fbb14a81e33bd7dcd61fe9fcbbd1be7cee0994931e16d8a3b0cb51f68e7",
     "57f39e11d080af3e06c400a930e10adc1d71c5105e9bc88d7830de4c800cab36"),
    ((2, 2, True, 0), 987, (1813, 0),
     "5b3ebf5b59c35ae715532b1e846ace92295d13feac91f2f5cbd9315aa5a18002",
     "096c33e266d4cc1102247f69e812014d2e3296259dc834e5525d0bf62182bd52"),
    ((2, 2, True, 1), 1314, (2564, 0),
     "e54d98776b21ef1a52965e92ce0e419bad4d7e6fcd519384300c01765de98890",
     "7c8897f7e1fe5cf003e263528292bb1bd07cd6dfde0f92f3a7280ccdcbb43c87"),
    ((3, 2, False, 0), 135, (365, 0),
     "92493bbc062c7c290f506a3a7042e75e495f90cf61b97b1a0acfdcef8d9899c3",
     "5171d80c3dfe57eb2d5fbf9a7ea1eeece578bfd65a3394121ab5666121c995c9"),
    ((3, 2, False, 1), 90, (262, 0),
     "cd5f5268bce148e0aa7f0f87645ea9082fe8b05609a24e43d1cb337f63188acc",
     "c71013755dad1f265998ed2c9f0b7f6d4021a1aef3aeee276c2457ebbda881e1"),
]


def test_hill_climb_frozen_k3(part3):
    for (p, q, anneal, trial), accepted, last, trace_sha, labels_sha in FROZEN_K3_CLIMBS:
        ts = trial_seed(5, trial)
        state = random_split(part3, p, q, ts)
        final, trace = hill_climb(state, AlgebraSpec(p, q), 3000, ts, anneal=anneal)
        text = ";".join(f"{move},{count}" for move, count in trace)
        assert (len(trace), trace[-1]) == (accepted, last), (p, q, trial)
        assert hashlib.sha256(text.encode()).hexdigest() == trace_sha, (p, q, trial)
        assert hashlib.sha256(final.labels.tobytes()).hexdigest() == labels_sha, (p, q, trial)


def _reference_move_pool(state: SplitState, spec: AlgebraSpec) -> np.ndarray:
    """The climb's move pool as it was first written: one pass per
    violating (element, pair) item over the whole cube.  The items are
    the broken rules of a fresh count of `state`, one per unordered pair:
    the pass is symmetric in the pair's two colors."""
    part, p = state.base, spec.p
    n = 1 << part.m
    index = np.arange(n)
    red_layer, blue_layer = (layer.indicator().astype(bool) for layer in (part.R, part.B))
    pool = np.zeros(n, dtype=bool)
    movable = np.zeros(n, dtype=bool)
    if p > 1:
        movable |= red_layer
    if spec.q > 1:
        movable |= blue_layer
    unordered = _rule_table(spec).unordered
    rows, zs = np.nonzero(_fresh_judged(state, spec))
    for u, z in zip(rows.tolist(), zs.tolist()):
        a, b = unordered[u]
        pool[z] = True
        la = red_layer if a < p else blue_layer
        lb = red_layer if b < p else blue_layer
        idx = index ^ z
        pool |= la & lb[idx]
        pool |= lb & la[idx]
    pool &= movable
    pool[0] = False
    return pool


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 3), (2, 2), (3, 2)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_tallies_match_fresh_recount(shape, k, seed):
    p, q = shape
    spec = AlgebraSpec(p, q)
    part = layer_partition(k)
    rng = random.Random(seed)
    # shrink the last blue part to one element, so that moving it empties it
    labels = random_split(part, p, q, seed).labels.copy()
    blues = np.flatnonzero(labels >= p)
    labels[labels == p + q - 1] = p
    lone = int(blues[rng.randrange(blues.size)])
    labels[lone] = p + q - 1
    engine = _ClimbEngine(SplitState(part, p, q, seed, labels=labels), spec)

    def check():
        state = engine.to_state(0)
        assert engine.violation_count() == violations(state, spec).count
        _check_engine_counts(engine, state, spec)
        reference = _reference_move_pool(state, spec)
        assert np.array_equal(engine.move_pool(), reference)

    def move(e, new):
        engine.apply(engine.propose(e, new))
        check()

    check()
    move(lone, p)  # empties the last blue part
    assert spec.color_at(p + q - 1) in violations(engine.to_state(0), spec).empty_parts
    movable = np.flatnonzero(labels >= (0 if p > 1 else p))  # p = 1 pins the red layer
    for _ in range(8):
        e = int(movable[rng.randrange(movable.size)])
        old = int(engine.labels[e])
        options = [c for c in engine.options(e) if c != old]
        move(e, options[rng.randrange(len(options))])
        if rng.random() < 0.5:  # rejected: undo it
            move(e, old)
    # a forced recount leaves nothing stale and every row and floor exact
    tally, total, refreshes = engine.tally.copy(), engine.total, engine.refreshes
    engine._refresh()
    assert engine.refreshes == refreshes + 1 and not engine.stale
    fresh = _check_engine_counts(engine, engine.to_state(0), spec)
    assert engine.floor == [int(row[_support(engine, u)].min()) for u, row in enumerate(fresh)]
    assert np.array_equal(engine.tally, tally) and engine.total == total
    check()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 3), (2, 2), (3, 2)]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_propose_scores_without_writing(shape, k, seed):
    p, q = shape
    spec = AlgebraSpec(p, q)
    part = layer_partition(k)
    rng = random.Random(seed)
    # shrink the last blue part to one element, so that moves empty it and fill it
    labels = random_split(part, p, q, seed).labels.copy()
    blues = np.flatnonzero(labels >= p)
    labels[labels == p + q - 1] = p
    lone = int(blues[rng.randrange(blues.size)])
    labels[lone] = p + q - 1
    engine = _ClimbEngine(SplitState(part, p, q, seed, labels=labels), spec)

    def propose(e, new):
        kept = (engine.labels.copy(), engine.counts.copy(), engine.tally.copy(),
                [xs.copy() for xs in engine.members], engine.total,
                list(engine.floor), set(engine.stale))
        move = engine.propose(e, new)
        assert np.array_equal(engine.labels, kept[0])
        assert np.array_equal(engine.counts, kept[1])
        assert np.array_equal(engine.tally, kept[2])
        assert all(map(np.array_equal, engine.members, kept[3]))
        assert (engine.total, engine.floor, engine.stale) == kept[4:]
        engine.apply(move)
        assert move.count == engine.violation_count() == violations(engine.to_state(0), spec).count

    last = p + q - 1
    propose(lone, p)  # empties the last blue part
    propose(int(blues[rng.randrange(blues.size)]), last)  # fills it again
    movable = np.flatnonzero(labels >= (0 if p > 1 else p))  # p = 1 pins the red layer
    for _ in range(8):
        e = int(movable[rng.randrange(movable.size)])
        old = int(engine.labels[e])
        propose(e, rng.choice([c for c in engine.options(e) if c != old]))
        if rng.random() < 0.5:  # and back
            propose(e, old)


def test_climb_recounts_stale_rows_exactly(part3, monkeypatch):
    # k = 3 (1, 2) climbs, each of which recounts its stale rows once; after
    # every move the kept rows, the stale ones and the tallies hold against
    # a fresh count
    engines, stale = [], []

    class Checked(_ClimbEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

        def apply(self, move):
            super().apply(move)
            state = self.to_state(0)
            _check_engine_counts(self, state, TWO_BLUE)
            assert self.violation_count() == violations(state, TWO_BLUE).count
            stale.append(len(self.stale))

    monkeypatch.setattr(search, "_ClimbEngine", Checked)
    for trial in range(2):
        ts = trial_seed(3, trial)
        hill_climb(random_split(part3, 1, 2, ts), TWO_BLUE, 2000, ts)
    assert [engine.refreshes for engine in engines] == [1, 1]
    assert max(stale) and stale.count(0)  # moves with stale rows and without


@pytest.mark.parametrize("shape, budget", [((1, 3), 10_000), ((2, 2), 3000)])
def test_move_pool_stays_exact_over_a_long_climb(part3, monkeypatch, shape, budget):
    # every 25th pool of an annealed climb, its reaches updated move by
    # move, against the reference and against a fresh engine's pool
    p, q = shape
    spec = AlgebraSpec(p, q)
    kept_pool = _ClimbEngine.move_pool
    pools = []

    def checked_pool(engine):
        pool = kept_pool(engine)
        pools.append(None)
        if len(pools) % 25 == 0:
            state = engine.to_state(0)
            reference = _reference_move_pool(state, spec)
            assert np.array_equal(pool, reference)
            assert np.array_equal(pool, kept_pool(_ClimbEngine(state, spec)))
        return pool

    monkeypatch.setattr(_ClimbEngine, "move_pool", checked_pool)
    ts = trial_seed(5, 0)
    _final, trace = hill_climb(random_split(part3, p, q, ts), spec, budget, ts, anneal=True)
    assert len(trace) >= 300 and len(pools) == len(trace) + 1


@pytest.mark.parametrize("shape", [(1, 2), (2, 2), (1, 3)])
def test_broken_mask_stays_exact_after_every_move(part3, monkeypatch, shape):
    # annealed climbs, whose tallies rise and fall: after every accepted move
    # the kept mask is the tally's any over its rows, and the pool read from
    # it and the reaches is a fresh engine's
    p, q = shape
    spec = AlgebraSpec(p, q)
    broken, totals = [], []

    class Checked(_ClimbEngine):
        def apply(self, move):
            super().apply(move)
            assert np.array_equal(self.broken, self.tally.any(axis=0))
            fresh = _ClimbEngine(self.to_state(0), spec)
            assert np.array_equal(self.move_pool(), fresh.move_pool())
            broken.append(int(self.broken.sum()))
            totals.append(self.total)

    monkeypatch.setattr(search, "_ClimbEngine", Checked)
    ts = trial_seed(5, 1)
    hill_climb(random_split(part3, p, q, ts), spec, 1500, ts, anneal=True)
    for kept in (broken, totals):
        steps = np.diff(kept)
        assert (steps > 0).any() and (steps < 0).any()
