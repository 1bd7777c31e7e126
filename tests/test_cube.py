"""Bitmask subsets, exact pair counting, layer partitions, and verification."""

import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redblue import cube
from redblue.algebra import ALGEBRA_ONE_BLUE, ALGEBRA_TWO_BLUE, blue, red
from redblue.cube import (
    CUBE_DIM_CAP,
    EMBEDDED_B_ELEMENTS,
    CubeSubset,
    GroupColoring,
    LayerPartition,
    ResourceLimitError,
    embedded_split_1024,
    layer_partition,
    load_embedded_b_asset,
    pair_counts,
    pair_counts_naive,
    parse_split,
    singleton,
    sumset,
    support,
    verify_group_representation,
    walsh_hadamard,
    weight,
    witness_minima,
    write_split,
)

subsets = st.integers(min_value=2, max_value=6).flatmap(
    lambda m: st.tuples(
        st.just(m), st.sets(st.integers(min_value=0, max_value=(1 << m) - 1))
    )
)


def brute_sumset(m: int, xs: set, ys: set) -> set:
    return {a ^ b for a in xs for b in ys}


# ---------------------------------------------------------------------------
# subsets as bitmasks
# ---------------------------------------------------------------------------


def test_subset_basics():
    s = CubeSubset.from_elements(3, [1, 5, 7])
    assert list(s.elements()) == [1, 5, 7]
    assert len(s) == 3 and 5 in s and 2 not in s
    assert s.min_element() == 1
    assert list(s.to_array()) == [1, 5, 7]
    assert CubeSubset.from_indicator(3, s.indicator()) == s
    assert not CubeSubset.empty(3)
    assert len(CubeSubset.full(3)) == 8
    assert len(CubeSubset.full(3).without_zero()) == 7


def test_subset_validation():
    with pytest.raises(ValueError):
        CubeSubset.from_elements(2, [4])
    with pytest.raises(ValueError):
        CubeSubset(2, 1 << 4)
    with pytest.raises(ResourceLimitError):
        CubeSubset.empty(CUBE_DIM_CAP + 1)
    with pytest.raises(ValueError):
        CubeSubset.full(2) | CubeSubset.full(3)


@given(subsets, subsets)
def test_set_operations_match_python_sets(a, b):
    m, xs = a
    _, ys = b
    ys = {y % (1 << m) for y in ys}
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    assert set((sa | sb).elements()) == xs | ys
    assert set((sa & sb).elements()) == xs & ys
    assert set((sa - sb).elements()) == xs - ys
    assert set((sa ^ sb).elements()) == xs ^ ys
    assert not sa - (sa | sb)  # sa is a subset of sa | sb
    assert (sa - sb).isdisjoint(sb)
    assert set((CubeSubset.full(m) - sa).elements()) == set(range(1 << m)) - xs


def test_weight_is_popcount():
    assert [weight(x) for x in (0, 1, 3, 7, 1023)] == [0, 1, 2, 3, 10]


# ---------------------------------------------------------------------------
# sumsets and pair counts
# ---------------------------------------------------------------------------


@given(subsets, subsets)
def test_sumset_matches_brute_force(a, b):
    m, xs = a
    _, ys = b
    ys = {y % (1 << m) for y in ys}
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    assert set(sumset(sa, sb).elements()) == brute_sumset(m, xs, ys)
    assert sumset(sa, sb) == sumset(sb, sa)  # xor is commutative


@given(subsets, subsets)
def test_sumset_monotone(a, b):
    m, xs = a
    _, ys = b
    ys = {y % (1 << m) for y in ys}
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    grown = sumset(sa | sb, sb)
    assert not sumset(sa, sb) - grown


WIDE_SHAPES = ("one-low", "one-word", "spread")


def _wide_operand(draw, m: int, shape: str) -> set:
    # a nonempty subset of a cube of several 64-bit words: every element
    # with one low part (bit position in a word), all inside one word, or
    # anywhere
    words = (1 << m) >> 6
    if shape == "one-low":
        lo = draw(st.integers(min_value=0, max_value=63))
        his = draw(st.sets(st.integers(min_value=0, max_value=words - 1), min_size=1))
        return {h << 6 | lo for h in his}
    if shape == "one-word":
        w = draw(st.integers(min_value=0, max_value=words - 1))
        return {w << 6 | lo for lo in draw(st.sets(st.integers(0, 63), min_size=1))}
    return draw(st.sets(st.integers(0, (1 << m) - 1), min_size=1, max_size=200))


@pytest.mark.parametrize("shape", WIDE_SHAPES)
@given(data=st.data())
def test_sumset_past_one_word(shape, data):
    # m = 7..10 holds 2..16 words, so every word index translate is exercised
    m = data.draw(st.integers(min_value=7, max_value=10))
    xs = _wide_operand(data.draw, m, shape)
    ys = _wide_operand(data.draw, m, data.draw(st.sampled_from(WIDE_SHAPES)))
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    got = sumset(sa, sb)
    assert set(got.elements()) == brute_sumset(m, xs, ys)
    assert got == support(pair_counts_naive(sa, sb), m)
    assert sumset(sb, sa) == got


@st.composite
def dense_operands(draw, kind):
    m = draw(st.integers(min_value=2, max_value=9))
    n = 1 << m
    group = set(range(n))
    holes = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 4)
    if kind == "intersect":
        # each misses at most a quarter of G, so any |holes| + 1 elements of
        # the smaller operand already give G: the sum stops early
        return m, group - draw(holes), group - draw(holes)
    if kind == "disjoint":
        # a set A of odd size has no nonzero period, so (G - A) + A = G - {0}
        a = draw(holes.filter(lambda s: len(s) % 2))
        return m, group - a, a
    # both inside the subgroup of elements below 2^(m-1): never saturates
    half = st.sets(st.integers(min_value=0, max_value=n // 2 - 1), min_size=1)
    return m, set(range(n // 2)) - draw(holes), draw(half)


def _blocks_taken(small: set, large: set, bound: set, first: int, rows: int) -> int:
    # the gather blocks of a one-share `sumset`: the smaller operand's
    # elements in lo-major order (bit position in a word, then word index),
    # `first` in the first block and `rows` in each later one, until the
    # union of their translates of `large` is `bound`
    order = sorted(small, key=lambda e: (e & 63, e >> 6))
    union: set = set()
    for i, e in enumerate(order, 1):
        union |= {e ^ b for b in large}
        if union == bound:
            break
    return 1 + max(0, -(-(i - first) // rows))


@pytest.mark.parametrize("kind", ["intersect", "disjoint", "subgroup"])
@given(data=st.data())
@settings(deadline=None)
def test_sumset_saturation_stop(kind, data):
    # one share gathers every block: the first holds `first` elements of
    # the smaller operand, lo-major, and each later one `rows`, stopping
    # after the first block whose union is the largest possible sumset (G,
    # or G minus 0 for disjoint operands); a budget of one word makes every
    # block a single translate
    m, xs, ys = data.draw(dense_operands(kind))
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    small, large = (xs, ys) if len(xs) <= len(ys) else (ys, xs)
    group = set(range(1 << m))
    bound = group - {0} if xs.isdisjoint(ys) else group
    nwords = max(1, (1 << m) >> 6)
    for budget in (cube.GATHER_BLOCK_WORDS, 1):
        rows = max(1, budget // nwords)
        first = min(rows, cube.FIRST_BLOCK_TRANSLATES)
        with mock.patch.object(cube, "GATHER_BLOCK_WORDS", budget), \
                mock.patch.object(cube, "SHARE_CAP", 1), \
                mock.patch.object(cube, "_or_of_translates", wraps=cube._or_of_translates) as spy:
            got = sumset(sa, sb)
        assert set(got.elements()) == brute_sumset(m, xs, ys)
        assert got == support(pair_counts_naive(sa, sb), m)
        assert spy.call_count == _blocks_taken(small, large, bound, first, rows)
        if budget == 1:
            everything = CubeSubset.full(m)
            if kind == "intersect":
                assert got == everything and spy.call_count < len(small)
            elif kind == "disjoint":
                assert got == everything.without_zero() and spy.call_count <= len(small)
            else:
                assert got & CubeSubset.from_elements(m, range(1 << (m - 1))) == got
                assert spy.call_count == len(small)


@st.composite
def sparse_operands(draw):
    # a few elements each, which may or may not meet
    m = draw(st.integers(min_value=2, max_value=9))
    few = st.sets(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=24)
    return m, draw(few), draw(few)


@pytest.mark.parametrize("kind", ["intersect", "disjoint", "subgroup", "sparse"])
@given(data=st.data())
@settings(deadline=None)
def test_sumset_shares(kind, data):
    # with a budget of one word every share takes many one-translate
    # blocks; the union under the lock must lose no block, in any schedule,
    # with more shares than cores and a short switch interval.  The caps
    # run from the largest, so that a pool this test starts has a thread
    # for every helper share
    m, xs, ys = data.draw(sparse_operands() if kind == "sparse" else dense_operands(kind))
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    expected = brute_sumset(m, xs, ys)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cap in range(cube.SHARE_CAP, 0, -1):
            with mock.patch.object(cube, "GATHER_BLOCK_WORDS", 1), \
                    mock.patch.object(cube, "SHARE_CAP", cap), \
                    mock.patch.object(cube, "usable_cpus", return_value=cube.SHARE_CAP):
                got = sumset(sa, sb)
            assert set(got.elements()) == expected, cap
            assert got == support(pair_counts_naive(sa, sb), m)
    finally:
        sys.setswitchinterval(interval)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_sumset_share_failure_reaches_the_caller(where):
    # a share that raises stops the others, and the sum raises only once
    # every share has ended
    m = 9
    small = range(0, 1 << (m - 1), 3)  # one block per element
    # both in a subgroup: the sum never saturates
    sa, sb = CubeSubset.from_elements(m, range(1 << (m - 1))), CubeSubset.from_elements(m, small)
    lock = threading.Lock()
    running, entered, blocks, failed_at = [0], [0], [], []
    share = cube._gather_share
    gather = cube._or_of_translates

    def counted_share(*args):
        with lock:
            running[0] += 1
            entered[0] += 1
        try:
            share(*args)
        finally:
            with lock:
                running[0] -= 1

    def failing_gather(*args):
        blocks.append(threading.current_thread() is threading.main_thread())
        if blocks[-1] == (where == "caller") and len(blocks) > 4:
            failed_at.append(len(blocks))
            raise _Boom
        return gather(*args)

    with mock.patch.object(cube, "GATHER_BLOCK_WORDS", 1), \
            mock.patch.object(cube, "usable_cpus", return_value=cube.SHARE_CAP), \
            mock.patch.object(cube, "_gather_share", counted_share), \
            mock.patch.object(cube, "_or_of_translates", failing_gather):
        with pytest.raises(_Boom):
            sumset(sa, sb)
    assert running[0] == 0
    assert entered[0] == cube.SHARE_CAP
    # the failure stopped the sum: every other share gathered at most the
    # block it had begun, and the failing share's blocks left were never
    # gathered.  How many blocks ran before the failure is up to the
    # scheduler: with one-word blocks nothing releases the interpreter
    # lock, and a helper may run its whole share before the caller resumes
    assert failed_at and len(blocks) - failed_at[0] <= cube.SHARE_CAP - 1
    assert len(blocks) < len(small)


def test_cube_import_starts_no_thread():
    # the share pool and concurrent.futures wait for the first sum that
    # deals blocks to more than one share, and the trial workers, with
    # subprocess, for the first run dealt to more than one share
    src = Path(cube.__file__).resolve().parent.parent
    probe = (
        "import os, sys, threading, redblue.cube, redblue.search\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "    sys.exit('a child process')\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "sys.exit(any(m in sys.modules for m in ('concurrent.futures', 'subprocess'))\n"
        "         or threading.active_count() != 1)"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_sumset_threads_only_with_cpus_to_share(cpus):
    # 1,366 translates: the first block of 64, then two of 1,024 words
    m = 12
    sa = CubeSubset.from_elements(m, range(0, 1 << m, 3))
    with mock.patch.object(cube, "usable_cpus", return_value=cpus), \
            mock.patch.object(cube, "_share_pool", wraps=cube._share_pool) as pool:
        got = sumset(sa, sa)
    assert pool.call_count == cpus - 1
    assert got == support(pair_counts(sa, sa), m)


@pytest.mark.parametrize("m", range(1, 11))
def test_translate_table_rows(m):
    # row lo of the table holds {p XOR lo : p in mask}, one row per in-word
    # bit position below min(64, 2^m)
    rng = np.random.default_rng(m)
    xs = set(rng.integers(0, 1 << m, size=rng.integers(1, 1 << m, endpoint=True)).tolist())
    mask = CubeSubset.from_elements(m, xs).mask
    table = cube._translate_table(cube._words(mask, m), m)
    assert table.shape == (min(64, 1 << m), max(1, (1 << m) >> 6))
    for lo, row in enumerate(table):
        moved = CubeSubset.from_elements(m, {p ^ lo for p in xs}).mask
        assert int.from_bytes(row.tobytes(), "little") == moved, lo


@pytest.mark.parametrize("m", range(1, 8))
def test_sumset_across_one_word(m):
    # m < 6 keeps the cube in one partly used word, m = 6 fills it, m = 7
    # takes two
    rng = np.random.default_rng(100 + m)
    for _ in range(40):
        xs, ys = (set(rng.integers(0, 1 << m, size=rng.integers(1, 1 << m, endpoint=True)).tolist())
                  for _ in range(2))
        sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
        assert set(sumset(sa, sb).elements()) == brute_sumset(m, xs, ys)


@given(subsets, subsets)
def test_pair_counts_naive_matches_transform(a, b):
    m, xs = a
    _, ys = b
    ys = {y % (1 << m) for y in ys}
    sa, sb = CubeSubset.from_elements(m, xs), CubeSubset.from_elements(m, ys)
    naive = pair_counts_naive(sa, sb)
    fast = pair_counts(sa, sb)
    assert naive.dtype == fast.dtype == np.int64
    assert np.array_equal(naive, fast)
    assert int(fast.sum()) == len(sa) * len(sb)
    assert support(fast, m) == sumset(sa, sb)


def test_pair_counts_random_pairs_m10():
    rng = np.random.default_rng(8257)
    m = 10
    for _ in range(25):
        xs = CubeSubset.from_indicator(m, rng.integers(0, 2, size=1 << m))
        ys = CubeSubset.from_indicator(m, rng.integers(0, 2, size=1 << m))
        assert np.array_equal(pair_counts_naive(xs, ys), pair_counts(xs, ys))


@pytest.mark.parametrize("block", [1, 7, 100, 1 << 20])
def test_pair_counts_naive_blocks(monkeypatch, block):
    # rows of the XOR table are enumerated in blocks; any block size,
    # down to less than one row, must give the same counts
    monkeypatch.setattr(cube, "NAIVE_BLOCK_PAIRS", block)
    rng = np.random.default_rng(block)
    m = 9
    xs = CubeSubset.from_indicator(m, rng.integers(0, 2, size=1 << m))
    ys = CubeSubset.from_indicator(m, rng.integers(0, 3, size=1 << m) == 0)
    assert np.array_equal(pair_counts_naive(xs, ys), pair_counts(xs, ys))
    assert np.array_equal(pair_counts_naive(ys, xs), pair_counts(xs, ys))


def test_walsh_hadamard_involution():
    rng = np.random.default_rng(3)
    vec = rng.integers(-50, 50, size=64).astype(np.int64)
    twice = walsh_hadamard(walsh_hadamard(vec))
    assert np.array_equal(twice, vec * 64)


def test_exactness_at_transform_cap():
    # the transform must stay integral where the naive path is infeasible
    m = 14
    rng = np.random.default_rng(11)
    xs = CubeSubset.from_indicator(m, rng.integers(0, 2, size=1 << m))
    counts = pair_counts(xs, xs)
    assert counts.dtype == np.int64
    assert int(counts.sum()) == len(xs) ** 2


@pytest.mark.parametrize("m", range(1, 17))
def test_pair_count_rows_at_the_field_maximum(m, monkeypatch):
    # every count 2^m fills its m + 1 bit field; at m = 4 and m = 12 the top
    # field of a whole pack then reaches bit 63
    n = 1 << m
    full = CubeSubset.full(m)
    nonzero = full.without_zero()
    assert np.array_equal(pair_counts(full, full), np.full(n, n))
    expected = np.full(n, n - 2)
    expected[0] = n - 1
    assert np.array_equal(pair_counts(nonzero, nonzero), expected)
    calls = []

    def counted(vec):
        calls.append(vec.dtype)
        return walsh_hadamard(vec)

    monkeypatch.setattr(cube, "walsh_hadamard", counted)
    f, g = walsh_hadamard(full.indicator()), walsh_hadamard(nonzero.indicator())
    per = (64 - m) // (m + 1)  # at least 2 for m <= 16
    pairs = [(f, f)] * per + [(g, g), (f, g)]  # a pack of full fields, then a second pack
    rows = np.empty((len(pairs), n), dtype=np.int64)
    cube.pair_count_rows((a * b for a, b in pairs), rows, m)
    assert calls == [np.uint64, np.uint64]
    assert rows.tolist() == [[n] * n] * per + [expected.tolist(), [n - 1] * n]


def test_pair_count_rows_raise_on_inexact_transform(monkeypatch):
    # mirrors test_layer_partition_raises_on_failed_identity, one level down
    monkeypatch.setattr(cube, "walsh_hadamard", lambda vec: walsh_hadamard(vec) + 1)
    xs = CubeSubset.from_elements(5, [1, 2, 7])
    with pytest.raises(RuntimeError, match="not divisible"):
        pair_counts(xs, xs)


# ---------------------------------------------------------------------------
# layer partitions
# ---------------------------------------------------------------------------


def test_layer_sizes():
    for k, r_size, b_size in ((1, 10, 5), (2, 98, 29), (3, 847, 176)):
        part = layer_partition(k)
        assert part.m == 3 * k + 1
        assert (len(part.R), len(part.B)) == (r_size, b_size)
        union = part.R | part.B | singleton(part.m, 0)
        assert union == CubeSubset.full(part.m)
        assert part.R.isdisjoint(part.B)
        assert all(1 <= weight(x) <= 2 * k for x in part.R.elements())
        assert all(2 * k + 1 <= weight(x) <= 3 * k + 1 for x in part.B.elements())


def test_layer_partition_rejects_big_k():
    with pytest.raises(ResourceLimitError):
        layer_partition((CUBE_DIM_CAP + 2) // 3)


def test_partition_holds_layer_transforms(part2):
    # the weight-layer split and a hand-built one, one red element moved to B
    point = singleton(part2.m, min(part2.R.elements()))
    moved = LayerPartition(2, part2.R - point, part2.B | point)
    for part in (part2, moved):
        layers = (part.R, part.B)
        for held, layer in zip(part.layers, layers):
            assert held.dtype == bool and np.array_equal(held, layer.indicator())
        for held, layer in zip(part.fwd, layers):
            assert np.array_equal(held, walsh_hadamard(layer.indicator()))
        for held, (i, j) in zip(part.rows, ((0, 0), (0, 1), (1, 1))):
            assert np.array_equal(held, pair_counts_naive(layers[i], layers[j]))
        for vec in (*part.layers, *part.fwd, *part.rows):
            assert not vec.flags.writeable
    assert moved != part2


def test_layer_partition_raises_on_failed_identity(monkeypatch):
    weights = cube._weights_vector

    def top_element_red(m):
        w = weights(m)
        w[-1] = 1  # the all-ones element, which B+B cannot reach
        return w

    monkeypatch.setattr(cube, "_weights_vector", top_element_red)
    with pytest.raises(RuntimeError, match="B\\+B"):
        layer_partition(2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_witness_minima_match_pair_counts(k):
    part = layer_partition(k)
    layers = {"R": part.R, "B": part.B}
    expected = {}
    for label, target, left, right in cube.WITNESS_CASES:
        counts = pair_counts(layers[left], layers[right])
        targets = layers[target].to_array()
        pos = int(np.argmin(counts[targets]))
        expected[label] = (int(counts[targets][pos]), int(targets[pos]))
    assert {label: tuple(s) for label, s in witness_minima(part).items()} == expected


def test_witness_minima_frozen_values(part1, part2, part3):
    expected = {
        1: {"R<=B+B": (2, 1), "B<=B+R": (4, 7), "B<=R+R": (6, 7),
            "R<=B+R": (3, 1), "R<=R+R": (6, 1)},
        2: {"R<=B+B": (6, 7), "B<=B+R": (28, 31), "B<=R+R": (70, 31),
            "R<=B+R": (15, 1), "R<=R+R": (74, 7)},
        3: {"R<=B+B": (20, 31), "B<=B+R": (175, 127), "B<=R+R": (672, 127),
            "R<=B+R": (84, 1), "R<=R+R": (690, 31)},
    }
    for k, part in ((1, part1), (2, part2), (3, part3)):
        stats = witness_minima(part)
        assert {label: tuple(s) for label, s in stats.items()} == expected[k]
        assert all(s.min_count >= 1 << k for s in stats.values())


# ---------------------------------------------------------------------------
# the embedded 1024-point coloring
# ---------------------------------------------------------------------------


def test_embedded_elements_well_formed():
    elems = EMBEDDED_B_ELEMENTS
    assert len(elems) == 88 and len(set(elems)) == 88
    assert all(weight(x) in (7, 8, 9) for x in elems)
    assert load_embedded_b_asset() == elems


def test_embedded_split_partition_sizes():
    coloring = embedded_split_1024()
    assert coloring.m == 10
    sizes = {c: len(part) for c, part in coloring.parts.items()}
    assert sizes == {red(0): 847, blue(0): 88, blue(1): 88}


def test_embedded_split_sumset_identities():
    coloring = embedded_split_1024()
    a, b, c = (coloring.part(col) for col in (red(0), blue(0), blue(1)))
    everything = CubeSubset.full(10)
    diversity = everything.without_zero()
    a0 = a | singleton(10, 0)
    assert sumset(a, a) == everything
    assert sumset(a, b) == diversity and sumset(a, c) == diversity
    assert sumset(b, b) == a0 and sumset(c, c) == a0
    assert sumset(b, c) == a and sumset(c, b) == a


def test_embedded_split_verifies():
    result = verify_group_representation(embedded_split_1024(), ALGEBRA_TWO_BLUE)
    assert result.ok and not result.violations


def test_single_element_mutation_detected():
    coloring = embedded_split_1024()
    point = singleton(10, 127)
    parts = dict(coloring.parts)
    assert 127 in parts[blue(0)]
    parts[blue(0)] = parts[blue(0)] - point
    parts[blue(1)] = parts[blue(1)] | point
    mutated = GroupColoring(10, parts)
    result = verify_group_representation(mutated, ALGEBRA_TWO_BLUE, collect_all=True)
    assert not result.ok
    assert len(result.violations) == 1
    v = result.violations[0]
    assert (v.kind, v.c1, v.c2, v.z) == ("missing-need", blue(0), blue(0), 992)
    # the merged two-blue coloring is untouched by a blue-to-blue move
    merged = mutated.merged({red(0): (red(0),), blue(0): (blue(0), blue(1))})
    assert verify_group_representation(merged, ALGEBRA_ONE_BLUE).ok


def test_unsplit_layers_represent_one_blue(part3):
    coloring = GroupColoring(part3.m, {red(0): part3.R, blue(0): part3.B})
    assert verify_group_representation(coloring, ALGEBRA_ONE_BLUE).ok


# ---------------------------------------------------------------------------
# coloring verification details
# ---------------------------------------------------------------------------


def test_verify_detects_wrong_identity_coverage():
    # m=2: red={3}, blue={1,2}: red+red misses red itself, red+blue misses 2
    coloring = GroupColoring(
        2,
        {
            red(0): CubeSubset.from_elements(2, [3]),
            blue(0): CubeSubset.from_elements(2, [1, 2]),
        },
    )
    result = verify_group_representation(coloring, ALGEBRA_ONE_BLUE, collect_all=True)
    assert not result.ok
    kinds = {v.kind for v in result.violations}
    assert "missing-need" in kinds


def test_verify_detects_forbidden_coverage():
    # m=3: blue={1,2,3} has 1^2=3 inside itself, an all-blue coverage
    coloring = GroupColoring(
        3,
        {
            red(0): CubeSubset.from_elements(3, [4, 5, 6, 7]),
            blue(0): CubeSubset.from_elements(3, [1, 2, 3]),
        },
    )
    result = verify_group_representation(coloring, ALGEBRA_ONE_BLUE, collect_all=True)
    assert not result.ok
    assert any(v.kind == "forbidden-hit" for v in result.violations)


def test_group_coloring_validation():
    full = CubeSubset.full(2).without_zero()
    with pytest.raises(ValueError):  # overlap
        GroupColoring(2, {red(0): full, blue(0): singleton(2, 1)})
    with pytest.raises(ValueError):  # missing coverage
        GroupColoring(2, {red(0): singleton(2, 1), blue(0): singleton(2, 2)})
    with pytest.raises(ValueError):  # zero inside a part
        GroupColoring(
            2,
            {
                red(0): CubeSubset.from_elements(2, [0, 1]),
                blue(0): CubeSubset.from_elements(2, [2, 3]),
            },
        )


def test_verify_first_violation_is_deterministic():
    coloring = embedded_split_1024()
    point = singleton(10, 127)
    parts = dict(coloring.parts)
    parts[blue(0)] = parts[blue(0)] - point
    parts[blue(1)] = parts[blue(1)] | point
    mutated = GroupColoring(10, parts)
    first = verify_group_representation(mutated, ALGEBRA_TWO_BLUE)
    collected = verify_group_representation(mutated, ALGEBRA_TWO_BLUE, collect_all=True)
    assert first.violations[0] == collected.violations[0]


# ---------------------------------------------------------------------------
# split file format
# ---------------------------------------------------------------------------


def test_split_round_trip():
    coloring = embedded_split_1024()
    text = write_split(coloring)
    lines = text.splitlines()
    assert lines[0] == "cube m=10 colors=3"
    parsed = parse_split(text)
    assert parsed.m == coloring.m
    assert parsed.parts == coloring.parts
    assert write_split(parsed) == text


def test_split_round_trip_one_blue(part2):
    coloring = GroupColoring(part2.m, {red(0): part2.R, blue(0): part2.B})
    assert parse_split(write_split(coloring)).parts == coloring.parts


@pytest.mark.parametrize("elements", [
    "1 2 4",  # plain: parsed as one int64 array
    "\t001  2\t\t4 ",  # blanks and leading zeros
    "+1 2 4",  # a sign, 19 digits or a non-ASCII digit: token by token through int()
    "0000000000000000001 2 4",
    "\u0661 2 4",
])
def test_parse_split_elements_either_route(elements):
    parsed = parse_split(f"cube m=3 colors=2\nr: {elements}\nb1: 3 5 6 7\n")
    assert parsed.parts[red(0)] == CubeSubset.from_elements(3, [1, 2, 4])


def test_parse_split_rejects_garbage():
    with pytest.raises(ValueError):
        parse_split("")
    with pytest.raises(ValueError):
        parse_split("kn V=3 colors=2\n0 1 r\n")
    with pytest.raises(ValueError):
        parse_split("cube m=2 colors=2\nr: 1 2 3\n")  # missing color line


# ---------------------------------------------------------------------------
# the Walsh-Hadamard butterfly
# ---------------------------------------------------------------------------


def test_walsh_hadamard_matches_sylvester_matrix():
    rng = np.random.default_rng(5)
    sylvester = np.ones((1, 1), dtype=np.int64)
    for m in range(9):
        vec = rng.integers(-1000, 1000, size=1 << m).astype(np.int64)
        before = vec.copy()
        assert np.array_equal(walsh_hadamard(vec), sylvester @ vec), m
        assert np.array_equal(vec, before), m  # the input is left untouched
        sylvester = np.block([[sylvester, sylvester], [sylvester, -sylvester]])


@pytest.mark.parametrize("length", [3, 6, 12, 1000])
def test_walsh_hadamard_rejects_other_lengths(length):
    with pytest.raises(ValueError):
        walsh_hadamard(np.zeros(length, dtype=np.int64))


def test_walsh_hadamard_twice_scales_at_m16():
    m = 16
    vec = np.random.default_rng(8).integers(0, 1 << 20, size=1 << m, endpoint=True)
    assert np.array_equal(walsh_hadamard(walsh_hadamard(vec)), vec << m)
