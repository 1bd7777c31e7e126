"""Randomized splitting of cube layers and local-search repair.

A split refines a layer partition: the red layer into p parts and the blue
layer into q parts, giving a candidate coloring for the algebra with p reds
and q blues, stored as one read-only int8 label per cube element
(`SplitState`).  Random splits are drawn with a counter-based SplitMix64
hash, one uint64 numpy pass over all 2^m elements, so results are
bit-identical across platforms (see `random_split`).  The violation counter
uses the transform route from the cube module; the naive route is the test
oracle, and any split the hill climber claims to have solved is re-checked
by the cube module's sumset verifier before being reported.  The two routes
differ only in how they count (`_counts`); both, and the climber, judge the
counts by one cached table per spec (`_rule_table`) and one comparison with
it (`_broken`).  A report counts the rules a split breaks and names no
element: per-element diagnostics come from the sumset verifier.
`iter_trials` is the one trial loop, with or without repair;
`monte_carlo` tallies it.  It deals the trials to one share per usable
CPU, up to `TRIAL_SHARE_CAP`: the caller runs one, worker processes the
others (`redblue.workers`), each holding a partition and a trial of its
own, and the rows and splits come back in trial order, the same bytes
as from one share.  The transform route derives the last part of each
layer, and the count rows of two last parts, by subtraction from the
layers' transforms, which the split's base computed once when it
was built (`cube.LayerPartition`).  The climber works on color codes; it
scores each proposed move by one scan of its kept counts, makes an
accepted move by writing what that scan found, and adds each tally
entry it writes to the reaches the pool of elements to move is read
from.  A count row whose kept lower bound shows it cannot cross zero is
neither scanned nor written; the climb takes transforms beyond its
set-up's counts only to recount the rows when such a bound falls to 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .algebra import (
    AlgebraSpec,
    ColorId,
    UnionBoundFailure,
    is_mandatory,
    union_bound_at,
)
from . import cube
from .cube import (
    CubeSubset,
    GroupColoring,
    LayerPartition,
    embedded_split_1024,
    layer_partition,
    pair_count_rows,
    pair_counts_naive,
    walsh_hadamard,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 stream increment


def _mix64(x: int | np.ndarray) -> int | np.ndarray:
    """The SplitMix64 output permutation (Steele-Lea-Flood finalizer).

    Works on a Python int and, elementwise, on a uint64 array, where the
    products wrap mod 2^64 just as the masks make them do for an int.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def part_index(seed: int, element: int, parts: int) -> int:
    """Deterministic part draw for one element.

    Two rounds of the SplitMix64 finalizer on (seed, element), reduced mod
    `parts`.  The hash is uniform on 64 bits, so the modulo bias is below
    parts/2^64; every platform and Python version produces the same value.
    """
    return _mix64(_mix64(seed) ^ element) % parts


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial seed: one SplitMix64 step along the stream from `seed`."""
    return _mix64((seed + trial * _GAMMA) & _MASK64)


@dataclass(frozen=True, init=False, eq=False)
class SplitState:
    """A layer partition refined into p red and q blue parts.

    `labels` is a read-only int8 vector over the 2^m cube elements: each
    layer element's color rank (`AlgebraSpec.color_index`), -1 elsewhere.
    `seed` records how the state was drawn (0 for states built by hand)."""

    base: LayerPartition
    p: int
    q: int
    seed: int
    labels: np.ndarray

    def __init__(
        self,
        base: LayerPartition,
        p: int,
        q: int,
        seed: int,
        *,
        labels: np.ndarray,
    ) -> None:
        if p < 1 or q < 1:
            raise ValueError("p, q >= 1 required")
        if p + q > np.iinfo(np.int8).max:
            raise ValueError("p + q must fit the int8 labels")
        labels = np.asarray(labels)
        if labels.shape != (1 << base.m,) or labels.dtype.kind != "i":
            raise ValueError("labels must be a signed integer vector of length 2^m")
        red_layer, blue_layer = base.layers
        is_red, is_blue = (labels >= 0) & (labels < p), (labels >= p) & (labels < p + q)
        if not (np.array_equal(is_red, red_layer) and np.array_equal(is_blue, blue_layer)
                and (labels[~(is_red | is_blue)] == -1).all()):
            raise ValueError("labels must give the red layer red parts, "
                             "the blue layer blue parts and the rest -1")
        labels = labels.astype(np.int8)  # a private copy, frozen below
        labels.flags.writeable = False
        self._fill(base, p, q, seed, labels)

    def _fill(self, *values: object) -> None:
        for name, value in zip(("base", "p", "q", "seed", "labels"), values):
            object.__setattr__(self, name, value)

    @classmethod
    def _of_checked(
        cls, base: LayerPartition, p: int, q: int, seed: int, labels: np.ndarray
    ) -> "SplitState":
        """A split with read-only int8 `labels` that a split of the same
        base, p and q held, so they are not checked again."""
        state = object.__new__(cls)
        state._fill(base, p, q, seed, labels)
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitState):
            return NotImplemented
        return (self.base, self.p, self.q, self.seed) == (
            other.base, other.p, other.q, other.seed
        ) and np.array_equal(self.labels, other.labels)

    @property
    def spec(self) -> AlgebraSpec:
        return AlgebraSpec(self.p, self.q)

    def _assign(self, offset: int, bound: int) -> dict[int, int]:
        xs = np.flatnonzero((self.labels >= offset) & (self.labels < offset + bound))
        return dict(zip(xs.tolist(), (self.labels[xs] - offset).tolist()))

    @property
    def red_assign(self) -> dict[int, int]:
        """Red-layer element -> red part index (a fresh dict)."""
        return self._assign(0, self.p)

    @property
    def blue_assign(self) -> dict[int, int]:
        """Blue-layer element -> blue part index (a fresh dict)."""
        return self._assign(self.p, self.q)

    def parts(self) -> dict[ColorId, CubeSubset]:
        """Parts as cube subsets (possibly empty ones included)."""
        return {
            c: CubeSubset.from_indicator(self.base.m, self.labels == code)
            for code, c in enumerate(self.spec.diversity_colors())
        }

    def to_coloring(self) -> GroupColoring:
        """As a GroupColoring; fails if any part is empty."""
        return GroupColoring(self.base.m, self.parts())


def random_split(part: LayerPartition, p: int, q: int, seed: int) -> SplitState:
    """Independently uniform part assignment for every layer element.

    Element x gets `part_index(seed, x, parts)`, computed for a layer's
    elements at once: `_mix64` is plain integer arithmetic, so on a uint64
    vector it wraps mod 2^64 exactly as the masked scalar code does.  A
    layer of one part takes no hash, since every draw mod 1 is 0.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q >= 1 required")
    key = np.uint64(_mix64(seed))
    labels = np.full(1 << part.m, -1, dtype=np.int8)
    for layer, parts, offset in zip(part.layers, (p, q), (0, p)):
        if parts == 1:
            labels[layer] = offset
        else:
            xs = np.flatnonzero(layer)
            labels[xs] = _mix64(xs.astype(np.uint64) ^ key) % parts + offset
    return SplitState(part, p, q, seed, labels=labels)


def split_from_coloring(
    base: LayerPartition, coloring: GroupColoring, p: int, q: int
) -> SplitState:
    """View an existing coloring as a split of `base` (parts must refine it)."""
    labels = np.full(1 << base.m, -1, dtype=np.int8)
    for code, c in enumerate(AlgebraSpec(p, q).diversity_colors()):
        labels[coloring.parts[c].to_array()] = code
    return SplitState(base, p, q, 0, labels=labels)


def embedded_split_state() -> SplitState:
    """The shipped 1024-point coloring viewed as a (p=1, q=2) split at k=3."""
    return split_from_coloring(layer_partition(3), embedded_split_1024(), 1, 2)


# ---------------------------------------------------------------------------
# violation counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolationReport:
    """How far a split is from being a representation.

    `broken` counts the (labeled element, ordered color pair) entries that
    break a rule: a needed pair with no witness, or a banned pair that is
    realized.  `empty_parts` lists colors realized by no element, in rank
    order.  Which elements break which rules is not kept; the sumset
    verifier (`cube.verify_group_representation`) names them.
    """

    broken: int
    empty_parts: tuple[ColorId, ...]

    @property
    def count(self) -> int:
        return self.broken + len(self.empty_parts)

    @property
    def solved(self) -> bool:
        return self.count == 0


class _RuleTable(NamedTuple):
    """The rules of a spec over color codes (`AlgebraSpec.color_index`).

    Counts are kept per unordered pair of codes, one row each: XOR
    convolution commutes, so a pair and its mirror share a row, and a
    rule on the row stands for both ordered pairs of its colors.
    """

    unordered: tuple[tuple[int, int], ...]  # (a, b) with a <= b, by row
    row: np.ndarray  # [a, b] -> the row of {a, b}
    need: np.ndarray  # [target, row]: True needs a witness, False bans one
    group: np.ndarray  # blue codes in each row's pair: 0 RR, 1 RB, 2 BB
    weights: np.ndarray  # [group, row]: ordered pairs per row, in its group
    leave_zero: np.ndarray  # [row, label]: tally change when a count leaves 0
    # per group RR, RB, BB: the row of the two layers' last parts, and each
    # other row of the group with the times its pairs enter the layer row
    derive: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


@lru_cache(maxsize=None)
def _rule_table(spec: AlgebraSpec) -> _RuleTable:
    colors = spec.diversity_colors()
    size = len(colors)
    unordered = tuple((a, b) for a in range(size) for b in range(a, size))
    row = np.zeros((size, size), dtype=np.intp)
    for u, (a, b) in enumerate(unordered):
        row[a, b] = row[b, a] = u
    need = np.array([[is_mandatory(spec, colors[a], colors[b], c) for a, b in unordered]
                     for c in colors])
    ordered = np.array([1 if a == b else 2 for a, b in unordered])  # per row
    group = np.array([(a >= spec.p) + (b >= spec.p) for a, b in unordered])
    weights = np.stack([np.where(group == g, ordered, 0) for g in range(3)])
    # the last column, picked by label -1, is zero
    leave_zero = np.zeros((len(unordered), size + 1), dtype=np.int64)
    leave_zero[:, :size] = (ordered * np.where(need, -1, 1)).T
    for table in (row, need, group, weights, leave_zero):
        table.flags.writeable = False  # shared by every caller of the cache
    # a layer row counts a mixed pair inside one layer in both orders, and
    # a red-blue pair red first only
    lasts = (spec.p - 1, size - 1)
    derive = []
    for g, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        last = int(row[lasts[i], lasts[j]])
        others = tuple((u, 1 if g == 1 else int(ordered[u]))
                       for u in np.flatnonzero(group == g).tolist() if u != last)
        derive.append((last, others))
    return _RuleTable(unordered, row, need, group, weights, leave_zero, tuple(derive))


def _broken(
    table: _RuleTable, counts: np.ndarray, labels: np.ndarray, at: int | slice | np.ndarray
) -> np.ndarray:
    """Rules broken at position(s) `at`, one per row of `counts`: a needed
    pair with no witness, or a banned pair with some.  Judged by the
    labels, so meaningless where the label is -1."""
    # take along the last axis: the result is laid out like `counts`
    return (counts[:, at] == 0) == np.take(table.need.T, labels[at], axis=-1)


def _counts(s: SplitState, spec: AlgebraSpec, naive: bool) -> np.ndarray:
    """The pair-count rows of a split, in the order of `_rule_table`.

    The transform route takes one forward transform per part but the last
    of each layer, and computes every row but those whose colors are both
    last parts by `cube.pair_count_rows`, several rows per inverse
    transform.  The rest follow from the `fwd` and `rows` of the split's
    base: the parts of a layer sum to the layer, and the transform is
    linear, so the last part's transform is the layer's minus the other
    parts'; the XOR convolution is bilinear, so a row of two last parts is
    its layer row minus the group's other rows, a mixed pair inside one
    layer taken twice (`_RuleTable.derive`).  Everything is int64 and
    exact: each term is the transform of a 0/1 vector or a pair count.
    At k <= 4 a (1, 2) split takes one forward and one inverse transform.
    """
    if (spec.p, spec.q) != (s.p, s.q):
        raise ValueError("spec shape must match the split's (p, q)")
    table = _rule_table(spec)
    counts = np.empty((len(table.unordered), 1 << s.base.m), dtype=np.int64)
    if naive:
        parts = list(s.parts().values())
        for u, (a, b) in enumerate(table.unordered):
            counts[u] = pair_counts_naive(parts[a], parts[b])
        return counts
    lasts = (spec.p - 1, spec.num_diversity - 1)
    fwd = [None if code in lasts else walsh_hadamard((s.labels == code).astype(np.int64))
           for code in range(spec.num_diversity)]
    for layer_hat, first, last in zip(s.base.fwd, (0, spec.p), lasts):
        fwd[last] = layer_hat - sum(fwd[first:last])
    derived = {last for last, _others in table.derive}
    computed = [u for u in range(len(table.unordered)) if u not in derived]
    products = (fwd[a] * fwd[b] for a, b in map(table.unordered.__getitem__, computed))
    pair_count_rows(products, [counts[u] for u in computed], s.base.m)
    for (last, others), layer_row in zip(table.derive, s.base.rows):
        counts[last] = layer_row
        for u, times in others:
            counts[last] -= times * counts[u]
    return counts


def _report(s: SplitState, spec: AlgebraSpec, naive: bool) -> ViolationReport:
    table = _rule_table(spec)
    broken = _broken(table, _counts(s, spec, naive), s.labels, slice(None))
    zs = np.flatnonzero(broken.any(axis=0) & (s.labels >= 0))
    # a row stands for its ordered pairs: 1 on the diagonal, 2 off it
    count = int(broken[:, zs].sum(axis=1) @ table.weights.sum(axis=0))
    present = np.zeros(spec.num_diversity + 1, dtype=bool)
    present[s.labels] = True  # label -1 marks the spare last slot
    empty = tuple(c for c, seen in zip(spec.diversity_colors(), present) if not seen)
    return ViolationReport(count, empty)


def violations(s: SplitState, spec: AlgebraSpec) -> ViolationReport:
    """Exact violation report via the transform route (see `_counts`)."""
    return _report(s, spec, naive=False)


def violations_naive(s: SplitState, spec: AlgebraSpec) -> ViolationReport:
    """Same report via direct pair enumeration; the tests' oracle."""
    return _report(s, spec, naive=True)


# ---------------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------------


class _Move(NamedTuple):
    """A proposed recoloring of element e from code `old` to `new`, with
    what `_ClimbEngine.propose` read and `_ClimbEngine.apply` writes: per
    count row the move touches, the color d whose elements it steps at
    e XOR D, those positions and their counts before the move (None for a
    row `propose` skipped, which may leave the positions uncomputed too)
    and the step they take; the tally changes where a count crosses zero;
    and e's own tally under `new`."""

    e: int
    old: int
    new: int
    count: int  # the violation count after the move
    total: int  # the tally sum after the move
    # (count row, d, positions or None, counts or None, step)
    rows: list[tuple[int, int, np.ndarray | None, np.ndarray | None, int]]
    crossed: list[tuple[int, np.ndarray, np.ndarray]]  # (tally row, positions, changes)
    own: np.ndarray


# no step of one move takes a count above this to 0
_CROSS_MAX = 2
# a row a move does not read is left stale only with a floor above this,
# so that it stays stale for at least 7 steps down before it is recounted;
# at 2, rows whose least count is 3 to 5 forced a recount every few moves
# (165 recounts in 415 proposals of a k = 5 (1, 4) climb)
_STALE_FROM = 16
# translated layer elements one np.add.at call of `_add_reach` adds to:
# 256 KiB of int64 positions and as much of changes, which stay in cache;
# 2^18 took 20% longer over a k = 5 climb's first reaches
_REACH_BLOCK = 1 << 15


class _ClimbEngine:
    """Incremental violation bookkeeping for single-element moves.

    Works on int color codes (`AlgebraSpec.color_index`) throughout.
    Keeps a writable copy of the split's labels, each color's elements,
    one count row per unordered pair of colors (a pair and its mirror
    share it), and a tally per position of the rules it breaks, in three
    rows by the layers of the rule's pair: RR, RB and BB.  Moving e from
    color a to color b changes row {a, d} and row {b, d} only at e XOR D,
    for each color d with elements D; only the positions where such a
    count crosses zero are re-judged, by the `leave_zero` column of the
    spec's `_rule_table`, and e itself is re-scored under b.  `propose`
    makes that one scan against the kept counts and writes nothing, so a
    rejected move costs no update; `apply` writes what it found.
    `violation_count` is the running total plus one per empty part.

    Each count row has a floor, a lower bound on its counts over its
    support: the positions its layers' pairs reach (`base.rows` of its
    group above 0), position 0 aside, which lies in no layer and is never
    judged.  Set up as the exact minimum, a floor drops by the size of
    each step down its row takes and ignores steps up.  A row whose floor
    is above a move's crossing value (the step's size as e leaves, 0 as
    it joins) cannot cross zero there, so `propose` neither reads nor
    judges it.  `apply` does not write such a row either while its floor
    is above `_STALE_FROM`, but marks it stale: its kept and its true
    counts then both stay above 2 on the support and are 0 off it, so
    judging either gives the same rules, e's own re-score included.  When
    a stale row's floor falls to 2, the engine recounts every row and
    floor from its labels by the set-up's own route (`_counts`), and
    counts the recount in `refreshes`.

    Each movable layer's reach, the XOR convolution of the tallies with the
    layer indicators that `move_pool` reads, is kept by one rule: every
    tally change is added at its layer's translates (`_add_reach`), and
    the starting tally counts as a change from zero.
    """

    def __init__(self, state: SplitState, spec: AlgebraSpec):
        self.base = state.base
        self.p, self.q = state.p, state.q
        self.spec = spec
        self.table = table = _rule_table(spec)
        self.row = table.row.tolist()  # plain ints for the per-proposal lookups
        self.labels = state.labels.copy()
        self.members = [np.flatnonzero(self.labels == code) for code in range(spec.num_diversity)]
        self.counts = _counts(state, spec, naive=False)
        self.floor = self._floors()
        self.stale: set[int] = set()
        self.refreshes = 0
        n = 1 << state.base.m
        self.tally = np.empty((3, n), dtype=np.int64)
        # judged in blocks of positions: a position takes up to 16 bytes per
        # count row while judged (bool judgements and their int64 cast), so
        # a block stays within 256 KiB
        block = max(1, 2**18 // (16 * len(table.unordered)))
        for lo in range(0, n, block):
            at = slice(lo, lo + block)
            self.tally[:, at] = table.weights @ _broken(table, self.counts, self.labels, at)
        self.tally[:, self.labels < 0] = 0
        self.total = int(self.tally.sum())
        self.layer_elems = [np.flatnonzero(layer) for layer in self.base.layers]
        self.movable = [at for at, parts in enumerate((self.p, self.q)) if parts > 1]
        self.reach = {at: np.zeros(n, dtype=np.int64) for at in self.movable}
        for g, row in enumerate(self.tally):
            at = np.flatnonzero(row)
            self._add_reach(g, at, row[at])

    def _floors(self) -> list[int]:
        """Each count row's minimum over its support, as plain ints."""
        supports = [layer_row > 0 for layer_row in self.base.rows]
        for support in supports:
            support[0] = False
        top = np.iinfo(np.int64).max
        return [int(np.min(row, initial=top, where=supports[g]))
                for row, g in zip(self.counts, self.table.group.tolist())]

    def _refresh(self) -> None:
        """Recount every row and floor from the labels; nothing is stale after."""
        self.counts = None  # dropped first: the recount is the only matrix held
        self.counts = _counts(self.to_state(0), self.spec, naive=False)
        self.floor = self._floors()
        self.stale.clear()
        self.refreshes += 1

    def violation_count(self) -> int:
        return self.total + sum(xs.size == 0 for xs in self.members)

    def options(self, e: int) -> range:
        """The codes of e's layer."""
        return range(self.p) if self.base.layers[0][e] else range(self.p, self.p + self.q)

    def propose(self, e: int, b: int) -> _Move:
        """Score recoloring labeled element e to another code b of its
        layer from the kept counts; nothing is written.

        Taking e out of its code a lowers row {a, d} at D XOR e, and
        putting it into b raises row {b, d} there, by one per ordered pair
        (two for d = a or b: (e, x) and (x, e)).  The two sets of (row,
        position) pairs are disjoint, so each is judged against today's
        counts.  A row whose floor is above the step's crossing value is
        not read: no count of it reaches 0 as e leaves, or leaves 0 as e
        joins.  D still holds e for d = a, whose terms land on position
        0: labeled -1, it is never tallied, and `apply` sets its counts
        right.  e's own count column does not change, since 0 is in no
        part, so e is re-scored under b as it stands.
        """
        table, floor, row = self.table, self.floor, self.row
        a = int(self.labels[e])
        total = self.total - int(self.tally[:, e].sum())
        rows, crossed = [], []
        for d, xs in enumerate(self.members):
            if not xs.size:
                continue
            z = None
            for code, sign in ((a, -1), (b, 1)):
                u = row[code][d]
                step = 2 * sign if d == code else sign
                # the count reaches 0 as e leaves (it was the step's size),
                # or leaves 0 as e joins
                cross = -step if sign < 0 else 0
                if floor[u] > cross:
                    rows.append((u, d, z, None, step))
                    continue
                if z is None:
                    z = xs ^ e
                before = self.counts[u][z]
                rows.append((u, d, z, before, step))
                at = z[before == cross]
                if at.size:
                    delta = sign * table.leave_zero[u, self.labels[at]]
                    crossed.append((table.group[u], at, delta))
                    total += int(delta.sum())
        own = table.weights @ ((self.counts[:, e] == 0) == table.need[b])
        total += int(own.sum())
        sizes = [xs.size for xs in self.members]
        sizes[a] -= 1
        sizes[b] += 1
        return _Move(e, a, b, total + sizes.count(0), total, rows, crossed, own)

    def apply(self, move: _Move) -> None:
        """Make a proposed move, writing what `propose` found.

        Floors drop first, by every step down.  A row `propose` read is
        written from its counts; a row it skipped is stepped in place while
        its floor is at most `_STALE_FROM` and left stale above that.  If
        a stale row's floor has reached 2, nothing is written: the labels
        are moved and every row recounted (`_refresh`)."""
        e, a, b = move.e, move.old, move.new
        floor, stale = self.floor, self.stale
        for u, _d, _z, _before, step in move.rows:
            if step < 0:
                floor[u] += step
        refresh = any(floor[u] <= _CROSS_MAX for u in stale)
        if not refresh:
            for u, d, z, before, step in move.rows:
                if before is not None:
                    self.counts[u][z] = before + step
                elif u in stale or floor[u] > _STALE_FROM:
                    stale.add(u)
                else:
                    self.counts[u][self.members[d] ^ e if z is None else z] += step
            # position 0 of D XOR e for d = a was e XOR e: the pair (e, e)
            # leaves {a, a} once, not twice, is no pair of {a, b}, and joins
            # {b, b}; a stale row is not written there either
            row = self.row
            for u, fix in ((row[a][a], 1), (row[a][b], -1), (row[b][b], 1)):
                if u not in stale:
                    self.counts[u, 0] += fix
        for g, at, delta in move.crossed:
            self.tally[g, at] += delta
            if delta.any():  # most crossings change no tally
                self._add_reach(g, at, delta)
        for g, change in enumerate((move.own - self.tally[:, e]).tolist()):
            if change:
                self._add_reach(g, np.array([e]), np.array([change]))
        self.tally[:, e] = move.own
        self.total = move.total
        self.labels[e] = b
        xs = self.members[a]
        self.members[a] = xs[xs != e]
        self.members[b] = np.append(self.members[b], e)
        if refresh:
            self._refresh()

    def _add_reach(self, g: int, at: np.ndarray, deltas: np.ndarray) -> None:
        """Add the changes `deltas` of tally row g at positions `at` to the
        reaches.  Row g pairs layer A with layer g - A, so an entry at z
        reaches x in A when x XOR z lies in layer g - A: the change is added
        at the elements of that layer translated by z.  The entries go in
        blocks of at most `_REACH_BLOCK` translated elements, one
        `np.add.at` each, which adds a change once for every entry of the
        block that reaches an element."""
        for a in self.movable:
            if 0 <= g - a <= 1:
                elems = self.layer_elems[g - a]
                per = max(1, _REACH_BLOCK // elems.size)
                for lo in range(0, at.size, per):
                    zs, changes = at[lo : lo + per], deltas[lo : lo + per]
                    np.add.at(self.reach[a], np.bitwise_xor.outer(zs, elems).ravel(),
                              changes.repeat(elems.size))

    def move_pool(self) -> np.ndarray:
        """Elements implicated in some violation and free to change part.

        x is implicated when it breaks a rule itself, or when a rule on a
        pair of colors is broken at z and x, x XOR z lie in the layers of
        those colors.  For x in layer A that is a nonzero reach: the XOR
        convolution of tally row A + L with layer L's indicator, summed
        over L = R and B, which the engine keeps up to date.
        """
        broken = self.tally.any(axis=0)
        pool = np.zeros_like(broken)
        for at in self.movable:
            pool |= self.base.layers[at] & (broken | (self.reach[at] != 0))
        return pool

    def to_state(self, seed: int) -> SplitState:
        return SplitState(self.base, self.p, self.q, seed, labels=self.labels)


# the annealing schedule: temperature at the first move, factor per move
START_TEMP = 2.0
COOLING = 0.9995


def hill_climb(
    s: SplitState,
    spec: AlgebraSpec,
    budget: int,
    seed: int,
    anneal: bool = False,
) -> tuple[SplitState, list[tuple[int, int]]]:
    """Single-element local search toward zero violations.

    Each proposal reassigns one element drawn uniformly from the pool of
    elements implicated in a current violation (as unsatisfied target or
    potential witness) to a uniformly drawn other part of its layer.
    Moves are accepted when the violation count does not increase, so the
    trace of (move index, count) at each accepted move is nonincreasing.
    Elements and parts are the engine's int color codes throughout.  A
    proposal is scored by one scan of the engine's kept counts
    (`_ClimbEngine.propose`) and, only when accepted, applied from what
    that scan found; the count recorded is then the engine's own.
    With `anneal`, uphill moves are also accepted with probability
    exp(-delta/T) under a geometric cooling schedule (`START_TEMP`,
    `COOLING`), and the trace may increase.  Stops at zero violations or
    when the budget runs out; if no violating element is free to move (for
    instance p = 1 with only red-target violations), the climb stops early.
    A result with zero violations, the start included, is re-checked from
    its labels by the sumset verifier, `cube.verify_group_representation`,
    which shares no counting code with the climb; a bookkeeping divergence
    raises RuntimeError.
    """
    if budget < 0:
        raise ValueError("budget >= 0 required")
    engine = _ClimbEngine(s, spec)
    count = engine.violation_count()
    trace: list[tuple[int, int]] = []
    rng = random.Random(seed)
    temp = START_TEMP
    pool = np.nonzero(engine.move_pool())[0] if count else np.empty(0, dtype=np.intp)
    for move in range(budget):
        if count == 0 or pool.size == 0:
            break
        e = int(pool[rng.randrange(pool.size)])
        options = [c for c in engine.options(e) if c != engine.labels[e]]
        proposal = engine.propose(e, options[rng.randrange(len(options))])
        accept = proposal.count <= count
        if not accept and anneal and temp > 1e-12:
            accept = rng.random() < np.exp(-(proposal.count - count) / temp)
        if accept:
            engine.apply(proposal)
            count = engine.violation_count()
            trace.append((move, count))
            pool = np.nonzero(engine.move_pool())[0]
        if anneal:
            temp *= COOLING
    final = engine.to_state(s.seed)
    del engine  # its count rows are not needed by the re-check below
    if count == 0:
        parts = final.parts()
        if not (all(parts.values()) and cube.verify_group_representation(
                GroupColoring(final.base.m, parts), spec).ok):
            raise RuntimeError("incremental bookkeeping diverged from the sumset verifier")
    return final, trace


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


class TrialResult(NamedTuple):
    trial: int
    seed: int
    violations: int
    solved: bool


def run_trial(
    part: LayerPartition,
    spec: AlgebraSpec,
    seed: int,
    t: int,
    budget: int | None = None,
    anneal: bool = False,
) -> tuple[TrialResult, SplitState]:
    """Trial t of `iter_trials`: draw, repair with a `budget`, report."""
    ts = trial_seed(seed, t)
    state = random_split(part, spec.p, spec.q, ts)
    if budget is not None:
        state, _trace = hill_climb(state, spec, budget, ts, anneal=anneal)
    report = violations(state, spec)
    return TrialResult(t, ts, report.count, report.solved), state


# Seconds of trials a process runs alone before it deals them to workers:
# a constant tuned on one host, about twice what a worker took to start
# on a 2-core Xeon, so that a search shorter than a start-up does not pay
# for one.  `_spent` counts across runs, so a process of many short runs
# deals from the run that passes it on.
START_AFTER_S = 0.5
_spent = 0.0  # seconds this process has run trials alone with CPUs to spare
# at most this many trial shares, each holding a partition and a trial
TRIAL_SHARE_CAP = 8


def trial_shares(trials: int) -> int:
    """How many shares `iter_trials` deals `trials` trials to: one per
    usable CPU up to TRIAL_SHARE_CAP, and at most one per trial."""
    return min(cube.usable_cpus(), TRIAL_SHARE_CAP, trials)


def iter_trials(
    part: LayerPartition,
    p: int,
    q: int,
    trials: int,
    seed: int,
    budget: int | None = None,
    anneal: bool = False,
    shares: int | None = None,
) -> Iterator[tuple[TrialResult, SplitState]]:
    """Run `trials` trials, yielding each result row with its final split.

    Trial t draws `random_split` at `trial_seed(seed, t)`, so the results
    are independent of execution order and identical across platforms.
    With a `budget`, each split is first repaired by `hill_climb` under the
    same seed.  A trial is solved when `violations` finds nothing.

    The trials are dealt to `trial_shares(trials)` shares, or `shares`
    if fewer: the caller runs one, and worker processes the others
    (`redblue.workers`), each with `part` as given.  Rows and splits come
    back in trial order, the same as from one share; each share holds a
    trial's memory of its own.  A process deals trials only once it has
    run them for `START_AFTER_S`.  The trials each share ran go to the
    `redblue.search` log at INFO.
    """
    global _spent
    if trials < 1:
        raise ValueError("trials >= 1 required")
    if shares is not None and shares < 1:
        raise ValueError("shares >= 1 required")
    spec = AlgebraSpec(p, q)
    shares = min(trial_shares(trials), shares or trials)
    t = 0
    while t < trials and (shares == 1 or _spent < START_AFTER_S):
        start = perf_counter()
        result = run_trial(part, spec, seed, t, budget, anneal)
        if shares > 1:
            _spent += perf_counter() - start
        yield result
        t += 1
    ran = [t]
    if t < trials:
        from . import workers  # loaded by a process's first dealt run only

        dealt = yield from workers.deal(part, spec, seed, budget, anneal, t, trials, shares)
        ran = [t + dealt[0], *dealt[1:]]
    import logging  # paid by a finished run, not by importing this module

    logging.getLogger(__name__).info(
        "%d trials ran in %d share(s): %s", trials, len(ran), ", ".join(map(str, ran)))


@dataclass(frozen=True)
class MonteCarloResult:
    successes: int
    trials: int
    prediction: UnionBoundFailure | None  # None for the unsplit p = q = 1 case
    rows: tuple[TrialResult, ...]

    @classmethod
    def from_rows(
        cls, part: LayerPartition, p: int, q: int, rows: Iterable[TrialResult]
    ) -> "MonteCarloResult":
        """Tally trial rows against the strict union bound at n = max(p, q),
        the failure probability the split count is compared against."""
        rows = tuple(rows)
        prediction = union_bound_at(max(p, q), part.k)
        return cls(sum(row.solved for row in rows), len(rows), prediction, rows)

    @property
    def rate(self) -> float:
        return self.successes / self.trials


SEARCH_CSV_HEADER = "trial,seed,violations,solved"


def monte_carlo(
    part: LayerPartition, p: int, q: int, trials: int, seed: int
) -> MonteCarloResult:
    """Estimate how often a uniform random split works outright."""
    rows = (row for row, _state in iter_trials(part, p, q, trials, seed))
    return MonteCarloResult.from_rows(part, p, q, rows)


def iter_trial_csv(result: MonteCarloResult) -> Iterator[str]:
    yield SEARCH_CSV_HEADER
    for row in result.rows:
        yield f"{row.trial},{row.seed},{row.violations},{int(row.solved)}"
