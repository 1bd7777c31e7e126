"""Randomized splitting of cube layers and local-search repair.

A split refines a layer partition: the red layer into p parts and the blue
layer into q parts, giving a candidate coloring for the algebra with p reds
and q blues, stored as one read-only int8 label per cube element
(`SplitState`).  Random splits are drawn with a counter-based SplitMix64
hash, one uint64 numpy pass over all 2^m elements, so results are
bit-identical across platforms (see `random_split`).  The violation counter
uses the transform route from the cube module; the naive route doubles as
an independent oracle, and any split the hill climber claims to have solved
is re-verified against it before being reported.  Both routes and the
climber judge the counts by one rule table (`_rules`).  `iter_trials` is
the one trial loop, with or without repair; `monte_carlo` tallies it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .algebra import (
    AlgebraSpec,
    ColorId,
    NeedPair,
    UnionBoundFailure,
    is_mandatory,
    union_bound_at,
)
from .cube import (
    CubeSubset,
    GroupColoring,
    LayerPartition,
    embedded_split_1024,
    layer_partition,
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
    Build a state with `labels=`, or from the dicts `red_assign` and
    `blue_assign`, which map every element of a layer to its part index.
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
        red_assign: dict[int, int] | None = None,
        blue_assign: dict[int, int] | None = None,
        *,
        labels: np.ndarray | None = None,
    ) -> None:
        if p < 1 or q < 1:
            raise ValueError("p, q >= 1 required")
        if p + q > np.iinfo(np.int8).max:
            raise ValueError("p + q must fit the int8 labels")
        n = 1 << base.m
        if labels is None and red_assign is not None and blue_assign is not None:
            labels = np.full(n, -1, dtype=np.int64)
            for assign, layer, offset in ((red_assign, base.R, 0), (blue_assign, base.B, p)):
                if set(assign) != set(layer.elements()):
                    raise ValueError("each assignment must cover exactly its layer")
                labels[list(assign)] = np.fromiter(assign.values(), dtype=np.int64) + offset
        elif labels is None or red_assign is not None or blue_assign is not None:
            raise TypeError("pass either red_assign and blue_assign, or labels")
        labels = np.asarray(labels)
        if labels.shape != (n,) or labels.dtype.kind != "i":
            raise ValueError("labels must be a signed integer vector of length 2^m")
        red_layer, blue_layer = _layers(base)
        is_red, is_blue = (labels >= 0) & (labels < p), (labels >= p) & (labels < p + q)
        if not (np.array_equal(is_red, red_layer) and np.array_equal(is_blue, blue_layer)
                and (labels[~(is_red | is_blue)] == -1).all()):
            raise ValueError("labels must give the red layer red parts, "
                             "the blue layer blue parts and the rest -1")
        labels = labels.astype(np.int8)  # a private copy, frozen below
        labels.flags.writeable = False
        for name, value in zip(("base", "p", "q", "seed", "labels"), (base, p, q, seed, labels)):
            object.__setattr__(self, name, value)

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

    def part_elements(self, c: ColorId) -> list[int]:
        return np.flatnonzero(self.labels == self.spec.color_index(c)).tolist()

    def parts(self) -> dict[ColorId, CubeSubset]:
        """Parts as cube subsets (possibly empty ones included)."""
        return {
            c: CubeSubset.from_indicator(self.base.m, self.labels == code)
            for code, c in enumerate(self.spec.diversity_colors())
        }

    def to_coloring(self) -> GroupColoring:
        """As a GroupColoring; fails if any part is empty."""
        return GroupColoring(self.base.m, self.parts())


def _layers(base: LayerPartition) -> tuple[np.ndarray, np.ndarray]:
    """Boolean indicators of the red and blue layers."""
    return base.R.indicator().astype(bool), base.B.indicator().astype(bool)


def random_split(part: LayerPartition, p: int, q: int, seed: int) -> SplitState:
    """Independently uniform part assignment for every layer element.

    Element x gets `part_index(seed, x, parts)`, computed for all 2^m
    elements at once: `_mix64` is plain integer arithmetic, so on a uint64
    vector it wraps mod 2^64 exactly as the masked scalar code does.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q >= 1 required")
    h = _mix64(np.arange(1 << part.m, dtype=np.uint64) ^ np.uint64(_mix64(seed)))
    red_layer, blue_layer = _layers(part)
    labels = np.where(red_layer, h % p, h % q + p).astype(np.int8)
    labels[~(red_layer | blue_layer)] = -1
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
    """Everything keeping a split from being a representation.

    `unsatisfied` lists (element, need) pairs with no witness; `forbidden`
    lists blue elements covered by an all-blue sumset; `empty_parts` lists
    colors realized by no element.  Entry order is deterministic: element
    ascending, then need pairs in color-rank order.
    """

    unsatisfied: tuple[tuple[int, NeedPair], ...]
    forbidden: tuple[tuple[int, NeedPair], ...]
    empty_parts: tuple[ColorId, ...]

    @property
    def count(self) -> int:
        return len(self.unsatisfied) + len(self.forbidden) + len(self.empty_parts)

    @property
    def solved(self) -> bool:
        return self.count == 0


_Rules = tuple[tuple[ColorId, tuple[NeedPair, ...], tuple[NeedPair, ...]], ...]


@lru_cache(maxsize=None)
def _rules(spec: AlgebraSpec) -> _Rules:
    """Per target color: the pairs that must witness each of its elements,
    then the (all-blue) pairs that must witness none, both in rank order."""
    colors = spec.diversity_colors()
    pairs = [NeedPair(c1, c2) for c1 in colors for c2 in colors]
    return tuple(
        (
            c3,
            tuple(pair for pair in pairs if is_mandatory(spec, *pair, c3)),
            tuple(pair for pair in pairs if not is_mandatory(spec, *pair, c3)),
        )
        for c3 in colors
    )


def _rule_masks(
    rules: _Rules,
    ind: dict[ColorId, np.ndarray],
    counts: dict[tuple[ColorId, ColorId], np.ndarray],
) -> Iterator[tuple[ColorId, NeedPair | None, bool, np.ndarray | None]]:
    """(target, pair, banned, mask) per rule, in table order.

    The mask marks the elements of the target color that the rule breaks:
    no witness of a needed pair, or some witness of a banned one.  A color
    with no elements yields (target, None, False, None) instead, once.
    """
    for target, needed, banned in rules:
        at = ind[target].astype(bool)
        if not at.any():
            yield target, None, False, None
            continue
        for pair in needed:
            mask = counts[pair] == 0
            mask &= at  # in place: one temporary per rule, not two
            yield target, pair, False, mask
        for pair in banned:
            mask = counts[pair] > 0
            mask &= at
            yield target, pair, True, mask


def _counts(
    s: SplitState, spec: AlgebraSpec, naive: bool
) -> tuple[dict[ColorId, np.ndarray], dict[tuple[ColorId, ColorId], np.ndarray]]:
    """Boolean part indicators and all ordered pair-count vectors of a split.

    XOR convolution commutes, so a pair and its mirror share one vector.
    """
    if (spec.p, spec.q) != (s.p, s.q):
        raise ValueError("spec shape must match the split's (p, q)")
    colors = spec.diversity_colors()
    ind = {c: s.labels == code for code, c in enumerate(colors)}
    if naive:
        parts = s.parts()
        count = lambda c1, c2: pair_counts_naive(parts[c1], parts[c2])
    else:
        # one forward transform per part, one inverse per unordered pair
        fwd = {c: walsh_hadamard(at.astype(np.int64)) for c, at in ind.items()}
        count = lambda c1, c2: walsh_hadamard(fwd[c1] * fwd[c2]) >> s.base.m
    counts = {}
    for i, c1 in enumerate(colors):
        for c2 in colors[i:]:
            counts[(c1, c2)] = count(c1, c2)
            counts[(c2, c1)] = counts[(c1, c2)]
    return ind, counts


def _report(s: SplitState, spec: AlgebraSpec, naive: bool) -> ViolationReport:
    empty: list[ColorId] = []
    found: tuple[list, list] = ([], [])
    masks = _rule_masks(_rules(spec), *_counts(s, spec, naive))
    for target, pair, banned, mask in masks:
        if mask is None:
            empty.append(target)
        else:
            found[banned].extend((int(z), pair) for z in np.flatnonzero(mask))
    # rules come in pair-rank order, so a stable sort by element finishes it
    unsat, forbid = (tuple(sorted(f, key=lambda item: item[0])) for f in found)
    return ViolationReport(unsat, forbid, tuple(empty))


def violations(s: SplitState, spec: AlgebraSpec) -> ViolationReport:
    """Exact violation report via the transform route."""
    return _report(s, spec, naive=False)


def violations_naive(s: SplitState, spec: AlgebraSpec) -> ViolationReport:
    """Same report via direct pair enumeration; the independent oracle."""
    return _report(s, spec, naive=True)


# ---------------------------------------------------------------------------
# hill climbing
# ---------------------------------------------------------------------------


class _ClimbEngine:
    """Incremental violation bookkeeping for single-element moves.

    Maintains a writable copy of the split's labels, per-color indicators
    and all ordered pair-count vectors; moving one element updates each
    affected count vector with one gather instead of a fresh transform.
    Violations are read through the same rule masks as `violations`, so
    only the count arithmetic is incremental.
    """

    def __init__(self, state: SplitState, spec: AlgebraSpec):
        self.base = state.base
        self.p, self.q = state.p, state.q
        self.n = 1 << state.base.m
        self.index = np.arange(self.n)  # XOR-ed with an element to translate by it
        self.colors = spec.diversity_colors()
        self.labels = state.labels.copy()
        ind, self.counts = _counts(state, spec, naive=False)
        # int64, so that a move's gathers add into the counts without a cast
        self.ind = {c: at.astype(np.int64) for c, at in ind.items()}
        self.rules = _rules(spec)
        # which colors an element may take, by layer
        self.red_colors = self.colors[: self.p]
        self.blue_colors = self.colors[self.p :]
        self.layer_ind = {"R": (self.labels >= 0) & (self.labels < self.p),
                          "B": self.labels >= self.p}

    def remove(self, c: ColorId, e: int) -> None:
        idx = self.index ^ e
        for d in self.colors:
            if d != c:
                self.counts[(c, d)] -= self.ind[d][idx]  # also the mirror (d, c)
        self.counts[(c, c)] -= self.ind[c][idx]  # pairs (e, x), x incl. e
        self.ind[c][e] = 0
        self.labels[e] = -1
        self.counts[(c, c)] -= self.ind[c][idx]  # pairs (x, e), x != e

    def add(self, c: ColorId, e: int) -> None:
        idx = self.index ^ e
        self.counts[(c, c)] += self.ind[c][idx]  # pairs (x, e), x != e
        self.ind[c][e] = 1
        self.labels[e] = self.colors.index(c)
        self.counts[(c, c)] += self.ind[c][idx]  # pairs (e, x), x incl. e
        for d in self.colors:
            if d != c:
                self.counts[(c, d)] += self.ind[d][idx]

    def violation_count(self) -> int:
        return sum(
            1 if mask is None else int(np.count_nonzero(mask))
            for _, _, _, mask in _rule_masks(self.rules, self.ind, self.counts)
        )

    def unsatisfied_items(self) -> list[tuple[int, NeedPair]]:
        return [
            (int(z), pair)
            for _, pair, _, mask in _rule_masks(self.rules, self.ind, self.counts)
            if mask is not None
            for z in np.flatnonzero(mask)
        ]

    def move_pool(self) -> np.ndarray:
        """Elements implicated in some violation and free to change part."""
        pool = np.zeros(self.n, dtype=bool)
        movable = np.zeros(self.n, dtype=bool)
        if self.p > 1:
            movable |= self.layer_ind["R"]
        if self.q > 1:
            movable |= self.layer_ind["B"]
        for z, pair in self.unsatisfied_items():
            pool[z] = True
            la = self.layer_ind["R"] if pair.first.is_red else self.layer_ind["B"]
            lb = self.layer_ind["R"] if pair.second.is_red else self.layer_ind["B"]
            idx = self.index ^ z
            pool |= la & lb[idx]
            pool |= lb & la[idx]
        pool &= movable
        pool[0] = False
        return pool

    def color_of(self, e: int) -> ColorId:
        code = self.labels[e]
        if code < 0:
            raise KeyError(e)
        return self.colors[code]

    def options_for(self, e: int) -> tuple[ColorId, ...]:
        return self.red_colors if self.layer_ind["R"][e] else self.blue_colors

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
    With `anneal`, uphill moves are also accepted with probability
    exp(-delta/T) under a geometric cooling schedule (`START_TEMP`,
    `COOLING`), and the trace may increase.  Stops at zero violations (in
    which case the result is re-verified by the naive counting route and a
    bookkeeping divergence raises) or when the budget runs out; if no
    violating element is free to move (for instance p = 1 with only
    red-target violations), the climb stops early.
    """
    if budget < 0:
        raise ValueError("budget >= 0 required")
    engine = _ClimbEngine(s, spec)
    count = engine.violation_count()
    trace: list[tuple[int, int]] = []
    if count == 0:
        return s, trace
    rng = random.Random(seed)
    temp = START_TEMP
    pool = np.nonzero(engine.move_pool())[0]
    for move in range(budget):
        if count == 0 or pool.size == 0:
            break
        e = int(pool[rng.randrange(pool.size)])
        old = engine.color_of(e)
        options = [c for c in engine.options_for(e) if c != old]
        new = options[rng.randrange(len(options))]
        engine.remove(old, e)
        engine.add(new, e)
        candidate = engine.violation_count()
        accept = candidate <= count
        if not accept and anneal and temp > 1e-12:
            accept = rng.random() < np.exp(-(candidate - count) / temp)
        if accept:
            count = candidate
            trace.append((move, count))
            pool = np.nonzero(engine.move_pool())[0]
        else:
            engine.remove(new, e)
            engine.add(old, e)
        if anneal:
            temp *= COOLING
    final = engine.to_state(s.seed)
    if count == 0:
        report = violations_naive(final, spec)
        if not report.solved:
            raise RuntimeError(
                "incremental bookkeeping diverged from the naive recount"
            )
    return final, trace


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


class TrialResult(NamedTuple):
    trial: int
    seed: int
    violations: int
    solved: bool


def iter_trials(
    part: LayerPartition,
    p: int,
    q: int,
    trials: int,
    seed: int,
    budget: int | None = None,
    anneal: bool = False,
) -> Iterator[tuple[TrialResult, SplitState]]:
    """Run `trials` trials, yielding each result row with its final split.

    Trial t draws `random_split` at `trial_seed(seed, t)`, so the results
    are independent of execution order and identical across platforms.
    With a `budget`, each split is first repaired by `hill_climb` under the
    same seed.  A trial is solved when `violations` finds nothing.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    spec = AlgebraSpec(p, q)
    for t in range(trials):
        ts = trial_seed(seed, t)
        state = random_split(part, p, q, ts)
        if budget is not None:
            state, _trace = hill_climb(state, spec, budget, ts, anneal=anneal)
        report = violations(state, spec)
        yield TrialResult(t, ts, report.count, report.solved), state


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
