"""Spans around the library's public functions, and the per-layer metrics.

The tracer replaces a function at the module attribute its caller resolves
(`redblue.search.walsh_hadamard` for the split transforms,
`redblue.sat.solve.dpll` for the builtin solver, ...) with a wrapper that
records a span, and `restore` puts the originals back; nothing under `src/`
is edited.  A span's self time is its duration minus the durations of the
spans opened inside it.  Counts are computed from arguments and results
(array lengths, set sizes, the returned climb trace), not taken from inside
the program.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Any, Callable

from refspeed import clock


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child", "attrs")

    def __init__(self, id: int, parent: int | None, name: str, start: float):
        self.id, self.parent, self.name, self.start = id, parent, name, start
        self.end = start
        self.child = 0.0  # summed durations of the spans opened inside this one
        self.attrs: dict[str, int] = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def as_list(self, t0: float) -> list:
        return [self.id, self.parent, self.name, self.start - t0, self.end - t0, self.attrs]


class Tracer:
    """Records nested spans around patched module attributes (one thread)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Callable]] = []

    def patch(self, module: Any, attr: str, name: str,
              counts: Callable[..., dict[str, int]] | None = None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent and parent.id, name, clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if counts is not None:
                span.attrs = counts(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self, rb: Any) -> None:
        for mod, attr, name, counts in TRACE_POINTS:
            self.patch(getattr(rb, mod), attr, name, counts)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _split_elements(result, part, *args, **kwargs):
    return {"elements": (1 << part.m) - 1}  # every nonzero element gets a part


def _wht_bytes(result, vec):
    n = vec.shape[0]  # one int64 pass over the vector per butterfly stage
    return {"bytes": n * 8 * (n.bit_length() - 1)}


def _naive_pairs(result, x, y):
    pairs = len(x) * len(y) if x and y else 0
    return {"pairs": pairs, "alloc_bytes": 8 * pairs}  # the int64 XOR outer product


def _climb(result, *args, **kwargs):
    _final, trace = result
    return {
        "proposed": trace[-1][0] + 1 if trace else 0,
        "accepted": len(trace),
        "solved": int(bool(trace) and trace[-1][1] == 0),
    }


def _monte_carlo(result, *args, **kwargs):
    return {"solved": result.successes, "trials": result.trials}


def _formula(result, *args, **kwargs):
    return {"vars": result.num_vars, "clauses": result.num_clauses}


def _dimacs_bytes(result, *args, **kwargs):
    return {"bytes": len(result)}  # DIMACS text is ASCII


def _verdict(result, *args, **kwargs):
    return {result.status.lower(): 1}


# (namespace attribute, function, span name, counts from the call)
TRACE_POINTS = (
    ("cube", "layer_partition", "cube.layer_partition", None),
    ("cube", "walsh_hadamard", "cube.walsh_hadamard", _wht_bytes),
    ("search", "walsh_hadamard", "cube.walsh_hadamard", _wht_bytes),
    ("search", "pair_counts_naive", "cube.pair_counts_naive", _naive_pairs),
    ("cube", "sumset", "cube.sumset", None),
    ("cube", "verify_group_representation", "cube.verify_group_representation", None),
    ("search", "random_split", "search.random_split", _split_elements),
    ("search", "violations", "search.violations", None),
    ("search", "violations_naive", "search.violations_naive", None),
    ("search", "hill_climb", "search.hill_climb", _climb),
    ("search", "monte_carlo", "search.monte_carlo", _monte_carlo),
    ("encode", "all_edges_formula", "sat.encode.build", _formula),
    ("encode", "build_formula", "sat.encode.build", _formula),
    ("solve", "decode_model", "sat.encode.decode_model", None),
    ("dimacs", "to_dimacs", "sat.dimacs.to_dimacs", _dimacs_bytes),
    ("dimacs", "parse_dimacs", "sat.dimacs.parse_dimacs", None),
    ("solve", "solve", "sat.solve.solve", _verdict),
    ("solve", "dpll", "sat.solve.dpll", None),
    ("solve", "check_representation", "repcheck.check_representation", None),
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from a run's spans; 0 for a layer the run never entered."""
    agg: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        a = agg[span.name]
        a["calls"] += 1
        a["self_s"] += span.self_s
        for key, value in span.attrs.items():
            a[key] += value

    def get(name: str, key: str = "calls") -> float:
        return agg[name][key] if name in agg else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    climb, solve = "search.hill_climb", "sat.solve.solve"
    proposed = get(climb, "proposed")
    decided = get(solve, "sat") + get(solve, "unsat")
    return {
        "search.random_split.calls": get("search.random_split"),
        "search.random_split.s": get("search.random_split", "self_s"),
        "search.random_split.elements": get("search.random_split", "elements"),
        "cube.walsh_hadamard.calls": get("cube.walsh_hadamard"),
        "cube.walsh_hadamard.s": get("cube.walsh_hadamard", "self_s"),
        "cube.walsh_hadamard.bytes_computed": get("cube.walsh_hadamard", "bytes"),
        "search.violations.s": get("search.violations", "self_s"),
        "search.monte_carlo.solved_ratio": ratio(
            get("search.monte_carlo", "solved"), get("search.monte_carlo", "trials")),
        "search.hill_climb.s": get(climb, "self_s"),
        "search.hill_climb.moves_proposed": proposed,
        "search.hill_climb.moves_accepted": get(climb, "accepted"),
        "search.hill_climb.accept_ratio": ratio(get(climb, "accepted"), proposed),
        "search.hill_climb.us_per_move": ratio(1e6 * get(climb, "self_s"), proposed),
        "search.hill_climb.solved_ratio": ratio(get(climb, "solved"), get(climb)),
        "search.violations_naive.s": get("search.violations_naive", "self_s"),
        "cube.pair_counts_naive.calls": get("cube.pair_counts_naive"),
        "cube.pair_counts_naive.s": get("cube.pair_counts_naive", "self_s"),
        "cube.pair_counts_naive.pairs": get("cube.pair_counts_naive", "pairs"),
        "cube.pair_counts_naive.alloc_bytes_computed": get("cube.pair_counts_naive", "alloc_bytes"),
        "cube.sumset.calls": get("cube.sumset"),
        "cube.sumset.s": get("cube.sumset", "self_s"),
        "cube.verify_group_representation.s": get("cube.verify_group_representation", "self_s"),
        "cube.layer_partition.s": get("cube.layer_partition", "self_s"),
        "sat.encode.build_s": get("sat.encode.build", "self_s"),
        "sat.encode.vars": get("sat.encode.build", "vars"),
        "sat.encode.clauses": get("sat.encode.build", "clauses"),
        "sat.encode.decode_model_s": get("sat.encode.decode_model", "self_s"),
        "sat.dimacs.to_dimacs_s": get("sat.dimacs.to_dimacs", "self_s"),
        "sat.dimacs.parse_dimacs_s": get("sat.dimacs.parse_dimacs", "self_s"),
        "sat.dimacs.bytes": get("sat.dimacs.to_dimacs", "bytes"),
        "sat.solve.dpll_s": get("sat.solve.dpll", "self_s"),
        "sat.solve.solve_self_s": get(solve, "self_s"),
        "sat.solve.sat": get(solve, "sat"),
        "sat.solve.unsat": get(solve, "unsat"),
        "sat.solve.unknown": get(solve, "unknown"),
        "sat.solve.decided_ratio": ratio(decided, get(solve)),
        "repcheck.check_representation.calls": get("repcheck.check_representation"),
        "repcheck.check_representation.s": get("repcheck.check_representation", "self_s"),
        "trace.spans": len(spans),
    }
