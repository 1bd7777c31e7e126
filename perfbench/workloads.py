"""The four benchmark workloads and the checks on their outputs.

A workload builds its inputs from the seed in `setup`, hands out rounds of
ops, and checks each op's output against a route independent of the one the
op took.  Ops reach the library through module attributes
(`self.rb.search.hill_climb`, ...), never through names bound at import, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# attribute name on the namespace -> module imported from src/redblue
MODULES = {
    "algebra": "redblue.algebra",
    "cube": "redblue.cube",
    "search": "redblue.search",
    "repcheck": "redblue.repcheck",
    "encode": "redblue.sat.encode",
    "dimacs": "redblue.sat.dimacs",
    "solve": "redblue.sat.solve",
}


def import_redblue() -> SimpleNamespace:
    """Import the library from this checkout's `src`, discarding earlier imports.

    Each call executes the package's modules again, so timing it measures
    the import that a fresh process pays (numpy excluded).  The package
    attribute `redblue.sat.solve` is the function, not the module, which is
    why modules are fetched with `import_module`.
    """
    if not (SRC / "redblue" / "__init__.py").is_file():
        raise ImportError(f"no redblue package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "redblue" or n.startswith("redblue.")]:
        del sys.modules[name]
    mods = {attr: importlib.import_module(name) for attr, name in MODULES.items()}
    if not Path(mods["cube"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"redblue imported from {mods['cube'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def digest(obj: Any) -> str:
    """Short stable fingerprint of a value built from ints, strings and tuples."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@dataclass
class Op:
    """One call into a library entry point.

    `units` is the work the op counts for; `case` is what the workload's
    check needs to know about the input, such as the expected verdict.
    """

    label: str
    units: int
    call: Callable[[], Any]
    case: Any = None


@dataclass
class Workload:
    """Shared shape: the subclasses fill in setup, round, summary and check.

    `trace_rounds` is how many rounds a traced run replays.  It is fixed, not
    taken from a time budget, so a traced run does the same work, and counts
    the same, on a fast machine and a slow one.
    """

    name = ""
    unit = ""
    trace_rounds = 1
    rb: Any = field(default=None, init=False, repr=False)
    seed: int = field(default=0, init=False)

    def setup(self, rb: SimpleNamespace, seed: int) -> None:
        raise NotImplementedError

    def round(self, i: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, op: Op, out: Any) -> Any:
        """Comparable digest of an output; traced and untraced runs must agree."""
        raise NotImplementedError

    def check(self, op: Op, out: Any) -> str | None:
        """None when the output passes, else why it fails."""
        raise NotImplementedError

    def plan(self, rounds: int) -> dict:
        """The trial, budget and instance lists that `rounds` rounds ran."""
        raise NotImplementedError


@dataclass
class MonteCarloK4(Workload):
    """Batches of random (p=1, q=2) splits of the 8,192-point cube (k=4).

    The check re-draws a fixed sample of trials, the first `sample` solved
    and the first `sample` unsolved ones of the run, and asks the sumset
    verifier whether the split is a representation.
    """

    name = "mc-k4"
    unit = "trials"
    sample = 3  # solved and unsolved trials re-checked per run
    trials: int = 10
    trace_rounds: int = 40  # 400 trials, about 10 s untraced

    def setup(self, rb, seed):
        self.rb, self.seed = rb, seed
        self.part = rb.cube.layer_partition(4)
        self.spec = rb.algebra.AlgebraSpec(1, 2)
        self.verified = {True: 0, False: 0}

    def _op_seed(self, i: int) -> int:
        return self.rb.search.trial_seed(self.seed, i)

    def round(self, i):
        call = partial(self._batch, self._op_seed(i))
        return [Op(f"monte_carlo#{i}", self.trials, call)]

    def _batch(self, op_seed: int):
        return self.rb.search.monte_carlo(self.part, 1, 2, self.trials, op_seed)

    def summary(self, op, out):
        return out.successes, out.rows

    def check(self, op, out):
        if out.successes != sum(row.solved for row in out.rows):
            return f"successes {out.successes} disagree with the per-trial rows"
        for row in out.rows:
            if self.verified[row.solved] >= self.sample:
                continue
            self.verified[row.solved] += 1
            split = self.rb.search.random_split(self.part, 1, 2, row.seed)
            try:
                coloring = split.to_coloring()
            except ValueError:  # an empty part: not a representation
                accepted = False
            else:
                accepted = self.rb.cube.verify_group_representation(coloring, self.spec).ok
            if accepted != row.solved:
                return (
                    f"trial seed {row.seed}: monte_carlo says solved={row.solved}, "
                    f"verify_group_representation says {accepted}"
                )
        return None

    def plan(self, rounds):
        return {
            "k": 4, "p": 1, "q": 2, "trials_per_op": self.trials,
            "op_seeds": [self._op_seed(i) for i in range(rounds)],
        }


@dataclass
class HillK4(Workload):
    """Hill-climbing repairs of random (p=1, q=3) splits at k=4.

    One op is `search --hill` for one trial: draw, climb, report.  The climb
    re-checks its own success with the naive pair-enumeration oracle.
    """

    name = "hill-k4"
    unit = "repairs"
    budget: int = 100_000  # the CLI's default; every repair here ends far below it
    trace_rounds: int = 5  # 5 repairs, about 12 s untraced

    def setup(self, rb, seed):
        self.rb, self.seed = rb, seed
        self.part = rb.cube.layer_partition(4)
        self.spec = rb.algebra.AlgebraSpec(1, 3)

    def _trial_seed(self, i: int) -> int:
        return self.rb.search.trial_seed(self.seed, i)

    def round(self, i):
        return [Op(f"repair#{i}", 1, partial(self._repair, self._trial_seed(i)))]

    def _repair(self, ts: int):
        search = self.rb.search
        state = search.random_split(self.part, 1, 3, ts)
        final, trace = search.hill_climb(state, self.spec, self.budget, ts)
        return final, trace, search.violations(final, self.spec)

    def summary(self, op, out):
        final, trace, report = out
        return tuple(trace), report.count, digest(sorted(final.blue_assign.items()))

    def check(self, op, out):
        _final, trace, report = out
        if report.count:
            return f"repair ended with {report.count} violations after {len(trace)} accepted moves"
        return None

    def plan(self, rounds):
        return {
            "k": 4, "p": 1, "q": 3, "budget": self.budget,
            "trial_seeds": [self._trial_seed(i) for i in range(rounds)],
        }


@dataclass
class VerifyK5(Workload):
    """Sumset verification of k=5 (65,536-point) colorings, as `check-rep` runs it.

    Set-up draws the first solved random split for n=2 and for n=3, moves one
    red-layer element of the n=2 coloring into its first blue part (B+B
    covers the red layer, so the copy must be rejected), and adds the
    embedded 1024-point coloring.  Expected verdicts come from the transform
    route, `violations(...).solved`; the mutated copy is expected to fail.
    """

    name = "verify-k5"
    unit = "colorings"
    blues = (2, 3)
    draws = 32  # random splits tried per n before set-up gives up

    def setup(self, rb, seed):
        self.rb, self.seed = rb, seed
        algebra, cube, search = rb.algebra, rb.cube, rb.search
        part = cube.layer_partition(5)
        self.cases: list[tuple[str, Any, Any, bool]] = []
        self.draw_seeds: dict[str, int] = {}
        for q in self.blues:
            spec = algebra.AlgebraSpec(1, q)
            for t in range(self.draws):
                ts = search.trial_seed(seed, 100 * q + t)
                split = search.random_split(part, 1, q, ts)
                report = search.violations(split, spec)
                if report.solved:
                    break
            else:
                raise RuntimeError(f"no solved k=5 split for n={q} in {self.draws} draws")
            self.draw_seeds[f"k5-n{q}"] = ts
            self.cases.append((f"k5-n{q}", split.to_coloring(), spec, report.solved))

        _, base, spec2, _ = self.cases[0]
        reds = base.parts[algebra.red(0)].to_array()
        x = int(reds[search.part_index(seed, 0, len(reds))])
        moved = cube.singleton(base.m, x)
        parts = dict(base.parts)
        parts[algebra.red(0)] = parts[algebra.red(0)] - moved
        parts[algebra.blue(0)] = parts[algebra.blue(0)] | moved
        self.moved_element = x
        self.cases.append(("k5-n2-mutated", cube.GroupColoring(base.m, parts), spec2, False))

        embedded_ok = search.violations(search.embedded_split_state(), spec2).solved
        self.cases.append(("embedded-1024", cube.embedded_split_1024(), spec2, embedded_ok))

    def round(self, i):
        return [
            Op(label, 1, partial(self._verify, coloring, spec), case=expect)
            for label, coloring, spec, expect in self.cases
        ]

    def _verify(self, coloring, spec):
        return self.rb.cube.verify_group_representation(coloring, spec, collect_all=True)

    def summary(self, op, out):
        return out.ok, tuple(str(v) for v in out.violations)

    def check(self, op, out):
        if out.ok != op.case:
            return f"{op.label}: verifier says {out.ok}, expected {op.case}"
        return None

    def plan(self, rounds):
        return {
            "rounds": rounds,
            "colorings": [label for label, *_ in self.cases],
            "draw_seeds": self.draw_seeds,
            "mutated_red_element": self.moved_element,
        }


@dataclass(frozen=True)
class Instance:
    """A SAT instance of the benchmark; `expect` None means encode, emit, parse only."""

    variant: str  # all-edges, basic, triangles or full
    points: int
    blues: int
    expect: str | None

    @property
    def label(self) -> str:
        return f"{self.variant}-V{self.points}-q{self.blues}"


# Solved: the two all-edges instances the builtin solver decides in seconds.
# Not solved: the bottom of the lower-bound ladder `pipeline` writes (basic
# V=12) and its largest measured rung (full V=22); the builtin solver
# refuses every basic instance from V=10 up.
INSTANCES = (
    Instance("all-edges", 6, 2, "UNSAT"),
    Instance("all-edges", 8, 1, "SAT"),
    Instance("basic", 12, 2, None),
    Instance("full", 22, 2, None),
)


@dataclass
class SatCertify(Workload):
    """Encode, emit, parse and (for some) solve a fixed list of SAT instances.

    The instances are fixed by what they certify and visited in a fixed
    order, so every run does the same work and the seed changes nothing.
    """

    name = "sat-certify"
    unit = "instances"
    instances: tuple[Instance, ...] = INSTANCES

    def setup(self, rb, seed):
        self.rb, self.seed = rb, seed
        self.solvers: set[str] = set()  # SolveOutcome.solver of every answer

    def round(self, i):
        return [
            Op(inst.label, 1, partial(self._certify, inst), case=inst)
            for inst in self.instances
        ]

    def _spec(self, inst: Instance):
        return self.rb.algebra.AlgebraSpec(1, inst.blues)

    def _certify(self, inst: Instance):
        encode, dimacs = self.rb.encode, self.rb.dimacs
        spec = self._spec(inst)
        if inst.variant == "all-edges":
            formula = encode.all_edges_formula(inst.points, spec)
        else:
            formula = encode.build_formula(inst.points, inst.variant, spec)
        text = dimacs.to_dimacs(formula)
        parsed = dimacs.parse_dimacs(text)
        outcome = self.rb.solve.solve(formula) if inst.expect is not None else None
        if outcome is not None:
            self.solvers.add(outcome.solver)
        return formula, text, parsed, outcome

    def summary(self, op, out):
        formula, text, _parsed, outcome = out
        solved = (
            None if outcome is None
            else (outcome.status, outcome.solver, digest(sorted((outcome.model or {}).items())))
        )
        return formula.num_vars, formula.num_clauses, len(text), digest(text), solved

    def check(self, op, out):
        inst = op.case
        formula, _text, (num_vars, clauses), outcome = out
        if num_vars != formula.num_vars or clauses != list(formula.clauses()):
            return f"{op.label}: parse_dimacs(to_dimacs(f)) differs from f"
        if inst.expect is None:
            return None
        if outcome.status != inst.expect:
            return f"{op.label}: solver says {outcome.status}, expected {inst.expect}"
        if outcome.status == "SAT":
            coloring = self.rb.encode.decode_model(formula, outcome.model)
            result = self.rb.repcheck.check_representation(coloring, self._spec(inst))
            if not result.ok:
                return f"{op.label}: decoded model rejected: {result.violations[0]}"
        return None

    def plan(self, rounds):
        return {
            "rounds": rounds,
            "instances": [
                {"label": i.label, "solve": i.expect is not None, "expect": i.expect}
                for i in self.instances
            ],
            "solvers": sorted(self.solvers),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (MonteCarloK4, HillK4, VerifyK5, SatCertify)
}
