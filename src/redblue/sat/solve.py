"""Solver drivers: the in-repo CDCL in process, or an external solver.

With no solver configured, `solve` runs `redblue.sat.cdcl` in this
process through `cdcl.solve_checked`: an UNSAT verdict stands only once
`redblue.sat.proof.check_hints` has accepted the solver's learned-clause
log.  Each lemma in that log names the clauses (input clause i has ID
i + 1, lemmas follow) that derive it by unit propagation, and the checker
walks exactly those, reading nothing else of the formula; a log it rejects
gives UNKNOWN.  The forward RUP replay `check_rup` is kept as the tests'
reference and for logs without hints.

The external bridge runs `<solver> <file.cnf>` and reads SAT-competition
output (`s SATISFIABLE` / `s UNSATISFIABLE`, `v` literal lines; exit codes
10/20 are honored as a fallback), plus the `c name: value` counter lines
that `redblue-cdcl` prints.  UNSAT claims from an external solver are
delegated trust, as usual for lower bounds of this kind; the in-repo
solver run as `bin/redblue-cdcl` or `redblue-cdcl` checks its proof in its
own process and prints UNKNOWN for a rejected one.

Results are never taken on faith: on either route, claimed models are
re-verified against the original clauses, decoded to an edge coloring,
and, when the encoding promises complete representation semantics,
re-checked by the brute-force representation checker.

`dpll`, a DPLL without clause learning, is kept as a reference for tests;
`solve` does not call it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from ..repcheck import EdgeColoring, check_representation
from .cdcl import solve_checked
from .dimacs import to_dimacs
from .encode import Clause, CnfFormula, decode_model

SOLVER_ENV_VAR = "REDBLUE_SOLVER"
BUILTIN = "builtin-cdcl"

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class SolverUnavailableError(RuntimeError):
    """The configured solver is not an executable."""


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    model: dict[int, bool] | None
    coloring: EdgeColoring | None
    solver: str
    seconds: float
    detail: str = ""
    # solver counters: conflicts, decisions, ..., "proof hints", "proof check seconds"
    stats: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in (SAT, UNSAT, UNKNOWN):
            raise ValueError(f"bad status {self.status!r}")
        if (self.model is None) == (self.status == SAT):
            raise ValueError("model present iff status is SAT")


def default_solver() -> str | None:
    """Solver path from the environment, if configured and runnable."""
    path = os.environ.get(SOLVER_ENV_VAR)
    if path:
        resolved = shutil.which(path)
        if resolved is None:
            raise SolverUnavailableError(
                f"{SOLVER_ENV_VAR}={path!r} is not an executable"
            )
        return resolved
    return None


_STATUS_LINES = {"SATISFIABLE": SAT, "UNSATISFIABLE": UNSAT, "UNKNOWN": UNKNOWN}


def _parse_solver_output(
    stdout: str, returncode: int
) -> tuple[str | None, list[int], dict[str, float]]:
    """Verdict, model literals and counters.

    The verdict is None when neither an `s` line nor the exit code (10 SAT,
    20 UNSAT) gives one, or when a `v` line holds a token that is not an
    integer.  The counters come from `c name: value` lines whose value is
    one number, as `redblue-cdcl` prints them; other comments are skipped.
    """
    status = None
    literals: list[int] = []
    stats: dict[str, float] = {}
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            status = _STATUS_LINES.get(line[2:].strip().upper(), status)
        elif line.startswith("v ") or line == "v":
            try:
                literals.extend(int(tok) for tok in line[1:].split())
            except ValueError:
                return None, [], stats
        elif line.startswith("c ") and ": " in line:
            name, _, value = line[2:].partition(": ")
            try:
                stats[name.strip()] = float(value) if "." in value else int(value)
            except ValueError:
                pass
    if status is None:
        status = {10: SAT, 20: UNSAT}.get(returncode)
    if literals and literals[-1] == 0:
        literals.pop()
    return status, literals, stats


def _verify_model(clauses: list[Clause], assignment: dict[int, bool]) -> None:
    """Hard-fail unless every clause has a literal assigned true."""
    true = {v if value else -v for v, value in assignment.items()}
    for clause in clauses:
        if true.isdisjoint(clause):
            raise RuntimeError(f"claimed model leaves clause {clause} unsatisfied")


def solve(
    formula: CnfFormula,
    solver: str | None = None,
    timeout: float = 3600.0,
) -> SolveOutcome:
    """Decide a formula with the configured solver and re-certify the result.

    Resolution order: explicit `solver` path, then the REDBLUE_SOLVER
    environment variable, then the in-repo CDCL in this process, whose
    UNSAT verdict stands only with a proof that `check_hints` accepted.
    `timeout` bounds either route.  Crashes, timeouts and rejected proofs
    surface as UNKNOWN with the diagnostic in `detail`; a model that fails
    re-verification (or decodes to an invalid representation when the
    encoding claims completeness) is a hard error.
    """
    solver = solver or default_solver()
    clauses = list(formula.clauses())
    if solver is None:
        start = time.perf_counter()
        checked = solve_checked(formula.num_vars, clauses, timeout)
        elapsed = time.perf_counter() - start
        if checked.satisfiable:
            return _certify(formula, clauses, checked.model, BUILTIN, elapsed, checked.stats)
        status = UNKNOWN if checked.satisfiable is None else UNSAT
        return SolveOutcome(
            status, None, None, BUILTIN, elapsed, checked.detail, checked.stats
        )

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="redblue-cnf-") as tmp:
        path = os.path.join(tmp, "instance.cnf")
        with open(path, "w") as fh:
            fh.write(to_dimacs(formula))
        try:
            proc = subprocess.run(
                [solver, path],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            elapsed = time.perf_counter() - start
            return SolveOutcome(
                UNKNOWN, None, None, solver, elapsed,
                f"timeout after {timeout:g}s",
            )
        except OSError as exc:
            elapsed = time.perf_counter() - start
            return SolveOutcome(UNKNOWN, None, None, solver, elapsed, str(exc))
    elapsed = time.perf_counter() - start
    status, literals, stats = _parse_solver_output(proc.stdout, proc.returncode)
    if status is None:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
        return SolveOutcome(
            UNKNOWN, None, None, solver, elapsed,
            "unrecognized solver output: " + " | ".join(tail), stats,
        )
    if status == UNKNOWN:
        return SolveOutcome(
            UNKNOWN, None, None, solver, elapsed, "the solver answered UNKNOWN", stats
        )
    if status == UNSAT:
        return SolveOutcome(UNSAT, None, None, solver, elapsed, stats=stats)
    assignment = {abs(lit): lit > 0 for lit in literals}
    return _certify(formula, clauses, assignment, solver, elapsed, stats)


def _certify(
    formula: CnfFormula,
    clauses: list[Clause],
    assignment: dict[int, bool],
    solver: str,
    elapsed: float,
    stats: Mapping[str, float],
) -> SolveOutcome:
    _verify_model(clauses, assignment)
    if formula.points < 2:
        # foreign instance with no edge-variable geometry; nothing to decode
        return SolveOutcome(SAT, dict(assignment), None, solver, elapsed, stats=stats)
    base = {v: assignment.get(v, False) for v in range(1, formula.num_base_vars + 1)}
    coloring = decode_model(formula, base)
    if formula.full_check:
        result = check_representation(coloring, formula.spec)
        if not result.ok:
            raise RuntimeError(
                "model passed clause check but decodes to an invalid "
                f"representation: {result.violations[0]}"
            )
    return SolveOutcome(SAT, base, coloring, solver, elapsed, stats=stats)


# ---------------------------------------------------------------------------
# reference DPLL
# ---------------------------------------------------------------------------


def dpll(num_vars: int, clauses: list[Clause]) -> tuple[bool, dict[int, bool]]:
    """DPLL with two watched literals: unit propagation over one trail,
    lowest-unassigned branching and chronological backtracking.

    Branching takes the lowest unassigned variable, True first and then
    False, so the answer is the first satisfying assignment in that order.
    Literals are coded as in `redblue.sat.cdcl`: 2*var for the positive and
    2*var + 1 for the negative literal, so `lit ^ 1` negates, and
    `value[lit]` is 1, -1 or 0 for true, false or unassigned.  Duplicate
    literals, tautologies, unit and empty clauses are dealt with once,
    before the search; every other clause sits in the watch lists of its
    first two literals.

    Returns (satisfiable, assignment); the assignment is total over
    1..num_vars when satisfiable.  A literal outside 1..num_vars raises
    ValueError.
    """
    n = num_vars
    value = [0] * (2 * n + 2)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
    trail: list[int] = []
    for clause in clauses:
        lits = []
        for d in clause:
            if not 0 < abs(d) <= n:
                raise ValueError(f"literal {d} outside 1..{n}")
            lits.append(2 * d if d > 0 else 1 - 2 * d)
        lits = list(dict.fromkeys(lits))
        if any(lit ^ 1 in lits for lit in lits):
            continue  # tautology
        if len(lits) > 1:
            watches[lits[0]].append(lits)
            watches[lits[1]].append(lits)
        elif not lits or value[lits[0]] == -1:
            return False, {}
        elif not value[lits[0]]:
            value[lits[0]], value[lits[0] ^ 1] = 1, -1
            trail.append(lits[0])

    def propagate(head: int) -> bool:
        """Assign every literal the trail implies from `head` on; False on a conflict."""
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watching = watches[false_lit]
            kept = []
            for i, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if value[other] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[other] == -1:
                        kept.extend(watching[i + 1 :])
                        watches[false_lit] = kept
                        return False
                    value[other], value[other ^ 1] = 1, -1
                    trail.append(other)
            watches[false_lit] = kept
        return True

    if not propagate(0):
        return False, {}
    decisions: list[tuple[int, int]] = []  # (trail length before, decision literal)
    var = 0
    while True:
        # every variable up to the latest decision is assigned
        var = next((v for v in range(var + 1, n + 1) if not value[2 * v]), 0)
        if not var:
            return True, {v: value[2 * v] == 1 for v in range(1, n + 1)}
        lit = 2 * var
        while True:
            start = len(trail)
            decisions.append((start, lit))
            value[lit], value[lit ^ 1] = 1, -1
            trail.append(lit)
            if propagate(start):
                break
            # back to the latest decision still on its True branch
            while decisions and decisions[-1][1] & 1:
                decisions.pop()
            if not decisions:
                return False, {}
            start, lit = decisions.pop()
            for undo in trail[start:]:
                value[undo] = value[undo ^ 1] = 0
            del trail[start:]
            lit ^= 1
            var = lit >> 1


def enumerate_models(
    formula: CnfFormula,
    limit: int,
    solver: str | None = None,
    timeout: float = 3600.0,
) -> list[EdgeColoring]:
    """Up to `limit` models with distinct base assignments, decoded.

    After each model, a blocking clause over the base variables forbids it
    and the solve repeats.  Auxiliary-only variations are not enumerated.
    """
    from .encode import ClauseGroup

    blocked: list[Clause] = []
    out: list[EdgeColoring] = []
    while len(out) < limit:
        augmented = replace(
            formula, groups=formula.groups + (ClauseGroup("blocked", tuple(blocked)),)
        )
        outcome = solve(augmented, solver=solver, timeout=timeout)
        if outcome.status == UNKNOWN:
            raise RuntimeError(f"solver failed during enumeration: {outcome.detail}")
        if outcome.status == UNSAT:
            break
        out.append(outcome.coloring)
        blocked.append(
            tuple(
                -v if outcome.model[v] else v
                for v in range(1, formula.num_base_vars + 1)
            )
        )
    return out
