"""Solver drivers: external CDCL bridge and a small builtin DPLL.

The external bridge runs `<solver> <file.cnf>` and reads SAT-competition
output (`s SATISFIABLE` / `s UNSATISFIABLE`, `v` literal lines; exit codes
10/20 are honored as a fallback).  Results are never taken on faith:
claimed models are re-verified against the original clauses, decoded to an
edge coloring, and, when the encoding promises complete representation
semantics, re-checked by the brute-force representation checker.  UNSAT
claims from an external solver are delegated trust, as usual for lower
bounds of this kind.  The in-repo solver (`redblue.sat.cdcl`, run as
`bin/redblue-cdcl` or `redblue-cdcl`) prints UNSATISFIABLE only after the
independent RUP checker in `redblue.sat.proof` has accepted its
learned-clause log; otherwise it prints UNKNOWN, which this bridge reports
as UNKNOWN.

The builtin solver is a plain DPLL with unit propagation and first-open
branching, capped by variable count; it exists so that small instances and
tests run with zero external dependencies, not for performance.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace

from ..repcheck import EdgeColoring, check_representation
from .dimacs import to_dimacs
from .encode import Clause, CnfFormula, decode_model

SOLVER_ENV_VAR = "REDBLUE_SOLVER"
DPLL_VAR_CAP = 2000

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class SolverUnavailableError(RuntimeError):
    """No external solver configured and the builtin cannot take the instance."""


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    model: dict[int, bool] | None
    coloring: EdgeColoring | None
    solver: str
    seconds: float
    detail: str = ""

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


def _parse_solver_output(stdout: str, returncode: int) -> tuple[str | None, list[int]]:
    """Verdict and model literals; the verdict is None when neither an
    `s` line nor the exit code (10 SAT, 20 UNSAT) gives one."""
    status = None
    literals: list[int] = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            status = _STATUS_LINES.get(line[2:].strip().upper(), status)
        elif line.startswith("v ") or line == "v":
            literals.extend(int(tok) for tok in line[1:].split())
    if status is None:
        status = {10: SAT, 20: UNSAT}.get(returncode)
    if literals and literals[-1] == 0:
        literals.pop()
    return status, literals


def _verify_model(clauses: list[Clause], assignment: dict[int, bool]) -> None:
    """Hard-fail unless every clause has a literal assigned true."""
    for clause in clauses:
        if not any(
            assignment.get(abs(lit)) == (lit > 0)
            for lit in clause
            if abs(lit) in assignment
        ):
            raise RuntimeError(f"claimed model leaves clause {clause} unsatisfied")


def solve(
    formula: CnfFormula,
    solver: str | None = None,
    timeout: float = 3600.0,
    dpll_cap: int = DPLL_VAR_CAP,
) -> SolveOutcome:
    """Decide a formula with the configured solver and re-certify the result.

    Resolution order: explicit `solver` path, then the REDBLUE_SOLVER
    environment variable, then the builtin DPLL when the variable count is
    within `dpll_cap`.  Crashes and timeouts surface as UNKNOWN with the
    diagnostic in `detail`; a model that fails re-verification (or decodes
    to an invalid representation when the encoding claims completeness) is
    a hard error.
    """
    solver = solver or default_solver()
    clauses = list(formula.clauses())
    if solver is None:
        if formula.num_vars > dpll_cap:
            raise SolverUnavailableError(
                f"{formula.num_vars} variables exceed the builtin cap {dpll_cap}; "
                f"set {SOLVER_ENV_VAR} or pass a solver path"
            )
        start = time.perf_counter()
        sat, assignment = dpll(formula.num_vars, clauses)
        elapsed = time.perf_counter() - start
        if not sat:
            return SolveOutcome(UNSAT, None, None, "builtin-dpll", elapsed)
        return _certify(formula, clauses, assignment, "builtin-dpll", elapsed)

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
                f"timeout after {timeout:.0f}s",
            )
        except OSError as exc:
            elapsed = time.perf_counter() - start
            return SolveOutcome(UNKNOWN, None, None, solver, elapsed, str(exc))
    elapsed = time.perf_counter() - start
    status, literals = _parse_solver_output(proc.stdout, proc.returncode)
    if status is None:
        tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-3:]
        return SolveOutcome(
            UNKNOWN, None, None, solver, elapsed,
            "unrecognized solver output: " + " | ".join(tail),
        )
    if status == UNKNOWN:
        return SolveOutcome(
            UNKNOWN, None, None, solver, elapsed, "the solver answered UNKNOWN"
        )
    if status == UNSAT:
        return SolveOutcome(UNSAT, None, None, solver, elapsed)
    assignment = {abs(lit): lit > 0 for lit in literals}
    return _certify(formula, clauses, assignment, solver, elapsed)


def _certify(
    formula: CnfFormula,
    clauses: list[Clause],
    assignment: dict[int, bool],
    solver: str,
    elapsed: float,
) -> SolveOutcome:
    _verify_model(clauses, assignment)
    if formula.points < 2:
        # foreign instance with no edge-variable geometry; nothing to decode
        return SolveOutcome(SAT, dict(assignment), None, solver, elapsed)
    base = {v: assignment.get(v, False) for v in range(1, formula.num_base_vars + 1)}
    coloring = decode_model(formula, base)
    if formula.full_check:
        result = check_representation(coloring, formula.spec)
        if not result.ok:
            raise RuntimeError(
                "model passed clause check but decodes to an invalid "
                f"representation: {result.violations[0]}"
            )
    return SolveOutcome(SAT, base, coloring, solver, elapsed)


# ---------------------------------------------------------------------------
# builtin DPLL
# ---------------------------------------------------------------------------


def dpll(num_vars: int, clauses: list[Clause]) -> tuple[bool, dict[int, bool]]:
    """Plain DPLL: unit propagation plus first-unassigned branching.

    Returns (satisfiable, assignment); the assignment is total over
    1..num_vars when satisfiable.
    """

    def propagate(assign: dict[int, bool]) -> dict[int, bool] | None:
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = []
                satisfied = False
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned.append(lit)
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    lit = unassigned[0]
                    assign[abs(lit)] = lit > 0
                    changed = True
        return assign

    stack: list[dict[int, bool]] = [{}]
    while stack:
        assign = propagate(stack.pop())
        if assign is None:
            continue
        var = next((v for v in range(1, num_vars + 1) if v not in assign), None)
        if var is None:
            return True, assign
        for value in (False, True):
            branch = dict(assign)
            branch[var] = value
            stack.append(branch)
    return False, {}


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
