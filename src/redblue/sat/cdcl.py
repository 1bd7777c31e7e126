"""A conflict-driven clause-learning SAT solver whose refutations are checked.

The solver follows MiniSat (Eén & Sörensson, SAT 2003): two watched
literals, with binary clauses kept in their own implication lists;
first-UIP learning with recursive clause minimization (Sörensson & Biere,
SAT 2009); VSIDS branching; Luby restarts; phase saving; and deletion of
the less active half of the learned clauses.  It needs only the standard
library.

`Cdcl.proof` logs the refutation in the step format of
`redblue.sat.proof`: `(ADD, lemma, hints)` for every learned clause and
`(DELETE, clause)` for every deletion, with DIMACS literals.  Input clause
i (from 0, in the order given) has clause ID i + 1, and the added lemmas
are numbered after the input.  A lemma's hints are the IDs of the clauses
conflict analysis resolved on, ordered so that each is unit in turn once
the lemma is assumed false, the conflict last.  Every literal assigned at
level 0 is logged as a unit lemma of its own, hinted by its reason, before
any later lemma relies on it, so hint lists leave level-0 literals out; a
conflict at level 0 logs the empty clause.

`solve_checked` calls a formula unsatisfiable only after
`redblue.sat.proof.check_hints`, which shares no code with the solver, has
followed those hints through the caller's clauses and accepted every
lemma; a log it rejects leaves the formula undecided.  `main()` and the
in-process route of `redblue.sat.solve.solve` both decide through it.
`check_rup`, the forward RUP replay that needs no hints, is kept in
`redblue.sat.proof` as the reference the tests hold every solver proof to.

Command line: `python -m redblue.sat.cdcl FILE.cnf`, the `bin/redblue-cdcl`
launcher, or the `redblue-cdcl` console script.  Output follows the SAT
competition format: `s SATISFIABLE` with `v` lines and exit code 10,
`s UNSATISFIABLE` and exit code 20, or `s UNKNOWN` and exit code 0; `c`
lines carry the search statistics and the proof-check time.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .dimacs import parse_dimacs
from .proof import ADD, DELETE, ProofStep, check_hints

RESTART_BASE = 100  # conflicts per unit of the Luby sequence
VAR_DECAY = 0.95
CLAUSE_DECAY = 0.999
# First learned-clause limit, relative to the input.  MiniSat uses 1/3; in
# pure Python each live clause costs more propagation time, and on basic
# V=17 (2-core x86 host) a limit of 1/20 cut solve plus proof-check time
# from about 40 s to 20 s, with the conflict count unchanged within noise.
LEARNT_FRACTION = 1 / 20
LEARNT_MIN = 200
LEARNT_GROWTH = 1.1
ADJUST_FIRST = 100  # conflicts before the limit first grows
ADJUST_GROWTH = 1.5


def luby(i: int) -> int:
    """Element i (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ..."""
    size, exponent = 1, 0
    while size < i + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        exponent -= 1
        i %= size
    return 1 << exponent


def _dimacs(lits: Iterable[int]) -> tuple[int, ...]:
    return tuple(-(lit >> 1) if lit & 1 else lit >> 1 for lit in lits)


class Cdcl:
    """One CDCL search over a fixed clause set.

    Literals are coded internally as 2*var (positive) and 2*var + 1
    (negative), so `lit ^ 1` negates.  `value[lit]` is 1, -1 or 0 for true,
    false or unassigned.  A clause of three or more literals sits in the
    watch lists of its first two; the literal a clause implied is kept at
    its position 0.  `cid` maps the `id()` of each attached clause to its
    clause ID; an input clause keeps its ID after level-0 literals are
    dropped from it, because those are logged as unit lemmas first.
    """

    def __init__(self, num_vars: int, clauses: Sequence[Sequence[int]]) -> None:
        n = num_vars
        self.num_vars = n
        self.value = [0] * (2 * n + 2)
        self.level = [0] * (n + 1)
        self.reason: list[list[int] | None] = [None] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.polarity = [1] * (n + 1)  # saved phase: 1 tries the negative literal
        self.seen = [0] * (n + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 2)]
        self.binary: list[list[tuple[int, list[int]]]] = [[] for _ in range(2 * n + 2)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.heap = [(0.0, v) for v in range(1, n + 1)]  # sorted, so a heap
        self.var_inc = 1.0
        self.learnts: list[list[int]] = []
        self.clause_activity: dict[int, float] = {}
        self.clause_inc = 1.0
        self.proof: list[ProofStep] = []
        self.cid: dict[int, int] = {}  # id() of an attached clause -> its clause ID
        self.next_cid = len(clauses) + 1  # of the next lemma; input clauses come first
        self.stats = dict.fromkeys(
            ("conflicts", "decisions", "propagations", "learned", "deleted", "restarts"), 0
        )
        self.ok = True
        for cid, clause in enumerate(clauses, 1):
            if self.ok and not self._add_input(clause, cid):
                self.ok = False
        if self.ok and not self._propagate_top():
            self.ok = False
        self.max_learnts = max(len(clauses) * LEARNT_FRACTION, LEARNT_MIN)
        self.adjust_size = float(ADJUST_FIRST)
        self.adjust_left = ADJUST_FIRST

    # -- clause database ----------------------------------------------------

    def _add_input(self, clause: Sequence[int], cid: int) -> bool:
        """Attach one input clause at level 0; False once the formula is refuted."""
        n = self.num_vars
        lits = []
        for d in clause:
            if not 0 < abs(d) <= n:
                raise ValueError(f"literal {d} outside 1..{n}")
            lits.append(2 * d if d > 0 else 1 - 2 * d)
        lits = list(dict.fromkeys(lits))
        present = set(lits)
        value = self.value
        if any(lit ^ 1 in present or value[lit] == 1 for lit in lits):
            return True  # tautology, or satisfied at level 0
        lits = [lit for lit in lits if value[lit] == 0]
        if len(lits) <= 1:
            self._log(_dimacs(lits), (cid,))
            if not lits:
                return False
            self._assign(lits[0], None)
            return self._propagate_top()
        self.cid[id(lits)] = cid
        self._attach(lits)
        return True

    def _log(self, lemma: tuple[int, ...], hints: Sequence[int]) -> int:
        """Append a lemma with its hints to the proof; its clause ID."""
        self.proof.append((ADD, lemma, tuple(hints)))
        self.next_cid += 1
        return self.next_cid - 1

    def _propagate_top(self) -> bool:
        """Propagate at level 0, logging each new literal as a unit lemma.

        A conflict logs the empty clause and returns False.  Every level-0
        literal with a reason is assigned here; the others, units of the
        input or learned, are logged where they are assigned.
        """
        start = len(self.trail)
        conflict = self._propagate()
        cid, reason = self.cid, self.reason
        for lit in self.trail[start:]:
            self._log(_dimacs((lit,)), (cid[id(reason[lit >> 1])],))
        if conflict is not None:
            self._log((), (cid[id(conflict)],))
            return False
        return True

    def _attach(self, c: list[int]) -> None:
        if len(c) == 2:
            a, b = c
            self.binary[a].append((b, c))
            self.binary[b].append((a, c))
        else:
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)

    def _reduce(self) -> None:
        """Delete the less active half of the learned clauses not in use."""
        act = self.clause_activity
        value, reason = self.value, self.reason
        learnts = sorted(self.learnts, key=lambda c: act[id(c)])
        half = len(learnts) // 2
        floor = self.clause_inc / len(learnts)
        keep, dead, touched = [], set(), set()
        for i, c in enumerate(learnts):
            first = c[0]
            locked = value[first] == 1 and reason[first >> 1] is c
            if locked or (i >= half and act[id(c)] >= floor):
                keep.append(c)
                continue
            dead.add(id(c))
            touched.update(c[:2])
            self.proof.append((DELETE, _dimacs(c)))
        for c in learnts:
            if id(c) in dead:
                del act[id(c)]
                del self.cid[id(c)]
        watches = self.watches
        for lit in touched:
            watches[lit] = [c for c in watches[lit] if id(c) not in dead]
        self.learnts = keep
        self.stats["deleted"] += len(dead)

    # -- assignment ---------------------------------------------------------

    def _assign(self, lit: int, reason: list[int] | None) -> None:
        self.value[lit] = 1
        self.value[lit ^ 1] = -1
        self.level[lit >> 1] = len(self.trail_lim)
        self.reason[lit >> 1] = reason
        self.trail.append(lit)

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        value, polarity, activity, heap = self.value, self.polarity, self.activity, self.heap
        start = self.trail_lim[target]
        for lit in self.trail[start:]:
            value[lit] = 0
            value[lit ^ 1] = 0
            var = lit >> 1
            polarity[var] = lit & 1
            heappush(heap, (-activity[var], var))
        del self.trail[start:]
        del self.trail_lim[target:]
        self.qhead = start
        if len(heap) > 4 * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        value, activity = self.value, self.activity
        self.heap = [(-activity[v], v) for v in range(1, self.num_vars + 1) if not value[2 * v]]
        heapify(self.heap)

    def _propagate(self) -> list[int] | None:
        """Unit-propagate the trail; the falsified clause on conflict."""
        value, level, reason = self.value, self.level, self.reason
        trail, watches, binary = self.trail, self.watches, self.binary
        current = len(self.trail_lim)
        head = self.qhead
        start = head
        conflict = None
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            for other, c in binary[false_lit]:
                v = value[other]
                if v == 1:
                    continue
                if v == -1:
                    conflict = c
                    break
                value[other] = 1
                value[other ^ 1] = -1
                level[other >> 1] = current
                reason[other >> 1] = c
                trail.append(other)
            if conflict is not None:
                break
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                first = c[0]
                if first == false_lit:
                    first = c[1]
                    c[0] = first
                    c[1] = false_lit
                if value[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] != -1:
                        c[1] = lit
                        c[k] = false_lit
                        watches[lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] == -1:
                        conflict = c
                        break
                    value[first] = 1
                    value[first ^ 1] = -1
                    level[first >> 1] = current
                    reason[first >> 1] = c
                    trail.append(first)
            del ws[j:i]
            if conflict is not None:
                break
        self.stats["propagations"] += head - start
        self.qhead = len(trail) if conflict is not None else head
        return conflict

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, conflict: list[int]) -> tuple[list[int], list[int], int]:
        """First-UIP clause, minimized, its hints, and the level to backjump to.

        The hints are the IDs of the clauses resolved on, in an order that
        makes each unit in turn once the clause is assumed false: the
        reasons of the literals minimization removed (`_removal_chain`), the
        current level's reasons in trail order, and the conflict last.
        """
        seen, level, reason, trail = self.seen, self.level, self.reason, self.trail
        activity, var_inc = self.activity, self.var_inc
        clause_act, cid = self.clause_activity, self.cid
        current = len(self.trail_lim)
        learnt = [0]
        resolved = []  # clause IDs, the conflict first, then up the trail
        pending = 0
        p = -1
        index = len(trail) - 1
        rescale = False
        c = conflict
        while True:
            key = id(c)
            resolved.append(cid[key])
            if key in clause_act:
                clause_act[key] += self.clause_inc
                if clause_act[key] > 1e20:
                    for k in clause_act:
                        clause_act[k] *= 1e-20
                    self.clause_inc *= 1e-20
            for q in c:
                if q == p:
                    continue
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    a = activity[var] + var_inc
                    activity[var] = a
                    if a > 1e100:
                        rescale = True
                    if level[var] >= current:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            index -= 1
            seen[p >> 1] = 0
            pending -= 1
            if pending == 0:
                break
            c = reason[p >> 1]
        learnt[0] = p ^ 1

        abstract = 0
        for q in learnt[1:]:
            abstract |= 1 << (level[q >> 1] & 31)
        to_clear = learnt[1:]
        kept = [learnt[0]]
        for q in learnt[1:]:
            if reason[q >> 1] is None or not self._redundant(q, abstract, to_clear):
                kept.append(q)
        hints = self._removal_chain(learnt, kept) if len(kept) < len(learnt) else []
        for q in to_clear:
            seen[q >> 1] = 0
        resolved.reverse()
        hints += resolved

        backjump = 0
        if len(kept) > 1:
            best = max(range(1, len(kept)), key=lambda i: level[kept[i] >> 1])
            kept[1], kept[best] = kept[best], kept[1]
            backjump = level[kept[1] >> 1]
        if rescale:
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()
        return kept, hints, backjump

    def _removal_chain(self, learnt: list[int], kept: list[int]) -> list[int]:
        """IDs of the reasons that imply the literals minimization removed.

        A depth-first walk from each removed literal through the reasons
        `_redundant` followed, stopping at kept and level-0 literals, lists
        each reason after the reasons of its own literals (post-order).
        `seen` marks a literal whose reason is still to list; on return it
        is clear for every literal the walk reached.
        """
        seen, reason, cid = self.seen, self.reason, self.cid
        for q in kept[1:]:
            seen[q >> 1] = 0
        chain = []
        stack = [q >> 1 for q in learnt[1:] if seen[q >> 1]]
        while stack:
            var = stack[-1]
            if seen[var] == 1:
                seen[var] = 2  # expanded: its reason is listed when it is popped
                stack.extend(q >> 1 for q in reason[var] if seen[q >> 1] == 1)
            else:
                stack.pop()
                if seen[var] == 2:
                    seen[var] = 0
                    chain.append(cid[id(reason[var])])
        return chain

    def _redundant(self, lit: int, abstract: int, to_clear: list[int]) -> bool:
        """True if the reasons of `lit` reach only literals already in the clause."""
        seen, level, reason = self.seen, self.level, self.reason
        stack = [lit]
        top = len(to_clear)
        while stack:
            var = stack.pop() >> 1
            for q in reason[var]:
                v = q >> 1
                if v == var or seen[v] or level[v] == 0:
                    continue
                if reason[v] is not None and (1 << (level[v] & 31)) & abstract:
                    seen[v] = 1
                    stack.append(q)
                    to_clear.append(q)
                    continue
                for cleared in to_clear[top:]:
                    seen[cleared >> 1] = 0
                del to_clear[top:]
                return False
        return True

    # -- search -------------------------------------------------------------

    def solve(self, deadline: float = math.inf) -> bool:
        """Decide the clause set: True with a total model, or False with a refutation.

        Raises TimeoutError at the first conflict after `deadline`, a
        `time.perf_counter()` reading.
        """
        if not self.ok:
            return False
        while True:
            verdict = self._search(luby(self.stats["restarts"]) * RESTART_BASE, deadline)
            if verdict is not None:
                return verdict
            self.stats["restarts"] += 1

    def model(self) -> dict[int, bool]:
        return {v: self.value[2 * v] == 1 for v in range(1, self.num_vars + 1)}

    def _search(self, budget: int, deadline: float) -> bool | None:
        stats = self.stats
        conflicts = 0
        while True:
            if self.trail_lim:
                conflict = self._propagate()
            elif not self._propagate_top():
                stats["conflicts"] += 1
                return False
            else:
                conflict = None
            if conflict is not None:
                stats["conflicts"] += 1
                conflicts += 1
                if time.perf_counter() > deadline:
                    raise TimeoutError
                learnt, hints, backjump = self._analyze(conflict)
                self._cancel_until(backjump)
                self._learn(learnt, hints)
                self.var_inc /= VAR_DECAY
                self.clause_inc /= CLAUSE_DECAY
                self.adjust_left -= 1
                if self.adjust_left == 0:
                    self.adjust_size *= ADJUST_GROWTH
                    self.adjust_left = int(self.adjust_size)
                    self.max_learnts *= LEARNT_GROWTH
                continue
            if conflicts >= budget:
                self._cancel_until(0)
                return None
            if len(self.learnts) - len(self.trail) >= self.max_learnts:
                self._reduce()
            var = self._pick()
            if var == 0:
                return True
            stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._assign(2 * var + self.polarity[var], None)

    def _learn(self, learnt: list[int], hints: list[int]) -> None:
        cid = self._log(_dimacs(learnt), hints)
        self.stats["learned"] += 1
        if len(learnt) == 1:
            self._assign(learnt[0], None)
            return
        self.cid[id(learnt)] = cid
        self._attach(learnt)
        if len(learnt) > 2:
            self.learnts.append(learnt)
            self.clause_activity[id(learnt)] = self.clause_inc
        self._assign(learnt[0], learnt)

    def _pick(self) -> int:
        """Unassigned variable of highest activity, or 0 when none is left."""
        heap, value, activity = self.heap, self.value, self.activity
        while heap:
            neg, var = heappop(heap)
            if not value[2 * var] and -neg == activity[var]:
                return var
        return 0


class Checked(NamedTuple):
    """What `solve_checked` decided, and what it cost.

    `satisfiable` is True with a total `model`, False once the refutation
    has been checked, or None with the reason in `detail`.  `stats` holds
    `Cdcl.stats`, "solve seconds" and, when a refutation was checked,
    "proof steps", "proof hints" (the number of hint IDs its lemmas carry)
    and "proof check seconds".
    """

    satisfiable: bool | None
    model: dict[int, bool] | None
    stats: dict[str, float]
    detail: str = ""


def solve_checked(
    num_vars: int, clauses: Sequence[Sequence[int]], timeout: float | None = None
) -> Checked:
    """Solve with `Cdcl`, then check a refutation before calling it UNSAT.

    The module global `check_hints` follows the hints of `Cdcl.proof`
    through `clauses`; a proof it rejects leaves the formula undecided.
    Past `timeout` seconds, in the search or in the check, the formula is
    undecided too.
    """
    start = time.perf_counter()
    deadline = math.inf if timeout is None else start + timeout
    solver = Cdcl(num_vars, clauses)
    try:
        satisfiable = solver.solve(deadline)
    except TimeoutError:
        satisfiable = None
    stats: dict[str, float] = {**solver.stats, "solve seconds": time.perf_counter() - start}
    if satisfiable:
        return Checked(True, solver.model(), stats)
    if satisfiable is None:
        return Checked(None, None, stats, f"timeout after {timeout:g}s")
    start = time.perf_counter()
    try:
        accepted = check_hints(num_vars, clauses, _steps_until(deadline, solver.proof))
    except TimeoutError:
        accepted = None
    check_seconds = time.perf_counter() - start
    stats["proof steps"] = len(solver.proof)
    stats["proof hints"] = sum(len(step[2]) for step in solver.proof if step[0] == ADD)
    stats["proof check seconds"] = check_seconds
    if accepted is None:
        return Checked(None, None, stats, f"timeout after {timeout:g}s")
    if not accepted:
        return Checked(None, None, stats, "proof check failed: refutation not accepted")
    return Checked(False, None, stats)


def _steps_until(deadline: float, proof: list[ProofStep]) -> Iterator[ProofStep]:
    """The proof's steps, raising TimeoutError once `deadline` has passed."""
    for step in proof:
        if time.perf_counter() > deadline:
            raise TimeoutError
        yield step


def main(argv: Sequence[str] | None = None) -> int:
    """Solve one DIMACS file and print the verdict in SAT-competition form."""
    parser = argparse.ArgumentParser(
        prog="redblue-cdcl",
        description="CDCL SAT solver; UNSAT verdicts are proof-checked before they are printed",
    )
    parser.add_argument("cnf", help="DIMACS CNF file")
    args = parser.parse_args(argv)
    try:
        with open(args.cnf) as fh:
            num_vars, clauses = parse_dimacs(fh.read())
    except (OSError, ValueError) as exc:
        print(f"c error: {exc}", file=sys.stderr)
        return 2

    checked = solve_checked(num_vars, clauses)
    for name, value in checked.stats.items():
        print(f"c {name}: {value:.3f}" if isinstance(value, float) else f"c {name}: {value}")
    if checked.satisfiable:
        print("s SATISFIABLE")
        literals = [v if val else -v for v, val in checked.model.items()]
        for i in range(0, len(literals), 20):
            print("v " + " ".join(map(str, literals[i : i + 20])))
        print("v 0")
        return 10
    if checked.satisfiable is None:
        print(f"c {checked.detail}")
        print("s UNKNOWN")
        return 0
    print("s UNSATISFIABLE")
    return 20


if __name__ == "__main__":
    sys.exit(main())
