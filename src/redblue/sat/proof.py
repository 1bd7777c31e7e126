"""Checking clausal refutations: by followed hints, and by forward RUP.

A refutation is the sequence of clauses a solver learned and deleted while
proving a formula unsatisfiable.  Each step is `(op, clause)` or
`(op, clause, hints)` with DIMACS literals: `op` is `ADD` for a lemma and
`DELETE` for a deletion.  Clause IDs number the input clauses from 1 in
the order the caller passes them, then the added lemmas in proof order;
deletions take no ID.  A lemma's hints are IDs of earlier clauses.

`check_hints` is the trusted checker of the in-repo solver's proofs.  For
each lemma it assumes the negation and walks the hinted clauses, each of
which must be unit under that assignment, implying its one free literal,
until the last, which must be falsified: reverse unit propagation along a
path the solver named, as in LRAT (Cruz-Filipe, Heule, Hunt, Kaufmann &
Schneider-Kamp, CADE 2017), so the checker searches nothing.  A unit
lemma, once accepted, holds at top level for every later lemma, so hint
lists need not repeat the reasons of top-level literals.  The checker
reads a clause only when a hint names it, from the caller's `clauses` or
from the earlier lemmas; it builds no watch lists and loads no formula.
It ignores deletions, which cannot make a derived lemma unsound.

`check_rup` replays a proof without hints against the original clauses:
each added lemma must be a reverse-unit-propagation consequence of the
clauses alive at that point (asserting its negation and unit-propagating
reaches a conflict; Goldberg & Novikov, DATE 2003), and once every step is
replayed the empty clause must be RUP too.  Deletions only shrink the
clause set, so they cannot make a wrong proof pass; a unit already derived
at top level stays derived after its reason is deleted, which is sound
because it is implied by the formula.  This is the deletion-aware forward
check of DRUP (Wetzler, Heule & Hunt, SAT 2014) without RAT lemmas.  It
ignores hints, keeps its own two-watched-literal propagation and costs
about as much as the solve; the tests check every solver proof with both
checkers, and unhinted proofs from other solvers need it.

Neither checker shares code with the solver whose log it checks.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

ADD = "a"
DELETE = "d"

ProofStep = tuple[str, tuple[int, ...]] | tuple[str, tuple[int, ...], tuple[int, ...]]


def check_hints(
    num_vars: int,
    clauses: Sequence[Sequence[int]],
    proof: Iterable[ProofStep],
) -> bool:
    """True iff `proof` refutes `clauses`, each lemma checked along its hints.

    Every `ADD` step must carry hints, and the proof must add the empty
    clause; steps after it are not read.  A literal outside 1..num_vars in
    a lemma rejects the proof; in a hinted input clause it is a ValueError.
    """
    n = num_vars
    true = [False] * (2 * n + 1)  # indexed by DIMACS literal, as in _Checker
    db: list[Sequence[int] | None] = [None] * (len(clauses) + 1)  # by clause ID
    for step in proof:
        if step[0] == DELETE:
            continue
        if step[0] != ADD or len(step) != 3:
            return False
        _, lemma, hints = step
        if not _in_range(lemma, n):
            return False
        assumed: list[int] = []
        for lit in lemma:
            if true[lit]:
                implied = True  # the lemma holds at top level, or is a tautology
                break
            if not true[-lit]:
                true[-lit] = True
                assumed.append(-lit)
        else:
            implied = _conflict_along(hints, db, clauses, true, assumed)
        for lit in assumed:
            true[lit] = False
        if not implied:
            return False
        if not lemma:
            return True
        db.append(lemma)
        if len(lemma) == 1 and not true[-lemma[0]]:
            true[lemma[0]] = True
    return False


def _conflict_along(
    hints: Sequence[int],
    db: list[Sequence[int] | None],
    clauses: Sequence[Sequence[int]],
    true: list[bool],
    assumed: list[int],
) -> bool:
    """Walk `hints`: each clause unit, its free literal set true, the last falsified."""
    n = len(true) // 2
    end = len(db)
    last = len(hints) - 1
    for k, cid in enumerate(hints):
        if not 0 < cid < end:
            return False
        clause = db[cid]
        if clause is None:
            clause = db[cid] = clauses[cid - 1]
            if not _in_range(clause, n):
                raise ValueError(f"clause {tuple(clause)} has a literal outside 1..{n}")
        free = 0
        for lit in clause:
            if true[-lit]:
                continue
            if true[lit] or (free and free != lit):
                return False  # satisfied, or two literals free
            free = lit
        if not free:
            return k == last
        true[free] = True
        assumed.append(free)
    return False


def _in_range(clause: Sequence[int], n: int) -> bool:
    """Every literal in -n..n and none 0, by C-level scans."""
    return not clause or (-n <= min(clause) and max(clause) <= n and 0 not in clause)


def check_rup(
    num_vars: int,
    clauses: Iterable[Sequence[int]],
    proof: Iterable[ProofStep],
) -> bool:
    """True iff `proof` refutes `clauses` by reverse unit propagation.

    `proof` holds `ADD` and `DELETE` steps in the order the solver made
    them; hints, if any, are ignored.  A deletion of a clause that is not
    alive is ignored.  A literal outside 1..num_vars in
    the proof rejects it; in the formula it is a ValueError.
    """
    checker = _Checker(num_vars)
    for clause in clauses:
        lits = checker.normalize(clause)
        if lits is None:
            raise ValueError(f"clause {tuple(clause)} has a literal outside 1..{num_vars}")
        checker.add(lits)
    for op, clause, *_hints in proof:
        if checker.refuted:
            return True
        lits = checker.normalize(clause)
        if lits is None or op not in (ADD, DELETE):
            return False
        if op == DELETE:
            checker.delete(lits)
        elif checker.implies(lits):
            checker.add(lits)
        else:
            return False
    return checker.refuted


class _Checker:
    """Clause set under a top-level assignment closed by unit propagation.

    `true[lit]` is indexed by the DIMACS literal itself: negative literals
    land in the upper half of the list through Python's negative indexing.
    Every alive clause of two or more literals sits in the watch lists of
    its first two literals.
    """

    def __init__(self, num_vars: int) -> None:
        self.num_vars = num_vars
        self.true = [False] * (2 * num_vars + 1)
        self.watch: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.trail: list[int] = []
        self.alive: dict[tuple[int, ...], list[list[int]]] = {}
        self.refuted = False

    def normalize(self, clause: Sequence[int]) -> list[int] | None:
        """Distinct literals in order, or None if one is out of range."""
        n = self.num_vars
        if not all(isinstance(lit, int) and 0 < abs(lit) <= n for lit in clause):
            return None
        return list(dict.fromkeys(clause))

    def implies(self, lits: list[int]) -> bool:
        """RUP test: asserting every literal false propagates to a conflict."""
        true = self.true
        mark = len(self.trail)
        conflict = False
        for lit in lits:
            if true[lit]:
                conflict = True
                break
            if not true[-lit]:
                true[-lit] = True
                self.trail.append(-lit)
        if not conflict:
            conflict = self._propagate(mark)
        for lit in self.trail[mark:]:
            true[lit] = False
        del self.trail[mark:]
        return conflict

    def add(self, lits: list[int]) -> None:
        present = set(lits)
        if any(-lit in present for lit in lits):
            return  # a tautology constrains nothing
        true = self.true
        # non-false literals first, so a non-unit clause watches two of them
        lits.sort(key=lambda lit: true[-lit])
        if len(lits) >= 2:
            self.alive.setdefault(tuple(sorted(lits)), []).append(lits)
            self.watch[lits[0]].append(lits)
            self.watch[lits[1]].append(lits)
        free = [lit for lit in lits[:2] if not true[-lit]]
        if not free:
            self.refuted = True
        elif len(free) == 1 and not true[free[0]]:
            true[free[0]] = True
            self.trail.append(free[0])
            if self._propagate(len(self.trail) - 1):
                self.refuted = True

    def delete(self, lits: list[int]) -> None:
        copies = self.alive.get(tuple(sorted(lits)))
        if not copies:
            return
        clause = copies.pop()
        for lit in clause[:2]:
            self.watch[lit] = [c for c in self.watch[lit] if c is not clause]

    def _propagate(self, head: int) -> bool:
        """Propagate trail[head:]; True on conflict."""
        true = self.true
        watch = self.watch
        trail = self.trail
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            pending = watch[false_lit]
            kept: list[list[int]] = []
            watch[false_lit] = kept
            for pos, clause in enumerate(pending):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                other = clause[0]
                if true[other]:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if not true[-lit]:
                        clause[1], clause[k] = lit, false_lit
                        watch[lit].append(clause)
                        break
                else:
                    if true[-other]:
                        kept.extend(pending[pos:])
                        return True
                    kept.append(clause)
                    true[other] = True
                    trail.append(other)
        return False
