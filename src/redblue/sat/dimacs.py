"""DIMACS CNF emission and parsing.

Emitted files are self-describing: comments record the instance shape and
the variable-numbering convention, then the standard `p cnf` header and
one zero-terminated clause per line.  Emission is deterministic, so equal
formulas produce byte-identical files.

Emission looks each literal's word up in one table over -n..n, built once
per formula, and joins BLOCK_CLAUSES clauses per write.  A block the table
cannot write (an empty clause, a zero literal, a literal beyond n) is
written through `str`, with the same bytes.

Parsing reads the header first: blank and comment lines, then the one
`p cnf` line.  The clause text after it is read in slices of about
SLICE_CHARS characters, each ending at a newline.  A slice's comment lines
are dropped, its tokens become ints in one pass, and its clauses are cut
at the zeros; a clause may run on into the next slice.  A second `p` line
is an error.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from itertools import chain, repeat
from operator import add

from ..algebra import AlgebraSpec
from .encode import Clause, ClauseGroup, CnfFormula


# clauses joined per write when emitting DIMACS text
BLOCK_CLAUSES = 1 << 14
# characters per slice when parsing the clauses of DIMACS text
SLICE_CHARS = 1 << 16


def to_dimacs(formula: CnfFormula) -> str:
    out = io.StringIO()
    for comment in formula.comments:
        out.write(f"c {comment}\n")
    out.write(
        "c varmap: var(i,j,c) = t*(j*(j-1)/2 + i) + c + 1 for 0<=i<j<V, "
        "colors red-first; auxiliaries above\n"
    )
    for group in formula.groups:
        out.write(f"c group {group.tag}: {len(group.clauses)} clauses\n")
    out.write(f"p cnf {formula.num_vars} {formula.num_clauses}\n")
    n = formula.num_vars
    # words[lit] is "{lit} " for 0 < |lit| <= n, negative literals by
    # negative index, and words[0] ends a clause
    words = ["0\n"] + [f"{v} " for v in range(1, n + 1)]
    words += [f"{v} " for v in range(-n, 0)]
    for group in formula.groups:
        for start in range(0, len(group.clauses), BLOCK_CLAUSES):
            out.write(_block_lines(group.clauses[start : start + BLOCK_CLAUSES], words))
    return out.getvalue()


def _block_lines(block: tuple[Clause, ...], words: list[str]) -> str:
    """One line per clause of `block`: its literals' words, then the end word.

    A block with an empty clause, a zero literal or a literal outside the
    table is written through `str` instead; that writes an empty clause as
    " 0", which the table cannot.
    """
    lits = list(chain.from_iterable(map(add, block, repeat((0,)))))
    n = len(words) // 2  # the table covers -n..n
    if all(block) and lits.count(0) == len(block) and -n <= min(lits) <= max(lits) <= n:
        return "".join(map(words.__getitem__, lits))
    return "".join(" ".join(map(str, clause)) + " 0\n" for clause in block)


def _problem_line(text: str) -> tuple[int, int, int]:
    """(variables, clauses, offset just past the `p` line) of DIMACS text.

    Only blank and comment lines may come before the `p` line.  Lines are
    cut as `str.splitlines` cuts them.
    """
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        for raw in text[pos:end].splitlines(keepends=True):
            pos += len(raw)
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if not line.startswith("p"):
                raise ValueError("clause before problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            if num_vars < 0 or num_clauses < 0:
                raise ValueError(f"bad problem line {line!r}")
            return num_vars, num_clauses, pos
    raise ValueError("missing problem line")


def _clause_lines(chunk: str) -> Iterator[str]:
    """The lines of `chunk` other than comments; a `p` line is an error."""
    for line in chunk.splitlines():
        head = line.lstrip()[:1]
        if head == "p":
            raise ValueError("second problem line")
        if head != "c":
            yield line


def parse_dimacs(text: str) -> tuple[int, list[Clause]]:
    """Parse a DIMACS file into (variable count, clause list).

    The clause text after the `p` line is read one slice of about
    SLICE_CHARS at a time, each ending just after a newline, so no line
    crosses a slice boundary.  A clause may span slices.
    """
    num_vars, num_clauses, start = _problem_line(text)
    clauses: list[Clause] = []
    append = clauses.append
    pending: Clause = ()
    while start < len(text):
        end = text.find("\n", start + SLICE_CHARS - 1) + 1 or len(text)
        chunk = text[start:end]
        start = end
        if "c" in chunk or "p" in chunk:
            chunk = "\n".join(_clause_lines(chunk))
        lits = pending + tuple(map(int, chunk.split()))
        if lits and (max(lits) > num_vars or min(lits) < -num_vars):
            bad = next(lit for lit in lits if abs(lit) > num_vars)
            raise ValueError(f"literal {bad} outside declared {num_vars} vars")
        s, index = 0, lits.index
        for _ in range(lits.count(0)):
            e = index(0, s)
            append(lits[s:e])
            s = e + 1
        pending = lits[s:]
    if pending:
        raise ValueError("dangling clause without terminating 0")
    if len(clauses) != num_clauses:
        raise ValueError(
            f"header declares {num_clauses} clauses, file has {len(clauses)}"
        )
    return num_vars, clauses


def formula_from_dimacs(text: str, source: str) -> CnfFormula:
    """Rebuild a formula object from DIMACS text read from `source`.

    Files written by `to_dimacs` are self-describing; their comment
    metadata re-enables model decoding and representation rechecks.
    Foreign files still solve, just without decoding.
    """
    num_vars, clauses = parse_dimacs(text)
    meta: dict[str, str] = {}
    for line in text[: _problem_line(text)[2]].splitlines():
        if not line.startswith("c "):
            continue
        for token in line[2:].split():
            key, eq, value = token.partition("=")
            if eq:
                meta.setdefault(key, value)
    points = int(meta.get("V", 0))
    colors = int(meta.get("t", 0))
    variant = meta.get("variant", "parsed")
    decodable = (
        points >= 2
        and colors >= 2
        and num_vars >= colors * points * (points - 1) // 2
    )
    if not decodable:
        points, colors, variant = 0, 2, "parsed"
    return CnfFormula(
        points=points,
        colors=colors,
        variant=variant,
        spec=AlgebraSpec(1, colors - 1),
        num_vars=num_vars,
        groups=(ClauseGroup("parsed", tuple(clauses)),),
        full_check=decodable and variant == "all-edges",
        comments=(f"parsed from {source}",),
    )
