"""DIMACS CNF emission and parsing.

Emitted files are self-describing: comments record the instance shape and
the variable-numbering convention, then the standard `p cnf` header and
one zero-terminated clause per line.  Emission is deterministic, so equal
formulas produce byte-identical files.
"""

from __future__ import annotations

import io
from collections.abc import Iterator

from ..algebra import AlgebraSpec
from .encode import Clause, ClauseGroup, CnfFormula


# characters per `splitlines()` call when reading DIMACS text
SLICE_CHARS = 1 << 20


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
    for clause in formula.clauses():
        out.write(" ".join(map(str, clause)) + " 0\n")
    return out.getvalue()


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, split one slice of about SLICE_CHARS at a time.

    Each slice ends just after a newline, so no line crosses a slice
    boundary and the result equals `text.splitlines()`, without holding
    every line at once.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + SLICE_CHARS - 1) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def parse_dimacs(text: str) -> tuple[int, list[Clause]]:
    """Parse a DIMACS file into (variable count, clause list)."""
    num_vars: int | None = None
    num_clauses: int | None = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for raw in _lines(text):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line {line!r}")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            continue
        if num_vars is None:
            raise ValueError("clause before problem line")
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending.clear()
            else:
                if abs(lit) > num_vars:
                    raise ValueError(f"literal {lit} above declared {num_vars} vars")
                pending.append(lit)
    if pending:
        raise ValueError("dangling clause without terminating 0")
    if num_vars is None:
        raise ValueError("missing problem line")
    if num_clauses is not None and len(clauses) != num_clauses:
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
    for line in _lines(text):
        if line.startswith("p "):
            break
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
