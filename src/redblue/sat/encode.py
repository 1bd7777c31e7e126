"""CNF encodings of bounded representation questions.

One boolean variable per (edge, color) pair says "this edge gets that
color".  Clause families, each tagged with what it asserts:

  exactly-one      every edge carries exactly one color
  precolor         unit clauses pinning the mandatory configuration
  red-needs        every precolored red edge has all of its needs witnessed
  triangle         no triangle is entirely blue (some edge is red)
  blue-needs-b<i>  precolored edges of blue color i have their needs
  free-needs       every unpinned edge, whatever color it takes, has the
                   needs of that color (a per-color selector disjunction)

Auxiliary "witness" variables are introduced by Tseitin definitions with
full biconditionals, so restricting any model to the base variables stays
sound regardless of how a solver sets the auxiliaries.  Variable numbering
and clause emission order are fixed; identical inputs give byte-identical
DIMACS output downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterator, NamedTuple

from ..algebra import ALGEBRA_TWO_BLUE, AlgebraSpec, ColorId, NeedPair, needs_of
from ..repcheck import EdgeColoring, MandatoryConfig, mandatory_configuration

Clause = tuple[int, ...]


class VarMap:
    """Deterministic variable numbering over V points and t colors.

    Base variable for edge {i, j} (i < j) and color index c is
    t * colex(i, j) + c + 1 with colex(i, j) = j(j-1)/2 + i, filling
    1..t*C(V,2).  Auxiliaries are allocated strictly above, in creation
    order.
    """

    def __init__(self, points: int, colors: int = 3):
        if points < 2:
            raise ValueError("need at least two points")
        if colors < 2:
            raise ValueError("need at least two colors")
        self.V = points
        self.t = colors
        self.num_base = colors * points * (points - 1) // 2
        self._next_aux = self.num_base + 1
        self._rows: dict[tuple[int, int], list[int]] = {}

    def pair_rank(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        if not 0 <= i < j < self.V:
            raise ValueError(f"bad pair ({i}, {j}) for V={self.V}")
        return j * (j - 1) // 2 + i

    def var(self, i: int, j: int, c: int) -> int:
        if not 0 <= c < self.t:
            raise ValueError(f"color index {c} out of range")
        return self.t * self.pair_rank(i, j) + c + 1

    def row(self, i: int, c: int) -> list[int]:
        """`var(i, k, c)` for every point k, with 0 at k = i; built once per (i, c)."""
        row = self._rows.get((i, c))
        if row is None:
            row = [0 if k == i else self.var(i, k, c) for k in range(self.V)]
            self._rows[i, c] = row
        return row

    def decode(self, var: int) -> tuple[int, int, int]:
        """Invert `var` for base variables: returns (i, j, color index)."""
        if not 1 <= var <= self.num_base:
            raise ValueError(f"{var} is not a base variable")
        rank, c = divmod(var - 1, self.t)
        j = (1 + math.isqrt(1 + 8 * rank)) // 2
        i = rank - j * (j - 1) // 2
        return i, j, c

    def new_aux(self) -> int:
        v = self._next_aux
        self._next_aux += 1
        return v

    @property
    def num_vars(self) -> int:
        return self._next_aux - 1


class ClauseGroup(NamedTuple):
    tag: str
    clauses: tuple[Clause, ...]


@dataclass(frozen=True)
class CnfFormula:
    """A tagged CNF with enough metadata to be self-describing on disk."""

    points: int
    colors: int
    variant: str
    spec: AlgebraSpec
    num_vars: int
    groups: tuple[ClauseGroup, ...]
    full_check: bool = False  # models must decode to complete representations
    comments: tuple[str, ...] = field(default=())

    def clauses(self) -> Iterator[Clause]:
        for group in self.groups:
            yield from group.clauses

    @property
    def num_clauses(self) -> int:
        return sum(len(g.clauses) for g in self.groups)

    @property
    def num_base_vars(self) -> int:
        return self.colors * self.points * (self.points - 1) // 2

    def validate(self) -> None:
        """Raise ValueError naming the first empty clause or bad literal.

        Each group's literals are read once, into a set of the distinct
        ones, which the zero and range checks then read; the clause loop
        runs only to name the clause that failed them.
        """
        for group in self.groups:
            lits = set(chain.from_iterable(group.clauses))
            if (
                all(group.clauses)
                and 0 not in lits
                and -self.num_vars <= min(lits, default=0)
                and max(lits, default=0) <= self.num_vars
            ):
                continue
            for clause in group.clauses:
                if not clause:
                    raise ValueError(f"empty clause in group {group.tag}")
                if any(lit == 0 or abs(lit) > self.num_vars for lit in clause):
                    raise ValueError(f"literal out of range in {clause}")


def exactly_one_clauses(vm: VarMap) -> ClauseGroup:
    """Per edge: one at-least-one clause plus all pairwise exclusions."""
    clauses: list[Clause] = []
    for j in range(vm.V):
        for i in range(j):
            vs = [vm.var(i, j, c) for c in range(vm.t)]
            clauses.append(tuple(vs))
            clauses.extend(
                (-vs[c1], -vs[c2]) for c1 in range(vm.t) for c2 in range(c1 + 1, vm.t)
            )
    return ClauseGroup("exactly-one", tuple(clauses))


def precolor_clauses(
    vm: VarMap, coloring: EdgeColoring, spec: AlgebraSpec, tag: str = "precolor"
) -> ClauseGroup:
    """One unit clause per precolored edge, edge-lex order."""
    clauses = tuple(
        (vm.var(i, j, spec.color_index(coloring.colors[(i, j)])),)
        for (i, j) in coloring.colored_edges()
    )
    return ClauseGroup(tag, clauses)


def _witnesses(
    vm: VarMap, spec: AlgebraSpec, i: int, j: int, need: NeedPair, clauses: list[Clause]
) -> list[int]:
    """Witness auxiliaries of one need of edge (i, j), one per vertex k.

    Each is defined by biconditional clauses, appended to `clauses`, as
    "edge (i,k) has the need's first color and edge (k,j) its second".
    """
    first = vm.row(i, spec.color_index(need.first))
    second = vm.row(j, spec.color_index(need.second))
    witnesses = []
    for k, l1, l2 in zip(range(vm.V), first, second):
        if k == i or k == j:
            continue
        w = vm.new_aux()
        clauses += [(-w, l1), (-w, l2), (w, -l1, -l2)]
        witnesses.append(w)
    return witnesses


def need_clauses(
    vm: VarMap,
    edges: list[tuple[int, int, ColorId]],
    spec: AlgebraSpec,
    tag: str,
) -> ClauseGroup:
    """Witness requirements for edges of known color.

    For each listed edge and each need (c1, c2) of its color, one witness
    auxiliary per candidate vertex k, biconditionally defined as "edge
    (i,k) has c1 and edge (k,j) has c2", plus the clause requiring some
    witness.  V >= 3 is required, else there are no candidates at all.
    """
    if vm.V < 3:
        raise ValueError("witness clauses need at least three points")
    clauses: list[Clause] = []
    for i, j, color in edges:
        for need in needs_of(spec, color):
            clauses.append(tuple(_witnesses(vm, spec, i, j, need, clauses)))
    return ClauseGroup(tag, tuple(clauses))


def triangle_clauses(vm: VarMap, spec: AlgebraSpec) -> ClauseGroup:
    """No all-blue triangle: every triangle has some edge with some red color."""
    red_indices = [spec.color_index(c) for c in spec.diversity_colors() if c.is_red]
    clauses = tuple(
        tuple(
            vm.var(a, b, r)
            for (a, b) in ((i, j), (i, k), (j, k))
            for r in red_indices
        )
        for i, j, k in combinations(range(vm.V), 3)
    )
    return ClauseGroup("triangle", clauses)


def free_edge_clauses(
    vm: VarMap, edges: list[tuple[int, int]], spec: AlgebraSpec
) -> ClauseGroup:
    """Needs of edges whose color is the solver's choice.

    Per edge, a selector auxiliary per color defined as "the edge has this
    color and every need of the color is witnessed", then the disjunction
    of the selectors.  Witness and per-need auxiliaries are biconditional,
    as everywhere.
    """
    if vm.V < 3:
        raise ValueError("witness clauses need at least three points")
    colors = spec.diversity_colors()
    clauses: list[Clause] = []
    for i, j in edges:
        selectors = []
        for color in colors:
            edge_lit = vm.var(i, j, spec.color_index(color))
            need_vars = []
            for need in needs_of(spec, color):
                witnesses = _witnesses(vm, spec, i, j, need, clauses)
                d = vm.new_aux()
                clauses.append(tuple([-d] + witnesses))
                clauses.extend((-w, d) for w in witnesses)
                need_vars.append(d)
            s = vm.new_aux()
            clauses.append((-s, edge_lit))
            clauses.extend((-s, d) for d in need_vars)
            clauses.append(tuple([s, -edge_lit] + [-d for d in need_vars]))
            selectors.append(s)
        clauses.append(tuple(selectors))
    return ClauseGroup("free-needs", tuple(clauses))


VARIANTS = ("basic", "triangles", "full")


def _edges_of_color(config: MandatoryConfig, color: ColorId) -> list[tuple[int, int, ColorId]]:
    return [
        (i, j, c)
        for (i, j), c in sorted(config.coloring.colors.items())
        if c == color
    ]


def build_formula(
    points: int,
    variant: str,
    spec: AlgebraSpec = ALGEBRA_TWO_BLUE,
    k6: bool | None = None,
) -> CnfFormula:
    """Assemble the encoding used for lower-bound certification.

    basic     exactly-one + mandatory precoloring + red-edge needs
    triangles basic + red-clique extension of the precoloring + the
              all-blue-triangle ban + needs of the extension's red edges
    full      triangles + needs of precolored blue edges + needs of every
              free edge

    The shared prefix of the three variants is emitted identically, so each
    variant's clause set is a superset of the previous one's on the same V.
    `k6` overrides whether the red-clique extension is included (defaults
    to True for the non-basic variants when the algebra has two blues).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if spec.p != 1:
        raise ValueError("encodings are defined for the single-red family")
    use_k6 = k6 if k6 is not None else (variant != "basic" and spec.q == 2)
    if use_k6 and spec.q != 2:
        raise ValueError("the red-clique extension is defined for two blues only")

    base_config = mandatory_configuration(spec.q, k6=False)
    if points < base_config.coloring.V:
        raise ValueError(
            f"V={points} cannot hold the {base_config.coloring.V}-vertex configuration"
        )
    vm = VarMap(points, spec.num_diversity)
    groups: list[ClauseGroup] = [exactly_one_clauses(vm)]
    groups.append(precolor_clauses(vm, base_config.coloring, spec))
    red_edges = _edges_of_color(base_config, spec.color_at(0))
    groups.append(need_clauses(vm, red_edges, spec, "red-needs"))

    clique_edges: list[tuple[int, int, ColorId]] = []
    if variant in ("triangles", "full"):
        if use_k6:
            k6_config = mandatory_configuration(spec.q, k6=True)
            if points < k6_config.coloring.V:
                raise ValueError(
                    f"V={points} cannot hold the {k6_config.coloring.V}-vertex "
                    "extended configuration"
                )
            extra = EdgeColoring(points)
            for (i, j), c in sorted(k6_config.coloring.colors.items()):
                if base_config.coloring.color_of(i, j) is None:
                    extra.set_color(i, j, c)
            groups.append(precolor_clauses(vm, extra, spec, "precolor-clique"))
            clique_edges = [(i, j, extra.colors[(i, j)]) for (i, j) in extra.colored_edges()]
        groups.append(triangle_clauses(vm, spec))
        if clique_edges:
            groups.append(need_clauses(vm, clique_edges, spec, "red-needs-clique"))

    if variant == "full":
        for idx, color in enumerate(c for c in spec.diversity_colors() if c.is_blue):
            blue_edges = _edges_of_color(base_config, color)
            groups.append(
                need_clauses(vm, blue_edges, spec, f"blue-needs-b{idx + 1}")
            )
        pinned = set(base_config.coloring.colors)
        pinned.update((i, j) for i, j, _ in clique_edges)
        free = [
            (i, j)
            for j in range(points)
            for i in range(j)
            if (i, j) not in pinned
        ]
        groups.append(free_edge_clauses(vm, free, spec))

    formula = CnfFormula(
        points=points,
        colors=spec.num_diversity,
        variant=variant,
        spec=spec,
        num_vars=vm.num_vars,
        groups=tuple(groups),
        comments=(
            f"variant={variant} V={points} t={spec.num_diversity} "
            f"clique-extension={'yes' if use_k6 else 'no'}",
        ),
    )
    formula.validate()
    return formula


def all_edges_formula(points: int, spec: AlgebraSpec = ALGEBRA_TWO_BLUE) -> CnfFormula:
    """Encoding whose models are exactly the valid representations on V points.

    exactly-one + triangle ban + free-edge needs over every edge, with no
    precoloring; used for round-trip testing against the brute-force
    checker.
    """
    if spec.p != 1:
        raise ValueError("encodings are defined for the single-red family")
    vm = VarMap(points, spec.num_diversity)
    groups = [exactly_one_clauses(vm), triangle_clauses(vm, spec)]
    free = [(i, j) for j in range(points) for i in range(j)]
    groups.append(free_edge_clauses(vm, free, spec))
    formula = CnfFormula(
        points=points,
        colors=spec.num_diversity,
        variant="all-edges",
        spec=spec,
        num_vars=vm.num_vars,
        groups=tuple(groups),
        full_check=True,
        comments=(f"variant=all-edges V={points} t={spec.num_diversity}",),
    )
    formula.validate()
    return formula


def decode_model(formula: CnfFormula, model: dict[int, bool]) -> EdgeColoring:
    """Base-variable assignment -> total edge coloring.

    Requires exactly one true color per edge (guaranteed by any model of
    the exactly-one family).
    """
    vm = VarMap(formula.points, formula.colors)
    out = EdgeColoring(formula.points)
    for j in range(formula.points):
        for i in range(j):
            chosen = [c for c in range(vm.t) if model.get(vm.var(i, j, c))]
            if len(chosen) != 1:
                raise ValueError(f"edge ({i}, {j}) has {len(chosen)} colors in model")
            out.set_color(i, j, formula.spec.color_at(chosen[0]))
    return out
