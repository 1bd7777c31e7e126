"""Edge-coloring view of representations on explicit point sets.

Representing a member of the red/blue family on V points is the same as
coloring the edges of the complete graph K_V with the diversity colors so
that no triangle is all blue and every edge of color c has, for each of
c's needs (c1, c2), a third vertex joined to its endpoints by c1 and c2.
This module checks total colorings by brute force, builds the mandatory
precolored configurations that hang off any red edge (the counting engine
behind the lower bounds), and tabulates the triangle Ramsey floor that
forces large red cliques inside any representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .algebra import (
    AlgebraSpec,
    ColorId,
    NeedPair,
    blue,
    is_mandatory,
    needs_of,
    parse_header,
    red,
)

if TYPE_CHECKING:
    from .cube import GroupColoring

Edge = tuple[int, int]


def _norm_edge(i: int, j: int) -> Edge:
    if i == j:
        raise ValueError("self-loops have no color")
    return (i, j) if i < j else (j, i)


@dataclass
class EdgeColoring:
    """A (possibly partial) diversity coloring of the complete graph on V points."""

    V: int
    colors: dict[Edge, ColorId] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.V < 1:
            raise ValueError("V >= 1 required")
        for (i, j), c in self.colors.items():
            self._check_pair(i, j)
            if not c.is_diversity:
                raise ValueError("edges take diversity colors only")

    def _check_pair(self, i: int, j: int) -> None:
        if not (0 <= i < j < self.V):
            raise ValueError(f"bad edge ({i}, {j}) for V={self.V}")

    def color_of(self, i: int, j: int) -> ColorId | None:
        return self.colors.get(_norm_edge(i, j))

    def set_color(self, i: int, j: int, c: ColorId) -> None:
        e = _norm_edge(i, j)
        self._check_pair(*e)
        if not c.is_diversity:
            raise ValueError("edges take diversity colors only")
        self.colors[e] = c

    def all_edges(self) -> list[Edge]:
        return [(i, j) for j in range(self.V) for i in range(j)]

    def colored_edges(self) -> list[Edge]:
        return sorted(self.colors)

    def uncolored_edges(self) -> list[Edge]:
        return [e for e in self.all_edges() if e not in self.colors]

    @property
    def is_total(self) -> bool:
        return len(self.colors) == self.V * (self.V - 1) // 2


def coloring_from_group(
    coloring: GroupColoring, vertices: Iterable[int] | None = None
) -> EdgeColoring:
    """Difference coloring of a point subset of a cube coloring.

    Vertices are group elements; the edge {u, v} takes the color of u XOR v.
    With no subset given, all 2^m elements are used (mind the quadratic
    blowup).  The vertex order given fixes the index mapping.
    """
    verts = list(vertices) if vertices is not None else list(range(1 << coloring.m))
    if len(set(verts)) != len(verts):
        raise ValueError("duplicate vertices")
    out = EdgeColoring(len(verts))
    for j in range(len(verts)):
        for i in range(j):
            out.set_color(i, j, coloring.color_of(verts[i] ^ verts[j]))
    return out


@dataclass(frozen=True, slots=True)
class RepViolation:
    """A single defect of a total coloring.

    kind "forbidden-triangle" carries the offending vertex triple; kind
    "missing-need" carries the edge and the unwitnessed need; kind
    "missing-color" (a diversity color no edge has) carries only its message.
    """

    kind: str
    edge: Edge | None
    need: NeedPair | None
    triangle: tuple[int, int, int] | None
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True, slots=True)
class RepCheckResult:
    ok: bool
    violations: tuple[RepViolation, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_representation(c: EdgeColoring, spec: AlgebraSpec) -> RepCheckResult:
    """Brute-force check of a total coloring against the algebra.

    Reports every defect, sorted: forbidden triangles first (vertex-lex),
    then missing needs (edge-lex, then need order), then colors no edge
    realizes (color order).  Rejects partial colorings.
    """
    if not c.is_total:
        raise ValueError("coloring must be total; precolorings cannot be checked")
    rank = {col: i for i, col in enumerate(spec.diversity_colors())}
    for col in c.colors.values():
        if col not in rank:
            raise ValueError(f"{col!r} is not a color of the given algebra")

    triangles = []
    for k in range(c.V):
        for j in range(k):
            for i in range(j):
                c1, c2, c3 = c.colors[(i, j)], c.colors[(i, k)], c.colors[(j, k)]
                if not is_mandatory(spec, c1, c2, c3):
                    triangles.append(
                        RepViolation(
                            "forbidden-triangle", None, None, (i, j, k),
                            f"all-blue triangle on ({i}, {j}, {k})",
                        )
                    )
    triangles.sort(key=lambda v: v.triangle)

    missing = []
    for (i, j) in c.colored_edges():
        c0 = c.colors[(i, j)]
        for need in needs_of(spec, c0):
            if not any(
                k not in (i, j)
                and c.colors[_norm_edge(i, k)] == need.first
                and c.colors[_norm_edge(k, j)] == need.second
                for k in range(c.V)
            ):
                missing.append(
                    RepViolation(
                        "missing-need", (i, j), need, None,
                        f"edge ({i}, {j}) color {spec.color_name(c0)} lacks a "
                        f"({spec.color_name(need.first)}, "
                        f"{spec.color_name(need.second)}) witness",
                    )
                )
    missing.sort(key=lambda v: (v.edge, rank[v.need.first], rank[v.need.second]))
    realized = set(c.colors.values())
    unrealized = [
        RepViolation("missing-color", None, None, None,
                     f"no edge realizes color {spec.color_name(col)}")
        for col in spec.diversity_colors()
        if col not in realized
    ]
    found = tuple(triangles + missing + unrealized)
    return RepCheckResult(not found, found)


# ---------------------------------------------------------------------------
# mandatory configurations off a red edge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MandatoryConfig:
    """The precolored subgraph every red edge must support.

    For blue count n: endpoints x0, x1 joined red; n^2 BB vertices, one per
    blue-blue need of that edge; 2n RB vertices, one per mixed need; all
    BB-BB and BB-RB edges red (any blue one would close an all-blue
    triangle through an endpoint); RB-RB edges deliberately uncolored.
    """

    n: int
    coloring: EdgeColoring

    def bb_vertex(self, i: int, j: int) -> int:
        # BB vertices follow x0, x1 in (i, j) lexicographic order, 1-based
        return 2 + (i - 1) * self.n + (j - 1)

    def rb_vertex(self, side: int, i: int) -> int:
        return 2 + self.n * self.n + side * self.n + (i - 1)


def mandatory_configuration(n: int, k6: bool = False) -> MandatoryConfig:
    """Build the forced configuration for the n-blue algebra.

    Vertices: 0 = x0, 1 = x1, then BB(i,j) lexicographic, then RB side-0,
    then RB side-1, then (with `k6`, defined for n = 2 only) two extra
    vertices completing the four BB vertices to a red six-clique, the
    clique edges red and everything else about them uncolored.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if k6 and n != 2:
        raise ValueError("the red six-clique extension is defined for n = 2 only")
    V = 2 + n * n + 2 * n + (2 if k6 else 0)
    config = MandatoryConfig(n, EdgeColoring(V))
    coloring = config.coloring
    coloring.set_color(0, 1, red(0))

    bb: list[int] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            v = config.bb_vertex(i, j)
            bb.append(v)
            coloring.set_color(0, v, blue(i - 1))
            coloring.set_color(1, v, blue(j - 1))
    rb: list[int] = []
    for side in (0, 1):
        for i in range(1, n + 1):
            v = config.rb_vertex(side, i)
            rb.append(v)
            if side == 0:
                coloring.set_color(0, v, red(0))
                coloring.set_color(1, v, blue(i - 1))
            else:
                coloring.set_color(0, v, blue(i - 1))
                coloring.set_color(1, v, red(0))
    for a in bb:
        for b in bb:
            if a < b:
                coloring.set_color(a, b, red(0))
        for w in rb:
            coloring.set_color(a, w, red(0))
    if k6:
        clique = bb + [V - 2, V - 1]
        for a in clique:
            for b in clique:
                if a < b and coloring.color_of(a, b) is None:
                    coloring.set_color(a, b, red(0))
    return config


@dataclass(frozen=True)
class NeedsDeficit:
    """Which needs of a probe edge the configuration itself witnesses."""

    edge: Edge
    satisfied: dict[NeedPair, tuple[int, ...]]  # need -> witness vertices
    unsatisfied: tuple[NeedPair, ...]


def needs_deficit(config: MandatoryConfig, i: int, j: int) -> NeedsDeficit:
    """Evaluate the probe edge's needs against the precoloring alone.

    Only vertices with both connecting edges already colored can witness.
    The probe must be colored.
    """
    c = config.coloring
    edge = _norm_edge(i, j)
    c0 = c.color_of(*edge)
    if c0 is None:
        raise ValueError(f"probe edge {edge} is uncolored")
    spec = AlgebraSpec(1, config.n)
    satisfied: dict[NeedPair, tuple[int, ...]] = {}
    unsatisfied = []
    for need in needs_of(spec, c0):
        witnesses = tuple(
            k
            for k in range(c.V)
            if k not in edge
            and c.color_of(edge[0], k) == need.first
            and c.color_of(k, edge[1]) == need.second
        )
        if witnesses:
            satisfied[need] = witnesses
        else:
            unsatisfied.append(need)
    return NeedsDeficit(edge, satisfied, tuple(unsatisfied))


# ---------------------------------------------------------------------------
# Ramsey floor for red cliques
# ---------------------------------------------------------------------------

# R(m, 3): least V forcing a red K_m or a blue triangle in any 2-coloring.
# Any valid coloring here has no all-blue triangle, so V >= R(m, 3) forces
# a red m-clique.  Only the m = 4 and m = 6 entries carry certification
# weight; the others are standard values included for context.
RAMSEY_TRIANGLE: dict[int, int] = {1: 1, 2: 3, 3: 6, 4: 9, 5: 14, 6: 18}
RAMSEY_CERTIFIED: frozenset[int] = frozenset({4, 6})


@dataclass(frozen=True, slots=True)
class RedCliqueFloor:
    """Largest red clique forced by the point count."""

    points: int
    size: int
    floor_only: bool  # points beyond the table; larger cliques may be forced
    informational: bool  # deciding table entry carries no certification weight

    def __int__(self) -> int:
        return self.size


def red_clique_floor(points: int) -> RedCliqueFloor:
    """Largest m with R(m, 3) <= points, from the embedded table."""
    if points < 1:
        raise ValueError("points >= 1 required")
    best = max(m for m, r in RAMSEY_TRIANGLE.items() if r <= points)
    floor_only = points > max(RAMSEY_TRIANGLE.values())
    return RedCliqueFloor(points, best, floor_only, best not in RAMSEY_CERTIFIED)


# ---------------------------------------------------------------------------
# coloring file format
# ---------------------------------------------------------------------------


def write_coloring(c: EdgeColoring, spec: AlgebraSpec) -> str:
    """Serialize as `kn V=<V> colors=<t>` plus one `i j <name>` line per edge."""
    lines = [f"kn V={c.V} colors={spec.num_diversity}"]
    for (i, j) in c.colored_edges():
        lines.append(f"{i} {j} {spec.color_name(c.colors[(i, j)])}")
    return "\n".join(lines) + "\n"


def coloring_header(text: str) -> tuple[int, int]:
    """(V, colors) from the `kn V=<V> colors=<t>` header of a coloring file."""
    return parse_header(text, "kn", ("V", "colors"))


def parse_coloring(text: str, spec: AlgebraSpec) -> EdgeColoring:
    """Parse the coloring file format; partial colorings are permitted."""
    V, t = coloring_header(text)
    if t != spec.num_diversity:
        raise ValueError(
            f"file declares {t} colors but the algebra has {spec.num_diversity}"
        )
    out = EdgeColoring(V)
    for line in [ln.strip() for ln in text.splitlines() if ln.strip()][1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad edge line {line!r}")
        i, j, name = int(parts[0]), int(parts[1]), parts[2]
        if out.color_of(i, j) is not None:
            raise ValueError(f"edge ({i}, {j}) colored twice")
        out.set_color(i, j, spec.parse_color(name))
    return out
