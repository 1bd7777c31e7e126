"""Color algebra for the flexible red/blue family.

An algebra in this family has an identity color plus p red and q blue
diversity colors.  Red colors are flexible: a triangle of diversity colors
is mandatory exactly when at least one of its three colors is red, and
all-blue triangles are forbidden.  Everything else here is derived from
that one rule: composition tables, the "needs" of an edge color (ordered
color pairs some witness vertex must realize), and closed-form bounds on
the number of points a representation requires.

Colors order reds before blues, by index; every iteration order, file
format, and hash in the package inherits that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

IDENTITY_KIND = "identity"
RED_KIND = "red"
BLUE_KIND = "blue"

_KIND_ORDER = {IDENTITY_KIND: 0, RED_KIND: 1, BLUE_KIND: 2}


@dataclass(frozen=True, slots=True)
class ColorId:
    """A single color: the identity, or the i-th red / i-th blue atom."""

    kind: str
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown color kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("color index must be nonnegative")
        if self.kind == IDENTITY_KIND and self.index != 0:
            raise ValueError("identity color has no index")

    @property
    def is_identity(self) -> bool:
        return self.kind == IDENTITY_KIND

    @property
    def is_red(self) -> bool:
        return self.kind == RED_KIND

    @property
    def is_blue(self) -> bool:
        return self.kind == BLUE_KIND

    @property
    def is_diversity(self) -> bool:
        return self.kind != IDENTITY_KIND

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)

    def __lt__(self, other: "ColorId") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        if self.is_identity:
            return "ColorId(identity)"
        return f"ColorId({self.kind}{self.index})"


IDENTITY = ColorId(IDENTITY_KIND)


def red(index: int = 0) -> ColorId:
    return ColorId(RED_KIND, index)


def blue(index: int) -> ColorId:
    return ColorId(BLUE_KIND, index)


def format_color_name(c: ColorId, single_red: bool) -> str:
    """Short name: 1', r (when it is the only red) or r<i>, b<i> (1-based)."""
    if c.is_identity:
        return "1'"
    if c.is_red:
        return "r" if single_red else f"r{c.index + 1}"
    return f"b{c.index + 1}"


def parse_color_name(name: str) -> ColorId:
    """Inverse of `format_color_name` with no range check; bare r is red 0."""
    name = name.strip()
    if name == "1'":
        return IDENTITY
    if name == "r":
        return red(0)
    if name[:1] in ("r", "b") and name[1:].isdigit():
        idx = int(name[1:]) - 1
        return red(idx) if name[0] == "r" else blue(idx)
    raise ValueError(f"unrecognized color name {name!r}")


def parse_header(text: str, kind: str, keys: tuple[str, ...]) -> tuple[int, ...]:
    """The integer `keys` of the `<kind> key=value ...` first line of a file."""
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError(f"empty file; expected a {kind!r} header")
    words = lines[0].split()
    if len(words) != len(keys) + 1 or words[0] != kind:
        raise ValueError(f"bad header {lines[0]!r}")
    fields = dict(word.partition("=")[::2] for word in words[1:])
    for key in keys:
        if key not in fields:
            raise ValueError(f"header {lines[0]!r} has no {key}=")
    return tuple(int(fields[key]) for key in keys)


@dataclass(frozen=True, slots=True)
class AlgebraSpec:
    """The family member with p red (flexible) and q blue diversity colors.

    (p=1, q=1) is the three-atom algebra with one red and one blue;
    (p=1, q=n) is the n-blue generalization whose minimum representation
    size this package studies; (p=n, q=n) is the refinement obtained by
    splitting both colors n ways.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError("need at least one red and one blue color")

    @property
    def num_diversity(self) -> int:
        return self.p + self.q

    def diversity_colors(self) -> tuple[ColorId, ...]:
        return tuple(red(i) for i in range(self.p)) + tuple(
            blue(i) for i in range(self.q)
        )

    def color_index(self, c: ColorId) -> int:
        """Rank of a diversity color: reds 0..p-1, blues p..p+q-1."""
        self._require_diversity(c)
        return c.index if c.is_red else self.p + c.index

    def color_at(self, idx: int) -> ColorId:
        if not 0 <= idx < self.num_diversity:
            raise ValueError(f"color index {idx} out of range")
        return red(idx) if idx < self.p else blue(idx - self.p)

    def color_name(self, c: ColorId) -> str:
        """Short name: 1', r / r<i>, b<i> (1-based indices)."""
        if c.is_diversity:
            self._require_diversity(c)
        return format_color_name(c, single_red=self.p == 1)

    def parse_color(self, name: str) -> ColorId:
        c = parse_color_name(name)
        if name.strip() == "r" and self.p != 1:
            raise ValueError("bare 'r' is ambiguous with several reds")
        if c.is_diversity:
            self._require_diversity(c)
        return c

    def _require_diversity(self, c: ColorId) -> None:
        if c.is_identity:
            raise ValueError("identity is not a diversity color")
        bound = self.p if c.is_red else self.q
        if c.index >= bound:
            raise ValueError(f"{c!r} out of range for p={self.p}, q={self.q}")


ALGEBRA_ONE_BLUE = AlgebraSpec(1, 1)
ALGEBRA_TWO_BLUE = AlgebraSpec(1, 2)


class NeedPair(NamedTuple):
    """An ordered pair of diversity colors a witness vertex must realize."""

    first: ColorId
    second: ColorId


def is_mandatory(spec: AlgebraSpec, c1: ColorId, c2: ColorId, c3: ColorId) -> bool:
    """Whether the diversity triangle (c1, c2, c3) is mandatory.

    True iff some color in the triple is red; False means the triangle is
    forbidden outright (there is no neutral case in this family).
    """
    for c in (c1, c2, c3):
        spec._require_diversity(c)
    return c1.is_red or c2.is_red or c3.is_red


def composition(spec: AlgebraSpec, c1: ColorId, c2: ColorId) -> frozenset[ColorId]:
    """All colors below the composition c1;c2.

    Contains the identity iff c1 = c2 (every diversity color is symmetric),
    and a diversity c3 iff the triangle (c1, c2, c3) is mandatory.
    """
    out = set()
    if c1 == c2:
        out.add(IDENTITY)
    for c3 in spec.diversity_colors():
        if is_mandatory(spec, c1, c2, c3):
            out.add(c3)
    return frozenset(out)


def needs_of(spec: AlgebraSpec, c: ColorId) -> list[NeedPair]:
    """Ordered witness requirements of an edge colored c.

    Every pair (c1, c2) with c in c1;c2, listed reds-first lexicographically.
    A red edge has (p+q)^2 needs; a blue edge (p+q)^2 - q^2 (the all-blue
    pairs cannot produce it).
    """
    colors = spec.diversity_colors()
    return [
        NeedPair(c1, c2)
        for c1 in colors
        for c2 in colors
        if is_mandatory(spec, c1, c2, c)
    ]


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def lower_bound_points(n: int) -> int:
    """Counting floor for representing the n-blue algebra: 2n^2 + 4n + 1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return 2 * n * n + 4 * n + 1


@dataclass(frozen=True, slots=True)
class UnionBoundFailure:
    """Union-bound failure probability for a uniform random split.

    Splitting the two layers of the 2^(3k+1)-point cube into n parts each,
    the chance that some ordered need of some point goes unwitnessed is at
    most 3n^2 * 2^(3k+1) * (1 - 1/n^2)^(2^k).  `log2_relaxed` is the looser
    variant 2^(3(k+1)) * n^2 * (1 - 1/n^2)^(2^k) that trades the 3n^2
    constant for a rounder power of two.  Both are evaluated in the log2
    domain; linear values overflow/underflow to inf/0.0 gracefully.
    """

    n: int
    k: int
    log2_value: float
    log2_relaxed: float

    @property
    def value(self) -> float:
        return _exp2_or_inf(self.log2_value)

    @property
    def certifies_success(self) -> bool:
        """True when the strict bound is below 1 (a good split must exist)."""
        return self.log2_value < 0.0


def _exp2_or_inf(e: float) -> float:
    try:
        return 2.0**e
    except OverflowError:
        return math.inf


def union_bound_failure(n: int, k: int) -> UnionBoundFailure:
    """Evaluate both failure bounds for an n-way split at layer parameter k."""
    if n < 2:
        raise ValueError("n >= 2 required (a 1-way split has nothing to fail)")
    if k < 1:
        raise ValueError("k >= 1 required")
    decay = (1 << k) * math.log2(1.0 - 1.0 / (n * n))
    log2_value = (3 * k + 1) + math.log2(3 * n * n) + decay
    log2_relaxed = 3 * (k + 1) + math.log2(n * n) + decay
    return UnionBoundFailure(n, k, log2_value, log2_relaxed)


def threshold_check(n: int) -> bool:
    """Exact integer test 5n^3 < 2^n (true for every n >= 14)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return 5 * n**3 < 2**n


def polynomial_regime_k(n: int) -> int:
    """Layer parameter ceil(3*log2(n)), where 2^(3k+1) is about 2n^9."""
    if n < 2:
        raise ValueError("n >= 2 required")
    return math.ceil(3 * math.log2(n))


CERTIFYING_K_MAX = 64


def smallest_certifying_k(n: int) -> int | None:
    """Smallest k <= CERTIFYING_K_MAX whose strict union bound is below 1, else None."""
    for k in range(1, CERTIFYING_K_MAX + 1):
        if union_bound_failure(n, k).certifies_success:
            return k
    return None


def union_bound_at(n: int, k: int | None) -> UnionBoundFailure | None:
    """The union bound at k, or at `smallest_certifying_k(n)` when k is None.

    None for n = 1, where a one-way split has nothing to fail, and when no
    k certifies.
    """
    if n < 2:
        return None
    k = smallest_certifying_k(n) if k is None else k
    return None if k is None else union_bound_failure(n, k)


BOUND_CSV_HEADER = "n,lower,upper,log2_upper"

UPPER_EXPLICIT = "explicit-split"
UPPER_THEOREM = "layer-theorem"
UPPER_POLY = "union-bound"


@dataclass(frozen=True, slots=True)
class BoundRow:
    """One row of the bounds table for the n-blue algebra."""

    n: int
    lower: int
    lower_certified: bool  # True when the solver-certified value replaced the formula
    upper: int | None
    log2_upper: int | None
    upper_source: str

    def to_csv_row(self) -> str:
        upper = "" if self.upper is None else str(self.upper)
        log2 = "" if self.log2_upper is None else str(self.log2_upper)
        return f"{self.n},{self.lower},{upper},{log2}"


def best_upper_bound(n: int) -> tuple[int | None, int | None, str]:
    """Best established upper bound on minimum points for n blues.

    Candidates: the explicit 1024-point split (n = 2 only); the layer
    theorem 2^(3n+1) (n >= 14); and the polynomial-regime union bound
    2^(3k+1) at k = ceil(3*log2(n)), admitted only when the strict bound
    is actually below 1 at that k.  Returns (value, log2, source); value
    is None when no candidate applies (the case for 3 <= n <= 13).
    """
    candidates: list[tuple[int, str]] = []
    if n == 2:
        candidates.append((10, UPPER_EXPLICIT))
    if n >= 14:
        candidates.append((3 * n + 1, UPPER_THEOREM))
    if n >= 2:
        kp = polynomial_regime_k(n)
        if union_bound_failure(n, kp).certifies_success:
            candidates.append((3 * kp + 1, UPPER_POLY))
    if not candidates:
        return None, None, ""
    exp, source = min(candidates)
    return 1 << exp, exp, source


def bound_row(n: int, sat_certified: bool) -> BoundRow:
    """Lower and best upper bound on minimum points for n >= 1 blues.

    With `sat_certified` the n = 2 lower bound is the solver-established 26
    rather than the counting formula's 17.
    """
    lower = lower_bound_points(n)
    certified = sat_certified and n == 2
    upper, log2_upper, source = best_upper_bound(n)
    return BoundRow(n, 26 if certified else lower, certified, upper, log2_upper, source)


def bound_table(n_max: int, sat_certified: bool = True) -> list[BoundRow]:
    """`bound_row` for n = 2..n_max."""
    if n_max < 2:
        raise ValueError("n_max >= 2 required")
    return [bound_row(n, sat_certified) for n in range(2, n_max + 1)]


def iter_bound_csv(rows: list[BoundRow]) -> Iterator[str]:
    yield BOUND_CSV_HEADER
    for row in rows:
        yield row.to_csv_row()
