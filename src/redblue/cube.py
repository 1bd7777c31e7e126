"""Boolean-cube machinery: subsets of (Z/2Z)^m as dense bitmasks.

The group G = (Z/2Z)^m is the integers [0, 2^m) under XOR.  A subset is a
single 2^m-bit Python integer whose bit z records membership of z, which
makes sumsets word-parallel and keeps every count exact.  A sumset splits
each element of one operand into a bit position inside a 64-bit word and a
word index: it builds one table of the other operand's words with their
bits moved by every in-word position, gathers the word translates from it
with numpy, and stops as soon as it holds every element a sumset of the
two can hold.  The caller gathers a short first block alone, where dense
sums stop, and deals the other blocks to up to `SHARE_CAP` shares, one per
usable CPU, on threads started by each process's first sum that needs
them.  The verifier uses only this route, so it stays independent of the
counts below.  Witness counting
(how many ordered pairs (x, y) in X x Y satisfy x XOR y = z) has two
independent implementations: a vectorized naive enumeration, and the
Walsh-Hadamard transform route, which diagonalizes XOR convolution.  Their
agreement is part of the test suite's oracle discipline.

The layer split of the m = 3k+1 cube colors weights 1..2k "red" and
weights 2k+1..3k+1 "blue"; the blue layer is sum-free, which is what makes
these partitions useful seeds for representation search.  A partition
computes its layers' transforms once, when it is built, for its identity
checks, the witness table and every split of it.  A hand-tuned refinement
of the k = 3 blue layer into two parts, shipped as data, gives
an exact 1024-point representation of the two-blue algebra; the verifier
here checks such colorings against any member of the family.
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebra import (
    AlgebraSpec,
    ColorId,
    blue,
    format_color_name,
    is_mandatory,
    parse_color_name,
    parse_header,
    red,
)

# dense 2^m-bit masks; a pair count then takes m + 1 <= 25 bits, so at least
# one count row fits beside the 2^m factor of an inverse transform in 64 bits
CUBE_DIM_CAP = 24


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed the configured memory budget."""


def _check_dim(m: int) -> None:
    if not 1 <= m <= CUBE_DIM_CAP:
        raise ResourceLimitError(f"dimension m={m} outside supported range 1..{CUBE_DIM_CAP}")


def weight(x: int) -> int:
    """Hamming weight of a cube element."""
    return x.bit_count()


@dataclass(frozen=True, slots=True)
class CubeSubset:
    """An immutable subset of (Z/2Z)^m stored as a 2^m-bit mask."""

    m: int
    mask: int

    def __post_init__(self) -> None:
        _check_dim(self.m)
        if self.mask < 0 or self.mask >> (1 << self.m):
            raise ValueError("mask has bits outside [0, 2^m)")

    @classmethod
    def from_elements(cls, m: int, elements: Iterable[int] | np.ndarray) -> "CubeSubset":
        _check_dim(m)
        if isinstance(elements, np.ndarray):
            xs = elements
            extremes = (xs.min(), xs.max()) if xs.size else ()
        else:
            xs = list(elements)
            extremes = (min(xs, default=0), max(xs, default=0))
        # the extremes are checked before numpy sees an int beyond 64 bits
        for x in extremes:
            if not 0 <= x < 1 << m:
                raise ValueError(f"element {x} outside [0, 2^{m})")
        # dense indicator then packbits: linear, unlike 2^m-bit int updates
        indicator = np.zeros(1 << m, dtype=bool)
        indicator[xs] = True
        return cls.from_indicator(m, indicator)

    @classmethod
    def empty(cls, m: int) -> "CubeSubset":
        return cls(m, 0)

    @classmethod
    def full(cls, m: int) -> "CubeSubset":
        return cls(m, (1 << (1 << m)) - 1)

    @classmethod
    def from_indicator(cls, m: int, indicator: np.ndarray) -> "CubeSubset":
        _check_dim(m)
        bits = np.asarray(indicator != 0, dtype=np.uint8)
        if bits.shape != (1 << m,):
            raise ValueError("indicator length must be 2^m")
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls(m, int.from_bytes(packed, "little"))

    def __contains__(self, x: int) -> bool:
        return 0 <= x < (1 << self.m) and bool((self.mask >> x) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def elements(self) -> Iterator[int]:
        """Members in ascending order."""
        yield from self.to_array().tolist()

    def min_element(self) -> int:
        if not self.mask:
            raise ValueError("empty subset has no minimum")
        return (self.mask & -self.mask).bit_length() - 1

    def to_array(self) -> np.ndarray:
        """Members as an ascending int64 array."""
        return np.nonzero(self.indicator())[0].astype(np.int64)

    def indicator(self) -> np.ndarray:
        """Dense 0/1 vector of length 2^m, int64."""
        nbytes = max(1, ((1 << self.m) + 7) // 8)
        raw = np.frombuffer(self.mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: 1 << self.m].astype(np.int64)

    def _require_same_dim(self, other: "CubeSubset") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: m={self.m} vs m={other.m}")

    def __or__(self, other: "CubeSubset") -> "CubeSubset":
        self._require_same_dim(other)
        return CubeSubset(self.m, self.mask | other.mask)

    def __and__(self, other: "CubeSubset") -> "CubeSubset":
        self._require_same_dim(other)
        return CubeSubset(self.m, self.mask & other.mask)

    def __sub__(self, other: "CubeSubset") -> "CubeSubset":
        self._require_same_dim(other)
        return CubeSubset(self.m, self.mask & ~other.mask)

    def __xor__(self, other: "CubeSubset") -> "CubeSubset":
        self._require_same_dim(other)
        return CubeSubset(self.m, self.mask ^ other.mask)

    def without_zero(self) -> "CubeSubset":
        return CubeSubset(self.m, self.mask & ~1)

    def isdisjoint(self, other: "CubeSubset") -> bool:
        self._require_same_dim(other)
        return self.mask & other.mask == 0


def singleton(m: int, x: int) -> CubeSubset:
    return CubeSubset.from_elements(m, (x,))


GATHER_BLOCK_WORDS = 1 << 16  # words per gather block: 512 KiB of uint64 plus their int64 indices
# translates in a sum's first block, which the caller gathers alone: R+R of
# the layer split at k saturates after 2^(k+1) of them, 64 at k = 5
FIRST_BLOCK_TRANSLATES = 64
# most shares one sum deals its blocks to, the caller's among them; each
# share holds a 1 MiB pair of blocks
SHARE_CAP = 4
# word masks of the bit positions p < 64 with bit b of p clear, b = 0..5
_LOW_HALVES = [np.uint64(sum(1 << p for p in range(64) if not p >> b & 1)) for b in range(6)]


def _words(mask: int, m: int) -> np.ndarray:
    """A 2^m-bit mask as read-only little-endian uint64 words (one if m < 6)."""
    nwords = max(1, (1 << m) >> 6)
    return np.frombuffer(mask.to_bytes(8 * nwords, "little"), dtype="<u8")


def _translate_table(words: np.ndarray, m: int) -> np.ndarray:
    """Rows lo < min(64, 2^m): row lo is `words` with every bit position p
    inside a word moved to p XOR lo.  Built by doubling: the rows from 2^b
    on are the first 2^b rows with the two halves of every 2^(b+1)-bit
    field swapped, which moves each bit by XOR with 2^b.  Each step
    writes in place beside one spare block: with a temporary per
    operation the table took 1.5x as long at m = 16 and 19."""
    table = np.empty((min(64, 1 << m), len(words)), dtype=np.uint64)
    table[0] = words
    spare = np.empty_like(table[: len(table) // 2])
    for b in range(min(6, m)):
        shift, low = np.uint64(1 << b), _LOW_HALVES[b]
        half, moved, high = table[: 1 << b], table[1 << b : 2 << b], spare[: 1 << b]
        np.bitwise_and(half, low, out=moved)
        moved <<= shift
        np.right_shift(half, shift, out=high)
        high &= low
        moved |= high
    return table


def _or_of_translates(
    flat: np.ndarray, idx: np.ndarray, offsets: np.ndarray, index: np.ndarray, gathered: np.ndarray
) -> np.ndarray:
    """OR over o in `offsets` of flat[idx XOR o]: one gather and one reduce,
    through the first len(offsets) rows of a share's `index` (int64) and
    `gathered` (uint64) blocks, which every block of the share reuses:
    allocating them per block made an in-process `check-rep` at k = 5
    twice as slow."""
    index, gathered = index[: len(offsets)], gathered[: len(offsets)]
    np.bitwise_xor(idx, offsets[:, None], out=index)
    # every index is in range, so "clip" changes none; it spares take a copy of `out`
    np.take(flat, index, out=gathered, mode="clip")
    return np.bitwise_or.reduce(gathered, axis=0)


def _gather_blocks(rows: int, nwords: int) -> tuple[np.ndarray, np.ndarray]:
    """A share's index and gather blocks, `rows` translates of `nwords` each."""
    index = np.empty((rows, nwords), dtype=np.int64)
    return index, np.empty_like(index, dtype=np.uint64)


class _Union:
    """The OR of a sum's gather blocks, which its shares add to under a lock.

    `stop` is set once the words equal `top`, or when a share fails; every
    share reads it before each block and ends there."""

    def __init__(self, top: np.ndarray):
        self.top = top
        self.words = np.zeros_like(top)
        self.stop = False
        self._lock = threading.Lock()

    def add(self, block: np.ndarray) -> None:
        with self._lock:
            self.words |= block
            if np.array_equal(self.words, self.top):
                self.stop = True


def _gather_share(
    flat: np.ndarray, idx: np.ndarray, offsets: np.ndarray, starts: range, rows: int,
    union: _Union, blocks: tuple[np.ndarray, np.ndarray],
) -> None:
    """OR into `union` the blocks offsets[start : start + rows], start in
    `starts`, until it stops; a share that fails stops the others."""
    try:
        for start in starts:
            if union.stop:
                return
            union.add(_or_of_translates(flat, idx, offsets[start : start + rows], *blocks))
    except BaseException:
        union.stop = True
        raise


_pool = (None, None)  # (pid, threads): a forked child has the pool but not its threads
_pool_lock = threading.Lock()


def _share_pool():
    """The threads that run the helper shares of every sum, started in each
    process by its first sum that deals blocks to more than one share."""
    global _pool
    with _pool_lock:
        if _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            threads = ThreadPoolExecutor(SHARE_CAP - 1, thread_name_prefix="redblue-sumset")
            _pool = (os.getpid(), threads)
        return _pool[1]


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sumset(x: CubeSubset, y: CubeSubset) -> CubeSubset:
    """The XOR sumset {a XOR b : a in x, b in y}.

    An element e of the smaller operand splits into its low six bits lo,
    a bit position inside a 64-bit word, and its word index hi = e >> 6:
    translating by e moves every bit inside a word by XOR with lo and then
    every word by XOR with hi.  The larger operand's uint64 words are
    first expanded into a table whose row lo holds them moved by lo
    (`_translate_table`, six doubling steps).  Word w of the translate by
    e is then table[lo, w XOR hi]; since w and hi are below the row length
    nwords, its flat index in the table is w XOR (lo * nwords + hi).  The
    smaller operand becomes those offsets, lo-major, from one `unpackbits`
    of its words; each block of them is one gather and one OR-reduce.  A
    block holds at most `GATHER_BLOCK_WORDS` gathered words (one translate
    when a single one is larger), and the first at most
    `FIRST_BLOCK_TRANSLATES` translates.  The sum stops once the union has
    reached the largest possible sumset: the whole group when the operands
    intersect (0 = a XOR a is then in it), the group minus 0 when they are
    disjoint.  The stop is exact, and dense sums such as R+R at k <= 5
    reach it within the first block.

    The caller gathers the first block alone.  It deals the blocks left
    round-robin to min(usable CPUs, `SHARE_CAP`, blocks left) shares,
    runs share 0 itself and the others on the pool of threads its process
    starts in the first sum that needs one; numpy releases the GIL while
    it gathers.  Each share ORs its blocks into one union under a lock,
    and every share stops once the union is the largest possible sumset.
    OR is order-free, so the result is the same in any schedule.  With one
    usable CPU, or one block left, the caller gathers every block and no
    thread starts.  An exception in any share stops the others at their
    next block and is raised once every share has ended.

    The table holds one 64-bit word per cube element: 512 KiB at m = 16,
    32 MiB at m = 22 and 128 MiB at m = 24.  Each share holds an index
    and a gather block of up to 512 KiB each.
    """
    x._require_same_dim(y)
    m = x.m
    if not x or not y:
        return CubeSubset.empty(m)
    small, large = (x, y) if len(x) <= len(y) else (y, x)
    bound = CubeSubset.full(m)
    if x.isdisjoint(y):
        bound = bound.without_zero()
    top = _words(bound.mask, m)
    nwords = len(top)
    flat = _translate_table(_words(large.mask, m), m).ravel()
    bits = np.unpackbits(_words(small.mask, m).view(np.uint8), bitorder="little")
    offsets = np.flatnonzero(bits.reshape(nwords, 64).T)  # lo * nwords + hi, lo-major
    idx = np.arange(nwords)
    rows = min(max(1, GATHER_BLOCK_WORDS // nwords), len(offsets))
    first = min(rows, FIRST_BLOCK_TRANSLATES)
    union = _Union(top)
    caller_blocks = _gather_blocks(rows, nwords)
    union.add(_or_of_translates(flat, idx, offsets[:first], *caller_blocks))
    left = -(-(len(offsets) - first) // rows)
    shares = 1 if union.stop or left <= 1 else min(usable_cpus(), SHARE_CAP, left)
    starts = [range(first + s * rows, len(offsets), shares * rows) for s in range(shares)]
    futures = [
        _share_pool().submit(_gather_share, flat, idx, offsets, starts[s], rows, union,
                             _gather_blocks(rows, nwords))
        for s in range(1, shares)
    ]
    try:
        _gather_share(flat, idx, offsets, starts[0], rows, union, caller_blocks)
    finally:
        for future in futures:
            future.exception()  # waits: no share outlives the sum
    for future in futures:
        future.result()
    if union.stop:  # every share ended without failing: the union is full
        return bound
    return CubeSubset(m, int.from_bytes(union.words.tobytes(), "little"))


# ---------------------------------------------------------------------------
# exact pair counting: naive and transform routes
# ---------------------------------------------------------------------------


NAIVE_BLOCK_PAIRS = 1 << 20  # pairs enumerated per block: 8 MiB of int64 XORs


def pair_counts_naive(x: CubeSubset, y: CubeSubset) -> np.ndarray:
    """counts[z] = #{(a, b) in x X y : a XOR b = z}, by direct enumeration.

    The pairs are enumerated in blocks of rows of the XOR table, so memory
    stays bounded by `NAIVE_BLOCK_PAIRS` however large the operands are.
    """
    x._require_same_dim(y)
    n = 1 << x.m
    counts = np.zeros(n, dtype=np.int64)
    if not x or not y:
        return counts
    xs = x.to_array()
    ys = y.to_array()
    rows = max(1, NAIVE_BLOCK_PAIRS // len(ys))
    for start in range(0, len(xs), rows):
        xors = np.bitwise_xor.outer(xs[start : start + rows], ys).ravel()
        counts += np.bincount(xors, minlength=n)
    return counts


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of an integer vector, input left untouched.

    Unnormalized: applying it twice multiplies by the length.  Any integer
    dtype works, and the result has the input's dtype; a uint64 vector
    wraps mod 2^64, which `pair_count_rows` relies on.  Each stage
    is the constant-geometry butterfly (Pease, J. ACM 1968): sums of the
    even/odd neighbours fill the low half of the other buffer and their
    differences the high half.  That applies H_2 to the lowest index bit
    and rotates the bits right by one, so after log2(n) stages every bit is
    done and back in place, with two whole-array operations per stage.
    """
    n = vec.shape[0]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    x = vec.copy()
    y = np.empty_like(x)
    h = n >> 1
    for _ in range(n.bit_length() - 1):
        np.add(x[0::2], x[1::2], out=y[:h])
        np.subtract(x[0::2], x[1::2], out=y[h:])
        x, y = y, x
    return x


def pair_count_rows(products: Iterable[np.ndarray], rows: Sequence[np.ndarray], m: int) -> None:
    """Write the exact pair counts of each forward-transform product into
    its row of `rows`, several products per inverse transform.

    A product is fa * fb, the transforms of two 0/1 vectors of length 2^m
    multiplied pointwise (int64).  Its inverse transform is 2^m times the
    pair counts of the two sets, each at most 2^m, so a count fits in
    m + 1 bits and (64 - m) // (m + 1) products share one inverse
    (Kronecker substitution): product i of a pack, viewed as uint64, is
    shifted to bit i(m + 1) and added to the pack.  The butterfly is exact
    mod 2^64, and the true result, 2^m times the sum of count_i *
    2^(i(m + 1)), lies in [0, 2^64), so the packed result is exact.  Its
    low m bits must then be zero, or RuntimeError is raised.  There is one
    product per row; the products are scratch, shifted in place, and
    `rows` are contiguous int64 vectors of length 2^m.
    """
    width = m + 1
    per = (64 - m) // width
    field = np.uint64((1 << width) - 1)
    products = iter(products)
    for start in range(0, len(rows), per):
        pack = rows[start : start + per]
        acc = next(products).view(np.uint64)  # the pack's first row sits at bit 0
        for i in range(1, len(pack)):
            word = next(products).view(np.uint64)
            word <<= np.uint64(i * width)
            acc += word
            del word  # freed before the transform
        packed = walsh_hadamard(acc)
        del acc
        if (packed & np.uint64((1 << m) - 1)).any():
            raise RuntimeError("transform output not divisible by 2^m; overflow?")
        packed >>= np.uint64(m)
        for row in pack:
            np.bitwise_and(packed, field, out=row.view(np.uint64))
            packed >>= np.uint64(width)
        del packed


def pair_counts(x: CubeSubset, y: CubeSubset) -> np.ndarray:
    """Same counts as pair_counts_naive, via XOR convolution.

    Transform both indicators, multiply pointwise, and transform back
    through `pair_count_rows`, which divides by 2^m.  The product is exact
    in int64, since transform entries of 0/1 vectors are bounded by 2^m
    and m <= 24, and the inverse is exact mod 2^64 with a true result in
    [0, 2^64).
    """
    x._require_same_dim(y)
    fx = walsh_hadamard(x.indicator())
    fy = walsh_hadamard(y.indicator())
    counts = np.empty(1 << x.m, dtype=np.int64)
    pair_count_rows([fx * fy], [counts], x.m)
    return counts


def support(counts: np.ndarray, m: int) -> CubeSubset:
    """The subset where a count vector is nonzero."""
    return CubeSubset.from_indicator(m, counts != 0)


# ---------------------------------------------------------------------------
# layer partitions of the m = 3k+1 cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LayerPartition:
    """Diversity split of (Z/2Z)^(3k+1) into low layers R and high layers B.

    Built, it holds what every split of it starts from, read-only:
    `layers`, the bool indicators of R and B; `fwd`, their Walsh-Hadamard
    transforms; and `rows`, the exact pair counts of R*R, R*B and B*B,
    which share inverse transforms (`pair_count_rows`; one at k <= 4).
    """

    k: int
    R: CubeSubset
    B: CubeSubset
    layers: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    fwd: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    rows: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indicators = [self.R.indicator(), self.B.indicator()]
        fwd = [walsh_hadamard(vec) for vec in indicators]
        layers = [vec.astype(bool) for vec in indicators]
        del indicators  # int64, freed before the rows, whose build sets the peak
        rows = np.empty((3, 1 << self.m), dtype=np.int64)
        pair_count_rows((fwd[i] * fwd[j] for i, j in ((0, 0), (0, 1), (1, 1))), rows, self.m)
        for name, vecs in (("layers", layers), ("fwd", fwd), ("rows", list(rows))):
            for vec in vecs:
                vec.flags.writeable = False
            object.__setattr__(self, name, tuple(vecs))

    @property
    def m(self) -> int:
        return 3 * self.k + 1


def _weights_vector(m: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << m, dtype=np.uint32)).astype(np.int64)


def layer_partition(k: int) -> LayerPartition:
    """Build the weight-layer split at parameter k and check its identities.

    R holds weights 1..2k and B weights 2k+1..3k+1.  Construction checks
    R+R = G, R+B = G minus 0, and B+B = R plus 0 (B is sum-free) on the
    supports of the partition's `rows`, and raises RuntimeError when one
    fails (building the rows raises it when their transform is inexact).
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    m = 3 * k + 1
    _check_dim(m)
    w = _weights_vector(m)
    r_part = CubeSubset.from_indicator(m, (w >= 1) & (w <= 2 * k))
    b_part = CubeSubset.from_indicator(m, w >= 2 * k + 1)
    del w  # freed before the transforms, which set the peak
    part = LayerPartition(k, r_part, b_part)

    full = CubeSubset.full(m)
    identities = {"R+R = G": full, "R+B = G minus 0": full.without_zero(),
                  "B+B = R plus 0": r_part | singleton(m, 0)}
    for row, (identity, expected) in zip(part.rows, identities.items()):
        if support(row, m) != expected:
            raise RuntimeError(f"layer identity {identity} fails at k={k}")
    return part


class WitnessStat(NamedTuple):
    min_count: int
    argmin: int


WITNESS_CASES: tuple[tuple[str, str, str, str], ...] = (
    ("R<=B+B", "R", "B", "B"),
    ("B<=B+R", "B", "B", "R"),
    ("B<=R+R", "B", "R", "R"),
    ("R<=B+R", "R", "B", "R"),
    ("R<=R+R", "R", "R", "R"),
)


def witness_minima(part: LayerPartition) -> dict[str, WitnessStat]:
    """Minimum witness multiplicities for the five coarse coverage cases.

    For each case "T<=L+Rt" the value is min over z in T of the exact count
    of ordered pairs (x, y) in L x Rt with x XOR y = z, with the smallest
    minimizing z.  A minimum of at least 2^k for every case is what makes
    an n-way random split of the layers succeed with positive probability
    once 2^k outruns n^2.  The counts are the partition's `rows`, so the
    table takes no transform of its own.
    """
    layer = {"R": 0, "B": 1}
    out: dict[str, WitnessStat] = {}
    for label, target, left, right in WITNESS_CASES:
        row = part.rows[layer[left] + layer[right]]
        targets = np.flatnonzero(part.layers[layer[target]])
        pos = int(np.argmin(row[targets]))
        out[label] = WitnessStat(int(row[targets[pos]]), int(targets[pos]))
    return out


# ---------------------------------------------------------------------------
# colorings of the cube and their verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupColoring:
    """Assignment of every nonzero cube element to one diversity color.

    Parts must be pairwise disjoint nonempty subsets excluding 0 whose
    union is all of G minus 0.
    """

    m: int
    parts: dict[ColorId, CubeSubset] = field(compare=False)

    def __post_init__(self) -> None:
        _check_dim(self.m)
        union = 0
        for c, part in self.parts.items():
            if not c.is_diversity:
                raise ValueError("parts must be keyed by diversity colors")
            if part.m != self.m:
                raise ValueError("part dimension mismatch")
            if not part:
                raise ValueError(f"part {c!r} is empty")
            if 0 in part:
                raise ValueError("0 belongs to the identity, not to any part")
            if union & part.mask:
                raise ValueError("parts overlap")
            union |= part.mask
        if union != CubeSubset.full(self.m).without_zero().mask:
            raise ValueError("parts must cover exactly the nonzero elements")

    def colors(self) -> list[ColorId]:
        return sorted(self.parts, key=ColorId.sort_key)

    def part(self, c: ColorId) -> CubeSubset:
        return self.parts[c]

    def color_of(self, x: int) -> ColorId:
        for c, part in self.parts.items():
            if x in part:
                return c
        raise KeyError(f"{x} not in any part")

    def merged(self, groups: dict[ColorId, tuple[ColorId, ...]]) -> "GroupColoring":
        """Coarsen by unioning listed parts under new color keys."""
        parts = {}
        for new_color, old in groups.items():
            acc = CubeSubset.empty(self.m)
            for c in old:
                acc = acc | self.parts[c]
            parts[new_color] = acc
        return GroupColoring(self.m, parts)


@dataclass(frozen=True, slots=True)
class Violation:
    """One way a coloring fails to represent an algebra."""

    kind: str  # missing-part | identity-wrong | missing-need | forbidden-hit
    c1: ColorId | None
    c2: ColorId | None
    z: int | None
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_group_representation(
    coloring: GroupColoring,
    spec: AlgebraSpec,
    collect_all: bool = False,
) -> VerifyResult:
    """Check that a cube coloring realizes the algebra's composition law.

    For every ordered pair of diversity colors the sumset of their parts
    must contain 0 exactly when the colors coincide, cover the parts of
    every color their composition mandates, and avoid the parts of every
    color it forbids.  The scan order is deterministic (colors ranked
    reds-then-blues, elements ascending) and stops at the first violation
    unless `collect_all` is set.
    """
    colors = spec.diversity_colors()
    if not set(coloring.parts) <= set(colors):
        raise ValueError("coloring has parts that are not colors of the algebra")
    found = _representation_violations(coloring, spec)
    violations = tuple(found if collect_all else islice(found, 1))
    return VerifyResult(not violations, violations)


def _representation_violations(
    coloring: GroupColoring, spec: AlgebraSpec
) -> Iterator[Violation]:
    """The violations `verify_group_representation` reports, in its scan
    order; each sumset is computed when the scan first reaches it."""
    colors = spec.diversity_colors()
    empty = CubeSubset.empty(coloring.m)
    parts = {c: coloring.parts.get(c, empty) for c in colors}
    for c in colors:
        if not parts[c]:
            yield Violation("missing-part", c, None, None,
                            f"no points realize color {spec.color_name(c)}")
    sums: dict[frozenset[ColorId], CubeSubset] = {}
    for c1 in colors:
        for c2 in colors:
            key = frozenset((c1, c2))
            if key not in sums:
                sums[key] = sumset(parts[c1], parts[c2])
            s = sums[key]
            n1, n2 = spec.color_name(c1), spec.color_name(c2)
            if (0 in s) != (c1 == c2):
                expect = "contain" if c1 == c2 else "omit"
                yield Violation("identity-wrong", c1, c2, 0, f"{n1}+{n2} must {expect} 0")
            for c3 in colors:
                n3 = spec.color_name(c3)
                if is_mandatory(spec, c1, c2, c3):
                    missing = parts[c3] - s
                    if missing:
                        z = missing.min_element()
                        yield Violation("missing-need", c1, c2, z,
                                        f"{z} (color {n3}) unreachable as {n1}+{n2}")
                else:
                    hit = parts[c3] & s
                    if hit:
                        z = hit.min_element()
                        yield Violation("forbidden-hit", c1, c2, z,
                                        f"{z} (color {n3}) produced by forbidden {n1}+{n2}")


# ---------------------------------------------------------------------------
# the embedded 1024-point split
# ---------------------------------------------------------------------------

EMBEDDED_B_ASSET = "embedded_b_elements.txt"


def load_embedded_b_asset() -> tuple[int, ...]:
    """Read the shipped text copy of the embedded blue part."""
    text = resources.files("redblue.data").joinpath(EMBEDDED_B_ASSET).read_text()
    return tuple(int(tok) for tok in text.split())


# Hand-tuned refinement of the k=3 blue layer; its sumset closure generates
# the whole red layer, realizing the two-blue algebra on 1024 points.
EMBEDDED_B_ELEMENTS: tuple[int, ...] = load_embedded_b_asset()


def embedded_split_1024() -> GroupColoring:
    """The exact 1024-point coloring representing the two-blue algebra.

    The first blue part is the embedded 88-element set b; red is the
    nonzero part of b+b; the second blue part is everything else.
    """
    m = 10
    b = CubeSubset.from_elements(m, EMBEDDED_B_ELEMENTS)
    a = sumset(b, b).without_zero()
    c = CubeSubset.full(m).without_zero() - a - b
    return GroupColoring(m, {red(0): a, blue(0): b, blue(1): c})


# ---------------------------------------------------------------------------
# split text format
# ---------------------------------------------------------------------------


def write_split(coloring: GroupColoring) -> str:
    """Serialize a coloring in the split text format.

    Line 1 is `cube m=<m> colors=<t>`; then one `<name>: <elements>` line
    per color in red-then-blue order, elements ascending.
    """
    single_red = sum(c.is_red for c in coloring.parts) == 1
    lines = [f"cube m={coloring.m} colors={len(coloring.parts)}"]
    for c in coloring.colors():
        elems = " ".join(str(x) for x in coloring.parts[c].elements())
        lines.append(f"{format_color_name(c, single_red)}: {elems}")
    return "\n".join(lines) + "\n"


# a color line's elements that int64 parsing takes as they are: ASCII
# digits, at most 18 to a token, between spaces and tabs; other lines go
# token by token through int()
_DIGITS_AND_BLANKS = str.maketrans("", "", "0123456789 \t")
_LONG_TOKEN = re.compile(r"[0-9]{19}")


def _plain_elements(rest: str) -> bool:
    # a regex for the whole line would keep a frame per token
    return (rest.isascii() and not rest.translate(_DIGITS_AND_BLANKS)
            and not _LONG_TOKEN.search(rest))


def parse_split(text: str) -> GroupColoring:
    """Parse the split text format back into a coloring.

    A color line of plain decimal elements is parsed into one int64 array,
    without a token string or int object per element."""
    m, t = parse_header(text, "cube", ("m", "colors"))
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) - 1 != t:
        raise ValueError(f"expected {t} color lines, found {len(lines) - 1}")
    parts: dict[ColorId, CubeSubset] = {}
    for line in lines[1:]:
        name, _, rest = line.partition(":")
        name = name.strip()
        color = parse_color_name(name)
        if color in parts:
            raise ValueError(f"duplicate color line {name!r}")
        # element 0 is left to GroupColoring, which keeps it for the identity
        if _plain_elements(rest):
            elements = np.fromstring(rest, dtype=np.int64, sep=" ")
        else:
            elements = map(int, rest.split())
        parts[color] = CubeSubset.from_elements(m, elements)
    return GroupColoring(m, parts)
