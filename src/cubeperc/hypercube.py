"""Hypercube structure: vertices, canonical edge indexing, coordinate
layouts, geodesic cycles, and the neighbor-retrace path family.

Vertices of the n-cube are integers in [0, 2^n) read as bit masks, one
bit per coordinate.  Edges join vertices differing in exactly one bit.
Every edge has a linear index, bijective onto [0, n * 2^(n-1)), that
fixes where its draw sits in a sample's edge bitset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    AlphaOutOfRange,
    DimensionOutOfRange,
    DimensionTooSmall,
    DuplicateCoordinate,
    InvalidSpec,
    NotAdjacent,
)

HARD_DIMENSION_CAP = 30


@dataclass(frozen=True)
class CubeShape:
    """Dimension of the cube, with the hard validity cap applied."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not (1 <= self.n <= HARD_DIMENSION_CAP):
            raise DimensionOutOfRange(
                f"n must be an integer in [1, {HARD_DIMENSION_CAP}], got {self.n!r}"
            )

    @property
    def vertex_count(self) -> int:
        return 1 << self.n

    @property
    def edge_count(self) -> int:
        return self.n << (self.n - 1)

    def check_vertex(self, v: int) -> None:
        if not 0 <= v < 1 << self.n:
            raise ValueError(f"vertex {v} is outside the cube [0, 2^{self.n})")


def hamming(u: int, v: int) -> int:
    return (u ^ v).bit_count()


def flip_neighbors(v: int, mask: int) -> list[int]:
    """v with each set bit of mask flipped, one bit at a time, in
    ascending coordinate order.  With an open-neighbour mask this lists
    the open neighbours of v."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(v ^ low)
    return out


def edge_index(shape: CubeShape, u: int, v: int) -> int:
    """Linear index coord * 2^(n-1) + compress(base, coord) of the edge
    joining u and v: coord is the coordinate they differ in, base the
    endpoint with that bit clear, and compress deletes bit coord from
    base, shifting the higher bits down.  Raises ValueError for a vertex
    outside the cube and NotAdjacent unless u and v differ in exactly
    one coordinate."""
    shape.check_vertex(u)
    shape.check_vertex(v)
    d = u ^ v
    if d == 0 or d & (d - 1):
        raise NotAdjacent(f"vertices {u} and {v} differ in {d.bit_count()} coordinates")
    coord = d.bit_length() - 1
    base = u & ~d
    compressed = ((base >> (coord + 1)) << coord) | (base & (d - 1))
    return (coord << (shape.n - 1)) + compressed


@dataclass(frozen=True)
class CoordinatePartition:
    """Disjoint coordinate blocks A, B, C_1..C_l plus a nonempty spare set.

    All of A, B, and each C_k have exactly m coordinates.  The blocks
    drive the good-vertex machinery: A carries the distance-2 witness
    moves, B carries the image offsets, and the C_k parameterize the
    connecting path families.
    """

    n: int
    l: int
    m: int
    a_coords: tuple[int, ...]
    b_coords: tuple[int, ...]
    c_blocks: tuple[tuple[int, ...], ...]
    spare: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DimensionTooSmall(f"block size m={self.m} must be at least 1")
        if self.l < 1:
            raise InvalidSpec(f"need at least one C block, got l={self.l}")
        blocks = [self.a_coords, self.b_coords, *self.c_blocks]
        if len(self.c_blocks) != self.l:
            raise InvalidSpec("number of C blocks must equal l")
        for blk in blocks:
            if len(blk) != self.m:
                raise InvalidSpec("blocks A, B, C_k must all have m coordinates")
        if not self.spare:
            raise DimensionTooSmall("spare coordinate set must be nonempty")
        everything = [c for blk in blocks for c in blk] + list(self.spare)
        if len(set(everything)) != len(everything):
            raise DuplicateCoordinate("partition blocks overlap")
        if set(everything) != set(range(self.n)):
            raise InvalidSpec("partition must cover coordinates [0, n) exactly")


def choose_block_count(alpha: float) -> int:
    """Smallest l with (1 - 2*alpha) * l > 9 * alpha."""
    if not (0.0 < alpha < 0.5):
        raise AlphaOutOfRange(f"alpha must lie in (0, 1/2), got {alpha}")
    l = 1
    while (1.0 - 2.0 * alpha) * l <= 9.0 * alpha:
        l += 1
    return l


def make_partition(shape: "CubeShape | int", alpha: float) -> CoordinatePartition:
    """Ascending-coordinate layout for a given exponent alpha.

    l is the smallest integer with (1-2a)l > 9a and m = floor((n-1)/(l+2)),
    so at least one spare coordinate always remains.  Raises
    DimensionTooSmall when m would be zero.  Accepts a plain dimension in
    place of a shape: the layout arithmetic is meaningful far beyond the
    dimensions that fit in memory.
    """
    n = shape.n if isinstance(shape, CubeShape) else int(shape)
    if n < 1:
        raise DimensionOutOfRange(f"dimension must be positive, got {n}")
    l = choose_block_count(alpha)
    m = (n - 1) // (l + 2)
    if m < 1:
        raise DimensionTooSmall(
            f"n={n} cannot host l={l} blocks: m=floor((n-1)/(l+2))=0"
        )
    a = tuple(range(0, m))
    b = tuple(range(m, 2 * m))
    cs = tuple(tuple(range((k + 1) * m, (k + 2) * m)) for k in range(1, l + 1))
    spare = tuple(range((l + 2) * m, n))
    return CoordinatePartition(n, l, m, a, b, cs, spare)


def geodesic_cycle(shape: CubeShape, v: int, coords: Sequence[int]) -> list[int]:
    """Closed walk applying `coords` twice; an isometric cycle of length 2l.

    Returned as a vertex list of length 2l+1 whose last entry repeats the
    first.  Cycle distance between positions equals Hamming distance.
    """
    shape.check_vertex(v)
    l = len(coords)
    if not (2 <= l <= shape.n):
        raise InvalidSpec(f"need 2 <= l <= n coordinates, got l={l}")
    if len(set(coords)) != l:
        raise DuplicateCoordinate(f"coordinates must be distinct: {coords!r}")
    for c in coords:
        if not (0 <= c < shape.n):
            raise InvalidSpec(f"coordinate {c} out of range for n={shape.n}")
    out = [v]
    cur = v
    for c in itertools.chain(coords, coords):
        cur ^= 1 << c
        out.append(cur)
    return out


@dataclass(frozen=True)
class NeighborRetraceSpec:
    """Paths between adjacent x, y: l fresh coordinate steps, one step in
    the differing coordinate, then the fresh steps retraced in reverse.

    Family size (n-1)(n-2)...(n-l); every path is simple with length 2l+1.
    """

    shape: CubeShape
    x: int
    y: int
    l: int

    def __post_init__(self) -> None:
        d = self.x ^ self.y
        if d == 0 or d & (d - 1):
            raise NotAdjacent(f"endpoints {self.x}, {self.y} are not adjacent")
        if not (1 <= self.l <= self.shape.n - 1):
            raise InvalidSpec(f"need 1 <= l <= n-1, got l={self.l}")

    @property
    def differing_coord(self) -> int:
        return (self.x ^ self.y).bit_length() - 1

    @property
    def path_length(self) -> int:
        return 2 * self.l + 1

    @property
    def family_size(self) -> int:
        return math.perm(self.shape.n - 1, self.l)

    def step_sequences(self) -> Iterator[tuple[int, ...]]:
        d = self.differing_coord
        avail = [c for c in range(self.shape.n) if c != d]
        for combo in itertools.permutations(avail, self.l):
            yield combo + (d,) + tuple(reversed(combo))


def enumerate_paths(spec: NeighborRetraceSpec) -> Iterator[tuple[int, ...]]:
    """All paths of the family as vertex tuples, deterministic order.

    Each path starts at spec.x, ends at spec.y, is simple, and has
    spec.path_length edges.
    """
    for steps in spec.step_sequences():
        cur = spec.x
        path = [cur]
        for c in steps:
            cur ^= 1 << c
            path.append(cur)
        yield tuple(path)


def path_edge_indices(shape: CubeShape, path: Sequence[int]) -> tuple[int, ...]:
    """Canonical edge indices along a vertex path."""
    return tuple(edge_index(shape, path[k], path[k + 1]) for k in range(len(path) - 1))
