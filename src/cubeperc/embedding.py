"""Super-critical machinery: good-vertex detection, construction of the
neighbor map f, exact and Monte Carlo moments of the open-path count of
the neighbor-retrace family, and neighbor-distance statistics.

A vertex is good when at least 2m vertices, each differing from it in
exactly two A-coordinates, are reachable by open 2-paths whose edges
both lie along A-coordinates.  The map f sends each vertex to a good
vertex one B-coordinate away.  Both are computed on the sample's
open-bit planes, a word per 64 vertices, never on the per-vertex
masks.  At small n good vertices are rare (the asymptotics need
(1-2alpha)l > 9alpha to bite), so build failure is an expected outcome
and is returned as a report, not raised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.sparse import coo_matrix

from .errors import GiantTooSmall
from .hypercube import (
    CoordinatePartition,
    NeighborRetraceSpec,
    enumerate_paths,
    path_edge_indices,
)
from .metrics import VertexMap, bounded_distance, components
from .percolation import (
    CounterStream,
    PercModel,
    PercolationSample,
    _mix64_array,
    draws_below,
    flip_across,
    vertex_draw_offset,
)

SECOND_MOMENT_CAP = 10_000
# Monte Carlo trials whose draws are evaluated as one array block
MC_CHUNK = 512


@dataclass
class FailureReport:
    """Vertices with no good neighbor one B-coordinate away."""

    bad_vertices: np.ndarray

    def __post_init__(self) -> None:
        self.bad_vertices = np.asarray(self.bad_vertices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.bad_vertices)


def _good_bits(sample: PercolationSample, partition: CoordinatePartition) -> np.ndarray:
    """Goodness of every vertex at once, as packed vertex bits (the
    layout of the sample's open-bit planes, zero past nv).

    Each pair a1 < a2 of A coordinates names one witness,
    v ^ 2^a1 ^ 2^a2, reached when the 2-path through v ^ 2^a1 or the
    one through v ^ 2^a2 is open: plane a1 ANDed with plane a2 moved
    across a1, ORed with the same for a2.  The witness counts are kept
    bit-sliced, bit s of every count in one word array, added to by a
    ripple carry and compared with 2m from the top bit down.  An absent
    vertex has no open edge, so it is never good."""
    planes = sample.open_bit_planes()
    target = 2 * partition.m
    width = max(math.comb(partition.m, 2), target).bit_length()
    counts = np.zeros((width, planes.shape[1]), dtype=np.uint64)
    for a1, a2 in itertools.combinations(partition.a_coords, 2):
        carry = planes[a1] & flip_across(planes[a2], a1)
        carry |= planes[a2] & flip_across(planes[a1], a2)
        for bits in counts:
            overflow = bits & carry
            bits ^= carry
            carry = overflow
    above = np.zeros_like(counts[0])
    equal = ~above
    for s in reversed(range(width)):
        if target >> s & 1:
            equal &= counts[s]
        else:
            above |= equal & counts[s]
    return above | equal


def _unpacked(words: np.ndarray, nv: int) -> np.ndarray:
    """The first nv bits of packed vertex words, one uint8 0 or 1 each."""
    return np.unpackbits(words.view(np.uint8), count=nv, bitorder="little")


def _good_vertices(sample: PercolationSample, partition: CoordinatePartition) -> np.ndarray:
    """Goodness of every vertex, one bool each: `_good_bits` unpacked."""
    return _unpacked(_good_bits(sample, partition), sample.shape.vertex_count).view(bool)


def build_good_map(
    sample: PercolationSample, partition: CoordinatePartition
) -> Union[VertexMap, FailureReport]:
    """f(x) = the good vertex differing from x in exactly one
    B-coordinate, lowest coordinate winning; x itself is not a
    candidate.  Returns the bad-vertex report when any x has none.  A
    partition of another dimension than the sample's raises ValueError.

    Works on the packed good bits.  Moved across each B coordinate b in
    ascending order, they mark the x not matched yet whose lowest good
    coordinate is b, and those marks are ORed into the bit slices that
    spell b.  Only the slices (five at most) are unpacked, into one
    uint8 lowest coordinate per vertex."""
    if partition.n != sample.shape.n:
        raise ValueError(
            f"partition is for dimension {partition.n}, sample has dimension {sample.shape.n}"
        )
    nv = sample.shape.vertex_count
    good = _good_bits(sample, partition)
    b_coords = sorted(partition.b_coords)
    matched = np.zeros_like(good)
    lowest_bits = np.zeros((b_coords[-1].bit_length(), len(good)), dtype=np.uint64)
    for b in b_coords:
        first = flip_across(good, b) & ~matched
        matched |= first
        for s, bits in enumerate(lowest_bits):
            if b >> s & 1:
                bits |= first
    bad = np.flatnonzero(_unpacked(~matched, nv))
    if len(bad):
        return FailureReport(bad)
    lowest = np.zeros(nv, dtype=np.uint8)
    for s, bits in enumerate(lowest_bits):
        lowest |= _unpacked(bits, nv) << np.uint8(s)
    image = np.left_shift(1, lowest, dtype=np.int64)
    # image ^= x, as its high bits (a column per row) and its low bits (a
    # row), so no nv-long index array is made
    rows = image.reshape(-1, 1 << (sample.shape.n + 1) // 2)
    rows ^= np.arange(rows.shape[1])
    rows ^= np.arange(0, nv, rows.shape[1])[:, None]
    return VertexMap(image)


@dataclass(frozen=True)
class MomentEstimate:
    """First and second moments of the open-path count of a family.

    second_moment_exact is None when the family was too large for the
    pairwise shared-edge census.
    """

    family_size: int
    path_length: int
    mean: float
    second_moment_exact: Optional[float]


def _numbered(rows) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of equal-length rows, numbered in first-seen
    order, and each row as those numbers."""
    numbers: dict[int, int] = {}
    table = [[numbers.setdefault(x, len(numbers)) for x in row] for row in rows]
    return np.array(list(numbers), dtype=np.int64), np.array(table, dtype=np.int64)


def analytic_moments(spec: NeighborRetraceSpec, p: float) -> MomentEstimate:
    """Exact mean, and exact second moment by pairwise shared-edge
    census when the family size is within SECOND_MOMENT_CAP."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    size = spec.family_size
    length = spec.path_length
    mean = size * p**length
    if p == 0.0:
        return MomentEstimate(size, length, 0.0, 0.0)
    if size > SECOND_MOMENT_CAP:
        return MomentEstimate(size, length, mean, None)

    edge_ids, epaths = _numbered(
        path_edge_indices(spec.shape, path) for path in enumerate_paths(spec)
    )
    rows = np.repeat(np.arange(size), length)
    member = coo_matrix(
        (np.ones(epaths.size, dtype=np.int32), (rows, epaths.ravel())),
        shape=(size, len(edge_ids)),
    ).tocsr()
    shared = member @ member.T  # pairwise shared-edge counts, sparse
    s = shared.tocoo().data
    second = float(
        (size * size - len(s)) * p ** (2 * length)
        + np.power(p, 2 * length - s.astype(np.float64)).sum()
    )
    return MomentEstimate(size, length, mean, second)


def mc_open_path_count(
    spec: NeighborRetraceSpec, model: PercModel, trials: int, base_seed: int
) -> np.ndarray:
    """Open-path count of the family across independent samples.

    Trial t uses seed mix64(base_seed, t), so any single trial can be
    reproduced as a full percolation sample with that seed.  Only the
    draws the family actually touches are evaluated.
    """
    shape = spec.shape
    paths = list(enumerate_paths(spec))
    edge_ids, epaths = _numbered(path_edge_indices(shape, path) for path in paths)
    if model.has_site_draws:
        vert_ids, vpaths = _numbered(paths)
        vdraw_ids = vert_ids + vertex_draw_offset(shape)

    seeds = _mix64_array(base_seed, np.arange(trials))
    counts = np.empty(trials, dtype=np.int64)
    for start in range(0, trials, MC_CHUNK):
        stop = min(start + MC_CHUNK, trials)
        block = seeds[start:stop, None]
        open_edges = draws_below(block, edge_ids, model.bond_threshold)
        ok = open_edges[:, epaths].all(axis=2)
        if model.has_site_draws:
            present = draws_below(block, vdraw_ids, model.site_threshold)
            ok &= present[:, vpaths].all(axis=2)
        counts[start:stop] = ok.sum(axis=1)
    return counts


@dataclass
class NeighborDistanceStats:
    """Histogram of open-graph distances between cube-adjacent pairs
    drawn from the giant component.  Distances above the cutoff land in
    overflow; the median uses cutoff+1 as the overflow sentinel."""

    requested: int
    pairs: int
    cutoff: int
    hist: tuple[int, ...]
    overflow: int
    frac_le_cutoff: float
    median: int
    exhaustive: bool


def neighbor_distance_stats(
    sample: PercolationSample,
    num_pairs: int,
    cutoff: int,
    seed: int,
    *,
    giant: Optional[np.ndarray] = None,
) -> NeighborDistanceStats:
    """Distances between uniformly drawn adjacent pairs whose endpoints
    both lie in the giant component.

    When fewer eligible pairs exist than requested, every eligible pair
    is measured once instead (flagged exhaustive).  No eligible pairs at
    all raises GiantTooSmall.  Pass giant (a boolean membership mask) to
    reuse an existing component labeling.
    """
    if num_pairs <= 0:
        raise ValueError("num_pairs must be positive")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    shape = sample.shape
    nv, n = shape.vertex_count, shape.n
    if giant is None:
        giant = components(sample).giant_mask()

    idx = np.arange(nv)
    # per coordinate c, the lower endpoints of the cube edges along c
    # that have both endpoints in the giant, read from the halves of the
    # middle axis of the (2^(n-c-1), 2, 2^c) view; the scan stops once
    # there are enough to sample from, so only an exhaustive list is
    # held whole
    eligible = []
    eligible_count = 0
    for c in range(n):
        g = giant.reshape(-1, 2, 1 << c)
        eligible.append(idx.reshape(-1, 2, 1 << c)[:, 0][g[:, 0] & g[:, 1]])
        eligible_count += len(eligible[-1])
        if eligible_count >= num_pairs:
            break
    if eligible_count == 0:
        raise GiantTooSmall("no cube edge has both endpoints in the giant component")

    pairs: list[tuple[int, int]] = []
    if eligible_count < num_pairs:
        exhaustive = True
        for c, lows in enumerate(eligible):
            for u in lows.tolist():
                pairs.append((u, u ^ (1 << c)))
    else:
        exhaustive = False
        stream = CounterStream(seed)
        while len(pairs) < num_pairs:
            u = stream.below(nv)
            w = u ^ (1 << stream.below(n))
            if giant[u] and giant[w]:
                pairs.append((u, w))

    hist = [0] * (cutoff + 1)
    overflow = 0
    values = []
    for u, w in pairs:
        d = bounded_distance(sample, u, w, cutoff=cutoff)
        if d is None:
            overflow += 1
            values.append(cutoff + 1)
        else:
            hist[d] += 1
            values.append(d)
    total = len(pairs)
    values.sort()
    return NeighborDistanceStats(
        requested=num_pairs,
        pairs=total,
        cutoff=cutoff,
        hist=tuple(hist),
        overflow=overflow,
        frac_le_cutoff=(total - overflow) / total,
        median=values[(total - 1) // 2],
        exhaustive=exhaustive,
    )
