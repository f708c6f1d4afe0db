"""Super-critical machinery: good-vertex detection, construction of the
neighbor map f, exact and Monte Carlo moments of the open-path count of
the neighbor-retrace family, and neighbor-distance statistics.

A vertex is good when at least 2m vertices, each differing from it in
exactly two A-coordinates, are reachable by open 2-paths whose edges
both lie along A-coordinates.  The map f sends each vertex to a good
vertex one B-coordinate away.  At small n good vertices are rare (the
asymptotics need (1-2alpha)l > 9alpha to bite), so build failure is an
expected outcome and is returned as a report, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.sparse import coo_matrix

from .errors import GiantTooSmall
from .hypercube import (
    CoordinatePartition,
    NeighborRetraceSpec,
    enumerate_paths,
    flip_neighbors,
    path_edge_indices,
)
from .metrics import VertexMap, bounded_distance, components
from .percolation import (
    CounterStream,
    PercModel,
    PercolationSample,
    draws_below,
    mix64,
    vertex_draw_offset,
)

SECOND_MOMENT_CAP = 10_000
# Monte Carlo trials whose draws are evaluated as one array block
MC_CHUNK = 512


@dataclass(frozen=True)
class GoodnessCertificate:
    """Witnesses that a vertex is good: each is reachable by an open
    2-path along A-coordinates and differs in exactly two A-bits."""

    vertex: int
    witnesses: frozenset[int]


@dataclass
class FailureReport:
    """Vertices with no good neighbor one B-coordinate away."""

    bad_vertices: np.ndarray

    def __post_init__(self) -> None:
        self.bad_vertices = np.asarray(self.bad_vertices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.bad_vertices)


def _coord_mask(coords) -> int:
    mask = 0
    for c in coords:
        mask |= 1 << c
    return mask


def is_good(
    sample: PercolationSample, v: int, partition: CoordinatePartition
) -> Optional[GoodnessCertificate]:
    """Certificate when v is good, else None.  Absent vertices are
    never good (they have no open edges)."""
    masks = sample.open_neighbor_masks_array()
    a_bits = _coord_mask(partition.a_coords)
    witnesses = set()
    for mid in flip_neighbors(v, int(masks[v]) & a_bits):
        witnesses.update(flip_neighbors(mid, int(masks[mid]) & a_bits & ~(mid ^ v)))
    if len(witnesses) < 2 * partition.m:
        return None
    return GoodnessCertificate(v, frozenset(witnesses))


def build_good_map(
    sample: PercolationSample, partition: CoordinatePartition
) -> Union[VertexMap, FailureReport]:
    """f(x) = the good vertex differing from x in exactly one
    B-coordinate, lowest coordinate winning; x itself is not a
    candidate.  Returns the bad-vertex report when any x has none."""
    nv = sample.shape.vertex_count
    good = np.fromiter(
        (is_good(sample, v, partition) is not None for v in range(nv)), dtype=bool, count=nv
    )
    x = np.arange(nv, dtype=np.int64)
    image = np.full(nv, -1, dtype=np.int64)
    for b in sorted(partition.b_coords, reverse=True):
        cand = x ^ (1 << b)
        image = np.where(good[cand], cand, image)
    bad = np.flatnonzero(image < 0)
    return FailureReport(bad) if len(bad) else VertexMap(image)


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


def _edge_table(shape, paths) -> tuple[np.ndarray, np.ndarray]:
    """The distinct edge indices of a path family, numbered in first-seen
    order, and each path's edges as those numbers, a row per path."""
    numbers: dict[int, int] = {}
    table = [
        [numbers.setdefault(e, len(numbers)) for e in path_edge_indices(shape, path)]
        for path in paths
    ]
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

    edge_ids, epaths = _edge_table(spec.shape, enumerate_paths(spec))
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
    edge_ids, epaths = _edge_table(shape, paths)

    if model.has_site_draws:
        offset = vertex_draw_offset(shape)
        vert_ids = np.unique(np.array(paths, dtype=np.int64).ravel())
        vert_pos = {int(v): k for k, v in enumerate(vert_ids)}
        vpaths = np.array(
            [[vert_pos[v] for v in row] for row in paths], dtype=np.int64
        )
        vdraw_ids = vert_ids + offset

    seeds = np.array([mix64(base_seed, t) for t in range(trials)], dtype=np.uint64)
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
    # that have both endpoints in the giant; the scan stops once there
    # are enough to sample from, so only an exhaustive list is held whole
    eligible = []
    eligible_count = 0
    for c in range(n):
        base = idx[(idx >> c) & 1 == 0]
        eligible.append(base[giant[base] & giant[base | (1 << c)]])
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
