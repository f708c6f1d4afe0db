"""Graph metrics over percolation samples: BFS distances, connected
components, and metric distortion of vertex maps.

Open-graph distances come from two BFS kernels over the open-neighbour
masks.  `_bfs_bits` holds one search as one bit per vertex: `bfs` runs
it, and `evaluate_distortion` asks it whether every image is reachable
from the first.  `_bfs_levels` runs many searches as the bits of uint64
words per vertex: `_distances` from many sources (the exact evaluator,
the brute-force search and `cycles.image_walk`) and `_pair_distances`
from 64 pair starts at a time (the sampled contraction side).
`bounded_distance` is the scalar search for single pairs with a cutoff.
Components come from scipy's `connected_components`.

Distortion here is the non-symmetric kind: for f mapping the full cube
into a sample, D+ is the worst stretch max(1, sup d_Y/d_X) and, because
d_Y is subadditive along cube paths, the supremum over adjacent source
pairs equals the supremum over all pairs, so D+ is computed on edges
only.  D- is the worst contraction inf max(1, d_Y)/d_X over distinct
pairs.  D = D+ / D-.  Maps whose images straddle several components get
an infinite report rather than an exception.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import CapExceeded, GiantTooSmall, SourceAbsent, TooLarge
from .hypercube import CubeShape, flip_neighbors, hamming
from .percolation import CounterStream, PercolationSample

EXACT_CAP_DEFAULT = 12
BRUTE_FORCE_CAP = 3


@dataclass
class DistanceField:
    """BFS distances from one source; -1 marks not reached."""

    source: int
    dist: np.ndarray

    def distance(self, v: int) -> Optional[int]:
        d = int(self.dist[v])
        return None if d < 0 else d

    @property
    def reached_count(self) -> int:
        return int((self.dist >= 0).sum())


def _csr(edges, size: int) -> csr_matrix:
    """A size x size csr adjacency matrix holding each edge of the
    (row, col) array groups once, for the one-window `connected_components`
    calls of `components` with directed=False: a window's vertices at
    level 0, its components from the level below (window-local ids from
    0) at every later level.  float64 data, so no cast copy happens
    inside scipy."""
    row, col = map(np.concatenate, zip(*edges))
    return coo_matrix((np.ones(len(row), dtype=np.float64), (row, col)), shape=(size, size)).tocsr()


# a level whose frontier holds fewer than this share of the cube's
# vertices expands those vertices alone (the sparse step); a larger one
# sweeps the whole cube along every coordinate (the dense step).  64-pair
# batches of `_bfs_levels` took the same time from 1/16 to 1/4 and up to
# 22 % longer at 1/32 or 1/2 (n = 16 at p = 0.97 and 0.5, n = 20 at
# p = 0.86).  `_bfs_bits` takes this share of its own measure of a dense
# level, in frontier rows
_SPARSE_SHARE = 1 / 8


def _bfs_levels(sample: PercolationSample, sources):
    """Multi-source BFS over the open-neighbour masks, one level at a time.

    Multi-source BFS (Then et al., VLDB 2014): the search from
    sources[i] is bit i % 64 of word i // 64 in each vertex's row of an
    (nv, ceil(k / 64)) uint64 array, so all k searches advance one level
    per step.  Yields (level, rows, reached) from level 0, the sources,
    until no search reaches a new vertex: rows are the vertices, in
    ascending order, where some search first arrives at this level, and
    reached is the word array with the bits of exactly those searches
    set, zero elsewhere.  The next level overwrites reached.

    Each level picks its step by the size of its frontier, as
    direction-optimizing BFS does (Beamer et al., SC 2012).  The dense
    step sweeps the cube once per coordinate c: the word array viewed as
    (2^(n-c-1), 2, 2^c, words) holds each edge's two ends across its
    middle axis, so swapping that axis's halves and multiplying by the
    edge's open bit ORs every vertex's words into its neighbour across
    c.  The sparse step, taken while the frontier has fewer than
    _SPARSE_SHARE of the cube's vertices, ORs only the frontier rows into
    their open neighbours.
    """
    n, nv = sample.shape.n, sample.shape.vertex_count
    masks = sample.open_neighbor_masks_array()
    sources = np.asarray(sources, dtype=np.int64)
    k = len(sources)
    idx = np.arange(k)
    frontier = np.zeros((nv, -(-k // 64)), dtype=np.uint64)
    np.bitwise_or.at(frontier, (sources, idx >> 6), np.uint64(1) << (idx & 63).astype(np.uint64))
    unvisited = ~frontier
    nxt = np.empty_like(frontier)
    flips = np.left_shift(1, np.arange(n))
    opens = moved = None
    rows = np.unique(sources)
    level = 0
    while len(rows):
        yield level, rows, frontier
        level += 1
        nxt.fill(0)
        if len(rows) < _SPARSE_SHARE * nv:
            # every open edge out of the frontier, row by row (bit c of a
            # little-endian mask is column c of its unpacked bytes); two
            # rows may share a neighbour, hence the unbuffered OR
            out = masks[rows]
            bits = np.unpackbits(out.view(np.uint8).reshape(-1, 4), axis=1, count=n, bitorder="little")
            ends = (rows[:, None] ^ flips)[bits.view(bool)]
            np.bitwise_or.at(nxt, ends, np.repeat(frontier[rows], np.bitwise_count(out), axis=0))
        else:
            if opens is None:
                # built on the first dense level: per coordinate, the
                # view shape and the open bits broadcast over the words
                opens = []
                for c in range(n):
                    shape = (nv >> (c + 1), 2, 1 << c, frontier.shape[1])
                    opens.append((shape, (masks & flips[c]).astype(bool).reshape(*shape[:3], 1)))
                moved = np.empty_like(frontier)
            for shape, open_c in opens:
                # np.bitwise_or(..., where=open_c) took 1.3-2.8x as long
                # at n = 12-20
                np.multiply(frontier.reshape(shape)[:, ::-1], open_c, out=moved.reshape(shape))
                nxt |= moved
        nxt &= unvisited
        unvisited ^= nxt
        # a row is reached when any of its words is; one OR per word
        # column, since numpy reduces a short trailing axis slowly
        any_word = nxt[:, 0]
        for w in range(1, nxt.shape[1]):
            any_word = any_word | nxt[:, w]
        rows = (any_word != 0).nonzero()[0]
        frontier, nxt = nxt, frontier


def _distances(sample: PercolationSample, sources) -> np.ndarray:
    """Open-graph distances from each source (a row per source, or one
    row for a scalar source), float64 with inf for unreached.

    One `_bfs_levels` run from all the sources.  Each level adds
    level + 1 where its searches arrive to an (nv, k) array of uint8,
    widened only if a search runs 255 levels deep, 0 meaning unreached;
    one table lookup at the end gives the float matrix."""
    scalar = np.ndim(sources) == 0
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    k = len(sources)
    reach = np.zeros((sample.shape.vertex_count, k), dtype=np.uint8)
    top = np.iinfo(reach.dtype).max
    level = 0
    for level, rows, reached in _bfs_levels(sample, sources):
        if level == top:
            reach = reach.astype(np.min_scalar_type(level + 1))
            top = np.iinfo(reach.dtype).max
        # bit i of a row's words is search i (little-endian words), and
        # each search reaches each vertex at one level at most; no name
        # holds the unpacked bits, which can be as large as reach
        reach[rows] += (
            np.unpackbits(reached[rows].view(np.uint8), axis=1, count=k, bitorder="little")
            .astype(reach.dtype, copy=False) * (level + 1)
        )
    # a row per source, then 0 to inf and d + 1 to d by table lookup
    reach = np.ascontiguousarray(reach.T)
    table = np.arange(-1.0, level + 1)
    table[0] = np.inf
    dist = table[reach]
    return dist[0] if scalar else dist


# bit b of a uint64 word is vertex 64 w + b, so the edges along a
# coordinate c < 6 join bits of one word: _IN_WORD[c] holds the bits with
# bit c of their position clear, the lower ends of those edges
_IN_WORD = [np.uint64(sum(1 << b for b in range(64) if not b >> c & 1)) for c in range(6)]


def _bfs_bits(sample: PercolationSample, source: int):
    """Single-source BFS over the open-neighbour masks, one level at a
    time, holding the search as one bit per vertex.

    Yields (level, rows) from level 0, the source, until the search
    reaches no new vertex: rows are the vertices first reached at this
    level, in ascending order.  The frontier and the unvisited vertices
    are bitsets of ceil(nv / 64) uint64 words (one padded word when
    n < 6), vertex v at bit v % 64 of word v // 64.

    Each level picks its step by the size of its frontier, as
    `_bfs_levels` does.  The dense step moves the frontier, ANDed with
    coordinate c's open bits, across c for every c and ORs it into the
    next frontier: for c >= 6 by swapping the halves of the middle axis
    of the words viewed as (nw / 2^(c-5), 2, 2^(c-6)), for c < 6 by
    shifting each word 2^c bits either way under the constant mask
    _IN_WORD[c].  The open bits are packed once per call, on the first
    dense level.  The sparse step, taken while the frontier has fewer
    than _SPARSE_SHARE of nv / 32 + 2048 rows, sets the bits of the
    frontier rows' open neighbours alone.  Either way the new rows are
    read from the nonzero words of the next frontier only.
    """
    n, nv = sample.shape.n, sample.shape.vertex_count
    masks = sample.open_neighbor_masks_array()
    one = np.uint64(1)
    frontier = np.zeros(-(-nv // 64), dtype=np.uint64)
    frontier[source >> 6] = one << np.uint64(source & 63)
    unvisited = ~frontier
    nxt = np.empty_like(frontier)
    flips = np.left_shift(1, np.arange(n))
    opens = None
    rows = np.array([source])
    level = 0
    while len(rows):
        yield level, rows
        level += 1
        nxt.fill(0)
        # a dense level sweeps nv / 64 words per coordinate on top of a
        # fixed cost of about 50 numpy calls: single steps at n = 8-20
        # broke even with the sparse step at about 256 + nv / 256 rows.
        # Half or twice this bound took the same time within 10 %; 1/8
        # of nv, as in `_bfs_levels`, took a search at n = 16, alpha =
        # 0.01 from 4.7 to 15.2 ms and at n = 20 from 58 to 434 ms, and
        # one at n = 12, alpha = 0.75 from 2.03 to 1.85 ms
        if len(rows) < _SPARSE_SHARE * (nv / 32 + 2048):
            # every open edge out of the frontier; two rows may share a
            # neighbour, and OR sets its bit once
            out = masks[rows]
            bits = np.unpackbits(out.view(np.uint8).reshape(-1, 4), axis=1, count=n, bitorder="little")
            ends = (rows[:, None] ^ flips)[bits.view(bool)]
            np.bitwise_or.at(nxt, ends >> 6, one << (ends & 63).astype(np.uint64))
        else:
            if opens is None:
                # bit v of row c: the edge along c at v is open (so the
                # same bit at v ^ 2^c); zero past the cube's nv bits
                packed = np.zeros((n, 8 * len(frontier)), dtype=np.uint8)
                for k in range(-(-n // 8)):
                    # byte k of every mask, contiguous: the bits of
                    # coordinates 8k to 8k + 7
                    col = np.ascontiguousarray(masks.view(np.uint8)[k::4])
                    for c in range(8 * k, min(8 * k + 8, n)):
                        bit = np.uint8(1 << (c & 7))
                        packed[c, : -(-nv // 8)] = np.packbits(col & bit, bitorder="little")
                opens = packed.view(np.uint64)
            for c in range(n):
                moved = frontier & opens[c]
                if c < 6:
                    shift, low = np.uint64(1 << c), _IN_WORD[c]
                    nxt |= (moved >> shift) & low | (moved & low) << shift
                else:
                    shape = (len(frontier) >> (c - 5), 2, 1 << (c - 6))
                    halves = nxt.reshape(shape)
                    np.bitwise_or(halves, moved.reshape(shape)[:, ::-1], out=halves)
        nxt &= unvisited
        unvisited ^= nxt
        live = np.flatnonzero(nxt)
        at = np.flatnonzero(np.unpackbits(nxt[live].view(np.uint8), bitorder="little").view(bool))
        rows = live[at >> 6] << 6 | at & 63
        frontier, nxt = nxt, frontier


def bfs(sample: PercolationSample, source: int) -> DistanceField:
    if not sample.vertex_present(source):
        raise SourceAbsent(f"vertex {source} is not present in the sample")
    dist = np.full(sample.shape.vertex_count, -1, dtype=np.int32)
    for level, rows in _bfs_bits(sample, source):
        dist[rows] = level
    return DistanceField(source, dist)


def bounded_distance(
    sample: PercolationSample,
    u: int,
    v: int,
    cutoff: Optional[int] = None,
) -> Optional[int]:
    """Open-graph distance between u and v, or None when it exceeds the
    cutoff (or no path exists).  Bidirectional ball growing.  An end
    outside the cube raises ValueError, also when u == v."""
    sample.shape.check_vertex(u)
    sample.shape.check_vertex(v)
    if u == v:
        return 0
    masks = sample.open_neighbor_masks_array()
    du = {u: 0}
    dv = {v: 0}
    fu, fv = [u], [v]
    ru = rv = 0
    best = math.inf
    while fu and fv:
        if best <= ru + rv + 1:
            break
        if cutoff is not None and ru + rv + 1 > cutoff:
            break
        if len(fu) <= len(fv):
            frontier, dthis, dother, r = fu, du, dv, ru
        else:
            frontier, dthis, dother, r = fv, dv, du, rv
        # every frontier vertex sits at the side's radius r
        d = r + 1
        nxt = []
        for w in frontier:
            for x in flip_neighbors(w, int(masks[w])):
                if x in dthis:
                    continue
                dthis[x] = d
                other = dother.get(x)
                if other is not None and d + other < best:
                    best = d + other
                nxt.append(x)
        if dthis is du:
            fu, ru = nxt, ru + 1
        else:
            fv, rv = nxt, rv + 1
    if not math.isfinite(best):
        return None
    if cutoff is not None and best > cutoff:
        return None
    return int(best)


PAIR_BATCH = 64


def _pair_distances(sample: PercolationSample, us, vs) -> list[Optional[int]]:
    """Open-graph distances d(us[i], vs[i]) for up to 64 pairs at once,
    None where a pair is unreachable: one `_bfs_levels` run from the
    us, reading each level's bits at the vs until every pair is met."""
    k = len(us)
    if not 0 < k <= PAIR_BATCH or len(vs) != k:
        raise ValueError(f"need 1 to {PAIR_BATCH} pairs of equal length, got {k}")
    vs = np.asarray(vs, dtype=np.int64)
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))
    dist = np.full(k, -1)
    for level, _, reached in _bfs_levels(sample, us):
        # each search's bit reaches its target at one level at most
        dist[(reached[vs, 0] & bits) != 0] = level
        if (dist >= 0).all():
            break
    return [None if d < 0 else d for d in dist.tolist()]


@dataclass
class ComponentLabeling:
    """Canonical component labels: each component is named by its
    smallest vertex.  Absent vertices carry label -1."""

    labels: np.ndarray
    comp_ids: np.ndarray
    comp_sizes: np.ndarray
    giant_label: int

    @property
    def n_components(self) -> int:
        return len(self.comp_ids)

    def size_of(self, label: int) -> int:
        k = np.searchsorted(self.comp_ids, label)
        if k >= len(self.comp_ids) or self.comp_ids[k] != label:
            raise KeyError(f"no component labeled {label}")
        return int(self.comp_sizes[k])

    @property
    def giant_size(self) -> int:
        return self.size_of(self.giant_label) if self.giant_label >= 0 else 0

    def giant_mask(self) -> np.ndarray:
        if self.giant_label < 0:
            return np.zeros(len(self.labels), dtype=bool)
        return self.labels == self.giant_label


# read by the environment stamp of perfbench/run.py until the benchmark
# drops that field; component labelling has no numba path
_numba = None

# the first labelling pass takes the edges along coordinates below this
# one: they join vertices inside aligned blocks of 2^_BLOCK_BITS, so its
# DFS stays in L2 instead of jumping across the whole label array (at
# n = 24, cuts at 12, 14 and 18 and a single pass were all slower; the
# times are in CHANGES.md)
_BLOCK_BITS = 16

# each later level takes the edges along this many more coordinates
# (fewer for a ragged top level); at n = 24, alpha = 0.75 one took
# 8 % longer for 6 % less resident memory, three gained nothing and
# four peaked 50 MiB higher (the numbers are in ROADMAP.md)
_LEVEL_BITS = 2

# in-place rewrites of the ids run over this many of them at a time
_CHUNK = 1 << 16


def _take_in_place(table: np.ndarray, ids: np.ndarray, shift: int = 0) -> None:
    """ids[i] = table[ids[i] - shift] for int32 ids, in place, _CHUNK at a
    time: np.take copies its indices to intp and, in its default mode,
    buffers its output, so one whole-array call would hold three times
    the ids."""
    for start in range(0, len(ids), _CHUNK):
        part = ids[start : start + _CHUNK]
        if shift:
            part -= shift
        np.take(table, part, out=part)


def components(sample: PercolationSample) -> ComponentLabeling:
    """Exact labeling of the open graph's connected components.

    Block-wise cluster relabelling (Hoshen & Kopelman 1976), carried up
    the coordinates one level at a time.  Level 0 labels the edges along
    coordinates below _BLOCK_BITS, which stay inside blocks of
    2^_BLOCK_BITS consecutive vertices, one aligned window of
    2^max(_BLOCK_BITS, 16) vertices at a time (the whole cube for
    n <= 16): each window reads only its own bytes of the packed draw,
    labels a window-sized graph with one scipy call and numbers its
    components, the block ids, after those of the windows before it.
    An edge along a high coordinate jumps 2^c vertices, so a single DFS
    over the whole cube misses the cache on most steps; the block pass
    keeps those misses out of the larger part of the work.  At 2^16
    vertices a block's int32 labels and the csr rows scipy reads in
    both directions take about 1 MiB.

    Each later level takes the edges along the next _LEVEL_BITS
    coordinates [lo, hi), in aligned windows of 2^max(hi, 16) vertices
    clipped to the cube.  Every window of the level below lies inside
    one of them, and ids are numbered window by window, so a window's
    ids from the level below form one contiguous range [c0, c1): its
    contracted graph has c1 - c0 nodes, labelled by one scipy call, and
    its new ids, which follow those of the windows before it, overwrite
    the window's ids in place.  A level's graph holds only its own
    coordinates' edges between one window's components, never the
    contracted graph of every high edge at once.

    scipy numbers a graph's components in the order of their smallest
    node, so at every level the ids ascend with their components'
    smallest vertices and the final ids are already in label order;
    scipy does not document that order, so a RuntimeError guards it.
    The tail counts sizes per id and names each id by its smallest
    vertex, one chunk of _CHUNK vertices at a time, then turns the ids
    into the labels in place.  A bond sample's labels are the only
    nv-long array allocated.  At n = 24, alpha = 0.75 the traced peak
    is 124 MiB (249 MiB with one whole-cube pass of the high edges):
    the 64 MiB ids and scipy's call on the top level's 2.4 M-node graph.
    """
    n, nv = sample.shape.n, sample.shape.vertex_count
    # a bond sample has every vertex, so it skips the presence array
    site = sample.model.has_site_draws
    present = sample.present_array() if site else None
    low = range(min(_BLOCK_BITS, n))
    # whole blocks, and never fewer than 2^16 vertices, so a small cut
    # does not multiply the scipy calls
    size = min(1 << max(_BLOCK_BITS, 16), nv)
    raw = np.empty(nv, dtype=np.int32)
    # firsts[j] is the first id of the window that starts at level-0
    # window j, and firsts[-1] the number of ids
    firsts = [0]
    for start in range(0, nv, size):
        graph = _csr(sample.open_edge_endpoints(low, start, size), size)
        k, window = connected_components(graph, directed=False)
        np.add(window, firsts[-1], out=raw[start : start + size])
        firsts.append(firsts[-1] + k)
    ncomp = firsts[-1]
    for lo in range(_BLOCK_BITS, n, _LEVEL_BITS):
        coords = range(lo, min(lo + _LEVEL_BITS, n))
        width = min(1 << max(coords[-1] + 1, 16), nv)
        step = width // size
        ncomp = 0
        for j in range(0, len(firsts) - 1, step):
            start = j * size
            c0, c1 = firsts[j], firsts[j + step]
            ids = raw[start : start + width]
            edges = sample.open_edge_endpoints(coords, start, width)
            contracted = ((ids[a] - c0, ids[b] - c0) for a, b in edges)
            k, lab = connected_components(_csr(contracted, c1 - c0), directed=False)
            lab += ncomp
            _take_in_place(lab, ids, c0)
            firsts[j] = ncomp
            ncomp += k
        firsts[-1] = ncomp
    # an absent vertex is a singleton at every level, so counting present
    # vertices only leaves its id at size 0.  np.add.at reads the int32
    # ids as they are; np.bincount would copy them to int64 first.
    # Reversed assignment, chunks from the last down, leaves each id's
    # first (smallest) vertex, so every component is named by its
    # smallest vertex
    comp_sizes = np.zeros(ncomp, dtype=np.int64)
    canon = np.empty(ncomp, dtype=np.int32)
    for start in range((nv - 1) // _CHUNK * _CHUNK, -1, -_CHUNK):
        ids = raw[start : start + _CHUNK]
        np.add.at(comp_sizes, ids[present[start : start + _CHUNK]] if site else ids, 1)
        canon[ids[::-1]] = np.arange(start + len(ids) - 1, start - 1, -1, dtype=np.int32)
    if not (canon[1:] > canon[:-1]).all():
        raise RuntimeError("connected_components did not number components by smallest node")
    _take_in_place(canon, raw)
    if site:
        raw[~present] = -1
    comp_ids = canon.astype(np.int64)
    if site:
        keep = comp_sizes > 0
        comp_ids, comp_sizes = comp_ids[keep], comp_sizes[keep]
    # ids ascend, so the first largest is the one with the smallest label
    giant = int(comp_ids[comp_sizes.argmax()]) if len(comp_ids) else -1
    return ComponentLabeling(raw, comp_ids, comp_sizes, giant)


@dataclass
class VertexMap:
    """Total map from cube vertices to sample vertices, as an array."""

    image: np.ndarray

    def __post_init__(self) -> None:
        self.image = np.asarray(self.image, dtype=np.int64)

    def __getitem__(self, v: int) -> int:
        return int(self.image[v])

    def __len__(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, shape: CubeShape) -> "VertexMap":
        return cls(np.arange(shape.vertex_count, dtype=np.int64))


@dataclass
class DistortionReport:
    d_plus: float
    d_minus: float
    distortion: float
    witness_plus: Optional[tuple[int, int]]
    witness_minus: Optional[tuple[int, int]]
    exactness: str  # "exact" or "sampled"
    pairs_evaluated: Optional[int]
    infinite: bool = False


def evaluate_distortion(
    sample: PercolationSample,
    vmap: VertexMap,
    mode: str = "exact",
    *,
    pair_count: int = 2048,
    seed: int = 0,
) -> DistortionReport:
    """Distortion of vmap from the full cube metric into the sample.

    Each mode supplies (a, b, d_Y) blocks of source pairs, in scan
    order, for each side; one scan keeps the first strict maximum of d_Y
    over the stretch blocks and the first strict minimum of
    max(1, d_Y) / d_X over the contraction blocks, and their pairs are
    the witnesses.

    Exact mode reads every d_Y from one `_distances` run from the
    distinct images; it is capped at n <= EXACT_CAP_DEFAULT.  Its
    stretch blocks are the cube edges of each coordinate c in turn,
    lower endpoint ascending; its contraction blocks are the pairs
    a < b of each vertex a in turn.  Sampled mode draws pair_count adjacent pairs, each
    measured by the scalar bounded_distance, then pair_count distinct
    pairs, batched PAIR_BATCH (64) per uint64 word in one multi-source
    BFS, giving a valid lower bound on D; pair_count must be positive.
    The stretch scan starts at -1 in exact mode, so its first edge is a
    witness even when every d_Y is 0, and at 0 in sampled mode, which
    then names no stretch witness.

    An image outside the cube or absent from the sample raises
    ValueError.  Then one `bfs` from img[0] decides connectivity: every
    image is present, so an image it does not reach lies in another
    component, and the report is infinite with the witness (0, the first
    source vertex whose image is unreached).
    """
    n = sample.shape.n
    nv = sample.shape.vertex_count
    img = vmap.image
    if len(img) != nv:
        raise ValueError("map length does not match the cube")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and pair_count <= 0:
        raise ValueError(f"sampled mode needs a positive pair_count, got {pair_count}")
    if mode == "exact" and n > EXACT_CAP_DEFAULT:
        raise CapExceeded(f"exact mode capped at n={EXACT_CAP_DEFAULT}, got n={n}")
    outside = (img < 0) | (img >= nv)
    if outside.any():
        v = int(np.flatnonzero(outside)[0])
        raise ValueError(f"image {img[v]} of vertex {v} is outside the cube [0, 2^{n})")
    present = sample.present_array()
    if not present[img].all():
        missing = int(np.nonzero(~present[img])[0][0])
        raise ValueError(f"image of vertex {missing} is not present in the sample")

    unreached = np.flatnonzero(bfs(sample, int(img[0])).dist[img] < 0)
    if len(unreached):
        witness = (0, int(unreached[0]))
        return DistortionReport(math.inf, 0.0, math.inf, witness, None, mode, None, infinite=True)

    if mode == "exact":
        distinct = np.unique(img)
        # every entry read lies in the images' one component, so none is inf
        dmat = _distances(sample, distinct)
        img_idx = np.searchsorted(distinct, img)
        all_v = np.arange(nv)
        # the edges along c: the halves of the middle axis of the vertex
        # array viewed as (2^(n-c-1), 2, 2^c)
        edges = (all_v.reshape(-1, 2, 1 << c).swapaxes(0, 1).reshape(2, -1) for c in range(n))
        stretch = ((lo, hi, dmat[img_idx[lo], img[hi]]) for lo, hi in edges)
        contraction = (
            (np.broadcast_to(a, nv - a - 1), all_v[a + 1 :], dmat[img_idx[a], img[a + 1 :]])
            for a in range(nv - 1)
        )
        best_plus, pairs_evaluated = -1, None
    else:
        stream = CounterStream(seed)
        adjacent = []
        for _ in range(pair_count):
            a = stream.below(nv)
            adjacent.append((a, a ^ (1 << stream.below(n))))
        pairs = []
        for _ in range(pair_count):
            a = stream.below(nv)
            b = stream.below(nv)
            while b == a:
                b = stream.below(nv)
            pairs.append((a, b))
        adjacent, pairs = np.array(adjacent), np.array(pairs)
        dys = [bounded_distance(sample, u, v) for u, v in img[adjacent].tolist()]
        stretch = [(*adjacent.T, np.array(dys))]
        batches = (pairs[lo : lo + PAIR_BATCH] for lo in range(0, pair_count, PAIR_BATCH))
        contraction = (
            (*batch.T, np.array(_pair_distances(sample, *img[batch].T))) for batch in batches
        )
        best_plus, pairs_evaluated = 0, 2 * pair_count

    wit_plus = None
    for a, b, dy in stretch:
        k = int(np.argmax(dy))
        if dy[k] > best_plus:
            best_plus, wit_plus = dy[k], (int(a[k]), int(b[k]))
    best_minus, wit_minus = math.inf, None
    for a, b, dy in contraction:
        ratios = np.maximum(dy, 1.0) / np.bitwise_count(a ^ b)
        k = int(np.argmin(ratios))
        if ratios[k] < best_minus:
            best_minus, wit_minus = float(ratios[k]), (int(a[k]), int(b[k]))

    d_plus = max(1.0, float(best_plus))
    return DistortionReport(
        d_plus, best_minus, d_plus / best_minus, wit_plus, wit_minus, mode, pairs_evaluated
    )


# ---------------------------------------------------------------------------
# exact search for the least-distortion map into the giant component


def _search_maps(n: int, dy_raw: list, dy_clamped: list):
    """Depth-first branch and bound over maps {0 .. 2^n - 1} -> range(T).

    A map's cost is D = mx / mn with mx = max(1, dy_raw over cube edges)
    and mn = min over pairs a < b of dy_clamped / hamming(a, b).  Maps are
    visited in lexicographic order of their digits, vertex 0 most
    significant.  Fixing vertex k only adds terms to both extrema, so mx
    never falls and mn never rises as a prefix grows; correctly rounded
    division is monotone, so a prefix whose mx / mn already reaches the
    best D has no strictly better completion and is skipped.  The first
    optimum is therefore the same as an exhaustive scan's, and so are its
    mx, mn and D, which come from the same float operations.

    Returns (digits, D, mx, mn) of that first optimum.
    """
    nv = 1 << n
    T = len(dy_raw)
    # the terms vertex k adds: cube edges to its lower neighbours, and
    # pairs with every lower vertex
    lower_nbrs = [flip_neighbors(k, k) for k in range(nv)]
    lower_hamm = [[float(hamming(j, k)) for j in range(k)] for k in range(nv)]
    digits = [0] * nv
    best = [math.inf, None, 0.0, 0.0]

    def extend(k: int, mx: float, mn: float) -> None:
        raw_rows = [dy_raw[digits[j]] for j in lower_nbrs[k]]
        pair_rows = [(dy_clamped[digits[j]], h) for j, h in enumerate(lower_hamm[k])]
        for t in range(T):
            hi = mx
            for row in raw_rows:
                if row[t] > hi:
                    hi = row[t]
            lo = mn
            for row, h in pair_rows:
                r = row[t] / h
                if r < lo:
                    lo = r
            d = hi / lo
            if d >= best[0]:
                continue
            digits[k] = t
            if k + 1 < nv:
                extend(k + 1, hi, lo)
            else:
                best[:] = d, digits.copy(), hi, lo

    extend(0, 1.0, math.inf)
    return best[1], best[0], best[2], best[3]


def brute_force_min_distortion(
    sample: PercolationSample,
) -> tuple[VertexMap, DistortionReport]:
    """Exact minimum-distortion map into the giant component.

    Searches the maps from the cube into the giant in lexicographic order
    (vertex 0 most significant, giant vertices in increasing order),
    pruning every prefix that cannot beat the best map found so far, and
    returns the first optimum in that order.  The report's d_plus,
    d_minus and distortion are the search's own numbers; its witnesses
    come from the exact evaluator.  Enforced for n <= 3 only.
    """
    n = sample.shape.n
    if n > BRUTE_FORCE_CAP:
        raise TooLarge(f"exhaustive map search capped at n={BRUTE_FORCE_CAP}")
    labeling = components(sample)
    if labeling.giant_label < 0:
        raise GiantTooSmall("sample has no present vertices")
    target = np.nonzero(labeling.labels == labeling.giant_label)[0].astype(np.int64)

    dy = _distances(sample, target)[:, target]
    digits, best_d, best_plus, best_minus = _search_maps(
        n, dy.tolist(), np.maximum(dy, 1.0).tolist()
    )

    best_map = VertexMap(target[digits])
    witnesses = evaluate_distortion(sample, best_map, "exact")
    report = dataclasses.replace(
        witnesses, d_plus=best_plus, d_minus=best_minus, distortion=best_d
    )
    return best_map, report
