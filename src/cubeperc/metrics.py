"""Graph metrics over percolation samples: BFS distances, connected
components, and metric distortion of vertex maps.

Open-graph distances come from one BFS kernel, `_bfs_bits`, which runs
k searches at once, each as one bit per vertex, and reads the open edges
from the sample's cached open-bit planes (`open_bit_planes`).  `bfs`
runs it from one source, and `evaluate_distortion` asks `bfs` whether
every image is reachable from the first; `_distances` runs it from many
sources (the exact evaluator, the brute-force search and
`cycles.image_walk`).  `bounded_distance` is the scalar search for
single pairs with a cutoff, over the per-vertex open-neighbour masks;
it measures every pair that the sampled evaluator searches.
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
from .percolation import _IN_WORD, CounterStream, PercolationSample

EXACT_CAP_DEFAULT = 12
BRUTE_FORCE_CAP = 3


@dataclass
class DistanceField:
    """BFS distances from one source; -1 marks not reached."""

    source: int
    dist: np.ndarray

    def distance(self, v: int) -> Optional[int]:
        """The distance to v, None if unreached; a v outside the cube
        raises ValueError."""
        CubeShape(len(self.dist).bit_length() - 1).check_vertex(v)
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


# a level of k searches over nw words each moves only the nonzero words
# of its frontier (the sparse step) while they number fewer than this
# share of k nw + 4096; a larger level moves every word (the dense step).
# Forcing one step on every level of bond searches at p = n^-alpha put
# the break-even at 450 of 1024 words for one search at n = 16, 1.8 K of
# 16 K at n = 20, 1.2 K of 4 K for 64 searches at n = 12, 7.3 K of 64 K
# at n = 16, 18 K of 128 K for 8 searches at n = 20 and 53 K of 256 K for
# all 4096 sources at n = 12: near an eighth of the words, plus the
# dense step's fixed calls at small k nw
_SPARSE_SHARE = 1 / 8


def _bfs_bits(sample: PercolationSample, sources):
    """Multi-source BFS over the sample's open-bit planes, one level at
    a time, holding each search as one bit per vertex.  A source outside
    the cube raises ValueError.

    Multi-source BFS (Then et al., VLDB 2014): row i of a (k, nw) uint64
    array, nw = ceil(nv / 64) (one padded word when n < 6), is the
    frontier of the search from sources[i], vertex v at bit v % 64 of
    word v // 64, so all k searches advance one level per step with the
    same numpy calls.  Yields (level, frontier) from level 0, the
    sources, until no search reaches a new vertex: frontier holds the
    bits of the vertices each search first reaches at this level.  The
    next level overwrites it.

    A step moves the frontier across every coordinate c and ORs it into
    the next frontier.  lo[c] and hi[c] hold the lower and the upper ends
    of c's open edges, split from the cached plane of c (whose run
    swaps take both at once for c >= 10), so the frontier ANDed with
    lo[c] moves 2^c vertices up and ANDed with hi[c] 2^c down: by a shift
    inside each word for c < 6, by 2^(c-6) words for c >= 6.  A search's
    nw words hold whole aligned runs of 2^(c-5) words, so a move never
    leaves the search's own row, and the flat k nw words move as one.
    Each level picks its step by the size of its frontier, as
    direction-optimizing BFS does (Beamer et al., SC 2012): the dense
    step moves every word with whole-array calls, one coordinate at a
    time; the sparse step, taken while the frontier has fewer than
    _SPARSE_SHARE of k nw + 4096 nonzero words, gathers those words and
    their open ends and moves them along every coordinate at once.
    """
    n, nv = sample.shape.n, sample.shape.vertex_count
    sources = np.asarray(sources, dtype=np.int64)
    outside = np.flatnonzero((sources < 0) | (sources >= nv))
    if len(outside):
        sample.shape.check_vertex(int(sources[outside[0]]))
    planes = sample.open_bit_planes()
    k, nw = len(sources), planes.shape[1]
    # ends[0, c] and ends[1, c]: the lower and the upper ends of c's open
    # edges
    ends = np.empty((2, n, nw), dtype=np.uint64)
    lo, hi = ends
    lo[:] = planes
    for c in range(n):
        if c < 6:
            lo[c] &= _IN_WORD[c]
        else:
            lo[c].reshape(-1, 2, 1 << (c - 6))[:, 1] = 0
    np.bitwise_xor(planes, lo, out=hi)
    # both ends at once, for the coordinates whose halves the dense step
    # swaps whole
    both = planes[10:]
    shifts = np.left_shift(np.uint64(1), np.arange(min(n, 6), dtype=np.uint64))[:, None]
    jumps = np.left_shift(1, np.arange(n - min(n, 6)))[:, None]
    frontier = np.zeros((k, nw), dtype=np.uint64)
    frontier[np.arange(k), sources >> 6] = np.left_shift(np.uint64(1), (sources & 63).astype(np.uint64))
    unvisited = ~frontier
    nxt, moved = np.empty_like(frontier), np.empty_like(frontier)
    live = np.flatnonzero(frontier != 0)
    level = 0
    while len(live):
        yield level, frontier
        level += 1
        nxt.fill(0)
        flat, out, tmp = frontier.reshape(-1), nxt.reshape(-1), moved.reshape(-1)
        if len(live) < _SPARSE_SHARE * (k * nw + 4096):
            # each word's open ends, by its place in its search (take's
            # mode="wrap" did the same 500 times slower)
            moves = ends.take(live & (nw - 1), axis=2)
            moves &= flat[live]
            # moves inside a word stay in it, so one plain store; a word
            # 2^(c-6) away can be two words' target for two c, hence the
            # unbuffered OR
            moves[0, :6] <<= shifts
            moves[1, :6] >>= shifts
            out[live] = np.bitwise_or.reduce(moves[:, :6], axis=(0, 1))
            np.bitwise_or.at(out, live ^ jumps, moves[0, 6:] | moves[1, 6:])
        else:
            for c in range(n):
                if c < 6:
                    shift = np.uint64(1 << c)
                    np.bitwise_and(frontier, lo[c], out=moved)
                    nxt |= np.left_shift(moved, shift, out=moved)
                    np.bitwise_and(frontier, hi[c], out=moved)
                    nxt |= np.right_shift(moved, shift, out=moved)
                elif c < 10:
                    jump = 1 << (c - 6)
                    np.bitwise_and(frontier, lo[c], out=moved)
                    out[jump:] |= tmp[:-jump]
                    np.bitwise_and(frontier, hi[c], out=moved)
                    out[:-jump] |= tmp[jump:]
                else:
                    # runs of 16 words or more swap as the halves of the
                    # middle axis, both ends in one pass; shorter runs
                    # iterate two to three times slower than the shifts
                    np.bitwise_and(frontier, both[c - 10], out=moved)
                    halves = out.reshape(-1, 2, 1 << (c - 6))
                    np.bitwise_or(halves, tmp.reshape(halves.shape)[:, ::-1], out=halves)
        nxt &= unvisited
        unvisited ^= nxt
        # nonzero on the words themselves took five times as long
        live = (out != 0).nonzero()[0]
        frontier, nxt = nxt, frontier


def _reach(sample: PercolationSample, sources) -> np.ndarray:
    """One `_bfs_bits` run from the sources: a (k, nv) array, row i
    holding level + 1 where the search from sources[i] first reaches each
    vertex and 0 where it never does, in the least unsigned dtype that
    holds the deepest level + 1.

    The levels are written bit-sliced: bit b of level + 1 ORs the
    level's frontier into plane b, so a level costs a few word ORs, and
    the planes are unpacked to bytes once, at the end."""
    planes = []
    depth = 0
    for level, frontier in _bfs_bits(sample, sources):
        depth = level + 1
        if depth == 1 << len(planes):
            planes.append(np.zeros_like(frontier))
        for b, plane in enumerate(planes):
            if depth >> b & 1:
                plane |= frontier
    reach = np.zeros((len(sources), sample.shape.vertex_count), dtype=np.min_scalar_type(depth))
    for b, plane in enumerate(planes):
        # bit j of a little-endian word is vertex 64 w + j; the padding
        # past nv (n < 6) is dropped
        bits = np.unpackbits(plane.view(np.uint8), axis=1, count=reach.shape[1], bitorder="little")
        reach |= np.left_shift(bits, b, dtype=reach.dtype)
    return reach


def _distances(sample: PercolationSample, sources) -> np.ndarray:
    """Open-graph distances from each source (a row per source, or one
    row for a scalar source), float64 with inf for unreached: `_reach`,
    then 0 to inf and d + 1 to d by one table lookup."""
    scalar = np.ndim(sources) == 0
    reach = _reach(sample, np.atleast_1d(np.asarray(sources, dtype=np.int64)))
    table = np.arange(-1.0, reach.max(initial=0))
    table[0] = np.inf
    dist = table[reach]
    return dist[0] if scalar else dist


def bfs(sample: PercolationSample, source: int) -> DistanceField:
    if not sample.vertex_present(source):
        raise SourceAbsent(f"vertex {source} is not present in the sample")
    dist = np.subtract(_reach(sample, [source])[0], 1, dtype=np.int32)
    return DistanceField(source, dist)


def bounded_distance(
    sample: PercolationSample,
    u: int,
    v: int,
    cutoff: Optional[int] = None,
) -> Optional[int]:
    """Open-graph distance between u and v, or None when it exceeds the
    cutoff (or no path exists).  No path is shorter than h = |u ^ v|: a
    depth-first walk that flips only bits in which it differs from v
    finds one of length h if there is one, in about h steps in a dense
    sample, and bidirectional ball growing finds the rest.  An end
    outside the cube or a negative cutoff raises ValueError, also when
    u == v."""
    sample.shape.check_vertex(u)
    sample.shape.check_vertex(v)
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    h = hamming(u, v)
    if cutoff is not None and h > cutoff:
        return None
    masks = sample.open_neighbor_masks_array()
    stack, seen = [u], {u}
    while stack:
        w = stack.pop()
        if w == v:
            return h
        steps = [x for x in flip_neighbors(w, int(masks[w]) & (w ^ v)) if x not in seen]
        seen.update(steps)
        stack += steps
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

    The witnesses are the first pairs in scan order that attain the
    greatest d_Y over the stretch pairs and the least max(1, d_Y) / d_X
    over the contraction pairs.  Exact mode reads every d_Y from one
    `_distances` run from the distinct images; it is capped at
    n <= EXACT_CAP_DEFAULT.  Its stretch pairs are the cube edges of
    each coordinate c in turn, lower endpoint ascending; its
    contraction pairs are the pairs a < b of each vertex a in turn.
    Sampled mode draws pair_count adjacent pairs, then pair_count
    distinct pairs, giving a valid lower bound on D; pair_count must be
    positive.  The stretch scan starts at -1 in exact mode, so its first
    edge is a witness even when every d_Y is 0, and at 0 in sampled
    mode, which then names no stretch witness.

    Sampled mode measures pairs with `bounded_distance`.  A path in the
    sample is a path in the cube, so no distinct pair's ratio is below
    lb = max(1, |f a ^ f b|) / |a ^ b|.  The pairs are searched in
    ascending (lb, draw index) order with the cutoff floor(best |a ^ b|)
    + 1, which no d_Y whose ratio is at or under the best so far
    exceeds, until a pair's lb exceeds the best or ties it at a later
    draw than the witness.

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
        best_plus, pairs_evaluated = -1, None
        best_minus, wit_minus = math.inf, None
        for a in range(nv - 1):
            b = all_v[a + 1 :]
            ratios = np.maximum(dmat[img_idx[a], img[b]], 1.0) / np.bitwise_count(a ^ b)
            k = int(np.argmin(ratios))
            if ratios[k] < best_minus:
                best_minus, wit_minus = float(ratios[k]), (a, int(b[k]))
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
        adjacent = np.array(adjacent)
        dys = [bounded_distance(sample, u, v) for u, v in img[adjacent].tolist()]
        stretch = [(*adjacent.T, np.array(dys))]
        best_plus, pairs_evaluated = 0, 2 * pair_count
        a, b = np.array(pairs).T
        hs = np.bitwise_count(a ^ b).tolist()
        lbs = (np.maximum(np.bitwise_count(img[a] ^ img[b]), 1.0) / hs).tolist()
        best_minus, wit = math.inf, None
        for i in np.argsort(lbs, kind="stable").tolist():
            if lbs[i] > best_minus or (lbs[i] == best_minus and i > wit):
                break
            cutoff = None if wit is None else math.floor(best_minus * hs[i]) + 1
            dy = bounded_distance(sample, int(img[a[i]]), int(img[b[i]]), cutoff)
            # every image lies in one component, so None is over the cutoff
            if dy is None:
                continue
            ratio = max(dy, 1) / hs[i]
            if ratio < best_minus or (ratio == best_minus and i < wit):
                best_minus, wit = ratio, i
        wit_minus = pairs[wit]

    wit_plus = None
    for a, b, dy in stretch:
        k = int(np.argmax(dy))
        if dy[k] > best_plus:
            best_plus, wit_plus = dy[k], (int(a[k]), int(b[k]))

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
