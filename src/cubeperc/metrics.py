"""Graph metrics over percolation samples: BFS distances, connected
components, and metric distortion of vertex maps.

Open-graph distances come from one BFS kernel, `_bfs_bits`, which runs
k searches at once, each as one bit per vertex, and reads the open edges
from a sample's open-bit planes (`open_bit_planes`).  `bfs`
runs it from one source, and `evaluate_distortion` asks `bfs` whether
every image is reachable from the first; `_distances` runs it from many
sources (the exact evaluator, the brute-force search and
`cycles.image_walk`).  `bounded_distance` is the scalar search for
single pairs with a cutoff, over the per-vertex open-neighbour masks;
it measures every pair that the sampled evaluator searches.
`components` takes the giant out with one `_bfs_bits` reachability
sweep and labels the rest with scipy's `connected_components`, on
their compacted graph, or with block-wise passes over the whole cube
when the sweep reaches no more than half of the present vertices.
Both read the open edges from the planes the sweep built.

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
from .percolation import (
    _IN_WORD,
    CounterStream,
    PercolationSample,
    flip_across,
    lower_ends,
    unpack_vertices,
    vertex_ids,
)

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
    (row, col) array groups once, for the `connected_components` calls of
    `components` with directed=False: the compacted vertices outside the
    giant, or, in the block pass, a window's vertices at level 0 and its
    components from the level below (window-local ids from 0) at every
    later level.  float64 data, so no cast copy happens inside scipy;
    the int64 ids read from the planes are narrowed to int32 by
    coo_matrix, one window's edges at a time."""
    row, col = map(np.concatenate, zip(*edges))
    return coo_matrix((np.ones(len(row), dtype=np.float64), (row, col)), shape=(size, size)).tocsr()


# a level of k searches over nw words each moves only the nonzero words
# of its frontier (the sparse step) while they number fewer than this
# share of k nw + 4096; a larger level moves every word (the dense step).
# Forcing one step on every level of bond searches at p = n^-alpha put
# the break-even for one search at 616 of 1024 words at n = 16 and near
# 2.4 K of 16 K at n = 20, where the rule says 640 and 2560.  From all
# vertices it lies higher, at 5.6 K of 16 K (n = 10) and 84 K of 256 K
# (n = 12), but a share of 1/4 gained those runs only 3 to 6 % and cost
# one search 8 to 15 % at n = 16 and 20
_SPARSE_SHARE = 1 / 8


def _bfs_bits(planes: np.ndarray, sources):
    """Multi-source BFS over a sample's open-bit planes
    (`PercolationSample.open_bit_planes`), one level at a time, holding
    each search as one bit per vertex.  A source outside the cube raises
    ValueError.

    Multi-source BFS (Then et al., VLDB 2014): row i of a (k, nw) uint64
    array is the frontier of the search from sources[i] as a packed
    vertex set (`percolation.flip_across`), so all k searches advance one
    level per step with the same numpy calls.  Yields (level, frontier)
    from level 0, the sources, until no search reaches a new vertex:
    frontier holds the bits of the vertices each search first reaches at
    this level.  The next level overwrites it.

    Plane c has both ends of each open edge along c set, so the frontier
    ANDed with plane c and moved across c is the set it reaches along c.
    Each level picks its step by the size of its frontier, as
    direction-optimizing BFS does (Beamer et al., SC 2012): the dense
    step moves every word with whole-array calls, one coordinate at a
    time; the sparse step, taken while the frontier has fewer than
    _SPARSE_SHARE of k nw + 4096 nonzero words, gathers those words' open
    bits and moves them along every coordinate at once: by one shift
    inside each word for c < 6, to the word 2^(c-6) away for c >= 6.  A
    search's nw words hold whole aligned runs of 2^(c-5) words, so a move
    never leaves the search's own row.
    """
    n, nw = planes.shape
    sources = np.asarray(sources, dtype=np.int64)
    outside = np.flatnonzero((sources < 0) | (sources >= 1 << n))
    if len(outside):
        CubeShape(n).check_vertex(int(sources[outside[0]]))
    k = len(sources)
    in_word = _IN_WORD[: min(n, 6), None]
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
        out = nxt.reshape(-1)
        if len(live) < _SPARSE_SHARE * (k * nw + 4096):
            # each word's open bits, by its place in its search (take's
            # mode="wrap" did the same 500 times slower)
            moves = planes.take(live & (nw - 1), axis=1)
            moves &= frontier.reshape(-1)[live]
            # moves inside a word stay in it, so one plain store of
            # `flip_across` for every c < 6 at once (six calls took one
            # search at n = 8 and 12 about 1.5 times as long); a word
            # 2^(c-6) away can be two words' target for two c, hence the
            # unbuffered OR
            inside = ((moves[:6] & in_word) << shifts) | ((moves[:6] >> shifts) & in_word)
            out[live] = np.bitwise_or.reduce(inside, axis=0)
            np.bitwise_or.at(out, live ^ jumps, moves[6:])
        else:
            for c, plane in enumerate(planes):
                np.bitwise_and(frontier, plane, out=moved)
                nxt |= flip_across(moved, c)
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
    for level, frontier in _bfs_bits(sample.open_bit_planes(), sources):
        depth = level + 1
        if depth == 1 << len(planes):
            planes.append(np.zeros_like(frontier))
        for b, plane in enumerate(planes):
            if depth >> b & 1:
                plane |= frontier
    nv = sample.shape.vertex_count
    reach = np.zeros((len(sources), nv), dtype=np.min_scalar_type(depth))
    for b, plane in enumerate(planes):
        reach |= np.left_shift(unpack_vertices(plane, nv), b, dtype=reach.dtype)
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
    """Exact labeling of the open graph's connected components: each
    component is named by its smallest vertex, absent vertices carry -1,
    and the giant is the largest component, ties going to the smallest
    label.

    The samples the experiments label mostly have a giant holding most
    of the cube, so one `_bfs_bits` sweep first takes it out and only the
    rest is labelled (the Multistep scheme of Slota, Rajamanickam &
    Madduri, IPDPS 2014).  A component holding more than half of the
    present vertices is the unique largest, so a sweep that reaches more
    than half has found the giant.  Otherwise (no open edge, or a sweep
    that reaches half or less) the block pass `_block_components` labels
    the whole cube from the same planes; at n = 22, alpha = 1.0 one scipy
    call on the compacted graph of every vertex with an open edge took
    twice its time and 2.6 times its traced peak.  Both paths give the
    same labels, ids and sizes, bit for bit, and neither keeps the
    open-bit planes: a sample that had none cached has none afterwards.

    The sweep only records reachability: it ORs the frontiers into one
    packed set.  It starts from the vertex with the most open edges among
    the 64 vertices of the first nonzero word of the planes' OR, ties
    going to the lowest; the first vertex with an open edge missed a
    majority giant in 9 of 100 samples at n = 16, alpha = 0.75, this rule
    none of 530 at alpha = 0.75 for n = 10 to 20.

    Every giant vertex is labelled by the giant's smallest vertex, every
    present vertex without an open edge by itself, and the rest, the
    vertices with an open edge outside the giant (about 0.75 M of 16.7 M
    at n = 24, alpha = 0.75), by one scipy call on their compacted graph,
    read from plane c ANDed with the rest.  Each of their components is
    named by its smallest member, whatever scipy's numbering.  The labels
    and then the component ids, the vertices that label themselves, are
    written _CHUNK vertices at a time into arrays allocated once, after
    the planes are dropped.

    Traced peaks on fresh bond samples, seed 0: at n = 24 the sweep path
    peaks at 105 MiB for alpha = 0.75 and 71 MiB for alpha = 0.5 (the
    block pass 124 and 158 MiB); the fallback holds the planes through
    the block pass, and peaks at 19.7 MiB at n = 20, alpha = 1.0 and
    77.1 MiB at n = 22.
    """
    n, nv = sample.shape.n, sample.shape.vertex_count
    planes = sample.open_bit_planes(cache=False)
    touched = np.bitwise_or.reduce(planes, axis=0)
    reached = np.zeros_like(touched)
    if touched.any():
        word = int(touched.nonzero()[0][0])
        degrees = unpack_vertices(planes[:, word : word + 1].copy(), 64).sum(axis=0)
        for _, frontier in _bfs_bits(planes, [64 * word + int(degrees.argmax())]):
            reached |= frontier[0]
    giant_size = int(np.bitwise_count(reached).sum())
    site = sample.model.has_site_draws
    present = sample.present_array() if site else None
    n_present = int(np.count_nonzero(present)) if site else nv
    if 2 * giant_size <= n_present:
        del touched, reached
        return _block_components(sample, planes)
    word = int(reached.nonzero()[0][0])
    giant = 64 * word + int(vertex_ids(reached[word : word + 1])[0])

    ncomp = 1 + n_present - int(np.bitwise_count(touched).sum())
    rest = touched & ~reached
    del touched
    ids = vertex_ids(rest)
    edges = []
    for c in range(n):
        lo = vertex_ids(lower_ends(planes[c] & rest, c))
        edges.append((np.searchsorted(ids, lo), np.searchsorted(ids, lo + (1 << c))))
    del planes, rest
    k, lab = connected_components(_csr(edges, len(ids)), directed=False)
    del edges
    canon = np.full(k, nv, dtype=np.int64)
    np.minimum.at(canon, lab, ids)
    ncomp += k

    labels = np.empty(nv, dtype=np.int32)
    offsets = np.arange(min(_CHUNK, nv), dtype=np.int32)
    for start in range(0, nv, _CHUNK):
        part = labels[start : start + _CHUNK]
        np.add(offsets, start, out=part)
        np.putmask(part, unpack_vertices(reached[start >> 6 : (start + _CHUNK) >> 6], len(part)), giant)
        if site:
            part[~present[start : start + _CHUNK]] = -1
    labels[ids] = canon[lab]
    rest_sizes = np.bincount(lab, minlength=k)
    del ids, lab
    comp_ids = np.empty(ncomp, dtype=np.int64)
    filled = 0
    for start in range(0, nv, _CHUNK):
        roots = np.flatnonzero(labels[start : start + _CHUNK] - start == offsets) + start
        comp_ids[filled : filled + len(roots)] = roots
        filled += len(roots)
    comp_sizes = np.ones(ncomp, dtype=np.int64)
    comp_sizes[np.searchsorted(comp_ids, canon)] = rest_sizes
    comp_sizes[np.searchsorted(comp_ids, giant)] = giant_size
    return ComponentLabeling(labels, comp_ids, comp_sizes, giant)


def _window_edges(planes: np.ndarray, coords, start: int, size: int):
    """Per coordinate c in coords, the int64 (lower, upper) ends of the
    open edges along c inside the vertex window [start, start + size),
    numbered from start: lower ascending with bit c clear, upper =
    lower + 2^c.  size is a power of two, at least 2^(c+1) for every c,
    and start a multiple of it, so the window is whole words of plane c
    or, below 64 vertices, a run of one word's bits, shifted down to bit
    0.  Unpacking the window whole beat `vertex_ids`, which skips zero
    words, on the block pass's mostly nonzero windows: 26.8 against
    29.7 ms of reads per fallback at n = 20, alpha = 1.0."""
    words = planes[:, start >> 6 : (start + size + 63) >> 6]
    for c in coords:
        ends = lower_ends(words[c], c) >> np.uint64(start & 63)
        lower = np.flatnonzero(unpack_vertices(ends, size).view(bool))
        yield lower, lower + (1 << c)


def _block_components(sample: PercolationSample, planes: np.ndarray) -> ComponentLabeling:
    """The labelling of `components` over the whole cube, from the
    sample's open-bit planes.

    Block-wise cluster relabelling (Hoshen & Kopelman 1976), carried up
    the coordinates one level at a time.  Level 0 labels the edges along
    coordinates below _BLOCK_BITS, which stay inside blocks of
    2^_BLOCK_BITS consecutive vertices, one aligned window of
    2^max(_BLOCK_BITS, 16) vertices at a time (the whole cube for
    n <= 16): each window reads its edges from its own words of the
    planes (`_window_edges`), labels a window-sized graph with one scipy
    call and numbers its components, the block ids, after those of the
    windows before it.  An edge along a high coordinate jumps 2^c
    vertices, so a single DFS over the whole cube misses the cache on
    most steps; the block pass keeps those misses out of the larger part
    of the work.  At 2^16 vertices a block's int32 labels and the csr
    rows scipy reads in both directions take about 1 MiB.

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
    nv-long array allocated; the planes come from the caller, who holds
    them through the pass.  At n = 24, alpha = 0.75 the traced peak
    is 124 MiB without the planes (249 MiB with one whole-cube pass of
    the high edges): the 64 MiB ids and scipy's call on the top level's
    2.4 M-node graph.
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
        graph = _csr(_window_edges(planes, low, start, size), size)
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
            edges = _window_edges(planes, coords, start, width)
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
        """The image of v; a v outside the cube raises ValueError."""
        CubeShape(len(self.image).bit_length() - 1).check_vertex(v)
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
