"""Graph metrics over percolation samples: BFS distances, connected
components, and metric distortion of vertex maps.

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
from scipy.sparse.csgraph import connected_components, dijkstra

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


def _open_graph(sample: PercolationSample) -> csr_matrix:
    """The open graph as a csr adjacency matrix holding each open edge
    once, for scipy's csgraph routines with directed=False.  float64
    data, so no cast copy happens inside them."""
    nv = sample.shape.vertex_count
    row, col = map(np.concatenate, zip(*sample.open_edge_endpoints()))
    return coo_matrix((np.ones(len(row), dtype=np.float64), (row, col)), shape=(nv, nv)).tocsr()


def _distances(sample: PercolationSample, sources) -> np.ndarray:
    """Open-graph distances from each source (a row per source, or one
    row for a scalar source), float64 with inf for unreached."""
    return dijkstra(_open_graph(sample), directed=False, unweighted=True, indices=sources)


def bfs(sample: PercolationSample, source: int) -> DistanceField:
    if not sample.vertex_present(source):
        raise SourceAbsent(f"vertex {source} is not present in the sample")
    dist = _distances(sample, source)
    dist[np.isinf(dist)] = -1
    return DistanceField(source, dist.astype(np.int32))


def bounded_distance(
    sample: PercolationSample,
    u: int,
    v: int,
    cutoff: Optional[int] = None,
) -> Optional[int]:
    """Open-graph distance between u and v, or None when it exceeds the
    cutoff (or no path exists).  Bidirectional ball growing."""
    if u == v:
        return 0
    if not (sample.vertex_present(u) and sample.vertex_present(v)):
        return None
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
            # the set-bit walk is written out rather than taken from
            # flip_neighbors: this loop is hot in neighbor_distance_stats
            # (cutoff searches at n = 20) and the stretch pairs of
            # sampled distortion, and through the helper 128 far-pair
            # searches on an n = 16 dense sample took 1.52-2.06 s
            # against 1.51-1.57 s inline (2-core x86 box)
            m = int(masks[w])
            while m:
                low = m & -m
                m ^= low
                x = w ^ low
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
    None where a pair is unreachable.

    Multi-source BFS (Then et al., VLDB 2014): bit i of a vertex's
    uint64 word stands for the search from us[i], so every search
    advances one level per sweep over the cube.  A step along
    coordinate c is the swap of the two halves of the middle axis of
    the word array viewed as (2^(n-c-1), 2, 2^c), kept where bit c of
    the mask array says the edge is open.
    """
    k = len(us)
    if not 0 < k <= PAIR_BATCH or len(vs) != k:
        raise ValueError(f"need 1 to {PAIR_BATCH} pairs of equal length, got {k}")
    n = sample.shape.n
    nv = sample.shape.vertex_count
    masks = sample.open_neighbor_masks_array()
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    bits = np.left_shift(np.uint64(1), np.arange(k, dtype=np.uint64))

    dist = np.where(us == vs, 0, -1)
    frontier = np.zeros(nv, dtype=np.uint64)
    np.bitwise_or.at(frontier, us, bits)
    unvisited = ~frontier
    nxt = np.empty_like(frontier)
    # per coordinate, built once per batch: the view shape and its open bits
    views = []
    for c in range(n):
        shape3 = (nv >> (c + 1), 2, 1 << c)
        open_c = (masks & np.uint32(1 << c)).astype(bool).reshape(shape3)
        views.append((shape3, open_c))
    level = 0
    while (dist < 0).any():
        level += 1
        nxt.fill(0)
        for shape3, open_c in views:
            step = frontier.reshape(shape3)[:, ::-1, :]
            nxt3 = nxt.reshape(shape3)
            np.bitwise_or(nxt3, step, out=nxt3, where=open_c)
        nxt &= unvisited
        if not nxt.any():
            break
        unvisited ^= nxt
        dist[(dist < 0) & ((nxt[vs] & bits) != 0)] = level
        frontier, nxt = nxt, frontier
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
        return self.labels == self.giant_label


# read by the environment stamp of perfbench/run.py until the benchmark
# drops that field; component labelling has no numba path
_numba = None


def components(sample: PercolationSample) -> ComponentLabeling:
    """Exact labeling of the open graph's connected components."""
    nv = sample.shape.vertex_count
    # a bond sample has every vertex, so it skips the presence array
    site = sample.model.has_site_draws
    present = sample.present_array() if site else None
    if site and not present.any():
        return ComponentLabeling(
            np.full(nv, -1, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            -1,
        )
    ncomp, raw = connected_components(_open_graph(sample), directed=False)
    # reversed assignment leaves each id's first (smallest) vertex, so
    # every component is named by its smallest vertex
    canon = np.empty(ncomp, dtype=np.int32)
    canon[raw[::-1]] = np.arange(nv - 1, -1, -1, dtype=np.int32)
    labels = canon[raw]
    if site:
        labels = np.where(present, labels, np.int32(-1))
        sizes_full = np.bincount(labels[labels >= 0], minlength=nv)
    else:
        sizes_full = np.bincount(labels, minlength=nv)
    comp_ids = np.nonzero(sizes_full)[0].astype(np.int64)
    comp_sizes = sizes_full[comp_ids]
    biggest = comp_sizes.max()
    giant = int(comp_ids[comp_sizes == biggest].min())
    return ComponentLabeling(labels, comp_ids, comp_sizes, giant)


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


def _infinite_report(exactness: str, witness: tuple[int, int]) -> DistortionReport:
    return DistortionReport(
        d_plus=math.inf,
        d_minus=0.0,
        distortion=math.inf,
        witness_plus=witness,
        witness_minus=None,
        exactness=exactness,
        pairs_evaluated=None,
        infinite=True,
    )


def _disconnection_witness(labeling: ComponentLabeling, images: np.ndarray):
    """A pair of source vertices whose images live in different components,
    or None when all images share one component."""
    labs = labeling.labels[images]
    first = labs[0]
    bad = np.nonzero(labs != first)[0]
    if len(bad) == 0 and first >= 0:
        return None
    other = int(bad[0]) if len(bad) else 0
    return (0, other)


def evaluate_distortion(
    sample: PercolationSample,
    vmap: VertexMap,
    mode: str = "exact",
    *,
    pair_count: int = 2048,
    seed: int = 0,
) -> DistortionReport:
    """Distortion of vmap from the full cube metric into the sample.

    Exact mode takes the distances from every distinct image in one
    scipy call and scans all pairs; it is capped at n <=
    EXACT_CAP_DEFAULT.  Sampled mode evaluates pair_count adjacent pairs
    for the stretch side, each by the scalar bounded_distance, and
    pair_count arbitrary pairs for the contraction side, batched
    PAIR_BATCH (64) per uint64 word in one multi-source BFS, giving a
    valid lower bound on D.  pair_count must be positive in sampled mode.
    """
    n = sample.shape.n
    nv = sample.shape.vertex_count
    img = vmap.image
    if len(img) != nv:
        raise ValueError("map length does not match the cube")
    if mode == "sampled" and pair_count <= 0:
        raise ValueError(f"sampled mode needs a positive pair_count, got {pair_count}")
    present = sample.present_array()
    if not present[img].all():
        missing = int(np.nonzero(~present[img])[0][0])
        raise ValueError(f"image of vertex {missing} is not present in the sample")

    labeling = components(sample)
    witness = _disconnection_witness(labeling, img)
    if witness is not None:
        return _infinite_report(mode, witness)

    if mode == "exact":
        if n > EXACT_CAP_DEFAULT:
            raise CapExceeded(f"exact mode capped at n={EXACT_CAP_DEFAULT}, got n={n}")
        return _evaluate_exact(sample, img)
    if mode == "sampled":
        return _evaluate_sampled(sample, img, pair_count, seed)
    raise ValueError(f"unknown mode {mode!r}")


def _evaluate_exact(sample: PercolationSample, img: np.ndarray) -> DistortionReport:
    n = sample.shape.n
    nv = sample.shape.vertex_count
    distinct = np.unique(img)
    # every entry read lies in the images' one component, so none is inf
    dmat = _distances(sample, distinct)
    img_idx = np.searchsorted(distinct, img)

    # stretch over cube edges only
    all_v = np.arange(nv)
    best_plus = -1
    wit_plus = (0, 0)
    for c in range(n):
        base = all_v[(all_v >> c) & 1 == 0]
        other = base | (1 << c)
        dvals = dmat[img_idx[base], img[other]]
        k = int(np.argmax(dvals))
        if int(dvals[k]) > best_plus:
            best_plus = int(dvals[k])
            wit_plus = (int(base[k]), int(other[k]))

    # contraction over all pairs
    best_minus = math.inf
    wit_minus = (0, 1)
    for a in range(nv - 1):
        b = np.arange(a + 1, nv)
        dy = dmat[img_idx[a], img[b]]
        np.maximum(dy, 1.0, out=dy)
        dx = np.bitwise_count(np.uint64(a) ^ b.astype(np.uint64)).astype(np.float64)
        ratios = dy / dx
        k = int(np.argmin(ratios))
        if float(ratios[k]) < best_minus:
            best_minus = float(ratios[k])
            wit_minus = (a, int(b[k]))

    d_plus = max(1.0, float(best_plus))
    d_minus = float(best_minus)
    return DistortionReport(
        d_plus=d_plus,
        d_minus=d_minus,
        distortion=d_plus / d_minus,
        witness_plus=wit_plus,
        witness_minus=wit_minus,
        exactness="exact",
        pairs_evaluated=None,
    )


def _evaluate_sampled(
    sample: PercolationSample, img: np.ndarray, pair_count: int, seed: int
) -> DistortionReport:
    n = sample.shape.n
    nv = sample.shape.vertex_count
    stream = CounterStream(seed)

    best_plus = 0
    wit_plus = None
    for _ in range(pair_count):
        a = stream.below(nv)
        c = stream.below(n)
        b = a ^ (1 << c)
        dy = bounded_distance(sample, int(img[a]), int(img[b]))
        if dy is None:  # same component is pre-checked; defensive only
            return _infinite_report("sampled", (a, b))
        if dy > best_plus:
            best_plus = dy
            wit_plus = (a, b)

    pairs = []
    for _ in range(pair_count):
        a = stream.below(nv)
        b = stream.below(nv)
        while b == a:
            b = stream.below(nv)
        pairs.append((a, b))
    # all distances first, PAIR_BATCH searches per sweep; then the scan
    # in draw order keeps the first-strict-minimum witness
    ends = img[np.array(pairs, dtype=np.int64)]
    dys = []
    for lo in range(0, pair_count, PAIR_BATCH):
        batch = ends[lo : lo + PAIR_BATCH]
        dys += _pair_distances(sample, batch[:, 0], batch[:, 1])

    best_minus = math.inf
    wit_minus = None
    for (a, b), dy in zip(pairs, dys):
        if dy is None:
            return _infinite_report("sampled", (a, b))
        ratio = max(1.0, float(dy)) / float(hamming(a, b))
        if ratio < best_minus:
            best_minus = ratio
            wit_minus = (a, b)

    d_plus = max(1.0, float(best_plus))
    d_minus = float(best_minus)
    return DistortionReport(
        d_plus=d_plus,
        d_minus=d_minus,
        distortion=d_plus / d_minus,
        witness_plus=wit_plus,
        witness_minus=wit_minus,
        exactness="sampled",
        pairs_evaluated=2 * pair_count,
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
