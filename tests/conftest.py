"""Shared fixtures and independent oracles.

The oracles here are deliberately naive (dict BFS, flood fill, networkx
cycle enumeration, scoring every vertex map) so library results are
checked against code that shares no implementation with the package.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

import cubeperc
from cubeperc.cycles import SimpleCycle
from cubeperc.embedding import FailureReport
from cubeperc.hypercube import CubeShape, flip_neighbors, hamming
from cubeperc.metrics import DistortionReport, VertexMap, bounded_distance
from cubeperc.percolation import CounterStream, PercModel, sample


def pytest_report_header(config):
    # pyproject's pythonpath = ["src"] goes before PYTHONPATH, so name the
    # package that is under test
    return f"cubeperc: {cubeperc.__file__}"


# one line per acceptance gate, echoed at the end of the run so the
# verdicts survive pytest's output capture
GATE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gates")
        for line in GATE_LINES:
            terminalreporter.write_line(line)


MODEL_KINDS = ("bond", "site", "mixed")


def perc_model(kind: str, p: float) -> PercModel:
    """A model of the given kind at probability p; mixed keeps edges at
    p and vertices at the likelier (1 + p) / 2."""
    if kind == "mixed":
        return PercModel.mixed(p, (1.0 + p) / 2.0)
    return getattr(PercModel, kind)(p)


def open_edge_set(sm) -> set[tuple[int, int]]:
    """All open edges as (min, max) vertex pairs, via the scalar API."""
    out = set()
    n = sm.shape.n
    for v in range(sm.shape.vertex_count):
        for c in range(n):
            w = v ^ (1 << c)
            if v < w and sm.edge_open(v, w):
                out.add((v, w))
    return out


def oracle_open_edges(sm):
    """Per coordinate c, c and the (base, other) int64 ends of the open
    edges along c, from the raw draws: find the drawn edges and keep
    those with both ends present."""
    present = sm.present_array()
    for c in range(sm.shape.n):
        comp = np.nonzero(sm.edge_draw_slice(c))[0]
        base = ((comp >> c) << (c + 1)) | (comp & ((1 << c) - 1))
        other = base | (1 << c)
        keep = present[base] & present[other]
        yield c, base[keep], other[keep]


def draw_window_endpoints(sm, coords, start, size):
    """The open-edge endpoints as the draw-window reader gave them before
    the block pass read the open-bit planes: per coordinate c in coords,
    int32 (base, other) vertex arrays of the open edges along c with both
    ends in the vertex window [start, start + size), numbered from the
    window's start, read from the window's bytes of the packed draw with
    presence ANDed in per window.  size is a power of two, at least
    2^(c+1) for every c, and start a multiple of it."""
    present = sm.present_array()[start : start + size] if sm.model.has_site_draws else None
    for c in coords:
        # the draws along c with compressed base ids from start / 2 on
        first, count = c * (1 << (sm.shape.n - 1)) + (start >> 1), size >> 1
        lo, hi = first >> 3, (first + count + 7) >> 3
        bits = np.unpackbits(sm._edge_bits[lo:hi], bitorder="little")
        skip = first - (lo << 3)
        open_c = bits[skip : skip + count].view(bool)
        if present is not None:
            ends = present.reshape(-1, 2, 1 << c)
            open_c = open_c & (ends[:, 0] & ends[:, 1]).reshape(-1)
        comp = np.flatnonzero(open_c).astype(np.int32)
        base = comp + ((comp >> c) << c)  # a 0 inserted at bit c
        yield base, base + (1 << c)


def oracle_masks(sm) -> np.ndarray:
    """The per-vertex open-neighbour masks by the scatter build: set
    bit c at both ends of every open edge along c."""
    masks = np.zeros(sm.shape.vertex_count, dtype=np.uint32)
    for c, base, other in oracle_open_edges(sm):
        masks[base] |= np.uint32(1 << c)
        masks[other] |= np.uint32(1 << c)
    return masks


def oracle_bfs(sm, source: int) -> dict[int, int]:
    """Plain dict BFS over the open graph."""
    dist = {source: 0}
    q = deque([source])
    n = sm.shape.n
    while q:
        v = q.popleft()
        for c in range(n):
            w = v ^ (1 << c)
            if w not in dist and sm.edge_open(v, w):
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def oracle_components(sm) -> list[set[int]]:
    """Flood fill over present vertices; singletons included."""
    seen = set()
    comps = []
    for v in range(sm.shape.vertex_count):
        if v in seen or not sm.vertex_present(v):
            continue
        comp = {v}
        q = deque([v])
        while q:
            u = q.popleft()
            for c in range(sm.shape.n):
                w = u ^ (1 << c)
                if w not in comp and sm.edge_open(u, w):
                    comp.add(w)
                    q.append(w)
        seen |= comp
        comps.append(comp)
    return comps


def scipy_open_graph(sm):
    """The whole open graph as one scipy csr adjacency, each edge of
    `oracle_open_edges` once."""
    nv = sm.shape.vertex_count
    _, base, other = zip(*oracle_open_edges(sm))
    row, col = np.concatenate(base), np.concatenate(other)
    return coo_matrix((np.ones(len(row)), (row, col)), shape=(nv, nv)).tocsr()


def scipy_distances(sm, sources) -> np.ndarray:
    """The scipy `dijkstra` distances that the word-parallel BFS of
    `metrics._distances` replaced: a float64 row per source (one row for
    a scalar source), inf where unreached."""
    return dijkstra(scipy_open_graph(sm), directed=False, unweighted=True, indices=sources)


def one_call_labels(sm) -> np.ndarray:
    """The single-pass labelling that `components` replaced: one scipy
    call on the whole open graph, each component named by its smallest
    vertex, absent vertices -1, int32."""
    ncomp, raw = connected_components(scipy_open_graph(sm), directed=False)
    nv = sm.shape.vertex_count
    canon = np.full(ncomp, nv, dtype=np.int32)
    np.minimum.at(canon, raw, np.arange(nv, dtype=np.int32))
    return np.where(sm.present_array(), canon[raw], np.int32(-1))


def oracle_min_distortion(sm) -> tuple[list[int], float, float, float]:
    """First least-distortion map into the giant, by scoring every map.

    The giant is the largest component, ties going to the one with the
    smallest vertex.  Maps are enumerated in lexicographic order, vertex 0
    most significant, and scored as the package defines distortion:
    D+ = max(1, d_Y over cube edges), D- = min over pairs of
    max(1, d_Y) / d_X, D = D+ / D-.  Returns (image, D+, D-, D) of the
    first map with the least D.
    """
    comps = oracle_components(sm)
    size = max(len(c) for c in comps)
    giant = sorted(min((c for c in comps if len(c) == size), key=min))
    dist = {u: oracle_bfs(sm, u) for u in giant}
    n, nv = sm.shape.n, sm.shape.vertex_count
    edges = [(a, a | 1 << c) for a in range(nv) for c in range(n) if not a >> c & 1]
    pairs = [(a, b, float(bin(a ^ b).count("1"))) for a in range(nv) for b in range(a + 1, nv)]
    best = None
    for image in itertools.product(giant, repeat=nv):
        d_plus = max([1.0] + [float(dist[image[a]][image[b]]) for a, b in edges])
        d_minus = min(max(1.0, float(dist[image[a]][image[b]])) / h for a, b, h in pairs)
        d = d_plus / d_minus
        if best is None or d < best[3]:
            best = (list(image), d_plus, d_minus, d)
    return best


def oracle_sampled_distortion(sm, vmap, pair_count: int, seed: int) -> DistortionReport:
    """Sampled distortion by one scalar bounded_distance search per
    pair, in draw order: pair_count adjacent pairs for the stretch, then
    pair_count distinct pairs for the contraction, from one
    CounterStream(seed).  Witnesses are the first strict extrema; a pair
    with no path ends the scan with an infinite report.  This is the
    reference that the evaluator's lower-bound scan of the contraction
    pairs must reproduce exactly, so it shares the package's scalar
    search and pair stream."""
    nv, n = sm.shape.vertex_count, sm.shape.n
    img = vmap.image
    stream = CounterStream(seed)

    def infinite(witness):
        return DistortionReport(math.inf, 0.0, math.inf, witness, None, "sampled", None, True)

    best_plus, wit_plus = 0, None
    for _ in range(pair_count):
        a = stream.below(nv)
        b = a ^ (1 << stream.below(n))
        dy = bounded_distance(sm, int(img[a]), int(img[b]))
        if dy is None:
            return infinite((a, b))
        if dy > best_plus:
            best_plus, wit_plus = dy, (a, b)
    best_minus, wit_minus = math.inf, None
    for _ in range(pair_count):
        a = stream.below(nv)
        b = stream.below(nv)
        while b == a:
            b = stream.below(nv)
        dy = bounded_distance(sm, int(img[a]), int(img[b]))
        if dy is None:
            return infinite((a, b))
        ratio = max(1.0, float(dy)) / float(hamming(a, b))
        if ratio < best_minus:
            best_minus, wit_minus = ratio, (a, b)
    d_plus = max(1.0, float(best_plus))
    return DistortionReport(
        d_plus, best_minus, d_plus / best_minus, wit_plus, wit_minus, "sampled", 2 * pair_count
    )


def labelling_witness(sm, images):
    """The disconnection witness that the reachability check of
    `evaluate_distortion` replaced, from a whole labelling (scipy's, one
    call): (0, the first source whose image's label differs from that of
    images[0]), or None when every image shares one component."""
    labels = one_call_labels(sm)[images]
    other = np.flatnonzero(labels != labels[0])
    return (0, int(other[0])) if len(other) else None


def oracle_exact_distortion(sm, vmap) -> DistortionReport:
    """Exact distortion of a map whose images share one component: d_Y
    from `scipy_distances`, every cube edge (coordinate by coordinate,
    lower end ascending) and every pair a < b (a, then b ascending) in
    one array each; the first maximum and the first minimum are the
    witnesses."""
    n, nv = sm.shape.n, sm.shape.vertex_count
    img = vmap.image
    dist = scipy_distances(sm, img)
    lo = np.concatenate([np.flatnonzero((np.arange(nv) >> c & 1) == 0) for c in range(n)])
    hi = lo | np.repeat(1 << np.arange(n), nv // 2)
    stretch = dist[lo, img[hi]]
    a, b = np.triu_indices(nv, 1)
    ratios = np.maximum(dist[a, img[b]], 1.0) / np.bitwise_count(a ^ b)
    kp, km = int(np.argmax(stretch)), int(np.argmin(ratios))
    d_plus, d_minus = max(1.0, float(stretch[kp])), float(ratios[km])
    return DistortionReport(
        d_plus, d_minus, d_plus / d_minus, (int(lo[kp]), int(hi[kp])), (int(a[km]), int(b[km])),
        "exact", None,
    )


def oracle_distortion(sm, vmap, mode: str, pair_count: int = 64, seed: int = 0) -> DistortionReport:
    """The whole report of `evaluate_distortion`: infinite, with the
    labelling witness, when the images straddle components, otherwise
    the exact or the sampled oracle."""
    witness = labelling_witness(sm, vmap.image)
    if witness is not None:
        return DistortionReport(math.inf, 0.0, math.inf, witness, None, mode, None, True)
    if mode == "exact":
        return oracle_exact_distortion(sm, vmap)
    return oracle_sampled_distortion(sm, vmap, pair_count, seed)


def oracle_is_good(sm, v: int, partition) -> bool:
    """Goodness from the definition, one edge query at a time: v is good
    when at least 2m vertices v ^ 2^a1 ^ 2^a2 (a1 != a2 in A) end an
    open 2-path v, v ^ 2^a1, v ^ 2^a1 ^ 2^a2."""
    witnesses = set()
    for a1 in partition.a_coords:
        mid = v ^ (1 << a1)
        if sm.edge_open(v, mid):
            witnesses.update(
                mid ^ (1 << a2)
                for a2 in partition.a_coords
                if a2 != a1 and sm.edge_open(mid, mid ^ (1 << a2))
            )
    return len(witnesses) >= 2 * partition.m


def mask_loop_good_vertices(sm, partition) -> np.ndarray:
    """Goodness of every vertex from the open-neighbour masks, one
    nv-long pass per pair a1 < a2 of A coordinates, counting the witness
    v ^ 2^a1 ^ 2^a2 when the 2-path through v ^ 2^a1 or the one through
    v ^ 2^a2 is open: the array build that the open-bit planes replaced,
    kept as their equality oracle.  Absent vertices have mask 0."""
    masks = sm.open_neighbor_masks_array()

    def across(a: int) -> np.ndarray:
        # masks[v ^ 2^a] for every v, by swapping the halves of axis a
        return masks.reshape(-1, 2, 1 << a)[:, ::-1].ravel()

    witnesses = np.zeros(len(masks), dtype=np.int32)
    for a1, a2 in itertools.combinations(partition.a_coords, 2):
        via1 = (masks >> a1) & (across(a1) >> a2)
        via2 = (masks >> a2) & (across(a2) >> a1)
        witnesses += (via1 | via2) & 1
    return witnesses >= 2 * partition.m


def mask_loop_good_map(sm, partition):
    """The good map from `mask_loop_good_vertices`, one np.where pass per
    B coordinate, highest first, so the lowest good candidate wins; a
    FailureReport lists every x with none."""
    nv = sm.shape.vertex_count
    good = mask_loop_good_vertices(sm, partition)
    x = np.arange(nv, dtype=np.int64)
    image = np.full(nv, -1, dtype=np.int64)
    for b in sorted(partition.b_coords, reverse=True):
        cand = x ^ (1 << b)
        image = np.where(good[cand], cand, image)
    bad = np.flatnonzero(image < 0)
    return FailureReport(bad) if len(bad) else VertexMap(image)


def oracle_good_map(sm, partition):
    """The good map by a scan over source vertices: each x takes the
    first good x ^ (1 << b) over ascending B coordinates, goodness
    memoised per candidate; a FailureReport lists every x with none."""
    nv = sm.shape.vertex_count
    cache = np.full(nv, -1, dtype=np.int8)
    image = np.zeros(nv, dtype=np.int64)
    bad = []
    for x in range(nv):
        chosen = -1
        for b in sorted(partition.b_coords):
            cand = x ^ (1 << b)
            if cache[cand] < 0:
                cache[cand] = oracle_is_good(sm, cand, partition)
            if cache[cand]:
                chosen = cand
                break
        if chosen < 0:
            bad.append(x)
        else:
            image[x] = chosen
    if bad:
        return FailureReport(np.array(bad, dtype=np.int64))
    return VertexMap(image)


def open_graph(sm) -> nx.Graph:
    g = nx.Graph()
    for v in range(sm.shape.vertex_count):
        if sm.vertex_present(v):
            g.add_node(v)
    g.add_edges_from(open_edge_set(sm))
    return g


def oracle_cycles_through(g: nx.Graph, v: int, max_length: int) -> set[tuple[int, ...]]:
    """Canonical forms of every simple cycle through v, via networkx."""
    found = set()
    for cyc in nx.simple_cycles(g, length_bound=max_length):
        if v in cyc and len(cyc) >= 3:
            best = None
            for seq in (cyc, cyc[::-1]):
                for r in range(len(seq)):
                    rot = tuple(seq[r:] + seq[:r])
                    if best is None or rot < best:
                        best = rot
            found.add(best)
    return found


def all_rotations_canonical(vertices) -> tuple[int, ...]:
    """The `SimpleCycle.canonical` that the least-vertex rotation
    replaced: the least of all rotations of both directions."""
    best = None
    for seq in (tuple(vertices), tuple(reversed(vertices))):
        for r in range(len(seq)):
            rot = seq[r:] + seq[:r]
            if best is None or rot < best:
                best = rot
    return best


def recursive_census(
    sm, v: int, max_length: int, radius: int, budget=None, count_only=False, closed=None
):
    """The recursive census that `find_cycles_near` replaced, as
    (cycles, count, partial, expansions): one `dfs` call per extended
    path, every neighbour list walked, leaves included.  A `closed`
    list receives, per expansion, the count of cycles closed before it,
    so closed[b] is the count of a run stopped at budget b."""
    if not sm.vertex_present(v):
        return [], 0, False, 0
    masks = sm.open_neighbor_masks_array()
    ball = {v}
    frontier = {v}
    for _ in range(radius):
        frontier = {x for w in frontier for x in flip_neighbors(w, int(masks[w]))} - ball
        if not frontier:
            break
        ball |= frontier
    cycles: list[SimpleCycle] = []
    count = 0
    expansions = 0
    partial = False

    for w in sorted(ball):
        if partial:
            break
        path = [w]
        on_path = {w}

        def dfs(cur: int) -> None:
            nonlocal count, expansions, partial
            if partial:
                return
            expansions += 1
            if closed is not None:
                closed.append(count)
            if budget is not None and expansions > budget:
                partial = True
                return
            for nxt in flip_neighbors(cur, int(masks[cur])):
                if partial:
                    return
                if nxt == w and len(path) >= 3 and path[1] < path[-1]:
                    count += 1
                    if not count_only:
                        cycles.append(SimpleCycle(all_rotations_canonical(path)))
                    continue
                if nxt in on_path or (nxt < w and nxt in ball) or len(path) >= max_length:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                dfs(nxt)
                on_path.discard(path.pop())

        dfs(w)
    return cycles, count, partial, expansions


@pytest.fixture
def full3():
    return sample(CubeShape(3), PercModel.bond(1.0), 0)


@pytest.fixture
def full4():
    return sample(CubeShape(4), PercModel.bond(1.0), 0)


@pytest.fixture
def broken_square():
    """n=2, p=0.9, seed 6: the 4-cycle with exactly edge {2,3} closed."""
    sm = sample(CubeShape(2), PercModel.bond(0.9), 6)
    assert not sm.edge_open(2, 3) and sm.edge_open(0, 1)
    return sm


@pytest.fixture
def forest4():
    """n=4, p=0.25, seed 0: acyclic open graph, largest component 5 vertices."""
    sm = sample(CubeShape(4), PercModel.bond(0.25), 0)
    assert nx.is_forest(open_graph(sm))
    return sm
