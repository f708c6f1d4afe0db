"""Sub-critical machinery: extracting simple cycles from closed walks
by loop removal, bounded simple-cycle search near a vertex, and the
analytic bound on the number of cycles through a vertex.

The loop removal here is deliberately not the usual loop erasure.  At
each step, every repeated vertex u determines the minimal contiguous
cyclic segment covering all its occurrences (the complement of the
largest occurrence gap); the longest such segment over all repeated
vertices is spliced out, keeping one copy of u.  Ties go to the
earliest segment start; length and start determine the segment, so no
further tie-break can fire.  This rule makes the removal deterministic
and lets the guarantees (segment anchor counts, surviving length,
distance from the walk's start to the survivor) be asserted per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import ImagesDisconnected
from .hypercube import flip_neighbors
from .metrics import VertexMap, _distances
from .percolation import PercolationSample


@dataclass(frozen=True)
class ClosedWalk:
    """Closed walk v_0..v_L with v_0 = v_L; anchors mark positions of
    distinguished vertices (the arc start images in an image walk)."""

    vertices: tuple[int, ...]
    anchors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.vertices) == 0:
            raise ValueError("walk needs at least one vertex")
        if len(self.vertices) > 1 and self.vertices[0] != self.vertices[-1]:
            raise ValueError("walk is not closed")
        for pos in self.anchors:
            if not 0 <= pos < len(self.vertices):
                raise ValueError(f"anchor position {pos} out of range")


@dataclass(frozen=True)
class SimpleCycle:
    """Closed cycle with all vertices distinct; closure is implicit
    (last vertex connects back to the first)."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a simple cycle has at least 3 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")

    def __len__(self) -> int:
        return len(self.vertices)

    def canonical(self) -> tuple[int, ...]:
        """Lexicographically least rotation of the smaller direction."""
        return _canonical(self.vertices)


def _canonical(vertices: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation over both directions of distinct vertices: it
    starts at the least vertex and goes on to the smaller of its two
    neighbours."""
    i = vertices.index(min(vertices))
    rot = vertices[i:] + vertices[:i]
    return rot if rot[1] < rot[-1] else rot[:1] + rot[:0:-1]


def image_walk(
    vmap: VertexMap, cycle: Sequence[int], sample: PercolationSample
) -> ClosedWalk:
    """Closed walk through the images of a cube cycle, joining each
    consecutive image pair by the lexicographically least shortest open
    path.  Anchors mark where each image sits in the walk."""
    cyc = list(cycle)
    if len(cyc) > 1 and cyc[0] == cyc[-1]:
        cyc.pop()
    if not cyc:
        raise ValueError("empty cycle")
    images = [vmap[v] for v in cyc]
    targets = sorted(set(images))
    to = dict(zip(targets, _distances(sample, targets)))
    masks = sample.open_neighbor_masks_array()

    def arc(u: int, w: int) -> list[int]:
        if u == w:
            return [u]
        dist = to[w]
        if math.isinf(dist[u]):
            raise ImagesDisconnected(f"no open path between images {u} and {w}")
        path = [u]
        cur = u
        while cur != w:
            step = dist[cur] - 1
            # smallest-id open neighbor one step closer to w
            cur = min(x for x in flip_neighbors(cur, int(masks[cur])) if dist[x] == step)
            path.append(cur)
        return path

    walk = [images[0]]
    anchors = [0]
    for i in range(len(images)):
        u = images[i]
        w = images[(i + 1) % len(images)]
        walk.extend(arc(u, w)[1:])
        if i + 1 < len(images):
            anchors.append(len(walk) - 1)
    return ClosedWalk(tuple(walk), tuple(anchors))


@dataclass
class RemovalStep:
    """One splice of the loop-removal procedure, positions relative to
    the walk as it was when the removal happened."""

    vertex: int
    start: int
    length: int
    anchors_removed: int


@dataclass
class ExtractionResult:
    cycle: Optional[SimpleCycle]
    anchor_distance: Optional[int]
    removals: list[RemovalStep] = field(default_factory=list)
    degenerate: bool = False
    within_anchor_bound: bool = True


def _covering_segment(occs: list[int], length: int) -> tuple[int, int]:
    """Start position and step length of the minimal cyclic segment
    containing every occurrence; ties on gap size resolved toward the
    earliest start."""
    k = len(occs)
    best_gap = -1
    best_start = None
    for j in range(k):
        if j == k - 1:
            gap = length - occs[-1] + occs[0]
        else:
            gap = occs[j + 1] - occs[j]
        start = occs[(j + 1) % k]
        if gap > best_gap or (gap == best_gap and start < best_start):
            best_gap = gap
            best_start = start
    return best_start, length - best_gap


def extract_simple_cycle(walk: ClosedWalk, distortion: float) -> ExtractionResult:
    """Loop removal until the walk is simple.

    The distortion argument is only used to check the per-step anchor
    bound (each removed segment should drop at most 2*distortion
    anchors); a violation flips within_anchor_bound rather than
    stopping the extraction.
    """
    verts = list(walk.vertices[:-1]) if len(walk.vertices) > 1 else list(walk.vertices)
    anchors = list(walk.anchors)
    pos0 = 0  # current position of the original start's representative
    start_dist = 0
    removals: list[RemovalStep] = []
    within = True

    while True:
        length = len(verts)
        occs: dict[int, list[int]] = {}
        for i, u in enumerate(verts):
            occs.setdefault(u, []).append(i)
        repeated = {u: ps for u, ps in occs.items() if len(ps) > 1}
        if not repeated:
            break
        chosen = None  # (negative segment length, start, vertex)
        for u, ps in repeated.items():
            start, seg_len = _covering_segment(ps, length)
            key = (-seg_len, start)
            if chosen is None or key < chosen[0]:
                chosen = (key, u)
        (neg_len, start), u = chosen
        seg_len = -neg_len

        removed = set((start + k) % length for k in range(1, seg_len + 1))
        anchors_removed = sum(1 for a in anchors if a in removed)
        removals.append(RemovalStep(u, start, seg_len, anchors_removed))
        if anchors_removed > 2 * distortion:
            within = False

        if pos0 in removed:
            offset = (pos0 - start) % length
            start_dist += min(offset, seg_len - offset)
            pos0 = start

        new_index = {}
        new_verts = []
        for i in range(length):
            if i not in removed:
                new_index[i] = len(new_verts)
                new_verts.append(verts[i])
        verts = new_verts
        anchors = [new_index[a] for a in anchors if a not in removed]
        pos0 = new_index[pos0]

    if len(verts) < 3:
        return ExtractionResult(None, None, removals, True, within)
    return ExtractionResult(
        SimpleCycle(tuple(verts)), start_dist, removals, False, within
    )


# ---------------------------------------------------------------------------
# bounded cycle search


@dataclass
class CycleSearchResult:
    cycles: list[SimpleCycle]
    count: int
    partial: bool
    expansions: int


def find_cycles_near(
    sample: PercolationSample,
    v: int,
    max_length: int,
    radius: int,
    *,
    budget: Optional[int] = None,
    count_only: bool = False,
) -> CycleSearchResult:
    """Simple cycles of length <= max_length in the open graph that
    pass within open distance radius of v.

    Each cycle is reported once: the search roots at every ball vertex
    w in ascending order and forbids ball vertices smaller than w, so a
    cycle is found at its smallest ball vertex, and the two traversal
    directions are collapsed by requiring second < last vertex.

    Budget counts DFS expansions, one per path the search extends to
    (each root included).  The expansion that crosses the budget is
    counted and stops the search, so a partial result reports
    budget + 1 expansions and only the cycles closed before it.
    """
    if not sample.vertex_present(v):
        return CycleSearchResult([], 0, False, 0)
    masks = sample.open_neighbor_masks_array()
    adjacency: dict[int, list[int]] = {}

    def neighbors(x: int) -> list[int]:
        out = adjacency.get(x)
        if out is None:
            out = adjacency[x] = flip_neighbors(x, int(masks[x]))
        return out

    # the radius ball, grown from the masks: a search over the whole
    # graph would cost O(2^n) per call, this costs O(ball)
    ball = {v}
    frontier = {v}
    for _ in range(radius):
        frontier = {x for w in frontier for x in neighbors(w)} - ball
        if not frontier:
            break
        ball |= frontier
    cycles: list[SimpleCycle] = []
    count = 0
    expansions = 0
    limit = math.inf if budget is None else budget
    # ball vertices below the current root, plus the current path
    blocked: set[int] = set()

    for w in sorted(ball):
        expansions += 1
        if expansions > limit:
            return CycleSearchResult(cycles, count, True, expansions)
        if max_length < 2:
            continue
        # the open neighbours of w: a last-level vertex closes a cycle
        # exactly when it is one of them
        ring = set(neighbors(w))
        path = [w]
        stack = [iter(neighbors(w))]
        while stack:
            depth = len(path)
            last_level = depth + 1 >= max_length
            for nxt in stack[-1]:
                if nxt == w:
                    if depth >= 3 and path[1] < path[-1]:
                        count += 1
                        if not count_only:
                            cycles.append(SimpleCycle(_canonical(tuple(path))))
                    continue
                if nxt in blocked:
                    continue
                expansions += 1
                if expansions > limit:
                    return CycleSearchResult(cycles, count, True, expansions)
                if last_level:
                    # settled here: its only move left is back to w
                    if depth >= 2 and path[1] < nxt and nxt in ring:
                        count += 1
                        if not count_only:
                            cycles.append(SimpleCycle(_canonical((*path, nxt))))
                    continue
                path.append(nxt)
                blocked.add(nxt)
                stack.append(iter(neighbors(nxt)))
                break
            else:
                stack.pop()
                blocked.discard(path.pop())
        blocked.add(w)
    return CycleSearchResult(cycles, count, False, expansions)


# ---------------------------------------------------------------------------
# analytic bound


def double_factorial(k: int) -> int:
    """k!! = k (k-2) (k-4) ...; empty product (k <= 0) is 1."""
    return math.prod(range(k, 0, -2))


def cycle_count_bound(n: int, l: int) -> float:
    """Upper bound (2l-1)!! n^l on the number of length-2l cycles
    through a fixed vertex; exact while it fits a float, log space
    beyond that."""
    if l < 1:
        raise ValueError("l must be positive")
    exact = double_factorial(2 * l - 1) * n**l
    if exact < 2**53:
        return float(exact)
    log_df = math.lgamma(2 * l + 1) - l * math.log(2) - math.lgamma(l + 1)
    log_bound = log_df + l * math.log(n)
    if log_bound > 700:
        return math.inf
    return math.exp(log_bound)
