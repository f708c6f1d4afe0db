"""Routing in the local query model: a route may only query edges
incident to vertices already reached from one of the endpoints.

The router grows balls from both endpoints and reads each edge from the
open-neighbour masks.  Every distinct edge-oracle call is counted
exactly once.  The full query/settle event sequence is recorded so
locality can be audited after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import SourceAbsent
from .percolation import PercolationSample

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class RouteTrace:
    """Outcome of one local-model route.

    events holds ("query", side, u, w, open) and ("settle", side, w, d)
    tuples in execution order; queries counts distinct oracle calls.
    """

    x: int
    y: int
    outcome: str
    path: Optional[tuple[int, ...]]
    queries: int
    explored: int
    events: list[tuple] = field(default_factory=list)


def local_route(
    sample: PercolationSample,
    x: int,
    y: int,
    radius_budget: int,
    query_budget: int,
) -> RouteTrace:
    """Shortest discovered open path from x to y under the local model.

    Expansion proceeds level by level, smaller frontier first; each
    side's ball radius is capped by radius_budget.  Returns Found with
    the shortest discovered path, NotFound when a reachable set is
    exhausted without contact, or BudgetExhausted.

    A Found path is a shortest path, also when the query budget stops a
    level partway.  While no meeting is known, the balls are complete
    to radii rx and ry and no path is shorter than rx + ry + 1; every
    meeting made while growing one ball a level further is at most that
    long.  So the first meeting is a shortest path, and the loop stops
    on it whether the level completes or not."""
    if not sample.vertex_present(x):
        raise SourceAbsent(f"route start {x} is not present")
    sample.shape.check_vertex(y)
    n = sample.shape.n
    events: list[tuple] = []
    if x == y:
        return RouteTrace(x, y, FOUND, (x,), 0, 1, events)

    masks = sample.open_neighbor_masks_array()
    # per-side state, keyed "x" and "y"
    dist = {"x": {x: 0}, "y": {y: 0}}
    parents: dict[str, dict[int, int]] = {"x": {}, "y": {}}
    frontier = {"x": [x], "y": [y]}
    radius = {"x": 0, "y": 0}
    # An edge is queried once, from whichever end is expanded first, so
    # {u, w} is new exactly when w is not in expanded: a vertex settled on
    # both sides is a meeting, which ends the loop before u can be expanded
    # twice.  A budget stop ends the route, so the set is always exact.
    expanded: set[int] = set()
    queries = 0
    best: Optional[tuple[int, int]] = None  # (length, meet vertex)
    out_of_queries = False

    def expand(side: str, other: str) -> None:
        nonlocal best, out_of_queries, queries
        dist_this, dist_other = dist[side], dist[other]
        nxt = []
        for u in frontier[side]:
            m = int(masks[u])
            for c in range(n):
                w = u ^ (1 << c)
                is_open = bool(m >> c & 1)
                if w not in expanded:
                    if queries >= query_budget:
                        # the route ends: frontier and radius are not read again
                        out_of_queries = True
                        return
                    queries += 1
                    events.append(("query", side, u, w, is_open))
                if not is_open or w in dist_this:
                    continue
                dist_this[w] = dist_this[u] + 1
                parents[side][w] = u
                nxt.append(w)
                events.append(("settle", side, w, dist_this[w]))
                d_other = dist_other.get(w)
                if d_other is not None:
                    cand = dist_this[w] + d_other
                    if best is None or cand < best[0]:
                        best = (cand, w)
            expanded.add(u)
        frontier[side] = nxt
        radius[side] += 1

    while True:
        if best is not None and best[0] <= radius["x"] + radius["y"] + 1:
            outcome = FOUND
            break
        can_x = bool(frontier["x"]) and radius["x"] < radius_budget
        can_y = bool(frontier["y"]) and radius["y"] < radius_budget
        if not can_x and not can_y:
            # no meeting is known (one ends the loop at the check above)
            # and both frontiers are non-empty (an emptied one ends it
            # below), so only the radius budget stops both sides
            outcome = BUDGET_EXHAUSTED
            break
        if can_x and (not can_y or len(frontier["x"]) <= len(frontier["y"])):
            side, other = "x", "y"
        else:
            side, other = "y", "x"
        expand(side, other)
        if out_of_queries:
            outcome = FOUND if best is not None else BUDGET_EXHAUSTED
            break
        if not frontier[side]:
            # this side's reachable set is fully settled: conclusive
            outcome = FOUND if best is not None else NOT_FOUND
            break

    path = None
    if outcome == FOUND:
        meet = best[1]
        # walk each side's parents from the meet vertex back to its end
        halves = []
        for side, end in (("x", x), ("y", y)):
            half = [meet]
            while half[-1] != end:
                half.append(parents[side][half[-1]])
            halves.append(half)
        path = tuple(halves[0][::-1] + halves[1][1:])
    explored = len(dist["x"]) + len(dist["y"])
    return RouteTrace(x, y, outcome, path, queries, explored, events)


def audit_locality(trace: RouteTrace) -> bool:
    """Replay the event log: every queried edge must touch a vertex
    already settled on the querying side."""
    settled = {"x": {trace.x}, "y": {trace.y}}
    for ev in trace.events:
        if ev[0] == "query":
            _, side, u, _, _ = ev
            if u not in settled[side]:
                return False
        elif ev[0] == "settle":
            _, side, w, _ = ev
            settled[side].add(w)
    return True
