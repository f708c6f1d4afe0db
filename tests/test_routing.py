"""Local-model routing: outcomes, optimality, budgets, and the audit log."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MODEL_KINDS, oracle_bfs, perc_model
from cubeperc.errors import SourceAbsent
from cubeperc.hypercube import CubeShape, hamming
from cubeperc.percolation import PercModel, mix64, sample
from cubeperc.routing import (
    BUDGET_EXHAUSTED,
    FOUND,
    NOT_FOUND,
    audit_locality,
    local_route,
)

BIG = 10**9


def assert_open_path(sm, trace):
    path = trace.path
    assert path[0] == trace.x and path[-1] == trace.y
    for u, w in zip(path, path[1:]):
        assert hamming(u, w) == 1
        assert sm.edge_open(u, w)


def test_trivial_route_same_vertex(full4):
    tr = local_route(full4, 9, 9, 4, BIG)
    assert tr.outcome == FOUND
    assert tr.path == (9,)
    assert tr.queries == 0
    assert audit_locality(tr)


def test_isolated_start_costs_n_queries():
    # Every incident edge is closed, so the start's component is just
    # itself: n oracle calls, then a conclusive not-found before the
    # target's side is expanded at all.
    n = 8
    sm = sample(CubeShape(n), PercModel.bond(0.0), 0)
    tr = local_route(sm, 0, 255, n, BIG)
    assert tr.outcome == NOT_FOUND
    assert tr.path is None
    assert tr.queries == n
    assert tr.explored == 2  # both endpoints settled, nothing else
    assert audit_locality(tr)


def test_adjacent_on_full_cube():
    n = 6
    sm = sample(CubeShape(n), PercModel.bond(1.0), 0)
    tr = local_route(sm, 0, 1, n, BIG)
    assert tr.outcome == FOUND
    assert tr.path is not None and len(tr.path) == 2
    assert tr.queries <= 2 * n
    assert_open_path(sm, tr)


def test_antipodal_full_cube_is_geodesic():
    n = 7
    sm = sample(CubeShape(n), PercModel.bond(1.0), 0)
    tr = local_route(sm, 0, 2**n - 1, n, BIG)
    assert tr.outcome == FOUND
    assert len(tr.path) - 1 == n
    assert_open_path(sm, tr)
    assert audit_locality(tr)


def test_absent_start_raises():
    sm = sample(CubeShape(4), PercModel.site(0.0), 0)
    with pytest.raises(SourceAbsent):
        local_route(sm, 0, 15, 4, BIG)


@pytest.mark.parametrize("y", [-1, 16])
def test_target_outside_the_cube_raises(y):
    sm = sample(CubeShape(4), PercModel.bond(0.9), 3)
    with pytest.raises(ValueError, match=r"outside the cube \[0, 2\^4\)"):
        local_route(sm, 3, y, 8, 1000)


def test_query_budget_exhausts():
    sm = sample(CubeShape(6), PercModel.bond(1.0), 0)
    tr = local_route(sm, 0, 63, 6, 3)
    assert tr.outcome == BUDGET_EXHAUSTED
    assert tr.path is None
    assert tr.queries <= 3


def test_radius_budget_exhausts_before_contact():
    # Both balls stop at radius 1; the targets sit at distance 6.
    sm = sample(CubeShape(6), PercModel.bond(1.0), 0)
    tr = local_route(sm, 0, 63, 1, BIG)
    assert tr.outcome == BUDGET_EXHAUSTED
    assert audit_locality(tr)


def test_radius_budget_tight_but_sufficient():
    sm = sample(CubeShape(6), PercModel.bond(1.0), 0)
    tr = local_route(sm, 0, 63, 3, BIG)
    assert tr.outcome == FOUND
    assert len(tr.path) - 1 == 6


def test_queries_count_distinct_edges_once():
    sm = sample(CubeShape(5), PercModel.bond(0.6), 11)
    tr = local_route(sm, 0, 31, 5, BIG)
    qevents = [ev for ev in tr.events if ev[0] == "query"]
    assert len(qevents) == tr.queries
    keys = {(min(ev[2], ev[3]), max(ev[2], ev[3])) for ev in qevents}
    assert len(keys) == tr.queries


def test_audit_rejects_tampered_trace(full4):
    tr = local_route(full4, 0, 15, 4, BIG)
    assert audit_locality(tr)
    # A query from a vertex the x-side never settled breaks locality.
    tr.events.insert(0, ("query", "x", 15, 14, True))
    assert not audit_locality(tr)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 6),
    p=st.floats(0.3, 0.95),
    seed=st.integers(0, 2**32),
    pair=st.tuples(st.integers(0, 63), st.integers(0, 63)),
)
def test_found_paths_are_shortest(kind, n, p, seed, pair):
    sm = sample(CubeShape(n), perc_model(kind, p), seed)
    # the start must be present; the target may be absent
    present = np.flatnonzero(sm.present_array())
    assume(len(present) > 0)
    x, y = int(present[pair[0] % len(present)]), pair[1] % 2**n
    tr = local_route(sm, x, y, 2**n, BIG)
    queried = [frozenset(ev[2:4]) for ev in tr.events if ev[0] == "query"]
    assert len(set(queried)) == len(queried) == tr.queries
    dist = oracle_bfs(sm, x)
    if tr.outcome == FOUND:
        assert_open_path(sm, tr)
        assert len(tr.path) - 1 == dist[y]
    else:
        # Budgets were generous, so the only other outcome is a
        # conclusive miss: y unreachable from x.
        assert tr.outcome == NOT_FOUND
        assert y not in dist
    assert audit_locality(tr)


def test_budget_cut_mid_level_keeps_a_shortest_path(full4):
    # x's first level takes four queries; y's first query reaches 2,
    # which x already holds, and the budget then stops y's level partway
    tr = local_route(full4, 0, 3, 4, 5)
    assert tr.outcome == FOUND
    assert tr.queries == 5 < local_route(full4, 0, 3, 4, BIG).queries
    assert len(tr.path) - 1 == 2
    assert_open_path(full4, tr)
    assert audit_locality(tr)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 5),
    p=st.floats(0.3, 0.95),
    seed=st.integers(0, 2**32),
    pair=st.tuples(st.integers(0, 31), st.integers(0, 31)),
)
def test_every_query_budget_keeps_outcomes_conclusive(kind, n, p, seed, pair):
    # a budget that stops a level partway may end the route, but a path
    # it returns is still shortest and a miss still means unreachable
    sm = sample(CubeShape(n), perc_model(kind, p), seed)
    present = np.flatnonzero(sm.present_array())
    assume(len(present) > 0)
    x, y = int(present[pair[0] % len(present)]), pair[1] % 2**n
    dist = oracle_bfs(sm, x)
    full = local_route(sm, x, y, n, BIG)
    for budget in range(1, full.queries + 1):
        tr = local_route(sm, x, y, n, budget)
        assert tr.queries <= budget
        if tr.outcome == FOUND:
            assert_open_path(sm, tr)
            assert len(tr.path) - 1 == dist[y]
        elif tr.outcome == NOT_FOUND:
            assert y not in dist
        else:
            assert tr.outcome == BUDGET_EXHAUSTED and tr.path is None


# sha256 of every route's (outcome, path, queries, explored, events) on
# bond and site samples; one changed event changes it
ROUTE_TRACE_DIGEST = "a886ea1cc382dc016ae5d174bb3527f558cd399c187d1007b28481acfabe8ea7"


def test_route_traces_pinned():
    h = hashlib.sha256()
    for kind in ("bond", "site"):
        for n in (4, 8, 12):
            for alpha in (0.25, 0.75):
                model = getattr(PercModel, kind)(float(n) ** -alpha)
                for seed in (0, 1):
                    sm = sample(CubeShape(n), model, seed)
                    present = np.flatnonzero(sm.present_array())
                    for k in range(4):
                        # the target may be absent; the start may not
                        x = int(present[mix64(seed, 2 * k) % len(present)])
                        y = mix64(seed, 2 * k + 1) % 2**n
                        for budget in (5, 50, 10**6):
                            tr = local_route(sm, x, y, 2 * n, budget)
                            record = (tr.outcome, tr.path, tr.queries, tr.explored, tr.events)
                            h.update(repr(record).encode())
    assert h.hexdigest() == ROUTE_TRACE_DIGEST
