"""Loop removal, image walks, bounded cycle search, and the analytic
cycle-count bound.

The extraction traces here were worked by hand on H_3 and H_4 before
the implementation existed; they pin the removal order (longest covering
segment first, earliest start on ties) rather than just the end state.
"""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    MODEL_KINDS,
    all_rotations_canonical,
    open_graph,
    oracle_bfs,
    oracle_cycles_through,
    perc_model,
    recursive_census,
)
from cubeperc.cycles import (
    ClosedWalk,
    SimpleCycle,
    cycle_count_bound,
    double_factorial,
    extract_simple_cycle,
    find_cycles_near,
    image_walk,
)
from cubeperc.errors import ImagesDisconnected
from cubeperc.harness import SweepConfig, run_cell
from cubeperc.hypercube import CubeShape, geodesic_cycle, hamming
from cubeperc.metrics import VertexMap
from cubeperc.percolation import PercModel, mix64, sample


class TestClosedWalk:
    def test_rejects_open_walk(self):
        with pytest.raises(ValueError):
            ClosedWalk((0, 1, 3))

    def test_rejects_anchor_out_of_range(self):
        with pytest.raises(ValueError):
            ClosedWalk((0, 1, 0), anchors=(5,))


class TestSimpleCycleCanonical:
    def test_rotation_and_reflection_invariant(self):
        base = SimpleCycle((0, 1, 3, 2)).canonical()
        assert SimpleCycle((3, 2, 0, 1)).canonical() == base
        assert SimpleCycle((2, 3, 1, 0)).canonical() == base

    @given(st.permutations(range(6)), st.integers(0, 5), st.booleans())
    def test_canonical_is_stable(self, verts, rot, flip):
        verts = tuple(verts)
        turned = verts[rot:] + verts[:rot]
        if flip:
            turned = turned[::-1]
        assert SimpleCycle(verts).canonical() == SimpleCycle(turned).canonical()

    @given(st.lists(st.integers(0, 1 << 30), min_size=3, max_size=12, unique=True))
    def test_matches_all_rotations(self, verts):
        assert SimpleCycle(tuple(verts)).canonical() == all_rotations_canonical(verts)

    def test_rejects_short_or_repeating(self):
        with pytest.raises(ValueError):
            SimpleCycle((0, 1))
        with pytest.raises(ValueError):
            SimpleCycle((0, 1, 0, 2))


class TestExtraction:
    def test_already_simple(self):
        walk = ClosedWalk((0, 1, 3, 2, 0), anchors=(0, 2))
        res = extract_simple_cycle(walk, distortion=2.0)
        assert not res.degenerate
        assert res.cycle.vertices == (0, 1, 3, 2)
        assert res.anchor_distance == 0
        assert not res.removals

    def test_equal_lobes_removes_first(self):
        # figure-eight in H_3 sharing vertices 0 and 2: lobes
        # (0,1,3,2) and (2,6,4,0) traversed in sequence.  The covering
        # segments tie at 4 steps; the earlier start wins, so the first
        # lobe goes and (0,2,6,4) survives.
        walk = ClosedWalk((0, 1, 3, 2, 0, 2, 6, 4, 0))
        res = extract_simple_cycle(walk, distortion=4.0)
        assert not res.degenerate
        assert res.cycle.canonical() == SimpleCycle((0, 2, 6, 4)).canonical()
        assert len(res.removals) >= 1

    def test_unequal_lobes_keep_longer(self):
        # 10-step figure-eight in H_4 at vertex 0: a 4-lobe then a 6-lobe
        walk = ClosedWalk((0, 1, 3, 2, 0, 4, 12, 13, 9, 8, 0))
        res = extract_simple_cycle(walk, distortion=4.0)
        assert res.cycle.canonical() == SimpleCycle((0, 4, 12, 13, 9, 8)).canonical()

    def test_unequal_lobes_order_swapped(self):
        walk = ClosedWalk((0, 4, 12, 13, 9, 8, 0, 1, 3, 2, 0))
        res = extract_simple_cycle(walk, distortion=4.0)
        assert res.cycle.canonical() == SimpleCycle((0, 4, 12, 13, 9, 8)).canonical()

    def test_doubled_cycle_single_traversal(self):
        once = (0, 1, 3, 2)
        walk = ClosedWalk(once + once + (0,))
        res = extract_simple_cycle(walk, distortion=4.0)
        assert not res.degenerate
        assert res.cycle.canonical() == SimpleCycle(once).canonical()

    def test_backtrack_collapses_to_degenerate(self):
        walk = ClosedWalk((0, 1, 0, 2, 0))
        res = extract_simple_cycle(walk, distortion=2.0)
        assert res.degenerate

    def test_anchor_bookkeeping(self):
        walk = ClosedWalk((0, 1, 3, 2, 0, 2, 6, 4, 0), anchors=(0, 2, 4, 6))
        res = extract_simple_cycle(walk, distortion=4.0)
        removed = sum(step.anchors_removed for step in res.removals)
        assert removed + len(res.cycle.anchors if hasattr(res.cycle, "anchors") else []) <= 4
        assert res.within_anchor_bound

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.data())
    def test_random_geodesic_walk_always_simple(self, l, data):
        # random closed walks built by bending a geodesic cycle through a
        # random vertex relabeling that keeps adjacency (XOR translation)
        shape = CubeShape(6)
        coords = tuple(data.draw(st.permutations(range(6)))[:l])
        v = data.draw(st.integers(0, 63))
        cyc = geodesic_cycle(shape, v, coords)
        # splice in a backtrack excursion at a random position
        pos = data.draw(st.integers(0, len(cyc) - 2))
        c = data.draw(st.integers(0, 5))
        noisy = cyc[: pos + 1] + [cyc[pos] ^ (1 << c), cyc[pos]] + cyc[pos + 1 :]
        res = extract_simple_cycle(ClosedWalk(tuple(noisy)), distortion=3.0)
        if not res.degenerate:
            verts = res.cycle.vertices
            assert len(set(verts)) == len(verts) >= 3
            for i in range(len(verts)):
                assert hamming(verts[i], verts[(i + 1) % len(verts)]) == 1


class TestImageWalk:
    def test_identity_returns_cycle(self, full3):
        cyc = geodesic_cycle(CubeShape(3), 0, (0, 1))
        walk = image_walk(VertexMap.identity(CubeShape(3)), cyc, full3)
        assert walk.vertices == tuple(cyc)
        assert walk.anchors == tuple(range(len(cyc) - 1))

    def test_constant_map_degenerates(self, full3):
        cyc = geodesic_cycle(CubeShape(3), 0, (0, 1))
        walk = image_walk(VertexMap(np.full(8, 5)), cyc, full3)
        assert set(walk.vertices) == {5}

    def test_translation_preserves_length(self, full3):
        image = [v ^ 0b101 for v in range(8)]
        vmap = VertexMap(image)
        cyc = geodesic_cycle(CubeShape(3), 0, (0, 1))
        walk = image_walk(vmap, cyc, full3)
        assert len(walk.vertices) == len(cyc)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 6), st.floats(0.4, 1.0), st.integers(0, 2**32), st.data())
    def test_arcs_are_least_shortest_paths(self, n, p, seed, data):
        sm = sample(CubeShape(n), PercModel.bond(p), seed)
        g = open_graph(sm)
        giant = sorted(max(nx.connected_components(g), key=len))
        img = data.draw(st.lists(st.sampled_from(giant), min_size=1 << n, max_size=1 << n))
        coords = data.draw(st.permutations(range(n)))[: data.draw(st.integers(2, n))]
        cyc = geodesic_cycle(CubeShape(n), data.draw(st.integers(0, (1 << n) - 1)), coords)
        walk = image_walk(VertexMap(img), cyc, sm)
        # arc k runs from anchor k to the next anchor, the last one back
        # to the walk's end
        ends = [*walk.anchors, len(walk.vertices) - 1]
        for a, b in zip(ends, ends[1:]):
            want = min(nx.all_shortest_paths(g, walk.vertices[a], walk.vertices[b]))
            assert list(walk.vertices[a : b + 1]) == want

    @pytest.mark.parametrize("bad", [-1, 256, -256])
    def test_images_outside_the_cube_raise(self, bad):
        # -1 and -256 once died in min() on an empty sequence, 256 with
        # IndexError
        sm = sample(CubeShape(8), PercModel.bond(0.9), 3)
        image = np.arange(256)
        image[3] = bad
        cyc = geodesic_cycle(CubeShape(8), 0, (0, 1))
        with pytest.raises(ValueError, match=rf"vertex {bad} is outside the cube \[0, 2\^8\)"):
            image_walk(VertexMap(image), cyc, sm)

    def test_disconnected_images_raise(self):
        sm = sample(CubeShape(2), PercModel.bond(0.0), 0)
        cyc = geodesic_cycle(CubeShape(2), 0, (0, 1))
        with pytest.raises(ImagesDisconnected):
            image_walk(VertexMap.identity(CubeShape(2)), cyc, sm)


class TestFindCyclesNear:
    def test_h3_squares_through_origin(self, full3):
        res = find_cycles_near(full3, 0, 4, 0)
        assert res.count == 3
        got = {c.canonical() for c in res.cycles}
        assert got == {(0, 1, 3, 2), (0, 1, 5, 4), (0, 2, 6, 4)}

    def test_h3_full_census(self, full3):
        # Q3 holds 6 squares and 16 hexagons
        assert find_cycles_near(full3, 0, 4, 3).count == 6
        assert find_cycles_near(full3, 0, 6, 3).count == 22

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_squares_through_vertex_choose_two(self, n):
        full = sample(CubeShape(n), PercModel.bond(1.0), 0)
        assert find_cycles_near(full, 0, 4, 0).count == math.comb(n, 2)

    def test_p0_empty(self):
        sm = sample(CubeShape(4), PercModel.bond(0.0), 0)
        assert find_cycles_near(sm, 0, 8, 2).count == 0

    def test_tree_empty(self, forest4):
        assert find_cycles_near(forest4, 0, 8, 4).count == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 4), st.floats(0.3, 0.9), st.integers(0, 2**32))
    def test_matches_networkx_census(self, n, p, seed):
        # radius 0 means exactly the cycles passing through the root
        sm = sample(CubeShape(n), PercModel.bond(p), seed)
        g = open_graph(sm)
        res = find_cycles_near(sm, 0, 8, 0)
        got = {c.canonical() for c in res.cycles}
        assert got == oracle_cycles_through(g, 0, 8)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.3, 0.9), st.integers(0, 2**32), st.integers(0, 2))
    def test_ball_census_matches_networkx(self, kind, p, seed, radius):
        # radius r collects every cycle that meets the distance-r ball,
        # rooted at the smallest present vertex
        sm = sample(CubeShape(4), perc_model(kind, p), seed)
        present = np.flatnonzero(sm.present_array())
        assume(len(present) > 0)
        root = int(present[0])
        g = open_graph(sm)
        dist = oracle_bfs(sm, root)
        ball = {v for v, d in dist.items() if d <= radius}
        want = set()
        for v in ball:
            want |= oracle_cycles_through(g, v, 8)
        res = find_cycles_near(sm, root, 8, radius)
        assert {c.canonical() for c in res.cycles} == want

    def test_budget_marks_partial(self, full4):
        small = find_cycles_near(full4, 0, 8, 4, budget=10)
        assert small.partial
        unbounded = find_cycles_near(full4, 0, 8, 4)
        assert not unbounded.partial
        assert small.count <= unbounded.count

    def test_count_only_matches(self, full4):
        fast = find_cycles_near(full4, 0, 6, 2, count_only=True)
        full = find_cycles_near(full4, 0, 6, 2)
        assert fast.count == full.count
        assert fast.cycles == []

    def test_absent_root_empty(self):
        sm = sample(CubeShape(3), PercModel.site(0.0), 0)
        assert find_cycles_near(sm, 0, 6, 2).count == 0

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_recursive_census(self, kind, n):
        # the unbounded census of a dense n >= 5 ball at max_length >= 6
        # runs to 10^5-10^6 expansions, so those cases always take a budget
        rng = random.Random(f"{kind}/{n}")
        for _ in range(30):
            sm = sample(CubeShape(n), perc_model(kind, rng.uniform(0.3, 1.0)), rng.getrandbits(64))
            root = rng.randrange(1 << n)
            max_length = rng.randint(0, 8)
            radius = rng.randint(0, 3)
            budgets = [0, 1, 5, 50, 500, 5000]
            if n <= 4 or max_length <= 5:
                budgets.append(None)
            budget = rng.choice(budgets)
            count_only = rng.random() < 0.5
            res = find_cycles_near(
                sm, root, max_length, radius, budget=budget, count_only=count_only
            )
            want = recursive_census(sm, root, max_length, radius, budget, count_only)
            assert (res.cycles, res.count, res.partial, res.expansions) == want

    @pytest.mark.parametrize(
        "kind, n, p, seed, max_length, radius",
        [
            ("bond", 4, 1.0, 0, 8, 0),
            ("bond", 5, 0.6, 1, 8, 1),
            ("site", 6, 0.7, 0, 6, 1),
            ("mixed", 5, 0.7, 1, 8, 1),
        ],
    )
    def test_every_budget_matches_recursive_census(self, kind, n, p, seed, max_length, radius):
        # a stop at every expansion, last level included: budget b stops
        # the recursive census at its expansion b + 1, with closed[b]
        # cycles closed before it
        sm = sample(CubeShape(n), perc_model(kind, p), seed)
        closed: list[int] = []
        cycles, count, partial, total = recursive_census(sm, 0, max_length, radius, closed=closed)
        assert not partial and len(closed) == total
        for budget in range(total + 1):
            res = find_cycles_near(sm, 0, max_length, radius, budget=budget, count_only=True)
            if budget < total:
                want = (closed[budget], True, budget + 1)
            else:
                want = (count, False, total)
            assert (res.count, res.partial, res.expansions) == want
            if budget % 97 == 0 or budget >= total - 1:
                listed = find_cycles_near(sm, 0, max_length, radius, budget=budget)
                assert listed.cycles == cycles[: res.count]
                assert (listed.count, listed.partial, listed.expansions) == want

    @pytest.mark.parametrize("j, want", [(0, (1932, True, 400_001)), (1, (1474, True, 400_001))])
    def test_dense_kernels_cells_pinned(self, j, want):
        # the two n = 12, alpha = 0.25 census cells of the benchmark's
        # kernels workload, recorded with the recursive census
        config = SweepConfig(
            kind="cycle_census", n_list=(12,), alpha_list=(0.25,), radius=1,
            max_length=8, budget=400_000,
        )
        row = run_cell(config, 12, 0.25, mix64(0, j))
        assert (row["cycle_count"], row["partial"], row["expansions"]) == want


class TestBounds:
    def test_double_factorial_small(self):
        assert [double_factorial(2 * l - 1) for l in (1, 2, 3)] == [1, 3, 15]
        assert double_factorial(-1) == 1

    def test_count_bound_examples(self):
        assert cycle_count_bound(3, 2) == 27.0
        assert cycle_count_bound(4, 4) == 105.0 * 256.0

    def test_count_bound_dominates_census(self):
        for n in (3, 4):
            full = sample(CubeShape(n), PercModel.bond(1.0), 0)
            for l in (2, 3, 4):
                if 2 * l > 2**n:
                    continue
                count = find_cycles_near(full, 0, 2 * l, 0).count
                assert count <= cycle_count_bound(n, l)
