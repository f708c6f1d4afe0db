import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MODEL_KINDS,
    oracle_bfs,
    oracle_components,
    oracle_min_distortion,
    perc_model,
)
from cubeperc.errors import CapExceeded, SourceAbsent, TooLarge
from cubeperc.hypercube import CubeShape, hamming
from cubeperc.metrics import (
    VertexMap,
    bfs,
    bounded_distance,
    brute_force_min_distortion,
    components,
    evaluate_distortion,
)
from cubeperc.percolation import PercModel, sample

perc_case = st.tuples(
    st.integers(2, 6), st.floats(0.1, 0.9), st.integers(0, 2**32)
)


def test_bfs_full_cube_is_hamming(full4):
    field = bfs(full4, 5)
    for v in range(16):
        assert field.distance(v) == hamming(5, v)


def test_bfs_p0_only_source():
    sm = sample(CubeShape(4), PercModel.bond(0.0), 0)
    field = bfs(sm, 3)
    assert field.distance(3) == 0
    assert all(field.distance(v) is None for v in range(16) if v != 3)


def test_bfs_two_edge_path():
    # n=2 with exactly edges {0-1, 1-3} open (seed searched once, pinned)
    sm = sample(CubeShape(2), PercModel.bond(0.5), 1)
    assert sm.edge_open(0, 1) and sm.edge_open(1, 3)
    assert not sm.edge_open(0, 2) and not sm.edge_open(2, 3)
    field = bfs(sm, 0)
    assert field.distance(3) == 2
    assert field.distance(2) is None


def test_bfs_rejects_absent_source():
    sm = sample(CubeShape(4), PercModel.site(0.0), 0)
    with pytest.raises(SourceAbsent):
        bfs(sm, 0)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=30, deadline=None)
@given(perc_case)
def test_bfs_matches_oracle(kind, case):
    # bit for bit from every present source: -1 exactly where the
    # oracle never arrives
    n, p, seed = case
    sm = sample(CubeShape(n), perc_model(kind, p), seed)
    for source in np.flatnonzero(sm.present_array()).tolist():
        field = bfs(sm, source)
        want = oracle_bfs(sm, source)
        expect = [want.get(v, -1) for v in range(sm.shape.vertex_count)]
        assert field.dist.dtype == np.int32
        assert field.dist.tolist() == expect


@settings(max_examples=30, deadline=None)
@given(perc_case, st.data())
def test_bounded_distance_matches_bfs(case, data):
    n, p, seed = case
    sm = sample(CubeShape(n), PercModel.bond(p), seed)
    u = data.draw(st.integers(0, sm.shape.vertex_count - 1))
    v = data.draw(st.integers(0, sm.shape.vertex_count - 1))
    assert bounded_distance(sm, u, v) == bfs(sm, u).distance(v)


def test_bounded_distance_cutoff(full4):
    assert bounded_distance(full4, 0, 15, cutoff=3) is None
    assert bounded_distance(full4, 0, 15, cutoff=4) == 4
    assert bounded_distance(full4, 7, 7, cutoff=0) == 0


class TestComponents:
    def test_full_cube_single_component(self, full4):
        lab = components(full4)
        assert lab.n_components == 1
        assert lab.giant_size == 16
        assert lab.giant_label == 0

    def test_p0_singletons(self):
        sm = sample(CubeShape(4), PercModel.bond(0.0), 0)
        lab = components(sm)
        assert lab.n_components == 16
        assert lab.giant_size == 1
        assert lab.giant_label == 0  # tie broken toward the smallest label

    @settings(max_examples=30, deadline=None)
    @given(perc_case)
    def test_matches_flood_fill(self, case):
        n, p, seed = case
        sm = sample(CubeShape(n), PercModel.bond(p), seed)
        lab = components(sm)
        want = oracle_components(sm)
        assert lab.n_components == len(want)
        for comp in want:
            labels = {int(lab.labels[v]) for v in comp}
            assert labels == {min(comp)}  # canonical label is the least vertex
        assert lab.giant_size == max(len(c) for c in want)

    def test_absent_vertices_labeled_minus_one(self):
        sm = sample(CubeShape(4), PercModel.site(0.5), 9)
        lab = components(sm)
        for v in range(16):
            if not sm.vertex_present(v):
                assert lab.labels[v] == -1

    def test_giant_tracks_simulation_regime(self):
        # np ~ 2.1 at n=20, alpha=0.75: a clear giant in most seeds
        shape = CubeShape(20)
        wins = 0
        for seed in range(10):
            sm = sample(shape, PercModel.bond(20.0**-0.75), seed)
            lab = components(sm)
            sizes = sorted(lab.comp_sizes.tolist(), reverse=True)
            if len(sizes) > 1 and sizes[0] > sizes[1]:
                wins += 1
        assert wins >= 9


class TestEvaluateDistortion:
    def test_identity_on_full_cube(self, full3):
        rep = evaluate_distortion(full3, VertexMap.identity(CubeShape(3)))
        assert (rep.d_plus, rep.d_minus, rep.distortion) == (1.0, 1.0, 1.0)
        assert rep.exactness == "exact"

    def test_constant_map_on_full_cube(self, full3):
        rep = evaluate_distortion(full3, VertexMap(np.full(8, 0)))
        assert rep.d_plus == 1.0
        assert rep.d_minus == pytest.approx(1.0 / 3.0)
        assert rep.distortion == pytest.approx(3.0)
        assert hamming(*rep.witness_minus) == 3  # an antipodal pair

    def test_identity_on_broken_square(self, broken_square):
        rep = evaluate_distortion(broken_square, VertexMap.identity(CubeShape(2)))
        assert rep.d_plus == 3.0
        assert rep.distortion == 3.0
        assert tuple(sorted(rep.witness_plus)) == (2, 3)

    def test_disconnected_image_flagged(self):
        sm = sample(CubeShape(1), PercModel.bond(0.0), 0)
        rep = evaluate_distortion(sm, VertexMap.identity(CubeShape(1)))
        assert rep.infinite
        assert rep.d_plus == np.inf
        assert rep.d_minus == 0.0

    def test_exact_cap(self):
        sm = sample(CubeShape(13), PercModel.bond(1.0), 0)
        with pytest.raises(CapExceeded):
            evaluate_distortion(sm, VertexMap.identity(CubeShape(13)), "exact")

    def test_image_must_be_present(self):
        sm = sample(CubeShape(3), PercModel.site(0.4), 5)
        absent = [v for v in range(8) if not sm.vertex_present(v)]
        if not absent:
            pytest.skip("seed leaves every vertex present")
        with pytest.raises(ValueError):
            evaluate_distortion(sm, VertexMap(np.full(8, absent[0])))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32), st.data())
    def test_sampled_never_exceeds_exact(self, seed, data):
        sm = sample(CubeShape(5), PercModel.bond(0.8), seed)
        lab = components(sm)
        if lab.giant_size < 32:
            return
        target = int(np.flatnonzero(lab.giant_mask())[0])
        vmap = VertexMap(np.full(32, target))
        exact = evaluate_distortion(sm, vmap, "exact")
        sampled = evaluate_distortion(
            sm, vmap, "sampled", pair_count=64, seed=data.draw(st.integers(0, 999))
        )
        assert sampled.d_plus <= exact.d_plus + 1e-12
        assert sampled.distortion <= exact.distortion + 1e-12


class TestBruteForce:
    def test_full_square_identity_is_optimal(self):
        sm = sample(CubeShape(2), PercModel.bond(1.0), 0)
        vmap, rep = brute_force_min_distortion(sm)
        assert rep.distortion == 1.0
        assert vmap.image.tolist() == [0, 1, 2, 3]

    def test_broken_square_golden(self, broken_square):
        # identity suffers D=3 across the closed edge; the first optimal
        # map collapses everything to vertex 0 for D=2
        vmap, rep = brute_force_min_distortion(broken_square)
        assert rep.distortion == 2.0
        assert (rep.d_plus, rep.d_minus) == (1.0, 0.5)
        assert vmap.image.tolist() == [0, 0, 0, 0]

    def test_single_edge_removed_n1(self):
        sm = sample(CubeShape(1), PercModel.bond(0.0), 0)
        vmap, rep = brute_force_min_distortion(sm)
        assert rep.distortion == 1.0
        assert vmap.image.tolist() == [0, 0]

    def test_evaluator_agrees_exactly(self, broken_square):
        vmap, rep = brute_force_min_distortion(broken_square)
        again = evaluate_distortion(broken_square, vmap, "exact")
        assert (again.d_plus, again.d_minus, again.distortion) == (
            rep.d_plus,
            rep.d_minus,
            rep.distortion,
        )

    @pytest.mark.parametrize(
        "n, p", [(1, 0.3), (1, 0.6), (2, 0.3), (2, 0.6), (2, 0.9), (3, 0.3), (3, 0.6)]
    )
    def test_search_matches_naive_enumeration(self, n, p):
        # the pruned search must return the first optimum of a full scan
        # and its exact floats; n = 3 only where the giant keeps the scan
        # at 4^8 maps or fewer
        checked = 0
        for seed in range(20):
            sm = sample(CubeShape(n), PercModel.bond(p), seed)
            if n == 3 and components(sm).giant_size > 4:
                continue
            vmap, rep = brute_force_min_distortion(sm)
            got = (vmap.image.tolist(), rep.d_plus, rep.d_minus, rep.distortion)
            assert got == oracle_min_distortion(sm), (n, p, seed)
            checked += 1
        assert checked > 0

    def test_size_cap(self):
        sm = sample(CubeShape(4), PercModel.bond(1.0), 0)
        with pytest.raises(TooLarge):
            brute_force_min_distortion(sm)
