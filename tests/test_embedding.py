"""Good vertices, the distance-1 embedding map, path-family moments, and
percolated-distance statistics for adjacent pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MODEL_KINDS, oracle_good_map, oracle_is_good, perc_model
from cubeperc.embedding import (
    FailureReport,
    _good_vertices,
    analytic_moments,
    build_good_map,
    mc_open_path_count,
    neighbor_distance_stats,
)
from cubeperc.errors import GiantTooSmall
from cubeperc.hypercube import (
    CubeShape,
    NeighborRetraceSpec,
    enumerate_paths,
    make_partition,
)
from cubeperc.metrics import VertexMap, components
from cubeperc.percolation import CounterStream, PercModel, mix64, quantize_probability, sample


def n16_partition():
    return make_partition(CubeShape(16), 0.01)


def assert_good_matches_oracle(sm, part):
    good = _good_vertices(sm, part)
    assert good.dtype == bool
    want = [oracle_is_good(sm, v, part) for v in range(sm.shape.vertex_count)]
    assert good.tolist() == want
    return good


class TestIsGood:
    def test_full_cube_boundary(self):
        # m=5 sits exactly on the boundary: C(5,2) = 10 = 2m witnesses
        part = n16_partition()
        assert part.m == 5 and math.comb(part.m, 2) == 2 * part.m
        full = sample(CubeShape(16), PercModel.bond(1.0), 0)
        assert _good_vertices(full, part).all()
        assert oracle_is_good(full, 0, part)

    def test_p0_not_good(self):
        empty = sample(CubeShape(16), PercModel.bond(0.0), 0)
        assert not _good_vertices(empty, n16_partition()).any()

    def test_absent_vertex_not_good(self):
        part = n16_partition()
        sm = sample(CubeShape(16), PercModel.site(0.95), 1)
        absent = ~sm.present_array()
        good = _good_vertices(sm, part)
        assert absent.any() and good.any()
        assert not good[absent].any()
        assert not _good_vertices(sample(CubeShape(16), PercModel.site(0.0), 0), part).any()

    @pytest.mark.parametrize("model", [PercModel.bond(0.9), PercModel.site(0.9)], ids=["bond", "site"])
    def test_matches_edge_open_witness_count(self, model):
        part = n16_partition()
        sm = sample(CubeShape(16), model, 1)
        good = _good_vertices(sm, part)
        stream = CounterStream(2)
        verdicts = set()
        for _ in range(100):
            v = stream.below(1 << 16)
            assert good[v] == oracle_is_good(sm, v, part)
            verdicts.add(bool(good[v]))
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_small_cubes_match_oracle(self, n, kind):
        # m < 5 below n = 16, so C(m, 2) < 2m and no vertex can be good
        shape = CubeShape(n)
        for alpha in (0.01, 0.05):
            part = make_partition(shape, alpha)
            for seed in range(2):
                sm = sample(shape, perc_model(kind, n**-alpha), seed)
                assert not assert_good_matches_oracle(sm, part).any()

    @pytest.mark.parametrize("p", [0.9, 0.95])
    def test_n16_matches_oracle(self, p):
        sm = sample(CubeShape(16), PercModel.bond(p), 1)
        good = assert_good_matches_oracle(sm, n16_partition())
        assert good.any() and not good.all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32))
    def test_monotone_in_p(self, seed):
        # same seed, larger p: draws_below nests the open sets, so
        # goodness can only appear, never vanish
        part = n16_partition()
        shape = CubeShape(16)
        lo = _good_vertices(sample(shape, PercModel.bond(0.85), seed), part)
        hi = _good_vertices(sample(shape, PercModel.bond(0.95), seed), part)
        assert not (lo & ~hi).any()


@pytest.fixture(scope="module")
def built16():
    part = n16_partition()
    sm = sample(CubeShape(16), PercModel.bond(0.97), 3)
    built = build_good_map(sm, part)
    assert isinstance(built, VertexMap)
    return part, sm, built


class TestBuildGoodMap:
    def test_full_cube_map_is_min_b_offset(self):
        part = n16_partition()
        full = sample(CubeShape(16), PercModel.bond(1.0), 0)
        built = build_good_map(full, part)
        assert isinstance(built, VertexMap)
        b0 = min(part.b_coords)
        assert (built.image == (np.arange(1 << 16) ^ (1 << b0))).all()

    def test_p0_reports_every_vertex(self):
        part = n16_partition()
        empty = sample(CubeShape(16), PercModel.bond(0.0), 0)
        report = build_good_map(empty, part)
        assert isinstance(report, FailureReport)
        assert len(report) == 1 << 16
        assert report.bad_vertices[0] == 0 and report.bad_vertices[-1] == (1 << 16) - 1

    def test_map_moves_one_b_coordinate(self, built16):
        part, _, built = built16
        diff = built.image ^ np.arange(1 << 16)
        b_mask = np.int64(sum(1 << b for b in part.b_coords))
        assert (np.bitwise_count(diff.astype(np.uint64)) == 1).all()
        assert (diff & ~b_mask == 0).all()

    def test_images_are_good_and_not_self(self, built16):
        part, sm, built = built16
        for x in (0, 17, 4095, 65535):
            fx = int(built.image[x])
            assert fx != x
            assert oracle_is_good(sm, fx, part)

    def test_n20_builds(self):
        shape = CubeShape(20)
        part = make_partition(shape, 0.05)
        sm = sample(shape, PercModel.bond(20**-0.05), 0)
        built = build_good_map(sm, part)
        assert isinstance(built, VertexMap)
        b_mask = sum(1 << b for b in part.b_coords)
        stream = CounterStream(0)
        for _ in range(20):
            x = stream.below(1 << 20)
            fx = int(built.image[x])
            assert (fx ^ x).bit_count() == 1 and (fx ^ x) & ~b_mask == 0
            assert oracle_is_good(sm, fx, part)

    @pytest.mark.parametrize("n, part_n", [(16, 20), (16, 13), (8, 30)])
    def test_partition_of_another_dimension_raises(self, n, part_n):
        # once a silent map, an all-bad report or a reshape error
        sm = sample(CubeShape(n), PercModel.bond(16**-0.01), 3)
        with pytest.raises(ValueError, match=f"dimension {part_n}, sample has dimension {n}"):
            build_good_map(sm, make_partition(part_n, 0.01))


def assert_same_build(got, want):
    assert type(got) is type(want)
    got = got.image if isinstance(got, VertexMap) else got.bad_vertices
    want = want.image if isinstance(want, VertexMap) else want.bad_vertices
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestGoodMapOracle:
    @pytest.mark.parametrize(
        "model, built",
        [
            (PercModel.bond(0.9), False),
            (PercModel.bond(0.95), True),
            (PercModel.site(0.9), False),
            (PercModel.site(0.95), False),
        ],
        ids=["bond-0.9", "bond-0.95", "site-0.9", "site-0.95"],
    )
    def test_n16_matches_loop(self, model, built):
        part = n16_partition()
        sm = sample(CubeShape(16), model, 1)
        got = build_good_map(sm, part)
        assert isinstance(got, VertexMap) == built
        assert_same_build(got, oracle_good_map(sm, part))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_small_cubes_fail_like_loop(self, n):
        shape = CubeShape(n)
        for alpha in (0.01, 0.05, 0.25):
            part = make_partition(shape, alpha)
            for model in (PercModel.bond(n**-alpha), PercModel.site(n**-alpha)):
                for seed in range(3):
                    sm = sample(shape, model, seed)
                    got = build_good_map(sm, part)
                    assert isinstance(got, FailureReport)
                    assert_same_build(got, oracle_good_map(sm, part))


class TestAnalyticMoments:
    def test_retrace_golden(self):
        spec = NeighborRetraceSpec(CubeShape(10), 0, 1, 2)
        p = 10**-0.25
        est = analytic_moments(spec, p)
        assert est.mean == 72 * p**5
        assert est.mean == pytest.approx(72 * 10**-1.25, rel=1e-14)
        assert est.second_moment_exact == pytest.approx(23.83783476203133, rel=1e-13)

    def test_p0_zero(self):
        spec = NeighborRetraceSpec(CubeShape(6), 0, 1, 2)
        est = analytic_moments(spec, 0.0)
        assert est.mean == 0.0
        assert est.second_moment_exact == 0.0

    def test_second_moment_dominates_mean_squared(self):
        for l in (1, 2, 3):
            spec = NeighborRetraceSpec(CubeShape(8), 0, 1, l)
            est = analytic_moments(spec, 0.4)
            assert est.second_moment_exact >= est.mean**2

    def test_census_matches_pair_enumeration(self):
        # brute-force the pairwise shared-edge sum on a tiny family
        from cubeperc.hypercube import path_edge_indices

        shape = CubeShape(5)
        spec = NeighborRetraceSpec(shape, 0, 1, 2)
        p = 0.3
        paths = [path_edge_indices(shape, pa) for pa in enumerate_paths(spec)]
        want = 0.0
        for a in paths:
            for b in paths:
                shared = len(set(a) & set(b))
                want += p ** (2 * len(a) - shared)
        est = analytic_moments(spec, p)
        assert est.second_moment_exact == pytest.approx(want, rel=1e-12)

    def test_large_family_census_skipped(self):
        spec = NeighborRetraceSpec(CubeShape(16), 0, 1, 4)
        assert spec.family_size > 10_000
        est = analytic_moments(spec, 0.5)
        assert est.second_moment_exact is None
        assert est.mean > 0

    def test_rejects_bad_p(self):
        spec = NeighborRetraceSpec(CubeShape(5), 0, 1, 1)
        with pytest.raises(ValueError):
            analytic_moments(spec, 1.5)


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "model",
        [PercModel.bond(0.45), PercModel.site(0.7), PercModel.mixed(0.7, 0.8)],
        ids=["bond", "site", "mixed"],
    )
    def test_trials_replay_full_samples(self, model):
        spec = NeighborRetraceSpec(CubeShape(8), 0, 1, 2)
        # a base seed with the top bit set checks the uint64 seed array
        for base_seed in (11, 2**64 - 1):
            counts = mc_open_path_count(spec, model, 20, base_seed=base_seed)
            assert counts.any()
            for t in (0, 7, 19):
                sm = sample(CubeShape(8), model, mix64(base_seed, t))
                manual = sum(
                    all(sm.edge_open(pa[k], pa[k + 1]) for k in range(len(pa) - 1))
                    for pa in enumerate_paths(spec)
                )
                assert counts[t] == manual

    def test_mean_within_four_sigma(self):
        spec = NeighborRetraceSpec(CubeShape(10), 0, 1, 2)
        p = 10**-0.25
        est = analytic_moments(spec, p)
        trials = 4000
        counts = mc_open_path_count(spec, PercModel.bond(p), trials, base_seed=5)
        se = math.sqrt((est.second_moment_exact - est.mean**2) / trials)
        assert abs(counts.mean() - est.mean) <= 4 * se

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_counts_at_p0_and_p1(self, p):
        spec = NeighborRetraceSpec(CubeShape(6), 0, 1, 2)
        counts = mc_open_path_count(spec, PercModel.bond(p), 8, base_seed=0)
        assert (counts == p * spec.family_size).all()


class TestNeighborDistanceStats:
    def test_full_cube_all_ones(self):
        full = sample(CubeShape(8), PercModel.bond(1.0), 0)
        stats = neighbor_distance_stats(full, 100, 5, 123)
        assert stats.median == 1
        assert stats.frac_le_cutoff == 1.0
        assert stats.overflow == 0

    def test_cutoff_zero_overflows_everything(self):
        full = sample(CubeShape(6), PercModel.bond(1.0), 0)
        stats = neighbor_distance_stats(full, 50, 0, 1)
        assert stats.overflow == stats.pairs
        assert stats.median == 1  # sentinel: cutoff + 1

    def test_deterministic(self):
        sm = sample(CubeShape(10), PercModel.bond(0.3), 4)
        a = neighbor_distance_stats(sm, 200, 6, 77)
        b = neighbor_distance_stats(sm, 200, 6, 77)
        assert a == b

    def test_exhaustive_fallback(self):
        # tiny giant: fewer eligible pairs than requested flips the flag
        sm = sample(CubeShape(4), PercModel.bond(0.3), 2)
        stats = neighbor_distance_stats(sm, 10_000, 4, 5)
        assert stats.exhaustive
        assert stats.pairs < 10_000

    def test_no_eligible_pairs(self):
        empty = sample(CubeShape(5), PercModel.bond(0.0), 0)
        with pytest.raises(GiantTooSmall):
            neighbor_distance_stats(empty, 10, 3, 0)

    def test_precomputed_giant_matches(self):
        sm = sample(CubeShape(9), PercModel.bond(0.25), 8)
        lab = components(sm)
        assert neighbor_distance_stats(
            sm, 150, 7, 3, giant=lab.giant_mask()
        ) == neighbor_distance_stats(sm, 150, 7, 3)
