import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MODEL_KINDS,
    labelling_witness,
    one_call_labels,
    oracle_bfs,
    oracle_components,
    oracle_distortion,
    oracle_min_distortion,
    oracle_sampled_distortion,
    perc_model,
    scipy_distances,
)
from cubeperc import metrics
from cubeperc.errors import CapExceeded, SourceAbsent, TooLarge
from cubeperc.hypercube import CubeShape, hamming
from cubeperc.embedding import build_good_map
from cubeperc.hypercube import make_partition
from cubeperc.metrics import (
    DistortionReport,
    VertexMap,
    bfs,
    bounded_distance,
    brute_force_min_distortion,
    components,
    evaluate_distortion,
)
from cubeperc.percolation import PercModel, PercolationSample, sample

perc_case = st.tuples(
    st.integers(2, 6), st.floats(0.1, 0.9), st.integers(0, 2**32)
)

# the BFS kernel's step modes, forced through the share below which a
# level takes the sparse step: never, always (an infinite share, since
# `_bfs_bits` scales it), and the default switch between the two
STEP_SHARES = {"dense": 0.0, "sparse": math.inf, "switched": metrics._SPARSE_SHARE}


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


def test_bfs_rejects_source_outside_the_cube():
    sm = sample(CubeShape(3), PercModel.bond(0.5), 0)
    with pytest.raises(ValueError, match=r"vertex 100 is outside the cube"):
        bfs(sm, 100)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=30, deadline=None)
@given(perc_case)
def test_bfs_matches_oracle(kind, case):
    # bit for bit from every present source: -1 exactly where the
    # oracle never arrives
    n, p, seed = case
    sm = sample(CubeShape(n), perc_model(kind, p), seed)
    for source in np.flatnonzero(sm.present_array()).tolist():
        want = oracle_bfs(sm, source)
        expect = [want.get(v, -1) for v in range(sm.shape.vertex_count)]
        for share in STEP_SHARES.values():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "_SPARSE_SHARE", share)
                field = bfs(sm, source)
            assert field.dist.dtype == np.int32
            assert field.dist.tolist() == expect, share


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MODEL_KINDS), perc_case, st.data())
def test_bounded_distance_matches_bfs(kind, case, data):
    # the distance exactly when it is at most the cutoff: the sampled
    # evaluator's contraction scan skips a pair on None
    n, p, seed = case
    sm = sample(CubeShape(n), perc_model(kind, p), seed)
    u = data.draw(st.integers(0, sm.shape.vertex_count - 1))
    v = data.draw(st.integers(0, sm.shape.vertex_count - 1))
    cutoff = data.draw(st.none() | st.integers(0, n + 1))
    # an absent u has no open edge, so it reaches only itself
    d = bfs(sm, u).distance(v) if sm.vertex_present(u) else (0 if u == v else None)
    want = d if d is not None and (cutoff is None or d <= cutoff) else None
    assert bounded_distance(sm, u, v, cutoff) == want


def test_bounded_distance_absent_ends():
    # an absent end has no open edge, so no pair through it has a
    # distance, while u == v is 0 whether u is present or not
    sm = sample(CubeShape(4), PercModel.site(0.6), 2)
    present = sm.present_array()
    assert present.any() and not present.all()
    for u in range(16):
        want = oracle_bfs(sm, u) if present[u] else {u: 0}
        for v in range(16):
            assert bounded_distance(sm, u, v) == want.get(v)


@pytest.mark.parametrize("u, v", [(3, -1), (3, 16), (-1, 3), (16, 3), (-1, -1), (16, 16)])
def test_bounded_distance_rejects_vertices_outside_the_cube(u, v):
    # checked before the u == v shortcut, so (16, 16) is not 0
    sm = sample(CubeShape(4), PercModel.bond(0.9), 3)
    with pytest.raises(ValueError, match=r"outside the cube \[0, 2\^4\)"):
        bounded_distance(sm, u, v)


def test_bounded_distance_cutoff(full4):
    assert bounded_distance(full4, 0, 15, cutoff=3) is None
    assert bounded_distance(full4, 0, 15, cutoff=4) == 4
    assert bounded_distance(full4, 7, 7, cutoff=0) == 0


def test_bounded_distance_detours_without_a_geodesic_path(broken_square):
    # 2 and 3 differ in one bit but their edge is closed, so no path
    # flips only that bit and the ball growing finds the detour 2-0-1-3;
    # 2 and 1 are joined by the flips 2-0-1
    assert bounded_distance(broken_square, 2, 3) == 3
    assert bounded_distance(broken_square, 3, 2, cutoff=2) is None
    assert bounded_distance(broken_square, 2, 1) == 2


@pytest.mark.parametrize("u, v", [(3, 3), (3, 5)])
def test_bounded_distance_rejects_negative_cutoff(u, v):
    # no distance lies at or below a negative cutoff, so u == v raises
    # too instead of answering 0
    sm = sample(CubeShape(4), PercModel.bond(0.9), 3)
    with pytest.raises(ValueError, match="cutoff must be nonnegative, got -1"):
        bounded_distance(sm, u, v, cutoff=-1)
    assert bounded_distance(sm, u, v, cutoff=0) == (0 if u == v else None)


@pytest.mark.parametrize("v", [-1, 16, 2**40])
def test_distance_field_rejects_vertices_outside_the_cube(v):
    # -1 once read vertex 15's distance and 16 died with IndexError
    field = bfs(sample(CubeShape(4), PercModel.bond(0.9), 3), 0)
    assert field.distance(15) == 4
    with pytest.raises(ValueError, match=rf"vertex {v} is outside the cube \[0, 2\^4\)"):
        field.distance(v)


@pytest.mark.parametrize("v", [-1, 256, -256])
def test_distances_reject_sources_outside_the_cube(v):
    # -1 once read vertex 255's row and 256 died with IndexError
    sm = sample(CubeShape(8), PercModel.bond(0.9), 3)
    for sources in ([0, v, 300], v):
        with pytest.raises(ValueError, match=rf"vertex {v} is outside the cube \[0, 2\^8\)"):
            metrics._distances(sm, sources)


class TestDistances:
    """`_distances` against scipy's `dijkstra` bit for bit, in each step
    mode of the kernel."""

    @staticmethod
    def assert_matches_scipy(sm, sources, case):
        got = metrics._distances(sm, sources)
        want = scipy_distances(sm, sources)
        assert got.dtype == want.dtype == np.float64, case
        assert got.shape == want.shape, case
        assert got.tobytes() == want.tobytes(), case

    @pytest.mark.parametrize("step", STEP_SHARES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_scipy(self, kind, step, monkeypatch):
        # 1 to 129 sources, one search row each, and every vertex up to
        # sixteen; p = 0.3 leaves many components, p = 0.8 few
        monkeypatch.setattr(metrics, "_SPARSE_SHARE", STEP_SHARES[step])
        absent_seen = False
        for n in range(1, 11):
            nv = 1 << n
            rng = np.random.default_rng(n)
            for p in (0.3, 0.8):
                sm = sample(CubeShape(n), perc_model(kind, p), n)
                for count in (1, 63, 64, 65, 129):
                    self.assert_matches_scipy(sm, rng.integers(0, nv, count), (n, p, count))
                self.assert_matches_scipy(sm, np.arange(nv), (n, p, "all"))
                # repeated and absent sources, and a scalar source's 1-D row
                absent = np.flatnonzero(~sm.present_array())[:3].tolist()
                absent_seen |= bool(absent)
                self.assert_matches_scipy(sm, [nv - 1, 0, nv - 1, nv - 1, *absent, 0], (n, p, "repeated"))
                self.assert_matches_scipy(sm, nv - 1, (n, p, "scalar"))
        assert absent_seen or kind == "bond"

    @pytest.mark.parametrize("step", STEP_SHARES)
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_scipy_past_ten_coordinates(self, kind, step, monkeypatch):
        # coordinates 10 and up move whole runs of 16 or more words, a
        # dense-step branch that n <= 10 never takes
        monkeypatch.setattr(metrics, "_SPARSE_SHARE", STEP_SHARES[step])
        for n in (11, 12):
            rng = np.random.default_rng(n)
            for p in (0.3, 0.8):
                sm = sample(CubeShape(n), perc_model(kind, p), n)
                for count in (2, 65):
                    self.assert_matches_scipy(sm, rng.integers(0, 1 << n, count), (n, p, count))

    @pytest.mark.parametrize("step", STEP_SHARES)
    def test_levels_past_uint8(self, step, monkeypatch):
        # only the edges of a Gray-code Hamiltonian path of Q_9 are open,
        # so a search from one end runs 511 levels deep, past the 255
        # that the uint8 level array holds before it widens
        monkeypatch.setattr(metrics, "_SPARSE_SHARE", STEP_SHARES[step])
        n = 9
        nv, half = 1 << n, 1 << (n - 1)
        gray = np.arange(nv) ^ (np.arange(nv) >> 1)
        lo = np.minimum(gray[:-1], gray[1:])
        c = np.log2(gray[:-1] ^ gray[1:]).astype(np.int64)
        draws = np.zeros(n * half, dtype=np.uint8)
        draws[c * half + ((lo >> (c + 1)) << c) + (lo & ((1 << c) - 1))] = 1
        sm = PercolationSample(CubeShape(n), PercModel.bond(0.5), 0, np.packbits(draws, bitorder="little"))
        ends = [int(gray[0]), int(gray[-1])]
        got = metrics._distances(sm, ends)
        position = np.empty(nv, dtype=np.int64)
        position[gray] = np.arange(nv)
        assert got[0].tolist() == position.astype(float).tolist()
        assert got[1].tolist() == (nv - 1 - position).astype(float).tolist()
        self.assert_matches_scipy(sm, ends, "gray path")
        assert bfs(sm, ends[0]).dist.tolist() == position.tolist()
        assert bfs(sm, ends[1]).dist.tolist() == (nv - 1 - position).tolist()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bfs_matches_oracle_and_rows(self, kind):
        # one-source `bfs` against the dict BFS and the many-source
        # `_distances` row, in each step mode: every present
        # source up to n = 8 and eight beyond it; n <= 5 holds the search
        # in one padded word, and n = 6, 7 take the first word swaps
        for n in range(1, 13):
            nv = 1 << n
            for p in (0.3, 0.8):
                sm = sample(CubeShape(n), perc_model(kind, p), n)
                present = np.flatnonzero(sm.present_array())
                if n > 8:
                    rng = np.random.default_rng(n)
                    present = rng.choice(present, min(8, len(present)), replace=False)
                rows = metrics._distances(sm, present)
                for source, row in zip(present.tolist(), rows):
                    want = oracle_bfs(sm, source)
                    expect = np.array([want.get(v, -1) for v in range(nv)], dtype=np.int32)
                    assert np.array_equal(np.where(row < np.inf, row, -1), expect), (n, p, source)
                    for step, share in STEP_SHARES.items():
                        with pytest.MonkeyPatch.context() as mp:
                            mp.setattr(metrics, "_SPARSE_SHARE", share)
                            field = bfs(sm, source)
                        assert field.dist.dtype == np.int32
                        assert field.dist.tobytes() == expect.tobytes(), (n, p, source, step)


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

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["site", "mixed"]), perc_case)
    def test_site_and_mixed_match_flood_fill(self, kind, case):
        n, p, seed = case
        sm = sample(CubeShape(n), perc_model(kind, p), seed)
        lab = components(sm)
        want = oracle_components(sm)
        assert lab.n_components == len(want)
        for comp in want:
            assert {int(lab.labels[v]) for v in comp} == {min(comp)}
        for v in range(sm.shape.vertex_count):
            if not sm.vertex_present(v):
                assert lab.labels[v] == -1
        assert lab.giant_size == max((len(c) for c in want), default=0)

    @staticmethod
    def assert_matches_one_call(sm, case):
        # labels bit for bit, dtype included, and the sizes counted from
        # them over the present vertices
        lab = components(sm)
        want = one_call_labels(sm)
        assert lab.labels.dtype == want.dtype
        assert np.array_equal(lab.labels, want), case
        ids, sizes = np.unique(want[sm.present_array()], return_counts=True)
        assert lab.comp_ids.dtype == lab.comp_sizes.dtype == np.int64
        assert np.array_equal(lab.comp_ids, ids), case
        assert np.array_equal(lab.comp_sizes, sizes), case
        # ties go to the smallest label
        giant = int(ids[sizes == sizes.max()].min()) if len(ids) else -1
        assert lab.giant_label == giant, case

    @pytest.mark.parametrize("block_bits", [1, 2, 3, None])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_matches_one_call_labelling(self, kind, block_bits, monkeypatch):
        # whatever the cut between the block pass and the contracted
        # pass (None keeps the default)
        if block_bits is not None:
            monkeypatch.setattr(metrics, "_BLOCK_BITS", block_bits)
        for n in (1, 2, 5, 9, 17, 18):
            for p in (n**-0.75, 0.5):
                for seed in (0, 1):
                    sm = sample(CubeShape(n), perc_model(kind, p), seed)
                    self.assert_matches_one_call(sm, (n, p, seed))

    @pytest.mark.parametrize("block_bits", [1, 2, 3, None])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_levels_match_one_call_labelling(self, kind, block_bits, monkeypatch):
        # levels above the block pass that run in several windows (every
        # level below coordinate 16 for a patched cut, [16, 18) at
        # n = 19), and a one-coordinate top level when n minus the cut
        # is odd
        if block_bits is not None:
            monkeypatch.setattr(metrics, "_BLOCK_BITS", block_bits)
        for n in (17, 18, 19):
            for p in (n**-0.75, n**-0.25):
                sm = sample(CubeShape(n), perc_model(kind, p), 2)
                self.assert_matches_one_call(sm, (n, p))

    @pytest.mark.parametrize("level_bits", [1, 3])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_level_width_matches_one_call_labelling(self, kind, level_bits, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_BITS", 2)
        monkeypatch.setattr(metrics, "_LEVEL_BITS", level_bits)
        for n in (9, 19):
            sm = sample(CubeShape(n), perc_model(kind, n**-0.5), 4)
            self.assert_matches_one_call(sm, (n, level_bits))

    @pytest.mark.parametrize("block_bits", [1, 2, 3, None])
    @pytest.mark.parametrize("kind", ["site", "mixed"])
    def test_empty_windows_match_one_call_labelling(self, kind, block_bits, monkeypatch):
        # whole 2^16-vertex windows of the first pass without a present
        # vertex: none at n = 16, the first of two at n = 17, the middle
        # two of four at n = 18, and all of them
        if block_bits is not None:
            monkeypatch.setattr(metrics, "_BLOCK_BITS", block_bits)
        window = 1 << 16
        for n, empty in ((16, ()), (17, (0,)), (18, (1, 2)), (18, (0, 1, 2, 3))):
            drawn = sample(CubeShape(n), perc_model(kind, 0.5), 3)
            vertex_bits = drawn._vertex_bits.copy()
            for b in empty:
                vertex_bits[b * window >> 3 : (b + 1) * window >> 3] = 0
            sm = PercolationSample(drawn.shape, drawn.model, 3, drawn._edge_bits, vertex_bits)
            assert not any(sm.present_array()[b * window : (b + 1) * window].any() for b in empty)
            self.assert_matches_one_call(sm, (n, empty))

    def test_two_pass_labelling_pinned(self):
        # sha256 of labels, comp_ids and comp_sizes at n = 20, where the
        # contracted pass runs; recorded with the single-pass labelling
        sm = sample(CubeShape(20), PercModel.bond(20.0**-0.75), 0)
        lab = components(sm)
        assert (lab.labels.dtype, lab.comp_ids.dtype, lab.comp_sizes.dtype) == (
            np.int32, np.int64, np.int64,
        )
        h = hashlib.sha256()
        for arr in (lab.labels, lab.comp_ids, lab.comp_sizes):
            h.update(arr.tobytes())
        assert h.hexdigest() == "496923cb6f6118323ee1ec879e84084a043d42b23daa09f5314b43ff1acd8b30"
        assert (lab.giant_label, lab.giant_size, lab.n_components) == (0, 877491, 135812)

    def test_ids_out_of_smallest_vertex_order_raise(self, monkeypatch):
        # the final ids are taken as label order because scipy numbers
        # a graph's components by their smallest node; a call that
        # numbers them otherwise must raise, not return wrong labels
        real = metrics.connected_components
        calls = []

        def reversed_once(graph, directed):
            k, lab = real(graph, directed=directed)
            calls.append(k)
            return (k, k - 1 - lab) if len(calls) == 1 else (k, lab)

        monkeypatch.setattr(metrics, "connected_components", reversed_once)
        monkeypatch.setattr(metrics, "_BLOCK_BITS", 2)
        sm = sample(CubeShape(5), PercModel.bond(0.0), 0)
        with pytest.raises(RuntimeError, match="smallest node"):
            components(sm)
        assert len(calls) > 1 and calls[0] == 32

    def test_labelling_memory_bounded(self):
        cases = [
            # a whole-cube graph of the low edges, or an nv-long int64
            # size count, takes the traced peak past 100 MiB; one
            # whole-cube pass of the high edges held 34 MiB, the levels
            # about 21 MiB (scipy's call on the top level's edges, with
            # or without a block-id map)
            (20, 0.25, 64),
            # many components: the whole-cube pass of the high edges and
            # the nv-long tail arrays peaked at 28 MiB, the levels with a
            # block-id map at 17 MiB, the levels on the ids alone at
            # about 15 MiB
            (21, 0.75, 22),
        ]
        for n, alpha, bound_mib in cases:
            sm = sample(CubeShape(n), PercModel.bond(n**-alpha), 0)
            tracemalloc.start()
            try:
                components(sm)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_mib << 20, (n, alpha, peak / 2**20)

    def test_giant_mask_empty_without_vertices(self):
        sm = sample(CubeShape(4), PercModel.site(0.0), 0)
        lab = components(sm)
        assert lab.giant_label == -1 and lab.giant_size == 0
        assert lab.giant_mask().dtype == bool
        assert not lab.giant_mask().any()

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
        # every d_Y is 0: the exact scan starts below 0, so its first
        # edge is the stretch witness; the sampled scan starts at 0 and
        # names none
        assert rep.witness_plus == (0, 1)
        sampled = evaluate_distortion(full3, VertexMap(np.full(8, 0)), "sampled", pair_count=16)
        assert sampled.d_plus == 1.0
        assert sampled.witness_plus is None

    # (n, p, seed, d+, witness+): the identity on connected samples, whose
    # contraction is 1 at the first pair (0, 1)
    IDENTITY_PINS = [
        (4, 0.7, 0, 5.0, (8, 9)),
        (6, 0.7, 0, 5.0, (24, 25)),
        (8, 0.7, 0, 5.0, (102, 103)),
    ]

    @pytest.mark.parametrize("n, p, seed, d_plus, witness_plus", IDENTITY_PINS)
    def test_identity_report_pinned(self, n, p, seed, d_plus, witness_plus):
        sm = sample(CubeShape(n), PercModel.bond(p), seed)
        assert components(sm).n_components == 1
        rep = evaluate_distortion(sm, VertexMap.identity(sm.shape), "exact")
        assert rep == DistortionReport(
            d_plus, 1.0, d_plus, witness_plus, (0, 1), "exact", None, False
        )

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
        # the cap holds before any labelling, also for a disconnected
        # sample whose report would be infinite
        for p in (1.0, 0.3):
            sm = sample(CubeShape(13), PercModel.bond(p), 0)
            with pytest.raises(CapExceeded):
                evaluate_distortion(sm, VertexMap.identity(CubeShape(13)), "exact")

    def test_image_must_be_present(self):
        sm = sample(CubeShape(3), PercModel.site(0.4), 5)
        absent = [v for v in range(8) if not sm.vertex_present(v)]
        if not absent:
            pytest.skip("seed leaves every vertex present")
        with pytest.raises(ValueError):
            evaluate_distortion(sm, VertexMap(np.full(8, absent[0])))

    @pytest.mark.parametrize("source, image", [(0, -1), (0, 16), (5, 16), (15, -2**40)])
    def test_image_outside_the_cube_raises(self, source, image):
        # named before the presence check, which would read a negative
        # image as a vertex counted from the end
        sm = sample(CubeShape(4), PercModel.bond(0.9), 3)
        img = np.arange(16)
        img[source] = image
        for mode in ("exact", "sampled"):
            want = rf"^image {image} of vertex {source} is outside the cube \[0, 2\^4\)$"
            with pytest.raises(ValueError, match=want):
                evaluate_distortion(sm, VertexMap(img), mode)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_reports_match_labelling_oracle(self, kind):
        # whole reports, exact and sampled, against the labelling witness
        # and the distance oracles: maps onto random present vertices
        # (mostly straddling components at p = 0.3), into the giant, into
        # the giant but for one source sent off it, and with vertex 0's
        # image off the giant
        seen = set()
        for n in range(2, 11):
            nv = 1 << n
            for p in (0.3, 0.8):
                sm = sample(CubeShape(n), perc_model(kind, p), n)
                lab = components(sm)
                present = np.flatnonzero(sm.present_array())
                if not len(present):
                    continue
                giant = np.flatnonzero(lab.giant_mask())
                rng = np.random.default_rng(n)
                maps = [rng.choice(present, nv), rng.choice(giant, nv)]
                off = np.setdiff1d(present, giant)
                if len(off):
                    one_off = rng.choice(giant, nv)
                    one_off[rng.integers(1, nv)] = rng.choice(off)
                    first_off = rng.choice(giant, nv)
                    first_off[0] = rng.choice(off)
                    maps += [one_off, first_off]
                for img in maps:
                    vmap = VertexMap(img)
                    seen.add(labelling_witness(sm, img) is None)
                    for mode in ("exact", "sampled"):
                        got = evaluate_distortion(sm, vmap, mode, pair_count=100, seed=n)
                        assert got == oracle_distortion(sm, vmap, mode, 100, n), (n, p, mode)
        assert seen == {True, False}

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


    @pytest.mark.parametrize("pair_count", [0, -3])
    def test_sampled_rejects_non_positive_pair_count(self, full3, pair_count):
        with pytest.raises(ValueError):
            evaluate_distortion(
                full3, VertexMap.identity(CubeShape(3)), "sampled", pair_count=pair_count
            )


class TestSampledMatchesScalarOracle:
    """Sampled distortion, whose contraction side searches only the pairs
    its Hamming lower bound cannot rule out, against the loop that
    searches every pair in draw order: pair counts from 1 to 200, maps
    whose bound is tight (the good map) or loose (maps onto a sparse
    giant), and witnesses found after the first search."""

    PAIR_COUNTS = [1, 64, 65, 200]

    @staticmethod
    def nearest_giant_map(sm):
        """Each vertex to the least giant vertex not below it (the largest
        giant vertex past the last one)."""
        giant = np.flatnonzero(components(sm).giant_mask())
        pos = np.searchsorted(giant, np.arange(sm.shape.vertex_count))
        return VertexMap(giant[pos.clip(max=len(giant) - 1)])

    @staticmethod
    def contraction_searches(monkeypatch, sm, vmap, pair_count, seed):
        """The sampled report, and the image pairs that its contraction
        side searched, in search order."""
        calls = []

        def recording(sample, u, v, cutoff=None):
            calls.append((u, v))
            return bounded_distance(sample, u, v, cutoff)

        monkeypatch.setattr(metrics, "bounded_distance", recording)
        got = evaluate_distortion(sm, vmap, "sampled", pair_count=pair_count, seed=seed)
        # the stretch side searches its pair_count pairs first
        return got, calls[pair_count:]

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("pair_count", PAIR_COUNTS)
    def test_small_cube(self, kind, pair_count):
        n = 7
        sm = sample(CubeShape(n), perc_model(kind, 0.7), 5)
        giant = np.flatnonzero(components(sm).giant_mask())
        # an arbitrary map into the giant, so distances are nontrivial
        vmap = VertexMap(giant[np.arange(2**n) * 37 % len(giant)])
        got = evaluate_distortion(sm, vmap, "sampled", pair_count=pair_count, seed=pair_count)
        assert not got.infinite
        assert got == oracle_sampled_distortion(sm, vmap, pair_count, pair_count)

    @pytest.mark.parametrize("pair_count", PAIR_COUNTS)
    def test_dense_map_n16(self, pair_count):
        # gate 6's cell: the good map built at n = 16, alpha = 0.01
        shape = CubeShape(16)
        sm = sample(shape, PercModel.bond(16**-0.01), 3)
        vmap = build_good_map(sm, make_partition(shape, 0.01))
        got = evaluate_distortion(sm, vmap, "sampled", pair_count=pair_count, seed=11)
        assert got == oracle_sampled_distortion(sm, vmap, pair_count, 11)

    def test_loose_lower_bound_n12(self, monkeypatch):
        # the sparse giant stretches distances far past the Hamming
        # bound, so the bound rules out few of the drawn pairs
        sm = sample(CubeShape(12), PercModel.bond(12**-0.75), 3)
        vmap = self.nearest_giant_map(sm)
        got, searched = self.contraction_searches(monkeypatch, sm, vmap, 64, 64)
        assert len(searched) >= 48
        assert got == oracle_sampled_distortion(sm, vmap, 64, 64)

    @pytest.mark.parametrize(
        "n, kind, alpha, seed, pair_count",
        [(7, "mixed", 0.25, 3, 64), (8, "bond", 0.5, 2, 64), (10, "mixed", 0.5, 0, 200)],
    )
    def test_witness_not_first_searched(self, n, kind, alpha, seed, pair_count, monkeypatch):
        # later searches lower the best, and the witness ties the best
        # at an earlier draw than a pair searched before it
        sm = sample(CubeShape(n), perc_model(kind, n**-alpha), seed)
        vmap = self.nearest_giant_map(sm)
        got, searched = self.contraction_searches(monkeypatch, sm, vmap, pair_count, pair_count)
        a, b = got.witness_minus
        assert searched[0] != (vmap[a], vmap[b])
        assert got == oracle_sampled_distortion(sm, vmap, pair_count, pair_count)


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

    # (n, seed, optimal map, d-, witness+, witness-) at p = 0.8; the
    # witnesses come from the exact evaluator, and (0, 2) follows an
    # all-zero first coordinate, so a strict maximum moves it off (0, 1)
    OPTIMUM_PINS = [
        (2, 0, [0, 0, 0, 0], 0.5, (0, 1), (0, 3)),
        (2, 9, [0, 1, 2, 3], 1.0, (0, 1), (0, 1)),
        (3, 0, [0, 0, 1, 1, 4, 4, 5, 5], 0.5, (0, 2), (0, 3)),
        (3, 2, [0] * 8, 1 / 3, (0, 1), (0, 7)),
        (3, 9, [2, 2, 3, 3, 6, 6, 7, 7], 0.5, (0, 2), (0, 3)),
    ]

    @pytest.mark.parametrize("n, seed, image, d_minus, witness_plus, witness_minus", OPTIMUM_PINS)
    def test_optimum_report_pinned(self, n, seed, image, d_minus, witness_plus, witness_minus):
        sm = sample(CubeShape(n), PercModel.bond(0.8), seed)
        vmap, rep = brute_force_min_distortion(sm)
        assert vmap.image.tolist() == image
        assert rep == DistortionReport(
            1.0, d_minus, 1.0 / d_minus, witness_plus, witness_minus, "exact", None, False
        )

    def test_size_cap(self):
        sm = sample(CubeShape(4), PercModel.bond(1.0), 0)
        with pytest.raises(TooLarge):
            brute_force_min_distortion(sm)
