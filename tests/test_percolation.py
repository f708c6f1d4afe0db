import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import open_edge_set
from cubeperc.errors import BadMagic, LengthMismatch, NotAdjacent, VersionMismatch
from cubeperc.hypercube import CubeShape
from cubeperc.percolation import (
    ALWAYS,
    CounterStream,
    PercModel,
    PercolationSample,
    deserialize,
    mix64,
    quantize_probability,
    sample,
    vertex_draw_offset,
)

M64 = (1 << 64) - 1


def ref_mix64(seed: int, index: int) -> int:
    # independent restatement of the finalizer, kept deliberately naive
    z = (seed ^ ((index * 0x9E3779B97F4A7C15) & M64)) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def test_mix64_frozen_vectors():
    assert mix64(0, 0) == 0
    assert mix64(0, 1) == 16294208416658607535
    assert mix64(42, 7) == 6029533247520485195
    assert mix64(M64, 123456789) == 6475994675403969785


@given(st.integers(0, M64), st.integers(0, M64))
def test_mix64_matches_reference(seed, index):
    assert mix64(seed, index) == ref_mix64(seed, index)


def test_quantize_probability_endpoints():
    assert quantize_probability(0.0) == 0
    assert quantize_probability(1.0) == ALWAYS == 1 << 64
    assert quantize_probability(0.5) == 1 << 63


@given(st.floats(0, 1), st.floats(0, 1))
def test_quantize_probability_monotone(p, q):
    lo, hi = sorted((p, q))
    assert quantize_probability(lo) <= quantize_probability(hi)


class TestCounterStream:
    def test_deterministic(self):
        a = CounterStream(99)
        b = CounterStream(99)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_below_range(self):
        s = CounterStream(3)
        for bound in (1, 2, 7, 100, 2**20):
            for _ in range(50):
                assert 0 <= s.below(bound) < bound

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CounterStream(0).below(0)


def test_p1_all_edges_open():
    shape = CubeShape(5)
    sm = sample(shape, PercModel.bond(1.0), 3)
    assert sm.open_edge_count() == shape.edge_count
    assert len(open_edge_set(sm)) == shape.edge_count


def test_p0_no_edges_open():
    sm = sample(CubeShape(5), PercModel.bond(0.0), 3)
    assert sm.open_edge_count() == 0
    assert not sm.edge_open(0, 1)


def test_open_fraction_near_p():
    # n=16 at p = 16^-0.5 = 0.25: 524288 edges, sigma = sqrt(p(1-p)/E)
    shape = CubeShape(16)
    sm = sample(shape, PercModel.bond(0.25), 1)
    frac = sm.open_edge_count() / shape.edge_count
    sigma = math.sqrt(0.25 * 0.75 / shape.edge_count)
    assert abs(frac - 0.25) <= 3 * sigma


def test_edge_open_rejects_equal_vertices():
    sm = sample(CubeShape(3), PercModel.bond(1.0), 0)
    with pytest.raises(NotAdjacent):
        sm.edge_open(5, 5)


@pytest.mark.parametrize(
    "model",
    [PercModel.bond(0.4), PercModel.site(0.6), PercModel.mixed(0.7, 0.6)],
    ids=["bond", "site", "mixed"],
)
def test_draws_match_scalar_definition(model):
    # the scalar mix64 is the oracle for the array kernel behind the bitsets:
    # edge k is drawn at index k, vertex v at vertex_draw_offset + v
    for n in range(2, 9):
        shape = CubeShape(n)
        off = vertex_draw_offset(shape)
        for seed in (0, 12345, M64):
            sm = sample(shape, model, seed)
            edges = np.concatenate([sm.edge_draw_slice(c) for c in range(n)])
            assert edges.tolist() == [
                mix64(seed, k) < model.bond_threshold for k in range(shape.edge_count)
            ]
            assert sm.present_array().tolist() == [
                not model.has_site_draws or mix64(seed, off + v) < model.site_threshold
                for v in range(shape.vertex_count)
            ]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.floats(0.2, 0.9), st.integers(0, 2**32))
def test_site_model_needs_both_endpoints(n, p, seed):
    shape = CubeShape(n)
    sm = sample(shape, PercModel.site(p), seed)
    for v, w in open_edge_set(sm):
        assert sm.vertex_present(v) and sm.vertex_present(w)


@pytest.mark.parametrize(
    "model",
    [PercModel.bond(0.4), PercModel.site(0.6), PercModel.mixed(0.7, 0.6)],
    ids=["bond", "site", "mixed"],
)
def test_masks_array_matches_edge_open(model):
    sm = sample(CubeShape(7), model, 11)
    masks = sm.open_neighbor_masks_array()
    for v in range(sm.shape.vertex_count):
        for c in range(sm.shape.n):
            assert bool(masks[v] >> c & 1) == sm.edge_open(v, v ^ (1 << c))


def test_vertex_draw_offset_is_edge_count():
    for n in (1, 4, 9):
        shape = CubeShape(n)
        assert vertex_draw_offset(shape) == shape.edge_count


class TestSerialization:
    def test_roundtrip(self):
        sm = sample(CubeShape(8), PercModel.bond(0.3), 7)
        back = deserialize(sm.serialize())
        assert back.shape.n == 8
        assert back.model == sm.model
        assert open_edge_set(back) == open_edge_set(sm)

    def test_roundtrip_site(self):
        sm = sample(CubeShape(5), PercModel.site(0.7), 2)
        back = deserialize(sm.serialize())
        assert back.present_array().tolist() == sm.present_array().tolist()
        assert open_edge_set(back) == open_edge_set(sm)

    def test_deterministic_bytes(self):
        a = sample(CubeShape(6), PercModel.bond(0.45), 12)
        b = sample(CubeShape(6), PercModel.bond(0.45), 12)
        assert a.serialize() == b.serialize()

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            deserialize(b"")
        with pytest.raises(BadMagic):
            deserialize(b"nope" + b"\x00" * 64)

    def test_truncated_payload(self):
        data = sample(CubeShape(6), PercModel.bond(0.5), 1).serialize()
        with pytest.raises(LengthMismatch):
            deserialize(data[:-3])

    def test_version_check(self):
        data = bytearray(sample(CubeShape(4), PercModel.bond(0.5), 1).serialize())
        data[4] ^= 0xFF  # version field follows the 4-byte magic
        with pytest.raises(VersionMismatch):
            deserialize(bytes(data))


def test_seed_changes_sample():
    shape = CubeShape(8)
    model = PercModel.bond(0.5)
    assert open_edge_set(sample(shape, model, 0)) != open_edge_set(sample(shape, model, 1))


def test_mean_degree_at_half():
    # binomial sanity: mean open degree over H_10 at p=0.5 is n/2 +- 4 sigma
    shape = CubeShape(10)
    sm = sample(shape, PercModel.bond(0.5), 21)
    mean = 2 * sm.open_edge_count() / shape.vertex_count
    sigma = math.sqrt(shape.n * 0.25 * 2 / shape.vertex_count)
    assert abs(mean - 5.0) <= 4 * sigma
