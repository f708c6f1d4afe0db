import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_window_endpoints, open_edge_set, oracle_masks
from cubeperc import percolation
from cubeperc.errors import BadMagic, LengthMismatch, NotAdjacent, VersionMismatch
from cubeperc.hypercube import CubeShape
from cubeperc.metrics import _window_edges
from cubeperc.percolation import (
    ALWAYS,
    CounterStream,
    PercModel,
    PercolationSample,
    deserialize,
    flip_across,
    lower_ends,
    mix64,
    quantize_probability,
    sample,
    unpack_vertices,
    vertex_draw_offset,
    vertex_ids,
    vertex_ranker,
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


def test_vertex_queries_reject_vertices_outside_the_cube():
    # unchecked, a site sample read vertex 7's bit for -1, a bond sample
    # called vertex 100 present and edge_open(8, 9) read edge 4's draw
    site = sample(CubeShape(3), PercModel.site(0.5), 0)
    bond = sample(CubeShape(3), PercModel.bond(0.5), 0)
    outside = r"vertex (-1|8|100) is outside the cube \[0, 2\^3\)"
    with pytest.raises(ValueError, match=outside):
        site.vertex_present(-1)
    with pytest.raises(ValueError, match=outside):
        bond.vertex_present(100)
    with pytest.raises(ValueError, match=outside):
        bond.edge_open(8, 9)


@pytest.mark.parametrize(
    "model",
    [PercModel.bond(0.4), PercModel.site(0.6), PercModel.mixed(0.7, 0.6)],
    ids=["bond", "site", "mixed"],
)
def test_draws_match_scalar_definition(model):
    # the scalar mix64 is the oracle for the array kernel behind the bitsets:
    # edge k is drawn at index k, vertex v at vertex_draw_offset + v.  At
    # n = 13 a draw block boundary falls inside the 53248 edge draws and
    # the last block is short
    for n in (*range(2, 9), 13):
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


def _draws_at(sm, k: int) -> bool:
    # edge draw k, or vertex draw k - edge_count, as the sample holds it
    ne = sm.shape.edge_count
    if k < ne:
        return sm._edge_draw(k)
    return sm.vertex_present(k - ne)


def _chunk_edges(count: int) -> list[int]:
    # per _draw_bitset call of `count` draws: the last draw of every full
    # chunk, the first of the next, and the call's last draw
    chunk = percolation._CHUNK
    idx = {count - 1}
    for k in range(1, (count - 1) // chunk + 1):
        idx.update((k * chunk - 1, k * chunk))
    return sorted(idx)


@pytest.mark.parametrize(
    "model", [PercModel.site(0.6), PercModel.mixed(0.7, 0.6)], ids=["site", "mixed"]
)
def test_draws_at_chunk_boundaries(model):
    # n = 17: the vertex draws span several chunks; check both sides of
    # each chunk boundary and the last draw of each _draw_bitset call
    shape = CubeShape(17)
    off = vertex_draw_offset(shape)
    seed = 987654321
    sm = sample(shape, model, seed)
    for start, count, threshold in (
        (0, shape.edge_count, model.bond_threshold),
        (off, shape.vertex_count, model.site_threshold),
    ):
        for i in _chunk_edges(count):
            k = start + i
            assert _draws_at(sm, k) == (mix64(seed, k) < threshold), k


@pytest.mark.parametrize("chunk", [8, 24, percolation._CHUNK])
def test_draw_bitset_matches_scalar_mix64(chunk, monkeypatch):
    # the packed draws against scalar mix64 with the chunk shrunk to a few
    # bytes and at its default: offsets and counts off the chunk and byte
    # grid, the vertex-draw offset of a site sample, a seed with the top
    # bit set, thresholds 0, 1, M64 and ALWAYS (p = 0 and p = 1 take the
    # short cut); the padding bits past count stay clear
    monkeypatch.setattr(percolation, "_CHUNK", chunk)
    counts = (1, 7, 9, 2 * chunk + 5) if chunk < 64 else (chunk + 13,)
    thresholds = (0, 1, quantize_probability(0.3), M64, ALWAYS)
    for seed in (0, (1 << 63) | 977):
        for offset in (0, 5, vertex_draw_offset(CubeShape(17)) + 3):
            for count in counts:
                draws = [mix64(seed, offset + i) for i in range(count)]
                for threshold in thresholds:
                    got = percolation._draw_bitset(seed, offset, count, threshold)
                    assert got.dtype == np.uint8 and len(got) == (count + 7) // 8
                    bits = np.unpackbits(got, bitorder="little")
                    want = [d < threshold for d in draws]
                    assert bits[:count].tolist() == want, (seed, offset, count, threshold)
                    assert not bits[count:].any(), (seed, offset, count, threshold)


# sha256 of serialize() for seed 2024, recorded before the draw kernel
# moved to cache-sized chunks; any change to a drawn bit changes these
SERIALIZED_SHA256 = {
    ("bond", 8): "356afeccad5aa0db7671f158ee2bdb66d1fcf6702575c0c2ae6b7bd85fc563ec",
    ("site", 8): "ad03c47a5b60f65aa3c12527a4e13288c09d4f809db106119ca7e03bec302008",
    ("mixed", 8): "0470224611af7f1634c626e12f84d67f9f294645c69a8c5d606e701f364d9756",
    ("bond", 13): "78d793fbae28dab4a104ec1f2615f79e70051c46e68103c06121f0172ea6acaa",
    ("site", 13): "0bce69c9e41430a71901296157d8a52c654cbc9bc2f67b29b178cedd11403ba9",
    ("mixed", 13): "3c4eb4c8adc5d3941ab5d39ab5e51b2cd4b3ad4a680b2f4739dec65c79f718fe",
    ("bond", 17): "42b27c845f4f5f7bf7cdae364c9c22c8981f4a2525a1d4f8dda26a93b3061812",
    ("site", 17): "ea8e3bb42b68fb2fc9f7f1b1a917c13694fd432d9fe773d630d7824569706bfc",
    ("mixed", 17): "340cea742b3f9695ec0fbc88a6bb07ce7374a1ac6bccc0419a6a29be344f8fb1",
}


@pytest.mark.parametrize("kind, n", sorted(SERIALIZED_SHA256))
def test_serialized_bytes_pinned(kind, n):
    model = {
        "bond": PercModel.bond(0.4),
        "site": PercModel.site(0.6),
        "mixed": PercModel.mixed(0.7, 0.6),
    }[kind]
    data = sample(CubeShape(n), model, 2024).serialize()
    assert hashlib.sha256(data).hexdigest() == SERIALIZED_SHA256[kind, n]


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


ORACLE_MODELS = [
    PercModel.bond(0.4), PercModel.site(0.6), PercModel.mixed(0.7, 0.6),
    PercModel.bond(0.0), PercModel.site(0.0), PercModel.mixed(0.0, 1.0),
    PercModel.bond(1.0), PercModel.site(1.0), PercModel.mixed(1.0, 1.0),
]
ORACLE_IDS = [f"{m.kind}-{m.p_bond:g}-{m.p_site:g}" for m in ORACLE_MODELS]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
@pytest.mark.parametrize("n", range(1, 13))
def test_masks_array_matches_oracle(model, n):
    # n = 1 and c = n - 1 give the degenerate (1, 2, 2^c) views
    sm = sample(CubeShape(n), model, 5 + n)
    masks = sm.open_neighbor_masks_array()
    assert masks.dtype == np.uint32
    assert np.array_equal(masks, oracle_masks(sm))


def read_vertex_bits(words: np.ndarray, nv: int) -> np.ndarray:
    """Bit v of each packed vertex set as the format states it, bit v % 64
    of word v // 64, read one Python int at a time."""
    return np.array([[int(row[v >> 6]) >> (v & 63) & 1 for v in range(nv)] for row in np.atleast_2d(words)])


def random_vertex_sets(n: int, k: int, seed: int, padding: bool = False) -> np.ndarray:
    """k random packed vertex sets over the n-cube, as (k, ceil(nv / 64))
    uint64 words; the bits past nv (n < 6) are set when padding is."""
    nv = 1 << n
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**64, size=(k, -(-nv // 64)), dtype=np.uint64)
    if nv < 64 and not padding:
        words &= np.uint64((1 << nv) - 1)
    return words


@pytest.mark.parametrize("n", range(1, 13))
def test_flip_across_moves_every_bit_across_c(n):
    # bit v of the result is bit v ^ 2^c of the input, for one set and
    # for a (k, nw) stack of them, and the padding past nv stays zero
    nv = 1 << n
    words = random_vertex_sets(n, 3, n)
    bits = read_vertex_bits(words, 64 * words.shape[1])
    for c in range(n):
        want = bits[:, np.arange(nv) ^ (1 << c)]
        stacked = flip_across(words, c)
        assert stacked.shape == words.shape and stacked.dtype == np.uint64
        got = read_vertex_bits(stacked, 64 * words.shape[1])
        assert np.array_equal(got[:, :nv], want), c
        assert not got[:, nv:].any(), c
        assert np.array_equal(flip_across(words[1], c), stacked[1]), c


@pytest.mark.parametrize("n", range(1, 9))
def test_unpack_vertices_drops_the_padding(n):
    # one uint8 0 or 1 per vertex, on the last axis; for n < 6 the set
    # bits past nv are not read
    nv = 1 << n
    words = random_vertex_sets(n, 3, 100 + n, padding=True)
    want = read_vertex_bits(words, nv)
    got = unpack_vertices(words, nv)
    assert got.dtype == np.uint8 and got.shape == (3, nv)
    assert np.array_equal(got, want)
    assert np.array_equal(unpack_vertices(words[2], nv), want[2])


@pytest.mark.parametrize("id_words", [1, 3, percolation._ID_WORDS])
@pytest.mark.parametrize("n", (*range(1, 13), 19))
def test_vertex_ids_list_the_set(n, id_words, monkeypatch):
    # ascending int64 ids, for dense sets, sparse ones with whole zero
    # words, the empty set and the full one, whatever the number of
    # words unpacked at a time (n = 19 has twice the default's words)
    monkeypatch.setattr(percolation, "_ID_WORDS", id_words)
    nv = 1 << n
    dense = random_vertex_sets(n, 3, 200 + n)
    sparse = dense[0] & dense[1] & dense[2]
    sparse[::3] = 0
    full = np.full_like(sparse, (1 << min(nv, 64)) - 1)
    for words in (*dense, sparse, np.zeros_like(sparse), full):
        got = vertex_ids(words)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.flatnonzero(unpack_vertices(words, nv)))


@pytest.mark.parametrize("n", (*range(1, 13), 19))
def test_vertex_ranker_matches_searchsorted(n):
    # each vertex's index in the set's ascending ids is what
    # np.searchsorted finds there, int64, for the whole set, a part of it
    # and no vertex, on dense, sparse and full sets
    nv = 1 << n
    dense = random_vertex_sets(n, 2, 400 + n)
    sparse = dense[0] & dense[1]
    sparse[::3] = 0
    full = np.full_like(sparse, (1 << min(nv, 64)) - 1)
    for words in (*dense, sparse, full):
        ids = vertex_ids(words)
        rank = vertex_ranker(words)
        for part in (ids, ids[1::3], ids[:0]):
            got = rank(part)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.searchsorted(ids, part))


@pytest.mark.parametrize("n", range(1, 13))
def test_lower_ends_keep_the_vertices_with_bit_c_clear(n):
    # the input is not written, and the padding past nv stays zero
    nv = 1 << n
    for words in random_vertex_sets(n, 3, 300 + n):
        before = words.copy()
        bits = unpack_vertices(words, nv)
        for c in range(n):
            got = lower_ends(words, c)
            assert got.shape == words.shape and got.dtype == np.uint64
            assert np.array_equal(words, before), c
            want = np.flatnonzero(bits & (np.arange(nv) >> c & 1 == 0))
            assert np.array_equal(np.flatnonzero(unpack_vertices(got, nv)), want), c
            assert not read_vertex_bits(got, 64 * len(words))[:, nv:].any(), c


@pytest.mark.parametrize("model", ORACLE_MODELS[:3], ids=ORACLE_IDS[:3])
@pytest.mark.parametrize("n", (1, 2, 3, 5, 6, 7, 12))
def test_open_bit_planes_match_masks(model, n):
    # n < 4 reads draws that start inside a byte, n < 6 pads one word,
    # rows 0 to 2 spread their draw bytes and the rest copy them
    sm = sample(CubeShape(n), model, 5 + n)
    nv = sm.shape.vertex_count
    planes = sm.open_bit_planes()
    assert planes.dtype == np.uint64 and planes.shape == (n, -(-nv // 64))
    bits = np.unpackbits(planes.view(np.uint8), axis=1, bitorder="little")
    masks = oracle_masks(sm)
    for c in range(n):
        assert np.array_equal(bits[c, :nv], masks >> c & 1), c
    assert not bits[:, nv:].any()
    assert sm.open_bit_planes() is planes
    assert sm.open_bit_planes(cache=False) is planes
    back = deserialize(sm.serialize())
    copy = back.open_bit_planes(cache=False)
    assert back._plane_cache is None
    assert copy.tobytes() == back.open_bit_planes().tobytes() == planes.tobytes()


@pytest.mark.parametrize("model", ORACLE_MODELS[:3], ids=ORACLE_IDS[:3])
@pytest.mark.parametrize("n", (1, 2, 5, 9))
def test_edge_endpoints_match_oracle(model, n):
    # per coordinate, the ascending lower ends of the open edges and
    # their partners across bit c, read from the planes
    sm = sample(CubeShape(n), model, 3)
    masks = oracle_masks(sm)
    v = np.arange(sm.shape.vertex_count)
    for c, (base, other) in enumerate(_window_edges(sm.open_bit_planes(), range(n), 0, len(v))):
        assert base.dtype == other.dtype == np.int64
        expect = np.flatnonzero((masks >> c & 1).astype(bool) & (v >> c & 1 == 0))
        assert np.array_equal(base, expect)
        assert np.array_equal(other, expect + (1 << c))


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_open_edge_count_matches_scalar_api(model):
    # the plane bits halved, against the open edges that edge_open finds,
    # for every model: n < 6 pads the planes' one word
    for n in range(1, 10):
        sm = sample(CubeShape(n), model, 13 + n)
        assert sm.open_edge_count() == len(open_edge_set(sm)), n
        assert sm._plane_cache is None


@pytest.mark.parametrize("model", ORACLE_MODELS[:3], ids=ORACLE_IDS[:3])
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 9, 17))
def test_window_endpoints_match_whole_cube(model, n):
    # the coordinates below a cut, read from the planes one aligned
    # window at a time, are the draw-window reader's endpoints, and
    # shifted by the window start and joined in window order they are
    # the whole-cube endpoints; the read of the coordinates from the cut
    # on is the rest.  Windows below 64 vertices lie inside one word,
    # and at n <= 3 a coordinate's draws start inside a byte
    sm = sample(CubeShape(n), model, 11)
    planes = sm.open_bit_planes()
    nv = sm.shape.vertex_count
    whole = list(_window_edges(planes, range(n), 0, nv))
    for cut in range(1, n + 1):
        high = list(_window_edges(planes, range(cut, n), 0, nv))
        assert len(high) == n - cut
        for (base, other), (wb, wo) in zip(high, whole[cut:]):
            assert base.dtype == other.dtype == np.int64
            assert np.array_equal(base, wb) and np.array_equal(other, wo)
        # at n = 17 only windows of 2^14 vertices and up, at most 8 of them
        for bits in range(max(cut, n - 3 if n > 9 else 1), n + 1):
            size = 1 << bits
            low = [[] for _ in range(cut)]
            for start in range(0, nv, size):
                got = _window_edges(planes, range(cut), start, size)
                want = draw_window_endpoints(sm, range(cut), start, size)
                for c, ((base, other), (rb, ro)) in enumerate(zip(got, want, strict=True)):
                    assert base.dtype == other.dtype == np.int64
                    assert np.array_equal(base, rb) and np.array_equal(other, ro), (start, size, c)
                    low[c].append(base + start)
            for c in range(cut):
                assert np.array_equal(np.concatenate(low[c]), whole[c][0]), (cut, bits, c)


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
