import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeperc.errors import (
    DimensionOutOfRange,
    DimensionTooSmall,
    DuplicateCoordinate,
    NotAdjacent,
)
from cubeperc.hypercube import (
    CubeShape,
    NeighborRetraceSpec,
    edge_index,
    enumerate_paths,
    flip_neighbors,
    geodesic_cycle,
    hamming,
    make_partition,
)
from cubeperc.percolation import PercModel, sample, unpack_vertices


class TestCubeShape:
    def test_counts(self):
        s = CubeShape(4)
        assert s.vertex_count == 16
        assert s.edge_count == 4 * 8

    @pytest.mark.parametrize("n", [0, -1, 31, 64])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(DimensionOutOfRange):
            CubeShape(n)

    def test_dimension_one(self):
        s = CubeShape(1)
        assert s.vertex_count == 2
        assert s.edge_count == 1


def test_hamming_and_bits():
    assert hamming(0b1010, 0b0110) == 2
    # flip_neighbors against its definition, every v and mask at n = 5
    n = 5
    for v in range(1 << n):
        for mask in range(1 << n):
            assert flip_neighbors(v, mask) == [v ^ (1 << c) for c in range(n) if mask >> c & 1]


def test_neighbors_examples():
    # the full cube's open edges, read off the sample's open-bit planes,
    # join each vertex to exactly its n Hamming neighbours
    def neighbors(n, v):
        sm = sample(CubeShape(n), PercModel.bond(1.0), 0)
        bits = unpack_vertices(sm.open_bit_planes(), sm.shape.vertex_count)
        return {v ^ (1 << c) for c in range(n) if bits[c, v]}

    assert neighbors(3, 0b000) == {0b001, 0b010, 0b100}
    assert neighbors(1, 0) == {1}
    assert neighbors(4, 0b1111) == {0b0111, 0b1011, 0b1101, 0b1110}


@given(st.integers(1, 12), st.data())
def test_edge_index_roundtrip(n, data):
    # decode an index by the layout edge_index documents, then encode
    # the endpoints again
    shape = CubeShape(n)
    idx = data.draw(st.integers(0, shape.edge_count - 1))
    coord, compressed = divmod(idx, 1 << (n - 1))
    low = compressed & ((1 << coord) - 1)
    base = ((compressed >> coord) << (coord + 1)) | low
    assert base >> coord & 1 == 0
    assert edge_index(shape, base, base | (1 << coord)) == idx
    assert edge_index(shape, base | (1 << coord), base) == idx


def test_edge_index_is_a_bijection_on_endpoints():
    # a sample keeps edge e's draw at bit e of its edge bitset, so the
    # cube's edges must fill [0, n 2^(n-1)) exactly once each
    for n in range(1, 11):
        shape = CubeShape(n)
        hits = [0] * shape.edge_count
        for v in range(shape.vertex_count):
            for c in range(n):
                w = v ^ (1 << c)
                if v < w:
                    idx = edge_index(shape, v, w)
                    assert idx == edge_index(shape, w, v)
                    hits[idx] += 1
        assert hits == [1] * shape.edge_count, n


def test_edge_between_rejects_non_adjacent():
    # edge_index is the edge between u and v; it has none to name unless
    # they differ in exactly one coordinate
    with pytest.raises(NotAdjacent):
        edge_index(CubeShape(3), 0, 3)
    with pytest.raises(NotAdjacent):
        edge_index(CubeShape(3), 5, 5)


@pytest.mark.parametrize("u, v", [(8, 9), (-1, -2), (0, 8), (8, 0)])
def test_edge_index_rejects_vertices_outside_the_cube(u, v):
    # unchecked, (8, 9) named the coordinate-1 edge 4 and (-1, -2) the
    # index -1
    with pytest.raises(ValueError, match=r"vertex -?\d+ is outside the cube \[0, 2\^3\)"):
        edge_index(CubeShape(3), u, v)


class TestMakePartition:
    def test_n10_quarter(self):
        part = make_partition(CubeShape(10), 0.25)
        assert part.l == 5
        assert part.m == 1

    def test_n100_point3(self):
        part = make_partition(100, 0.3)
        assert part.l == 7
        assert part.m == 11

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            make_partition(CubeShape(4), 0.25)

    def test_n16_layout(self):
        part = make_partition(CubeShape(16), 0.01)
        assert (part.l, part.m) == (1, 5)
        assert part.a_coords == (0, 1, 2, 3, 4)
        assert part.b_coords == (5, 6, 7, 8, 9)
        assert part.c_blocks == ((10, 11, 12, 13, 14),)
        assert part.spare == (15,)

    @given(st.integers(8, 26), st.floats(0.01, 0.45))
    def test_l_is_minimal(self, n, alpha):
        try:
            part = make_partition(CubeShape(n), alpha)
        except DimensionTooSmall:
            return
        assert (1 - 2 * alpha) * part.l > 9 * alpha
        if part.l > 1:
            assert (1 - 2 * alpha) * (part.l - 1) <= 9 * alpha
        assert part.m == (n - 1) // (part.l + 2)

    @given(st.integers(8, 26), st.floats(0.01, 0.45))
    def test_blocks_partition_coordinates(self, n, alpha):
        try:
            part = make_partition(CubeShape(n), alpha)
        except DimensionTooSmall:
            return
        blocks = [part.a_coords, part.b_coords, *part.c_blocks, part.spare]
        flat = [c for blk in blocks for c in blk]
        assert len(flat) == len(set(flat)) == n
        assert part.spare


def test_geodesic_cycle_examples():
    assert geodesic_cycle(CubeShape(2), 0, (0, 1)) == [0, 1, 3, 2, 0]
    assert geodesic_cycle(CubeShape(3), 0, (0, 1, 2)) == [0, 1, 3, 7, 6, 4, 0]


@pytest.mark.parametrize("v", [-1, 8, 100])
def test_geodesic_cycle_rejects_start_outside_the_cube(v):
    # 100 once gave the walk [100, 101, 103, 102, 100]
    with pytest.raises(ValueError, match=rf"vertex {v} is outside the cube \[0, 2\^3\)"):
        geodesic_cycle(CubeShape(3), v, (0, 1))


def test_geodesic_cycle_rejects_duplicates():
    with pytest.raises(DuplicateCoordinate):
        geodesic_cycle(CubeShape(3), 0, (0, 0))


@given(st.integers(2, 8), st.data())
def test_geodesic_cycle_is_isometric(n, data):
    shape = CubeShape(n)
    l = data.draw(st.integers(2, n))
    coords = tuple(data.draw(st.permutations(range(n)))[:l])
    v = data.draw(st.integers(0, shape.vertex_count - 1))
    cyc = geodesic_cycle(shape, v, coords)
    assert cyc[0] == cyc[-1] == v
    assert len(cyc) == 2 * l + 1
    # cycle distance equals Hamming distance between any two positions
    for i, j in itertools.combinations(range(2 * l), 2):
        around = min(j - i, 2 * l - (j - i))
        assert hamming(cyc[i], cyc[j]) == around


class TestNeighborRetrace:
    def test_family_size_n10(self):
        spec = NeighborRetraceSpec(CubeShape(10), 0, 1, 2)
        paths = list(enumerate_paths(spec))
        assert len(paths) == 72 == spec.family_size
        assert all(len(p) == 6 for p in paths)

    def test_single_path_n2(self):
        spec = NeighborRetraceSpec(CubeShape(2), 0, 1, 1)
        assert list(enumerate_paths(spec)) == [(0, 2, 3, 1)]

    def test_rejects_non_adjacent_endpoints(self):
        with pytest.raises(NotAdjacent):
            NeighborRetraceSpec(CubeShape(4), 0, 3, 1)

    @settings(max_examples=40)
    @given(st.integers(3, 9), st.data())
    def test_paths_simple_and_correct_length(self, n, data):
        shape = CubeShape(n)
        l = data.draw(st.integers(1, n - 1))
        x = data.draw(st.integers(0, shape.vertex_count - 1))
        c = data.draw(st.integers(0, n - 1))
        spec = NeighborRetraceSpec(shape, x, x ^ (1 << c), l)
        count = 0
        for path in enumerate_paths(spec):
            count += 1
            assert path[0] == spec.x and path[-1] == spec.y
            assert len(set(path)) == len(path)
            assert len(path) == spec.path_length + 1
            if count >= 200:
                break
        assert count == min(spec.family_size, 200)


def test_enumerate_paths_order_is_stable():
    spec = NeighborRetraceSpec(CubeShape(5), 0, 1, 2)
    assert list(enumerate_paths(spec)) == list(enumerate_paths(spec))
    assert spec.family_size == math.perm(4, 2)
