"""Seeded Bernoulli percolation on the hypercube.

Openness is a pure function of (seed, index): an edge with linear index
k is open when mix64(seed, k) < floor(p * 2^64), where mix64 is the
SplitMix64 finalizer applied to (seed XOR golden-ratio-scrambled index).
Vertex draws for site and mixed models use the disjoint index space
starting at n * 2^(n-1).  Everything is bit-exact across platforms;
p = 1 yields threshold 2^64 which no 64-bit draw can reach, i.e. always
open.

Serialized form (little-endian):

    magic "CPRC" | version u16 | n u8 | model tag u8 (0 bond, 1 site,
    2 mixed) | threshold u64 per p field (bond: p_bond; site: p_site;
    mixed: p_bond then p_site; 0xFFFFFFFFFFFFFFFF denotes p = 1) |
    seed u64 | edge-draw bitset | vertex bitset (site/mixed only)

Bitsets are packed ascending-index, least significant bit first within
each byte.  The edge bitset records draw outcomes; effective openness
for site/mixed also requires both endpoints present.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import (
    BadMagic,
    DimensionOverCap,
    LengthMismatch,
    VersionMismatch,
)
from .hypercube import CubeShape, edge_index

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB

ALWAYS = 1 << 64  # threshold that every draw is below
THRESHOLD_SENTINEL = M64  # wire encoding of ALWAYS

DEFAULT_DIMENSION_CAP = 26

FORMAT_MAGIC = b"CPRC"
FORMAT_VERSION = 1

# draws per vectorized block: small enough that the block's uint64
# working buffers stay in L2 instead of streaming through memory
_CHUNK = 1 << 15

# a set of vertices packs into ceil(nv / 64) uint64 words, vertex v at bit
# v % 64 of word v // 64, so the edges along a coordinate c < 6 join bits
# of one word: _IN_WORD[c] holds the bits with bit c of their position
# clear, the lower ends of those edges
_IN_WORD = [np.uint64(sum(1 << b for b in range(64) if not b >> c & 1)) for c in range(6)]


def flip_across(words: np.ndarray, c: int) -> np.ndarray:
    """Packed vertex sets (the last axis holding one set's words) moved
    across coordinate c, as a new array: bit v of the result is bit
    v ^ 2^c of words.  A shift inside each word for c < 6; for c >= 6 the
    runs of 2^(c-6) words swap in pairs."""
    if c < 6:
        shift = np.uint64(1 << c)
        return ((words & _IN_WORD[c]) << shift) | ((words >> shift) & _IN_WORD[c])
    runs = words.reshape(*words.shape[:-1], -1, 2, 1 << (c - 6))
    return runs[..., ::-1, :].reshape(words.shape)


def _spread(draw: np.ndarray, c: int) -> np.ndarray:
    """Row c < 3 of the open-bit planes from coordinate c's packed draw,
    one uint16 per draw byte.  Bit j of byte i is the edge with
    compressed id 8 i + j, whose ends are the vertices 16 i + j with a 0
    or a 1 inserted at bit c of j.  The masked shifts insert the 0 into
    every j of the byte at once, and the last OR adds the other end."""
    x = draw.astype("<u2")
    for shift, keep in ((4, 0x0F0F), (2, 0x3333), (1, 0x5555))[: 3 - c]:
        x = (x | x << shift) & keep
    return x | x << (1 << c)


def mix64(seed: int, index: int) -> int:
    z = (seed ^ ((index * GOLDEN) & M64)) & M64
    z = ((z ^ (z >> 30)) * MIX_A) & M64
    z = ((z ^ (z >> 27)) * MIX_B) & M64
    return z ^ (z >> 31)


def _mix64_array(seed, indices: np.ndarray) -> np.ndarray:
    """mix64 elementwise.  seed is an int or a uint64 array that
    broadcasts against indices (a column of seeds gives a grid)."""
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(seed & M64)
    # the broadcasting xor allocates the result; the rest works in place
    z = (indices.astype(np.uint64, copy=False) * np.uint64(GOLDEN)) ^ seed
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX_B)
    z ^= z >> np.uint64(31)
    return z


def draws_below(seed, indices: np.ndarray, threshold: int) -> np.ndarray:
    """Boolean array: draw at each index succeeds against threshold.
    seed broadcasts as in _mix64_array, and so does the result."""
    if threshold >= ALWAYS or threshold <= 0:
        # p = 1 or p = 0: every draw succeeds, or none does
        shape = np.broadcast_shapes(np.shape(seed), np.shape(indices))
        return np.full(shape, threshold > 0)
    return _mix64_array(seed, indices) < np.uint64(threshold)


def quantize_probability(p: float) -> int:
    """floor(p * 2^64), exact: scaling a double by 2^64 is lossless."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return int(p * (2.0**64)) if p < 1.0 else ALWAYS


class CounterStream:
    """Deterministic value stream; draw k is mix64(seed, k).

    Used wherever an experiment needs auxiliary randomness (pair
    sampling, random maps) so results depend only on the seed.
    """

    def __init__(self, seed: int):
        self.seed = seed & M64
        self.counter = 0

    def next_u64(self) -> int:
        v = mix64(self.seed, self.counter)
        self.counter += 1
        return v

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), exact via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (ALWAYS // bound) * bound
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound


@dataclass(frozen=True)
class PercModel:
    """Percolation model: bond, site, or mixed, with quantized thresholds.

    Thresholds are the source of truth (floor(p * 2^64), with 2^64 for
    p = 1); the float accessors are for display.
    """

    kind: str
    bond_threshold: int
    site_threshold: int

    _KINDS = ("bond", "site", "mixed")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        for t in (self.bond_threshold, self.site_threshold):
            if not (0 <= t <= ALWAYS):
                raise ValueError("threshold out of range")

    @classmethod
    def bond(cls, p: float) -> "PercModel":
        return cls("bond", quantize_probability(p), ALWAYS)

    @classmethod
    def site(cls, p: float) -> "PercModel":
        return cls("site", ALWAYS, quantize_probability(p))

    @classmethod
    def mixed(cls, p_bond: float, p_site: float) -> "PercModel":
        return cls("mixed", quantize_probability(p_bond), quantize_probability(p_site))

    @property
    def p_bond(self) -> float:
        return 1.0 if self.bond_threshold >= ALWAYS else self.bond_threshold / 2.0**64

    @property
    def p_site(self) -> float:
        return 1.0 if self.site_threshold >= ALWAYS else self.site_threshold / 2.0**64

    @property
    def has_site_draws(self) -> bool:
        return self.kind in ("site", "mixed")

    @property
    def tag(self) -> int:
        return self._KINDS.index(self.kind)


def vertex_draw_offset(shape: CubeShape) -> int:
    return shape.edge_count


class PercolationSample:
    """One percolation outcome for (shape, model, seed), held as packed
    draw bitsets: edge draws always, vertex draws for site and mixed."""

    # read by the benchmark's draw counter (perfbench/tracing.py); every
    # sample holds its bitsets, so this is the only value it can take
    mode = "materialized"

    def __init__(
        self,
        shape: CubeShape,
        model: PercModel,
        seed: int,
        edge_bits: np.ndarray,
        vertex_bits: Optional[np.ndarray] = None,
    ):
        self.shape = shape
        self.model = model
        self.seed = seed & M64
        self._edge_bits = edge_bits
        self._vertex_bits = vertex_bits
        self._present_cache: Optional[np.ndarray] = None
        self._mask_cache: Optional[np.ndarray] = None
        self._plane_cache: Optional[np.ndarray] = None

    # -- single queries ------------------------------------------------

    def _edge_draw(self, idx: int) -> bool:
        return bool((self._edge_bits[idx >> 3] >> (idx & 7)) & 1)

    def vertex_present(self, v: int) -> bool:
        self.shape.check_vertex(v)
        if not self.model.has_site_draws:
            return True
        return bool((self._vertex_bits[v >> 3] >> (v & 7)) & 1)

    def edge_open(self, u: int, v: int) -> bool:
        # edge_index raises ValueError or NotAdjacent when it must
        if not self._edge_draw(edge_index(self.shape, u, v)):
            return False
        return self.vertex_present(u) and self.vertex_present(v)

    # -- bulk views ----------------------------------------------------

    def present_array(self) -> np.ndarray:
        """Boolean presence per vertex (all True for bond)."""
        if self._present_cache is not None:
            return self._present_cache
        nv = self.shape.vertex_count
        if not self.model.has_site_draws:
            out = np.ones(nv, dtype=bool)
        else:
            out = np.unpackbits(self._vertex_bits, count=nv, bitorder="little").astype(bool)
        self._present_cache = out
        return out

    def edge_draw_slice(self, coord: int, first: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Boolean draw outcomes for the edges along one coordinate with
        compressed base ids first .. first + count - 1 (all of them by
        default), indexed from first."""
        half = 1 << (self.shape.n - 1)
        count = half - first if count is None else count
        start = coord * half + first
        lo, hi = start >> 3, (start + count + 7) >> 3
        bits = np.unpackbits(self._edge_bits[lo:hi], bitorder="little")
        skip = start - (lo << 3)
        return bits[skip : skip + count].view(bool)

    def _open_slices(
        self, coords: Optional[range] = None, start: int = 0, size: Optional[int] = None
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Per coordinate c in coords (all by default), c and the open edges
        along c with both ends in the vertex window [start, start + size)
        (the whole cube by default), as a boolean (size / 2^(c+1), 1, 2^c)
        array indexed [i, 0, j] by window-local compressed base id
        i * 2^c + j.  The window vertices viewed as (size / 2^(c+1), 2,
        2^c) hold that edge's two ends at [i, 0, j] and [i, 1, j].

        size is a power of two, at least 2^(c+1) for every c, and start a
        multiple of it, so the window's edges along c are the size / 2
        draws from compressed id start / 2 on: each window reads only its
        own bytes of the packed draw, and presence is ANDed in per window."""
        coords = range(self.shape.n) if coords is None else coords
        size = self.shape.vertex_count if size is None else size
        present = self.present_array()[start : start + size] if self.model.has_site_draws else None
        for c in coords:
            shape3 = (size >> (c + 1), 2, 1 << c)
            open_c = self.edge_draw_slice(c, start >> 1, size >> 1).reshape(shape3[0], 1, shape3[2])
            if present is not None:
                ends = present.reshape(shape3)
                open_c = open_c & ends[:, :1] & ends[:, 1:]
            yield c, open_c

    def open_edge_endpoints(
        self, coords: Optional[range] = None, start: int = 0, size: Optional[int] = None
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per coordinate c in coords, int32 (base, other) vertex arrays of
        the open edges in the window of `_open_slices`, numbered from the
        window's start: base ascending with bit c clear, other = base +
        2^c.  int32 holds every vertex up to the hard cap of n = 30."""
        for c, open_c in self._open_slices(coords, start, size):
            comp = np.flatnonzero(open_c).astype(np.int32)
            base = comp + ((comp >> c) << c)  # a 0 inserted at bit c
            yield base, base + (1 << c)

    def open_neighbor_masks_array(self) -> np.ndarray:
        """uint32 per-vertex masks of open incident edges, cached."""
        if self._mask_cache is None:
            masks = np.zeros(self.shape.vertex_count, dtype=np.uint32)
            for c, open_c in self._open_slices():
                # both ends of each edge at once, through the paired view
                ends = masks.reshape(open_c.shape[0], 2, open_c.shape[2])
                ends |= open_c.astype(np.uint32) << np.uint32(c)
            self._mask_cache = masks
        return self._mask_cache

    def open_bit_planes(self) -> np.ndarray:
        """(n, ceil(nv / 64)) uint64 open-bit planes, cached: bit v of row
        c (packed as in `flip_across`) is set when the edge along c at v
        is open, so the same bit at v ^ 2^c is too.  Bits past nv (n < 6)
        are zero.  n nv / 8 bytes, 48 MiB at n = 24.

        Built from the draw bytes, without the masks: viewed as
        (2^(n-c-1), 2, 2^(c-3)) bytes, both halves of row c >= 3 are the
        packed draw of coordinate c; rows c < 3 spread each draw byte over
        two.  Presence of both ends is ANDed in for site and mixed."""
        if self._plane_cache is None:
            n, nv = self.shape.n, self.shape.vertex_count
            planes = np.zeros((n, -(-nv // 64)), dtype=np.uint64)
            rows = planes.view(np.uint8)
            half = nv >> 1
            for c in range(n):
                if n > 3:
                    draw = self._edge_bits[c * half >> 3 : (c + 1) * half >> 3]
                else:
                    # below n = 4 a coordinate's draws start inside a byte
                    draw = np.packbits(self.edge_draw_slice(c), bitorder="little")
                if c < 3:
                    rows[c, : 2 * len(draw)].view("<u2")[:] = _spread(draw, c)
                else:
                    ends = rows[c, : nv >> 3].reshape(-1, 2, 1 << (c - 3))
                    ends[:] = draw.reshape(-1, 1, 1 << (c - 3))
            if self.model.has_site_draws:
                present = np.zeros_like(planes[0])
                present.view(np.uint8)[: len(self._vertex_bits)] = self._vertex_bits
                for c in range(n):
                    planes[c] &= present & flip_across(present, c)
            self._plane_cache = planes
        return self._plane_cache

    def open_edge_count(self) -> int:
        return sum(int(np.count_nonzero(open_c)) for _, open_c in self._open_slices())

    # -- serialization ---------------------------------------------------

    def serialize(self) -> bytes:
        model = self.model
        head = bytearray()
        head += FORMAT_MAGIC
        head += struct.pack("<H", FORMAT_VERSION)
        head += struct.pack("<B", self.shape.n)
        head += struct.pack("<B", model.tag)
        fields = {
            "bond": (model.bond_threshold,),
            "site": (model.site_threshold,),
            "mixed": (model.bond_threshold, model.site_threshold),
        }[model.kind]
        for t in fields:
            head += struct.pack("<Q", THRESHOLD_SENTINEL if t >= ALWAYS else t)
        head += struct.pack("<Q", self.seed)
        out = bytes(head) + self._edge_bits.tobytes()
        if model.has_site_draws:
            out += self._vertex_bits.tobytes()
        return out


def _draw_bitset(seed: int, offset: int, count: int, threshold: int) -> np.ndarray:
    out = np.empty((count + 7) // 8, dtype=np.uint8)
    step = _CHUNK  # multiple of 8 so chunks pack on byte boundaries
    for s in range(0, count, step):
        e = min(s + step, count)
        idx = np.arange(offset + s, offset + e, dtype=np.uint64)
        bits = draws_below(seed, idx, threshold)
        out[s >> 3 : (e + 7) >> 3] = np.packbits(bits, bitorder="little")
    return out


def sample(
    shape: CubeShape,
    model: PercModel,
    seed: int,
    max_n: int = DEFAULT_DIMENSION_CAP,
) -> PercolationSample:
    """Draw one percolation sample.

    The runtime dimension cap (default 26) guards against accidental
    huge allocations; the hard cap of 30 lives in CubeShape.
    """
    if shape.n > max_n:
        raise DimensionOverCap(f"n={shape.n} exceeds runtime cap {max_n}")
    edge_bits = _draw_bitset(seed, 0, shape.edge_count, model.bond_threshold)
    vertex_bits = None
    if model.has_site_draws:
        off = vertex_draw_offset(shape)
        vertex_bits = _draw_bitset(seed, off, shape.vertex_count, model.site_threshold)
    return PercolationSample(shape, model, seed, edge_bits, vertex_bits)


def deserialize(data: bytes) -> PercolationSample:
    if data[:4] != FORMAT_MAGIC:
        raise BadMagic(f"expected {FORMAT_MAGIC!r}, got {data[:4]!r}")
    if len(data) < 8:
        raise LengthMismatch("truncated header")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported version {version}")
    n = data[6]
    tag = data[7]
    if tag not in (0, 1, 2):
        raise LengthMismatch(f"unknown model tag {tag}")
    shape = CubeShape(n)
    pos = 8
    nfields = 2 if tag == 2 else 1
    if len(data) < pos + 8 * (nfields + 1):
        raise LengthMismatch("truncated thresholds")
    raw = struct.unpack_from(f"<{nfields}Q", data, pos)
    pos += 8 * nfields
    (seed,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    decode = lambda t: ALWAYS if t == THRESHOLD_SENTINEL else t
    if tag == 0:
        model = PercModel("bond", decode(raw[0]), ALWAYS)
    elif tag == 1:
        model = PercModel("site", ALWAYS, decode(raw[0]))
    else:
        model = PercModel("mixed", decode(raw[0]), decode(raw[1]))
    ne_bytes = (shape.edge_count + 7) // 8
    nv_bytes = (shape.vertex_count + 7) // 8 if tag != 0 else 0
    if len(data) != pos + ne_bytes + nv_bytes:
        raise LengthMismatch(
            f"payload is {len(data) - pos} bytes, expected {ne_bytes + nv_bytes}"
        )
    edge_bits = np.frombuffer(data, dtype=np.uint8, count=ne_bytes, offset=pos).copy()
    vertex_bits = None
    if nv_bytes:
        vertex_bits = np.frombuffer(
            data, dtype=np.uint8, count=nv_bytes, offset=pos + ne_bytes
        ).copy()
    return PercolationSample(shape, model, seed, edge_bits, vertex_bits)
