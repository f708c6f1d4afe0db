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
from typing import Optional

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

# draws per chunk of `_draw_bitset`: small enough that its table and
# its reused uint64 buffers (three of 256 KiB) stay in L2 instead of
# streaming through memory; 2^14 and 2^16 were no faster at n = 22
_CHUNK = 1 << 15

# a set of vertices packs into ceil(nv / 64) uint64 words, vertex v at bit
# v % 64 of word v // 64 (padding past nv zero), so the edges along a
# coordinate c < 6 join bits of one word: _IN_WORD[c] holds the bits with
# bit c of their position clear, the lower ends of those edges.  This
# module alone knows the format: `flip_across` moves sets, `close_under`
# closes them over the open edges, `unpack_vertices` unpacks them,
# `vertex_ids` lists them, `vertex_ranker` numbers their vertices and
# `lower_ends` keeps their vertices with bit c clear.
_IN_WORD = np.array([sum(1 << b for b in range(64) if not b >> c & 1) for c in range(6)], dtype=np.uint64)


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


# `close_under` closes a set along the coordinates whose edges stay
# inside aligned windows of this many words one window at a time, so the
# window's words, its temporary and its plane words (1.5 MiB) stay in
# L2: at n = 24, alpha = 0.75, 2^14, 2^15, 2^16 and 2^17 words took
# 243, 209, 191 and 230 ms against 291 ms for whole-array steps
_CLOSE_WORDS = 1 << 16


def _close_along(words: np.ndarray, plane: np.ndarray, tmp: np.ndarray, c: int) -> None:
    """One step of `close_under` along coordinate c, in place; tmp is
    a work array of words' length."""
    if c < 6:
        shift = np.uint64(1 << c)
        np.right_shift(words, shift, out=tmp)
        tmp |= words
        tmp &= plane
        tmp &= _IN_WORD[c]
        words |= tmp
        tmp <<= shift
        words |= tmp
    elif c < 10:
        d = 1 << (c - 6)
        t = tmp[:-d]
        np.bitwise_or(words[:-d], words[d:], out=t)
        t &= plane[:-d]
        tmp.reshape(-1, 2, d)[:, 1] = 0
        words[:-d] |= t
        words[d:] |= t
    else:
        runs = words.reshape(-1, 2, 1 << (c - 6))
        t = tmp[: len(words) // 2].reshape(-1, 1 << (c - 6))
        np.bitwise_or(runs[:, 0], runs[:, 1], out=t)
        t &= plane.reshape(runs.shape)[:, 0]
        runs[:, 0] |= t
        runs[:, 1] |= t


def close_under(words: np.ndarray, planes: np.ndarray) -> int:
    """Grow one packed vertex set (a 1-D array of words) in place to every
    vertex it reaches over the open-bit planes (`open_bit_planes`): the
    union of the open graph's components it touches.  Returns the passes
    taken.

    Plane c holds both ends of every open edge along c, so an edge joins
    the set when either end is in it: t = P_lo & (R_lo | R_hi), then
    R_lo |= t and R_hi |= t close the set along c in one step.  A pass
    takes every coordinate in order, and passes repeat until one adds no
    vertex.  The pairs (R_lo, R_hi) are the halves of runs of 2^(c-6)
    words for c >= 10; two flat slices 2^(c-6) words apart for
    6 <= c < 10, the step's upper runs zeroed (in a 2^16-word window at
    n = 24 the run view of 1 to 8 words took 172 to 842 us per
    coordinate, the slices 123 to 200 us); the bits 2^c apart inside
    each word, under _IN_WORD[c], for c < 6.
    The coordinates whose edges stay inside windows of _CLOSE_WORDS words
    take their steps window by window, which leaves each pass's result
    unchanged."""
    tmp = np.empty_like(words)
    window = min(_CLOSE_WORDS, len(words))
    low = min(len(planes), window.bit_length() + 5)
    size, passes = int(np.bitwise_count(words).sum()), 0
    while True:
        passes += 1
        for start in range(0, len(words), window):
            part = slice(start, start + window)
            for c in range(low):
                _close_along(words[part], planes[c, part], tmp[part], c)
        for c in range(low, len(planes)):
            _close_along(words, planes[c], tmp, c)
        grown = int(np.bitwise_count(words).sum())
        if grown == size:
            return passes
        size = grown


def unpack_vertices(words: np.ndarray, nv: int) -> np.ndarray:
    """Packed vertex sets (the last axis holding one set's words) as one
    uint8 0 or 1 per vertex, the padding past nv dropped."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=nv, bitorder="little")


# the nonzero words `vertex_ids` unpacks at a time, one byte per bit:
# 256 KiB, so the unpacked bits stay in L2
_ID_WORDS = 1 << 12


def vertex_ids(words: np.ndarray) -> np.ndarray:
    """The ascending int64 ids of the vertices in one packed vertex set
    (a 1-D array of words).  Only its nonzero words are unpacked,
    _ID_WORDS of them at a time, so a sparse set over a large cube costs
    about its own size rather than one byte per vertex."""
    nonzero = np.flatnonzero(words)
    parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(nonzero), _ID_WORDS):
        at = nonzero[start : start + _ID_WORDS]
        bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8), bitorder="little").view(bool))
        parts.append(at[bits >> 6] << 6 | bits & 63)
    return np.concatenate(parts)


def vertex_ranker(words: np.ndarray):
    """For one packed vertex set (a 1-D array of words), a function from
    int64 vertices of the set to their int64 indices in its ascending
    list (`vertex_ids`): the popcount of the words before a vertex's
    word, from one prefix sum, plus that of its word's lower bits."""
    counts = np.bitwise_count(words)
    starts = np.cumsum(counts, dtype=np.int64) - counts

    def rank(vertices: np.ndarray) -> np.ndarray:
        word = vertices >> 6
        below = np.left_shift(np.uint64(1), (vertices & 63).astype(np.uint64)) - np.uint64(1)
        below &= words[word]
        return starts[word] + np.bitwise_count(below)

    return rank


def lower_ends(words: np.ndarray, c: int) -> np.ndarray:
    """A copy of one packed vertex set (a 1-D array of words) without
    its vertices whose bit c is set: of open-bit plane c, the lower ends
    of the open edges along c.  A mask inside each word for c < 6; for
    c >= 6 the upper run of each pair of runs of 2^(c-6) words is
    cleared."""
    if c < 6:
        return words & _IN_WORD[c]
    out = words.copy()
    out.reshape(-1, 2, 1 << (c - 6))[:, 1] = 0
    return out


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


# the SplitMix64 finalizer as (shift, mult) steps: z ^= z >> shift, then
# z *= mult, the last step without a multiply
_FINALIZER = ((np.uint64(30), np.uint64(MIX_A)), (np.uint64(27), np.uint64(MIX_B)), (np.uint64(31), None))


def _finalize(z: np.ndarray, tmp: Optional[np.ndarray] = None) -> None:
    """The SplitMix64 finalizer on uint64 z, in place; tmp, a uint64
    array of z's shape, holds the shifts (a fresh one if None)."""
    tmp = np.empty_like(z) if tmp is None else tmp
    for shift, mult in _FINALIZER:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mult is not None:
            z *= mult


def _mix64_array(seed, indices: np.ndarray) -> np.ndarray:
    """mix64 elementwise.  seed is an int or a uint64 array that
    broadcasts against indices (a column of seeds gives a grid)."""
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(seed & M64)
    # the broadcasting xor allocates the result; the rest works in place
    z = (indices.astype(np.uint64, copy=False) * np.uint64(GOLDEN)) ^ seed
    _finalize(z)
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

    def edge_draw_slice(self, coord: int) -> np.ndarray:
        """Boolean draw outcomes for the edges along one coordinate,
        indexed by compressed base id: the packed draw unpacked, which
        `open_bit_planes` needs only below n = 4, where a coordinate's
        draws start inside a byte."""
        half = 1 << (self.shape.n - 1)
        start = coord * half
        bits = np.unpackbits(self._edge_bits[start >> 3 : (start + half + 7) >> 3], bitorder="little")
        return bits[start & 7 : (start & 7) + half].view(bool)

    def open_neighbor_masks_array(self) -> np.ndarray:
        """uint32 per-vertex masks of open incident edges, bit c from row c
        of the open-bit planes, cached."""
        if self._mask_cache is None:
            nv = self.shape.vertex_count
            masks = np.zeros(nv, dtype=np.uint32)
            for c, plane in enumerate(self.open_bit_planes()):
                masks |= np.left_shift(unpack_vertices(plane, nv), c, dtype=np.uint32)
            self._mask_cache = masks
        return self._mask_cache

    def open_bit_planes(self, cache: bool = True) -> np.ndarray:
        """(n, ceil(nv / 64)) uint64 open-bit planes, cached: bit v of row
        c (packed as in `flip_across`) is set when the edge along c at v
        is open, so the same bit at v ^ 2^c is too.  Bits past nv (n < 6)
        are zero.  n nv / 8 bytes, 48 MiB at n = 24.  With cache=False a
        sample that has none cached builds a copy and does not keep it.

        Built from the draw bytes, without the masks: viewed as
        (2^(n-c-1), 2, 2^(c-3)) bytes, both halves of row c >= 3 are the
        packed draw of coordinate c; rows c < 3 spread each draw byte over
        two.  Presence of both ends is ANDed in for site and mixed."""
        if self._plane_cache is not None:
            return self._plane_cache
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
        if cache:
            self._plane_cache = planes
        return planes

    def open_edge_count(self) -> int:
        # an open edge sets its bit at both ends
        return int(np.bitwise_count(self.open_bit_planes(cache=False)).sum()) // 2

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
    """The packed draws offset .. offset + count - 1 against threshold,
    _CHUNK at a time.  The scrambled index (offset + s + i) GOLDEN of draw
    i of the chunk at s is table[i] + s GOLDEN mod 2^64, table holding the
    first chunk's, so the chunks share one table, and the finalizer and
    the compare run in buffers allocated once."""
    out = np.empty((count + 7) // 8, dtype=np.uint8)
    if threshold >= ALWAYS or threshold <= 0:
        # p = 1 or p = 0: every draw succeeds, or none does; the padding
        # bits past count stay clear
        out.fill(0xFF if threshold > 0 else 0)
        out[-1:] &= 0xFF >> (-count & 7)
        return out
    table = np.arange(offset, offset + min(_CHUNK, count), dtype=np.uint64) * np.uint64(GOLDEN)
    z, tmp = np.empty_like(table), np.empty_like(table)
    bits = np.empty(len(table), dtype=bool)
    seed, threshold = np.uint64(seed & M64), np.uint64(threshold)
    # _CHUNK is a multiple of 8, so chunks pack on byte boundaries
    for s in range(0, count, _CHUNK):
        if count - s < len(table):
            table, z, tmp, bits = (a[: count - s] for a in (table, z, tmp, bits))
        np.add(table, np.uint64(s * GOLDEN & M64), out=z)
        z ^= seed
        _finalize(z, tmp)
        np.less(z, threshold, out=bits)
        out[s >> 3 : (s + len(bits) + 7) >> 3] = np.packbits(bits, bitorder="little")
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
