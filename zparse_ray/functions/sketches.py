"""Mergeable sketches for distributed stats (north rule D3-D5).

All three sketches follow the same contract the engine's aggregation
layer relies on: build per block inside ``map_batches`` (cheap,
vectorized), serialize to bytes, merge anywhere (driver or a tiny
``groupby`` stage) — merge is associative+commutative so tree-reduce
order never changes results.

- TDigest: simplified merging t-digest (Dunning & Ertl) over float64
  arrays; quantile/cdf queries for KS-style drift checks.
- HyperLogLog: dense 2^p registers, numpy-vectorized adds via stable
  64-bit hashing; standard bias-corrected estimate.
- BloomFilter: bit-array filter used by the uniqueness fast-path
  actor shards.

Public knowledge only: t-digest per Dunning/Ertl (arXiv:1902.04023),
HLL per Flajolet et al. 2007.
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# stable vectorized 64-bit hashing (splitmix64 finalizer over FNV-ish seed)

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def hash64(arr: np.ndarray, seed: int = 0) -> np.ndarray:
    """Stable 64-bit hash of a numpy array of (byte)strings or ints."""
    if arr.dtype.kind in ("i", "u"):
        h = arr.astype(np.uint64, copy=True)
    else:
        # string path: pandas' cython siphash-based hasher (stable across
        # processes for a fixed hash_key, which defaults to a constant)
        import pandas as pd

        h = pd.util.hash_array(np.asarray(arr, dtype=object)).astype(np.uint64)
    with np.errstate(over="ignore"):
        h = np.bitwise_xor(h, np.uint64((seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF))
        h ^= h >> np.uint64(30)
        h *= _M1
        h ^= h >> np.uint64(27)
        h *= _M2
        h ^= h >> np.uint64(31)
    return h


# ---------------------------------------------------------------------------
# t-digest


class TDigest:
    """Merging t-digest with k1-style size bound (delta=compression)."""

    __slots__ = ("compression", "means", "weights")

    def __init__(self, compression: int = 200, means=None, weights=None):
        self.compression = compression
        self.means = np.array([] if means is None else means, dtype=np.float64)
        self.weights = np.array([] if weights is None else weights, dtype=np.float64)

    def add(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[np.isfinite(v)]
        if len(v) == 0:
            return
        self.means = np.concatenate([self.means, v])
        self.weights = np.concatenate([self.weights, np.ones(len(v))])
        if len(self.means) > 8 * self.compression:
            self._compress()

    def merge(self, other: "TDigest") -> "TDigest":
        out = TDigest(self.compression)
        out.means = np.concatenate([self.means, other.means])
        out.weights = np.concatenate([self.weights, other.weights])
        out._compress()
        return out

    def _compress(self) -> None:
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        means, weights = self.means[order], self.weights[order]
        total = weights.sum()
        # target cluster count ~= compression; scale function k0 (uniform in q)
        limit = float(total / self.compression)
        if (weights == 1.0).all():
            self.means, self.weights = _unit_clusters(means, max(1, int(limit)))
            return
        # greedy merge over Python floats (the same IEEE ops as numpy
        # scalars, at a fraction of the per-element cost)
        ms, ws = means.tolist(), weights.tolist()
        new_m: list[float] = []
        new_w: list[float] = []
        cur_m, cur_w = ms[0], ws[0]
        for m, w in zip(ms[1:], ws[1:]):
            if cur_w + w <= limit:
                cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
                cur_w += w
            else:
                new_m.append(cur_m)
                new_w.append(cur_w)
                cur_m, cur_w = m, w
        new_m.append(cur_m)
        new_w.append(cur_w)
        self.means = np.array(new_m)
        self.weights = np.array(new_w)

    @property
    def count(self) -> float:
        return float(self.weights.sum())

    def quantile(self, q: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        self._compress()
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))

    def cdf(self, x: float) -> float:
        if len(self.means) == 0:
            return float("nan")
        self._compress()
        cum = np.cumsum(self.weights) - self.weights / 2
        return float(np.interp(x, self.means, cum / self.weights.sum()))

    def to_bytes(self) -> bytes:
        self._compress()
        return struct.pack("<iq", self.compression, len(self.means)) + (
            self.means.tobytes() + self.weights.tobytes()
        )

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        comp, n = struct.unpack_from("<iq", b, 0)
        off = struct.calcsize("<iq")
        means = np.frombuffer(b, dtype=np.float64, count=n, offset=off)
        weights = np.frombuffer(b, dtype=np.float64, count=n, offset=off + 8 * n)
        return cls(comp, means.copy(), weights.copy())


def _unit_clusters(means: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The greedy merge of ``TDigest._compress`` for sorted ``means`` that
    all weigh 1: each cluster is a run of ``k`` values (the last one may be
    shorter), and its mean is the loop's running mean ``(cur*j + x)/(j+1)``
    computed column by column over every cluster at once, so the bytes
    are the loop's."""
    n_full, r = divmod(len(means), k)
    blocks = [means[: n_full * k].reshape(n_full, k)]
    if r:
        blocks.append(means[n_full * k :].reshape(1, r))
    out_m = []
    for b in blocks:
        cur = b[:, 0]
        for j in range(1, b.shape[1]):
            cur = (cur * j + b[:, j]) / (j + 1)
        out_m.append(cur)
    out_w = np.full(n_full + (r > 0), float(k))
    if r:
        out_w[-1] = r
    return np.concatenate(out_m), out_w


# ---------------------------------------------------------------------------
# HyperLogLog


class HyperLogLog:
    """Dense HLL, p bits of bucket index (2^p registers)."""

    __slots__ = ("p", "registers")

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        self.p = p
        self.registers = (
            registers if registers is not None else np.zeros(1 << p, dtype=np.uint8)
        )

    def add_hashes(self, h: np.ndarray) -> None:
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1 << (self.p - 1))
        # rank = leading zeros of rest + 1, capped at 64-p+1
        lz = np.zeros(len(h), dtype=np.uint8)
        x = rest.copy()
        # count leading zeros via float log2 trick is lossy; do 6-step binary
        for shift in (32, 16, 8, 4, 2, 1):
            mask = x < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            x[mask] = x[mask] << np.uint64(shift)
        rank = lz + 1
        np.maximum.at(self.registers, idx, rank)

    def add(self, values: np.ndarray, seed: int = 0) -> None:
        self.add_hashes(hash64(values, seed))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        return HyperLogLog(self.p, np.maximum(self.registers, other.registers))

    def estimate(self) -> float:
        m = float(len(self.registers))
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        zeros = int(np.count_nonzero(self.registers == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return struct.pack("<i", self.p) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        (p,) = struct.unpack_from("<i", b, 0)
        regs = np.frombuffer(b, dtype=np.uint8, offset=4).copy()
        return cls(p, regs)


# ---------------------------------------------------------------------------
# Bloom filter


class BloomFilter:
    """Bit-array Bloom filter; k hash functions derived from two 64-bit
    hashes (Kirsch-Mitzenmacher)."""

    __slots__ = ("n_bits", "k", "bits")

    def __init__(self, n_bits: int, k: int = 7, bits: np.ndarray | None = None):
        self.n_bits = n_bits
        self.k = k
        self.bits = bits if bits is not None else np.zeros((n_bits + 63) // 64, dtype=np.uint64)

    @classmethod
    def for_capacity(cls, n: int, fpr: float = 0.01) -> "BloomFilter":
        import math

        n_bits = max(64, int(-n * math.log(fpr) / (math.log(2) ** 2)))
        k = max(1, round(n_bits / max(1, n) * math.log(2)))
        return cls(n_bits, min(k, 16))

    def _positions(self, values: np.ndarray) -> np.ndarray:
        h1 = hash64(values, 1)
        h2 = hash64(values, 2) | np.uint64(1)
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return ((h1[None, :] + ks * h2[None, :]) % np.uint64(self.n_bits)).astype(np.int64)

    def add(self, values: np.ndarray) -> None:
        pos = self._positions(values).ravel()
        np.bitwise_or.at(self.bits, pos >> 6, np.uint64(1) << (pos.astype(np.uint64) & np.uint64(63)))

    def contains(self, values: np.ndarray) -> np.ndarray:
        pos = self._positions(values)
        word = self.bits[pos >> 6]
        bit = (word >> (pos.astype(np.uint64) & np.uint64(63))) & np.uint64(1)
        return bit.all(axis=0).astype(bool)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        return BloomFilter(self.n_bits, self.k, np.bitwise_or(self.bits, other.bits))

    def to_bytes(self) -> bytes:
        return struct.pack("<qi", self.n_bits, self.k) + self.bits.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "BloomFilter":
        n_bits, k = struct.unpack_from("<qi", b, 0)
        bits = np.frombuffer(b, dtype=np.uint64, offset=struct.calcsize("<qi")).copy()
        return cls(n_bits, k, bits)


# ---------------------------------------------------------------------------
# Count-Min sketch (heavy hitters at 10^12-token scale)


class CountMinSketch:
    """Count-Min sketch: ``depth`` rows of ``width`` counters; insert
    adds each item's count at one hashed slot per row, estimate takes
    the row-wise MIN (always >= the true count). Mergeable by counter
    addition — the partial/merge shape every sketch here follows. The
    exact ``top_tokens`` query is its checkable counterpart; this is
    the scale path when the distinct-token set itself cannot shuffle."""

    __slots__ = ("depth", "width", "counts")

    def __init__(self, width: int = 4096, depth: int = 4, counts: np.ndarray | None = None):
        self.width = width
        self.depth = depth
        self.counts = (
            counts if counts is not None else np.zeros((depth, width), dtype=np.int64)
        )

    def add(self, items: np.ndarray, weights: np.ndarray | None = None) -> None:
        if not len(items):
            return
        w = weights if weights is not None else np.ones(len(items), dtype=np.int64)
        for d in range(self.depth):
            idx = (hash64(items, seed=d + 1) % np.uint64(self.width)).astype(np.int64)
            np.add.at(self.counts[d], idx, w)

    def estimate(self, items: np.ndarray) -> np.ndarray:
        if not len(items):
            return np.zeros(0, dtype=np.int64)
        est = np.full(len(items), np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(self.depth):
            idx = (hash64(items, seed=d + 1) % np.uint64(self.width)).astype(np.int64)
            est = np.minimum(est, self.counts[d][idx])
        return est

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        assert (self.width, self.depth) == (other.width, other.depth)
        return CountMinSketch(self.width, self.depth, self.counts + other.counts)

    @property
    def total(self) -> int:
        """Total inserted weight (every depth row sums to it — each add
        lands each item's weight in exactly one cell per row)."""
        return int(self.counts[0].sum())

    def to_bytes(self) -> bytes:
        import struct

        return struct.pack("<II", self.depth, self.width) + self.counts.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "CountMinSketch":
        import struct

        depth, width = struct.unpack("<II", b[:8])
        counts = np.frombuffer(b[8:], dtype=np.int64).reshape(depth, width).copy()
        return cls(width, depth, counts)
