"""Corpus shingle-frequency statistics job (the FrequencyCounts
*generation* path, SURVEY.md A5/S6) + CountMin sketch (A3).

The reference consumes a precomputed k-mer frequency TSV (-f,
sketch/FrequencyCounts.java:63-229); generating one from the corpus is
exactly a flat_map(shingles) -> groupby(hash).count() -> filter(freq >=
cutoff) pass whose (small) result is put in the object store and read
once per sketch worker process.

At 10^12-document scale the exact groupby becomes the job's biggest
shuffle; CountMin (sketch/CountMin.java:42-112) is the approximate
alternative: per-block partial sketches merged by elementwise addition
(a tree-reduce over numpy arrays), with width sized from (eps, delta).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.config import MhapConfig
from mhray.rayutil import exchange


def shingle_freq_table(ds, cfg: MhapConfig, text_col: str = "caption",
                       min_count: int = 2):
    """Exact document-frequency table: (shingle_hash, doc_freq) where
    doc_freq is the fraction of all shingle OCCURRENCES (matching the
    reference's 'fraction of total' file format,
    docs/source/quickstart.rst:25-33). Only hashes above ``min_count``
    survive (the table must stay broadcastable)."""
    from mhray.kernels import shingle_hashes64

    def explode(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        h, _ = shingle_hashes64(texts, cfg.kmer_size)
        # per-batch partial count (combiner before the shuffle)
        uk, uc = np.unique(h, return_counts=True)
        return pa.table({
            "shingle_hash": pa.array(uk.view(np.int64), pa.int64()),
            "n": pa.array(uc, pa.int64()),
        })

    counts = ds.map_batches(explode, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .groupby("shingle_hash").sum("n") \
        .rename_columns({"sum(n)": "n"}).materialize()
    total = counts.sum("n") or 1
    kept = counts.filter(expr=f"n >= {min_count}")

    def to_freq(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n"), dtype=np.float64)
        h = np.asarray(batch.column("shingle_hash"), dtype=np.int64)
        return pa.table({
            "shingle_hash": pa.array(h.view(np.uint64), pa.uint64()),
            "doc_freq": pa.array(n / total, pa.float64()),
        })

    return kept.map_batches(to_freq, batch_format="pyarrow",
                            zero_copy_batch=True)


# ---------------------------------------------------------------------------
# CountMin sketch (approximate counting at scale) — sketch/CountMin.java
# ---------------------------------------------------------------------------

class CountMin:
    """depth x width counter grid; add = increment one cell per row,
    query = min over rows (CountMin.java:71-112). Sized from (eps,
    delta): width = ceil(e/eps), depth = ceil(ln(1/delta)) (:42-68)."""

    def __init__(self, eps: float = 1e-5, delta: float = 1e-3,
                 seed: int = 11, grid: np.ndarray | None = None):
        if grid is not None:
            # dimensions come from the grid itself — round-tripping
            # them through (eps, delta) floats can reconstruct
            # width+1 (ceil of an inexact division), leaving
            # self.width disagreeing with the grid shape: queries
            # then hash with the wrong modulus or IndexError
            self.depth, self.width = grid.shape
            self.grid = grid
        else:
            self.width = int(np.ceil(np.e / eps))
            self.depth = int(np.ceil(np.log(1.0 / delta)))
            self.grid = np.zeros((self.depth, self.width), dtype=np.int64)
        self.seed = seed

    def _cols(self, keys: np.ndarray) -> np.ndarray:
        x = keys.view(np.uint64)[None, :].repeat(self.depth, axis=0)
        salts = (np.arange(self.depth, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15) + np.uint64(self.seed))[:, None]
        x = x ^ salts
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        return (x % np.uint64(self.width)).astype(np.int64)

    def add(self, keys: np.ndarray, counts: np.ndarray | None = None):
        cols = self._cols(keys)
        c = counts if counts is not None else np.ones(len(keys), np.int64)
        for d in range(self.depth):
            np.add.at(self.grid[d], cols[d], c)

    def query(self, keys: np.ndarray) -> np.ndarray:
        cols = self._cols(keys)
        est = self.grid[0][cols[0]]
        for d in range(1, self.depth):
            est = np.minimum(est, self.grid[d][cols[d]])
        return est

    def merge(self, other: "CountMin") -> "CountMin":
        if self.grid.shape != other.grid.shape or self.seed != other.seed:
            raise ValueError("CountMin merge requires identical shape/seed")
        return CountMin(grid=self.grid + other.grid, seed=self.seed)


# ---------------------------------------------------------------------------
# HyperLogLog (approximate distinct count at scale) — the mergeable
# companion to CountMin for 10^12-row cardinality stats: per-block
# 2^p-byte register sketches, merged by elementwise max.
# ---------------------------------------------------------------------------

class HyperLogLog:
    """Standard HLL: p index bits -> m=2^p uint8 registers holding the
    max leading-zero rank of the remaining 64-p hash bits; estimate =
    alpha_m * m^2 / sum(2^-reg) with the small-range linear-counting
    correction. Relative error ~ 1.04/sqrt(m)."""

    def __init__(self, p: int = 14, reg: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError("p must be in [4, 18]")
        self.p = p
        self.m = 1 << p
        self.reg = reg if reg is not None else np.zeros(self.m, np.uint8)

    @staticmethod
    def _mix(keys: np.ndarray) -> np.ndarray:
        """splitmix64 finalizer: whatever int column arrives becomes a
        uniform 64-bit hash (sequential ids would otherwise collapse
        into few registers)."""
        x = keys.astype(np.int64).view(np.uint64).copy()
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return x

    def add(self, keys: np.ndarray) -> None:
        h = self._mix(keys)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        w = h << np.uint64(self.p)  # suffix in the high bits
        # vectorized count-leading-zeros of w
        z = np.zeros(len(w), np.uint8)
        cur = w.copy()
        for s in (32, 16, 8, 4, 2, 1):
            mask = cur < (np.uint64(1) << np.uint64(64 - s))
            z[mask] += s
            cur[mask] <<= np.uint64(s)
        rank = np.minimum(z, 64 - self.p).astype(np.uint8) + 1
        np.maximum.at(self.reg, idx, rank)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        return HyperLogLog(self.p, np.maximum(self.reg, other.reg))

    def estimate(self) -> float:
        m = float(self.m)
        # the asymptotic alpha only holds for m >= 128; the original
        # paper pins the small-m constants explicitly (p = 4/5/6)
        alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(
            self.m, 0.7213 / (1.0 + 1.079 / m))
        e = alpha * m * m / np.sum(np.exp2(-self.reg.astype(np.float64)))
        zeros = int(np.count_nonzero(self.reg == 0))
        if e <= 2.5 * m and zeros > 0:
            e = m * np.log(m / zeros)  # linear counting
        return float(e)


def hll_distinct(ds, col: str, p: int = 14) -> int:
    """Distributed approximate COUNT(DISTINCT col): one streaming pass
    emitting a 2^p-byte register sketch per block, merged by
    elementwise max (order-independent, exactly mergeable — the
    all-to-all a precise distinct count needs never happens)."""

    def partial(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        keys = np.asarray(batch.column(col))
        if len(keys):
            h.add(keys)
        return pa.table({"reg": pa.array([h.reg.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    merged = HyperLogLog(p)
    for r in parts:
        merged.reg = np.maximum(merged.reg,
                                np.frombuffer(r["reg"], np.uint8))
    return int(round(merged.estimate()))


def countmin_shingle_counts(ds, cfg: MhapConfig, text_col: str = "caption",
                            eps: float = 1e-4, delta: float = 1e-2):
    """Distributed CountMin of corpus shingles: per-block partial
    sketches, merged by elementwise addition on the driver (a
    tree-merge at real scale). Returns the merged CountMin."""
    from mhray.kernels import shingle_hashes64

    def partial(batch: pa.Table) -> pa.Table:
        cm = CountMin(eps=eps, delta=delta)
        h, _ = shingle_hashes64(batch.column(text_col).to_pylist(),
                                cfg.kmer_size)
        if len(h):
            cm.add(h)
        return pa.table({"grid": pa.array([cm.grid.tobytes()], pa.binary()),
                         "depth": pa.array([cm.depth], pa.int32()),
                         "width": pa.array([cm.width], pa.int32())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    merged = CountMin(eps=eps, delta=delta)
    for p in parts:
        grid = np.frombuffer(p["grid"], dtype=np.int64).reshape(
            p["depth"], p["width"])
        merged.grid += grid
    return merged


# ---------------------------------------------------------------------------
# mergeable quantile summary (the sketch-family companion for
# percentiles: CountMin = frequencies, HLL = distincts, this = ranks)
# ---------------------------------------------------------------------------


def _weighted_summary(v: np.ndarray, w: np.ndarray, s: int):
    """Compress a weighted sorted sample to <= s evenly-weight-spaced
    points (equi-depth): point j sits at cumulative weight
    (j + 0.5) / s of the total."""
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    total = w.sum()
    if len(v) <= s:
        return v, w
    cum = np.cumsum(w) - 0.5 * w  # midpoint mass of each sample
    targets = (np.arange(s) + 0.5) * (total / s)
    idx = np.clip(np.searchsorted(cum, targets), 0, len(v) - 1)
    return v[idx], np.full(s, total / s)


def approx_percentiles(ds, col: str, qs=(0.25, 0.5, 0.75),
                       samples_per_block: int = 256,
                       num_parts: int = 8) -> dict[float, float]:
    """Distributed approximate percentiles via a MERGEABLE equi-depth
    summary — the scale path when an exact global sort per metric is
    too expensive: each block compresses to <= samples_per_block
    weighted points (one streaming pass, no shuffle of raw values), a
    hash-partitioned second level re-compresses, and the driver sees
    only num_parts x samples_per_block points. Rank error per level is
    <= 1/samples_per_block of the mass, so quantiles land within
    ~2/samples_per_block of exact.
    """
    import pyarrow as pa

    from mhray.stages.candidates import _part_of

    def summarize(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(col), np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return pa.table({"v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.float64()),
                             "part": pa.array([], pa.int32())})
        sv, sw = _weighted_summary(v, np.ones(len(v)), samples_per_block)
        part = _part_of(np.arange(len(sv)), num_parts)
        return pa.table({"v": pa.array(sv, pa.float64()),
                         "w": pa.array(sw, pa.float64()),
                         "part": pa.array(part, pa.int32())})

    def remerge(part: pa.Table) -> pa.Table:
        v = np.asarray(part.column("v"), np.float64)
        w = np.asarray(part.column("w"), np.float64)
        sv, sw = _weighted_summary(v, w, samples_per_block)
        return pa.table({"v": pa.array(sv, pa.float64()),
                         "w": pa.array(sw, pa.float64())})

    rows = exchange(ds.map_batches(summarize, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "part", num_parts, remerge).take_all()
    if not rows:
        return {float(q): float("nan") for q in qs}
    v = np.array([r["v"] for r in rows])
    w = np.array([r["w"] for r in rows])
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w) - 0.5 * w
    total = w.sum()
    out = {}
    for q in qs:
        i = int(np.clip(np.searchsorted(cum, q * total), 0, len(v) - 1))
        out[float(q)] = float(v[i])
    return out


def sample_percentiles(ds, col: str, key_col: str,
                       qs=(0.25, 0.5, 0.75), k: int = 4096,
                       num_parts: int = 8) -> dict[float, float]:
    """Distributed approximate percentiles via a DETERMINISTIC
    bottom-k-by-hash sample — the partitioning-independent sibling of
    :func:`approx_percentiles`. The sample is the k rows whose
    splitmix64(key) is globally smallest; bottom-k is mergeable under
    union (min-k of min-ks), so per-block partials shrink to <= k rows
    each, one narrow hash shuffle re-compresses per partition, and the
    driver merges num_parts x k (h, v) pairs. Because membership
    depends only on the hash of a per-row key — never on block
    boundaries — the result is bit-identical across any block layout
    or parallelism level, unlike the equi-depth summary. Rank error is
    the uniform-sampling bound ~sqrt(q(1-q)/k) (~0.8% at k=4096).

    ``key_col`` is an int64 row key; splitmix64 is a bijection, so
    distinct keys never tie, and rows sharing a key (the selection
    orders by (hash, value)) can only trade places with an EQUAL
    value at the boundary — the sampled value multiset is therefore
    layout-independent even with duplicate keys. Quantile q maps to
    the ceil(q*n)-th smallest sampled value (1-based, clipped) —
    exactly SQL's ``ORDER BY h, v LIMIT k`` then
    ``ORDER BY v LIMIT 1 OFFSET ceil(q*n)-1`` on the same sample.
    """
    import math

    import pyarrow as pa

    def bottom_k(h: np.ndarray, v: np.ndarray):
        if len(h) > k:
            sel = np.lexsort((v, h))[:k]
            h, v = h[sel], v[sel]
        return h, v

    def partial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(col), np.float64)
        key = np.asarray(batch.column(key_col), np.int64)
        ok = ~np.isnan(v)
        v, key = v[ok], key[ok]
        h, v = bottom_k(HyperLogLog._mix(key), v)
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "v": pa.array(v, pa.float64()),
            "part": pa.array((h % np.uint64(num_parts)).astype(np.int32),
                             pa.int32()),
        })

    def remerge(part: pa.Table) -> pa.Table:
        h = np.asarray(part.column("h"), np.uint64)
        v = np.asarray(part.column("v"), np.float64)
        h, v = bottom_k(h, v)
        return pa.table({"h": pa.array(h, pa.uint64()),
                         "v": pa.array(v, pa.float64())})

    rows = exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "part", num_parts, remerge).take_all()
    if not rows:
        return {float(q): float("nan") for q in qs}
    h = np.array([r["h"] for r in rows], np.uint64)
    v = np.array([r["v"] for r in rows], np.float64)
    _, v = bottom_k(h, v)
    v = np.sort(v)
    n = len(v)
    return {float(q): float(v[min(max(math.ceil(q * n), 1), n) - 1])
            for q in qs}


# ---------------------------------------------------------------------------
# mergeable Bloom filter (seen-set membership: the ingestion-time
# exact-dedup pre-filter — "drop records whose key the corpus already
# holds" without shuffling the corpus)
# ---------------------------------------------------------------------------


class BloomFilter:
    """Standard k-hash Bloom filter over int64 keys, bit array backed
    by numpy. Mergeable by OR (same size/k), so per-block filters
    stream into one corpus filter — the membership analog of the HLL
    register merge. False-positive rate ~ (1 - e^(-k n / m))^k."""

    def __init__(self, n_bits: int = 1 << 20, k: int = 5,
                 bits: np.ndarray | None = None):
        assert n_bits % 8 == 0
        self.n_bits = n_bits
        self.k = k
        self.bits = bits if bits is not None \
            else np.zeros(n_bits // 8, np.uint8)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), k) bit positions via double hashing
        (h1 + i*h2 — Kirsch-Mitzenmacher)."""
        x = keys.astype(np.uint64)
        x1 = x * np.uint64(0x9E3779B97F4A7C15)
        x1 ^= x1 >> np.uint64(32)
        x2 = x * np.uint64(0xC2B2AE3D27D4EB4F) + np.uint64(1)
        x2 ^= x2 >> np.uint64(29)
        i = np.arange(self.k, dtype=np.uint64)
        return ((x1[:, None] + i * (x2[:, None] | np.uint64(1)))
                % np.uint64(self.n_bits)).astype(np.int64)

    def add(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        pos = self._positions(np.asarray(keys, np.int64)).ravel()
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.uint8(1) << (pos & 7).astype(np.uint8))

    def contains(self, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(np.asarray(keys, np.int64))
        hit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return hit.all(axis=1)

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert self.n_bits == other.n_bits and self.k == other.k
        self.bits |= other.bits
        return self


def bloom_build(ds, col: str, n_bits: int = 1 << 20, k: int = 5):
    """One streaming pass: per-block Bloom filters merged by OR into a
    corpus seen-set (driver holds only n_bits/8 bytes x blocks peak,
    one filter at a time after the take)."""

    def partial(batch: pa.Table) -> pa.Table:
        b = BloomFilter(n_bits, k)
        keys = np.asarray(batch.column(col), np.int64)
        b.add(keys)
        return pa.table({"bits": pa.array([b.bits.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    out = BloomFilter(n_bits, k)
    for p in parts:
        out.bits |= np.frombuffer(p["bits"], np.uint8)
    return out


def bloom_filter_new(ds, bloom: "BloomFilter", col: str):
    """Drop rows whose ``col`` the Bloom seen-set (probably) contains —
    the ingestion-time pre-filter: no false negatives, so every truly
    new key survives; a tunable sliver of new keys is lost to false
    positives (bound it with n_bits). The filter broadcasts once via
    ray.put; batches test membership vectorized."""
    import ray

    ref = ray.put((bloom.n_bits, bloom.k, bloom.bits))

    def drop_seen(batch: pa.Table) -> pa.Table:
        n_bits, k, bits = ray.get(ref)
        b = BloomFilter(n_bits, k, bits=bits)
        keys = np.asarray(batch.column(col), np.int64)
        return batch.filter(pa.array(~b.contains(keys)))

    return ds.map_batches(drop_seen, batch_format="pyarrow",
                          zero_copy_batch=True)
