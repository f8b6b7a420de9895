"""Shingle document-frequency statistics (FrequencyCounts analog).

Reimplements sketch/FrequencyCounts.java as a small immutable numpy
lookup table — sorted hash keys + frequency ratios — suitable for
``ray.put`` once and one zero-copy read per sketch worker process
(vs. the reference's single-JVM shared map, FrequencyCounts.java:48-61).

Weighting semantics (FrequencyCounts.java:230-319):
- documentFrequencyRatio(h) = freq if present else minValue(=cutoff)
- idf(freq) = log(maxValue/freq - offset)
- scaledIdf(h) = range if absent; else 1 + (idf - minIdf) / scale,
  scale = (maxIdf - minIdf) / (range - 1)
- tfWeight(count) = count (or 1 when noTf)
and the tf-idf weight used by the sketcher is
round(tf * scaledIdf) clamped to >= 1 (MinHashSketch.java:109-124).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class FreqTable:
    """Immutable df-ratio lookup over uint64 shingle hashes."""

    def __init__(self, hashes: np.ndarray, freqs: np.ndarray,
                 filter_cutoff: float = 1.0e-5, offset: float = 0.0,
                 idf_range: float = 3.0, no_tf: bool = False,
                 remove_unique: int = 0):
        order = np.argsort(hashes.view(np.uint64))
        self.hashes = hashes.view(np.uint64)[order]
        self.freqs = np.asarray(freqs, dtype=np.float64)[order]
        # only entries >= cutoff participate (FrequencyCounts.java:175-185)
        keepable = self.freqs >= filter_cutoff
        self._all_hashes = self.hashes  # bloom-filter analog (keepKmer)
        self.hashes = self.hashes[keepable]
        self.freqs = self.freqs[keepable]
        self.filter_cutoff = filter_cutoff
        self.offset = offset
        self.idf_range = idf_range
        self.no_tf = no_tf
        self.remove_unique = remove_unique
        self.max_value = float(self.freqs.max()) if len(self.freqs) else float("-inf")
        self.min_value = filter_cutoff
        if len(self.freqs):
            self.min_idf = self._idf_scalar(self.max_value)
            self.max_idf = self._idf_scalar(self.min_value)
        else:
            self.min_idf = self.max_idf = 0.0

    # -- construction -----------------------------------------------------
    @classmethod
    def empty(cls, **kw) -> "FreqTable":
        return cls(np.empty(0, np.uint64), np.empty(0, np.float64), **kw)

    @classmethod
    def from_arrow(cls, table: pa.Table, **kw) -> "FreqTable":
        return cls(
            np.asarray(table.column("shingle_hash"), dtype=np.uint64),
            np.asarray(table.column("doc_freq"), dtype=np.float64),
            **kw,
        )

    def to_arrow(self) -> pa.Table:
        return pa.table({
            "shingle_hash": pa.array(self.hashes, type=pa.uint64()),
            "doc_freq": pa.array(self.freqs, type=pa.float64()),
        })

    @classmethod
    def from_tsv(cls, path: str, **kw) -> "FreqTable":
        """Parse the reference's k-mer filter file format: first line =
        '<bloomSize> <repeatSize>', then 'kmer<TAB>fraction' lines
        (docs/source/quickstart.rst:25-33). Kmers are hashed with the
        same murmur3_128 as the sketcher (FrequencyCounts.java:169)."""
        from mhray.kernels import shingle_hashes64

        kmers, freqs = [], []
        with open(path) as f:
            f.readline()  # size line
            for line in f:
                parts = line.split()
                if len(parts) >= 2:
                    kmers.append(parts[0])
                    freqs.append(float(parts[1]))
        if not kmers:
            return cls.empty(**kw)
        # batch the hash kernel per k-mer LENGTH group (one kernel
        # call per distinct length, not one per line — filter files
        # are millions of lines)
        freqs_arr = np.asarray(freqs)
        lens = np.fromiter((len(k) for k in kmers), np.int64, len(kmers))
        hashes = np.empty(len(kmers), np.uint64)
        for L in np.unique(lens):
            idx = np.flatnonzero(lens == L)
            hashes[idx] = shingle_hashes64([kmers[i] for i in idx],
                                           int(L))[0]
        return cls(hashes, freqs_arr, **kw)

    # -- lookups (vectorized) --------------------------------------------
    def _idf_scalar(self, freq: float) -> float:
        return float(np.log(self.max_value / freq - self.offset))

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(found_mask, freq_or_nan) for uint64 keys."""
        k = keys.view(np.uint64)
        if len(self.hashes) == 0:
            return np.zeros(len(k), bool), np.full(len(k), np.nan)
        pos = np.searchsorted(self.hashes, k)
        pos_c = np.minimum(pos, len(self.hashes) - 1)
        found = self.hashes[pos_c] == k
        freqs = np.where(found, self.freqs[pos_c], np.nan)
        return found, freqs

    def keep_kmer(self, keys: np.ndarray) -> np.ndarray:
        """FrequencyCounts.keepKmer (:270-276): with remove_unique==1 only
        kmers present in the filter file survive."""
        if self.remove_unique != 1:
            return np.ones(len(keys), dtype=bool)
        k = keys.view(np.uint64)
        if len(self._all_hashes) == 0:
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self._all_hashes, k), len(self._all_hashes) - 1)
        return self._all_hashes[pos] == k

    def scaled_idf(self, keys: np.ndarray) -> np.ndarray:
        """FrequencyCounts.scaledIdf (:292-307), vectorized."""
        out = np.full(len(keys), self.idf_range, dtype=np.float64)
        if len(self.hashes) == 0 or self.idf_range <= 1.0:
            if self.idf_range <= 1.0:
                out.fill(1.0)
            return out
        found, freqs = self._lookup(keys)
        if found.any():
            idf = np.log(self.max_value / freqs[found] - self.offset)
            scale = (self.max_idf - self.min_idf) / (self.idf_range - 1.0)
            if scale == 0.0:
                # every surviving frequency equals the cutoff: the idf
                # band is a point — weight all found keys 1.0 instead
                # of dividing to NaN (whose int cast is C-undefined)
                out[found] = 1.0
            else:
                out[found] = 1.0 + (idf - self.min_idf) / scale
        if self.remove_unique == 2:
            # absent kmers suppressed like the most frequent ones (:294-295)
            out[~found] = 1.0
        return out

    def is_popular(self, keys: np.ndarray) -> np.ndarray:
        found, _ = self._lookup(keys)
        return found

    def tf_weight(self, counts: np.ndarray) -> np.ndarray:
        if self.no_tf:
            return np.ones(len(counts), dtype=np.float64)
        return counts.astype(np.float64)


def tfidf_weights(keys: np.ndarray, counts: np.ndarray,
                  freq_table: FreqTable | None,
                  repeat_weight: float) -> np.ndarray:
    """Integer weights for the weighted MinHash (MinHashSketch.java:95-128).

    repeat_weight < 0 -> classic MHAP: weight 1, popular kmers zeroed.
    0 <= repeat_weight < 1 with a filter -> round(tf * scaledIdf), min 1.
    otherwise -> raw tf counts.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if repeat_weight < 0.0:
        w = np.ones(len(keys), dtype=np.int64)
        if freq_table is not None:
            w[freq_table.is_popular(keys)] = 0
        return w
    if freq_table is not None and 0.0 <= repeat_weight < 1.0:
        tf = freq_table.tf_weight(counts)
        idf = freq_table.scaled_idf(keys)
        w = np.floor(tf * idf + 0.5).astype(np.int64)  # Math.round
        return np.maximum(w, 1)
    return counts
