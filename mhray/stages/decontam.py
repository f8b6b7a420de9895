"""Benchmark decontamination: flag corpus documents that share any
word n-gram with a benchmark/eval set (the standard training-data
hygiene pass — GPT-3 App. C / PaLM-style 'n-gram overlap' rules).

Engine-native addition beyond the reference's operator set; reuses the
reference's hashing discipline (murmur3 x64_128 h1, the same family as
sketch/HashUtils.java:213-258) so shingle identity is a single int64
key, never a string shuffle.

Distributed shape:
  - benchmark side -> per-batch partial-unique shingle keys -> one
    grouped unique. Small (eval sets are KBs-to-MBs at 100 TB corpus
    scale): sorted key array broadcast ONCE via ``ray.put``, corpus
    streams through one map_batches membership pass. Large: hash
    partitioned co-grouping on the shingle key (both sides shuffle
    only (key, doc_id) int64 rows, never text).
  - output covers EVERY corpus doc: (doc_id, n_hits, contaminated)
    where n_hits counts DISTINCT shingles of the doc seen in the
    benchmark (partition-partials sum exactly: a shingle key lives in
    exactly one hash partition).

64-bit shingle-hash collisions can only OVER-count contamination
(merging two distinct shingles), never miss it — the conservative
direction for a removal filter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from mhray.murmur import murmur3_x64_128
from mhray.stages.text import _WS_SPLIT_RE


def _token_hash_stream(texts: list[str]):
    """(token_hashes uint64, lens int64) — the non-empty ASCII-
    whitespace-split tokens of every doc, hashed. One utf-32 encode of
    the concatenated token stream hashes every token in a single
    ragged-murmur call; token-hash identity equals string equality
    (modulo 64-bit collisions)."""
    from mhray.murmur import murmur3_x64_128_ragged

    toks_per_doc = [[w for w in _WS_SPLIT_RE.split(t) if w] for t in texts]
    lens = np.fromiter((len(ts) for ts in toks_per_doc), np.int64,
                       len(texts))
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, np.uint64), lens
    flat = [w for ts in toks_per_doc for w in ts]
    widths = np.fromiter(map(len, flat), np.int64, total) * 4
    offs = np.zeros(total + 1, np.int64)
    np.cumsum(widths, out=offs[1:])
    buf = np.frombuffer("".join(flat).encode("utf-32-le"), np.uint8)
    return murmur3_x64_128_ragged(buf, offs), lens


def _ngram_keys(th: np.ndarray, lens: np.ndarray, n: int):
    """(keys int64, doc_idx int64) of every n-consecutive-token window
    that does not cross a doc boundary; keys hash the n token hashes."""
    if len(th) < n:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ends = np.cumsum(lens)
    if n == 1:
        return th.view(np.int64).copy(), \
            np.searchsorted(ends, np.arange(len(th)), side="right")
    win = np.lib.stride_tricks.sliding_window_view(th, n)
    valid = np.ones(len(win), dtype=bool)
    for off in range(1, n):  # windows crossing a doc boundary
        bad = ends - off
        bad = bad[(bad >= 0) & (bad < len(win))]
        valid[bad] = False
    pos = np.flatnonzero(valid)
    if not len(pos):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = np.ascontiguousarray(win[pos]).view(np.uint8) \
        .reshape(len(pos), n * 8)
    keys = murmur3_x64_128(rows).view(np.int64)
    doc_idx = np.searchsorted(ends, pos, side="right")
    return keys, doc_idx


def word_shingle_keys(texts: list[str], n: int):
    """(keys int64, doc_idx int64) of every word n-gram per document."""
    th, lens = _token_hash_stream(texts)
    return _ngram_keys(th, lens, n)


def _doc_distinct(keys: np.ndarray, doc_idx: np.ndarray):
    """Drop duplicate (doc, key) occurrences; both arrays stay aligned."""
    order = np.lexsort((keys, doc_idx))
    k, d = keys[order], doc_idx[order]
    first = np.ones(len(k), dtype=bool)
    if len(k) > 1:
        first[1:] = (np.diff(d) != 0) | (np.diff(k) != 0)
    return k[first], d[first]


def decontaminate(docs, bench, n: int = 8, *, id_col: str = "doc_id",
                  text_col: str = "text",
                  broadcast_threshold: int = 5_000_000,
                  num_parts: int | None = None):
    """Mark every doc in ``docs`` that shares a word n-gram with any doc
    in ``bench``. Returns (id_col, n_hits, contaminated[0/1]) covering
    every input doc."""
    from mhray.rayutil import parts_for

    num_parts = parts_for(docs, num_parts)

    def bench_partial(batch: pa.Table) -> pa.Table:
        keys, _ = word_shingle_keys(batch.column(text_col).to_pylist(), n)
        return pa.table({"key": pa.array(np.unique(keys), pa.int64())})

    partials = bench.map_batches(bench_partial, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    n_partials = partials.count()
    if n_partials <= broadcast_threshold:
        if n_partials == 0:  # empty bench: concat would lose the schema
            bkeys = np.empty(0, np.int64)
        else:
            tbl = pa.concat_tables(
                [ray.get(r) for r in partials.to_arrow_refs()],
                promote_options="default")
            bkeys = np.unique(np.asarray(tbl.column("key"), np.int64))
        ref = ray.put(bkeys)

        def score(batch: pa.Table) -> pa.Table:
            bk = ray.get(ref)
            keys, didx = word_shingle_keys(
                batch.column(text_col).to_pylist(), n)
            hits = np.zeros(batch.num_rows, np.int64)
            if len(keys) and len(bk):
                dk, dd = _doc_distinct(keys, didx)
                posn = np.minimum(np.searchsorted(bk, dk), len(bk) - 1)
                m = bk[posn] == dk
                hits = np.bincount(dd[m], minlength=batch.num_rows) \
                    .astype(np.int64)
            return pa.table({
                id_col: batch.column(id_col).cast(pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "contaminated": pa.array((hits > 0).astype(np.int64),
                                         pa.int64()),
            })

        return docs.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True)

    # scale fallback: shingle-key hash partitions; only int64 rows move
    from mhray.rayutil import anti_join_ids, exchange
    from mhray.stages.candidates import _part_of

    def corpus_shingles(batch: pa.Table) -> pa.Table:
        keys, didx = word_shingle_keys(batch.column(text_col).to_pylist(), n)
        dk, dd = _doc_distinct(keys, didx)
        ids = np.asarray(batch.column(id_col), np.int64)[dd]
        return pa.table({
            "kpart": pa.array(_part_of(dk, num_parts), pa.int32()),
            "key": pa.array(dk, pa.int64()),
            "doc": pa.array(ids, pa.int64()),
            # explicit role tag — a doc == -1 sentinel would collide
            # with (or silently drop) legitimate negative doc ids,
            # diverging from the broadcast path on the same input
            "role": pa.array(np.zeros(len(dd), np.int8), pa.int8()),
        })

    def bench_keys(batch: pa.Table) -> pa.Table:
        k = np.asarray(batch.column("key"), np.int64)
        return pa.table({
            "kpart": pa.array(_part_of(k, num_parts), pa.int32()),
            "key": batch.column("key"),
            "doc": pa.array(np.zeros(len(k), np.int64), pa.int64()),
            "role": pa.array(np.ones(len(k), np.int8), pa.int8()),
        })

    both = docs.map_batches(corpus_shingles, batch_format="pyarrow",
                            zero_copy_batch=True) \
        .union(partials.map_batches(bench_keys, batch_format="pyarrow"))

    def match_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"doc": pa.array([], pa.int64()),
                             "hits": pa.array([], pa.int64())})
        k = np.asarray(part.column("key"), np.int64)
        d = np.asarray(part.column("doc"), np.int64)
        role = np.asarray(part.column("role"), np.int8)
        # keys present on the bench side
        bk = np.unique(k[role == 1])
        m = role == 0
        if len(bk):
            posn = np.minimum(np.searchsorted(bk, k), len(bk) - 1)
            m &= bk[posn] == k
        else:
            m[:] = False
        docs_hit, hits = np.unique(d[m], return_counts=True)
        return pa.table({"doc": pa.array(docs_hit, pa.int64()),
                         "hits": pa.array(hits.astype(np.int64), pa.int64())})

    from ray.data.aggregate import Sum

    hit_tbl = exchange(both, "kpart", num_parts, match_part) \
        .groupby("doc").aggregate(Sum("hits", alias_name="n_hits")) \
        .materialize()

    pos_rows = hit_tbl.map_batches(
        lambda b: pa.table({
            id_col: b.column("doc").cast(pa.int64()),
            "n_hits": b.column("n_hits").cast(pa.int64()),
            "contaminated": pa.array(
                np.ones(b.num_rows, np.int64), pa.int64()),
        }), batch_format="pyarrow")
    zero_rows = anti_join_ids(
        docs.select_columns([id_col]), hit_tbl, id_col, "doc",
        num_parts=num_parts,
    ).map_batches(
        lambda b: pa.table({
            id_col: b.column(id_col).cast(pa.int64()),
            "n_hits": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
            "contaminated": pa.array(np.zeros(b.num_rows, np.int64),
                                     pa.int64()),
        }), batch_format="pyarrow")
    return pos_rows.union(zero_rows)
