"""Deduplication operator family over document tables.

- exact_dedup: hash-partitioned exact dedup (D1 analog — the duplicate
  id guard of impl/MinHashSearch.java:109-118 generalized to content
  identity): groupby(content hash) -> keep min id.
- ngram_jaccard_pairs: EXACT set-similarity self-join (token-set
  Jaccard >= tau) with prefix filtering (rare-token prefixes; the
  standard ppjoin-style pruning, cf. "Distributed Streaming Set
  Similarity Join", ICDE 2020): only pairs sharing a prefix token are
  candidates — provably complete, so it matches a SQL oracle exactly.
- simhash_pairs: SimHash banding + Hamming gate (F4/F6,
  sketch/SimHash.java:40-87 + AbstractBitSketch.java:74-88).
- minhash_text_pairs: the MHAP two-stage pipeline applied to a plain
  (id, text) table — stage-1 signature LSH + positional verify.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa

import ray
import ray.data

from mhray.config import MhapConfig
from mhray.rayutil import exchange, parts_for
from mhray.stages.candidates import _part_of, make_emit_pairs


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_parts: int | None = None):
    """One surviving (min-id) row key per distinct text: returns
    (doc_id, group_size). One hash-partition shuffle + partition-wise
    vectorized min-id/count (the repo's ``rayutil.exchange`` idiom
    — ~40% faster than the sort-aggregate operator on narrow rows)."""
    from mhray.kernels import hash_strings64

    num_parts = parts_for(ds, num_parts)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash_strings64(batch.column(text_col).to_pylist())
        return pa.table({
            id_col: batch.column(id_col),
            "text_hash": pa.array(h, pa.int64()),
            "part": pa.array(_part_of(h, num_parts), pa.int32()),
        })

    def dedup_part(part: pa.Table) -> pa.Table:
        h = np.asarray(part.column("text_hash"), dtype=np.int64)
        d = np.asarray(part.column(id_col), dtype=np.int64)
        order = np.lexsort((d, h))
        h_s, d_s = h[order], d[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(h_s)))
        return pa.table({
            id_col: pa.array(d_s[starts], pa.int64()),
            "group_size": pa.array(sizes, pa.int64()),
        })

    return exchange(ds.map_batches(add_hash, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "part", num_parts, dedup_part)


def dedup_keep_best(ds, score_col: str, text_col: str = "text",
                    id_col: str = "doc_id", num_parts: int | None = None):
    """Exact dedup with canonical-representative selection: per distinct
    text keep the member with the HIGHEST ``score_col`` (ties -> lowest
    id) — the standard web-pipeline step of collapsing a duplicate
    group onto its best-quality copy instead of an arbitrary one.
    Returns (id_col, group_size, score_col). Same one-shuffle shape as
    ``exact_dedup``; only (id, hash, score) rows move."""
    from mhray.kernels import hash_strings64

    num_parts = parts_for(ds, num_parts)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash_strings64(batch.column(text_col).to_pylist())
        return pa.table({
            id_col: batch.column(id_col),
            score_col: batch.column(score_col),
            "text_hash": pa.array(h, pa.int64()),
            "part": pa.array(_part_of(h, num_parts), pa.int32()),
        })

    def best_part(part: pa.Table) -> pa.Table:
        h = np.asarray(part.column("text_hash"), dtype=np.int64)
        d = np.asarray(part.column(id_col), dtype=np.int64)
        s = np.asarray(part.column(score_col), dtype=np.float64)
        order = np.lexsort((d, -s, h))  # per hash: score desc, id asc
        h_s, d_s, s_s = h[order], d[order], s[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(h_s)))
        return pa.table({
            id_col: pa.array(d_s[starts], pa.int64()),
            "group_size": pa.array(sizes, pa.int64()),
            score_col: part.column(score_col).take(
                pa.array(order[starts], pa.int64())),
        })

    return exchange(ds.map_batches(add_hash, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "part", num_parts, best_part)


def chunk_dedup(ds, chunk_words: int = 8, text_col: str = "text",
                id_col: str = "doc_id", num_parts: int | None = None):
    """Chunk-level (line-level) exact dedup with document reassembly —
    the RefinedWeb/FineWeb pipeline step of removing REPEATED SPANS
    across the corpus rather than whole duplicate documents: each
    document is cut into fixed ``chunk_words``-word chunks, every chunk
    that already occurred earlier in corpus order (first occurrence =
    lexicographic min (doc_id, chunk_idx)) is dropped, and each
    document is rebuilt from its surviving chunks.

    Returns (id_col, n_chunks, n_kept, kept_text) with kept_text NULL
    when every chunk of the document was seen elsewhere first.

    Distributed shape: two hash shuffles, both carrying (ids, chunk
    text) rows — chunks partition by CHUNK HASH to pick winners (each
    distinct chunk lives in exactly one partition), then by DOC id to
    reassemble. No driver state; chunk text rides the shuffle because
    it IS the output. Splitting, chunk joining and winner marking are
    zero-copy Arrow / numpy (no per-row Python).
    """
    import pyarrow.compute as pc

    from mhray.kernels import hash_strings64

    num_parts = parts_for(ds, num_parts)
    W = int(chunk_words)

    def explode_chunks(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column(text_col), " ")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        flat = split.flatten()
        offs = np.asarray(split.offsets, np.int64)
        counts = np.diff(offs)                       # words per doc (>=1)
        nch = (counts + W - 1) // W                  # chunks per doc
        doc_of = np.repeat(np.arange(len(counts)), nch)
        within = np.arange(nch.sum(), dtype=np.int64) - \
            np.repeat(np.cumsum(nch) - nch, nch)
        starts = offs[doc_of] + W * within
        # each chunk ends where the next begins (doc boundaries align:
        # the next doc's first chunk starts at this doc's end offset)
        ch_offsets = np.append(starts, offs[-1]).astype(np.int32)
        chunks = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(ch_offsets, pa.int32()), flat),
            " ")
        h = hash_strings64(chunks)
        ids = np.asarray(batch.column(id_col), np.int64)[doc_of]
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "ci": pa.array(within, pa.int64()),
            "chunk": chunks,
            "hpart": pa.array(_part_of(h, num_parts), pa.int32()),
        })

    def mark_winners(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "ci": pa.array([], pa.int64()),
                             "chunk": pa.array([], pa.string()),
                             "kept": pa.array([], pa.bool_()),
                             "dpart": pa.array([], pa.int32())})
        h = hash_strings64(part.column("chunk"))
        d = np.asarray(part.column(id_col), np.int64)
        c = np.asarray(part.column("ci"), np.int64)
        order = np.lexsort((c, d, h))
        h_s = h[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        kept = np.empty(len(h_s), dtype=bool)
        kept[order] = first
        return pa.table({
            id_col: part.column(id_col),
            "ci": part.column("ci"),
            "chunk": part.column("chunk"),
            "kept": pa.array(kept, pa.bool_()),
            "dpart": pa.array(_part_of(d, num_parts), pa.int32()),
        })

    def rebuild(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "n_chunks": pa.array([], pa.int64()),
                             "n_kept": pa.array([], pa.int64()),
                             "kept_text": pa.array([], pa.string())})
        d = np.asarray(part.column(id_col), np.int64)
        c = np.asarray(part.column("ci"), np.int64)
        kept = np.asarray(part.column("kept"))
        order = np.lexsort((c, d))
        d_s, kept_s = d[order], kept[order]
        first = np.ones(len(d_s), dtype=bool)
        if len(d_s) > 1:
            first[1:] = np.diff(d_s) != 0
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(d_s)))
        n_kept = np.add.reduceat(kept_s.astype(np.int64), starts)
        # surviving chunks in (doc, ci) order -> one list per doc
        kept_idx = order[np.flatnonzero(kept_s)]
        kept_chunks = part.column("chunk").take(pa.array(kept_idx, pa.int64()))
        if isinstance(kept_chunks, pa.ChunkedArray):
            kept_chunks = kept_chunks.combine_chunks()
        k_offs = np.append(0, np.cumsum(n_kept)).astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(k_offs, pa.int32()),
                                     kept_chunks), " ")
        kept_text = pc.if_else(pa.array(n_kept > 0), joined,
                               pa.nulls(len(n_kept), pa.string()))
        return pa.table({
            id_col: pa.array(d_s[starts], pa.int64()),
            "n_chunks": pa.array(sizes, pa.int64()),
            "n_kept": pa.array(n_kept, pa.int64()),
            "kept_text": kept_text,
        })

    marked = exchange(ds.map_batches(explode_chunks, batch_format="pyarrow",
                                     zero_copy_batch=True),
                      "hpart", num_parts, mark_winners)
    return exchange(marked, "dpart", num_parts, rebuild)


# ---------------------------------------------------------------------------
# tiered dedup cascade
# ---------------------------------------------------------------------------

def _removed_from_pairs(pairs_ds, id_col: str):
    """pairs(lo, hi) -> (doc_id, dup_of): every non-keeper member of a
    connected component, keeper = min id (deterministic)."""
    from mhray.stages.cluster import cluster_edges

    clusters = cluster_edges(pairs_ds.select_columns(["lo", "hi"]))

    def removed(part: pa.Table) -> pa.Table:
        iid = np.asarray(part.column("iid"), dtype=np.int64)
        lab = np.asarray(part.column("cluster_id"), dtype=np.int64)
        # cluster_id IS the min member id (min-label propagation), so
        # the keeper is exactly the row whose iid == cluster_id
        keep = iid != lab
        return pa.table({
            id_col: pa.array(iid[keep], pa.int64()),
            "dup_of": pa.array(lab[keep], pa.int64()),
        })

    return clusters.map_batches(removed, batch_format="pyarrow",
                                zero_copy_batch=True)


def tiered_dedup(ds, cfg: MhapConfig | None = None, text_col: str = "text",
                 id_col: str = "doc_id", num_parts: int | None = None,
                 simhash_max_hamming: int = 3,
                 removed_broadcast_threshold: int = 2_000_000) -> dict:
    """Cascaded (tiered) dedup: each tier removes duplicates so the
    strictly more expensive next tier runs on a smaller corpus —
    the production shape for web-scale corpora, where the cheap tiers
    typically remove the bulk of the duplicate mass:

      tier 1 'exact'   — content-hash groupby (one narrow shuffle)
      tier 2 'simhash' — 64-bit SimHash banding + Hamming gate
      tier 3 'minhash' — MHAP signature LSH + positional verify

    Survivors flow tier-to-tier via :func:`mhray.rayutil.anti_join_ids`
    (broadcast below the threshold, hash-partition shuffle above — the
    removed-id set is duplicate-mass-proportional, NOT corpus-
    proportional). Returns ``{"survivors", "removed", "stats"}``:
    removed rows carry (doc_id, dup_of, tier); stats one row per tier.

    Determinism: every keeper is the minimum doc id of its duplicate
    group/component, so the cascade's output is reproducible and
    order-independent.
    """
    from mhray.config import PRESETS
    from mhray.rayutil import anti_join_ids

    cfg = cfg or PRESETS["captions"].with_(threshold=0.9)
    num_parts = parts_for(ds, num_parts)
    docs = ds.select_columns([id_col, text_col])
    doc_schema = pa.schema([(id_col, pa.int64()), (text_col, pa.string())])

    stats: list[dict] = []
    removed_parts = []
    remaining = docs.materialize()
    n_in = remaining.count()

    def _run_tier(name, removed_ds):
        nonlocal remaining, n_in
        removed_ds = removed_ds.materialize()
        n_removed = removed_ds.count()
        tagged = removed_ds.map_batches(
            lambda b, _t=name: b.append_column(
                "tier", pa.array([_t] * b.num_rows, pa.string())),
            batch_format="pyarrow")
        removed_parts.append(tagged)
        stats.append({"tier": name, "rows_in": n_in,
                      "rows_removed": n_removed})
        if n_removed:
            remaining = anti_join_ids(
                remaining, removed_ds, id_col, id_col, num_parts,
                removed_broadcast_threshold, ds_schema=doc_schema,
            ).materialize()
        n_in = n_in - n_removed

    # tier 1: exact content hash ------------------------------------------
    from mhray.kernels import hash_strings64

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash_strings64(batch.column(text_col).to_pylist())
        return pa.table({
            id_col: batch.column(id_col),
            "text_hash": pa.array(h, pa.int64()),
            "part": pa.array(_part_of(h, num_parts), pa.int32()),
        })

    def exact_removed(part: pa.Table) -> pa.Table:
        h = np.asarray(part.column("text_hash"), dtype=np.int64)
        d = np.asarray(part.column(id_col), dtype=np.int64)
        order = np.lexsort((d, h))
        h_s, d_s = h[order], d[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(h_s)))
        keeper = np.repeat(d_s[starts], sizes)
        dup = d_s != keeper
        return pa.table({
            id_col: pa.array(d_s[dup], pa.int64()),
            "dup_of": pa.array(keeper[dup], pa.int64()),
        })

    _run_tier("exact", exchange(
        remaining.map_batches(add_hash, batch_format="pyarrow",
                              zero_copy_batch=True),
        "part", num_parts, exact_removed))

    # tier 2: simhash banding ---------------------------------------------
    sh_pairs = simhash_pairs(remaining, max_hamming=simhash_max_hamming,
                             text_col=text_col, id_col=id_col,
                             num_parts=num_parts)
    _run_tier("simhash", _removed_from_pairs(sh_pairs, id_col))

    # tier 3: minhash LSH + positional verify -----------------------------
    mh_pairs = minhash_text_pairs(remaining, cfg, text_col=text_col,
                                  id_col=id_col, num_parts=num_parts)
    _run_tier("minhash", _removed_from_pairs(mh_pairs, id_col))

    removed = removed_parts[0]
    for part in removed_parts[1:]:
        removed = removed.union(part)
    stats_tbl = pa.table({
        "tier": pa.array([s["tier"] for s in stats]),
        "rows_in": pa.array([s["rows_in"] for s in stats], pa.int64()),
        "rows_removed": pa.array([s["rows_removed"] for s in stats],
                                 pa.int64()),
    })
    return {"survivors": remaining, "removed": removed, "stats": stats_tbl}


# ---------------------------------------------------------------------------
# exact token-set Jaccard self-join (prefix filtering)
# ---------------------------------------------------------------------------

def _blob_concat(col):
    """binary column of packed u64 token sets -> (flat u64 view,
    element offsets). Zero-copy when the buffer stays 8-aligned."""
    from mhray.rayutil import binary_flat_view

    return binary_flat_view(col, 8, "<u8")


def _rare_prefix_select(th: np.ndarray, offs: np.ndarray, tau: float,
                        keys_sorted: np.ndarray, vals: np.ndarray):
    """Prefix-filter token selection for a ragged run of per-doc token
    sets, fully vectorized: ONE (doc, df, token) lexsort over the
    concatenated run, then a segmented prefix-take of each doc's first
    ``|s| - ceil(tau*|s|) + 1`` tokens in global rare-first order
    (reference analog: the candidate probe of
    ``impl/MinHashSearch.java:164-181``). ``th`` is the int64 view of
    the flat token run, ``offs`` the per-doc element offsets
    (len = n_docs + 1). Returns (selected tokens, doc ordinals)."""
    counts = np.diff(offs)
    n_tok = len(th)
    if n_tok == 0:
        return th[:0], np.empty(0, np.int64)
    doc_idx = np.repeat(np.arange(len(counts)), counts)
    if len(keys_sorted):
        pos = np.minimum(np.searchsorted(keys_sorted, th),
                         len(keys_sorted) - 1)
        df = np.where(keys_sorted[pos] == th, vals[pos], 1)
    else:
        df = np.ones(n_tok, np.int64)
    # rare-first, tie-break by token value (deterministic)
    order = np.lexsort((th, df, doc_idx))
    # docs stay contiguous ascending after the sort, so each doc's
    # segment starts at its input offset; rank-within-doc < prefix len
    rank = np.arange(n_tok, dtype=np.int64) - np.repeat(offs[:-1], counts)
    p = counts - np.ceil(tau * counts).astype(np.int64) + 1
    keep = rank < np.repeat(p, counts)
    return th[order][keep], doc_idx[keep]


def ngram_jaccard_pairs(ds, tau: float, text_col: str = "text",
                        id_col: str = "doc_id", num_parts: int | None = None,
                        group_cap: int = 100000,
                        df_top_k: int = 1_000_000):
    """(lo_id, hi_id) pairs with distinct-word-set Jaccard >= tau.

    Exact: prefix filtering keeps completeness — a pair with Jaccard
    >= tau must share at least one of each side's first
    (|s| - ceil(tau*|s|) + 1) tokens in global rare-first order.
    The token document-frequency table comes from one partial-count
    pass (:func:`mhray.rayutil.top_counts`: per-batch counts, one
    key-hash shuffle with a partition-local top-k, no global sort) and
    is BOUNDED: only the ``df_top_k`` most frequent tokens (count desc,
    token asc) are shipped (``ray.put`` once); tokens outside the cap
    default to df=1 (rarest-first), ties broken by token value.
    Completeness only needs every document to rank its tokens by the
    SAME total order, which the capped map still is — the cap changes
    pruning efficiency, never the result set.
    """
    from mhray.kernels import hash_strings64
    from mhray.rayutil import attach_payload_both, top_counts

    num_parts = parts_for(ds, num_parts)

    def tokenize(batch: pa.Table) -> pa.Table:
        """One hash call + one lexsort for the WHOLE batch (the per-doc
        split/set/hash loop paid per-call overhead ~5000x per block).
        Empty texts yield zero tokens (matching ``t.split(' ') if t``);
        split keeps empty-string tokens between double spaces, exactly
        like the scalar path and the DuckDB oracle."""
        import pyarrow.compute as pc

        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        col = batch.column(text_col)
        split = pc.split_pattern(col, " ")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
        nonempty = np.asarray(pc.utf8_length(col), dtype=np.int64) > 0
        counts = np.where(nonempty, counts, 0)
        flat = split.flatten()
        doc_idx = np.repeat(np.arange(len(ids)), counts) \
            if counts.sum() else np.empty(0, np.int64)
        if len(flat) and not nonempty.all():
            # drop the [''] token lists of empty texts from the flat run
            full_counts = np.asarray(pc.list_value_length(split),
                                     dtype=np.int64)
            tok_keep = np.repeat(nonempty, full_counts)
            flat = flat.filter(pa.array(tok_keep))
        th = hash_strings64(flat).view(np.uint64) if len(flat) \
            else np.empty(0, np.uint64)
        order = np.lexsort((th, doc_idx))
        d_s, h_s = doc_idx[order], th[order]
        keep = np.ones(len(h_s), dtype=bool)
        keep[1:] = (h_s[1:] != h_s[:-1]) | (d_s[1:] != d_s[:-1])
        d_u, h_u = d_s[keep], h_s[keep]
        n_tok = np.bincount(d_u, minlength=len(ids)).astype(np.int64)
        offs = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(n_tok, out=offs[1:])
        blobs = pa.Array.from_buffers(
            pa.binary(), len(ids),
            [None, pa.py_buffer((offs * 8).astype(np.int32).tobytes()),
             pa.py_buffer(np.ascontiguousarray(h_u, dtype="<u8").tobytes())])
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "tok_blob": blobs,
            "n_tok": pa.array(n_tok, pa.int64()),
        })

    toks_ds = ds.map_batches(tokenize, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    # global token document-frequency (rare-first prefix ordering)
    def explode_tokens(batch: pa.Table) -> pa.Table:
        flat, _ = _blob_concat(batch.column("tok_blob"))
        return pa.table({"tok": pa.array(flat.view(np.int64), pa.int64())})

    fmap_keys, fmap_vals, _ = top_counts(
        toks_ds.map_batches(explode_tokens, batch_format="pyarrow"),
        "tok", df_top_k, num_parts)
    freq_ref = ray.put((fmap_keys, fmap_vals))

    def prefix_explode(batch: pa.Table) -> pa.Table:
        keys_sorted, vals = ray.get(freq_ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        flat, offs = _blob_concat(batch.column("tok_blob"))
        key, doc_sel = _rare_prefix_select(
            flat.view(np.int64), offs, tau, keys_sorted, vals)
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(ids[doc_sel], pa.int64()),
        })

    cands = exchange(toks_ds.map_batches(prefix_explode,
                                         batch_format="pyarrow"),
                     "part", num_parts, make_emit_pairs(group_cap)) \
        .groupby(["lo", "hi"]).count()

    # attach both token blobs (one broadcast copy, or one shuffle per
    # key) and compute exact Jaccard
    j = attach_payload_both(
        cands, toks_ds, id_col, ("tok_blob",), num_parts,
        pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                ("count()", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("tok_blob", pa.binary())]))

    def jaccard_gate(batch: pa.Table) -> pa.Table:
        """All pairs of the block at once: tag every token with its
        pair ordinal, ONE lexsort, count adjacent (pair, token)
        duplicates = per-pair intersection size (each side is a unique
        set, so a common token appears exactly twice)."""
        n = batch.num_rows
        a_flat, a_off = _blob_concat(batch.column("tok_blob_lo"))
        b_flat, b_off = _blob_concat(batch.column("tok_blob_hi"))
        na, nb = np.diff(a_off), np.diff(b_off)
        pid = np.concatenate([np.repeat(np.arange(n), na),
                              np.repeat(np.arange(n), nb)])
        tok = np.concatenate([a_flat, b_flat])
        order = np.lexsort((tok, pid))
        p_s, t_s = pid[order], tok[order]
        dup = np.zeros(0, dtype=bool) if len(p_s) < 2 else \
            (p_s[1:] == p_s[:-1]) & (t_s[1:] == t_s[:-1])
        inter = np.bincount(p_s[1:][dup], minlength=n) if len(dup) \
            else np.zeros(n, np.int64)
        union = na + nb - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        keep = pa.array(jac >= tau)
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
        })

    return j.map_batches(jaccard_gate, batch_format="pyarrow",
                         zero_copy_batch=True)


# ---------------------------------------------------------------------------
# exact shingle-containment self-join (near-containment dedup)
# ---------------------------------------------------------------------------

def make_shingle_postings(shingle_words: int, text_col: str, id_col: str,
                          num_parts: int):
    """map_batches fn: every DISTINCT ``shingle_words``-gram of every
    doc as an inverted-index posting (part, key, iid, n_sh) — key is a
    64-bit polynomial combine over murmur token hashes (collision
    ~2^-64), n_sh the doc's distinct-shingle count, part the key hash
    partition. Docs with fewer than ``shingle_words`` tokens post
    nothing. Shared by the containment join and the novelty scorer."""
    from mhray.kernels import hash_strings64

    k = int(shingle_words)
    P = np.uint64(1099511628211)  # FNV-64 prime

    def shingle_postings(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        split = pc.split_pattern(batch.column(text_col), " ")
        if isinstance(split, pa.ChunkedArray):
            split = split.combine_chunks()
        counts = np.asarray(pc.list_value_length(split), dtype=np.int64)
        flat = split.flatten()
        doc_idx = np.repeat(np.arange(len(ids)), counts) \
            if counts.sum() else np.empty(0, np.int64)
        th = hash_strings64(flat).view(np.uint64) if len(flat) \
            else np.empty(0, np.uint64)
        m = len(th) - k + 1
        empty = pa.table({
            "part": pa.array([], pa.int32()),
            "key": pa.array([], pa.int64()),
            "iid": pa.array([], pa.int64()),
            "n_sh": pa.array([], pa.int64()),
        })
        if m <= 0:
            return empty
        # polynomial hash of every k-token window of the flat run;
        # windows crossing a doc boundary are masked out
        acc = np.zeros(m, np.uint64)
        for j in range(k):
            acc = acc * P + th[j:j + m]
        valid = doc_idx[:m] == doc_idx[k - 1:]
        sh, sd = acc[valid], doc_idx[:m][valid]
        if not len(sh):
            return empty
        order = np.lexsort((sh, sd))
        sh_s, sd_s = sh[order], sd[order]
        keep = np.ones(len(sh_s), dtype=bool)
        keep[1:] = (sh_s[1:] != sh_s[:-1]) | (sd_s[1:] != sd_s[:-1])
        sh_u, sd_u = sh_s[keep], sd_s[keep]
        n_sh = np.bincount(sd_u, minlength=len(ids)).astype(np.int64)
        key = sh_u.view(np.int64)
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(ids[sd_u], pa.int64()),
            "n_sh": pa.array(n_sh[sd_u], pa.int64()),
        })

    return shingle_postings


def ngram_novelty(ds, shingle_words: int = 4, text_col: str = "text",
                  id_col: str = "doc_id", num_parts: int | None = None):
    """Per-doc corpus novelty: the share of a document's distinct
    ``shingle_words``-grams whose FIRST corpus occurrence (min doc id)
    is this document — the Gopher/FineWeb-style "how much of this doc
    is new text" curation signal, and the ingestion-order view of
    duplicate mass (a verbatim re-post scores 0).

    ONE shingle-hash partition: each shingle group is co-located, so
    its global min owner is partition-local; per-doc novel counts are
    pre-summed inside the partition and meet the doc's total count in
    a tiny (doc, sums) aggregate — no joins, no driver state. Output
    (doc_id, n_shingles, novel_bp); sub-shingle-length docs are
    excluded (no shingles, novelty undefined), matching the oracle.
    """
    num_parts = parts_for(ds, num_parts)

    postings = ds.map_batches(
        make_shingle_postings(shingle_words, text_col, id_col, num_parts),
        batch_format="pyarrow", zero_copy_batch=True)

    def novel_partials(part: pa.Table) -> pa.Table:
        key = np.asarray(part.column("key"), dtype=np.int64)
        iid = np.asarray(part.column("iid"), dtype=np.int64)
        n_sh = np.asarray(part.column("n_sh"), dtype=np.int64)
        order = np.lexsort((iid, key))
        k_s, i_s = key[order], iid[order]
        first = np.ones(len(k_s), dtype=bool)
        if len(k_s) > 1:
            first[1:] = k_s[1:] != k_s[:-1]
        winners = i_s[first]  # min iid per shingle (lexsort order)
        # per-doc partial: novel count (shingles won in this part);
        # n_sh rides along once per (doc, part) — it is constant per
        # doc, the finalizer reads one copy rather than summing
        w_ids, w_cnt = np.unique(winners, return_counts=True)
        d_ids, d_pos = np.unique(iid, return_index=True)
        novel = np.zeros(len(d_ids), np.int64)
        novel[np.searchsorted(d_ids, w_ids)] = w_cnt
        return pa.table({
            id_col: pa.array(d_ids, pa.int64()),
            "novel": pa.array(novel, pa.int64()),
            "n_sh": pa.array(n_sh[d_pos], pa.int64()),
        })

    def doc_part(batch: pa.Table) -> pa.Table:
        iid = np.asarray(batch.column(id_col), dtype=np.int64)
        return batch.append_column(
            "dpart", pa.array(_part_of(iid, num_parts), pa.int32()))

    def finalize(group: pa.Table) -> pa.Table:
        iid = np.asarray(group.column(id_col), dtype=np.int64)
        novel = np.asarray(group.column("novel"), dtype=np.int64)
        n_sh = np.asarray(group.column("n_sh"), dtype=np.int64)
        order = np.argsort(iid, kind="stable")
        iid, novel, n_sh = iid[order], novel[order], n_sh[order]
        first = np.ones(len(iid), dtype=bool)
        if len(iid) > 1:
            first[1:] = iid[1:] != iid[:-1]
        starts = np.flatnonzero(first)
        # iid is sorted: reduceat keeps the per-doc sums integer-exact
        tot_novel = np.add.reduceat(novel, starts) \
            if len(starts) else np.empty(0, np.int64)
        tot_sh = n_sh[starts]  # constant per doc
        scaled = tot_novel * 10000.0 / tot_sh
        bp = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)) \
            .astype(np.int64)
        return pa.table({
            id_col: pa.array(iid[first], pa.int64()),
            "n_shingles": pa.array(tot_sh, pa.int64()),
            "novel_bp": pa.array(bp, pa.int64()),
        })

    parts2 = exchange(postings, "part", num_parts, novel_partials) \
        .map_batches(doc_part, batch_format="pyarrow",
                     zero_copy_batch=True)
    return exchange(parts2, "dpart", num_parts, finalize)

def shingle_containment_pairs(ds, tau_bp: int = 8000, shingle_words: int = 4,
                              text_col: str = "text", id_col: str = "doc_id",
                              num_parts: int | None = None,
                              group_cap: int = 100_000):
    """(lo_id, hi_id, cont_bp) pairs whose word-shingle containment
    ``|S(A) ∩ S(B)| / min(|S(A)|, |S(B)|)`` is >= ``tau_bp`` basis
    points — the Broder containment measure, which (unlike Jaccard)
    flags a short document substantially embedded in a long one.

    Exact via a FULL shingle inverted index: each doc posts every
    distinct ``shingle_words``-gram (prefix filtering is unsound here —
    the required overlap depends on the pair's SMALLER set, which
    neither side knows alone); the per-pair sum of partition-local
    co-occurrence counts IS the intersection size, so no second
    verification pass touches the text. Feasible precisely because
    multi-word shingles are rare (unigram df² blows up on stopwords;
    shingle df is ~1 outside true duplicate mass). Hot shingles (shared
    boilerplate) are capped at ``group_cap`` ids per partition group
    with logged drops — pair completeness at scale relies on boilerplate
    going through :func:`chunk_dedup` first, same contract as the
    jaccard/minhash group caps. The gate is integer-exact
    (``inter * 10000 >= tau_bp * min``): no float threshold boundary.

    Shingles are hashed by a 64-bit polynomial combine over murmur
    token hashes (collision ~2^-64); docs with fewer than
    ``shingle_words`` tokens post nothing and cannot pair.
    """
    from mhray.kernels import pair_run_starts

    num_parts = parts_for(ds, num_parts)
    postings = ds.map_batches(make_shingle_postings(shingle_words, text_col,
                                                    id_col, num_parts),
                              batch_format="pyarrow", zero_copy_batch=True)
    pairs = exchange(postings, "part", num_parts,
                     make_emit_pairs(group_cap, payload_cols=("n_sh",),
                                     num_parts=num_parts))

    def containment_gate(part: pa.Table) -> pa.Table:
        lo = np.asarray(part.column("lo"), dtype=np.int64)
        hi = np.asarray(part.column("hi"), dtype=np.int64)
        na = np.asarray(part.column("n_sh_lo"), dtype=np.int64)
        nb = np.asarray(part.column("n_sh_hi"), dtype=np.int64)
        n = np.asarray(part.column("partial_count"), dtype=np.int64)
        # sum partition-local co-occurrence counts per pair = |A ∩ B|
        order = np.lexsort((hi, lo))
        lo_s, hi_s, na_s, nb_s, n_s = (lo[order], hi[order], na[order],
                                       nb[order], n[order])
        starts = pair_run_starts(lo_s, hi_s)
        # pairs are sorted: reduceat keeps the sums integer-exact
        inter = np.add.reduceat(n_s, starts) \
            if len(starts) else np.empty(0, np.int64)
        lo_u, hi_u = lo_s[starts], hi_s[starts]
        mn = np.minimum(na_s[starts], nb_s[starts])
        keep = inter * 10000 >= tau_bp * mn
        scaled = inter[keep] * 10000.0 / mn[keep]
        cont_bp = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)) \
            .astype(np.int64)  # DuckDB ROUND: half away from zero
        return pa.table({
            "lo_id": pa.array(lo_u[keep], pa.int64()),
            "hi_id": pa.array(hi_u[keep], pa.int64()),
            "cont_bp": pa.array(cont_bp, pa.int64()),
        })

    return exchange(pairs, "pair_part", num_parts, containment_gate)


# ---------------------------------------------------------------------------
# SimHash near-dup pairs
# ---------------------------------------------------------------------------

def simhash_pairs(ds, max_hamming: int = 6, k: int = 6,
                  text_col: str = "text", id_col: str = "doc_id",
                  n_bands: int = 4, band_bits: int = 16,
                  num_parts: int | None = None, group_cap: int = 2000):
    """(lo, hi, hamming) pairs whose SimHash Hamming distance <=
    max_hamming, candidates from contiguous-block banding."""
    from mhray.kernels import hamming64, simhash64

    num_parts = parts_for(ds, num_parts)

    def add_simhash(batch: pa.Table) -> pa.Table:
        sh = simhash64(batch.column(text_col).to_pylist(), k)
        return pa.table({
            "iid": batch.column(id_col).cast(pa.int64()),
            "phash": pa.array(sh, pa.int64()),  # reuse phash explode path
        })

    sh_ds = ds.map_batches(add_simhash, batch_format="pyarrow",
                           zero_copy_batch=True)
    from mhray.stages.candidates import explode_phash_bands

    bands = sh_ds.map_batches(
        explode_phash_bands,
        fn_kwargs={"n_bands": n_bands, "band_bits": band_bits,
                   "num_parts": num_parts},
        batch_format="pyarrow", zero_copy_batch=True,
    )
    pairs = exchange(bands, "part", num_parts,
                     make_emit_pairs(group_cap, payload_cols=("phash",)))

    def gate(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("phash_lo"), dtype=np.int64)
        b = np.asarray(batch.column("phash_hi"), dtype=np.int64)
        ham = hamming64(a, b).astype(np.int32)
        keep = pa.array(ham <= max_hamming)
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
            "hamming": pa.array(ham[np.asarray(keep)], pa.int32()),
        })

    gated = pairs.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
    out = gated.groupby(["lo", "hi"]).min("hamming").rename_columns(
        {"min(hamming)": "hamming"})
    # int64 so the driver's value-hash sees the same lexical type as
    # the SQL oracle's BIGINT
    return out.map_batches(
        lambda b: b.set_column(b.schema.get_field_index("hamming"),
                               "hamming", b.column("hamming").cast(pa.int64())),
        batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# MHAP two-stage pipeline on a plain text table
# ---------------------------------------------------------------------------

def docs_as_images(ds, text_col: str = "text", id_col: str = "doc_id"):
    """(id, text) table -> the image+caption schema the sketch stage
    expects (empty image payloads; ids become 'doc_NNN' so image_iid
    round-trips the numeric id)."""

    def rename(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        return pa.table({
            "image_id": pa.array([f"doc_{int(i):012d}" for i in ids]),
            "bytes": pa.array([b""] * len(ids), pa.binary()),
            "w": pa.array(np.zeros(len(ids), np.int32)),
            "h": pa.array(np.zeros(len(ids), np.int32)),
            "fmt": pa.array(["none"] * len(ids)),
            "caption": batch.column(text_col),
            "phash": pa.array(np.zeros(len(ids), np.int64)),
        })

    return ds.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def minhash_text_pairs(ds, cfg: MhapConfig, text_col: str = "text",
                       id_col: str = "doc_id", num_parts: int | None = None):
    """(lo, hi, shared_slots, score, ...) via signature LSH + verify —
    the MHAP flagship machinery on any (id, text) table."""
    from mhray.stages.candidates import minhash_candidates
    from mhray.stages.sketch import sketch_dataset
    from mhray.stages.verify import verify_candidates

    as_images = docs_as_images(ds, text_col, id_col)
    sketches = sketch_dataset(as_images, cfg, decode_pixels=False)
    valid = sketches.filter(expr="valid == True").materialize()
    cands = minhash_candidates(valid, cfg, num_parts)
    return verify_candidates(cands, valid, cfg, num_parts)


def dup_rate_by_source(ds, text_col: str = "text", id_col: str = "doc_id",
                       source_col: str = "source",
                       num_parts: int | None = None):
    """Per-source exact-duplicate rates: (source, n_docs, n_dups,
    dup_bp) where a dup is any row whose text appears elsewhere in the
    corpus and is not its group's min-id keeper. ONE text-hash
    partition marks dups (cross-source groups handled exactly —
    the partition key is the text, not the source), then a tiny
    source aggregate. The curation dashboard's "which feed is
    polluting the corpus" metric."""
    from ray.data.aggregate import Count, Sum

    from mhray.kernels import hash_strings64

    num_parts = parts_for(ds, num_parts)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash_strings64(batch.column(text_col))
        return pa.table({
            "part": pa.array(_part_of(h, num_parts), pa.int32()),
            "h": pa.array(h, pa.int64()),
            id_col: batch.column(id_col),
            source_col: batch.column(source_col),
        })

    def mark(part: pa.Table) -> pa.Table:
        h = np.asarray(part.column("h"), dtype=np.int64)
        d = np.asarray(part.column(id_col), dtype=np.int64)
        src = np.asarray(part.column(source_col).to_pylist())
        order = np.lexsort((d, h))
        h_s, d_s, s_s = h[order], d[order], src[order]
        first = np.ones(len(h_s), dtype=bool)
        if len(h_s) > 1:
            first[1:] = np.diff(h_s) != 0
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, len(h_s)))
        keeper = np.repeat(d_s[starts], sizes)
        grp_n = np.repeat(sizes, sizes)
        dup = (grp_n > 1) & (d_s != keeper)
        return pa.table({
            source_col: pa.array(s_s),
            "is_dup": pa.array(dup.astype(np.int64), pa.int64()),
        })

    agg = exchange(ds.map_batches(add_hash, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   "part", num_parts, mark) \
        .groupby(source_col).aggregate(Count(alias_name="n_docs"),
                                       Sum("is_dup", alias_name="n_dups"))

    def ratio(batch: pa.Table) -> pa.Table:
        n = np.asarray(batch.column("n_docs"), dtype=np.int64)
        d = np.asarray(batch.column("n_dups"), dtype=np.int64)
        scaled = d * 10000.0 / n
        bp = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)) \
            .astype(np.int64)
        return pa.table({
            source_col: batch.column(source_col),
            "n_docs": pa.array(n, pa.int64()),
            "n_dups": pa.array(d, pa.int64()),
            "dup_bp": pa.array(bp, pa.int64()),
        })

    return agg.map_batches(ratio, batch_format="pyarrow",
                           zero_copy_batch=True)
