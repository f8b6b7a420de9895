"""Edit-distance similarity self-join (fuzzy near-dup pairs).

The fourth near-dup geometry next to token-Jaccard (set overlap),
SimHash (bit distance) and exact-substring (contiguous overlap):
pairs whose FULL texts are within k Levenshtein edits — the classic
fuzzy-match dedup for titles / captions where a handful of character
typos separate duplicates that shingling already catches only
probabilistically.

Scale shape (the q-gram count-filter ssjoin, Gravano et al. VLDB'01,
re-expressed on the repo's prefix-filter machinery):

1. per-doc DISTINCT character q-gram hashes (one shingle-hash call +
   one lexsort per batch — no per-row Python),
2. a global gram document-frequency table from one partial-count
   pass (``rayutil.top_counts``: per-batch counts, one key-hash
   shuffle with a partition-local top-``df_top_k``, no global sort),
   broadcast once (``ray.put``); grams outside the cap rank as df=1,
   which changes pruning efficiency, never the result set,
3. prefix postings: each doc posts only its ``q*k + 1`` RAREST grams
   (global df-ascending order, ties by hash). Completeness: k edits
   destroy at most ``q*k`` positional q-grams, so at most ``q*k``
   DISTINCT grams of one side can be absent from the other — two docs
   within k edits therefore always share a gram inside these prefixes
   (prefix-filter theorem with t = max(|A|,|B|) - q*k; the fixed
   ``q*k + 1`` prefix is a superset of the required one). Rarest-first
   ordering keeps posting groups small at corpus scale.
4. one hash-partition shuffle of the postings, vectorized in-group
   pair emission restricted to length-compatible pairs
   (``kernels.window_pairs``), pair dedup,
5. verify: banded Levenshtein (band ``2k+1``) on the candidate pairs
   only — post-gate, output-proportional, each row fully vectorized
   with the min-accumulate trick so the DP is O(len) numpy row sweeps,
   with an early exit once the band minimum exceeds k.

Pairs where either text is shorter than ``min_len`` code points are
out of scope (callers pick ``min_len`` so their SQL-side prefilter —
e.g. a shared-window pigeonhole join — stays complete; see
``q_edit_pairs``). ``min_len`` must leave every in-scope doc more than
``q*k`` grams (``min_len - q + 1 > q*k``): a shorter doc can lose its
whole gram set to k edits, so the prefix filter could miss its pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from mhray.rayutil import HEAVY_PART_ROWS, exchange, parts_for
from mhray.stages.candidates import _part_of
from mhray.stages.dedup import _blob_concat


def _codepoints(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def banded_levenshtein(a: str, b: str, k: int) -> int:
    """Exact Levenshtein distance when it is <= k, else any value > k.

    Row-sweep DP over code points with the band clipped to ``2k+1``
    around the diagonal; the within-row left-to-right dependency
    (insertions) is resolved with the min-accumulate identity
    ``cur[j] = min(cur[j], cur[j-1]+1)``  ⇔  subtract the index ramp,
    ``np.minimum.accumulate``, add the ramp back."""
    av, bv = _codepoints(a), _codepoints(b)
    la, lb = len(av), len(bv)
    if abs(la - lb) > k:
        return k + 1
    if la > lb:
        av, bv, la, lb = bv, av, lb, la
    big = np.int64(k + 1)
    ramp = np.arange(1, lb + 1, dtype=np.int64)
    prev = np.concatenate(([0], ramp))  # row 0
    for i in range(1, la + 1):
        sub = prev[:-1] + (bv != av[i - 1])
        cur0 = np.minimum(prev[1:] + 1, sub)  # delete / substitute
        t = np.minimum(np.concatenate(([np.int64(i)], cur0)) - np.concatenate(([0], ramp)), big)
        np.minimum.accumulate(t, out=t)
        cur = t + np.concatenate(([0], ramp))
        cur[0] = i
        # band clip: cells further than k from the diagonal can never
        # come back under k — cap them so the early exit sees through
        off_band = np.abs(np.arange(lb + 1) - i) > k
        cur[off_band] = big
        if cur.min() > k:
            return k + 1
        prev = cur
    return int(prev[-1])


def edit_distance_pairs(ds, k: int = 4, q: int = 8, min_len: int = 104,
                        text_col: str = "text", id_col: str = "doc_id",
                        num_parts: int | None = None,
                        group_cap: int = 100000,
                        df_top_k: int = 100_000):
    """(lo, hi, dist) for every unordered doc pair with
    Levenshtein(text, text) <= k, both texts >= ``min_len`` code
    points. Exact (the q-gram prefix filter is complete — header);
    raises ValueError when ``min_len`` is too short for that proof."""
    from mhray.kernels import shingle_hashes64, window_pairs
    from mhray.rayutil import attach_payload_both, top_counts

    if min_len - q + 1 <= q * k:
        raise ValueError(
            f"min_len={min_len} leaves {min_len - q + 1} {q}-grams per "
            f"doc, not more than q*k={q * k}: {k} edits could destroy "
            "them all and the prefix filter would miss pairs")
    R = q * k + 1  # prefix postings per doc

    import pyarrow.compute as pc

    def eligible(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(pc.utf8_length(batch.column(text_col)),
                                pa.scalar(min_len))
        t = batch.filter(keep)
        return pa.table({id_col: t.column(id_col),
                         text_col: t.column(text_col)})

    docs = ds.map_batches(eligible, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    # the per-pair verify runs one task per partition: size it as a
    # compute-heavy consumer
    num_parts = parts_for(docs, num_parts, rows_per_part=HEAVY_PART_ROWS)

    def gramize(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        lens = pc.utf8_length(batch.column(text_col)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        h, offs = shingle_hashes64(batch.column(text_col), q)
        hu = h.view(np.uint64)
        counts = np.diff(offs)
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        order = np.lexsort((hu, doc_idx))
        d_s, h_s = doc_idx[order], hu[order]
        keep = np.ones(len(h_s), dtype=bool)
        keep[1:] = (h_s[1:] != h_s[:-1]) | (d_s[1:] != d_s[:-1])
        d_u, h_u = d_s[keep], h_s[keep]
        n_g = np.bincount(d_u, minlength=len(ids)).astype(np.int64)
        goffs = np.zeros(len(ids) + 1, np.int64)
        np.cumsum(n_g, out=goffs[1:])
        blobs = pa.Array.from_buffers(
            pa.binary(), len(ids),
            [None, pa.py_buffer((goffs * 8).astype(np.int32).tobytes()),
             pa.py_buffer(np.ascontiguousarray(h_u, dtype="<u8").tobytes())])
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "len": pa.array(lens, pa.int64()),
                         "gram_blob": blobs})

    grams = docs.map_batches(gramize, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()

    def explode_grams(batch: pa.Table) -> pa.Table:
        flat, _ = _blob_concat(batch.column("gram_blob"))
        return pa.table({"g": pa.array(flat.view(np.int64), pa.int64())})

    fk, fv, _ = top_counts(
        grams.map_batches(explode_grams, batch_format="pyarrow"),
        "g", df_top_k, num_parts)
    freq_ref = ray.put((fk, fv))

    def prefix_postings(batch: pa.Table) -> pa.Table:
        keys_sorted, vals = ray.get(freq_ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        doc_len = np.asarray(batch.column("len"), dtype=np.int64)
        flat, offs = _blob_concat(batch.column("gram_blob"))
        th = flat.view(np.int64)
        counts = np.diff(offs)
        n_tot = len(th)
        if n_tot == 0:
            return pa.table({"part": pa.array([], pa.int32()),
                             "key": pa.array([], pa.int64()),
                             "iid": pa.array([], pa.int64()),
                             "len": pa.array([], pa.int64())})
        doc_idx = np.repeat(np.arange(len(counts)), counts)
        if len(keys_sorted):
            pos = np.minimum(np.searchsorted(keys_sorted, th),
                             len(keys_sorted) - 1)
            df = np.where(keys_sorted[pos] == th, vals[pos], 1)
        else:
            df = np.ones(n_tot, np.int64)
        order = np.lexsort((th, df, doc_idx))
        rank = np.arange(n_tot, dtype=np.int64) - np.repeat(offs[:-1],
                                                            counts)
        keep = rank < R
        key = th[order][keep]
        sel = doc_idx[keep]
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(ids[sel], pa.int64()),
            "len": pa.array(doc_len[sel], pa.int64()),
        })

    def emit_len_pairs(part: pa.Table) -> pa.Table:
        """Pairs within every gram group of the partition, but ONLY
        length-compatible ones (|len_a - len_b| <= k — necessary for
        edit distance <= k). The ed-join length filter pushed INTO
        candidate emission: clustered corpora put whole near-dup
        cliques behind one rare gram, and emitting C(m,2) pairs per
        clique gram just to length-kill them later dominates the whole
        join (measured 42s -> ~8s at sf0.1). Same window shape as
        events.window_self_join: cost is input + surviving output."""
        iids = np.asarray(part.column("iid"), dtype=np.int64)
        a, b = window_pairs(np.asarray(part.column("key"), dtype=np.int64),
                            np.asarray(part.column("len"), dtype=np.int64), k)
        if len(a) > group_cap * 100:
            print(f"[mhray] edit-join pair emission large: {len(a)} "
                  "length-compatible candidates in one partition")
        x, y = iids[a], iids[b]
        return pa.table({
            "lo": pa.array(np.minimum(x, y), pa.int64()),
            "hi": pa.array(np.maximum(x, y), pa.int64()),
        })

    cands = exchange(grams.map_batches(prefix_postings,
                                       batch_format="pyarrow"),
                     "part", num_parts, emit_len_pairs) \
        .groupby(["lo", "hi"]).count()
    j = attach_payload_both(
        cands, docs, id_col, (text_col,), num_parts,
        pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                ("count()", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               (text_col, pa.string())]))
    t_lo, t_hi = f"{text_col}_lo", f"{text_col}_hi"

    def verify(batch: pa.Table) -> pa.Table:
        # length gate first: |len(a) - len(b)| <= k is necessary for
        # edit distance <= k and kills the bulk of the candidates (the
        # rare-gram postings surface every NEAR-DUP pair — shared rare
        # grams — but near-dups with word-level edits differ in length
        # far beyond k; one vectorized compare spares them all the DP)
        la = pc.utf8_length(batch.column(t_lo)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        lb_ = pc.utf8_length(batch.column(t_hi)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        batch = batch.filter(pa.array(np.abs(la - lb_) <= k))
        lo = np.asarray(batch.column("lo"), dtype=np.int64)
        hi = np.asarray(batch.column("hi"), dtype=np.int64)
        ta = batch.column(t_lo).to_pylist()
        tb = batch.column(t_hi).to_pylist()
        dist = np.full(len(lo), k + 1, np.int64)
        for i in range(len(lo)):  # post-gate: output-proportional
            dist[i] = banded_levenshtein(ta[i], tb[i], k)
        keep = dist <= k
        return pa.table({
            "lo": pa.array(lo[keep], pa.int64()),
            "hi": pa.array(hi[keep], pa.int64()),
            "dist": pa.array(dist[keep], pa.int64()),
        })

    return j.map_batches(verify, batch_format="pyarrow",
                         zero_copy_batch=True)
