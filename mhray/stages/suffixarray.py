"""Per-group generalized suffix-array exact-substring pass — the
literal "suffix-array" leg of the north-star trio (MinHash / SimHash /
suffix-array substring).

Same contract as :func:`mhray.stages.substring.substring_pairs` —
``(lo, hi, lcs_len)`` for every doc pair whose longest common substring
is >= ``min_len`` — but the detection engine is a generalized suffix
array instead of per-pair LCS probes:

1. winnowed L-gram fingerprints (shared with ``substring_pairs``) key
   the co-grouping — the winnowing theorem guarantees any pair with a
   common substring >= ``min_len`` shares at least one selected
   fingerprint, so grouping by fingerprint is COMPLETE for the
   guarantee length (this is the documented partitioning assumption);
2. only fingerprints with >= 2 member docs become groups, so text
   bytes are replicated collision-proportionally (never corpus-
   proportionally), member-set-deduped per partition and capped at
   ``group_cap`` with logged drops;
3. per group, ONE generalized suffix array over the concatenated
   member texts (numpy prefix-doubling, O(n log n) lexsorts — no
   per-suffix Python), adjacent-suffix LCPs via a simultaneous
   vectorized binary search over O(1) rolling window hashes, and a
   run-sweep: maximal runs of adjacent LCP >= min_len are exactly the
   suffix blocks sharing a >= min_len prefix, so every distinct doc
   pair inside a run is a true candidate (two suffixes of one doc can
   never match across the per-doc unique sentinels);
4. pairs are deduped across groups with one narrow (lo, hi) shuffle
   and re-verified with the collision-proof exact-LCS kernel (rolling-
   hash LCP can only OVERstate on a 64-bit collision, never
   understate, so the verify removes any false positive and the final
   output is exact).

Reference behavior matched: the same >= min_len exact-substring pair
semantics as ``substring_pairs`` (MHAP's sketch passes cannot see
short texts with one long verbatim quote — `sketch/MinHashSketch.java`
k-mer sampling); parity between the two engines is pytest-asserted
table-for-table.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.stages.candidates import (_pairs_within_groups, _part_of,
                                     auto_parts)
from mhray.stages.substring import (_hash_prep, _winnow_select,
                                    longest_common_substring_len)


def dedupe_member_sets(seth: np.ndarray, sizes: np.ndarray,
                       members: np.ndarray) -> np.ndarray:
    """Keep-mask over groups, collapsing groups with IDENTICAL member
    sets: ``seth`` (one order-free hash per group) provides the
    adjacency key, ``members`` holds each group's sorted members
    concatenated in group order (``sizes`` gives the lengths).
    Hash-adjacent groups are compared EXACTLY on their member arrays,
    so a hash collision between distinct sets can only keep a
    redundant group (extra work, deduped by the downstream pair
    shuffle), never drop one — dropping would be an unrecoverable
    false negative, since the verify stage only removes false
    POSITIVES."""
    from mhray.kernels import expand_spans

    vstart = np.cumsum(sizes) - sizes  # group slices within members
    grp_order = np.lexsort((members[vstart], sizes, seth))
    seth_s = seth[grp_order]
    size_s = sizes[grp_order]
    start_s = vstart[grp_order]
    cand = np.flatnonzero((seth_s[1:] == seth_s[:-1])
                          & (size_s[1:] == size_s[:-1]))
    keep_group = np.ones(len(sizes), bool)
    if len(cand):
        szs = size_s[cand]
        row, li = expand_spans(start_s[cand], start_s[cand] + szs)
        ri = li + (start_s[cand + 1] - start_s[cand])[row]
        eq = members[li] == members[ri]
        bounds = np.cumsum(szs) - szs
        pair_eq = np.logical_and.reduceat(eq, bounds)
        # equal-to-previous marks duplicates; identical sets sort
        # adjacent (equal hash, size, first member — and stable order
        # within ties), so equal runs collapse to their first group —
        # transitively, since every later member of an equal run
        # equals its predecessor
        dup_sorted = np.zeros(len(grp_order), bool)
        dup_sorted[cand[pair_eq] + 1] = True
        keep_group[grp_order[dup_sorted]] = False
    return keep_group


def suffix_array(arr: np.ndarray) -> np.ndarray:
    """Suffix array of an int64 sequence by prefix doubling: log(n)
    rounds of ``np.lexsort`` over (rank, rank-shifted-by-k). Fully
    vectorized; terminates early once all ranks are distinct (always,
    for inputs whose docs end in unique sentinels)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, np.int64)
    if n == 1:
        return np.zeros(1, np.int64)
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
    k = 1
    while True:
        key2 = np.full(n, -1, np.int64)
        key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        r1, r2 = rank[order], key2[order]
        bump = np.empty(n, np.int64)
        bump[0] = 0
        bump[1:] = (r1[1:] != r1[:-1]) | (r2[1:] != r2[:-1])
        new_sorted = np.cumsum(bump)
        rank = np.empty(n, np.int64)
        rank[order] = new_sorted
        if new_sorted[-1] == n - 1 or k >= n:
            return order.astype(np.int64)
        k <<= 1


def adjacent_lcp(arr: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP between each adjacent suffix pair of ``sa``, all pairs at
    once: binary lifting where every step tests hash equality of the
    two candidate prefixes via O(1) rolling window hashes (shared
    ``_hash_prep`` state). 64-bit collisions can only OVERstate an
    entry — callers re-verify emitted pairs with the exact kernel."""
    n = len(arr)
    if n < 2:
        return np.empty(0, np.int64)
    prefix, invpow = _hash_prep(arr.view(np.uint64)
                                if arr.dtype == np.int64 else arr)

    def whash(pos: np.ndarray, length: np.ndarray) -> np.ndarray:
        hi = prefix[pos + length - 1]
        lo = np.where(pos > 0, prefix[np.maximum(pos - 1, 0)],
                      np.uint64(0))
        with np.errstate(over="ignore"):
            return (hi - lo) * invpow[pos]

    p, q = sa[:-1], sa[1:]
    limit = n - np.maximum(p, q)
    lcp = np.zeros(len(p), np.int64)
    step = 1 << (int(limit.max()).bit_length() - 1) if limit.max() > 0 else 0
    while step:
        trial = lcp + step
        idx = np.flatnonzero(trial <= limit)
        if len(idx):
            L = trial[idx]
            good = whash(p[idx], L) == whash(q[idx], L)
            lcp[idx[good]] += step
        step >>= 1
    return lcp


def _group_candidate_pairs(units_concat: np.ndarray, doc_of: np.ndarray,
                           min_len: int, pair_cap: int):
    """(lo_doc, hi_doc) for every distinct doc pair that shares a
    >= min_len substring inside ONE group, via suffix array + LCP
    run-sweep. ``units_concat`` must already carry a unique negative
    sentinel after each doc (so no run crosses a doc boundary)."""
    sa = suffix_array(units_concat)
    lcp = adjacent_lcp(units_concat, sa)
    hot = lcp >= min_len
    if not hot.any():
        return (np.empty(0, np.int64),) * 2
    # maximal runs of consecutive hot adjacencies: suffixes
    # sa[i..j+1] of a run all share a >= min_len prefix
    run_edge = np.empty(len(hot), np.int64)
    run_edge[0] = 0
    run_edge[1:] = (~hot[:-1]) & hot[1:]
    run_id_adj = np.cumsum(run_edge)
    # member suffixes of each run: position p joins the run of a hot
    # adjacency on either side; inside a run both sides carry the same
    # run id, so prefer the right adjacency and fall back to the left
    memb_pos = np.flatnonzero(np.concatenate((hot, [False]))
                              | np.concatenate(([False], hot)))
    right = np.minimum(memb_pos, len(hot) - 1)
    memb_run = np.where((memb_pos < len(hot)) & hot[right],
                        run_id_adj[right],
                        run_id_adj[np.maximum(memb_pos - 1, 0)])
    docs = doc_of[sa[memb_pos]]
    # dedupe (run, doc), then emit all intra-run doc pairs
    key = memb_run * (doc_of.max() + np.int64(2)) + docs
    _, first = np.unique(key, return_index=True)
    lo, hi, _, dropped = _pairs_within_groups(
        memb_run[first], docs[first], pair_cap)
    if dropped:
        print(f"[mhray] suffix-array run cap: dropped {dropped} "
              "suffix-run members in one group")
    if len(lo) == 0:
        return (np.empty(0, np.int64),) * 2
    # dedupe pairs across runs of this group
    pk = lo * (doc_of.max() + np.int64(2)) + hi
    _, pfirst = np.unique(pk, return_index=True)
    return lo[pfirst], hi[pfirst]


def suffix_array_pairs(ds, min_len: int = 32, window: int = 8,
                       text_col: str = "text", id_col: str = "doc_id",
                       num_parts: int | None = None,
                       group_cap: int = 2000):
    """(lo, hi, lcs_len) doc pairs with an exact common substring
    >= ``min_len``, suffix-array engine. Same semantics (and pytest-
    asserted same output) as ``substring_pairs``; see module docstring
    for the four-stage distributed shape."""
    from mhray.kernels import encode_utf16_batch, shingle_hashes64
    from mhray.rayutil import (attach_payload, attach_payload_both,
                               scrub_blocks)

    num_parts = auto_parts(num_parts)
    if min_len < 4:
        raise ValueError("suffix_array_pairs needs min_len >= 4 "
                         "(the minimum fingerprint gram)")
    window = min(window, min_len - 3)
    gram = max(4, min_len - window + 1)

    texts_ds = ds.select_columns([id_col, text_col])
    if text_col != "text":
        texts_ds = texts_ds.rename_columns({text_col: "text"})
    texts_ds = texts_ds.materialize()

    def fingerprint(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        hashes, offs = shingle_hashes64(texts, gram)
        sel, doc_sel = _winnow_select(hashes, offs, window)
        key = sel.view(np.int64)
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(ids[doc_sel], pa.int64()),
        })

    def emit_groups(part: pa.Table) -> pa.Table:
        """Per partition: fingerprint keys with >= 2 distinct member
        docs become (gid, iid) memberships, member-set-deduped (many
        fingerprints of the same colliding pair would otherwise each
        ship the same texts) and capped at ``group_cap``."""
        keys = np.asarray(part.column("key"), np.int64)
        iids = np.asarray(part.column("iid"), np.int64)
        if len(keys) == 0:
            return pa.table({"gid": pa.array([], pa.int64()),
                             "iid": pa.array([], pa.int64())})
        order = np.lexsort((iids, keys))
        k, v = keys[order], iids[order]
        dup = np.zeros(len(k), bool)
        dup[1:] = (k[1:] == k[:-1]) & (v[1:] == v[:-1])
        k, v = k[~dup], v[~dup]
        starts = np.flatnonzero(np.diff(k, prepend=k[0] - 1))
        sizes = np.diff(np.append(starts, len(k)))
        multi = sizes >= 2
        if not multi.any():
            return pa.table({"gid": pa.array([], pa.int64()),
                             "iid": pa.array([], pa.int64())})
        kept = np.minimum(sizes, group_cap)
        dropped = int((sizes - kept)[multi].sum())
        if dropped:
            print(f"[mhray] suffix-array group cap: dropped {dropped} "
                  "member docs in one partition")
        # collapse groups with identical membership inside this
        # partition (exact comparison keyed by an order-free set hash
        # — see dedupe_member_sets for the collision-safety argument)
        from mhray.kernels import expand_spans

        m_starts, m_kept = starts[multi], kept[multi]
        gid_ord, idx = expand_spans(m_starts, m_starts + m_kept)
        vv = v[idx]
        with np.errstate(over="ignore"):
            h = vv.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            h ^= h >> np.uint64(29)
            seth = np.zeros(len(m_starts), np.uint64)
            np.add.at(seth, gid_ord, h)  # order-free set hash
        keep_group = dedupe_member_sets(seth, m_kept, vv)
        sel = keep_group[gid_ord]
        return pa.table({
            "gid": pa.array(k[m_starts][gid_ord[sel]], pa.int64()),
            "iid": pa.array(vv[sel], pa.int64()),
        })

    memb = texts_ds.map_batches(fingerprint, batch_format="pyarrow",
                                zero_copy_batch=True) \
        .groupby("part", num_partitions=num_parts) \
        .map_groups(emit_groups, batch_format="pyarrow")
    memb = scrub_blocks(memb, pa.schema([("gid", pa.int64()),
                                         ("iid", pa.int64())]), num_parts)

    with_text = attach_payload(
        memb, "iid", texts_ds, id_col, ("text",), "t",
        num_parts=num_parts,
        pairs_schema=pa.schema([("gid", pa.int64()), ("iid", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("text", pa.string())]))

    def sa_emit(group: pa.Table) -> pa.Table:
        ids = np.asarray(group.column("iid"), np.int64)
        texts = group.column("text_t").to_pylist()
        units, offs = encode_utf16_batch(texts)
        n_docs = len(texts)
        lens = np.diff(offs)
        total = int(offs[-1]) + n_docs
        concat = np.empty(total, np.int64)
        doc_of = np.empty(total, np.int64)
        pos = np.arange(total)
        # sentinel slots sit at the end of each doc's span
        sent_at = np.cumsum(lens + 1) - 1
        is_sent = np.zeros(total, bool)
        is_sent[sent_at] = True
        doc_of[:] = np.searchsorted(sent_at, pos, side="left")
        concat[~is_sent] = units.astype(np.int64)
        concat[is_sent] = -(np.arange(n_docs, dtype=np.int64) + 1)
        lo, hi = _group_candidate_pairs(concat, doc_of, min_len,
                                        pair_cap=group_cap)
        return pa.table({
            "lo": pa.array(ids[lo], pa.int64()),
            "hi": pa.array(ids[hi], pa.int64()),
        })

    def order_pair(batch: pa.Table) -> pa.Table:
        lo = np.asarray(batch.column("lo"), np.int64)
        hi = np.asarray(batch.column("hi"), np.int64)
        return pa.table({"lo": pa.array(np.minimum(lo, hi), pa.int64()),
                         "hi": pa.array(np.maximum(lo, hi), pa.int64())})

    cands = with_text.groupby("gid").map_groups(
        sa_emit, batch_format="pyarrow") \
        .map_batches(order_pair, batch_format="pyarrow",
                     zero_copy_batch=True) \
        .groupby(["lo", "hi"]).count()
    cands = scrub_blocks(cands, pa.schema([
        ("lo", pa.int64()), ("hi", pa.int64()), ("count()", pa.int64())]),
        num_parts)

    j = attach_payload_both(
        cands, texts_ds, id_col, ("text",), num_parts=num_parts,
        pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                ("count()", pa.int64())]),
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("text", pa.string())]))

    def verify(batch: pa.Table) -> pa.Table:
        ta = batch.column("text_lo").to_pylist()
        tb = batch.column("text_hi").to_pylist()
        n = batch.num_rows
        lcs = np.zeros(n, dtype=np.int64)
        for i in range(n):
            lcs[i] = longest_common_substring_len(ta[i], tb[i],
                                                  at_least=min_len)
        keep = pa.array(lcs >= min_len)
        return pa.table({
            "lo": batch.column("lo").filter(keep),
            "hi": batch.column("hi").filter(keep),
            "lcs_len": pa.array(lcs[np.asarray(keep)], pa.int64()),
        })

    return j.map_batches(verify, batch_format="pyarrow",
                         zero_copy_batch=True)
