"""Exact distributed quantile bucketing (ANSI NTILE semantics).

The standard training-data curation step "drop the bottom-quality
decile" needs every row's EXACT global quantile bucket — rank-based,
not value-interpolated (q_percentiles covers that shape). A global
row-number pass is the naive answer and serializes on the driver;
instead:

1. ``sort`` by the (value, id) composite (all-distinct keys: ties are
   broken by id exactly like the oracle's ``ORDER BY val, id``),
2. locate each bucket's starting RANK inside the sorted block layout
   using block-count METADATA only (no data moves),
3. fetch ONLY the <= n_buckets-1 blocks that contain a boundary rank
   and read one key each,
4. broadcast those boundary keys and assign buckets per batch with
   <= n_buckets-1 vectorized comparisons.

Driver cost is O(blocks) metadata + (n_buckets-1) single-block reads,
independent of corpus size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray


def _bucket_starts(total: int, n_buckets: int) -> list[int]:
    """0-based start rank of each bucket, ANSI NTILE fill: the first
    ``total % n_buckets`` buckets take ``ceil(total/n)`` rows."""
    q, rem = divmod(total, n_buckets)
    return [b * (q + 1) if b < rem else rem * (q + 1) + (b - rem) * q
            for b in range(n_buckets)]


def ntile(ds, n_buckets: int, val_col: str, id_col: str,
          bucket_col: str = "bucket"):
    """Append ``bucket_col`` = NTILE(n_buckets) OVER (ORDER BY val_col,
    id_col) to every row. (val_col, id_col) must be unique per row
    (id_col unique suffices), which makes the rank — and therefore the
    bucket — engine-independent. ``val_col`` must be NaN-free (NTILE
    ordering over NaN is undefined); a NaN landing on a bucket
    boundary raises rather than silently collapsing the bucket.
    """
    sorted_ds = ds.sort([val_col, id_col]).materialize()
    blocks = []  # (ref, num_rows) in sorted order
    for bundle in sorted_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            n = meta.num_rows
            if n is None:  # pragma: no cover - post-sort blocks carry counts
                n = len(ray.get(ref))
            blocks.append((ref, n))
    counts = np.array([n for _, n in blocks], np.int64)
    total = int(counts.sum())
    if total == 0:
        def tag_empty(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                bucket_col, pa.array(np.ones(batch.num_rows, np.int64),
                                     pa.int64()))
        return sorted_ds.map_batches(tag_empty, batch_format="pyarrow")

    cum = np.concatenate(([0], np.cumsum(counts)))
    need: dict[int, list[tuple[int, int]]] = {}
    for b, r in enumerate(_bucket_starts(total, n_buckets)[1:], start=2):
        if r >= total:  # more buckets than rows: trailing buckets empty
            continue
        blk = int(np.searchsorted(cum, r, side="right") - 1)
        need.setdefault(blk, []).append((b, r - int(cum[blk])))

    bounds = []  # (val, id, bucket), ascending by construction
    for blk in sorted(need):
        tbl = ray.get(blocks[blk][0])
        if not isinstance(tbl, pa.Table):  # pandas block fallback
            tbl = pa.Table.from_pandas(tbl)
        for b, off in need[blk]:
            bounds.append((tbl.column(val_col)[off].as_py(),
                           tbl.column(id_col)[off].as_py(), b))

    bvals = np.array([x[0] for x in bounds])
    bids = np.array([x[1] for x in bounds])
    bbuckets = np.array([x[2] for x in bounds], np.int64)
    if bvals.dtype.kind == "f" and np.isnan(bvals).any():
        # a NaN boundary makes every >=-comparison False and silently
        # collapses that bucket for ALL rows — refuse loudly instead
        raise ValueError(
            f"ntile: {val_col} contains NaN at a bucket boundary; "
            "NTILE ordering over NaN is undefined — filter or fill "
            "the column first")

    def assign(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(val_col))
        d = np.asarray(batch.column(id_col))
        bucket = np.ones(batch.num_rows, np.int64)
        for bv, bi, bb in zip(bvals, bids, bbuckets):
            ge = (v > bv) | ((v == bv) & (d >= bi))
            bucket[ge] = bb
        return batch.append_column(bucket_col,
                                   pa.array(bucket, pa.int64()))

    return sorted_ds.map_batches(assign, batch_format="pyarrow",
                                 zero_copy_batch=True)


def dense_rank_in_group(ds, key_col: str, val_col: str,
                        carry_cols: tuple[str, ...] = (),
                        rank_col: str = "rank",
                        descending: bool = True,
                        num_parts: int | None = None):
    """Per-group DENSE_RANK: rank of each row's ``val_col`` within its
    ``key_col`` group, ties sharing a rank with no gaps — the ANSI
    ``DENSE_RANK() OVER (PARTITION BY key ORDER BY val [DESC])`` shape
    every "keep each group's top-priced variants" curation rule needs.

    Because equal values share a rank, the output is engine-independent
    under ties without any id tiebreak (unlike ROW_NUMBER). One hash
    partition by key, then one lexsort + two vectorized change-flag
    cumsums per partition — no per-group Python. ``val_col`` must be
    NaN-free (rank order over NaN is undefined; values are compared,
    never recomputed, so float ties match SQL bit-for-bit)."""
    from mhray.rayutil import exchange, parts_for
    from mhray.stages.candidates import _part_of

    num_parts = parts_for(ds, num_parts)
    cols = [key_col, val_col, *carry_cols]

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        out = {"__part": pa.array(_part_of(key, num_parts), pa.int32())}
        for c in cols:
            out[c] = batch.column(c)
        return pa.table(out)

    def ranks(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column(key_col), dtype=np.int64)
        v = group.column(val_col).to_numpy(zero_copy_only=False)
        if v.dtype.kind == "f" and np.isnan(v).any():
            raise ValueError(
                f"dense_rank_in_group: {val_col} contains NaN — rank "
                "order over NaN is undefined; filter or fill first")
        n = len(key)
        order = np.lexsort((-v if descending else v, key))
        key_s, v_s = key[order], v[order]
        new_key = np.ones(n, dtype=bool)
        new_val = np.ones(n, dtype=bool)
        if n > 1:
            new_key[1:] = np.diff(key_s) != 0
            new_val[1:] = (v_s[1:] != v_s[:-1]) | new_key[1:]
        csum = np.cumsum(new_val.astype(np.int64))
        starts = np.flatnonzero(new_key)
        seg_len = np.diff(np.append(starts, n))
        base = np.repeat(csum[starts] - 1, seg_len) if n else csum
        take = pa.array(order, pa.int64())
        out = {c: group.column(c).take(take) for c in cols}
        out[rank_col] = pa.array(csum - base, pa.int64())
        return pa.table(out)

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, ranks)
