"""Time-series / event-stream operators: as-of join, windowed range
self-join, inter-event gap stats.

Engine-native additions (the reference has no temporal operators —
SURVEY.md §2.10 "no windows, watermarks, or late data"); all three
follow the same distributed shape: ONE hash partition by key, a
per-partition time sort, then fully vectorized per-key logic — no
per-row lookups, no broadcast state, cost proportional to input plus
emitted output. The catalog entries in ``pipelines/queries.py``
(`ev_asof_prev`, `ev_close_pairs`, `ev_gap_stats`) are thin
parameterizations of these, each hash-checked against a DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.kernels import group_searchsorted, window_pairs
from mhray.rayutil import exchange, parts_for
from mhray.stages.candidates import _part_of


def asof_join(left_ds, right_ds, key_col: str, left_ts_col: str,
              right_ts_col: str, right_value_col: str,
              carry_cols: tuple = (), out_col: str = "asof_value",
              num_parts: int | None = None):
    """For every left row, attach the ``right_value_col`` of the right
    row with the greatest ``right_ts_col`` at-or-before the left row's
    timestamp within the same key (ties broken by greatest value —
    deterministic). Null when no right row precedes the left row.

    Output columns: ``carry_cols`` + ``out_col``. Both sides are tagged
    into one stream, hash-partitioned by key, time-sorted per partition
    and resolved by a vectorized forward-fill — the canonical
    distributed as-of, with the single shuffle being the key partition.

    Keys and timestamps must be integer-typed (cast timestamps with
    ``.cast(pa.int64())`` upstream); ``right_value_col`` must be
    integer-typed as well (the forward-fill gathers by position).
    """
    num_parts = parts_for(left_ds, num_parts)
    carry_cols = tuple(carry_cols)

    def _arrow_type(schema, name):
        base = getattr(schema, "base_schema", schema)
        if isinstance(base, pa.Schema):
            return base.field(name).type
        # PandasBlockSchema (from_pandas datasets): names + numpy dtypes;
        # object dtype (strings etc.) has no numpy mapping -> string
        dt = base.types[list(base.names).index(name)]
        try:
            return pa.from_numpy_dtype(dt)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    left_schema = left_ds.schema()
    carry_types = {c: _arrow_type(left_schema, c) for c in carry_cols}

    def tag_left(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        ts = np.asarray(batch.column(left_ts_col).cast(pa.int64()))
        cols = {
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": pa.array(ts, pa.int64()),
            "__pri": pa.array(np.ones(len(key), np.int8), pa.int8()),
            "__val": pa.array(np.zeros(len(key), np.int64), pa.int64()),
        }
        for c in carry_cols:
            cols[f"__c_{c}"] = batch.column(c)
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        ts = np.asarray(batch.column(right_ts_col).cast(pa.int64()))
        val = np.asarray(batch.column(right_value_col), dtype=np.int64)
        n = len(key)
        cols = {
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": pa.array(ts, pa.int64()),
            "__pri": pa.array(np.zeros(n, np.int8), pa.int8()),
            "__val": pa.array(val, pa.int64()),
        }
        for c in carry_cols:
            cols[f"__c_{c}"] = pa.nulls(n, carry_types[c])
        return pa.table(cols)

    tagged = left_ds.map_batches(tag_left, batch_format="pyarrow",
                                 zero_copy_batch=True).union(
        right_ds.map_batches(tag_right, batch_format="pyarrow",
                             zero_copy_batch=True))

    def resolve(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column("__key"), dtype=np.int64)
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        pri = np.asarray(group.column("__pri"), dtype=np.int8)
        val = np.asarray(group.column("__val"), dtype=np.int64)
        order = np.lexsort((val, pri, ts, key))
        key, ts, pri, val = key[order], ts[order], pri[order], val[order]
        n = len(key)
        idx = np.arange(n)
        last = np.maximum.accumulate(np.where(pri == 0, idx, -1))
        user_start = np.maximum.accumulate(
            np.where(np.diff(key, prepend=key[0] - 1) != 0, idx, -1)) \
            if n else np.empty(0, np.int64)
        matched = (last >= user_start)[pri == 1]
        probe_rows = np.flatnonzero(pri == 1)
        gather = np.maximum(last[probe_rows], 0)
        out = {}
        take = pa.array(order[probe_rows], pa.int64())
        for c in carry_cols:
            out[c] = group.column(f"__c_{c}").take(take)
        out[out_col] = pa.array(
            np.where(matched, val[gather], 0), pa.int64(), mask=~matched)
        return pa.table(out)

    return exchange(tagged, "__part", num_parts, resolve)


def window_self_join(ds, key_col: str, ts_col: str, id_col: str,
                     window_us: int, num_parts: int | None = None):
    """(lo, hi, gap_s) pairs of same-key rows within ``window_us`` of
    each other, canonical by id. Per-partition time sort + searchsorted
    window bounds + span expansion (``kernels.window_pairs``): cost is
    input + output, never the per-key quadratic."""
    num_parts = parts_for(ds, num_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": batch.column(ts_col).cast(pa.int64()),
            "__id": batch.column(id_col).cast(pa.int64()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column("__key"), dtype=np.int64)
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        rid = np.asarray(group.column("__id"), dtype=np.int64)
        a, b = window_pairs(key, ts, window_us)
        return pa.table({
            "lo": pa.array(np.minimum(rid[a], rid[b]), pa.int64()),
            "hi": pa.array(np.maximum(rid[a], rid[b]), pa.int64()),
            "gap_s": pa.array((ts[b] - ts[a]) // 1_000_000, pa.int64()),
        })

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, pairs)


def range_window_count(ds, key_col: str, ts_col: str, id_col: str,
                       window_us: int, out_col: str = "w_cnt",
                       num_parts: int | None = None):
    """Per-row interval-RANGE window count: for every row, the number
    of same-key rows with timestamp in ``[ts - window_us, ts]`` —
    peers (equal timestamps) included, which is exactly ANSI
    ``COUNT(*) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    <window> PRECEDING AND CURRENT ROW)`` semantics.

    Same distributed shape as :func:`window_self_join`: one key-hash
    partition, per-partition time sort, then two vectorized per-key
    searchsorted probes over one packed key
    (``kernels.group_searchsorted``). Cost is
    O(n log n) per partition, no per-row Python.
    """
    num_parts = parts_for(ds, num_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": batch.column(ts_col).cast(pa.int64()),
            "__id": batch.column(id_col).cast(pa.int64()),
        })

    def counts(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column("__key"), dtype=np.int64)
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        rid = np.asarray(group.column("__id"), dtype=np.int64)
        order = np.lexsort((rid, ts, key))
        key, ts, rid = key[order], ts[order], rid[order]
        hi, lo = group_searchsorted(key, ts, (ts, "right"),
                                    (ts - window_us, "left"))
        cnt = hi - lo
        return pa.table({
            key_col: pa.array(key, pa.int64()),
            id_col: pa.array(rid, pa.int64()),
            out_col: pa.array(cnt, pa.int64()),
        })

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, counts)


def gap_stats(ds, key_col: str, ts_col: str, num_parts: int | None = None):
    """Per-key inter-event gap count and total, all in exact integer
    microseconds (the LAG-window aggregate shape)."""
    num_parts = parts_for(ds, num_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            key_col: pa.array(key, pa.int64()),
            "__ts": batch.column(ts_col).cast(pa.int64()),
        })

    def gaps(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column(key_col), dtype=np.int64)
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        order = np.lexsort((ts, key))
        key, ts = key[order], ts[order]
        same = np.zeros(len(key), dtype=bool)
        same[1:] = np.diff(key) == 0
        d = np.zeros(len(ts), dtype=np.int64)
        d[1:] = np.diff(ts)
        keys = np.unique(key)
        # key is sorted here: reduceat keeps the totals integer-exact
        # (bincount accumulates float64 weights — off past 2^53 us)
        starts = np.searchsorted(key, keys)
        n_gaps = np.add.reduceat(same.astype(np.int64), starts) \
            if len(starts) else np.empty(0, np.int64)
        total = np.add.reduceat(np.where(same, d, 0), starts) \
            if len(starts) else np.empty(0, np.int64)
        return pa.table({
            key_col: pa.array(keys, pa.int64()),
            "n_gaps": pa.array(n_gaps, pa.int64()),
            "total_gap_us": pa.array(total, pa.int64()),
        })

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, gaps)


def funnel_counts(ds, key_col: str, ts_col: str, type_col: str,
                  steps: tuple[str, ...], num_parts: int | None = None):
    """Ordered funnel analysis: how many keys (users) performed
    steps[0], then steps[1] STRICTLY later, then steps[2] later still,
    ... (the greedy earliest-match semantics: each step advances to
    the MIN timestamp of that event type after the previous step's
    match — greedy-earliest maximizes later-step conversions, so it
    equals the chained MIN(ts) SQL formulation).

    One hash partition by key; per partition the step loop (|steps|
    iterations, a constant) runs fully vectorized over all keys at
    once: matching rows sort once by (dense key, ts) and each step is
    one chunked composite-key searchsorted — no per-key Python. Only
    (step, partial count) rows leave the partitions. Returns
    (step, step_type, n_keys) with step 1..len(steps).
    """
    num_parts = parts_for(ds, num_parts)
    steps = tuple(steps)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": batch.column(ts_col).cast(pa.int64()),
            "__type": batch.column(type_col),
        })

    def funnel_part(group: pa.Table) -> pa.Table:
        out_counts = np.zeros(len(steps), np.int64)
        key = np.asarray(group.column("__key"), dtype=np.int64)
        if len(key):
            import pyarrow.compute as pc

            ts = np.asarray(group.column("__ts"), dtype=np.int64)
            typ_col = group.column("__type")
            ukeys, dense = np.unique(key, return_inverse=True)
            n_u = len(ukeys)
            tmin = int(ts.min())
            tsn = ts - tmin
            span = int(tsn.max()) + 2  # room for the thr = -1 probe
            # active users' last-match time (normalized); -1 = "start"
            thr = np.full(n_u, -1, np.int64)
            active = np.ones(n_u, dtype=bool)
            for si, stype in enumerate(steps):
                # Arrow equality: no per-row Python over the type column
                m = np.asarray(pc.equal(typ_col, stype).combine_chunks()
                               .fill_null(False))
                d_s, t_s = dense[m], tsn[m]
                order = np.lexsort((t_s, d_s))
                d_s, t_s = d_s[order], t_s[order]
                # first row of each active user with ts > thr, found by
                # ONE composite searchsorted per chunk (dense x span
                # never overflows: chunked like window_self_join)
                new_thr = np.full(n_u, -1, np.int64)
                hit = np.zeros(n_u, dtype=bool)
                users_per_chunk = max(1, (2 ** 62) // span)
                for base in range(0, n_u, users_per_chunk):
                    sel = active & (np.arange(n_u) >= base) & \
                        (np.arange(n_u) < base + users_per_chunk)
                    uu = np.flatnonzero(sel)
                    if len(uu) == 0:
                        continue
                    in_chunk = (d_s >= base) & (d_s < base + users_per_chunk)
                    comp = (d_s[in_chunk] - base) * span + t_s[in_chunk]
                    if len(comp) == 0:
                        continue  # no rows of this step type here
                    idx_map = np.flatnonzero(in_chunk)
                    q = (uu - base) * span + thr[uu]
                    pos = np.searchsorted(comp, q, "right")
                    ok = pos < len(comp)
                    gi = idx_map[np.minimum(pos, len(comp) - 1)]
                    ok &= d_s[gi] == uu
                    hu = uu[ok]
                    hit[hu] = True
                    new_thr[hu] = t_s[gi[ok]]
                active &= hit
                thr = np.where(active, new_thr, thr)
                out_counts[si] = int(active.sum())
        return pa.table({
            "step": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
            "step_type": pa.array(list(steps), pa.string()),
            "partial": pa.array(out_counts, pa.int64()),
        })

    import ray.data
    from ray.data.aggregate import Sum

    parts = exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     "__part", num_parts, funnel_part)
    agg = parts.groupby(["step", "step_type"]).aggregate(
        Sum("partial", alias_name="n_keys"))

    def finish(b: pa.Table) -> pa.Table:
        return pa.table({
            "step": b.column("step"),
            "step_type": b.column("step_type"),
            "n_keys": b.column("n_keys").cast(pa.int64()),
        })

    return agg.map_batches(finish, batch_format="pyarrow")


def ts_motif_search(ds, key_col: str, ts_col: str, val_col: str,
                    query, top_k: int = 10,
                    num_parts: int | None = None):
    """Time-series subsequence similarity search (cf. "Time Series
    Similarity Search for Streaming Data in Distributed Systems",
    EDBT 2019): find the ``top_k`` windows across all keys' value
    series whose z-NORMALIZED shape is closest (Euclidean) to the
    z-normalized ``query`` pattern.

    One hash partition by key, per-partition vectorized scan: each
    key's series sorts by time once, every length-m window is scored
    through a sliding view + one matmul per 64k-window chunk (bounded
    working set, no per-window Python), partitions emit only their
    local top-k, and a final sort+limit over k x parts rows picks the
    global answer.
    Returns (key, start_ts, dist) ascending by (dist, key, start_ts).
    """
    num_parts = parts_for(ds, num_parts)
    q = np.asarray(query, np.float64)
    m = len(q)
    qs = q.std()
    qz = (q - q.mean()) / (qs if qs > 0 else 1.0)
    import ray

    q_ref = ray.put(qz)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            "__key": pa.array(key, pa.int64()),
            "__ts": batch.column(ts_col).cast(pa.int64()),
            "__v": batch.column(val_col).cast(pa.float64()),
        })

    def scan(group: pa.Table) -> pa.Table:
        empty = pa.table({"key": pa.array([], pa.int64()),
                          "start_ts": pa.array([], pa.int64()),
                          "dist": pa.array([], pa.float64())})
        n = group.num_rows
        if n < m:
            return empty
        qz_ = ray.get(q_ref)
        key = np.asarray(group.column("__key"), dtype=np.int64)
        ts = np.asarray(group.column("__ts"), dtype=np.int64)
        v = np.asarray(group.column("__v"), dtype=np.float64)
        order = np.lexsort((ts, key))
        key, ts, v = key[order], ts[order], v[order]
        win = np.lib.stride_tricks.sliding_window_view(v, m)
        # windows must not straddle key boundaries
        same = key[: n - m + 1] == key[m - 1:]
        starts = np.flatnonzero(same)
        if len(starts) == 0:
            return empty
        # chunk the gathered window matrix: win[starts] materializes
        # O(windows x m) float64, which at multi-million-row
        # partitions is gigabytes; 64k windows a chunk bounds the
        # working set at ~64k*m*8 bytes with per-window arithmetic
        # bit-identical to the unchunked form (every op below is
        # window-local; only the O(windows) dist vector accumulates)
        dist_parts = []
        for s in range(0, len(starts), 1 << 16):
            w = win[starts[s: s + (1 << 16)]]
            mu = w.mean(axis=1, keepdims=True)
            sd = w.std(axis=1)
            sd_safe = np.where(sd > 0, sd, 1.0)
            # z-normalized squared distance: 2m - 2 * (wz . qz);
            # flat windows (sd == 0) have w - mu exactly 0, so dots
            # is exactly 0 and dist lands on sqrt(2m) with no
            # special-casing
            dots = ((w - mu) / sd_safe[:, None]) @ qz_
            dist_parts.append(
                np.sqrt(np.maximum(0.0, 2.0 * m - 2.0 * dots)))
        dist = np.concatenate(dist_parts)
        take = min(top_k, len(starts))
        kk, tt = key[starts], ts[starts]
        top = np.lexsort((tt, kk, dist))[:take]
        return pa.table({
            "key": pa.array(kk[top], pa.int64()),
            "start_ts": pa.array(tt[top], pa.int64()),
            "dist": pa.array(np.round(dist[top], 9), pa.float64()),
        })

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, scan) \
        .sort(["dist", "key", "start_ts"]).limit(top_k)


def cohort_retention(ds, key_col: str, ts_col: str,
                     num_parts: int | None = None):
    """Cohort retention: a key's cohort is its FIRST active day (UTC
    day index of the min timestamp); output one row per (cohort_day,
    day_offset) with the count of distinct keys active that many days
    after their cohort day — the product-analytics retention triangle.

    Distributed shape: per-batch (key, day) dedup shrinks the stream,
    ONE hash partition by key co-locates each key's full history (so
    the cohort min is partition-local), then a tiny grouped count over
    (cohort_day, day_offset). All arithmetic is integer-exact
    (microseconds // us-per-day), matching the SQL oracle bit-for-bit.
    """
    from ray.data.aggregate import Count

    num_parts = parts_for(ds, num_parts)
    US_PER_DAY = 86_400_000_000

    def key_days(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        day = np.asarray(batch.column(ts_col).cast(pa.int64())) // US_PER_DAY
        order = np.lexsort((day, key))
        k_s, d_s = key[order], day[order]
        keep = np.ones(len(k_s), dtype=bool)
        keep[1:] = (k_s[1:] != k_s[:-1]) | (d_s[1:] != d_s[:-1])
        return pa.table({
            "__part": pa.array(_part_of(k_s[keep], num_parts), pa.int32()),
            "key": pa.array(k_s[keep], pa.int64()),
            "day": pa.array(d_s[keep], pa.int64()),
        })

    def offsets(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column("key"), dtype=np.int64)
        day = np.asarray(group.column("day"), dtype=np.int64)
        order = np.lexsort((day, key))
        k_s, d_s = key[order], day[order]
        keep = np.ones(len(k_s), dtype=bool)  # re-dedup across batches
        keep[1:] = (k_s[1:] != k_s[:-1]) | (d_s[1:] != d_s[:-1])
        k_s, d_s = k_s[keep], d_s[keep]
        first = np.ones(len(k_s), dtype=bool)
        if len(k_s) > 1:
            first[1:] = k_s[1:] != k_s[:-1]
        gid = np.cumsum(first) - 1
        cohort = d_s[np.flatnonzero(first)][gid]
        return pa.table({
            "cohort_day": pa.array(cohort, pa.int64()),
            "day_offset": pa.array(d_s - cohort, pa.int64()),
        })

    agg = exchange(ds.map_batches(key_days, batch_format="pyarrow",
                                  zero_copy_batch=True),
                   "__part", num_parts, offsets) \
        .groupby(["cohort_day", "day_offset"]) \
        .aggregate(Count(alias_name="n_users"))
    return agg.map_batches(
        lambda b: pa.table({
            "cohort_day": b.column("cohort_day"),
            "day_offset": b.column("day_offset"),
            "n_users": b.column("n_users").cast(pa.int64()),
        }), batch_format="pyarrow")


def zscore_outliers(ds, key_col: str, val_col: str, id_col: str,
                    z: float = 3.0, num_parts: int | None = None):
    """Per-key z-score outliers: rows whose value is >= ``z`` population
    standard deviations from their key's mean (the data-cleaning /
    anomaly-flagging shape). Keys with zero variance emit nothing.

    ONE hash partition by key; mean/std are computed per key inside
    the partition with the same two-pass formula numpy's ``std`` uses,
    so the only cross-engine float divergence vs the SQL oracle is
    summation order (ulp-scale — the catalog entry rounds z to basis
    points and documents the boundary caveat).

    Returns (id_col, key_col, z) with z as float64.
    """
    num_parts = parts_for(ds, num_parts)

    def add_part(batch: pa.Table) -> pa.Table:
        key = np.asarray(batch.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(key, num_parts), pa.int32()),
            key_col: pa.array(key, pa.int64()),
            id_col: batch.column(id_col).cast(pa.int64()),
            val_col: batch.column(val_col).cast(pa.float64()),
        })

    def outliers(group: pa.Table) -> pa.Table:
        key = np.asarray(group.column(key_col), dtype=np.int64)
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        val = np.asarray(group.column(val_col), dtype=np.float64)
        order = np.argsort(key, kind="stable")
        key, ids, val = key[order], ids[order], val[order]
        _, idx, cnt = np.unique(key, return_inverse=True,
                                return_counts=True)
        mu = np.bincount(idx, weights=val) / cnt
        var = np.bincount(idx, weights=(val - mu[idx]) ** 2) / cnt
        sd = np.sqrt(var)
        ok = sd[idx] > 0
        zv = np.zeros(len(val))
        zv[ok] = (val[ok] - mu[idx][ok]) / sd[idx][ok]
        keep = ok & (np.abs(zv) >= z)
        return pa.table({
            id_col: pa.array(ids[keep], pa.int64()),
            key_col: pa.array(key[keep], pa.int64()),
            "z": pa.array(zv[keep], pa.float64()),
        })

    return exchange(ds.map_batches(add_part, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, outliers)
