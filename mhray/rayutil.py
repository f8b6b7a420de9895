"""Ray Data exchange, sizing and keyed-lookup utilities.

- :func:`exchange` is mhray's one shuffle: rows carrying a partition id
  ``part`` in ``[0, num_parts)`` are sorted on explicit boundaries, so
  partition ``i`` holds exactly the rows with ``part == i`` (no
  sampling pass), and ``fn`` runs once per non-empty partition.
  Ray's ``groupby(..., num_partitions=)`` is not used: under the
  default sort shuffle it ignores ``num_partitions`` and makes one
  partition per input block.
- :func:`plan_parts` is the one sizing rule for read block counts and
  exchange partition counts. It works from rows and bytes the code
  already has (parquet footers via :func:`read_parquet` and
  :func:`parquet_size`, materialized block metadata via
  :func:`parts_for`) and the cluster's CPU count: a small input gets
  one partition and never more than one per CPU; only its bytes take
  it past the CPU count. A caller's explicit count always wins.
- :func:`attach_payload` (and :func:`prepared_attacher` /
  :func:`attach_payload_both` for one side read by several keys) is the
  key -> payload lookup: a side with unique keys is broadcast once
  (``ray.put``, searchsorted per batch) below a row/byte threshold and
  met in ONE exchange above it. Keys are one int64 column or a pair of
  them.
- :func:`anti_join_ids` / :func:`semi_join_ids` keep or drop rows by
  key membership, with the same broadcast-or-exchange choice.
- :func:`grouped_mode` and :func:`top_counts` are the two keyed
  reductions: per-batch partial counts below ONE exchange and a
  partition-local reduce, never a global sort.

None of them uses Ray's join operator, whose hash-shuffle aggregator
pools dominated at the pair counts these stages see, and which could
not execute a zero-row side. An exchange partition with no rows is a
schema-less empty block that ``fn`` never sees, so every ``fn`` reads
columns only from non-empty tables, and a ``fn`` may get many keys
(and, if the ids were hashed to a wider range, many ``part`` values)
in one call.
"""

from __future__ import annotations

import math
import os

import pyarrow as pa

# the sizing rule's constants: a partition is worth its own task from
# PART_ROWS rows or _PART_BYTES bytes on (HEAVY_PART_ROWS rows for
# consumers that spend about a millisecond per row), and none grows
# past _MAX_PART_BYTES
PART_ROWS = 2_000
HEAVY_PART_ROWS = 800
_PART_BYTES = 1 << 20
_MAX_PART_BYTES = 128 << 20


def _cluster_cpus() -> int:
    """CPUs of the running Ray cluster (of this host before Ray
    starts; mhray never starts Ray itself)."""
    import ray

    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def plan_parts(rows: int, nbytes: int, requested: int | None = None,
               cpus: int | None = None,
               rows_per_part: int = PART_ROWS) -> int:
    """Block or partition count for ``rows`` rows of ``nbytes`` bytes:
    one per ``rows_per_part`` rows or per MiB, whichever asks for more,
    at most one per CPU, but at least one per 128 MiB, so only bytes
    take it past the CPU count; never below 1. ``requested`` (a
    caller's explicit count) wins. Compute-heavy consumers pass a
    smaller ``rows_per_part``."""
    if requested is not None:
        return requested
    cpus = _cluster_cpus() if cpus is None else cpus
    want = max(math.ceil(rows / rows_per_part),
               math.ceil(nbytes / _PART_BYTES))
    return max(1, min(cpus, want), math.ceil(nbytes / _MAX_PART_BYTES))


def parts_for(ds, requested: int | None = None,
              rows_per_part: int = PART_ROWS) -> int:
    """:func:`plan_parts` for a Dataset: rows and bytes from a
    materialized dataset's block metadata (no execution); a lazy one
    is unsized and gets one partition per CPU."""
    from ray.data.dataset import MaterializedDataset

    if requested is not None:
        return requested
    if isinstance(ds, MaterializedDataset):
        return plan_parts(ds.count(), ds.size_bytes(),
                          rows_per_part=rows_per_part)
    return _cluster_cpus()


def _parquet_files(path: str) -> list[str]:
    """The parquet files of a file or directory path."""
    import pyarrow.dataset as pads

    return pads.dataset(path, format="parquet").files


def parquet_size(path: str, columns=None) -> tuple[int, int]:
    """(rows, uncompressed bytes of ``columns``, default all) of a
    parquet file or directory, from its footers only."""
    import pyarrow.parquet as pq

    rows = nbytes = 0
    for f in _parquet_files(path):
        md = pq.ParquetFile(f).metadata
        rows += md.num_rows
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            nbytes += sum(
                rg.column(c).total_uncompressed_size
                for c in range(rg.num_columns)
                if columns is None
                or rg.column(c).path_in_schema.split(".")[0] in columns)
    return rows, nbytes


def read_parquet(path: str, columns=None, rows_per_part: int = PART_ROWS,
                 split: bool = True, **kwargs):
    """``ray.data.read_parquet`` with its block count from
    :func:`plan_parts` over the footers. ``split=False`` keeps to at
    most one block per file unless the bytes require more: Ray splits
    the blocks of a read that asks for more blocks than there are
    files, and then cannot fuse the read with the map after it."""
    import ray.data

    rows, nbytes = parquet_size(path, columns)
    blocks = plan_parts(rows, nbytes, rows_per_part=rows_per_part)
    if not split:
        blocks = max(min(blocks, len(_parquet_files(path))),
                     math.ceil(nbytes / _MAX_PART_BYTES))
    kwargs.setdefault("override_num_blocks", blocks)
    return ray.data.read_parquet(path, columns=columns, **kwargs)


def _boundaries(num_parts: int) -> list[int]:
    """Sort boundaries that give partition ``i`` exactly ``part == i``."""
    return list(range(1, num_parts))


def exchange(ds, part_col: str, num_parts: int, fn):
    """Move every row to the partition its ``part_col`` names
    (``[0, num_parts)``; larger ids land in the last partition) and
    run ``fn(table) -> table`` once per non-empty partition.

    Explicit sort boundaries: no sampling pass, and each reducer writes
    one block, which ``map_batches(batch_size=None)`` hands to ``fn``
    whole. One partition coalesces the input into one block instead,
    because ``sort`` with no boundaries would sample them."""
    if num_parts <= 1:
        ds = ds.repartition(1)
    else:
        ds = ds.sort(part_col, boundaries=_boundaries(num_parts))
    return ds.map_batches(fn, batch_size=None, batch_format="pyarrow")


def binary_flat_view(col, item_bytes: int, dtype: str):
    """Whole-column view of a binary column of fixed-width packed
    items: ``(flat, offs)`` where ``flat`` is the concatenated data
    viewed as ``dtype`` and ``offs[i]:offs[i+1]`` (in units of
    ``item_bytes``) spans element ``i``. Zero-copy when the Arrow
    buffer slice stays item-aligned; falls back to a per-row copy
    otherwise (shouldn't happen: blobs are whole items). Shared by
    the token-blob (8 B) and cluster-member (16 B) hot paths so the
    offsets/slicing logic lives in exactly one place."""
    import numpy as np

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # offsets buffer width depends on the Arrow type: binary stores
    # int32 offsets, large_binary int64. Anything else (a list type, a
    # fixed-size binary with no offsets buffer) must fail loudly here
    # rather than silently parse garbage offsets.
    if pa.types.is_binary(col.type):
        off_dtype = np.int32
    elif pa.types.is_large_binary(col.type):
        off_dtype = np.int64
    else:
        raise TypeError(
            f"binary_flat_view: expected binary/large_binary column, "
            f"got {col.type}")
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        col.offset:col.offset + len(col) + 1].astype(np.int64)
    data = (np.frombuffer(bufs[2], dtype=np.uint8)
            if bufs[2] is not None else np.empty(0, np.uint8))
    flat = data[offs[0]:offs[-1]]
    if len(flat) % item_bytes or (offs % item_bytes).any():
        blobs = col.to_pylist()
        lens = np.array([len(b) for b in blobs], np.int64)
        if (lens % item_bytes).any():
            # not a buffer-slice alignment quirk but corrupt data:
            # fail here with the cause, not downstream with a shape
            # mismatch between flat and offs
            raise ValueError(
                f"binary_flat_view: blob lengths not multiples of "
                f"{item_bytes} bytes (corrupt packed column)")
        off = np.zeros(len(blobs) + 1, np.int64)
        np.cumsum(lens // item_bytes, out=off[1:])
        flat = (np.concatenate(
            [np.frombuffer(b, dtype=np.uint8) for b in blobs])
            if blobs else np.empty(0, np.uint8))
        return flat.view(dtype), off
    return flat.view(dtype), (offs - offs[0]) // item_bytes


def _broadcast_fits(side_ds, threshold_rows: int,
                    threshold_bytes: int = 512 * 1024 * 1024) -> bool:
    """Small side -> broadcast once via ray.put and look up per batch
    (no shuffle at all); large side -> union + partition merge. The
    cutoff weighs BYTES as well as rows: a wide binary payload
    (sketches at ~KBs/row) hits driver memory long before the row
    threshold does."""
    try:
        n_side = side_ds.count()
    except Exception:
        return False
    side_bytes = None
    try:
        from ray.data.dataset import MaterializedDataset

        if isinstance(side_ds, MaterializedDataset):
            # O(1) from block metadata; on a lazy dataset size_bytes()
            # could execute the plan — skip there and let the row
            # threshold govern
            side_bytes = side_ds.size_bytes()
    except Exception:
        side_bytes = None
    return (n_side is not None and n_side <= threshold_rows
            and (side_bytes is None or side_bytes <= threshold_bytes))


def _key_names(key) -> tuple:
    return (key,) if isinstance(key, str) else tuple(key)


def _key_values(table: pa.Table, key):
    """One int64 key column as an int64 array; a two-column key as a
    structured ``(k0, k1)`` int64 array, which numpy compares, sorts
    and searchsorts lexicographically — exact for any 64-bit pair,
    where packing two iids into one int64 or hashing them is not."""
    import numpy as np

    names = _key_names(key)
    if len(names) == 1:
        return np.asarray(table.column(names[0]), dtype=np.int64)
    out = np.empty(table.num_rows, np.dtype([("k0", "<i8"), ("k1", "<i8")]))
    for f, name in zip(("k0", "k1"), names):
        out[f] = np.asarray(table.column(name), dtype=np.int64)
    return out


def _key_order(keys):
    import numpy as np

    if keys.dtype.names is None:
        return np.argsort(keys)
    return np.lexsort((keys["k1"], keys["k0"]))


def _prepare_broadcast_side(side_ds, side_key, payload_cols):
    """ONE driver fetch + key sort + ray.put of the side payload,
    reusable across several lookup stages. A zero-block side (an empty
    MaterializedDataset yields NO arrow refs, so there is no schema to
    read columns from) degrades to an empty key set — the lookup side
    already handles len(keys)==0 without touching the payloads."""
    import numpy as np

    import ray

    names = _key_names(side_key)
    tables = [ray.get(r) for r in side_ds.to_arrow_refs()]
    # filter on KEY PRESENCE only (same guard as anti_join_ids): a
    # schema-less empty block means "no keys", and a keyless non-empty
    # block must not be null-promoted into the key column
    tables = [t for t in tables if names[0] in t.schema.names]
    if not tables:
        return ray.put((np.empty(0, np.int64),
                        {c: None for c in payload_cols}))
    side_tbl = pa.concat_tables(tables, promote_options="default")
    keys = _key_values(side_tbl, side_key)
    order = _key_order(keys)
    payloads = {c: side_tbl.column(c).take(pa.array(order, pa.int64()))
                .combine_chunks() for c in payload_cols}
    return ray.put((keys[order], payloads))


def _attach_broadcast(pairs_ds, key_col, side_ds, side_key, payload_cols,
                      out_suffix, how, pair_names, payload_types,
                      ref=None):
    import numpy as np

    import ray

    if ref is None:
        ref = _prepare_broadcast_side(side_ds, side_key, payload_cols)

    def lookup(batch: pa.Table) -> pa.Table:
        ks, pl = ray.get(ref)
        k = _key_values(batch, key_col)
        if len(ks):
            pos = np.minimum(np.searchsorted(ks, k), len(ks) - 1)
            found = ks[pos] == k
        else:
            pos = np.zeros(len(k), np.int64)
            found = np.zeros(len(k), bool)
        out = {}
        if how == "inner":
            keep = pa.array(found)
            for name in pair_names:
                out[name] = batch.column(name).filter(keep)
            idx = pa.array(pos[found], pa.int64())
            for c in payload_cols:
                out[f"{c}_{out_suffix}"] = (
                    pl[c].take(idx) if len(ks)
                    else pa.nulls(0, payload_types[c]))
        else:
            for name in pair_names:
                out[name] = batch.column(name)
            for c in payload_cols:
                if len(ks):
                    col = pl[c].take(pa.array(pos, pa.int64()))
                    col = pa.compute.if_else(
                        pa.array(found), col,
                        pa.nulls(len(k), payload_types[c]))
                else:
                    col = pa.nulls(len(k), payload_types[c])
                out[f"{c}_{out_suffix}"] = col
        return pa.table(out)

    return pairs_ds.map_batches(lookup, batch_format="pyarrow",
                                zero_copy_batch=True)


def anti_join_ids(ds, ids_ds, key_col: str, ids_key: str | None = None,
                  num_parts: int | None = None,
                  broadcast_threshold_rows: int = 2_000_000,
                  ds_schema: pa.Schema | None = None,
                  keep_matches: bool = False):
    """Drop rows of ``ds`` whose ``key_col`` appears in ``ids_ds`` —
    the distributed anti-semi-join (``keep_matches=True`` flips it to
    the SEMI-join: keep only matching rows). Small id sets broadcast
    (one ``ray.put``, searchsorted per batch, NO shuffle); above the
    threshold the standard tagged-union + hash-partition merge runs
    (one exchange, no driver materialization) over ``num_parts``
    partitions, default :func:`parts_for` ``ids_ds``."""
    import numpy as np

    ids_key = ids_key or key_col

    try:
        n_ids = ids_ds.count()
    except Exception:
        n_ids = None
    if n_ids is not None and n_ids <= broadcast_threshold_rows:
        import ray

        tables = [ray.get(r) for r in
                  ids_ds.select_columns([ids_key]).to_arrow_refs()]
        # a zero-row id set can arrive as zero refs or schema-less
        # blocks — both mean "no keys", not a missing column
        tables = [t for t in tables if ids_key in t.schema.names]
        if tables:
            ids_tbl = pa.concat_tables(tables, promote_options="default")
            key_arr = np.unique(np.asarray(ids_tbl.column(ids_key),
                                           dtype=np.int64))
        else:
            key_arr = np.empty(0, np.int64)
        ref = ray.put(key_arr)

        def drop(batch: pa.Table) -> pa.Table:
            k = ray.get(ref)
            v = np.asarray(batch.column(key_col), dtype=np.int64)
            if len(k) == 0:
                return batch.slice(0, 0) if keep_matches else batch
            pos = np.minimum(np.searchsorted(k, v), len(k) - 1)
            hit = k[pos] == v
            return batch.filter(pa.array(hit if keep_matches else ~hit))

        return ds.map_batches(drop, batch_format="pyarrow",
                              zero_copy_batch=True)

    def _schema(d) -> pa.Schema:
        s = d.schema()
        return getattr(s, "base_schema", s)

    schema = ds_schema if ds_schema is not None else _schema(ds)
    names = schema.names
    num_parts = parts_for(ids_ds, num_parts)

    def tag_left(batch: pa.Table) -> pa.Table:
        from mhray.stages.candidates import _part_of

        key = np.asarray(batch.column(key_col), dtype=np.int64)
        cols = {n: batch.column(n) for n in names}
        cols["__part"] = pa.array(_part_of(key, num_parts), pa.int32())
        cols["__role"] = pa.array(np.zeros(len(key), np.int8), pa.int8())
        cols["__key"] = pa.array(key, pa.int64())
        return pa.table(cols)

    def tag_ids(batch: pa.Table) -> pa.Table:
        from mhray.stages.candidates import _part_of

        key = np.asarray(batch.column(ids_key), dtype=np.int64)
        n = len(key)
        cols = {nm: pa.nulls(n, schema.field(nm).type) for nm in names}
        cols["__part"] = pa.array(_part_of(key, num_parts), pa.int32())
        cols["__role"] = pa.array(np.ones(n, np.int8), pa.int8())
        cols["__key"] = pa.array(key, pa.int64())
        return pa.table(cols)

    tagged = ds.map_batches(tag_left, batch_format="pyarrow",
                            zero_copy_batch=True).union(
        ids_ds.select_columns([ids_key]).map_batches(
            tag_ids, batch_format="pyarrow", zero_copy_batch=True))

    def merge(part: pa.Table) -> pa.Table:
        role = np.asarray(part.column("__role"))
        keys = np.asarray(part.column("__key"), dtype=np.int64)
        block = np.unique(keys[role == 1])
        left = np.flatnonzero(role == 0)
        lk = keys[left]
        if len(block):
            pos = np.minimum(np.searchsorted(block, lk), len(block) - 1)
            hit = block[pos] == lk
            keep = left[hit if keep_matches else ~hit]
        else:
            keep = left[:0] if keep_matches else left
        idx = pa.array(keep, pa.int64())
        return pa.table({n: part.column(n).take(idx) for n in names})

    return exchange(tagged, "__part", num_parts, merge)


def semi_join_ids(ds, ids_ds, key_col: str, ids_key: str | None = None,
                  num_parts: int | None = None,
                  broadcast_threshold_rows: int = 2_000_000,
                  ds_schema: pa.Schema | None = None):
    """Keep only rows of ``ds`` whose ``key_col`` appears in ``ids_ds``
    — the distributed semi-join (broadcast below the threshold,
    tagged-union hash-partition merge above; see anti_join_ids)."""
    return anti_join_ids(ds, ids_ds, key_col, ids_key, num_parts,
                         broadcast_threshold_rows, ds_schema,
                         keep_matches=True)


def attach_payload(pairs_ds, key_col, side_ds, side_key,
                   payload_cols: tuple, out_suffix: str,
                   num_parts: int | None = None, how: str = "inner",
                   pairs_schema: pa.Schema | None = None,
                   side_schema: pa.Schema | None = None,
                   broadcast_threshold_rows: int = 1_500_000):
    """Key -> payload lookup for a pair table: ``side_ds`` (UNIQUE
    keys) is broadcast once below the row/byte threshold
    (:func:`_broadcast_fits`), else met in ONE :func:`exchange` (union
    + partition-local searchsorted merge, over
    ``num_parts`` partitions, default :func:`parts_for` the side) —
    never a join-operator actor pool.

    ``key_col`` / ``side_key`` name one int64 column or a tuple of two
    (a composite key: the shuffle partitions on the first column and
    both paths match on both). Returns the pairs columns +
    ``<payload>_<out_suffix>`` columns; ``how='inner'`` drops pairs
    without a side match, ``how='left'`` keeps them with null payloads.
    Pass both schemas when the inputs are lazy: a ``schema()`` probe
    executes the plan.
    """
    import numpy as np

    import pyarrow.compute as pc

    def _pa_schema(ds) -> pa.Schema:
        s = ds.schema()
        return getattr(s, "base_schema", s)

    pair_schema = pairs_schema if pairs_schema is not None else _pa_schema(pairs_ds)
    pair_names = pair_schema.names
    side_schema = side_schema if side_schema is not None else _pa_schema(side_ds)
    payload_types = {c: side_schema.field(c).type for c in payload_cols}

    if _broadcast_fits(side_ds, broadcast_threshold_rows):
        return _attach_broadcast(pairs_ds, key_col, side_ds, side_key,
                                 payload_cols, out_suffix, how,
                                 pair_names, payload_types)

    knames = [f"__k{i}" for i in range(len(_key_names(key_col)))]
    num_parts = parts_for(side_ds, num_parts)

    def tag(batch: pa.Table, key, role: int) -> dict:
        from mhray.stages.candidates import _part_of

        n = batch.num_rows
        cols = {f"__k{i}": pa.array(np.asarray(batch.column(c),
                                               dtype=np.int64), pa.int64())
                for i, c in enumerate(_key_names(key))}
        cols["__part"] = pa.array(
            _part_of(np.asarray(cols["__k0"]), num_parts), pa.int32())
        cols["__role"] = pa.array(np.full(n, role, np.int8), pa.int8())
        return cols

    def tag_pairs(batch: pa.Table) -> pa.Table:
        cols = tag(batch, key_col, 0)
        cols.update({n: batch.column(n) for n in pair_names})
        for c in payload_cols:
            cols[f"__p_{c}"] = pa.nulls(batch.num_rows, payload_types[c])
        return pa.table(cols)

    def tag_side(batch: pa.Table) -> pa.Table:
        cols = tag(batch, side_key, 1)
        cols.update({name: pa.nulls(batch.num_rows,
                                    pair_schema.field(name).type)
                     for name in pair_names})
        for c in payload_cols:
            cols[f"__p_{c}"] = batch.column(c)
        return pa.table(cols)

    tagged = pairs_ds.map_batches(tag_pairs, batch_format="pyarrow",
                                  zero_copy_batch=True).union(
        side_ds.map_batches(tag_side, batch_format="pyarrow",
                            zero_copy_batch=True))

    def merge(part: pa.Table) -> pa.Table:
        role = np.asarray(part.column("__role"))
        keys = _key_values(part, knames)
        is_side = role == 1
        side_keys = keys[is_side]
        order = _key_order(side_keys)
        side_sorted = side_keys[order]
        pr_mask = ~is_side
        pr_keys = keys[pr_mask]
        pos = np.searchsorted(side_sorted, pr_keys)
        pos_c = np.minimum(pos, max(0, len(side_sorted) - 1))
        found = (side_sorted[pos_c] == pr_keys) if len(side_sorted) \
            else np.zeros(len(pr_keys), bool)
        if how == "inner":
            keep_rows = np.flatnonzero(pr_mask)[found]
            gather = pos_c[found]
        else:
            keep_rows = np.flatnonzero(pr_mask)
            gather = np.where(found, pos_c, 0)
        out = {}
        for name in pair_names:
            out[name] = part.column(name).take(pa.array(keep_rows, pa.int64()))
        side_rows = np.flatnonzero(is_side)[order]
        for c in payload_cols:
            if len(side_rows) == 0:
                col = pa.nulls(len(keep_rows), payload_types[c])
            else:
                col = part.column(f"__p_{c}").take(
                    pa.array(side_rows[gather], pa.int64()))
                if how != "inner":
                    col = pc.if_else(pa.array(found), col,
                                     pa.nulls(len(found), payload_types[c]))
            out[f"{c}_{out_suffix}"] = col
        return pa.table(out)

    return exchange(tagged, "__part", num_parts, merge)


def prepared_attacher(side_ds, side_key: str, payload_cols: tuple,
                      num_parts: int | None = None,
                      side_schema: pa.Schema | None = None,
                      broadcast_threshold_rows: int = 1_500_000):
    """Factory owning the broadcast-vs-shuffle attach policy for a side
    consumed by SEVERAL pair tables: returns ``attach(pairs_ds,
    key_col, out_suffix, pairs_schema)``. On the broadcast path the
    side is fetched, key-sorted, and ``ray.put`` ONCE here and every
    call reuses the ref; above the thresholds each call is a
    threshold-guarded shuffling :func:`attach_payload`. Inner-join
    semantics."""
    if side_schema is None:
        s = side_ds.schema()
        side_schema = getattr(s, "base_schema", s)
    payload_types = {c: side_schema.field(c).type for c in payload_cols}

    if _broadcast_fits(side_ds, broadcast_threshold_rows):
        ref = _prepare_broadcast_side(side_ds, side_key, payload_cols)

        def attach(pairs_ds, key_col, out_suffix, pairs_schema):
            return _attach_broadcast(
                pairs_ds, key_col, side_ds, side_key, payload_cols,
                out_suffix, "inner", list(pairs_schema.names),
                payload_types, ref=ref)
    else:
        def attach(pairs_ds, key_col, out_suffix, pairs_schema):
            # Forward the caller's threshold so attach_payload doesn't
            # re-broadcast under its own (larger) default after this
            # factory already decided the side does NOT fit.
            return attach_payload(
                pairs_ds, key_col, side_ds, side_key, payload_cols,
                out_suffix, num_parts=num_parts,
                pairs_schema=pairs_schema, side_schema=side_schema,
                broadcast_threshold_rows=broadcast_threshold_rows)

    return attach


def attach_payload_both(pairs_ds, side_ds, side_key: str,
                        payload_cols: tuple,
                        num_parts: int | None = None,
                        pairs_schema: pa.Schema | None = None,
                        side_schema: pa.Schema | None = None,
                        keys=(("lo", "lo"), ("hi", "hi")),
                        broadcast_threshold_rows: int = 1_500_000):
    """Attach the SAME side payload to two key columns of a pair table
    (the (lo, hi) text/sketch fetch) — :func:`prepared_attacher`
    applied twice to one table, so the broadcast copy is shared.
    Inner-join semantics on BOTH keys (a pair missing either side is
    dropped)."""
    if side_schema is None:
        s = side_ds.schema()
        side_schema = getattr(s, "base_schema", s)
    if pairs_schema is None:
        s = pairs_ds.schema()
        pairs_schema = getattr(s, "base_schema", s)
    att = prepared_attacher(side_ds, side_key, payload_cols, num_parts,
                            side_schema, broadcast_threshold_rows)
    out = pairs_ds
    schema = pairs_schema
    for key_col, suffix in keys:
        out = att(out, key_col, suffix, schema)
        schema = pa.schema(
            list(schema) + [pa.field(f"{c}_{suffix}",
                                     side_schema.field(c).type)
                            for c in payload_cols])
    return out


def grouped_mode(ds, key_col: str, val_col: str, num_parts: int,
                 out_key: str, out_val: str, out_n: str):
    """Most frequent ``val_col`` per ``key_col`` (ties to the SMALLEST
    value — lexical for strings, numeric otherwise): per-batch
    pre-counted (key, val) partials below ONE key-hash shuffle, then a
    partition-local vectorized argmax. Shared by ev_user_mode and
    knn_label_agreement so the mode kernel (and its reliance on
    pyarrow group_by().aggregate() emitting group keys first — stable
    on the pinned pyarrow) lives in exactly one place."""
    import numpy as np

    from mhray.stages.candidates import _part_of

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.group_by([key_col, val_col]).aggregate(
            [([], "count_all")])
        t = t.rename_columns([key_col, val_col, "n"])
        k = np.asarray(t.column(key_col), dtype=np.int64)
        return pa.table({
            "__part": pa.array(_part_of(k, num_parts), pa.int32()),
            key_col: pa.array(k, pa.int64()),
            val_col: t.column(val_col),
            "n": t.column("n").cast(pa.int64()),
        })

    def mode(group: pa.Table) -> pa.Table:
        t = group.group_by([key_col, val_col]).aggregate([("n", "sum")])
        k = np.asarray(t.column(key_col), dtype=np.int64)
        # String values: to_pylist -> np.asarray yields a native
        # fixed-width '<U' dtype, keeping the lexsort vectorized
        # (to_numpy would give object dtype and per-element compares);
        # nulls are filled with "" and pushed last via an explicit
        # null-flag sort key (a None in the object array would make
        # np.lexsort raise). Numeric values: to_numpy keeps the native
        # dtype AND maps nulls to NaN, which numpy already sorts last.
        vcol = t.column(val_col)
        if pa.types.is_string(vcol.type) or pa.types.is_large_string(
                vcol.type):
            isnull = vcol.is_null().to_numpy(zero_copy_only=False)
            v = np.asarray(vcol.fill_null("").to_pylist())
        else:
            isnull = np.zeros(len(vcol), dtype=bool)
            v = vcol.to_numpy(zero_copy_only=False)
        n = np.asarray(t.column("n_sum"), dtype=np.int64)
        # per key: most counts first, then smallest value (nulls last)
        order = np.lexsort((v, isnull, -n, k))
        k_s = k[order]
        first = np.ones(len(k_s), dtype=bool)
        if len(k_s) > 1:
            first[1:] = k_s[1:] != k_s[:-1]
        sel = order[first]
        return pa.table({
            out_key: pa.array(k[sel], pa.int64()),
            out_val: t.column(val_col).take(pa.array(sel, pa.int64())),
            out_n: pa.array(n[sel], pa.int64()),
        })

    return exchange(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True),
                    "__part", num_parts, mode)


def top_counts(ds, key_col: str, k: int, num_parts: int):
    """The ``k`` most frequent int64 values of ``key_col`` — a corpus
    frequency table (gram / token document frequency, LM counts) built
    for a driver-side broadcast. Per-batch partial counts (one
    ``np.unique``) go through ONE key-hash shuffle; each partition sums
    its keys and keeps its own top ``k``, so the driver merges at most
    ``num_parts * k`` rows and no global sort runs. Rank is (count desc,
    key asc), so ties at the cut are deterministic.

    Returns ``(keys, counts, total)``: key-sorted int64 arrays of at
    most ``k`` entries and the row count of ``ds``."""
    import numpy as np

    import ray

    from mhray.stages.candidates import _part_of

    def partial(batch: pa.Table) -> pa.Table:
        uk, cnt = np.unique(np.asarray(batch.column(key_col),
                                       dtype=np.int64), return_counts=True)
        return pa.table({"__part": pa.array(_part_of(uk, num_parts),
                                            pa.int32()),
                         "key": pa.array(uk, pa.int64()),
                         "cnt": pa.array(cnt, pa.int64())})

    def local_top(part: pa.Table) -> pa.Table:
        keys = np.asarray(part.column("key"), dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        sums = np.add.reduceat(
            np.asarray(part.column("cnt"), dtype=np.int64)[order], starts)
        uk = ks[starts]
        sel = np.lexsort((uk, -sums))[:k]
        # the partition's grand total rides along as one flagged row
        return pa.table({
            "key": pa.array(np.r_[uk[sel], 0], pa.int64()),
            "cnt": pa.array(np.r_[sums[sel], sums.sum()], pa.int64()),
            "is_total": pa.array(np.r_[np.zeros(len(sel), bool), True]),
        })

    # materialized first: to_arrow_refs() on a lazy dataset probes its
    # schema with an extra limit=1 execution
    parts = exchange(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True),
                     "__part", num_parts, local_top).materialize()
    tables = [t for t in ray.get(parts.to_arrow_refs())
              if "key" in t.schema.names]
    if not tables:
        return np.empty(0, np.int64), np.empty(0, np.int64), 0
    t = pa.concat_tables(tables)
    keys = np.asarray(t.column("key"), dtype=np.int64)
    cnts = np.asarray(t.column("cnt"), dtype=np.int64)
    is_total = np.asarray(t.column("is_total"), dtype=bool)
    total = int(cnts[is_total].sum())
    keys, cnts = keys[~is_total], cnts[~is_total]
    sel = np.lexsort((keys, -cnts))[:k]
    order = sel[np.argsort(keys[sel])]
    return keys[order], cnts[order], total
