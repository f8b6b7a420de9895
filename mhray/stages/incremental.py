"""Query-vs-index incremental search (the reference's ``-q`` to-files
mode): stream NEW query records against a FIXED stored sketch index
without re-sketching or re-storing the index side — the "dedup today's
batch against the existing corpus" shape.

Mirrors ``AbstractMatchSearch.findMatches(streamer)``
(impl/AbstractMatchSearch.java:203-285) with ``toSelf=false``: the
self-mode pair-once id rules do NOT apply (every query x index pair is
considered once, query side first); the only ``min_store_length`` rule
that survives is "never short to short"
(impl/MinHashSearch.java:210-212 — the other two clauses are
``toSelf``-gated).

Ray-Data formulation: both sides run the SAME packed minhash explode
(stages/candidates.explode_minhash_packed), tagged by role, and meet
in one hash-partitioned shuffle; each bucket emits query x index cross
pairs only. The stored index is the ``s1_sketches`` stage checkpoint
of a previous run (or any sketch Dataset), re-read as parquet — the
binary sketch reader path (S4)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray.data

from mhray.config import MhapConfig
from mhray.stages.candidates import (_cross_pairs, aggregate_pair_partials,
                                     auto_parts, cross_members,
                                     explode_minhash_packed, make_count_gate,
                                     members_view, pack_members,
                                     unpack_entries)

_PAIR_SCHEMA = pa.schema([
    ("lo", pa.int64()), ("hi", pa.int64()), ("partial_count", pa.int64()),
    ("capped", pa.bool_()), ("pair_part", pa.int32()),
])


def make_emit_cross_pairs(cap: int, num_parts: int):
    """map_groups(part) fn: for every LSH key present on BOTH sides,
    emit the query x index cross pairs (lo=query iid, hi=index iid —
    NOT canonicalized: the two id spaces are independent), with
    per-partition partial counts. Sides capped at ``cap`` smallest
    iids per key group, drops logged."""

    def emit_cross(part: pa.Table) -> pa.Table:
        role = np.asarray(part.column("role"), dtype=np.int8)
        qt = part.filter(pa.array(role == 0))
        it = part.filter(pa.array(role == 1))
        qk, qi = unpack_entries(qt)
        ik, ii = unpack_entries(it)
        lo, hi, capped, dropped = _cross_pairs(qk, qi, ik, ii, cap)
        if dropped:
            print(f"[mhray] cross-pair group cap: dropped {dropped} ids in one partition")
        if len(lo) == 0:
            return _PAIR_SCHEMA.empty_table()
        return aggregate_pair_partials(lo, hi, capped, num_parts)

    return emit_cross


def load_sketch_index(index: "str | ray.data.Dataset"):
    """A stored ``s1_sketches`` checkpoint dir (its ``data/`` parquet)
    or an in-memory sketch Dataset -> valid sketch rows."""
    if isinstance(index, str):
        data_dir = os.path.join(index, "data")
        path = data_dir if os.path.isdir(data_dir) else index
        index = ray.data.read_parquet(path)
    return index.filter(expr="valid == True")


def find_matches(query_ds, index, cfg: MhapConfig,
                 num_parts: int | None = None, freq_ref=None,
                 decode_pixels: bool = False):
    """NEW records vs a stored index -> verified match pairs
    (lo=query iid, hi=index iid, shared_slots, score, ...).

    ``query_ds`` is a raw image/caption Dataset (sketched here with the
    same config — AbstractMatchSearch streams query sketches, it never
    stores them); ``index`` is a previous run's ``s1_sketches``
    checkpoint directory or a sketch Dataset. Pass the SAME ``freq_ref``
    the index run used or signatures will not line up.

    Rep-collapse (the flagship's own scale trick, applied to -q mode):
    identical captions have identical sketches, so only one REP per
    distinct caption enters the LSH exchange on each side — the stored
    index already carries ``rep_iid`` from its s1 run, the query batch
    gets the same min-iid-per-caption assignment here from one shuffle
    that packs its members per caption — and every verified rep pair
    expands to all member cross pairs afterwards (output-proportional:
    each side's members are packed per rep, attached to the rep pairs
    and crossed). Without the collapse a clustered corpus pays clique²
    × shared-band candidate rows (measured 87M partial pairs for a
    100k-query / 2M-index run); the expansion reproduces EXACTLY the
    pairs the uncollapsed exchange verifies, because verify scores
    depend only on caption sketches (parity pytest:
    tests/test_incremental.py). An index Dataset without ``rep_iid``
    (any ad-hoc sketch table) skips the index-side collapse and still
    gets the query-side one."""
    from mhray.rayutil import attach_payload, semi_join_ids
    from mhray.stages.sketch import sketch_dataset

    num_parts = auto_parts(num_parts)
    index_full = load_sketch_index(index).materialize()
    query_full = sketch_dataset(query_ds, cfg, freq_ref=freq_ref,
                                decode_pixels=decode_pixels) \
        .filter(expr="valid == True").materialize()

    # --- rep collapse, index side (rep_iid persisted by s1) ---------
    if "rep_iid" in index_full.schema().names:
        index_sk = index_full.filter(expr="iid == rep_iid").materialize()
        index_members = pack_members(
            index_full.select_columns(["rep_iid", "iid"]), "rep_iid",
            ("iid",), num_parts).materialize()
    else:
        index_sk = index_full
        index_members = None

    # --- rep collapse, query side: members per caption_hash, sorted
    # by iid, so the rep (min iid per caption) is each group's first
    def add_qrep(batch: pa.Table) -> pa.Table:
        (iids,), offs = members_view(batch.column("members"), 1)
        return pa.table({"qrep": pa.array(iids[offs[:-1]], pa.int64()),
                         "members": batch.column("members")})

    query_members = pack_members(
        query_full.select_columns(["caption_hash", "iid"]), "caption_hash",
        ("iid",), num_parts).map_batches(
        add_qrep, batch_format="pyarrow", zero_copy_batch=True).materialize()
    members_schema = pa.schema([("qrep", pa.int64()),
                                ("members", pa.binary())])
    query_sk = semi_join_ids(query_full, query_members, "iid", "qrep",
                             num_parts).materialize()

    def tag(role: int):
        def add_role(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "role", pa.array(np.full(batch.num_rows, role, np.int8),
                                 pa.int8()))
        return add_role

    explode_kw = {"num_hashes": cfg.num_hashes, "num_parts": num_parts}
    entries = query_sk.map_batches(
        explode_minhash_packed, fn_kwargs=explode_kw,
        batch_format="pyarrow", zero_copy_batch=True,
    ).map_batches(tag(0), batch_format="pyarrow").union(
        index_sk.map_batches(
            explode_minhash_packed, fn_kwargs=explode_kw,
            batch_format="pyarrow", zero_copy_batch=True,
        ).map_batches(tag(1), batch_format="pyarrow"))

    pairs = entries.groupby("part", num_partitions=num_parts).map_groups(
        make_emit_cross_pairs(cfg.band_group_cap, num_parts),
        batch_format="pyarrow")
    gated = pairs.groupby("pair_part", num_partitions=num_parts).map_groups(
        make_count_gate(cfg.num_min_matches), batch_format="pyarrow")

    if cfg.min_store_length > 0:
        # toSelf=false keeps only "never short to short"
        # (MinHashSearch.java:210-212) — the shared gate, with the two
        # independent iid spaces as lo/hi sides
        from mhray.stages.candidates import apply_store_length_gate

        gated = apply_store_length_gate(
            gated, query_sk.select_columns(["iid", "caption_len"]),
            index_sk.select_columns(["iid", "caption_len"]),
            cfg.min_store_length, num_parts)

    # verify needs each side's bottom sketch from ITS OWN table (the
    # two iid spaces are independent) — attach query side then index
    # side, query sketch first (the reference verifies
    # query.getOverlapInfo(matched))
    pair_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                             ("shared_slots", pa.int64())])
    side_schema = pa.schema([("iid", pa.int64()), ("bs_blob", pa.binary())])
    vj = attach_payload(gated, "lo",
                        query_sk.select_columns(["iid", "bs_blob"]),
                        "iid", ("bs_blob",), "lo",
                        max(2, min(8, num_parts)),
                        pairs_schema=pair_schema, side_schema=side_schema)
    mid = pa.schema(list(pair_schema) + [pa.field("bs_blob_lo", pa.binary())])
    vj = attach_payload(vj, "hi",
                        index_sk.select_columns(["iid", "bs_blob"]),
                        "iid", ("bs_blob",), "hi",
                        max(2, min(8, num_parts)),
                        pairs_schema=mid, side_schema=side_schema)
    from mhray.stages.verify import VerifyPairs

    verified = vj.map_batches(
        VerifyPairs(cfg), batch_size=cfg.verify_batch_size,
        batch_format="pyarrow", zero_copy_batch=True,
    )

    # --- expand verified REP pairs to member cross pairs ------------
    # Identical captions share sketches, so every member pair inherits
    # the rep pair's verify metrics verbatim.
    metric_fields = [("shared_slots", pa.int64()),
                     ("score", pa.float64()), ("raw_score", pa.float64()),
                     ("a1", pa.int32()), ("a2", pa.int32()),
                     ("b1", pa.int32()), ("b2", pa.int32())]
    verified_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                 *metric_fields])
    out = attach_payload(verified, "lo", query_members, "qrep",
                         ("members",), "q", num_parts,
                         pairs_schema=verified_schema,
                         side_schema=members_schema)
    if index_members is not None:
        out = attach_payload(
            out, "hi", index_members, "rep_iid", ("members",), "i",
            num_parts,
            pairs_schema=pa.schema(list(verified_schema) + [
                pa.field("members_q", pa.binary())]),
            side_schema=pa.schema([("rep_iid", pa.int64()),
                                   ("members", pa.binary())]))

    def expand_members(batch: pa.Table) -> pa.Table:
        (q_iids,), q_offs = members_view(batch.column("members_q"), 1)
        if "members_i" in batch.column_names:
            (i_iids,), i_offs = members_view(batch.column("members_i"), 1)
        else:  # no index collapse: each hi is its own only member
            i_iids = np.asarray(batch.column("hi"), dtype=np.int64)
            i_offs = np.arange(batch.num_rows + 1)
        row, a, b = cross_members(q_offs, i_offs)
        take = pa.array(row, pa.int64())
        cols = {"lo": pa.array(q_iids[a], pa.int64()),
                "hi": pa.array(i_iids[b], pa.int64())}
        for name, _ in metric_fields:
            cols[name] = batch.column(name).take(take)
        return pa.table(cols)

    return out.map_batches(expand_members, batch_format="pyarrow",
                           zero_copy_batch=True)
