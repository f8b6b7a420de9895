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

Ray-Data formulation: both sides are collapsed to one rep per distinct
caption and go through the self-join's own core,
:func:`mhray.stages.candidates.minhash_candidates` and
:func:`mhray.stages.verify.verify_candidates` with ``index=`` set: one
packed explode tagged by role, one hash-partitioned shuffle whose
buckets emit query x index cross pairs only, the count gate, the
store-length gate, the sketch attaches and the verify. The stored index
is the ``s1_sketches`` stage checkpoint of a previous run (or any
sketch Dataset), re-read as parquet — the binary sketch reader path
(S4)."""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

from mhray.config import MhapConfig
from mhray.rayutil import parts_for, read_parquet
from mhray.stages.candidates import (assign_reps, cross_members,
                                     members_view, minhash_candidates,
                                     pack_members)
from mhray.stages.verify import verify_candidates


def load_sketch_index(index: "str | ray.data.Dataset"):
    """A stored ``s1_sketches`` checkpoint dir (its ``data/`` parquet)
    or an in-memory sketch Dataset -> valid sketch rows."""
    if isinstance(index, str):
        data_dir = os.path.join(index, "data")
        path = data_dir if os.path.isdir(data_dir) else index
        index = read_parquet(path, split=False)
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
    the index run used or signatures will not line up, and a config
    with ``bit_prefilter`` only for an index sketched with it (the
    index must carry ``bitsig``).

    Rep-collapse (the flagship's own scale trick, applied to -q mode):
    identical captions have identical sketches, so only one REP per
    distinct caption enters the LSH exchange on each side — the stored
    index already carries ``rep_iid`` from its s1 run, and a side
    without it (the query batch, an ad-hoc sketch table) gets the same
    min-iid-per-caption assignment here (:func:`assign_reps`) — and
    every verified rep pair expands to all member cross pairs
    afterwards (output-proportional: each side's members are packed
    per rep, attached to the rep pairs and crossed). Without the
    collapse a clustered corpus pays clique² × shared-band candidate
    rows (measured 87M partial pairs for a 100k-query / 2M-index run);
    the expansion reproduces EXACTLY the pairs the uncollapsed exchange
    verifies, because verify scores depend only on caption sketches
    (parity pytest: tests/test_incremental.py)."""
    from mhray.rayutil import attach_payload
    from mhray.stages.sketch import sketch_dataset

    index_full = load_sketch_index(index).materialize()
    num_parts = parts_for(index_full, num_parts)
    if cfg.bit_prefilter and "bitsig" not in index_full.schema().names:
        raise ValueError(
            "cfg.bit_prefilter needs a 'bitsig' column in the index; "
            "sketch the index with bit_prefilter=True")
    query_full = sketch_dataset(query_ds, cfg, freq_ref=freq_ref,
                                decode_pixels=decode_pixels) \
        .filter(expr="valid == True").materialize()

    def collapse(side):
        """(rep rows, members packed per rep_iid) of one side."""
        if "rep_iid" not in side.schema().names:
            side = assign_reps(side, num_parts).materialize()
        reps = side.filter(expr="iid == rep_iid").materialize()
        members = pack_members(side.select_columns(["rep_iid", "iid"]),
                               "rep_iid", ("iid",), num_parts).materialize()
        return reps, members

    query_reps, query_members = collapse(query_full)
    index_reps, index_members = collapse(index_full)
    gated = minhash_candidates(query_reps, cfg, num_parts, index=index_reps)
    verified = verify_candidates(gated, query_reps, cfg, num_parts,
                                 index=index_reps)

    # --- expand verified REP pairs to member cross pairs ------------
    # Identical captions share sketches, so every member pair inherits
    # the rep pair's verify metrics verbatim.
    metric_fields = [("shared_slots", pa.int64()),
                     ("score", pa.float64()), ("raw_score", pa.float64()),
                     ("a1", pa.int32()), ("a2", pa.int32()),
                     ("b1", pa.int32()), ("b2", pa.int32())]
    schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                        *metric_fields])
    members_schema = pa.schema([("rep_iid", pa.int64()),
                                ("members", pa.binary())])
    out = verified
    for key, members, suffix in (("lo", query_members, "q"),
                                 ("hi", index_members, "i")):
        out = attach_payload(out, key, members, "rep_iid", ("members",),
                             suffix, num_parts, pairs_schema=schema,
                             side_schema=members_schema)
        schema = schema.append(pa.field(f"members_{suffix}", pa.binary()))

    def expand_members(batch: pa.Table) -> pa.Table:
        (q_iids,), q_offs = members_view(batch.column("members_q"), 1)
        (i_iids,), i_offs = members_view(batch.column("members_i"), 1)
        row, a, b = cross_members(q_offs, i_offs)
        take = pa.array(row, pa.int64())
        cols = {"lo": pa.array(q_iids[a], pa.int64()),
                "hi": pa.array(i_iids[b], pa.int64())}
        for name, _ in metric_fields:
            cols[name] = batch.column(name).take(take)
        return pa.table(cols)

    return out.map_batches(expand_members, batch_format="pyarrow",
                           zero_copy_batch=True)
