"""The flagship pipeline: near-duplicate detection + clustering over an
image+caption table (the MhapMain computeMain lifecycle,
main/MhapMain.java:377-552, re-expressed as streaming Ray Data stages;
SURVEY.md §3.4).

    images ─ s1: sketch tasks (T1+T2+F4 fused) -> exact-caption
       │        representatives (candidates.assign_reps: rep = min
       │        iid per identical caption, one caption_hash shuffle
       │        of per-batch minima + one keyed attach — collapses hot
       │        boilerplate BEFORE any LSH explode)        [ckpt s1]
       ├─ s2: rep-level MinHash LSH -> slot-count gate ->
       │        sketch-attach joins -> positional verify   [ckpt s2]
       ├─ s3: pHash band LSH over all rows, Hamming gate,
       │        + final caption gate (same rep, or rep pair
       │        verified >= threshold) — fused             [ckpt s3]
       └─ s4: union-find clusters + full assignment        [ckpt s4]

Semantics (mirrored by mhray.oracle): a pair is a duplicate iff
  shared-slots(sig) >= num_min_matches  AND  verify score >= threshold
  AND  pHash band collision  AND  hamming(phash) <= phash_max_hamming.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from mhray.checkpoint import input_fingerprint, stage_checkpoint, stage_digest
from mhray.config import MhapConfig
from mhray.rayutil import exchange, parquet_size, plan_parts, read_parquet
from mhray.stages.candidates import (assign_reps, explode_phash_bands,
                                     minhash_candidates)
from mhray.stages.cluster import assign_clusters, cluster_edges
from mhray.stages.sketch import sketch_dataset
from mhray.stages.verify import verify_candidates


def run_dedup(images_path: str, out_dir: str, cfg: MhapConfig, *,
              freq_ref=None, decode_pixels: bool = True,
              num_parts: int | None = None, resume: bool = True,
              persist: bool = True) -> dict:
    """Run the full pipeline; returns dataset handles + output paths.
    Every exchange uses ``num_parts`` partitions, by default
    :func:`mhray.rayutil.plan_parts` over the image table's footers."""
    num_parts = plan_parts(*parquet_size(images_path), requested=num_parts)

    # s1: sketches + exact-caption rep assignment -------------------------
    # The sketch table is materialized once: assign_reps reads it for
    # the per-caption minima, then attaches them to every row.
    def compute_sketches():
        images = read_parquet(images_path)
        sk = sketch_dataset(images, cfg, freq_ref=freq_ref,
                            decode_pixels=decode_pixels).materialize()
        return assign_reps(sk, num_parts)

    in_fp = input_fingerprint(images_path)
    sketches = stage_checkpoint("s1_sketches", out_dir, compute_sketches, cfg,
                                resume=resume, persist=persist,
                                parents=(in_fp,))
    d1 = stage_digest(out_dir, "s1_sketches")
    valid = sketches.filter(expr="valid == True")

    # s2: caption axis at rep level ---------------------------------------
    def compute_rep_pairs():
        rep_rows = valid.filter(expr="iid == rep_iid").materialize()
        cands = minhash_candidates(rep_rows, cfg, num_parts)
        return verify_candidates(cands, rep_rows, cfg, num_parts)

    s2_schema = pa.schema([
        ("lo", pa.int64()), ("hi", pa.int64()),
        ("shared_slots", pa.int64()), ("score", pa.float64()),
        ("raw_score", pa.float64()), ("a1", pa.int32()),
        ("a2", pa.int32()), ("b1", pa.int32()), ("b2", pa.int32())])
    rep_pairs = stage_checkpoint("s2_rep_pairs", out_dir, compute_rep_pairs,
                                 cfg, resume=resume, persist=persist,
                                 parents=(d1,), empty_schema=s2_schema)
    d2 = stage_digest(out_dir, "s2_rep_pairs")

    # s3: image axis (pHash banding) + final caption gate, fused ---------
    # Identical pHash values collapse to ONE group row before banding
    # (noise variants + re-encodes often hash identically), and the
    # Hamming gate runs at DISTINCT-pHash granularity BEFORE any row
    # expansion — random 16-bit band collisions (the quadratic cost at
    # scale) die without ever materializing row pairs.
    def compute_final_pairs():
        from mhray.rayutil import attach_payload
        from mhray.stages.candidates import (cross_members, make_pair_min,
                                             members_view, pack_members)

        # --- pHash groups: (phash, members = packed (iid, rep_iid)) ----
        groups = pack_members(valid.select_columns(["phash", "iid", "rep_iid"]),
                              "phash", ("iid", "rep_iid"),
                              num_parts).materialize()

        _EXP_EMPTY = pa.table({
            "lo": pa.array([], pa.int64()), "hi": pa.array([], pa.int64()),
            "rep_lo": pa.array([], pa.int64()),
            "rep_hi": pa.array([], pa.int64()),
            "hamming": pa.array([], pa.int32())})

        # --- same-pHash pairs (Hamming 0, bands trivially collide) ----
        def expand_same(batch: pa.Table) -> pa.Table:
            from mhray.stages.candidates import _pairs_within_groups

            (iids, reps), moffs = members_view(batch.column("members"), 2)
            if len(iids) == 0:
                return _EXP_EMPTY
            # group ordinal per member -> the tested ragged upper-
            # triangle emission (canonical lo<hi by iid, payload rides)
            keys = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                             np.diff(moffs))
            lo, hi, _, _, rlo, rhi = _pairs_within_groups(
                keys, iids, 1 << 62, payload=reps)
            return pa.table({
                "lo": pa.array(lo, pa.int64()),
                "hi": pa.array(hi, pa.int64()),
                "rep_lo": pa.array(rlo, pa.int64()),
                "rep_hi": pa.array(rhi, pa.int64()),
                "hamming": pa.array(np.zeros(len(lo), np.int32), pa.int32()),
            })

        same_p = groups.map_batches(expand_same, batch_format="pyarrow",
                                    zero_copy_batch=True)

        # --- distinct-pHash band LSH + Hamming gate, THEN expansion ---
        bands = groups.map_batches(
            lambda b: explode_phash_bands(
                pa.table({"phash": b.column("phash"),
                          "iid": b.column("phash")}),  # the value is its own id
                cfg.phash_bands, cfg.phash_band_bits, num_parts),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        # Hamming gate fused INTO the band-bucket emission: random
        # 16-bit band collisions (millions of junk pairs at scale) die
        # before any row leaves the partition; only gated distinct-
        # pHash pairs reach the dedupe shuffle
        from mhray.stages.candidates import make_emit_phash_pairs

        pp = exchange(bands, "part", num_parts, make_emit_phash_pairs(
            cfg.band_group_cap, cfg.phash_max_hamming, num_parts))
        pp = exchange(pp, "pair_part", num_parts, make_pair_min("hamming"))

        g_schema = pa.schema([("phash", pa.int64()), ("members", pa.binary())])
        pp_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                               ("hamming", pa.int32())])
        pp = attach_payload(pp, "lo", groups, "phash", ("members",), "lo",
                            num_parts, pairs_schema=pp_schema,
                            side_schema=g_schema)
        mid = pa.schema(list(pp_schema) + [pa.field("members_lo", pa.binary())])
        pp = attach_payload(pp, "hi", groups, "phash", ("members",), "hi",
                            num_parts, pairs_schema=mid, side_schema=g_schema)

        def expand_cross(batch: pa.Table) -> pa.Table:
            """Every lo-group member x every hi-group member of each
            distinct-pHash pair."""
            (il, rl), mo_l = members_view(batch.column("members_lo"), 2)
            (ih, rh), mo_h = members_view(batch.column("members_hi"), 2)
            row, ga, gb = cross_members(mo_l, mo_h)
            if len(ga) == 0:
                return _EXP_EMPTY
            ia, ra = il[ga], rl[ga]
            ib, rb = ih[gb], rh[gb]
            swap = ia > ib
            hams = np.asarray(batch.column("hamming"), dtype=np.int32)
            return pa.table({
                "lo": pa.array(np.where(swap, ib, ia), pa.int64()),
                "hi": pa.array(np.where(swap, ia, ib), pa.int64()),
                "rep_lo": pa.array(np.where(swap, rb, ra), pa.int64()),
                "rep_hi": pa.array(np.where(swap, ra, rb), pa.int64()),
                "hamming": pa.array(hams[row], pa.int32()),
            })

        cross = pp.map_batches(expand_cross, batch_format="pyarrow",
                               zero_copy_batch=True)
        phash_pairs = same_p.union(cross)

        def canon(batch: pa.Table) -> pa.Table:
            rl = np.asarray(batch.column("rep_lo"), dtype=np.int64)
            rh = np.asarray(batch.column("rep_hi"), dtype=np.int64)
            return pa.table({
                "lo": batch.column("lo"), "hi": batch.column("hi"),
                "hamming": batch.column("hamming"),
                "same_rep": pa.array(rl == rh),
                "rlo": pa.array(np.minimum(rl, rh), pa.int64()),
                "rhi": pa.array(np.maximum(rl, rh), pa.int64()),
            })

        # materialize before branching: `p` feeds BOTH the same-rep and
        # diff-rep branches — lazy, the whole pHash LSH would run twice
        p = phash_pairs.map_batches(canon, batch_format="pyarrow",
                                    zero_copy_batch=True).materialize()
        same = p.filter(expr="same_rep == True").map_batches(
            lambda b: b.select(["lo", "hi", "hamming"]).append_column(
                "score", pa.array(np.ones(b.num_rows), pa.float64())),
            batch_format="pyarrow",
        )
        # final caption gate: each diff-rep pair inherits its rep
        # pair's verified score; rep pairs that failed verify (absent
        # from s2) drop the pair
        diff = attach_payload(
            p.filter(expr="same_rep == False"), ("rlo", "rhi"), rep_pairs,
            ("lo", "hi"), ("score",), "rep", num_parts,
            pairs_schema=pa.schema([
                ("lo", pa.int64()), ("hi", pa.int64()),
                ("hamming", pa.int32()), ("same_rep", pa.bool_()),
                ("rlo", pa.int64()), ("rhi", pa.int64())]),
            side_schema=s2_schema,
        ).map_batches(
            lambda b: pa.table({
                "lo": b.column("lo"), "hi": b.column("hi"),
                "hamming": b.column("hamming"),
                "score": b.column("score_rep"),
            }),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        return _with_substring(same.union(diff))

    def _with_substring(pairs_so_far):
        """Optional north-star axis: exact long-substring caption pairs
        (``substring_pairs``: winnowed fingerprints, then an exact
        per-pair LCS verify) gated by the same image condition, unioned
        into the caption pairs and deduped."""
        if not cfg.substr_pass:
            return pairs_so_far

        from mhray.kernels import hamming64, phash_band_keys
        from mhray.rayutil import attach_payload_both
        from mhray.stages.candidates import _pair_part, make_pair_min
        from mhray.stages.substring import substring_pairs

        def to_doc(batch: pa.Table) -> pa.Table:
            from mhray.oracle import image_iid

            return pa.table({
                "doc_id": pa.array(
                    image_iid(batch.column("image_id").to_pylist()),
                    pa.int64()),
                "text": batch.column("caption"),
            })

        texts = read_parquet(
            images_path, columns=["image_id", "caption"]
        ).map_batches(to_doc, batch_format="pyarrow", zero_copy_batch=True)
        sp = substring_pairs(texts, min_len=cfg.substr_min_length,
                             window=cfg.substr_window, num_parts=num_parts)
        ph_side = valid.select_columns(["iid", "phash"]).materialize()
        sp = attach_payload_both(
            sp, ph_side, "iid", ("phash",), num_parts=num_parts,
            pairs_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                    ("lcs_len", pa.int64())]),
            side_schema=pa.schema([("iid", pa.int64()),
                                   ("phash", pa.int64())]))

        def substr_gate(batch: pa.Table) -> pa.Table:
            a = np.asarray(batch.column("phash_lo"), dtype=np.int64)
            b = np.asarray(batch.column("phash_hi"), dtype=np.int64)
            ham = hamming64(a, b).astype(np.int32)
            band_hit = (
                phash_band_keys(a, cfg.phash_bands, cfg.phash_band_bits)
                == phash_band_keys(b, cfg.phash_bands, cfg.phash_band_bits)
            ).any(axis=1)
            keep = (ham <= cfg.phash_max_hamming) & band_hit
            return pa.table({
                "lo": batch.column("lo").filter(pa.array(keep)),
                "hi": batch.column("hi").filter(pa.array(keep)),
                "hamming": pa.array(ham[keep], pa.int32()),
                "score": pa.array(np.ones(int(keep.sum())), pa.float64()),
            })

        sub = sp.map_batches(substr_gate, batch_format="pyarrow",
                             zero_copy_batch=True)

        # dedupe pairs found by both axes (keep the max score)
        def add_part(batch: pa.Table) -> pa.Table:
            lo = np.asarray(batch.column("lo"), np.int64)
            hi = np.asarray(batch.column("hi"), np.int64)
            neg = pa.array(-np.asarray(batch.column("score"), np.float64))
            return batch.append_column(
                "pair_part", pa.array(_pair_part(lo, hi, num_parts), pa.int32())
            ).append_column("neg_score", neg)

        merged = pairs_so_far.union(sub).map_batches(
            add_part, batch_format="pyarrow")
        deduped = exchange(merged, "pair_part", num_parts, make_pair_min(
            "neg_score", payload_cols=("hamming", "score")))
        return deduped.drop_columns(["neg_score"])

    s3_schema = pa.schema([
        ("lo", pa.int64()), ("hi", pa.int64()),
        ("hamming", pa.int32()), ("score", pa.float64())])
    final_pairs = stage_checkpoint("s3_pairs", out_dir, compute_final_pairs,
                                   cfg, resume=resume, persist=persist,
                                   parents=(d1, d2), empty_schema=s3_schema)
    d3 = stage_digest(out_dir, "s3_pairs")

    # s5: clusters ---------------------------------------------------------
    def compute_clusters():
        pair_clusters = cluster_edges(final_pairs,
                                      max_rounds=cfg.cluster_max_rounds,
                                      num_partitions=num_parts)
        return assign_clusters(sketches, pair_clusters, num_parts)

    clusters = stage_checkpoint("s4_clusters", out_dir, compute_clusters, cfg,
                                resume=resume, persist=persist,
                                parents=(d1, d3))

    _write_run_summary(out_dir)

    return {
        "sketches": sketches,
        "rep_pairs": rep_pairs,
        "pairs": final_pairs,
        "clusters": clusters,
        "out_dir": out_dir,
    }


def _write_run_summary(out_dir: str) -> None:
    """Run-level metrics record: row totals, reject/representative
    counts (from the checkpoint parquet footers/columns, no Ray ops),
    plus per-stage durations — alongside each stage's per-partition
    lineage manifest."""
    import json
    import os

    import duckdb

    from mhray.checkpoint import read_manifests

    s1 = os.path.join(out_dir, "s1_sketches", "data", "*.parquet")
    pairs = os.path.join(out_dir, "s3_pairs", "data", "*.parquet")
    try:
        n, rejects, reps = duckdb.sql(
            f"SELECT COUNT(*), SUM(CASE WHEN valid THEN 0 ELSE 1 END), "
            f"COUNT(DISTINCT rep_iid) FROM read_parquet('{s1}')"
        ).fetchone()
        n_pairs = duckdb.sql(
            f"SELECT COUNT(*) FROM read_parquet('{pairs}')").fetchone()[0]
    except Exception:
        return  # partial run; stage manifests still carry lineage
    summary = {
        "rows": int(n),
        "rejected_rows": int(rejects or 0),
        "distinct_captions": int(reps),
        "pairs": int(n_pairs),
        "stages": {m["stage"]: {"sec": m["duration_s"], "rows": m["rows"],
                                "partitions": len(m["partitions"])}
                   for m in read_manifests(out_dir)},
    }
    with open(os.path.join(out_dir, "run_summary.json"), "w") as f:
        json.dump(summary, f, indent=1)


def pairs_with_ids(result: dict,
                   num_parts: int | None = None) -> "ray.data.Dataset":
    """(lo, hi, ...) iid pairs -> (lo_id, hi_id, ...) string-id pairs."""
    from mhray.rayutil import attach_payload

    ids = result["sketches"].select_columns(["iid", "image_id"]).materialize()
    ids_schema = pa.schema([("iid", pa.int64()), ("image_id", pa.string())])
    pair_schema = pa.schema([
        ("lo", pa.int64()), ("hi", pa.int64()),
        ("hamming", pa.int32()), ("score", pa.float64())])
    p = attach_payload(result["pairs"], "lo", ids, "iid", ("image_id",),
                       "lo", num_parts, pairs_schema=pair_schema,
                       side_schema=ids_schema)
    mid = pa.schema(list(pair_schema) + [pa.field("image_id_lo", pa.string())])
    p = attach_payload(p, "hi", ids, "iid", ("image_id",), "hi", num_parts,
                       pairs_schema=mid, side_schema=ids_schema)
    return p.map_batches(
        lambda b: pa.table({
            "lo_id": b.column("image_id_lo"),
            "hi_id": b.column("image_id_hi"),
            "score": b.column("score"),
            "hamming": b.column("hamming"),
        }),
        batch_format="pyarrow",
    )
