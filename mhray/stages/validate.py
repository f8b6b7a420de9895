"""Cluster-invariant validation operator (the north-rule per-row
invariant: decoded-pixel PSNR >= 40 dB between cluster members, plus
caption equality for exact-caption pairs).

Runs as a pipeline stage over the final clusters: co-locate each
cluster's rows (one hash-partition exchange carrying the image bytes),
decode, and check every member against the cluster's minimum-iid
representative. Emits one row per image with the invariant verdict —
consumed by pytest as the verification gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from mhray.imageops import UnsupportedFormatError, decode_image, psnr
from mhray.rayutil import exchange, parts_for
from mhray.stages.candidates import _part_of


def validate_clusters(images_ds, clusters_ds,
                      num_parts: int | None = None,
                      min_psnr: float = 40.0):
    """(image_id, cluster_id, psnr_ok, caption_match) per row in a
    multi-member cluster (singletons are trivially valid and skipped)."""
    import ray

    num_parts = parts_for(images_ds, num_parts)
    cl = clusters_ds.select_columns(["image_id", "cluster_id"]).to_pandas()
    cmap = dict(zip(cl["image_id"], cl["cluster_id"]))
    ref = ray.put(cmap)

    def tag(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        ids = batch.column("image_id").to_pylist()
        cids = np.asarray([m.get(i, -1) for i in ids], dtype=np.int64)
        return pa.table({
            "cpart": pa.array(_part_of(cids, num_parts), pa.int32()),
            "cluster_id": pa.array(cids, pa.int64()),
            "image_id": batch.column("image_id"),
            "bytes": batch.column("bytes"),
            "fmt": batch.column("fmt"),
            "caption": batch.column("caption"),
        })

    def check(part: pa.Table) -> pa.Table:
        cids = np.asarray(part.column("cluster_id"), dtype=np.int64)
        ids = part.column("image_id").to_pylist()
        raw = part.column("bytes").to_pylist()
        fmts = part.column("fmt").to_pylist()
        caps = part.column("caption").to_pylist()
        order = np.argsort(cids, kind="stable")
        out_id, out_cid, out_psnr, out_cap = [], [], [], []
        i = 0
        while i < len(order):
            j = i
            while j < len(order) and cids[order[j]] == cids[order[i]]:
                j += 1
            members = order[i:j]
            if len(members) >= 2:
                rep = min(members, key=lambda x: ids[x])
                try:
                    rep_img = decode_image(raw[rep], fmts[rep])
                except (UnsupportedFormatError, ValueError):
                    rep_img = None
                for mix in members:
                    if mix == rep:
                        continue
                    ok = False
                    if rep_img is not None:
                        try:
                            img = decode_image(raw[mix], fmts[mix])
                            ok = psnr(rep_img, img) >= min_psnr
                        except (UnsupportedFormatError, ValueError):
                            pass
                    out_id.append(ids[mix])
                    out_cid.append(int(cids[mix]))
                    out_psnr.append(ok)
                    out_cap.append(caps[mix] == caps[rep])
            i = j
        return pa.table({
            "image_id": pa.array(out_id, pa.string()),
            "cluster_id": pa.array(out_cid, pa.int64()),
            "psnr_ok": pa.array(out_psnr, pa.bool_()),
            "caption_match": pa.array(out_cap, pa.bool_()),
        })

    return exchange(images_ds.map_batches(tag, batch_format="pyarrow",
                                          zero_copy_batch=True),
                    "cpart", num_parts, check)
