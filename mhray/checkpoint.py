"""Per-stage checkpoints with manifests + lineage (north-rule resume).

The reference's own checkpoint pattern is the ``-p`` precompute of
binary sketch files reused across runs (main/MhapMain.java:384-451,
impl/SequenceSketchStreamer.java:322-395). Generalized here: every
stage writes partitioned parquet + a ``manifest.json`` (row counts,
per-file lineage, config digest, wall time) and a ``_SUCCESS`` marker;
a resumed run skips any stage whose marker + matching config digest
exist and re-reads the parquet instead — so a failed job continues
from the last completed stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict

import pyarrow.parquet as pq

import ray.data

from mhray.rayutil import read_parquet


def config_digest(cfg) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _lineage(stage_dir: str) -> list[dict]:
    out = []
    for name in sorted(os.listdir(stage_dir)):
        if not name.endswith(".parquet"):
            continue
        path = os.path.join(stage_dir, name)
        md = pq.ParquetFile(path).metadata
        out.append({"file": name, "rows": md.num_rows,
                    "bytes": os.path.getsize(path)})
    return out


def input_fingerprint(path: str) -> str:
    """Digest of a parquet input's file names + row counts (footer
    metadata only) — changes when the input does."""
    import glob as _glob

    files = sorted(_glob.glob(os.path.join(path, "*.parquet"))) \
        if os.path.isdir(path) else [path]
    parts = [
        f"{os.path.basename(f)}:{pq.ParquetFile(f).metadata.num_rows}"
        f":{os.path.getsize(f)}:{int(os.path.getmtime(f))}"
        for f in files
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def stage_checkpoint(name: str, out_dir: str, compute, cfg=None,
                     resume: bool = True, persist: bool = True,
                     parents: tuple = (),
                     empty_schema=None) -> "ray.data.Dataset":
    """Run ``compute() -> Dataset`` with checkpoint/resume semantics.

    On success the stage directory holds partitioned parquet, a
    manifest.json (lineage + metrics record for the stage), and
    _SUCCESS. A matching existing checkpoint short-circuits compute.

    ``parents`` are upstream digests (config/input fingerprints of the
    stages this one consumes): a change anywhere upstream changes this
    stage's digest and forces recompute — no stale-chain resume.
    Read a stage's digest back with ``stage_digest``.

    ``persist=False`` (benchmark / ephemeral runs): skip the parquet
    write->read round-trip — the computed Dataset is materialized in
    the object store and handed straight to downstream stages. The
    manifest (rows, duration, digest) is still written so run telemetry
    survives, marked ``persisted: false``; such a stage is NOT
    resumable and never matches on a later resume=True run.
    """
    stage_dir = os.path.join(out_dir, name)
    data_dir = os.path.join(stage_dir, "data")
    marker = os.path.join(stage_dir, "_SUCCESS")
    manifest_path = os.path.join(stage_dir, "manifest.json")
    digest = None
    if cfg is not None or parents:
        base = config_digest(cfg) if cfg is not None else ""
        digest = hashlib.sha256(
            ("|".join([base, *map(str, parents)])).encode()
        ).hexdigest()[:16]

    if resume and os.path.exists(marker) and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        # the persisted gate applies even to digest-less resumes — a
        # persist=False manifest means data_dir is absent or stale
        if manifest.get("persisted", True) and (
                digest is None
                or manifest.get("config_digest") == digest):
            return read_parquet(data_dir, split=False)

    t0 = time.time()
    ds = compute()
    if not persist:
        ds = ds.materialize()
        os.makedirs(stage_dir, exist_ok=True)
        # invalidate any previous persisted attempt BEFORE writing the
        # new manifest: a crash between the two file ops must never
        # leave a stale marker alongside a persisted:false manifest
        if os.path.exists(marker):
            os.remove(marker)
        manifest = {
            "stage": name,
            "rows": ds.count(),
            "partitions": [],
            "persisted": False,
            "duration_s": round(time.time() - t0, 3),
            "config_digest": digest,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }
        with open(manifest_path, "w") as f:
            json.dump(manifest, f, indent=1)
        return ds
    os.makedirs(data_dir, exist_ok=True)
    for old in os.listdir(data_dir):  # clear a partial previous attempt
        os.remove(os.path.join(data_dir, old))
    if os.path.exists(marker):
        os.remove(marker)
    ds.write_parquet(data_dir)
    if not any(f.endswith(".parquet") for f in os.listdir(data_dir)):
        # an all-empty stage writes ZERO files; reading that back later
        # yields a schema-less dataset and the first select_columns
        # downstream dies. Persist one typed empty file instead.
        import pyarrow as pa

        if isinstance(empty_schema, pa.Schema):
            # prefer the caller-declared schema: ds.schema() on the
            # already-consumed lazy dataset re-executes upstream plan
            # fragments just to recover the schema
            base = empty_schema
        else:
            schema = ds.schema()
            base = getattr(schema, "base_schema", schema)
            if not isinstance(base, pa.Schema):
                # an all-empty computed Dataset can lose its schema
                # entirely; callers with a fixed stage schema pass it
                base = empty_schema
        if isinstance(base, pa.Schema):
            pq.write_table(base.empty_table(),
                           os.path.join(data_dir, "empty.parquet"))
    lineage = _lineage(data_dir)
    manifest = {
        "stage": name,
        "rows": sum(f["rows"] for f in lineage),
        "partitions": lineage,
        "duration_s": round(time.time() - t0, 3),
        "config_digest": digest,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=1)
    with open(marker, "w") as f:
        f.write("")
    return read_parquet(data_dir, split=False)


def stage_digest(out_dir: str, name: str) -> str | None:
    p = os.path.join(out_dir, name, "manifest.json")
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f).get("config_digest")


def read_manifests(out_dir: str) -> list[dict]:
    """All stage manifests under a run dir (the run's metrics records)."""
    out = []
    for name in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, name, "manifest.json")
        if os.path.exists(p):
            with open(p) as f:
                out.append(json.load(f))
    return out
