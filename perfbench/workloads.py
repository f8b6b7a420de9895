"""The two workloads. Each drives mhray through its public functions:
``make_inputs`` (set-up), ``run_once`` (the timed call, result
materialized), ``check`` (output against an oracle) and ``trace`` (each
layer called on its own, on the inputs the timed run gave it).

Why each exists (also in BENCHMARK.json and LAYERS.md):

- flagship: ``run_dedup`` on a synth image+caption corpus, the
  north-star pipeline; every flagship layer runs. Its traced pass also
  runs ``incremental.find_matches`` of a new batch against the run's own
  ``s1_sketches`` checkpoint (the stored-index query path).
- edit: catalog ``d_edit_pairs``; q-gram postings and banded Levenshtein,
  no MinHash layer at all, but the same attach and pair-emission idioms.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from mhray.checkpoint import read_manifests
from mhray.config import PRESETS
from mhray.oracle import image_iid
from perfbench import inputs

CFG = PRESETS["captions"]
NUM_PARTS = 2
FLAGSHIP_ROWS = 2000
QUERY_ROWS = 500
EDIT_DOCS = 200
STAGES = ("s1_sketches", "s2_rep_pairs", "s3_pairs", "s4_clusters")


def pair_keys(lo, hi) -> np.ndarray:
    """Sorted unique (lo, hi) pairs as one structured array."""
    out = np.empty(len(lo), dtype=[("lo", "<i8"), ("hi", "<i8")])
    out["lo"] = np.asarray(lo, np.int64)
    out["hi"] = np.asarray(hi, np.int64)
    return np.unique(out)


def pairs_equal(got: pa.Table, want: pa.Table, cols=("lo", "hi")) -> bool:
    """Row multisets of ``cols`` are equal."""
    if got.num_rows != want.num_rows:
        return False
    g = got.select(list(cols)).sort_by([(c, "ascending") for c in cols])
    w = want.select(list(cols)).sort_by([(c, "ascending") for c in cols])
    return all(np.array_equal(np.asarray(g.column(c)), np.asarray(w.column(c)))
               for c in cols)


def table_digest(table: pa.Table) -> str:
    h = hashlib.sha256()
    for batch in table.to_batches():
        for col in batch.columns:
            for buf in col.buffers():
                if buf is not None:
                    h.update(buf)
    return h.hexdigest()[:16]


def cached_table(cache_dir: str, key: str, compute) -> pa.Table:
    """``compute()`` once per key, kept as parquet in ``cache_dir``."""
    path = os.path.join(cache_dir, f"{key}.parquet")
    if os.path.exists(path):
        return pq.read_table(path)
    table = compute()
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, path)
    return table


def to_table(ds: "ray.data.Dataset", columns: tuple) -> pa.Table:
    """The rows of a materialized Dataset; its empty blocks may carry no
    schema, so they are skipped."""
    blocks = [t.select(list(columns)) for t in map(ray.get, ds.to_arrow_refs())
              if t.num_rows]
    if not blocks:
        return pa.table({c: pa.array([], pa.int64()) for c in columns})
    return pa.concat_tables(blocks)


def stage_metrics(out_dir: str) -> dict[str, float]:
    """stage.<name>.{wall_s,rows,mb} from a run's stage manifests."""
    out = {}
    for m in read_manifests(out_dir):
        if m["stage"] not in STAGES:
            continue
        p = f"stage.{m['stage']}"
        out[f"{p}.wall_s"] = float(m["duration_s"])
        out[f"{p}.rows"] = float(m["rows"])
        out[f"{p}.mb"] = sum(f["bytes"] for f in m["partitions"]) / 1e6
    return out


class Flagship:
    name = "flagship"
    # per-layer metrics its trace reports (stage.* come from manifests)
    layer_metrics = (
        "sketch.wall_s", "sketch.rows_per_s", "sketch.out_mb",
        "candidates.wall_s", "candidates.pairs",
        "verify.wall_s", "verify.pairs_in", "verify.accepted",
        "verify.accept_ratio",
        "cluster.wall_s", "cluster.edges", "cluster.rounds",
        "cluster.distributed",
        "incremental.wall_s", "incremental.index_rows",
        "incremental.query_rows", "incremental.pairs",
    ) + tuple(f"stage.{s}.{k}" for s in STAGES
              for k in ("wall_s", "rows", "mb"))

    def __init__(self, seed: int, work_dir: str, cache_dir: str):
        self.seed, self.work_dir, self.cache_dir = seed, work_dir, cache_dir
        self.rows = FLAGSHIP_ROWS
        self.images_path = os.path.join(work_dir, "inputs", "images")

    def make_inputs(self) -> None:
        self.corpus = inputs.flagship_corpus(self.seed, self.rows)
        inputs.write_parquet_dir(self.corpus, self.images_path, 4)

    def expected(self) -> pa.Table:
        """Oracle pairs (lo, hi) by iid for this corpus."""
        def compute() -> pa.Table:
            from mhray.oracle import find_pairs

            c = self.corpus
            res = find_pairs(c.column("image_id").to_pylist(),
                             c.column("caption").to_pylist(),
                             np.asarray(c.column("phash")), CFG)
            return pa.table({
                "lo": image_iid(res.pairs.column("lo_id").to_pylist()),
                "hi": image_iid(res.pairs.column("hi_id").to_pylist())})

        key = f"flagship-{table_digest(self.corpus)}"
        return cached_table(self.cache_dir, key, compute)

    def run_once(self, out_dir: str) -> str:
        """``run_dedup``; its stage outputs are persisted under out_dir."""
        from mhray.pipelines.dedup import run_dedup

        run_dedup(self.images_path, out_dir, CFG, decode_pixels=True,
                  num_parts=NUM_PARTS, resume=False)
        return out_dir

    @staticmethod
    def check(out_dir: str, expected: pa.Table) -> bool:
        """The final pairs equal the oracle's."""
        got = pq.read_table(os.path.join(out_dir, "s3_pairs", "data"),
                            columns=["lo", "hi"])
        return pairs_equal(got, expected)

    def trace(self, tracer, out_dir: str) -> tuple[dict, bool]:
        """Each flagship layer on the inputs ``run_dedup`` gave it, read
        back from the stage checkpoints under ``out_dir``; then a query
        batch against the run's ``s1_sketches`` as the stored index."""
        from mhray.stages.candidates import minhash_candidates
        from mhray.stages.cluster import assign_clusters, cluster_edges
        from mhray.stages.incremental import find_matches
        from mhray.stages.sketch import sketch_dataset
        from mhray.stages.verify import verify_candidates

        def ckpt(stage):
            return ray.data.read_parquet(os.path.join(out_dir, stage, "data"))

        m = {}
        with tracer.span(self.name):
            with tracer.span("sketch"):
                sk = sketch_dataset(ray.data.read_parquet(self.images_path),
                                    CFG, decode_pixels=True).materialize()
            m["sketch.out_mb"] = sk.size_bytes() / 1e6
            with tracer.span("load.s1_reps"):
                sketches = ckpt("s1_sketches").materialize()
                reps = sketches.filter(expr="valid == True") \
                    .filter(expr="iid == rep_iid").materialize()
            with tracer.span("candidates"):
                cands = minhash_candidates(reps, CFG, NUM_PARTS).materialize()
            m["candidates.pairs"] = float(cands.count())
            with tracer.span("verify"):
                ver = verify_candidates(cands, reps, CFG,
                                        NUM_PARTS).materialize()
            m["verify.pairs_in"] = m["candidates.pairs"]
            m["verify.accepted"] = float(ver.count())
            m["verify.accept_ratio"] = (m["verify.accepted"]
                                        / max(1.0, m["verify.pairs_in"]))
            with tracer.span("load.s3_pairs"):
                pairs = ckpt("s3_pairs").materialize()
            stats: dict = {}
            with tracer.span("cluster"):
                edges = cluster_edges(pairs, max_rounds=CFG.cluster_max_rounds,
                                      num_partitions=NUM_PARTS, stats=stats)
                assign_clusters(sketches, edges, NUM_PARTS).materialize()
            m["cluster.edges"] = float(stats["edges"])
            m["cluster.rounds"] = float(stats.get("rounds", 0))
            m["cluster.distributed"] = float(stats["path"] == "distributed")

        # the stored-index query path: a new batch against this run's
        # s1_sketches checkpoint
        with tracer.span("query"):
            with tracer.span("load.query"):
                batch, planted = inputs.query_batch(
                    self.seed, self.corpus, QUERY_ROWS, CFG.min_olap_length)
                query_path = inputs.write_parquet_dir(
                    batch, os.path.join(self.work_dir, "inputs", "query"), 2)
            with tracer.span("incremental"):
                found = to_table(find_matches(
                    ray.data.read_parquet(query_path),
                    os.path.join(out_dir, "s1_sketches"), CFG,
                    num_parts=NUM_PARTS).materialize(), ("lo", "hi", "score"))
        m["incremental.index_rows"] = float(sketches.count())
        m["incremental.query_rows"] = float(batch.num_rows)
        m["incremental.pairs"] = float(found.num_rows)

        t = tracer.self_times()
        for layer in ("sketch", "candidates", "verify", "cluster",
                      "incremental"):
            m[f"{layer}.wall_s"] = t[layer]
        m["sketch.rows_per_s"] = self.rows / t["sketch"]
        ok = (m["verify.accepted"] == manifest_rows(out_dir, "s2_rep_pairs")
              and query_check(found, planted, batch))
        return m, ok


def manifest_rows(out_dir: str, stage: str) -> float:
    return float(next(m["rows"] for m in read_manifests(out_dir)
                      if m["stage"] == stage))


def query_check(found: pa.Table, planted: pa.Table, batch: pa.Table) -> bool:
    """Every planted re-upload is found, and every pair is (query row,
    index row) with a score at or above the threshold."""
    have = pair_keys(found.column("lo"), found.column("hi"))
    want = pair_keys(planted.column("lo"), planted.column("hi"))
    query_iids = image_iid(batch.column("image_id").to_pylist())
    return (bool(np.isin(want, have).all())
            and bool(np.isin(np.asarray(found.column("lo")), query_iids).all())
            and bool((np.asarray(found.column("hi"))
                      < inputs.FRESH_ID_OFFSET).all())
            and bool((np.asarray(found.column("score"))
                      >= CFG.threshold).all()))


class Edit:
    name = "edit"
    layer_metrics = ("editjoin.wall_s", "editjoin.docs_in", "editjoin.pairs")
    columns = ("lo", "hi", "dist")

    def __init__(self, seed: int, work_dir: str, cache_dir: str):
        self.seed, self.cache_dir = seed, cache_dir
        self.rows = EDIT_DOCS
        self.docs_dir = os.path.join(work_dir, "inputs")

    def make_inputs(self) -> None:
        self.docs = inputs.edit_documents(self.seed, self.rows)
        os.makedirs(self.docs_dir, exist_ok=True)
        pq.write_table(self.docs, os.path.join(self.docs_dir,
                                               "documents.parquet"))

    def expected(self) -> pa.Table:
        """DuckDB ``ORACLE_SQL['d_edit_pairs']`` over the documents."""
        def compute() -> pa.Table:
            import duckdb

            from mhray.pipelines.queries import ORACLE_SQL

            # one thread: the run is pinned to one CPU, where DuckDB's
            # default of one thread per host CPU took twice as long
            con = duckdb.connect(config={"threads": 1})
            try:
                con.register("documents", self.docs)
                return con.sql(ORACLE_SQL["d_edit_pairs"]).arrow()
            finally:
                con.close()

        return cached_table(self.cache_dir, f"edit-{table_digest(self.docs)}",
                            compute)

    def run_once(self, out_dir: str) -> pa.Table:
        """The ``d_edit_pairs`` catalog entry over the documents."""
        from mhray.pipelines.queries import d_edit_pairs

        return to_table(d_edit_pairs(self.docs_dir).materialize(),
                        self.columns)

    @classmethod
    def check(cls, got: pa.Table, expected: pa.Table) -> bool:
        return pairs_equal(got, expected, cls.columns)

    def trace(self, tracer, out_dir: str) -> tuple[dict, bool]:
        with tracer.span(self.name), tracer.span("editjoin"):
            pairs = self.run_once(out_dir)
        m = {"editjoin.wall_s": tracer.self_times()["editjoin"],
             "editjoin.docs_in": float(self.rows),
             "editjoin.pairs": float(pairs.num_rows)}
        return m, self.check(pairs, self.expected())


WORKLOADS = {w.name: w for w in (Flagship, Edit)}
