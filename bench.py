"""Benchmark harness.

Default: runs the headline pipelines and prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
   "images_per_sec": ...}

Headline = the flagship image+caption near-dup pipeline (sketch ->
LSH -> verify -> cluster) over a deterministic synthetic corpus
(BASELINE.json input_hint shape; cached under /tmp), plus a set of
catalog queries over $GRAFT_SF_DIR (default /root/testdata/sf0.1).

--scaling: runs the headline job twice in FRESH processes at
num_cpus=8 and num_cpus=32 on the identical corpus and reports both
throughputs + scaling efficiency (the sandbox evidence for the
two-cluster-size criterion; see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_ROWS = int(os.environ.get("MHRAY_BENCH_ROWS", "50000"))
SCALING_ROWS = int(os.environ.get("MHRAY_SCALING_ROWS", "500000"))
CORPUS_SEED = 77


def measure_parallel_ceiling(num_cpus: int) -> float:
    """Per-task throughput (iters/sec) of ``num_cpus`` CONCURRENT
    embarrassingly-parallel pure-numpy busy-loop tasks — no shuffle, no
    object movement. The ratio of aggregate throughputs between two
    CPU counts is this box's hardware scaling ceiling (shared memory
    bandwidth): no Ray program can scale better than an
    embarrassingly parallel kernel does. Measured in the SAME process
    as the headline run so the ceiling and the measurement see the
    same machine state."""
    import numpy as np

    import ray

    @ray.remote(num_cpus=1)
    def busy(iters: int) -> float:
        x = np.arange(1 << 19, dtype=np.uint64)  # 4 MiB working set
        t0 = time.time()
        for _ in range(iters):
            x ^= x << np.uint64(13)
            x ^= x >> np.uint64(7)
            x ^= x << np.uint64(17)
        return time.time() - t0

    iters = 300
    ray.get([busy.remote(3) for _ in range(num_cpus)])  # warm workers
    t0 = time.time()
    ray.get([busy.remote(iters) for _ in range(num_cpus)])
    wall = time.time() - t0
    return num_cpus * iters / wall  # aggregate iters/sec


def corpus_dir(rows: int) -> str:
    return f"/tmp/mhray_bench_corpus_{rows}_{CORPUS_SEED}"


def ensure_corpus(rows: int) -> str:
    d = corpus_dir(rows)
    marker = os.path.join(d, "_DONE")
    if not os.path.exists(marker):
        from mhray.synth import SynthSpec, write_corpus_parallel

        os.makedirs(d, exist_ok=True)
        write_corpus_parallel(d, SynthSpec(n_rows=rows, seed=CORPUS_SEED),
                              n_shards=32)
        with open(marker, "w") as f:
            f.write("")
    return d


def warm_workers(num_cpus: int) -> None:
    """Spawn the Ray worker pool + imports BEFORE the timed section:
    the first all-to-all op in a fresh session otherwise pays ~10-15s
    of parallel worker startup (32 x import numpy/pyarrow/ray.data),
    which is cold-start cost, not pipeline throughput."""
    import pyarrow as pa

    import ray.data

    def hold(b: pa.Table) -> pa.Table:
        # pre-import the library tree in this worker (the real cold
        # cost: ~1.5s of mhray + ray.data imports per fresh worker),
        # and hold the CPU so the scheduler spawns the FULL pool
        # instead of reusing two fast workers
        import mhray.imageops  # noqa: F401
        import mhray.stages.candidates  # noqa: F401
        import mhray.stages.dedup  # noqa: F401
        import mhray.stages.verify  # noqa: F401
        time.sleep(0.3)
        return pa.table({"part": b.column("id").cast(pa.int32())})

    ray.data.range(num_cpus * 2, override_num_blocks=num_cpus * 2) \
        .map_batches(hold, batch_format="pyarrow") \
        .groupby("part").count().materialize()


def run_headline(num_cpus: int, rows: int = BENCH_ROWS) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    warm_workers(num_cpus)

    from mhray.config import PRESETS
    from mhray.pipelines.dedup import run_dedup

    d = ensure_corpus(rows)
    out_dir = f"/tmp/mhray_bench_out_{num_cpus}_{time.time_ns()}"
    cfg = PRESETS["captions"]
    t0 = time.time()
    # persist=True measured FASTER than the object-store-only path
    # (persist=False): s1 is consumed by s2+s3+s4, and each re-read
    # from parquet prunes to the columns that stage needs, while a
    # materialized Dataset re-ships the full wide blocks from the
    # object store on every consumer. The checkpoint write pays for
    # itself — and the benched pipeline is the resumable one.
    res = run_dedup(os.path.join(d, "images"), out_dir, cfg,
                    decode_pixels=True, num_parts=min(32, num_cpus),
                    resume=False)
    n_pairs = res["pairs"].count()
    n_clusters = res["clusters"].count()
    elapsed = time.time() - t0
    # per-stage wall times from the run's lineage manifests, read
    # before the out_dir goes
    from mhray.checkpoint import read_manifests

    stages = {m["stage"]: m["duration_s"] for m in read_manifests(out_dir)}
    # bench checkpoints are disposable — accumulated rep/leg out_dirs
    # (2.4 GB each at 2M rows) once filled the disk mid-catalog and
    # OOD-killed a shuffle; reclaim as soon as the counts are in hand
    import shutil

    shutil.rmtree(out_dir, ignore_errors=True)
    out = {
        "sec": round(elapsed, 2),
        "rows": rows,
        "images_per_sec": round(rows / elapsed, 1),
        "pairs": n_pairs,
        "cluster_rows": n_clusters,
        "stages": stages,
    }
    if os.environ.get("MHRAY_MEASURE_CEILING") == "1":
        out["ceiling_agg_throughput"] = round(
            measure_parallel_ceiling(num_cpus), 2)
    return out


def run_catalog_queries(sf_dir: str) -> dict[str, float]:
    from mhray.pipelines.queries import QUERIES

    names = ["q_pricing_summary", "q_join_agg", "q_topk_orders",
             "q_events_hourly", "d_exact_dedup", "d_minhash_pairs",
             "d_simhash_pairs", "e_knn_brute", "d_fingerprints",
             "ev_range_count", "e_semdedup", "d_decontaminate",
             "d_repetition", "d_chunk_dedup", "d_quality_buckets",
             "ev_json_extract", "d_containment_pairs", "d_novelty",
             "ev_retention", "ev_anomaly", "d_sketch_align",
             "e_centroid_dist", "e_knn_label_vote", "d_suffix_pairs",
             "q_sample_percentiles", "q_rank_in_group", "d_edit_pairs"]
    # d_dup_triangles is deliberately NOT benched at sf0.1: triangle
    # counting is Θ(Σ triangles) by definition and the sf0.1 dup graph
    # is clique-heavy (~1e9 triangles — hours of shuffle for a number
    # with no benchmark meaning); the driver witnesses it at sf0.01
    # (1.88M triangles, ~8s) where the clique structure matches the
    # graphs the metric is for (per-cluster cohesion, not whole-corpus
    # enumeration).
    out = {}
    for name in names:
        t0 = time.time()
        res = QUERIES[name](sf_dir)
        import ray.data

        if isinstance(res, ray.data.Dataset):
            res.count()
        out[name] = round(time.time() - t0, 2)
    return out


def run_correctness(sf_dir: str, out_path: str) -> dict:
    """Run EVERY catalog query vs its DuckDB oracle and write a
    correctness artifact in the driver's exact format (per query:
    rows_match / schema_match / hash_match / spark_rows / oracle_rows /
    err, with ``"no_oracle"`` for rows-only entries). The driver's own
    gate covers only the first 50 catalog keys; this covers all of
    them. hash_match here = order-insensitive value equality after
    sorting columns by name and rows by all columns (floats compared
    at atol 1e-9 with NaN==NaN), the same criterion the pytest oracle
    gate applies."""
    import duckdb
    import numpy as np
    import pyarrow as pa

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from mhray.pipelines.queries import ORACLE_SQL, QUERIES

    tables = ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]
    con = duckdb.connect()
    for t in tables:
        con.sql(f"CREATE VIEW {t} AS "
                f"SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    def to_pandas(result):
        if isinstance(result, ray.data.Dataset):
            return result.to_pandas()
        if isinstance(result, pa.Table):
            return result.to_pandas()
        return result

    def canon(df):
        # sort rows by a float-rounded key so values that differ only
        # within the compare tolerance order the SAME way in both
        # frames (raw float sorting could misalign near-equal rows and
        # report a false mismatch); the raw unrounded columns follow
        # as FINAL tie-break keys so rows that collide at the rounding
        # boundary yet differ beyond atol still order deterministically
        # in both frames; the comparison itself runs on the unrounded
        # values
        import pandas as pd

        df = df[sorted(df.columns)].reset_index(drop=True)
        keys = df.copy()
        for c in keys.columns:
            if keys[c].dtype.kind == "f":
                keys[c] = keys[c].round(6)
        raw = df.add_suffix("__raw")
        both = pd.concat([keys, raw], axis=1)
        order = both.sort_values(
            by=list(keys.columns) + list(raw.columns)).index
        return df.loc[order].reset_index(drop=True)

    def values_match(a, b) -> bool:
        a, b = canon(a), canon(b)
        for col in a.columns:
            av, bv = a[col].to_numpy(), b[col].to_numpy()
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                if not np.allclose(av.astype(np.float64),
                                   bv.astype(np.float64),
                                   rtol=0, atol=1e-9, equal_nan=True):
                    return False
            else:
                # the str-cast fallback bridges representation-only
                # gaps (object vs '<U' strings); a numeric column on
                # one side and a non-numeric on the other is a real
                # type break and must NOT green via stringification
                numeric = frozenset("iufb")
                if ((av.dtype.kind in numeric)
                        != (bv.dtype.kind in numeric)):
                    return False
                if not (np.array_equal(av, bv)
                        or (av.astype(str) == bv.astype(str)).all()):
                    return False
        return True

    report = {}
    for name, fn in QUERIES.items():
        entry = {"rows_match": None, "schema_match": None,
                 "hash_match": None, "spark_rows": None,
                 "oracle_rows": None, "err": None}
        try:
            df = to_pandas(fn(sf_dir))
            entry["spark_rows"] = int(len(df))
            if name not in ORACLE_SQL:
                entry["err"] = "no_oracle"
            else:
                sql_df = con.sql(ORACLE_SQL[name]).df()
                entry["oracle_rows"] = int(len(sql_df))
                entry["rows_match"] = len(df) == len(sql_df)
                entry["schema_match"] = (
                    sorted(df.columns) == sorted(sql_df.columns))
                entry["hash_match"] = bool(
                    entry["rows_match"] and entry["schema_match"]
                    and values_match(df, sql_df))
        except Exception as e:  # noqa: BLE001 — recorded, not masked
            entry["err"] = f"{type(e).__name__}: {e}"[:300]
        report[name] = entry
        status = ("no_oracle" if entry["err"] == "no_oracle" else
                  "ERR" if entry["err"] else
                  "ok" if entry["hash_match"] else "MISMATCH")
        print(f"[correctness] {name}: {status}", file=sys.stderr)
    with open(out_path, "w") as f:
        json.dump(report, f, indent=2)
    return report


def main() -> None:
    if "--correctness" in sys.argv:
        sf = os.environ.get("GRAFT_CORRECTNESS_SF", "/root/testdata/sf0.01")
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "CORRECTNESS_full.json")
        report = run_correctness(sf, out)
        green = sum(1 for e in report.values() if e["hash_match"])
        rows_only = sum(1 for e in report.values()
                        if e["err"] == "no_oracle")
        bad = sum(1 for e in report.values()
                  if e["err"] not in (None, "no_oracle")
                  or e["hash_match"] is False)
        print(json.dumps({"metric": "full-catalog correctness",
                          "queries": len(report), "hash_green": green,
                          "rows_only": rows_only, "failures": bad,
                          "sf": sf, "out": out}))
        import ray

        ray.shutdown()
        return

    if "--headline-only" in sys.argv:
        rows = int(os.environ.get("MHRAY_HEADLINE_ROWS", BENCH_ROWS))
        stats = run_headline(NUM_CPUS, rows)
        print(json.dumps({"headline": stats, "num_cpus": NUM_CPUS}))
        return

    if "--stages" in sys.argv:
        # per-stage wall times from the run's lineage manifests —
        # stage-level numbers are far more variance-robust for
        # round-over-round comparison than one end-to-end figure
        rows = int(os.environ.get("MHRAY_HEADLINE_ROWS", BENCH_ROWS))
        stats = run_headline(NUM_CPUS, rows)
        stages = stats.pop("stages")
        print(json.dumps({"headline": stats, "stages": stages,
                          "num_cpus": NUM_CPUS}))
        return

    if "--scaling" in sys.argv:
        ensure_corpus(SCALING_ROWS)  # generate once; both runs read it
        results = {}
        for cpus in (8, 32):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus),
                       MHRAY_HEADLINE_ROWS=str(SCALING_ROWS),
                       MHRAY_MEASURE_CEILING="1")
            proc = subprocess.run(
                [sys.executable, __file__, "--headline-only"],
                capture_output=True, text=True, env=env,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            line = [ln for ln in proc.stdout.splitlines()
                    if ln.startswith("{")][-1]
            results[cpus] = json.loads(line)["headline"]
        t8 = results[8]["images_per_sec"]
        t32 = results[32]["images_per_sec"]
        efficiency = (t32 / t8) / (32 / 8)
        out = {
            "metric": "scaling efficiency 8->32 cpus (headline dedup)",
            "imgs_per_sec_8": t8,
            "imgs_per_sec_32": t32,
            "efficiency": round(efficiency, 3),
            "sec_8": results[8]["sec"],
            "sec_32": results[32]["sec"],
            "rows": SCALING_ROWS,
        }
        c8 = results[8].get("ceiling_agg_throughput")
        c32 = results[32].get("ceiling_agg_throughput")
        if c8 and c32:
            # hardware ceiling: how well an embarrassingly-parallel
            # pure-numpy kernel (no shuffle, no object store) scales
            # 8->32 concurrent tasks on this box, measured in the same
            # processes as the two headline runs
            ceiling = (c32 / c8) / (32 / 8)
            out["ceiling_efficiency"] = round(ceiling, 3)
            out["normalized_efficiency"] = round(efficiency / ceiling, 3)
        print(json.dumps(out))
        return

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    # median-of-N flagship reps: this host shows +-50% run-to-run wall
    # variance (external VM load); a single draw is not a measurement.
    reps = max(1, int(os.environ.get("MHRAY_HEADLINE_REPS", "3")))
    runs = [run_headline(NUM_CPUS) for _ in range(reps)]
    headline = sorted(runs, key=lambda r: r["sec"])[len(runs) // 2]
    queries = run_catalog_queries(SF_DIR)
    queries["flagship_dedup"] = headline["sec"]
    total = round(sum(queries.values()), 2)
    print(json.dumps({
        "metric": "end-to-end dedup + catalog pipeline wall time",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "images_per_sec": headline["images_per_sec"],
        "bench_rows": headline["rows"],
        "pairs": headline["pairs"],
        "flagship_reps_sec": [r["sec"] for r in runs],
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
