"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in the library code.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship: the MHAP-style two-stage near-dup pipeline + union-find
    clustering over the sf0.001 documents table — sketch tasks ->
    signature LSH shuffle -> positional verify -> cluster assignment."""
    import pyarrow as pa

    import ray.data

    from mhray.config import PRESETS
    from mhray.rayutil import attach_payload
    from mhray.stages.cluster import cluster_edges
    from mhray.stages.dedup import minhash_text_pairs

    sf_dir = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    cfg = PRESETS["captions"].with_(threshold=0.9)
    pairs = minhash_text_pairs(docs, cfg).materialize()
    pair_clusters = cluster_edges(pairs.select_columns(["lo", "hi"]))
    assigned = attach_payload(
        docs.select_columns(["doc_id"]), "doc_id", pair_clusters, "iid",
        ("cluster_id",), "c", how="left",
        pairs_schema=pa.schema([("doc_id", pa.int64())]),
        side_schema=pa.schema([("iid", pa.int64()),
                               ("cluster_id", pa.int64())]),
    ).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id"),
            "cluster_id": pa.compute.coalesce(
                b.column("cluster_id_c"), b.column("doc_id").cast(pa.int64())),
        }),
        batch_format="pyarrow",
    )
    return assigned


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2
    (see mhray/pipelines/queries.py for the catalog)."""
    from mhray.pipelines.queries import QUERIES

    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query; custom-hash
    / heuristic operators are omitted (driver records rows-only)."""
    from mhray.pipelines.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
