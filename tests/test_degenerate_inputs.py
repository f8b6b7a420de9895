"""Degenerate-corpus robustness: operators must return empty/small
results — not crash in the keyed-attach layer — when there are zero
duplicate candidates, empty texts, or a handful of rows. Ray's
groupby emits schema-less empty blocks and map_batches passes
zero-row blocks through without calling its UDF, so every lookup must
accept empty inputs on both of its paths (broadcast and shuffle)."""

import pyarrow as pa
import pytest


def test_jaccard_tiny_corpus_with_empty_text(ray_session):
    import ray.data

    from mhray.stages.dedup import ngram_jaccard_pairs

    tbl = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64()),
                    "text": pa.array(["", "a  b", "a  b", "a b"])})
    out = ngram_jaccard_pairs(ray.data.from_arrow(tbl), tau=0.5).to_pandas()
    got = sorted(map(tuple, out[["lo", "hi"]].to_numpy()))
    # docs 2/3 identical; doc 4 shares {a,b} but 2/3 also carry the
    # empty token from the double space -> jaccard 2/3 >= 0.5
    assert got == [(2, 3), (2, 4), (3, 4)]


def test_substring_zero_candidates(ray_session):
    import ray.data

    from mhray.stages.substring import substring_pairs

    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": pa.array(["completely different alpha",
                                      "nothing shared zzz"])})
    out = substring_pairs(ray.data.from_arrow(tbl), min_len=16).to_pandas()
    assert len(out) == 0


def test_edit_pairs_zero_candidates_and_all_short(ray_session):
    """No doc reaches min_len, or no two docs share a rare gram: the
    edit join returns zero rows instead of failing in its attach or
    verify step."""
    import random

    import ray.data

    from mhray.stages.editjoin import edit_distance_pairs

    rng = random.Random(1)
    short = [{"doc_id": i, "text": "short"} for i in range(5)]
    unrelated = [{"doc_id": i,
                  "text": "".join(rng.choice("abcdefgh ")
                                  for _ in range(160))}
                 for i in range(8)]
    for rows in (short, unrelated):
        out = edit_distance_pairs(ray.data.from_items(rows), num_parts=3)
        assert out.count() == 0


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("threshold", [None, 0], ids=["default", "shuffle"])
def test_attach_payload_empty_sides(ray_session, how, threshold):
    """An empty pairs side and an empty payload side, on the broadcast
    path (default threshold) and the shuffle path (threshold 0): the
    result has the right rows, and every block that carries a schema
    carries the typed output schema. A zero-row pairs side can come
    back schema-less (map_batches never calls its UDF on it), so
    downstream consumers must — and here do — still run on it."""
    import ray
    import ray.data

    from mhray.rayutil import attach_payload

    pairs_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64())])
    side_schema = pa.schema([("_k", pa.int64()), ("v", pa.string())])
    out_schema = pa.schema(list(pairs_schema) + [("v_x", pa.string())])
    pairs = ray.data.from_arrow(pa.table({
        "lo": pa.array([1, 2, 3], pa.int64()),
        "hi": pa.array([4, 5, 6], pa.int64())}))
    side = ray.data.from_arrow(pa.table({
        "_k": pa.array([1, 2], pa.int64()),
        "v": pa.array(["a", "b"])}))
    kw = {} if threshold is None else {"broadcast_threshold_rows": threshold}
    for name, p, s, n_expected in [
            ("empty pairs", ray.data.from_arrow(pairs_schema.empty_table()),
             side, 0),
            ("empty side", pairs,
             ray.data.from_arrow(side_schema.empty_table()),
             0 if how == "inner" else 3)]:
        out = attach_payload(p, "lo", s, "_k", ("v",), "x", 2, how=how,
                             pairs_schema=pairs_schema,
                             side_schema=side_schema, **kw).materialize()
        tables = [ray.get(r) for r in out.to_arrow_refs()]
        assert sum(t.num_rows for t in tables) == n_expected, name
        for t in tables:
            assert t.num_columns == 0 or t.schema.equals(out_schema), (
                name, t.schema)
        if n_expected:
            assert any(t.schema.equals(out_schema) for t in tables), name
            got = pa.concat_tables([t for t in tables if t.num_rows])
            assert got.column("v_x").null_count == n_expected, name
        # downstream consumers run on whatever blocks came back
        assert out.groupby("lo").count().count() == n_expected, name


def test_minhash_pairs_unique_corpus(ray_session):
    import ray.data

    from mhray.config import PRESETS
    from mhray.stages.dedup import minhash_text_pairs

    tbl = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([f"totally unique document number {i} "
                          f"with distinct content {i * 7919}"
                          for i in range(6)]),
    })
    cfg = PRESETS["captions"].with_(threshold=0.99)
    out = minhash_text_pairs(ray.data.from_arrow(tbl), cfg).to_pandas()
    assert len(out) == 0


def test_semdedup_tiny_and_duplicate_only_corpus(ray_session):
    import ray.data

    from mhray.stages.ann import semdedup

    # a single row, and a corpus that is ONE vector repeated
    one = pa.table({"vec_id": pa.array([7], pa.int64()),
                    "embedding": pa.array([[1.0, 0.0, 0.0]],
                                          pa.list_(pa.float32()))})
    out = semdedup(ray.data.from_arrow(one), n_clusters=4).to_pandas()
    assert len(out) == 1 and bool(out["keep"][0])

    rep = pa.table({"vec_id": pa.array(range(5), pa.int64()),
                    "embedding": pa.array([[0.0, 2.0, 0.0]] * 5,
                                          pa.list_(pa.float32()))})
    out = semdedup(ray.data.from_arrow(rep), n_clusters=2,
                   tau=0.99).to_pandas()
    assert len(out) == 5 and int(out["keep"].sum()) == 1


def test_lm_score_empty_and_short_docs(ray_session):
    import ray.data

    from mhray.stages.text import trigram_lm_score

    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "text": pa.array(["", "ab", "abcabc"])})
    df = trigram_lm_score(ray.data.from_arrow(tbl)).to_pandas() \
        .set_index("doc_id")
    assert df.loc[1, "n_trigrams"] == 0 and df.loc[1, "lm_logprob_pm"] == 0
    assert df.loc[2, "n_trigrams"] == 0
    assert df.loc[3, "n_trigrams"] == 4


def test_range_window_count_single_row_keys(ray_session):
    import ray.data

    from mhray.stages.events import range_window_count

    tbl = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                    "ts": pa.array([10, 10, 10], pa.int64()),
                    "rid": pa.array([100, 200, 300], pa.int64())})
    df = range_window_count(ray.data.from_arrow(tbl), "k", "ts", "rid",
                            window_us=5, num_parts=2).to_pandas()
    assert len(df) == 3 and (df["w_cnt"] == 1).all()


def test_new_operators_degenerate_inputs(ray_session):
    """Null/empty text and full ties through the session-3 operators."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from mhray.stages.dedup import chunk_dedup
    from mhray.stages.quantile import ntile
    from mhray.stages.text import ngram_topk, scrub_pii

    # empty strings chunk to one empty chunk; null text drops out,
    # exactly like the SQL oracle (unnest of NULL emits no rows)
    t = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                  "text": pa.array(["", None, "a b"], pa.string())})
    rows = chunk_dedup(ray.data.from_arrow(t), chunk_words=4,
                       num_parts=2).take_all()
    assert sorted(r["doc_id"] for r in rows) == [1, 3]

    # ngram_topk: null + too-short docs contribute nothing
    got = ngram_topk(ray.data.from_arrow(t), k=5, n=2,
                     num_parts=2).take_all()
    assert [(r["ngram"], r["n"]) for r in got] == [("a b", 1)]

    # scrub passes nulls through untouched
    out = ray.data.from_arrow(t).map_batches(
        scrub_pii, batch_format="pyarrow").take_all()
    assert any(r["text_scrubbed"] is None for r in out)

    # ntile on all-equal values: ties fully resolved by id, even fill
    te = pa.table({"id": pa.array(range(10), pa.int64()),
                   "v": pa.array([5] * 10, pa.int64())})
    r = {x["id"]: x["bucket"]
         for x in ntile(ray.data.from_arrow(te), 4, "v", "id").take_all()}
    assert [r[i] for i in range(10)] == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]


def test_ann_ops_survive_tiny_and_empty_corpora(ray_session):
    """Review regressions: ivf_knn on a corpus smaller than n_cells,
    kNN ops with absent query ids, and every sampler-backed op on an
    EMPTY corpus must return empty results, not crash."""
    import numpy as np
    import pyarrow as pa

    import ray.data
    from mhray.stages.ann import ivf_knn, kmeans, knn_brute, knn_graph, semdedup

    rng = np.random.default_rng(2)
    tiny = pa.table({
        "vec_id": pa.array(np.arange(10), pa.int64()),
        "embedding": pa.array([list(map(float, r))
                               for r in rng.normal(size=(10, 4))]),
    })
    tiny_ds = ray.data.from_arrow(tiny)

    # fewer rows than the default 16 cells
    out = ivf_knn(tiny_ds, [0, 1], k=3, n_cells=16).to_pandas()
    assert set(out["query_id"]) == {0, 1}

    # absent query ids -> empty, not AxisError
    assert knn_brute(tiny_ds, [999], k=3).count() == 0
    assert ivf_knn(tiny_ds, [999], k=3).count() == 0

    empty_ds = tiny_ds.filter(expr="vec_id > 100")
    assert knn_graph(empty_ds, k=3).count() == 0
    assert semdedup(empty_ds, n_clusters=2).count() == 0
    assert ivf_knn(empty_ds, [0], k=3).count() == 0
    _, assign = kmeans(empty_ds, n_clusters=2, iters=1)
    assert assign.count() == 0


def test_ntile_nan_boundary_raises(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest

    import ray.data
    from mhray.stages.quantile import ntile

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "v": pa.array([1.0, 2.0, float("nan"), float("nan")],
                      pa.float64()),
    })
    with pytest.raises(ValueError, match="NaN"):
        ntile(ray.data.from_arrow(tbl), 2, "v", "doc_id").to_pandas()


def test_catalog_queries_on_empty_tables(ray_session, tmp_path):
    """Whole-table-empty inputs (e.g. an empty partition dir) must not
    crash (regression: Ray's join operator, the broadcast sketch
    attach, and the driver-side vector concat all choked on zero-block
    datasets). e_pca raises a CLEAR error by design — PCA of nothing
    is undefined."""
    import pyarrow.parquet as pq
    import pytest

    from mhray.pipelines.queries import QUERIES

    src = "/root/testdata/sf0.001"
    for t in ["documents", "embeddings", "orders", "customer"]:
        pq.write_table(pq.read_schema(f"{src}/{t}.parquet").empty_table(),
                       str(tmp_path / f"{t}.parquet"))
    d = str(tmp_path)
    for name in ["q_join_agg", "d_minhash_pairs", "e_dup_cosine",
                 "d_tiered_dedup", "d_dup_clusters"]:
        res = QUERIES[name](d)
        import ray.data

        n = res.count() if isinstance(res, ray.data.Dataset) else len(res)
        assert n == 0, name
    with pytest.raises(ValueError, match="empty input"):
        QUERIES["e_pca"](d)
