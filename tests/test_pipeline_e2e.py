"""End-to-end: the distributed pipeline must reproduce the oracle's
pairs and cluster assignments exactly (dup-pair recall >= 0.99 gate;
here we assert full agreement), and resume from checkpoints."""

import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mhray import oracle as O
from mhray.config import PRESETS


def test_pipeline_matches_oracle_pairs(pipeline_run, oracle_run):
    oset = set(zip(oracle_run.pairs.column("lo_id").to_pylist(),
                   oracle_run.pairs.column("hi_id").to_pylist()))
    pset = {(p["lo_id"], p["hi_id"]) for p in pipeline_run["pairs"]}
    missing = oset - pset
    extra = pset - oset
    recall = 1 - len(missing) / max(1, len(oset))
    assert recall >= 0.99, f"missing={sorted(missing)[:5]}"
    assert not extra, sorted(extra)[:5]


def test_pipeline_truth_recall(pipeline_run, small_corpus):
    truth = pq.read_table(small_corpus["truth_pairs"])
    got = pa.table({
        "lo_id": [p["lo_id"] for p in pipeline_run["pairs"]],
        "hi_id": [p["hi_id"] for p in pipeline_run["pairs"]],
    })
    assert O.recall_against(truth, got) >= 0.99


def test_pipeline_clusters_match_oracle(pipeline_run, oracle_run):
    ocl = {r["image_id"]: r["cluster_id"] for r in oracle_run.clusters.to_pylist()}
    pcl = {r["image_id"]: r["cluster_id"] for r in pipeline_run["clusters"]}
    assert len(pcl) == len(ocl)
    mismatches = [k for k in ocl if ocl[k] != pcl.get(k)]
    assert not mismatches, mismatches[:5]


def test_resume_skips_completed_stages(pipeline_run, small_corpus):
    from mhray.pipelines.dedup import run_dedup

    t0 = time.time()
    res2 = run_dedup(small_corpus["images"], pipeline_run["out"],
                     pipeline_run["cfg"], num_parts=4)
    elapsed = time.time() - t0
    assert elapsed < 10, f"resume took {elapsed:.1f}s — checkpoints not hit"
    assert res2["clusters"].count() == len(pipeline_run["clusters"])


def test_stage_manifests_record_lineage(pipeline_run):
    from mhray.checkpoint import read_manifests

    manifests = read_manifests(pipeline_run["out"])
    names = {m["stage"] for m in manifests}
    assert {"s1_sketches", "s2_rep_pairs", "s3_pairs",
            "s4_clusters"} <= names
    for m in manifests:
        assert m["rows"] == sum(p["rows"] for p in m["partitions"])
        assert m["duration_s"] >= 0
        assert m["config_digest"]


def test_distributed_cluster_path_matches_driver(pipeline_run, ray_session):
    """The distributed label-propagation rounds (the scale path) must
    produce the same components as the driver-side union-find."""
    from mhray.stages.cluster import cluster_edges

    pairs = pipeline_run["res"]["pairs"]
    st_fast: dict = {}
    st_dist: dict = {}
    fast = {r["iid"]: r["cluster_id"]
            for r in cluster_edges(pairs, driver_threshold=10**9,
                                   stats=st_fast).take_all()}
    dist = {r["iid"]: r["cluster_id"]
            for r in cluster_edges(pairs, driver_threshold=0,
                                   num_partitions=4,
                                   stats=st_dist).take_all()}
    assert fast == dist
    assert st_fast["path"] == "driver"
    assert st_dist["path"] == "distributed"
    assert st_dist["edges"] == st_fast["edges"] > 0
    assert 1 <= st_dist["rounds"] <= 50


def test_input_change_invalidates_chain(small_corpus, ray_session,
                                        tmp_path_factory):
    """Chained digests: swapping the INPUT (same config) must force the
    whole stage chain to recompute instead of serving stale caches."""
    import shutil

    from mhray.checkpoint import read_manifests
    from mhray.config import PRESETS
    from mhray.synth import SynthSpec, write_corpus
    from mhray.pipelines.dedup import run_dedup

    base = tmp_path_factory.mktemp("chain")
    a = write_corpus(str(base / "a"), SynthSpec(n_rows=150, seed=1), n_files=2)
    b = write_corpus(str(base / "b"), SynthSpec(n_rows=150, seed=2), n_files=2)
    out = str(base / "run")
    cfg = PRESETS["captions"]

    res_a = run_dedup(a["images"], out, cfg, num_parts=4)
    pairs_a = res_a["pairs"].count()
    digests_a = {m["stage"]: m["config_digest"] for m in read_manifests(out)}

    # swap input files under the same path shape (different corpus)
    shutil.rmtree(a["images"])
    shutil.copytree(b["images"], a["images"])
    res_b = run_dedup(a["images"], out, cfg, num_parts=4)
    pairs_b = res_b["pairs"].count()
    # a stage's manifest is written only after its compute ran, so a
    # manifest carrying a new digest proves that stage was recomputed
    # (wall time cannot tell: a warm recompute of 150 rows can finish
    # within a couple of seconds on a multi-core host)
    digests_b = {m["stage"]: m["config_digest"] for m in read_manifests(out)}
    assert {"s1_sketches", "s2_rep_pairs", "s3_pairs",
            "s4_clusters"} <= set(digests_a)
    stale = [s for s in digests_a if digests_b.get(s) == digests_a[s]]
    assert not stale, f"stale chain served instead of recompute: {stale}"
    # different corpora virtually never produce identical pair counts AND
    # the clusters must reference the new corpus' rows
    ids_b = {r["image_id"] for r in res_b["clusters"].take_all()}
    import pyarrow.parquet as pq

    expect = set(pq.read_table(a["images"]).column("image_id").to_pylist())
    assert ids_b == expect, "clusters reference the OLD corpus"


def test_partial_stage_attempt_is_discarded(small_corpus, ray_session,
                                            tmp_path):
    """A crashed run leaves a stage data dir WITHOUT _SUCCESS; the
    resumed run must discard the partial files and recompute, not
    read or append to them."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pqw

    from mhray.config import PRESETS
    from mhray.pipelines.dedup import run_dedup

    out = str(tmp_path / "crashrun")
    # simulate a partial s1 attempt: garbage parquet, no _SUCCESS
    data_dir = os.path.join(out, "s1_sketches", "data")
    os.makedirs(data_dir)
    pqw.write_table(pa.table({"junk": [1, 2, 3]}),
                    os.path.join(data_dir, "partial.parquet"))

    cfg = PRESETS["captions"]
    res = run_dedup(small_corpus["images"], out, cfg, num_parts=4)
    n = res["clusters"].count()
    assert n == 1000
    # the junk file is gone and the stage is now complete + marked
    files = os.listdir(data_dir)
    assert "partial.parquet" not in files and files
    assert os.path.exists(os.path.join(out, "s1_sketches", "_SUCCESS"))
    with open(os.path.join(out, "s1_sketches", "manifest.json")) as f:
        m = json.load(f)
    assert m["rows"] == 1000 and m["partitions"]


def test_flagship_zero_pair_corpus_persist_and_resume(ray_session, tmp_path):
    """A corpus with NO duplicates must run the persisted flagship end
    to end (empty s2/s3 checkpoints round-trip with schema) and resume
    from those empty checkpoints (regression: empty write_parquet
    produced zero files -> schema-less read -> KeyError in s3)."""
    import os

    from mhray.config import PRESETS
    from mhray.pipelines.dedup import run_dedup
    from mhray.synth import SynthSpec, write_corpus

    d = str(tmp_path / "corpus")
    write_corpus(d, SynthSpec(n_rows=120, dup_fraction=0.0,
                              near_miss_fraction=0.0,
                              boilerplate_fraction=0.0,
                              substring_fraction=0.0,
                              short_caption_fraction=0.0, seed=17))
    out = str(tmp_path / "run")
    res = run_dedup(os.path.join(d, "images"), out, PRESETS["captions"],
                    decode_pixels=True, num_parts=4, resume=True)
    assert res["pairs"].count() == 0
    cl = res["clusters"].to_pandas()
    assert len(cl) == 120 and cl["cluster_id"].nunique() == 120
    # resume path reads the typed empty checkpoints
    res2 = run_dedup(os.path.join(d, "images"), out, PRESETS["captions"],
                     decode_pixels=True, num_parts=4, resume=True)
    assert res2["pairs"].count() == 0
    assert res2["clusters"].count() == 120
