"""The ``--freq-table`` path through Ray: ``sketch_dataset`` with a
``freq_ref`` ObjectRef must sketch exactly like the in-process
``SketchStage`` given the same table, and the table must matter."""

import numpy as np
import pyarrow as pa

from mhray import kernels as K
from mhray.config import PRESETS

CFG = PRESETS["captions"]
BOILERPLATE = "free shipping on all orders over fifty dollars today "


def _captions_batch(n: int = 48) -> pa.Table:
    rng = np.random.default_rng(5)
    words = ["red", "blue", "lamp", "chair", "oak", "steel", "soft",
             "round", "tall", "vintage", "modern", "linen"]
    caps = [BOILERPLATE + " ".join(rng.choice(words, 8)) + f" item {i}"
            for i in range(n)]
    return pa.table({
        "image_id": pa.array([f"img_{i}" for i in range(n)]),
        "caption": pa.array(caps),
        "phash": pa.array(np.zeros(n, np.int64)),
    })


def _freq_table(batch: pa.Table) -> pa.Table:
    """(shingle_hash, doc_freq) over every shingle seen in >= 2 docs —
    the boilerplate's shingles are in all of them."""
    h, off = K.shingle_hashes64(batch.column("caption"), CFG.kmer_size)
    per_doc = np.concatenate([np.unique(h[off[i]:off[i + 1]])
                              for i in range(len(off) - 1)])
    keys, docs = np.unique(per_doc, return_counts=True)
    keep = docs >= 2
    return pa.table({
        "shingle_hash": pa.array(keys[keep].view(np.uint64), pa.uint64()),
        "doc_freq": pa.array(docs[keep] / batch.num_rows, pa.float64()),
    })


def _by_iid(tbl: pa.Table) -> dict:
    tbl = tbl.sort_by("iid")
    return {c: tbl.column(c).to_pylist() for c in ("iid", "minhash", "bs_blob")}


def test_freq_ref_matches_in_process_stage(ray_session):
    import ray
    import ray.data

    from mhray.stages.sketch import SketchStage, sketch_dataset

    batch = _captions_batch()
    table = _freq_table(batch)
    assert table.num_rows > 0

    local = _by_iid(SketchStage(CFG, freq_ref=table)(batch))
    plain = _by_iid(SketchStage(CFG)(batch))
    assert local["minhash"] != plain["minhash"]

    ds = ray.data.from_arrow(batch).repartition(4)
    via_ray = sketch_dataset(ds, CFG, freq_ref=ray.put(table)).to_arrow_refs()
    got = _by_iid(pa.concat_tables(ray.get(via_ray)))
    assert got == local


def test_freq_ref_built_once_per_ref(ray_session):
    import ray

    from mhray.stages.sketch import load_freq

    table = _freq_table(_captions_batch())
    ref = ray.put(table)
    first = load_freq(ref, CFG)
    assert load_freq(ref, CFG) is first
    assert load_freq(ref, CFG.with_(filter_cutoff=1e-3)) is not first
    assert load_freq(ray.put(table), CFG) is not first
    assert load_freq(None, CFG) is None
