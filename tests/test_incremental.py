"""Query-vs-index incremental mode (AbstractMatchSearch.findMatches,
toSelf=false): matching new records against a stored sketch index must
equal the union-corpus self-join restricted to (new x old) pairs."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from mhray.config import PRESETS


def _cfg():
    return PRESETS["captions"]


def _split(small_corpus, n=400):
    imgs = pq.read_table(small_corpus["images"])
    captions = imgs.column("caption").to_pylist()[:n]
    ids = np.arange(len(captions))
    new_mask = ids % 4 == 0
    return captions, ids, new_mask


def _docs_ds(captions, ids):
    import ray.data

    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(captions),
    }))


@pytest.mark.parametrize("cfg", [
    PRESETS["captions"],
    PRESETS["captions"].with_(bit_prefilter=True, bit_prefilter_min=0.05),
    PRESETS["captions"].with_(min_store_length=96),
], ids=["captions", "bit_prefilter", "min_store_length"])
def test_find_matches_equals_restricted_self_join(ray_session, small_corpus,
                                                  cfg):
    """Both sides run the same cfg, so a pre-filter or store-length
    rule the self-join applies must drop the same pairs in query mode
    (96 is the fixture's 60th caption-length percentile)."""
    from mhray.stages.dedup import docs_as_images, minhash_text_pairs
    from mhray.stages.incremental import find_matches
    from mhray.stages.sketch import sketch_dataset

    captions, ids, new_mask = _split(small_corpus)

    # self-join over the union corpus, restricted to cross pairs
    union = _docs_ds(captions, ids)
    self_pairs = minhash_text_pairs(union, cfg).take_all()
    expected = {frozenset((r["lo"], r["hi"])) for r in self_pairs
                if new_mask[r["lo"]] != new_mask[r["hi"]]}

    old_ds = _docs_ds([c for c, m in zip(captions, new_mask) if not m],
                      ids[~new_mask])
    new_ds = _docs_ds([c for c, m in zip(captions, new_mask) if m],
                      ids[new_mask])
    index = sketch_dataset(docs_as_images(old_ds), cfg)
    got_rows = find_matches(docs_as_images(new_ds), index, cfg).take_all()
    got = {frozenset((r["lo"], r["hi"])) for r in got_rows}

    assert expected, "no cross pairs in fixture; test is vacuous"
    assert got == expected, (len(got), len(expected))
    # orientation: lo is always the query (new) side, hi the index side
    for r in got_rows:
        assert new_mask[r["lo"]] and not new_mask[r["hi"]]


def test_find_matches_from_checkpoint_dir(ray_session, small_corpus,
                                          tmp_path):
    """The stored s1_sketches checkpoint of a previous run works as the
    index side without re-sketching (the -q to-files shape)."""
    from mhray.checkpoint import stage_checkpoint
    from mhray.stages.dedup import docs_as_images
    from mhray.stages.incremental import find_matches
    from mhray.stages.sketch import sketch_dataset

    cfg = _cfg()
    captions, ids, new_mask = _split(small_corpus, n=200)
    old_ds = _docs_ds([c for c, m in zip(captions, new_mask) if not m],
                      ids[~new_mask])
    new_ds = _docs_ds([c for c, m in zip(captions, new_mask) if m],
                      ids[new_mask])

    out = str(tmp_path / "indexrun")
    stage_checkpoint(
        "s1_sketches", out,
        lambda: sketch_dataset(docs_as_images(old_ds), cfg), cfg)

    from_dir = find_matches(docs_as_images(new_ds),
                            out + "/s1_sketches", cfg).take_all()
    from_ds = find_matches(docs_as_images(new_ds),
                           sketch_dataset(docs_as_images(old_ds), cfg),
                           cfg).take_all()
    key = lambda rows: sorted((r["lo"], r["hi"]) for r in rows)
    assert key(from_dir) == key(from_ds)
    assert from_dir, "no matches found from checkpoint index"


def test_index_rep_collapse_parity(ray_session, small_corpus):
    """An index carrying rep_iid (the s1 checkpoint shape) and the same
    index without it must both yield EXACTLY the pairs and metrics of
    the uncollapsed union-corpus self-join restricted to query x index
    pairs — the rep collapse and member expansion are a pure
    optimization."""
    import ray.data

    from mhray.stages.dedup import docs_as_images, minhash_text_pairs
    from mhray.stages.incremental import find_matches
    from mhray.stages.sketch import sketch_dataset

    cfg = _cfg()
    captions, ids, new_mask = _split(small_corpus)
    # duplicate some OLD captions verbatim so index-side rep groups
    # have real multi-member cliques to expand
    old_caps = [c for c, m in zip(captions, new_mask) if not m]
    old_ids = list(ids[~new_mask])
    extra_base = max(ids) + 1
    for j, c in enumerate(old_caps[:40]):
        old_caps.append(c)
        old_ids.append(extra_base + j)
    old_ds = _docs_ds(old_caps, np.array(old_ids, np.int64))
    new_caps = [c for c, m in zip(captions, new_mask) if m]
    new_ds = _docs_ds(new_caps, ids[new_mask])

    def canon(rows):
        return sorted((r["lo"], r["hi"], r["shared_slots"],
                       round(r["score"], 12)) for r in rows)

    # reference: the uncollapsed self-join over the union corpus, its
    # cross pairs oriented (query, index)
    new_ids = set(ids[new_mask].tolist())
    union = _docs_ds(new_caps + old_caps,
                     np.concatenate([ids[new_mask], old_ids]))
    expected = []
    for r in minhash_text_pairs(union, cfg).take_all():
        if (r["lo"] in new_ids) != (r["hi"] in new_ids):
            q, i = ((r["lo"], r["hi"]) if r["lo"] in new_ids
                    else (r["hi"], r["lo"]))
            expected.append({**r, "lo": q, "hi": i})
    expected = canon(expected)
    assert any(hi >= extra_base for _, hi, _, _ in expected), \
        "no duplicated index caption in a cross pair; test is vacuous"

    plain = sketch_dataset(docs_as_images(old_ds), cfg).materialize()
    # rep_iid = min iid per caption_hash, computed exactly (driver side
    # — the fixture is tiny)
    tbl = pa.concat_tables([b for b in plain.iter_batches(
        batch_format="pyarrow")], promote_options="default")
    ch = np.asarray(tbl.column("caption_hash"), np.int64)
    iid = np.asarray(tbl.column("iid"), np.int64)
    rep = np.array([iid[ch == c].min() for c in ch], np.int64)
    assert (rep != iid).sum() >= 40
    with_rep = ray.data.from_arrow(
        tbl.append_column("rep_iid", pa.array(rep, pa.int64())))

    for index in (plain, with_rep):
        got = canon(find_matches(docs_as_images(new_ds), index,
                                 cfg).take_all())
        assert got == expected, (len(got), len(expected))


def test_find_matches_bit_prefilter_needs_index_bitsig(ray_session,
                                                       small_corpus):
    """A pre-filtering query against an index sketched without the
    1-bit signatures fails up front, naming the missing column."""
    from mhray.stages.dedup import docs_as_images
    from mhray.stages.incremental import find_matches
    from mhray.stages.sketch import sketch_dataset

    captions, ids, new_mask = _split(small_corpus, n=40)
    index = sketch_dataset(docs_as_images(_docs_ds(captions, ids)), _cfg())
    cfg = _cfg().with_(bit_prefilter=True, bit_prefilter_min=0.05)
    with pytest.raises(ValueError, match="bitsig"):
        find_matches(docs_as_images(_docs_ds(captions, ids)), index, cfg)


def test_find_matches_executions(ray_session, small_corpus, pipeline_run,
                                 monkeypatch):
    """Query mode against a stored s1_sketches checkpoint runs the
    self-join's candidate and verify chain: both sides' rep rows and
    members, the two sketch projections and the pair chain — no
    separate query-side semi-join or rep pack."""
    import os

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from mhray.stages.dedup import docs_as_images
    from mhray.stages.incremental import find_matches

    captions, ids, _ = _split(small_corpus, n=100)
    query = docs_as_images(_docs_ds(captions, ids))
    executed = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        executed.append(type(dag).__name__)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    out = find_matches(query, os.path.join(pipeline_run["out"],
                                           "s1_sketches"),
                       pipeline_run["cfg"]).materialize()
    monkeypatch.undo()
    assert out.count() >= 100
    assert len(executed) <= 11, len(executed)
