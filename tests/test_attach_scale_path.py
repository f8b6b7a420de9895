"""The scale side of every keyed attach, end to end. Below their row /
byte thresholds attaches broadcast the side table, so at test sizes the
shuffle path never runs; here ``rayutil._broadcast_fits`` is forced to
False and the incremental parity checks and a flagship run must still
match their references exactly."""

import test_incremental


def test_shuffle_attach_path_matches_references(ray_session, small_corpus,
                                                oracle_run, monkeypatch,
                                                tmp_path):
    import mhray.rayutil
    from mhray.config import PRESETS
    from mhray.pipelines.dedup import pairs_with_ids, run_dedup

    monkeypatch.setattr(mhray.rayutil, "_broadcast_fits",
                        lambda *args, **kwargs: False)

    # find_matches: a plain index (no rep_iid) against the self-join,
    # then a plain and a rep_iid index against the uncollapsed one
    test_incremental.test_find_matches_equals_restricted_self_join(
        ray_session, small_corpus, PRESETS["captions"])
    test_incremental.test_index_rep_collapse_parity(ray_session,
                                                    small_corpus)

    # flagship: pairs (s3 caption gate) and clusters (assign_clusters)
    res = run_dedup(small_corpus["images"], str(tmp_path / "run"),
                    PRESETS["captions"], num_parts=4)
    got = {(p["lo_id"], p["hi_id"])
           for p in pairs_with_ids(res, num_parts=4).take_all()}
    want = set(zip(oracle_run.pairs.column("lo_id").to_pylist(),
                   oracle_run.pairs.column("hi_id").to_pylist()))
    assert want and got == want, (len(got - want), len(want - got))
    clusters = {r["image_id"]: r["cluster_id"]
                for r in res["clusters"].take_all()}
    assert clusters == {r["image_id"]: r["cluster_id"]
                        for r in oracle_run.clusters.to_pylist()}
