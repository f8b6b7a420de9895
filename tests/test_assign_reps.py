"""candidates.assign_reps: rep_iid = the smallest iid among the rows
sharing a caption_hash, checked against a numpy reference on both the
broadcast and the shuffle side of the attach it ends in."""

import numpy as np
import pyarrow as pa
import pytest


def _blocks():
    """Three blocks: caption 7's minimum iid (3) sits in the second
    block, and every other caption is drawn at random across all
    three, with negative and 62-bit hashes."""
    rng = np.random.default_rng(5)
    pool = np.array([-(1 << 62), -9, 0, 11, 1 << 40, (1 << 62) + 3],
                    np.int64)
    ch = np.concatenate([[7, 7, 7], rng.choice(pool, 297)])
    iid = np.concatenate([[50, 3, 20], rng.permutation(297) + 100])
    cuts = [(0, 1), (1, 2), (2, 3)]  # one caption-7 row per block
    rest = np.array_split(np.arange(3, 300), 3)
    tables = []
    for (a, b), extra in zip(cuts, rest):
        idx = np.concatenate([np.arange(a, b), extra])
        tables.append(pa.table({
            "caption_hash": pa.array(ch[idx], pa.int64()),
            "iid": pa.array(iid[idx], pa.int64()),
            "payload": pa.array(iid[idx] * 2, pa.int64()),
        }))
    return tables


def _reference(ch, iid):
    return np.array([iid[ch == c].min() for c in ch], np.int64)


@pytest.fixture(params=["broadcast", "shuffle"])
def attach_path(request, monkeypatch):
    if request.param == "shuffle":
        import mhray.rayutil

        monkeypatch.setattr(mhray.rayutil, "_broadcast_fits",
                            lambda *args, **kwargs: False)
    return request.param


def test_assign_reps_matches_reference(ray_session, attach_path):
    import ray.data

    from mhray.stages.candidates import assign_reps

    tables = _blocks()
    sk = ray.data.from_arrow(tables).materialize()
    assert sk.num_blocks() >= 3
    got = pa.Table.from_pylist(assign_reps(sk, num_parts=3).take_all())
    assert got.num_rows == 300
    order = np.argsort(np.asarray(got.column("iid")))
    ch = np.asarray(got.column("caption_hash"))[order]
    iid = np.asarray(got.column("iid"))[order]
    rep = np.asarray(got.column("rep_iid"))[order]
    assert (np.asarray(got.column("payload"))[order] == iid * 2).all()
    want = pa.concat_tables(tables)
    w_order = np.argsort(np.asarray(want.column("iid")))
    assert (iid == np.asarray(want.column("iid"))[w_order]).all()
    assert (rep == _reference(ch, iid)).all()
    assert set(rep[ch == 7]) == {3}


def test_assign_reps_zero_rows(ray_session, attach_path):
    import ray.data

    from mhray.stages.candidates import assign_reps

    empty = _blocks()[0].slice(0, 0)
    sk = ray.data.from_arrow(empty).materialize()
    assert assign_reps(sk, num_parts=3).count() == 0
