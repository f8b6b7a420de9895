"""The one exchange and the one sizing rule (``mhray.rayutil``).

``exchange`` gives each ``part`` value exactly one call, also when Ray
is told to cut blocks small; ``plan_parts`` keeps small inputs at or
below one partition per CPU and lets only bytes take a large one past
it; reads are sized from parquet footers; and no
``groupby(..., num_partitions=)`` is left in mhray (under Ray's sort
shuffle it ignores ``num_partitions``)."""

import ast
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("rows, nbytes, cpus, want", [
    (0, 0, 1, 1), (0, 0, 2, 1), (0, 0, 64, 1),
    (200, 63_000, 1, 1), (200, 63_000, 2, 1), (200, 63_000, 64, 1),
    (10**6, 10**8, 1, 1), (10**6, 10**8, 2, 2), (10**6, 10**8, 64, 64),
    # 100 TB: one partition per 128 MiB whatever the CPU count
    (10**12, 10**14, 1, 745_059), (10**12, 10**14, 2, 745_059),
    (10**12, 10**14, 64, 745_059),
])
def test_plan_parts(rows, nbytes, cpus, want):
    from mhray.rayutil import plan_parts

    assert plan_parts(rows, nbytes, cpus=cpus) == want
    # an explicit count always wins
    assert plan_parts(rows, nbytes, requested=5, cpus=cpus) == 5


def test_plan_parts_reads_cluster_cpus(monkeypatch):
    """With no ``cpus``, the running cluster's CPU count caps a
    mid-size input: 64 partitions on 64 CPUs, 1 on 1 CPU (there is no
    floor of 2 any more)."""
    import ray

    from mhray.rayutil import plan_parts

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 64.0})
    assert plan_parts(10**6, 10**8) == 64
    assert plan_parts(10**6, 10**8, requested=5) == 5
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    assert plan_parts(10**6, 10**8) == 1
    assert plan_parts(2_000, 10**6, rows_per_part=800) == 1


def test_parts_for_uses_block_metadata(ray_session):
    import ray.data

    from mhray.rayutil import parts_for

    tbl = pa.table({"k": pa.array(np.arange(5_000), pa.int64())})
    ds = ray.data.from_arrow([tbl.slice(0, 2_500), tbl.slice(2_500)])
    assert parts_for(ds.materialize()) == 3  # 5,000 rows / 2,000
    assert parts_for(ds.materialize(), rows_per_part=800) == 4  # 4 CPUs
    assert parts_for(ds.materialize(), requested=9) == 9


def test_read_200_rows_is_one_block(ray_session, tmp_path):
    """A 200-row table is read as one block (no floor of 4)."""
    from mhray.pipelines.queries import _read

    pq.write_table(pa.table({"doc_id": pa.array(range(200), pa.int64()),
                             "text": pa.array(["x" * 300] * 200)}),
                   tmp_path / "documents.parquet")
    ds = _read(str(tmp_path), "documents", ["doc_id", "text"]).materialize()
    assert ds.num_blocks() == 1
    assert ds.count() == 200


def test_checkpoint_read_keeps_one_block_per_file(ray_session, tmp_path):
    """``split=False`` never asks for more blocks than there are files,
    so Ray adds no ``SplitBlocks`` to the read."""
    from mhray.rayutil import read_parquet

    for i in range(2):
        pq.write_table(pa.table({"v": pa.array(np.arange(3_000),
                                               pa.int64())}),
                       tmp_path / f"part-{i}.parquet")
    ds = read_parquet(str(tmp_path), split=False).materialize()
    assert ds.num_blocks() == 2 and ds.count() == 6_000


@pytest.mark.parametrize("num_parts", [1, 2, 7])
def test_exchange_one_call_per_part(ray_session, num_parts):
    """Each part value arrives whole in exactly one call, even with a
    1 KiB ``target_max_block_size`` (Ray does not split a reducer's
    block); partitions with no rows make no call; a single partition
    is one call."""
    import ray.data
    from ray.data.context import DataContext

    from mhray.rayutil import exchange

    def calls(part: pa.Table) -> pa.Table:
        parts = np.unique(np.asarray(part.column("part")))
        return pa.table({"parts": pa.array([parts.tolist()],
                                           pa.list_(pa.int64())),
                         "rows": pa.array([part.num_rows], pa.int64())})

    n = 3_000
    part = (np.arange(n) * 7) % num_parts
    if num_parts > 1:
        part[part == num_parts - 1] = 0  # one partition left empty
    tbl = pa.table({"part": pa.array(part, pa.int32()),
                    "pad": pa.array([b"x" * 64] * n, pa.binary())})
    ds = ray.data.from_arrow([tbl.slice(i, 500) for i in range(0, n, 500)])
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1024
    try:
        rows = exchange(ds, "part", num_parts, calls).take_all()
    finally:
        ctx.target_max_block_size = old
    seen = sorted(p for r in rows for p in r["parts"])
    assert seen == sorted(set(part.tolist()))  # one call per value
    want = np.bincount(part, minlength=num_parts)
    for r in rows:
        assert r["rows"] == sum(want[p] for p in r["parts"])
    if num_parts == 1:
        assert len(rows) == 1


def _offences(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "groupby"
                and any(kw.arg == "num_partitions" for kw in node.keywords)):
            yield node.lineno


def test_no_groupby_num_partitions_in_mhray():
    found = []
    n_files = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "mhray")):
        for f in files:
            if f.endswith(".py"):
                n_files += 1
                path = os.path.join(dirpath, f)
                found += [f"{os.path.relpath(path, ROOT)}:{line}"
                          for line in _offences(path)]
    assert n_files > 10
    assert not found, found


def test_guard_catches_groupby_num_partitions(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "out = ds.groupby('part', num_partitions=8).map_groups(fn)\n"
        "out = ds.groupby('part').map_groups(fn)\n"
        "out = cluster_edges(pairs, num_partitions=8)\n")
    assert list(_offences(str(bad))) == [1]
