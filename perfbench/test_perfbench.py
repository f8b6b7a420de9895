"""Tests of the benchmark's own code (no Ray session needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs, run  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import (CFG, WORKLOADS, Edit, Flagship,  # noqa: E402
                                 query_check)


def parquet_bytes(table: pa.Table) -> bytes:
    buf = io.BytesIO()
    pq.write_table(table, buf)
    return buf.getvalue()


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_same_seed_same_bytes():
    a, b = inputs.flagship_corpus(5, 300), inputs.flagship_corpus(5, 300)
    assert parquet_bytes(a) == parquet_bytes(b)
    assert parquet_bytes(a) != parquet_bytes(inputs.flagship_corpus(6, 300))
    qa, pa_ = inputs.query_batch(5, a, 100, CFG.min_olap_length)
    qb, pb = inputs.query_batch(5, b, 100, CFG.min_olap_length)
    assert parquet_bytes(qa) == parquet_bytes(qb)
    assert parquet_bytes(pa_) == parquet_bytes(pb)
    assert parquet_bytes(inputs.edit_documents(5, 200)) \
        == parquet_bytes(inputs.edit_documents(5, 200))


def test_query_batch_plants_reuploads_of_valid_index_rows():
    index = inputs.flagship_corpus(5, 300)
    batch, planted = inputs.query_batch(5, index, 100, CFG.min_olap_length)
    assert batch.num_rows == 100 and planted.num_rows == 50
    ids = set(batch.column("image_id").to_pylist())
    assert not ids & set(index.column("image_id").to_pylist())


def drop_one(table: pa.Table) -> pa.Table:
    return table.slice(1)


def test_flagship_check_rejects_a_dropped_pair(tmp_path):
    expected = pa.table({"lo": [1, 2, 3], "hi": [5, 6, 7]})

    def out_dir_with(pairs: pa.Table, name: str) -> str:
        d = tmp_path / name / "s3_pairs" / "data"
        d.mkdir(parents=True)
        pq.write_table(pairs, str(d / "part-0.parquet"))
        return str(tmp_path / name)

    shuffled = expected.take(pa.array([2, 0, 1]))
    assert Flagship.check(out_dir_with(shuffled, "same"), expected)
    assert not Flagship.check(out_dir_with(drop_one(expected), "drop"),
                              expected)


def test_edit_check_rejects_a_dropped_pair():
    expected = pa.table({"lo": [1, 2], "hi": [3, 4], "dist": [1, 4]})
    assert Edit.check(expected, expected)
    assert not Edit.check(drop_one(expected), expected)
    wrong = expected.set_column(2, "dist", pa.array([1, 3]))
    assert not Edit.check(wrong, expected)


def test_query_check_rejects_a_dropped_reupload():
    index = inputs.flagship_corpus(5, 300)
    batch, planted = inputs.query_batch(5, index, 40, CFG.min_olap_length)
    found = planted.append_column(
        "score", pa.array([1.0] * planted.num_rows))
    assert query_check(found, planted, batch)
    assert not query_check(drop_one(found), planted, batch)


def test_metric_and_workload_names_match_benchmark_json():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == run.END_TO_END
    layer = set()
    for w in WORKLOADS.values():
        layer |= set(w.layer_metrics)
    layer |= {"trace.overhead_s", *run.TIMED_PER_LAYER}
    assert {m["name"] for m in s["per_layer"]} == layer
    line = json.loads(run.result_line(True, 1, 0, {"setup_s": 1.5},
                                      run.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_self_time_subtracts_children():
    t = Tracer("r")
    t.spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "name": "b", "parent": 0, "start": 3.0, "end": 5.0},
        {"id": 3, "name": "c", "parent": 2, "start": 3.5, "end": 4.0},
        {"id": 4, "name": "a", "parent": 0, "start": 7.0, "end": 8.0},
    ]
    assert t.self_time(0) == 10.0 - 2.0 - 2.0 - 1.0
    assert t.self_time(2) == 2.0 - 0.5
    assert t.self_times()["a"] == 3.0


def test_watchdog_kills_own_children_at_the_deadline():
    import subprocess
    import time

    from perfbench.procs import Watchdog, descendants

    stuck = []
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"])
    dog = Watchdog(stuck.append, grace_s=5.0)
    dog.arm("phase", 0.2)
    try:
        # the watchdog may reap the child itself, so only its end is checked
        child.wait(timeout=20)
    finally:
        if child.poll() is None:
            child.kill()
    dog.disarm()
    time.sleep(0.1)
    assert dog.expired == "phase" and not stuck
    assert child.pid not in descendants(os.getpid())


def test_tree_sampler_counts_a_child_that_exited():
    import subprocess

    from perfbench.procs import SAMPLE_INTERVAL_S, TreeSampler

    spin = "import time\nt = time.process_time()\n" \
           "while time.process_time() - t < 1.0: pass\n"
    with TreeSampler() as sampler:
        child = subprocess.Popen([sys.executable, "-c", spin])
        child.wait(timeout=60)
    # all but the child's last sampling interval is counted
    assert sampler.cpu_s >= 1.0 - 2 * SAMPLE_INTERVAL_S
    assert sampler.peak_bytes > 0


def test_least_busy_cpu_is_one_this_process_may_use():
    from perfbench.procs import least_busy_cpu

    assert least_busy_cpu(0.05) in os.sched_getaffinity(0)
