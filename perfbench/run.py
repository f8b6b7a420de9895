"""mhray benchmark: one workload per invocation.

    python3 perfbench/run.py --workload flagship|edit --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each run pins itself, and so the Ray
session it starts, to one CPU (the least busy one it may use). It sets up
``SETUP_REPS`` times (its own local Ray session with ``NUM_CPUS`` logical
CPUs, repo root on the workers' PYTHONPATH and temp dir inside the
checkout, then seeded input generation), runs the workload once on the
last session (the warm-up: worker spawn, actor start-up, lazy imports),
then repeats it until ``--seconds`` have passed and at least
``MIN_ITERS`` times, checking every output against an oracle. ``setup_s`` is the median
set-up plus the warm-up run. The last stdout line is one JSON object:
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one extra traced pass, whose spans are written to
``.perfbench_out/``, with the timed repetitions' median ``wall_s``,
``rows_per_s`` and ``cpu_s``. Both modes print those three and
``fail_rate`` on the lines before the result.

A phase that overruns its deadline kills this process's own Ray session
and counts as a failed run. Exits 2 without a result when the mhray
sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUM_CPUS = 2
SETUP_REPS = 2
MIN_ITERS = 1
SETUP_DEADLINE_S = 60.0
WARMUP_DEADLINE_S = 90.0
ITER_DEADLINE_S = 60.0
TRACE_DEADLINE_S = 90.0
RUN_LIMIT_S = 165.0
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes and Ray nests ~65 more
# under its temp dir; a longer checkout path falls back to the system temp
MAX_RAY_TMP_LEN = 40

# Idle workers are kept, not killed: by default Ray kills a worker idle
# for 1 s and spawns a new one (about a CPU second of imports) when the next
# task needs it, so how many spawned in a run, and so its time, depended on
# timing. Kept, a warm run spawns only the workers that replace the
# actors the previous run ended.
RAY_SYSTEM_CONFIG = {"num_workers_soft_limit": 4,
                     "idle_worker_killing_time_threshold_ms": 3_600_000}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB"}
# The host's speed under the VM drifts over minutes, so the timed run's
# time did not repeat within a tenth across runs, even on one CPU (over
# ten seeds the quartiles were 0.12-0.26 of the median apart); it is
# reported with the per-layer metrics of the traced run
TIMED_PER_LAYER = ("wall_s", "rows_per_s", "cpu_s")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer_spec() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u}
                    for k, u in units.items()}})


class Session:
    """The run's own Ray session and scratch directories."""

    def __init__(self, work_dir: str):
        ray_tmp = os.path.join(work_dir, "ray")
        self.own_tmp = None
        if len(ray_tmp) > MAX_RAY_TMP_LEN:
            self.own_tmp = tempfile.mkdtemp(prefix="pbray")
            ray_tmp = self.own_tmp
        self.ray_tmp = ray_tmp
        # Ray's processes inherit the environment; this starts faster than
        # a runtime_env, whose agent adds about a second per session
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = f"{ROOT}{os.pathsep}{path}" if path else ROOT

    def start(self) -> None:
        import ray
        import ray.data

        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _temp_dir=self.ray_tmp,
                 _system_config=RAY_SYSTEM_CONFIG)
        ray.data.DataContext.get_current().enable_progress_bars = False

    def stop(self) -> None:
        import ray

        from perfbench.procs import kill_tree, wait_tree_gone

        if ray.is_initialized():
            ray.shutdown()
        if wait_tree_gone(os.getpid(), 20.0):
            kill_tree(os.getpid())

    def close(self) -> None:
        self.stop()
        if self.own_tmp:
            shutil.rmtree(self.own_tmp, ignore_errors=True)


def run(args: argparse.Namespace) -> str:
    from perfbench.procs import TreeSampler, Watchdog
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, stage_metrics

    t_start = time.monotonic()
    units = per_layer_spec() if args.trace else END_TO_END
    cls = WORKLOADS[args.workload]
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    cache_dir = os.path.join(ROOT, ".perfbench_cache")
    os.makedirs(tmp_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="r", dir=tmp_root)
    session = Session(work_dir)
    counts = {"attempted": 0, "failed": 0}

    def on_stuck(label: str) -> None:
        print(f"[perfbench] {label}: deadline passed and the run is stuck",
              file=sys.stderr)
        print(result_line(False, max(1, counts["attempted"]),
                          counts["failed"] + 1, {}, units), flush=True)
        os._exit(0)

    dog = Watchdog(on_stuck)

    def arm(label: str, seconds: float) -> None:
        left = RUN_LIMIT_S - (time.monotonic() - t_start)
        dog.arm(label, min(seconds, left))

    setups, walls, cpus, rss, stages = [], [], [], [], []
    warm = oracle = 0.0
    values: dict[str, float] = {}
    wl = cls(args.seed, work_dir, cache_dir)
    try:
        for rep in range(SETUP_REPS):
            if rep:
                session.stop()
            arm(f"setup {rep}", SETUP_DEADLINE_S)
            t0 = time.perf_counter()
            session.start()
            wl.make_inputs()
            setups.append(time.perf_counter() - t0)
            dog.disarm()
        t0 = time.perf_counter()
        expected = wl.expected()
        oracle = time.perf_counter() - t0
        # the first run pays worker spawn, actor start-up and lazy imports;
        # it is part of setup_s, and it is checked like the timed runs,
        # which follow it directly
        counts["attempted"] += 1
        arm("warm-up", WARMUP_DEADLINE_S)
        t0 = time.perf_counter()
        result = wl.run_once(os.path.join(work_dir, "warmup"))
        warm = time.perf_counter() - t0
        dog.disarm()
        if not wl.check(result, expected):
            counts["failed"] += 1

        timed_from = time.monotonic()
        keep_dir = None
        while True:
            counts["attempted"] += 1
            out_dir = os.path.join(work_dir, f"out{len(walls)}")
            arm(f"iteration {len(walls)}", ITER_DEADLINE_S)
            with TreeSampler() as sampler:
                t0 = time.perf_counter()
                result = wl.run_once(out_dir)
                walls.append(time.perf_counter() - t0)
            dog.disarm()
            cpus.append(sampler.cpu_s)
            rss.append(sampler.peak_bytes / 1e6)
            if not wl.check(result, expected):
                counts["failed"] += 1
            if os.path.isdir(out_dir):
                # manifests are read before the out_dir is removed
                stages.append(stage_metrics(out_dir))
                if keep_dir:
                    shutil.rmtree(keep_dir)
                keep_dir = out_dir
            if (time.monotonic() - timed_from >= args.seconds
                    and len(walls) >= MIN_ITERS):
                break

        wall = statistics.median(walls)
        timed = {"wall_s": wall, "rows_per_s": wl.rows / wall,
                 "cpu_s": statistics.median(cpus)}
        values = {"setup_s": statistics.median(setups) + warm,
                  "peak_rss_mb": statistics.median(rss)}
        if args.trace:
            counts["attempted"] += 1
            tracer = Tracer()
            arm("trace", TRACE_DEADLINE_S)
            layer, trace_ok = wl.trace(tracer, keep_dir)
            dog.disarm()
            if not trace_ok:
                counts["failed"] += 1
            values = {}
            for s in stages:
                for k, v in s.items():
                    values.setdefault(k, []).append(v)
            values = {k: statistics.median(v) for k, v in values.items()}
            values.update(layer, **timed)
            unknown = set(values) - set(units)
            if unknown:
                raise ValueError(f"metrics missing from BENCHMARK.json: "
                                 f"{sorted(unknown)}")
            # the workload's root span is its layer-by-layer replay, which
            # differs from the untraced run in more than its spans (see
            # LAYERS.md), so this can be negative
            root = next(sp for sp in tracer.spans if sp["name"] == wl.name)
            values["trace.overhead_s"] = (root["end"] - root["start"]) - wall
            out = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out, exist_ok=True)
            tracer.write(os.path.join(
                out, f"trace-{wl.name}-{args.seed}-{tracer.run_id}.json"))
    except Exception as e:  # noqa: BLE001 — the run is recorded as failed
        dog.disarm()
        why = f"deadline passed in {dog.expired}" if dog.expired else repr(e)
        traceback.print_exc()
        print(f"[perfbench] {args.workload} failed: {why}", file=sys.stderr)
        counts["attempted"] = max(1, counts["attempted"])
        counts["failed"] += 1
    finally:
        session.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = counts["attempted"], counts["failed"]
    if walls:
        wall = statistics.median(walls)
        print(f"[perfbench] {args.workload} seed={args.seed}: "
              f"wall_s={wall:.3f} rows_per_s={wl.rows / wall:.1f} "
              f"cpu_s={statistics.median(cpus):.3f}")
    print(f"[perfbench] {args.workload} seed={args.seed}: "
          f"fail_rate={failed}/{attempted}={failed / attempted:.3f} "
          f"setup_s={[round(x, 3) for x in setups]}+{warm:.3f} "
          f"wall_s={[round(x, 3) for x in walls]} "
          f"cpu_s={[round(x, 3) for x in cpus]} oracle_s={oracle:.3f} "
          f"total_s={time.monotonic() - t_start:.3f}")
    return result_line(failed == 0, attempted, failed, values, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "mhray", "__init__.py")):
        print(f"[perfbench] no mhray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench.procs import least_busy_cpu

    # first, so every thread and process started later inherits it: on
    # one CPU, the run's time no longer depends on how the host spreads
    # the Ray processes over its CPUs, which moved the CPU time of one
    # seed's flagship runs by a third
    cpu = least_busy_cpu()
    os.sched_setaffinity(0, {cpu})
    print(f"[perfbench] pinned to CPU {cpu}", file=sys.stderr)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(run(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
