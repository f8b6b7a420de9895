"""Kill-and-resume evidence at campaign scale (north-rule resumability).

The checkpoint/resume contract (mhray/checkpoint.py, tests/test_incremental.py
and the partial-attempt-discard tests) is pytest-covered at small scale; this
tool produces the AT-SCALE artifact: a real mid-job SIGKILL during the widest
exchange, then a resumed run that must skip the finished stage and reproduce
the uninterrupted run's pairs exactly.

Three phases, each a FRESH process (its own `ray.init(address="local")`)
over the same corpus:

  ref    : uninterrupted flagship run into out_ref — baseline wall + pairs
  killed : identical run into out_res; the parent watches for
           s1_sketches/_SUCCESS and SIGKILLs the child's whole process
           group ``--grace`` seconds later — mid-s2, the rep-pair exchange
  resume : rerun into out_res with resume=True; s1 must be skipped
           (manifest.json byte-identical and mtime unchanged) and the
           pair count must equal ref's

Prints one JSON line. Each phase runs its own Ray session under a fresh
short temp dir; after the SIGKILL the tool force-kills that session's
surviving processes (raylet, gcs_server, workers) so the orphaned object
store can't distort the resume leg. Other Ray sessions on the machine are
left alone, but their load still skews the timings.

Usage: python tools/resume_demo.py [--rows 2000000] [--cpus 32] [--grace 15]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO not in sys.path:  # `python tools/resume_demo.py` puts tools/
    sys.path.insert(0, REPO)  # on sys.path, not the repo root


def session_pids(temp_dir: str) -> list[int]:
    """Pids of the Ray session rooted at ``temp_dir``: every process
    whose command line names a path under it (Ray passes it to
    gcs_server, raylet and their helpers) plus all their descendants
    (workers retitle themselves ``ray::...``, which hides the path,
    but they are raylet's children). Never this process, and never a
    process of another Ray session."""
    needle = os.path.join(temp_dir, "").encode()
    hits, children = set(), {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmdline = f.read()
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
        children.setdefault(ppid, []).append(int(name))
        if needle in cmdline:
            hits.add(int(name))
    stack = list(hits)
    while stack:
        for c in children.get(stack.pop(), ()):
            if c not in hits:
                hits.add(c)
                stack.append(c)
    hits.discard(os.getpid())
    return sorted(hits)


def child(images: str, out_dir: str, resume: bool, cpus: int,
          temp_dir: str) -> None:
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=temp_dir)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from mhray.config import PRESETS
    from mhray.pipelines.dedup import run_dedup

    t0 = time.time()
    res = run_dedup(images, out_dir, PRESETS["captions"],
                    decode_pixels=True, num_parts=min(32, cpus),
                    resume=resume)
    pairs = res["pairs"].count()
    print(json.dumps({"pairs": pairs, "sec": round(time.time() - t0, 2)}),
          flush=True)
    ray.shutdown()


def run_child(images: str, out_dir: str, resume: bool, cpus: int,
              kill_after_marker: float | None = None) -> dict:
    """Run one phase as a fresh process group with its own Ray temp
    dir; optionally SIGKILL it ``kill_after_marker`` seconds after s1's
    _SUCCESS appears."""
    # short: Ray's unix socket paths under it must stay < 108 bytes
    with tempfile.TemporaryDirectory(prefix="mhr_", dir="/tmp",
                                     ignore_cleanup_errors=True) as temp_dir:
        cmd = [sys.executable, os.path.abspath(__file__), "--child-run",
               images, out_dir, str(int(resume)), str(cpus), temp_dir]
        t0 = time.time()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=REPO, start_new_session=True)
        marker = os.path.join(out_dir, "s1_sketches", "_SUCCESS")
        if kill_after_marker is None:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"child failed rc={proc.returncode}")
            line = [ln for ln in out.splitlines() if ln.startswith("{")][-1]
            return json.loads(line)
        while proc.poll() is None and not os.path.exists(marker):
            time.sleep(0.25)
        if proc.poll() is not None:
            raise RuntimeError("child finished before s1 marker appeared "
                               "— corpus too small for the kill window")
        time.sleep(kill_after_marker)
        if proc.poll() is not None:
            raise RuntimeError("child finished before the kill fired — "
                               "increase rows or lower --grace")
        killed_at = time.time() - t0
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        proc.wait()
        # reap this session's Ray processes that escaped the process
        # group so the orphaned object store can't hold memory into the
        # next phase
        time.sleep(2)
        for pid in session_pids(temp_dir):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(2)
        return {"killed_after_sec": round(killed_at, 2)}


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "--child-run":
        images, out_dir, resume, cpus, temp_dir = sys.argv[2:7]
        child(images, out_dir, bool(int(resume)), int(cpus), temp_dir)
        return

    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=2_000_000)
    ap.add_argument("--cpus", type=int, default=32)
    ap.add_argument("--grace", type=float, default=15.0,
                    help="seconds between s1 _SUCCESS and SIGKILL")
    args = ap.parse_args()

    sys.path.insert(0, REPO)
    from bench import ensure_corpus

    images = os.path.join(ensure_corpus(args.rows), "images")
    ts = time.time_ns()
    out_ref = f"/tmp/mhray_resume_ref_{ts}"
    out_res = f"/tmp/mhray_resume_res_{ts}"

    ref = run_child(images, out_ref, resume=False, cpus=args.cpus)

    kill = run_child(images, out_res, resume=False, cpus=args.cpus,
                     kill_after_marker=args.grace)

    manifest = os.path.join(out_res, "s1_sketches", "manifest.json")
    m_before = (os.path.getmtime(manifest), open(manifest).read())

    res = run_child(images, out_res, resume=True, cpus=args.cpus)

    m_after = (os.path.getmtime(manifest), open(manifest).read())
    s1_skipped = m_before == m_after

    print(json.dumps({
        "metric": "kill-and-resume (SIGKILL mid-s2, fresh process resume)",
        "rows": args.rows,
        "cpus": args.cpus,
        "full_sec": ref["sec"],
        "killed_after_sec": kill["killed_after_sec"],
        "resume_sec": res["sec"],
        "pairs_full": ref["pairs"],
        "pairs_resumed": res["pairs"],
        "pairs_identical": ref["pairs"] == res["pairs"],
        "s1_skipped": s1_skipped,
        "resume_saved_frac": round(1 - res["sec"] / ref["sec"], 3),
    }))


if __name__ == "__main__":
    main()
