"""tools/resume_demo.py cleans up only the Ray session it started."""

import importlib.util
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _demo():
    spec = importlib.util.spec_from_file_location(
        "resume_demo", os.path.join(ROOT, "tools", "resume_demo.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _ray_pids() -> set[int]:
    out = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmdline = f.read()
        except OSError:
            continue
        if (b"raylet" in cmdline or b"gcs_server" in cmdline
                or cmdline.startswith(b"ray::")):
            out.add(int(name))
    return out


def test_session_pids_never_selects_another_session(ray_session, tmp_path):
    import ray

    demo = _demo()

    @ray.remote
    def ping():
        return os.getpid()

    worker = ray.get(ping.remote())  # the pytest session has a worker
    own = _ray_pids() | {os.getpid(), worker}
    assert len(own) >= 3

    # stand-in session: a process naming a path under temp_dir, with a
    # child whose command line does not (like a retitled Ray worker)
    temp_dir = str(tmp_path / "sess")
    os.makedirs(temp_dir)
    code = ("import subprocess, sys, time; subprocess.Popen([sys.executable,"
            " '-c', 'import time; time.sleep(30)']); time.sleep(30)")
    root = subprocess.Popen([sys.executable, "-c", code,
                             os.path.join(temp_dir, "session_x")])
    pids = []
    try:
        deadline = time.time() + 30
        while time.time() < deadline and len(pids) < 2:
            time.sleep(0.1)
            pids = demo.session_pids(temp_dir)
        assert root.pid in pids and len(pids) == 2
        assert not own & set(pids)
        # a sibling dir sharing the prefix is another session
        assert demo.session_pids(temp_dir[:-1]) == []
    finally:
        for pid in set(pids) | set(demo.session_pids(temp_dir)):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        root.wait()
