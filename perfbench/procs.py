"""The benchmark's own process tree, read from /proc: its CPU, its summed
RSS and CPU time, and killing it when a deadline passes. Only descendants
of this process are ever touched."""

from __future__ import annotations

import os
import signal
import threading
import time

# one sample reads every /proc/<pid>/stat (~3 ms); this keeps the sampler
# near 1% of the one CPU the benchmark runs on
SAMPLE_INTERVAL_S = 0.25
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_table() -> dict[int, tuple[int, int, int]]:
    """pid -> (ppid, CPU ticks user + system, RSS pages) of every process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(name)] = (int(fields[1]), int(fields[11]) + int(fields[12]),
                          int(fields[21]))
    return out


def descendants(root: int, table=None) -> list[int]:
    """Pids of every live descendant of ``root``."""
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in (table or proc_table()).items():
        children.setdefault(ppid, []).append(pid)
    out, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.append(child)
            stack.append(child)
    return out


def least_busy_cpu(sample_s: float = 0.5) -> int:
    """The CPU this process may run on that was least busy (stolen time
    included) over ``sample_s``, from /proc/stat."""
    def busy() -> dict[int, int]:
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                name, *ticks = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    t = [int(x) for x in ticks[:8]]
                    # user nice system idle iowait irq softirq steal
                    out[int(name[3:])] = sum(t) - t[3] - t[4]
        return out

    before = busy()
    time.sleep(sample_s)
    after = busy()
    allowed = os.sched_getaffinity(0) & after.keys() & before.keys()
    return min(allowed, key=lambda c: (after[c] - before[c], c))


class TreeSampler:
    """While the block runs, samples this process and its descendants
    every ``SAMPLE_INTERVAL_S``: ``peak_bytes``, the peak of their summed
    RSS, and ``cpu_s``, the CPU time (user + system) they spent. A process
    counts with its last reading, so a worker that exits inside the block
    still counts, all but its last interval."""

    def __init__(self):
        self.peak_bytes = 0
        self._base: dict[int, int] = {}
        self._last: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _sample(self) -> None:
        table = proc_table()
        me = os.getpid()
        pids = [p for p in (me, *descendants(me, table)) if p in table]
        self.peak_bytes = max(self.peak_bytes,
                              sum(table[p][2] for p in pids) * PAGE_BYTES)
        for p in pids:
            self._last[p] = table[p][1]

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self._sample()

    @property
    def cpu_s(self) -> float:
        return sum(t - self._base.get(p, 0)
                   for p, t in self._last.items()) / CLK_TCK

    def __enter__(self) -> "TreeSampler":
        self._sample()
        self._base = dict(self._last)
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def kill_tree(root: int, timeout_s: float = 15.0) -> list[int]:
    """SIGKILL every descendant of ``root`` and wait until they are gone.
    Returns the pids still alive at the timeout (none, normally)."""
    for pid in descendants(root):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    return wait_tree_gone(root, timeout_s)


def wait_tree_gone(root: int, timeout_s: float) -> list[int]:
    """Reap exited children and wait until ``root`` has no live
    descendants; returns the survivors at the timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        alive = [p for p in descendants(root) if not _is_zombie(p)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class Watchdog:
    """Per-phase deadline. When a phase overruns, the process tree is
    killed (the Ray session dies, so the blocked Ray call raises in the
    main thread) and ``expired`` names the phase. If the main thread is
    still stuck ``grace_s`` later, ``on_stuck`` runs in the watchdog
    thread; it must end the process."""

    def __init__(self, on_stuck, grace_s: float = 20.0):
        self.on_stuck = on_stuck
        self.grace_s = grace_s
        self.expired: str | None = None
        self._timer: threading.Timer | None = None
        self._released = threading.Event()

    def arm(self, label: str, seconds: float) -> None:
        self.disarm()
        self._released.clear()
        self._timer = threading.Timer(max(0.0, seconds), self._fire, (label,))
        self._timer.daemon = True
        self._timer.start()

    def disarm(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._released.set()

    def _fire(self, label: str) -> None:
        self.expired = label
        kill_tree(os.getpid())
        if not self._released.wait(self.grace_s):
            self.on_stuck(label)
