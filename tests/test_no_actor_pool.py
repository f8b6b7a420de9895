"""Every per-row stage in mhray runs as stateless ``map_batches`` tasks
on the session's warm workers; none starts an actor pool per run. The
static guard walks the AST of every module under mhray/ and fails on a
``map_batches`` call passing ``concurrency=`` or
``fn_constructor_kwargs=``. The runtime guard records every Ray Data
execution of one flagship run and fails on an ``ActorPoolMapOperator``,
on a read whose blocks Ray splits (``SplitBlocks``: the split read
cannot fuse with the map after it) or on more executions than the run
needs today."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL_KEYWORDS = ("concurrency", "fn_constructor_kwargs")
# executions of one flagship run_dedup on the shared 1k-row corpus
MAX_EXECUTIONS = 13


def _offences(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            for kw in node.keywords:
                if kw.arg in POOL_KEYWORDS:
                    yield node.lineno, f"map_batches {kw.arg}="


def test_no_actor_pool_map_in_mhray():
    found = []
    n_files = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "mhray")):
        for f in files:
            if f.endswith(".py"):
                n_files += 1
                path = os.path.join(dirpath, f)
                found += [f"{os.path.relpath(path, ROOT)}:{line}: {what}"
                          for line, what in _offences(path)]
    assert n_files > 10
    assert not found, found


def test_guard_catches_both_keywords(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "out = ds.map_batches(Stage, fn_constructor_kwargs={'cfg': cfg})\n"
        "out = ds.map_batches(Stage, concurrency=(1, 4))\n"
        "out = ds.map_batches(Stage(), batch_size=64)\n")
    assert sorted(_offences(str(bad))) == [
        (1, "map_batches fn_constructor_kwargs="),
        (2, "map_batches concurrency=")]


def _op_names(op, seen=None):
    seen = set() if seen is None else seen
    seen.update((type(op).__name__, op.name))
    for dep in op.input_dependencies:
        _op_names(dep, seen)
    return seen


def test_flagship_runs_no_actor_pool(ray_session, small_corpus,
                                     tmp_path, monkeypatch):
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from mhray.config import PRESETS
    from mhray.pipelines.dedup import run_dedup

    executed = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        executed.append(_op_names(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    run_dedup(small_corpus["images"], str(tmp_path / "run"),
              PRESETS["captions"], num_parts=4)
    assert executed
    assert not [ops for ops in executed if "ActorPoolMapOperator" in ops]
    assert not [name for ops in executed for name in ops
                if "SplitBlocks" in name]
    assert len(executed) <= MAX_EXECUTIONS, len(executed)
