"""Edit-distance join: banded kernel exactness + prefix-filter
completeness on a planted corpus."""

import random

import numpy as np
import pyarrow as pa
import pytest

from mhray.stages.editjoin import banded_levenshtein


def _ref_lev(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    d = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, d[0] = d[0], i
        for j in range(1, lb + 1):
            cur = min(d[j] + 1, d[j - 1] + 1,
                      prev + (a[i - 1] != b[j - 1]))
            prev, d[j] = d[j], cur
    return d[lb]


def _mutate(rng, s: str, n_ops: int) -> str:
    b = list(s)
    for _ in range(n_ops):
        op = rng.choice("sid")
        if not b and op != "i":
            continue
        p = rng.randrange(len(b) + 1 if op == "i" else len(b))
        if op == "s":
            b[p] = rng.choice("abcdef ")
        elif op == "i":
            b.insert(p, rng.choice("abcdef "))
        else:
            del b[p]
    return "".join(b)


def test_banded_levenshtein_fuzz_vs_reference():
    rng = random.Random(11)
    for _ in range(200):
        a = "".join(rng.choice("abcde") for _ in range(rng.randint(0, 40)))
        b = _mutate(rng, a, rng.randint(0, 6))
        true = _ref_lev(a, b)
        for k in (1, 2, 4, 7):
            got = banded_levenshtein(a, b, k)
            if true <= k:
                assert got == true, (a, b, k, got, true)
            else:
                assert got > k, (a, b, k, got, true)


def test_banded_levenshtein_edges():
    assert banded_levenshtein("", "", 2) == 0
    assert banded_levenshtein("", "ab", 2) == 2
    assert banded_levenshtein("", "abc", 2) > 2
    assert banded_levenshtein("same text", "same text", 0) == 0
    # unicode code points, not bytes
    assert banded_levenshtein("café", "cafe", 1) == 1


def _planted():
    """12 random 160-char docs, each with one copy 1-4 edits away;
    returns the rows and {(lo, hi): distance} of the in-scope pairs."""
    rng = random.Random(5)
    base = ["".join(rng.choice("abcdefgh ") for _ in range(160))
            for _ in range(12)]
    rows, truth = [], {}
    did = 0
    for b in base:
        rows.append({"doc_id": did, "text": b})
        keeper = did
        did += 1
        n_ops = rng.randint(1, 4)
        mut = _mutate(rng, b, n_ops)
        d = _ref_lev(b, mut)
        rows.append({"doc_id": did, "text": mut})
        if d <= 4 and len(mut) >= 104:
            truth[(keeper, did)] = d
        did += 1
    return rows, truth


def _pairs(out) -> dict:
    return {(int(r.lo), int(r.hi)): int(r.dist)
            for r in out.to_pandas().itertuples()}


def test_edit_distance_pairs_complete_on_planted(ray_session):
    """Planted near-identical docs must all surface with exact
    distances; unrelated docs must not pair."""
    import ray.data

    from mhray.stages.editjoin import edit_distance_pairs

    rows, truth = _planted()
    got = _pairs(edit_distance_pairs(ray.data.from_items(rows), k=4, q=8,
                                     min_len=104, num_parts=4))
    # every planted pair found with the exact distance
    for pair, d in truth.items():
        assert got.get(pair) == d, (pair, d, got.get(pair))
    # nothing else: random 160-char strings are nowhere near 4 edits
    extra = set(got) - set(truth)
    assert not extra, extra


def test_edit_distance_pairs_rejects_too_short_min_len():
    """Docs with no more than q*k grams could lose every gram to k
    edits, so the prefix filter cannot promise completeness there."""
    from mhray.stages.editjoin import edit_distance_pairs

    with pytest.raises(ValueError, match="min_len"):
        # 39 code points -> 32 8-grams = q*k: the first unsafe length
        edit_distance_pairs(None, k=4, q=8, min_len=39)


def test_df_cap_changes_no_pair(ray_session):
    """Grams outside the df cap rank as df=1: every doc still orders
    its grams by one total order, so the cap moves pruning, never the
    result set."""
    import ray.data

    from mhray.stages.editjoin import edit_distance_pairs

    rows, truth = _planted()
    ds = ray.data.from_items(rows)
    full = _pairs(edit_distance_pairs(ds, num_parts=4))
    capped = _pairs(edit_distance_pairs(ds, num_parts=4, df_top_k=3))
    assert full == truth
    assert capped == full


def _dag_edges(op, seen=None):
    """(input, operator) name pairs of an executed DAG, each named
    like Ray's plan log: ``AllToAllOperator[Sort]``."""
    seen = [] if seen is None else seen
    for dep in op.input_dependencies:
        seen.append((f"{type(dep).__name__}[{dep.name}]",
                     f"{type(op).__name__}[{op.name}]"))
        _dag_edges(dep, seen)
    return seen


def test_edit_join_executions(ray_session, monkeypatch):
    """The df table is one partial-count shuffle and both texts come
    from one broadcast attach: the whole join is the eligible-doc and
    gram materializations, the df pass and the pair chain — and no
    global sort ranks a frequency table for a limit."""
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from mhray.stages.editjoin import edit_distance_pairs

    rows, truth = _planted()
    ds = ray.data.from_items(rows)
    executed = []
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        executed.append(_dag_edges(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    out = edit_distance_pairs(ds, num_parts=4).materialize()
    monkeypatch.undo()
    assert _pairs(out) == truth
    assert len(executed) <= 4, executed
    sort_to_limit = [(a, b) for edges in executed for a, b in edges
                     if a.endswith("[Sort]")
                     and b.startswith("LimitOperator")]
    assert not sort_to_limit, sort_to_limit
