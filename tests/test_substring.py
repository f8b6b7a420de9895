"""Exact-substring pass (``stages/substring.py``): the full distributed
pipeline against a brute-force all-pairs LCS oracle, its empty and
guard cases, and the config surface it is selected by."""

import numpy as np
import pyarrow as pa
import pytest


def _brute_lcs(a: str, b: str) -> int:
    ua = np.frombuffer(a.encode("utf-16-le"), dtype="<u2")
    ub = np.frombuffer(b.encode("utf-16-le"), dtype="<u2")
    best = 0
    for i in range(len(ua)):
        for j in range(len(ub)):
            m = 0
            while i + m < len(ua) and j + m < len(ub) and ua[i + m] == ub[j + m]:
                m += 1
            if m > best:
                best = m
    return best


def _quote_corpus(n_rows=300, seed=7):
    rng = np.random.default_rng(seed)
    words = ["alpha", "bravo", "charlie", "delta", "echo", "fox", "golf",
             "hotel", "india", "juliet"]
    quote = ("the quick brown fox jumps over the lazy dog near the "
             "riverbank at dawn")
    texts = []
    for i in range(n_rows):
        t = " ".join(rng.choice(words, int(rng.integers(3, 20))))
        if i % 7 == 0:
            t = t + " " + quote[: int(rng.integers(45, len(quote)))]
        texts.append(t)
    return pa.table({"doc_id": pa.array(range(n_rows), pa.int64()),
                     "text": pa.array(texts)})


def test_substring_pairs_brute_oracle(ray_session):
    """Full-pipeline output vs a brute-force all-pairs LCS oracle on a
    small corpus (completeness for >= min_len AND zero false
    positives AND exact lcs_len)."""
    import ray

    from mhray.stages.substring import substring_pairs

    tbl = _quote_corpus(n_rows=60, seed=11)
    min_len = 40
    out = substring_pairs(ray.data.from_arrow(tbl), min_len=min_len,
                          num_parts=2).take_all()
    got = {(r["lo"], r["hi"]): r["lcs_len"] for r in out}
    texts = tbl.column("text").to_pylist()
    want = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            L = _brute_lcs(texts[i], texts[j])
            if L >= min_len:
                want[(i, j)] = L
    assert got == want
    assert len(want) > 0


def test_substring_pairs_no_fingerprints(ray_session):
    """Every text is shorter than one fingerprint gram, so the
    fingerprint map emits no rows at all: the pipeline must still run
    end to end and return nothing."""
    import ray

    from mhray.stages.substring import substring_pairs

    tbl = pa.table({
        "doc_id": pa.array(range(20), pa.int64()),
        "text": pa.array([f"unique short text {i}" for i in range(20)]),
    })
    out = substring_pairs(ray.data.from_arrow(tbl), min_len=40,
                          num_parts=2).take_all()
    assert out == []


def test_substring_pairs_min_len_guard(ray_session):
    import ray

    from mhray.stages.substring import substring_pairs

    tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                    "text": pa.array(["abc"])})
    with pytest.raises(ValueError):
        substring_pairs(ray.data.from_arrow(tbl), min_len=3)


def test_config_has_no_engine_switch():
    """There is one exact-substring engine, so no option selects one:
    an unknown field must raise, not be silently ignored."""
    from mhray.config import MhapConfig

    with pytest.raises(TypeError):
        MhapConfig().with_(substr_engine="suffix_array")
