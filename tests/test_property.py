"""Property-based tests (hypothesis) for the hot kernels: packing
round-trips, pair-emission completeness, and estimator bounds."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=300),
       st.integers(1, 64))
def test_bottom_sketch_pack_roundtrip(vals, k):
    from mhray.kernels import (bottom_sketch, pack_bottom_sketch,
                               unpack_bottom_sketch)

    h = np.asarray(vals, dtype=np.int32)
    bh, bp = bottom_sketch(h, k)
    blob = pack_bottom_sketch(bh, bp, len(h))
    h2, p2, n2 = unpack_bottom_sketch(blob)
    assert n2 == len(h)
    assert np.array_equal(h2, bh) and np.array_equal(p2, bp)
    # bottom-k invariants: ascending hashes, stable positions for ties
    assert np.all(np.diff(bh.astype(np.int64)) >= 0)
    assert len(bh) == min(k, len(h))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 50)),
                min_size=0, max_size=200),
       st.integers(2, 1000))
def test_pairs_within_groups_complete_and_sound(entries, cap):
    """Every (lo<hi) pair sharing a key is emitted exactly once (below
    the cap) and nothing else."""
    from mhray.stages.candidates import _pairs_within_groups

    keys = np.asarray([k for k, _ in entries], dtype=np.int64)
    iids = np.asarray([v for _, v in entries], dtype=np.int64)
    lo, hi, capped, dropped = _pairs_within_groups(keys, iids, cap)
    got = list(zip(lo.tolist(), hi.tolist()))

    exp = []
    for k in sorted(set(keys.tolist())):
        members = sorted(iids[keys == k].tolist())[:cap]
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                exp.append((members[i], members[j]))
    assert sorted(got) == sorted(exp)
    assert np.all(lo <= hi)


_small_or_huge = st.one_of(st.integers(0, 20), st.integers(0, 2**62))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), _small_or_huge),
                min_size=0, max_size=150),
       st.one_of(st.integers(0, 5), st.integers(0, 2**62 - 1)))
def test_window_pairs_match_brute_force(entries, w):
    """The window shape (edit-join length filter, event windows): every
    same-key index pair with |v_a - v_b| <= w exactly once, whatever
    the value range."""
    from mhray.kernels import window_pairs

    keys = np.asarray([k for k, _ in entries], dtype=np.int64)
    vals = np.asarray([v for _, v in entries], dtype=np.int64)
    a, b = window_pairs(keys, vals, w)
    assert np.all(vals[a] <= vals[b])
    got = sorted((min(x, y), max(x, y)) for x, y in zip(a.tolist(), b.tolist()))
    exp = [(i, j) for i in range(len(entries)) for j in range(i + 1, len(entries))
           if entries[i][0] == entries[j][0]
           and abs(entries[i][1] - entries[j][1]) <= w]
    assert got == exp


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 50)), max_size=150),
       st.lists(st.tuples(st.integers(0, 8), st.integers(0, 50)), max_size=150),
       st.integers(1, 10))
def test_cross_pairs_capped_match_brute_force(query, index, cap):
    """The capped query x index shape: all pairs over each side's first
    ``cap`` members (smallest iids) per shared key, capped flags and
    drop counts included."""
    from mhray.stages.candidates import _cross_pairs

    def arr(es, i):
        return np.asarray([e[i] for e in es], dtype=np.int64)

    lo, hi, capped, dropped = _cross_pairs(arr(query, 0), arr(query, 1),
                                           arr(index, 0), arr(index, 1), cap)
    exp, exp_dropped = [], 0
    for k in sorted({k for k, _ in query} & {k for k, _ in index}):
        qm = sorted(v for kk, v in query if kk == k)
        im = sorted(v for kk, v in index if kk == k)
        exp_dropped += max(len(qm) - cap, 0) + max(len(im) - cap, 0)
        over = len(qm) > cap or len(im) > cap
        exp += [(a, b, over) for a in qm[:cap] for b in im[:cap]]
    assert sorted(zip(lo.tolist(), hi.tolist(), capped.tolist())) == sorted(exp)
    assert dropped == exp_dropped


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
def test_hamming_and_bit_jaccard_bounds(a, b):
    from mhray.kernels import bit_sketch_jaccard, hamming64

    A = np.array([a], dtype=np.uint64).view(np.int64)
    B = np.array([b], dtype=np.uint64).view(np.int64)
    d = int(hamming64(A, B)[0])
    assert 0 <= d <= 64
    assert d == bin(a ^ b).count("1")
    est = float(bit_sketch_jaccard(A.reshape(1, 1), B.reshape(1, 1))[0])
    assert 0.0 <= est <= 1.0
    if a == b:
        assert est == 1.0


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="abcdef ", max_size=60),
       st.text(alphabet="abcdef ", max_size=60))
def test_lcs_symmetric_and_bounded(a, b):
    from mhray.stages.substring import longest_common_substring_len

    l1 = longest_common_substring_len(a, b)
    l2 = longest_common_substring_len(b, a)
    assert l1 == l2
    assert 0 <= l1 <= min(len(a), len(b))
    if l1 > 0:
        # witness exists: some substring of that length is shared
        found = any(a[i:i + l1] in b for i in range(len(a) - l1 + 1))
        assert found


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(max_size=70), max_size=20), st.integers(0, 2**31))
def test_ragged_murmur_matches_scalar(rows, seed):
    from mhray.murmur import murmur3_x64_128_ragged, murmur3_x64_128_scalar

    data = np.frombuffer(b"".join(rows), dtype=np.uint8)
    offs = np.concatenate(
        [[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
    got = murmur3_x64_128_ragged(data, offs, seed)
    for i, r in enumerate(rows):
        assert int(got[i]) == murmur3_x64_128_scalar(r, seed)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(max_size=40), min_size=1, max_size=12))
def test_hash_strings64_matches_scalar_utf16(texts):
    from mhray.kernels import hash_strings64
    from mhray.murmur import murmur3_x64_128_scalar

    got = np.asarray(hash_strings64(texts)).view(np.uint64)
    for i, t in enumerate(texts):
        assert int(got[i]) == murmur3_x64_128_scalar(t.encode("utf-16-le"), 0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=400),
       st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_weighted_summary_invariants(vals, s):
    from mhray.stages.freqjob import _weighted_summary

    v = np.asarray(vals, np.float64)
    w = np.ones(len(v))
    sv, sw = _weighted_summary(v, w, s)
    assert len(sv) <= max(s, len(v) if len(v) <= s else s)
    assert sw.sum() == pytest.approx(len(v))      # mass conserved
    assert np.all(np.isin(sv, v))                 # values are real data
    assert np.all(np.diff(sv) >= 0)               # sorted


@given(st.integers(0, 10_000), st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_ntile_bucket_starts_fill(total, k):
    from mhray.stages.quantile import _bucket_starts

    starts = _bucket_starts(total, k)
    sizes = np.diff(np.append(starts, total))
    assert sizes.sum() == total
    assert len(starts) == k
    nonneg = sizes[sizes > 0]
    if len(nonneg):
        assert nonneg.max() - nonneg.min() <= 1   # NTILE even fill
    # bigger buckets come first
    assert np.all(np.diff(sizes) <= 0) or total % k == 0


@given(st.dictionaries(st.from_regex(r"[a-z]{1,6}", fullmatch=True),
                       st.integers(-10**9, 10**9), max_size=5),
       st.sampled_from(["k", "key", "zz"]))
@settings(max_examples=80, deadline=None)
def test_json_extract_fast_matches_strict_on_flat_objects(obj, key):
    import json

    from mhray.stages.text import json_extract_int

    batch = pa.table({"props": pa.array([json.dumps(obj)], pa.string())})
    fast = json_extract_int(batch, "props", key).to_pylist()
    strict = json_extract_int(batch, "props", key, strict=True).to_pylist()
    assert fast == strict == [obj.get(key)]


@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-2**62, 2**62)),
                min_size=0, max_size=40),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-2**62, 2**62)),
                min_size=0, max_size=40),
       st.lists(st.integers(-2**62, 2**62), min_size=4, max_size=4,
                unique=True))
def test_attach_payload_pair_key_matches_merge(ray_session, side_keys,
                                               pair_keys, firsts):
    """A two-column key attaches exactly what a pandas merge on both
    columns does — inner and left, broadcast and shuffle path — with
    first columns up to 2^62 that many keys share (so neither a packed
    nor a hashed single key would be exact)."""
    import pandas as pd
    import ray.data

    from mhray.rayutil import attach_payload

    side = {(firsts[i], v) for i, v in side_keys}          # unique keys
    side_tbl = pa.table({
        "s0": pa.array([k[0] for k in side], pa.int64()),
        "s1": pa.array([k[1] for k in side], pa.int64()),
        "val": pa.array(np.arange(len(side)), pa.int64())})
    # half the pair keys are side keys, so both hit and miss paths run
    keys = [(firsts[i], v) for i, v in pair_keys] + sorted(side)[::2]
    pairs_tbl = pa.table({
        "a": pa.array([k[0] for k in keys], pa.int64()),
        "b": pa.array([k[1] for k in keys], pa.int64()),
        "row": pa.array(np.arange(len(keys)), pa.int64())})
    pairs_df, side_df = pairs_tbl.to_pandas(), side_tbl.to_pandas()
    for how in ("inner", "left"):
        want = pairs_df.merge(side_df, how=how, left_on=["a", "b"],
                              right_on=["s0", "s1"])
        want = sorted(zip(want["row"], want["val"].astype("Int64")))
        for kw in ({}, {"broadcast_threshold_rows": 0}):
            got = attach_payload(
                ray.data.from_arrow(pairs_tbl), ("a", "b"),
                ray.data.from_arrow(side_tbl), ("s0", "s1"), ("val",),
                "s", 3, how=how, pairs_schema=pairs_tbl.schema,
                side_schema=side_tbl.schema, **kw).take_all()
            got = sorted((r["row"], pd.NA if r["val_s"] is None
                          else r["val_s"]) for r in got)
            assert got == want, (how, kw)
