"""Corpus frequency tables: ``rayutil.top_counts`` against a numpy
reference, and the capped df table's promise that the cap changes
prefix-filter pruning, never a join's result set."""

import numpy as np
import pyarrow as pa
import pytest


def _reference(vals: np.ndarray, k: int):
    uk, cnt = np.unique(vals, return_counts=True)
    sel = np.lexsort((uk, -cnt))[:k]  # count desc, key asc
    sel = sel[np.argsort(uk[sel])]
    return uk[sel], cnt[sel], len(vals)


def _dataset(vals: np.ndarray, block_rows: int):
    """``vals`` in blocks of ``block_rows``, with a zero-row block
    before, between and after them."""
    import ray.data

    empty = pa.table({"k": pa.array([], pa.int64())})
    blocks = [empty]
    for i in range(0, len(vals), block_rows):
        blocks += [pa.table({"k": pa.array(vals[i:i + block_rows],
                                           pa.int64())}), empty]
    return ray.data.from_arrow(blocks)


def _ties_across_cut() -> np.ndarray:
    """Ten keys seen 5 times, then twenty seen 3 times (negative keys
    included): a cut at 15 falls inside the count-3 tie."""
    heavy = np.arange(100, 110)
    tied = np.arange(-10, 10)
    vals = np.concatenate([np.repeat(heavy, 5), np.repeat(tied, 3)])
    return np.random.default_rng(0).permutation(vals).astype(np.int64)


@pytest.mark.parametrize("num_parts", [1, 2, 7])
def test_top_counts_matches_reference(ray_session, num_parts):
    from mhray.rayutil import top_counts

    rng = np.random.default_rng(num_parts)
    cases = [
        (_ties_across_cut(), 15),
        (rng.integers(-2**62, 2**62, 40).repeat(rng.integers(1, 4, 40)), 25),
        (rng.integers(0, 300, 3000), 40),
        (rng.integers(0, 30, 500), 1000),  # k above the key count
    ]
    for vals, k in cases:
        vals = vals.astype(np.int64)
        keys, counts, total = top_counts(_dataset(vals, 97), "k", k,
                                         num_parts)
        want_k, want_c, want_total = _reference(vals, k)
        assert keys.dtype == np.int64 and counts.dtype == np.int64
        np.testing.assert_array_equal(keys, want_k)
        np.testing.assert_array_equal(counts, want_c)
        assert total == want_total


def test_top_counts_breaks_ties_by_smaller_key(ray_session):
    from mhray.rayutil import top_counts

    keys, counts, total = top_counts(_dataset(_ties_across_cut(), 13),
                                     "k", 15, 3)
    assert keys.tolist() == list(range(-10, -5)) + list(range(100, 110))
    assert counts.tolist() == [3] * 5 + [5] * 10
    assert total == 110


def test_top_counts_all_empty(ray_session):
    from mhray.rayutil import top_counts

    for ds in (_dataset(np.empty(0, np.int64), 10),
               _dataset(np.arange(5, dtype=np.int64), 2)
               .filter(expr="k < 0")):
        keys, counts, total = top_counts(ds, "k", 4, 3)
        assert keys.dtype == np.int64 and counts.dtype == np.int64
        assert len(keys) == 0 and len(counts) == 0
        assert total == 0


def test_jaccard_df_cap_changes_no_pair(ray_session):
    """Tokens outside the df cap rank as df=1, ties by token: every
    doc still orders its tokens by one total order, so the capped join
    finds the same pairs."""
    import random

    import ray.data

    from mhray.stages.dedup import ngram_jaccard_pairs

    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(60)]
    rows = []
    for base in range(15):
        words = rng.sample(vocab, 12)
        rows.append({"doc_id": 2 * base, "text": " ".join(words)})
        words[rng.randrange(12)] = rng.choice(vocab)
        rows.append({"doc_id": 2 * base + 1, "text": " ".join(words)})
    ds = ray.data.from_items(rows)

    def pairs(**kw):
        out = ngram_jaccard_pairs(ds, tau=0.7, num_parts=4, **kw)
        return sorted(map(tuple, out.to_pandas()[["lo", "hi"]].to_numpy()))

    full = pairs()
    assert len(full) >= 10
    assert pairs(df_top_k=3) == full
