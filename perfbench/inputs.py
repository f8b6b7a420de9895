"""Seeded benchmark inputs. Pure functions of the seed: no Ray, no clock.

- ``flagship_corpus``: the ``mhray.synth`` image+caption corpus with
  SynthSpec defaults (40% of rows in dup clusters, 2% hot boilerplate
  caption).
- ``query_batch``: new records for ``incremental.find_matches`` against
  the flagship corpus used as the stored index. Half are fresh rows from
  another seed (disjoint vocabulary, so they match nothing); half are
  re-uploads of index rows under new ``image_id``s, which must match.
- ``edit_documents``: a documents table built the way the catalog's
  ``documents`` table is (see its docstring).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from mhray.oracle import image_iid
from mhray.synth import SynthSpec, generate_corpus

# id ranges of the query batch: far above any index ordinal
FRESH_ID_OFFSET = 10_000_000
REUPLOAD_ID_OFFSET = 20_000_000

# the vocabulary of the catalog's documents table, each word about as
# frequent as the others there
_DOC_WORDS = ("a the key agg row scan slow fast table value part hash "
              "merge batch line sort window spark order data column join "
              "small customer query big group filter stream vector").split()
DUP_DOC_SHARE = 0.05


def flagship_corpus(seed: int, rows: int) -> pa.Table:
    """The flagship images table (SynthSpec defaults, ``rows`` rows)."""
    images, _, _ = generate_corpus(SynthSpec(n_rows=rows, seed=seed))
    return images


def query_batch(seed: int, index: pa.Table, rows: int,
                min_caption_len: int) -> tuple[pa.Table, pa.Table]:
    """(query images, planted (query_iid, index_iid) pairs).

    Re-upload sources are index rows whose caption is long enough to get
    a valid sketch (``min_caption_len`` = the config's min_olap_length),
    so every planted pair is one ``find_matches`` must return."""
    rng = np.random.default_rng([seed, 1])
    n_re = rows // 2
    fresh, _, _ = generate_corpus(SynthSpec(
        n_rows=rows - n_re, seed=seed + 1_000_003,
        id_offset=FRESH_ID_OFFSET, cluster_offset=FRESH_ID_OFFSET))
    cap_len = np.array([len(c) for c in index.column("caption").to_pylist()])
    eligible = np.flatnonzero(cap_len >= min_caption_len)
    src = np.sort(rng.choice(eligible, size=n_re, replace=False))
    re_ids = [f"img_{REUPLOAD_ID_OFFSET + j:012d}" for j in range(n_re)]
    reup = index.take(pa.array(src)).set_column(
        0, "image_id", pa.array(re_ids, pa.string()))
    batch = pa.concat_tables([fresh, reup])
    batch = batch.take(pa.array(rng.permutation(batch.num_rows)))
    planted = pa.table({
        "lo": pa.array(image_iid(re_ids), pa.int64()),
        "hi": pa.array(image_iid(
            index.column("image_id").take(pa.array(src)).to_pylist()),
            pa.int64()),
    })
    return batch, planted


def edit_documents(seed: int, rows: int) -> pa.Table:
    """(doc_id, text) with the structure measured on the catalog's
    sf0.1 ``documents`` table: each text is 10-99 words drawn uniformly
    from the same 30-word vocabulary, and 5% of the docs are a copy of a
    random other doc with `` dup`` appended (4 edits away; two copies of
    one doc are 0 apart). The lengths are spread evenly over 10-99 in a
    seeded order, so every seed has the same total text: drawn
    independently, the total moved the edit join's time by several
    percent from seed to seed."""
    rng = np.random.default_rng([seed, 2])
    n_words = rng.permutation(np.linspace(10, 99, rows).round().astype(int))
    words = rng.integers(0, len(_DOC_WORDS), int(n_words.sum()))
    texts = [" ".join(_DOC_WORDS[j] for j in w)
             for w in np.split(words, np.cumsum(n_words)[:-1])]
    copies = rng.choice(rows, size=round(DUP_DOC_SHARE * rows),
                        replace=False)
    originals = np.setdiff1d(np.arange(rows), copies)
    for i, src in zip(copies, rng.choice(originals, size=len(copies))):
        texts[i] = texts[src] + " dup"
    return pa.table({"doc_id": pa.array(np.arange(rows), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def write_parquet_dir(table: pa.Table, path: str, n_files: int) -> str:
    """``table`` as ``n_files`` parquet shards under ``path``."""
    os.makedirs(path, exist_ok=True)
    shard = max(1, -(-table.num_rows // n_files))
    for s, start in enumerate(range(0, table.num_rows, shard)):
        pq.write_table(table.slice(start, shard),
                       os.path.join(path, f"part-{s:05d}.parquet"))
    return path
