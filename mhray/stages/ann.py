"""Similarity search over an embedding column (list<float>).

- knn_brute: exact cosine top-k — the query matrix is broadcast ONCE via
  ``ray.put`` and every batch computes a float64 matmul against it
  (per-batch partial top-k = combiner; final rank per query after a
  small groupby). This is the correctness baseline.
- lsh_knn: random-hyperplane signed LSH (the CosineDistanceSketch
  family, sketch/CosineDistanceSketch.java:40-66 +
  HashUtils.randomGuassianVector :260-305) — bucket candidates then
  exact rescoring, the scale path when a broadcast query matrix or
  full matmul is too large.
- embedding_dup_pairs: near-duplicate pairs by cosine >= tau via the
  same LSH bucketing (self-join form).
"""

from __future__ import annotations

import warnings

import numpy as np
import pyarrow as pa

import ray
import ray.data


def _embedding_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col).combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0)
    flat = np.asarray(arr.flatten(), dtype=np.float64)
    dim = len(flat) // len(arr)
    return flat.reshape(len(arr), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def _select_ids(ds, ids, id_col: str):
    """Broadcast id-set semi-join: keep rows whose ``id_col`` is in
    ``ids``. The id set ships to the object store ONCE (``ray.put``)
    and every batch masks with a sorted ``np.isin`` — unlike a
    ``filter(expr="id in [...]")`` string, which breaks on expression
    size once the caller passes thousands of ids."""
    import ray

    wanted = np.unique(np.asarray(list(ids), dtype=np.int64))
    ref = ray.put(wanted)

    def keep(batch: pa.Table) -> pa.Table:
        w = ray.get(ref)
        col = np.asarray(batch.column(id_col), dtype=np.int64)
        return batch.filter(pa.array(np.isin(col, w)))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def knn_brute(ds, query_ids: list[int], k: int = 5,
              id_col: str = "vec_id", emb_col: str = "embedding"):
    """Exact top-k cosine neighbors for the given query ids.

    Returns (query_id, neighbor_id, rank) with rank 1..k by descending
    cosine similarity (self excluded); ties broken by neighbor id.
    """
    q_rows = _select_ids(ds, query_ids, id_col).take_all()
    if not q_rows:  # absent query ids -> empty result, not an AxisError
        return ray.data.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64())}))
    qid = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    qm = _normalize(np.array([r[emb_col] for r in q_rows], dtype=np.float64))
    order = np.argsort(qid)
    qid, qm = qid[order], qm[order]
    q_ref = ray.put((qid, qm))

    def partial_topk(batch: pa.Table) -> pa.Table:
        qids, qmat = ray.get(q_ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        m = _normalize(_embedding_matrix(batch, emb_col))
        sims = qmat @ m.T  # (Q, B)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            s = sims[qi]
            mask = ids != qids[qi]
            cand_idx = np.flatnonzero(mask)
            if len(cand_idx) == 0:
                continue
            take = min(k, len(cand_idx))
            top = cand_idx[np.argpartition(-s[cand_idx], take - 1)[:take]]
            out_q.append(np.full(take, qids[qi]))
            out_n.append(ids[top])
            out_s.append(s[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = ds.map_batches(partial_topk, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partials.groupby("query_id").map_groups(_make_final_topk(k),
                                                   batch_format="pyarrow")


def _make_final_topk(k: int):
    """Per-query rank reducer shared by knn_brute and ivf_knn: order
    partial candidates by (-sim, neighbor_id), emit rank 1..k."""

    def final_topk(group: pa.Table) -> pa.Table:
        sims = np.asarray(group.column("sim"))
        nbr = np.asarray(group.column("neighbor_id"))
        order = np.lexsort((nbr, -sims))[:k]
        return pa.table({
            "query_id": group.column("query_id").take(order),
            "neighbor_id": pa.array(nbr[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        })

    return final_topk


def _pack_rows(m: np.ndarray) -> pa.Array:
    """(N, D) float64 matrix -> fixed_size_binary(D*8) column (one
    zero-copy buffer; joins/groupbys accept it where list<float> is
    rejected)."""
    m = np.ascontiguousarray(m, dtype="<f8")
    width = m.shape[1] * 8
    buf = pa.py_buffer(m.tobytes())
    return pa.Array.from_buffers(pa.binary(width), m.shape[0], [None, buf])


def _unpack_rows(col, dim: int) -> np.ndarray:
    """fixed_size_binary column -> (N, D) float64 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    buf = col.buffers()[1]
    flat = np.frombuffer(buf, dtype="<f8")
    off = col.offset
    return flat[off * dim:(off + len(col)) * dim].reshape(len(col), dim)


def _coarse_centroids(ds, n_cells: int, lloyd_iters: int, seed: int,
                      id_col: str, emb_col: str) -> np.ndarray | None:
    """Cosine-normalized coarse centroids from the deterministic
    hash-bottom sample + a few Lloyd iterations — the shared IVF
    trainer (ivf_knn's probing and knn_graph_ivf's partitioning use
    the identical cells). None on an empty corpus."""
    sm = _hash_bottom_sample(ds, max(512, n_cells * 16), seed,
                             id_col, emb_col)
    if len(sm) == 0:
        return None
    sm = _normalize(sm)
    rng = np.random.default_rng(seed)
    # corpora smaller than the cell count get one cell per sample row
    cent = sm[rng.choice(len(sm), size=min(n_cells, len(sm)),
                         replace=False)]
    for _ in range(lloyd_iters):
        assign = np.argmax(sm @ cent.T, axis=1)
        for c in range(len(cent)):
            members = sm[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def _hash_bottom_sample(ds, n_sample: int, seed: int, id_col: str,
                        emb_col: str) -> np.ndarray:
    """Deterministic UNIFORM sample of up to n_sample vectors: bottom-n
    rows by a 64-bit mix of the id — order-independent, so sorted or
    clustered input cannot bias the sample (``limit()`` would take the
    first blocks). Per-batch partial bottom-n keeps the candidate set
    small before the tiny global sort. Shared by the IVF coarse
    quantizer and k-means init."""

    seed_mix = np.uint64((seed * 0x9E3779B97F4A7C15)
                         & 0xFFFFFFFFFFFFFFFF)  # wrapped once, silently

    def partial_sample(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        x = ids.view(np.uint64) ^ seed_mix
        x ^= x >> np.uint64(33)
        x *= np.uint64(0xFF51AFD7ED558CCD)
        x ^= x >> np.uint64(33)
        h = x.view(np.int64)
        take = min(n_sample, len(ids))
        idx = np.argpartition(h, take - 1)[:take] if take < len(ids) \
            else np.arange(len(ids))
        return pa.table({
            "h": pa.array(h[idx], pa.int64()),
            "vec": _pack_rows(_embedding_matrix(batch, emb_col)[idx]),
        })

    cand = ds.map_batches(partial_sample, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .sort("h").limit(n_sample).materialize()
    if cand.count() == 0:
        return np.empty((0, 0))  # empty corpus -> empty sample
    sample_tbl = cand.take_batch(n_sample, batch_format="pyarrow")
    dim = sample_tbl.column("vec").type.byte_width // 8
    return _unpack_rows(sample_tbl.column("vec"), dim)


def kmeans(ds, n_clusters: int = 8, iters: int = 5, seed: int = 13,
           id_col: str = "vec_id", emb_col: str = "embedding"):
    """Distributed Lloyd's k-means (Euclidean) over the FULL corpus.

    Each iteration streams every vector once: a ``map_batches`` pass
    assigns rows to the broadcast centroids and emits per-batch
    ``(cluster, partial_sum, count)`` rows, which reduce to the new
    centroids driver-side — the driver only ever holds
    ``n_clusters x dim`` floats, never the corpus. Init is the same
    deterministic hash-bottom uniform sample the IVF coarse quantizer
    uses (order-independent, unbiased on sorted input).

    Returns ``(centroids ndarray, assignments Dataset(id, cluster))``;
    assignment ties break toward the lower cluster index (np.argmin).
    """
    sm = _hash_bottom_sample(ds, max(n_clusters * 16, 256), seed,
                             id_col, emb_col)
    rng = np.random.default_rng(seed)
    cent = sm[rng.choice(len(sm), size=min(n_clusters, len(sm)),
                         replace=False)].copy()

    def make_partials(cent_ref):
        def partials(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            m = _embedding_matrix(batch, emb_col)
            # argmin ||x-c||^2 = argmax (x.c - |c|^2/2); ties -> low idx
            d = m @ c.T - 0.5 * (c * c).sum(axis=1)
            assign = np.argmax(d, axis=1)
            sums = np.zeros((len(c), m.shape[1]))
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=len(c))
            used = np.flatnonzero(counts)
            return pa.table({
                "cluster": pa.array(used, pa.int64()),
                "vsum": _pack_rows(sums[used]),
                "cnt": pa.array(counts[used], pa.int64()),
            })
        return partials

    for _ in range(iters):
        cent_ref = ray.put(cent)
        parts = ds.map_batches(make_partials(cent_ref),
                               batch_format="pyarrow",
                               zero_copy_batch=True).take_all()
        sums = np.zeros_like(cent)
        counts = np.zeros(len(cent), np.int64)
        for r in parts:
            ci = int(r["cluster"])
            sums[ci] += np.frombuffer(r["vsum"], dtype="<f8")
            counts[ci] += int(r["cnt"])
        has = counts > 0
        cent[has] = sums[has] / counts[has, None]

    cent_ref = ray.put(cent)

    def assign_rows(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _embedding_matrix(batch, emb_col)
        d = m @ c.T - 0.5 * (c * c).sum(axis=1)
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            "cluster": pa.array(np.argmax(d, axis=1), pa.int64()),
        })

    assignments = ds.map_batches(assign_rows, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return cent, assignments


def _list_column(m: np.ndarray) -> pa.ListArray:
    """(N, D) matrix -> list<double> column (one flat buffer, no
    per-row Python)."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    n, d = m.shape
    offs = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(offs, pa.array(m.ravel()))


def _greedy_leader_keep(m: np.ndarray, tau: float,
                        chunk: int = 512) -> np.ndarray:
    """Sequential greedy leader pass over normalized rows IN ORDER:
    row i is kept iff cos(i, j) < tau for every kept j < i.

    Chunked vectorization of the inherently sequential scan: each chunk
    first matmuls against ALL previously-kept rows (one BLAS call kills
    most rows in dense-duplicate regions), then the surviving rows run
    the in-chunk sequential check on the chunk's own (C x C) sim matrix
    — Python iterates only over per-chunk survivors, never all rows.
    """
    g = len(m)
    keep = np.zeros(g, dtype=bool)
    kept_rows: list[np.ndarray] = []
    n_kept = 0
    for s in range(0, g, chunk):
        c = m[s:s + chunk]
        alive = np.ones(len(c), dtype=bool)
        if n_kept:
            prev = np.concatenate(kept_rows) if len(kept_rows) > 1 \
                else kept_rows[0]
            kept_rows = [prev]
            alive = ~((c @ prev.T) >= tau).any(axis=1)
        if alive.any():
            sims = c @ c.T
            idx = np.flatnonzero(alive)
            local = np.zeros(len(c), dtype=bool)
            for i in idx:
                if not (sims[i, :i][local[:i]] >= tau).any():
                    local[i] = True
            keep[s + np.flatnonzero(local)] = True
            new = c[local]
            if len(new):
                kept_rows.append(new)
                n_kept += len(new)
    return keep


def semdedup(ds, n_clusters: int = 16, tau: float = 0.95, iters: int = 3,
             seed: int = 13, id_col: str = "vec_id",
             emb_col: str = "embedding", group_cap: int = 20000,
             num_parts: int | None = None):
    """Semantic dedup over an embedding column (the SemDeDup shape,
    Abbas et al. 2023, arXiv:2303.09540): k-means clusters partition
    the space, then WITHIN each cluster a greedy leader pass prunes
    near-duplicates — members are visited in (centroid-similarity
    ascending, id) order (the paper keeps the LOW-centroid-similarity
    exemplar of each duplicate group) and a member is kept iff its
    cosine to every already-kept member is < tau.

    Distributed shape: centroids come from the shared full-corpus
    Lloyd's k-means (driver holds k x dim floats, never vectors); one
    map pass assigns clusters and packs the normalized vector as a
    fixed-width blob; ONE cluster-keyed partition co-locates each
    cluster and pruning runs there as a per-cluster matmul. Groups over
    ``group_cap`` keep their overflow members unconditionally (keep=
    true) and log the count — dedup must never silently DROP rows.

    Returns a Dataset of (id_col, cluster, keep) covering every input
    row. Recall is bounded by the cluster partition (cross-cluster
    near-dups survive), exactly as published.
    """
    from mhray.rayutil import exchange, parts_for

    def norm_rows(batch: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(batch, emb_col))
        return pa.table({
            id_col: batch.column(id_col).cast(pa.int64()),
            emb_col: _list_column(m),
        })

    nds = ds.map_batches(norm_rows, batch_format="pyarrow",
                         zero_copy_batch=True)
    cent, _ = kmeans(nds, n_clusters=n_clusters, iters=iters, seed=seed,
                     id_col=id_col, emb_col=emb_col)
    cnorm = _normalize(cent)
    cent_ref = ray.put((cent, cnorm))

    def assign_pack(batch: pa.Table) -> pa.Table:
        c, cn = ray.get(cent_ref)
        m = _embedding_matrix(batch, emb_col)  # already normalized
        d = m @ c.T - 0.5 * (c * c).sum(axis=1)
        cl = np.argmax(d, axis=1)
        csim = (m * cn[cl]).sum(axis=1)
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(cl, pa.int64()),
            "csim": pa.array(csim, pa.float64()),
            "vec": _pack_rows(m),
        })

    def prune(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "keep": pa.array([], pa.bool_())})
        ids = np.asarray(group.column(id_col), dtype=np.int64)
        cl = np.asarray(group.column("cluster"), dtype=np.int64)
        csim = np.asarray(group.column("csim"), dtype=np.float64)
        dim = group.column("vec").type.byte_width // 8
        vecs = _unpack_rows(group.column("vec"), dim)
        order = np.lexsort((ids, csim, cl))
        ids, cl, vecs = ids[order], cl[order], vecs[order]
        keep = np.ones(len(ids), dtype=bool)
        starts = np.flatnonzero(np.diff(cl, prepend=cl[0] - 1))
        sizes = np.diff(np.append(starts, len(cl)))
        overflow = 0
        for gi in range(len(starts)):
            s, g = int(starts[gi]), int(sizes[gi])
            if g < 2:
                continue
            if g > group_cap:
                overflow += g - group_cap
                g = group_cap
            keep[s:s + g] = _greedy_leader_keep(vecs[s:s + g], tau)
        if overflow:
            print(f"[mhray] semdedup cluster cap: kept {overflow} overflow "
                  "members unpruned in one partition")
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cluster": pa.array(cl, pa.int64()),
            "keep": pa.array(keep),
        })

    num_parts = min(n_clusters, parts_for(ds, num_parts))
    return exchange(nds.map_batches(assign_pack, batch_format="pyarrow",
                                    zero_copy_batch=True),
                    "cluster", num_parts, prune)


def _hyperplanes(dim: int, n_bits: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_bits, dim))
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def ivf_knn(ds, query_ids: list[int], k: int = 5, n_cells: int = 16,
            nprobe: int = 4, lloyd_iters: int = 2, seed: int = 13,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """IVF (inverted-file) approximate top-k: coarse centroids from a
    seeded sample (a few Lloyd iterations), vectors assigned to their
    nearest cell, queries probe the ``nprobe`` nearest cells only.
    The scale path when neither the corpus nor a cell fits one node:
    cells are the partition key; only probed cells move.
    """
    import ray

    # coarse centroids from the shared deterministic hash-bottom
    # uniform sample (also the k-means init), cosine-normalized
    _EMPTY = pa.table({"query_id": pa.array([], pa.int64()),
                       "neighbor_id": pa.array([], pa.int64()),
                       "rank": pa.array([], pa.int64())})
    cent = _coarse_centroids(ds, n_cells, lloyd_iters, seed,
                             id_col, emb_col)
    if cent is None:  # empty corpus -> empty result, not a crash
        return ray.data.from_arrow(_EMPTY)
    n_cells = len(cent)
    cent_ref = ray.put(cent)

    q_rows = _select_ids(ds, query_ids, id_col).take_all()
    if not q_rows:  # absent query ids -> empty result
        return ray.data.from_arrow(_EMPTY)
    qid = np.array([r[id_col] for r in q_rows], dtype=np.int64)
    qm = _normalize(np.array([r[emb_col] for r in q_rows], dtype=np.float64))
    q_cells = np.argsort(-(qm @ cent.T), axis=1)[:, :nprobe]  # (Q, nprobe)
    q_ref = ray.put((qid, qm, q_cells))

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        qids, qmat, qcells = ray.get(q_ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        m = _normalize(_embedding_matrix(batch, emb_col))
        cell = np.argmax(m @ c.T, axis=1)
        sims = qmat @ m.T
        out_q, out_n, out_s = [], [], []
        for qi in range(len(qids)):
            probe = np.isin(cell, qcells[qi]) & (ids != qids[qi])
            cand = np.flatnonzero(probe)
            if len(cand) == 0:
                continue
            take = min(k, len(cand))
            s = sims[qi]
            top = cand[np.argpartition(-s[cand], take - 1)[:take]]
            out_q.append(np.full(take, qids[qi]))
            out_n.append(ids[top])
            out_s.append(s[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "neighbor_id": pa.array(np.concatenate(out_n), pa.int64()),
            "sim": pa.array(np.concatenate(out_s), pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partials.groupby("query_id").map_groups(_make_final_topk(k),
                                                   batch_format="pyarrow")


def embedding_dup_pairs(ds, tau: float = 0.99, n_bits: int = 10,
                        n_tables: int = 4,
                        id_col: str = "vec_id", emb_col: str = "embedding",
                        num_parts: int | None = None,
                        group_cap: int = 5000):
    """(lo, hi) pairs with cosine >= tau; candidates = same bucket in
    ANY of ``n_tables`` independent sign-LSH tables (multi-table
    probing: per-table hit prob p = (1 - theta/pi)^n_bits, union
    recall 1-(1-p)^L). Probabilistic recall by design — the scale path
    for the exact broadcast variant.

    Exact rescoring happens IN-BUCKET: the normalized float64 vector
    rides the band shuffle as a fixed_size_binary blob, so both members
    of every candidate pair are already co-located in the bucket
    partition and the cosine is computed there — the corpus is never
    materialized on the driver and no second vector shuffle is needed.
    Pairs found in several tables are deduplicated by a pair-keyed
    hash partition. Groups over ``group_cap`` keep the cap smallest
    ids (deterministic) and log the drop.
    """
    from mhray.kernels import pair_run_starts
    from mhray.rayutil import exchange, parts_for
    from mhray.stages.candidates import _pair_part, _part_of

    num_parts = parts_for(ds, num_parts)

    def to_parts(batch: pa.Table) -> pa.Table:
        m = _normalize(_embedding_matrix(batch, emb_col))
        iid = np.asarray(batch.column(id_col), dtype=np.int64)
        keys = []
        for t in range(n_tables):
            planes = _hyperplanes(m.shape[1], n_bits, seed=7 + 101 * t)
            signs = (m @ planes.T) > 0
            b = np.zeros(len(m), dtype=np.int64)
            for j in range(n_bits):
                b |= signs[:, j].astype(np.int64) << j
            keys.append(b | (np.int64(t) << 48))  # table id in high bits
        key = np.concatenate(keys)
        return pa.table({
            "part": pa.array(_part_of(key, num_parts), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "iid": pa.array(np.tile(iid, n_tables), pa.int64()),
            "vec": pa.chunked_array([_pack_rows(m)] * n_tables),
        })

    empty = pa.table({"lo": pa.array([], pa.int64()),
                      "hi": pa.array([], pa.int64()),
                      "pair_part": pa.array([], pa.int32())})

    def rescore_buckets(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty
        keys = np.asarray(part.column("key"), dtype=np.int64)
        iids = np.asarray(part.column("iid"), dtype=np.int64)
        dim = part.column("vec").type.byte_width // 8
        vecs = _unpack_rows(part.column("vec"), dim)
        order = np.lexsort((iids, keys))
        k, v, m = keys[order], iids[order], vecs[order]
        starts = np.flatnonzero(np.diff(k, prepend=k[0] - 1))
        sizes = np.diff(np.append(starts, len(k)))
        lo_parts, hi_parts = [], []
        dropped = 0
        for gi in np.flatnonzero(sizes >= 2):
            s, g = int(starts[gi]), int(sizes[gi])
            if g > group_cap:
                dropped += g - group_cap
                g = group_cap
            ids = v[s:s + g]
            sims = m[s:s + g] @ m[s:s + g].T
            iu, ju = np.triu_indices(g, 1)
            keep = sims[iu, ju] >= tau
            if keep.any():
                lo_parts.append(ids[iu[keep]])
                hi_parts.append(ids[ju[keep]])
        if dropped:
            print(f"[mhray] embedding bucket cap: dropped {dropped} ids in one partition")
        if not lo_parts:
            return empty
        lo = np.concatenate(lo_parts)
        hi = np.concatenate(hi_parts)
        return pa.table({
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(hi, pa.int64()),
            "pair_part": pa.array(_pair_part(lo, hi, num_parts), pa.int32()),
        })

    def dedupe(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty.select(["lo", "hi"])
        lo = np.asarray(part.column("lo"), dtype=np.int64)
        hi = np.asarray(part.column("hi"), dtype=np.int64)
        order = np.lexsort((hi, lo))
        lo_s, hi_s = lo[order], hi[order]
        first = pair_run_starts(lo_s, hi_s)
        return pa.table({
            "lo": pa.array(lo_s[first], pa.int64()),
            "hi": pa.array(hi_s[first], pa.int64()),
        })

    buckets = exchange(ds.map_batches(to_parts, batch_format="pyarrow",
                                      zero_copy_batch=True),
                       "part", num_parts, rescore_buckets)
    return exchange(buckets, "pair_part", num_parts, dedupe)


def pca_project(ds, out_dim: int, id_col: str = "vec_id",
                emb_col: str = "embedding", center: bool = True):
    """Distributed PCA projection (embedding compression/whitening
    front-end): ONE streaming pass emits per-batch moment partials —
    (count, sum, X^T X), i.e. d + d^2 floats per batch regardless of
    batch rows — the driver eigendecomposes the d x d covariance
    (d = embedding dim, corpus-size-independent), and a broadcast
    projection matrix maps every vector in a second streaming pass.
    Component signs are fixed (largest-|coefficient| entry positive)
    so the output is deterministic across block layouts. Returns
    (id_col, emb_col) with out_dim-length vectors.
    """
    import ray

    def moments(batch: pa.Table) -> pa.Table:
        m = _embedding_matrix(batch, emb_col).astype(np.float64)
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "s": pa.array([m.sum(axis=0).tobytes()], pa.binary()),
            "ss": pa.array([(m.T @ m).tobytes()], pa.binary()),
        })

    # large batch_size: each partial costs d^2 + d floats on the driver
    # regardless of rows, so fewer/bigger batches keep the take_all
    # bounded (64k rows/partial -> a 1B-row corpus is ~15k partials)
    parts = ds.map_batches(moments, batch_format="pyarrow",
                           zero_copy_batch=True,
                           batch_size=65536).take_all()
    n = sum(p["n"] for p in parts)
    if n == 0:
        raise ValueError("pca_project: empty input")
    d = len(np.frombuffer(parts[0]["s"], np.float64))
    s = np.zeros(d)
    ss = np.zeros((d, d))
    for p in parts:
        s += np.frombuffer(p["s"], np.float64)
        ss += np.frombuffer(p["ss"], np.float64).reshape(d, d)
    mu = s / n if center else np.zeros(d)
    cov = (ss - n * np.outer(mu, mu)) / max(1, n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:out_dim]
    w = evecs[:, order]  # (d, out_dim)
    flip = np.sign(w[np.argmax(np.abs(w), axis=0), np.arange(w.shape[1])])
    flip[flip == 0] = 1.0
    w = w * flip
    w_ref = ray.put((mu, w))

    def project(batch: pa.Table) -> pa.Table:
        mu_, w_ = ray.get(w_ref)
        m = _embedding_matrix(batch, emb_col).astype(np.float64)
        proj = (m - mu_) @ w_
        flat = pa.array(proj.astype(np.float32).ravel(), pa.float32())
        offs = pa.array(np.arange(len(proj) + 1, dtype=np.int32)
                        * w_.shape[1], pa.int32())
        return pa.table({
            id_col: batch.column(id_col),
            emb_col: pa.ListArray.from_arrays(offs, flat),
        })

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


def knn_graph(ds, k: int = 5, id_col: str = "vec_id",
              emb_col: str = "embedding", corpus_cap: int = 2_000_000,
              exact: bool = False):
    """Exact cosine kNN GRAPH: top-k neighbors for EVERY row — the
    building block of graph-based dedup/cluster methods. Each streamed
    batch matmuls against the broadcast normalized corpus (one
    ``ray.put``), so compute is O(n²/p) per worker but nothing beyond
    the (n × d) matrix is ever resident; ties break (−sim,
    neighbor_id). The broadcast is guarded at ``corpus_cap`` rows —
    past it, build the graph per IVF cell (``ivf_knn``'s partition
    shape) instead of the exact baseline.

    Returns (query_id, neighbor_id, rank, sim_sc) with sim scaled to
    integer 1e-4 (engine-independent reporting; ranks use the full
    float)."""
    side = ds.select_columns([id_col, emb_col]).materialize()
    n = side.count()  # one execution: guard, corpus fetch and the
    # final map below all consume the materialized selection
    if n > corpus_cap:
        # the exact broadcast baseline stops paying past the cap:
        # route to the IVF-cell graph (same output schema, neighbors
        # found within a row's coarse cell — recall bound in pytest).
        # SEMANTICS CHANGE past the cap: results become APPROXIMATE,
        # so the exact SQL oracles (e_knn_graph, e_knn_label_vote)
        # only hold below corpus_cap; pass exact=True to raise instead
        # of silently diverging from them.
        if exact:
            raise ValueError(
                f"knn_graph(exact=True): {n} rows > corpus_cap "
                f"{corpus_cap} — exact broadcast graph refused; raise "
                "corpus_cap or accept the approximate IVF-cell graph")
        warnings.warn(
            f"knn_graph: {n} rows > {corpus_cap} cap — building the "
            "APPROXIMATE per-IVF-cell graph instead of the exact "
            "broadcast baseline (neighbors restricted to coarse "
            "cells; exact SQL oracles no longer apply)",
            RuntimeWarning, stacklevel=2)
        # size cells so each holds many x k rows (a singleton cell has
        # no neighbors to offer); n is already known here
        n_cells = int(max(1, min(64, n // (8 * max(k, 1)))))
        return knn_graph_ivf(side, k=k, n_cells=n_cells,
                             id_col=id_col, emb_col=emb_col)
    if n == 0:
        return ray.data.from_arrow(_GRAPH_EMPTY)
    tbl = pa.concat_tables([ray.get(r) for r in side.to_arrow_refs()],
                           promote_options="default")
    ids_all = np.asarray(tbl.column(id_col), dtype=np.int64)
    m_all = _normalize(_embedding_matrix(tbl, emb_col))
    order = np.argsort(ids_all)
    ref = ray.put((ids_all[order], np.ascontiguousarray(m_all[order])))

    def topk(batch: pa.Table) -> pa.Table:
        corpus_ids, corpus = ray.get(ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        m = _normalize(_embedding_matrix(batch, emb_col))
        sims = m @ corpus.T                       # (B, N)
        self_pos = np.searchsorted(corpus_ids, ids)
        rows = np.arange(len(ids))
        hit = corpus_ids[np.minimum(self_pos, len(corpus_ids) - 1)] == ids
        sims[rows[hit], self_pos[hit]] = -np.inf  # exclude self
        take = min(k, sims.shape[1] - 1)
        if take <= 0:
            return _GRAPH_EMPTY
        return _graph_topk(sims, ids, corpus_ids, take)

    return side.map_batches(topk, batch_format="pyarrow",
                            zero_copy_batch=True)


def _graph_topk(sims: np.ndarray, q_ids: np.ndarray,
                corpus_ids: np.ndarray, take: int) -> pa.Table:
    """Deterministic per-row top-``take`` from a (Q, N) sim matrix
    (self-sims already -inf): select every candidate >= the take-th
    largest sim (exact boundary ties are ALL kept, not an arbitrary
    argpartition subset), then ONE flat lexsort orders candidates by
    (row, -sim, neighbor_id) and a within-row rank keeps the first
    ``take`` — stable under duplicate vectors, no per-row Python."""
    kth = np.partition(sims, sims.shape[1] - take, axis=1)[
        :, sims.shape[1] - take]
    row_idx, c_flat = np.nonzero(sims >= kth[:, None])
    s_flat = sims[row_idx, c_flat]
    n_flat = corpus_ids[c_flat]
    order = np.lexsort((n_flat, -s_flat, row_idx))
    r_sorted = row_idx[order]
    starts = np.flatnonzero(np.diff(r_sorted, prepend=r_sorted[0] - 1))
    sizes = np.diff(np.append(starts, len(r_sorted)))
    rank = (np.arange(len(r_sorted), dtype=np.int64)
            - np.repeat(starts, sizes) + 1)
    keep = rank <= take
    order = order[keep]
    rank = rank[keep]
    sim = s_flat[order]
    sim_sc = (np.sign(sim) * np.floor(np.abs(sim) * 10000 + 0.5)) \
        .astype(np.int64)
    return pa.table({
        "query_id": pa.array(q_ids[row_idx[order]], pa.int64()),
        "neighbor_id": pa.array(n_flat[order], pa.int64()),
        "rank": pa.array(rank, pa.int64()),
        "sim_sc": pa.array(sim_sc, pa.int64()),
    })


_GRAPH_EMPTY = pa.table({
    "query_id": pa.array([], pa.int64()),
    "neighbor_id": pa.array([], pa.int64()),
    "rank": pa.array([], pa.int64()),
    "sim_sc": pa.array([], pa.int64())})


def knn_graph_ivf(ds, k: int = 5, n_cells: int = 64,
                  lloyd_iters: int = 2, seed: int = 13,
                  id_col: str = "vec_id", emb_col: str = "embedding",
                  cell_cap: int = 200_000, chunk_rows: int = 2048):
    """Approximate cosine kNN graph at corpus scale: vectors are
    assigned to their nearest coarse IVF cell (the banding-probe
    analog of sketch/BitVectorIndex.java:129-162 — search only within
    the matching bucket), ONE groupby co-locates each cell, and the
    exact graph is built inside the cell with chunked matmuls (peak
    scratch = chunk_rows x cell rows, never cell^2).

    Partitioning assumptions, explicit: (1) neighbors are only found
    within a row's own cell — recall vs the exact graph depends on the
    corpus clustering (pytest bounds it on blob data); (2) a skewed
    cell larger than ``cell_cap`` is deterministically sub-split by
    id order and the graph is built per sub-split (bounded memory,
    further recall loss ONLY inside oversized cells — logged)."""
    import ray

    cent = _coarse_centroids(ds, n_cells, lloyd_iters, seed,
                             id_col, emb_col)
    if cent is None:
        return ray.data.from_arrow(_GRAPH_EMPTY)
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        m = _normalize(_embedding_matrix(batch, emb_col))
        cell = np.argmax(m @ c.T, axis=1).astype(np.int32)
        return pa.table({
            "cell": pa.array(cell, pa.int32()),
            "iid": pa.array(ids, pa.int64()),
            "vec": _pack_rows(m),
        })

    def graph_cell(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return _GRAPH_EMPTY
        ids = np.asarray(part.column("iid"), dtype=np.int64)
        dim = part.column("vec").type.byte_width // 8
        vecs = _unpack_rows(part.column("vec"), dim)
        order = np.argsort(ids)
        ids, vecs = ids[order], np.ascontiguousarray(vecs[order])
        if len(ids) > cell_cap:
            print(f"[mhray] knn_graph_ivf: cell of {len(ids)} rows "
                  f"sub-split at {cell_cap} (recall loss inside cell)")
        outs = []
        for s0 in range(0, len(ids), cell_cap):
            sub_ids = ids[s0:s0 + cell_cap]
            sub = vecs[s0:s0 + cell_cap]
            take = min(k, len(sub_ids) - 1)
            if take <= 0:
                continue
            for c0 in range(0, len(sub_ids), chunk_rows):
                q = sub[c0:c0 + chunk_rows]
                sims = q @ sub.T
                rows = np.arange(len(q))
                sims[rows, c0 + rows] = -np.inf  # exclude self
                outs.append(_graph_topk(sims, sub_ids[c0:c0 + chunk_rows],
                                        sub_ids, take))
        if not outs:
            return _GRAPH_EMPTY
        return pa.concat_tables(outs)

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True) \
        .groupby("cell").map_groups(graph_cell, batch_format="pyarrow")


def label_centroid_dist(ds, id_col: str = "vec_id",
                        emb_col: str = "embedding",
                        label_col: str = "label"):
    """(vec_id, label, cos_sc): cosine of every embedding to its own
    LABEL's centroid, scaled x10000 half-away-from-zero — the
    per-class outlier / mislabeled-sample score (low cosine to your
    class centroid = candidate labeling error or boundary sample, the
    classic cleanlab-style signal).

    Scale shape: per-block partial (label, sum-vector, count) rows —
    n_labels x n_blocks, corpus-size-independent like the kmeans
    partials — combined on the driver and broadcast once; the scoring
    pass streams. Zero-norm vectors (or an all-zero centroid) score 0
    instead of NaN.
    """
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        m = _embedding_matrix(batch, emb_col)
        labels = np.asarray(batch.column(label_col)).astype(np.int64)
        ulab, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(ulab), m.shape[1]), np.float64)
        np.add.at(sums, inv, m)
        return pa.table({
            "label": pa.array(ulab, pa.int64()),
            "vsum": pa.array([s.tobytes() for s in sums], pa.binary()),
            "cnt": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
        })

    # n_labels x n_blocks partial rows combine on the driver — the
    # pca_project take_all idiom (no pandas conversion)
    cents: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for row in ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True).take_all():
        lab = int(row["label"])
        v = np.frombuffer(row["vsum"], np.float64)
        cents[lab] = cents.get(lab, 0) + v
        counts[lab] = counts.get(lab, 0) + int(row["cnt"])
    for lab in cents:
        cents[lab] = cents[lab] / counts[lab]
    ref = ray.put(cents)

    def score(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _embedding_matrix(batch, emb_col)
        labels = np.asarray(batch.column(label_col)).astype(np.int64)
        cos = np.zeros(len(labels), np.float64)
        for lab in np.unique(labels):
            sel = labels == lab
            cv = c[int(lab)]
            denom = np.linalg.norm(m[sel], axis=1) * np.linalg.norm(cv)
            with np.errstate(invalid="ignore", divide="ignore"):
                v = (m[sel] @ cv) / denom
            cos[sel] = np.where(np.isfinite(v), v, 0.0)
        sc = (np.sign(cos) * np.floor(np.abs(cos) * 10000 + 0.5)) \
            .astype(np.int64)
        return pa.table({
            id_col: batch.column(id_col),
            "label": pa.array(labels, pa.int64()),
            "cos_sc": pa.array(sc, pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def knn_label_agreement(ds, k: int = 5, id_col: str = "vec_id",
                        emb_col: str = "embedding",
                        label_col: str = "label",
                        num_parts: int | None = None,
                        exact: bool = False):
    """(vec_id, label, voted_label, votes, agree): majority label among
    the k nearest cosine neighbors (knn_graph's exact ranks), ties to
    the smallest label — the confident-learning-style label-error
    signal (agree=0 rows are review candidates). Composes the kNN
    graph (broadcast-exact below the cap, IVF-cell above) with one
    narrow label attach and a partition-local vectorized vote —
    the ev_user_mode shuffle shape.
    """
    from mhray.rayutil import grouped_mode, parts_for, prepared_attacher

    g = knn_graph(ds, k=k, id_col=id_col, emb_col=emb_col, exact=exact)
    labels_side = ds.select_columns([id_col, label_col]).map_batches(
        lambda b: pa.table({
            id_col: b.column(id_col).cast(pa.int64()),
            "label": b.column(label_col).cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    num_parts = parts_for(labels_side, num_parts)

    # the labels side feeds TWO different pair tables (neighbor labels
    # before the vote, own labels after): prepared_attacher shares one
    # broadcast copy across both (shuffle fallback above the caps)
    attach = prepared_attacher(
        labels_side, id_col, ("label",), num_parts=num_parts,
        side_schema=pa.schema([(id_col, pa.int64()),
                               ("label", pa.int64())]))

    def _sch(names):
        return pa.schema([(n, pa.int64()) for n in names])

    g = attach(g, "neighbor_id", "nb",
               _sch(["query_id", "neighbor_id", "rank", "sim_sc"]))
    voted = grouped_mode(g, "query_id", "label_nb", num_parts,
                         "query_id", "voted_label", "votes")
    out = attach(voted, "query_id", "own",
                 _sch(["query_id", "voted_label", "votes"]))

    def finish(batch: pa.Table) -> pa.Table:
        own = np.asarray(batch.column("label_own"), dtype=np.int64)
        vl = np.asarray(batch.column("voted_label"), dtype=np.int64)
        return pa.table({
            id_col: batch.column("query_id"),
            "label": pa.array(own, pa.int64()),
            "voted_label": pa.array(vl, pa.int64()),
            "votes": batch.column("votes"),
            "agree": pa.array((own == vl).astype(np.int64), pa.int64()),
        })

    return out.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)
