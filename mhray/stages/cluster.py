"""Stage 7: distributed connected components (union-find by rounds).

Not in the reference — MHAP emits pairs and Canu consumes them
(SURVEY.md D4). We cluster with iterative min-label propagation
expressed as map-reduce rounds (the log-rounds CC scheme of "Finding
connected components in map-reduce in logarithmic rounds", ICDE 2013,
per PAPERS.md): labels start as node ids; every round each node
adopts the minimum label in its neighborhood, read through keyed
attaches (:func:`mhray.rayutil.attach_payload`) and one groupby-min;
a driver-side fixpoint loop materializes only the (node, label) table
— which holds one row per node that appears in ANY pair (tiny
relative to the corpus), never the corpus itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data


def cluster_edges(pairs_ds, max_rounds: int = 50,
                  num_partitions: int | None = None,
                  driver_threshold: int = 2_000_000,
                  stats: dict | None = None) -> "ray.data.Dataset":
    """pairs(lo, hi) -> (iid, cluster_id) for every node in a pair.

    Label propagation with path-halving (each label replaced by its
    own label's label, a keyed attach) each round; converges in
    O(log n) rounds for the small dense clusters near-dup detection
    produces (diameter-bound in general).

    Edge sets are orders of magnitude smaller than the corpus (only
    verified duplicate pairs), so below ``driver_threshold`` edges the
    union-find runs driver-side in one pass — the distributed rounds
    remain the scale path (force with driver_threshold=0).

    Pass ``stats={}`` to receive run telemetry: ``path`` ("driver" or
    "distributed"), ``edges``, and for the distributed path ``rounds``
    (propagation rounds until fixpoint).
    """
    edges = pairs_ds.select_columns(["lo", "hi"]).materialize()
    n_edges = edges.count()
    if stats is not None:
        stats["edges"] = n_edges
    if n_edges == 0:
        if stats is not None:
            stats["path"] = "empty"
        return ray.data.from_arrow(pa.table({
            "iid": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64()),
        }))
    if n_edges <= driver_threshold:
        if stats is not None:
            stats["path"] = "driver"
        return _cluster_driver_side(edges)
    if stats is not None:
        stats["path"] = "distributed"

    # undirected: both directions, so min-label flows both ways
    def both_dirs(batch: pa.Table) -> pa.Table:
        lo = np.asarray(batch.column("lo"), dtype=np.int64)
        hi = np.asarray(batch.column("hi"), dtype=np.int64)
        return pa.table({
            "src": pa.array(np.concatenate([lo, hi]), pa.int64()),
            "dst": pa.array(np.concatenate([hi, lo]), pa.int64()),
        })

    directed = edges.map_batches(both_dirs, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    # labels: node -> its own id (plus itself as neighbor, so labels
    # never regress when a node has no smaller neighbor)
    labels = directed.groupby("src").min("dst").rename_columns(
        {"src": "node", "min(dst)": "nbr_min"}
    ).map_batches(
        lambda b: pa.table({
            "node": b.column("node"),
            "label": pa.compute.min_element_wise(b.column("node"), b.column("nbr_min")),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()

    from mhray.rayutil import attach_payload

    directed_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    labels_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])
    cand_schema = pa.schema([("node", pa.int64()), ("cand", pa.int64())])
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        # propagate: each node's candidate = min over neighbors' labels
        # (the label of src flows to dst); materialized so the attach's
        # broadcast-fit count does not run the groupby a second time
        msgs = attach_payload(directed, "src", labels, "node", ("label",),
                              "src", num_partitions,
                              pairs_schema=directed_schema,
                              side_schema=labels_schema)
        cand = msgs.groupby("dst").min("label_src").rename_columns(
            {"dst": "node", "min(label_src)": "cand"}
        ).materialize()
        merged = attach_payload(labels, "node", cand, "node", ("cand",),
                                "c", num_partitions, how="left",
                                pairs_schema=labels_schema,
                                side_schema=cand_schema)

        def take_min(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            lab = batch.column("label")
            new = pc.min_element_wise(lab, pc.coalesce(batch.column("cand_c"),
                                                       lab))
            return pa.table({
                "node": batch.column("node"),
                "label": new,
                "changed": pc.cast(pc.not_equal(new, lab), pa.int64()),
            })

        new_labels = merged.map_batches(
            take_min, batch_format="pyarrow").materialize()
        changed = new_labels.sum("changed") or 0
        labels = new_labels.drop_columns(["changed"]).materialize()
        if not changed:
            break

        # pointer-halving: label <- label's label (accelerates chains)
        labels = attach_payload(
            labels, "label", labels, "node", ("label",), "up",
            num_partitions, how="left", pairs_schema=labels_schema,
            side_schema=labels_schema,
        ).map_batches(
            lambda b: pa.table({
                "node": b.column("node"),
                "label": pa.compute.coalesce(b.column("label_up"),
                                             b.column("label")),
            }),
            batch_format="pyarrow",
        ).materialize()

    if stats is not None:
        stats["rounds"] = rounds
    return labels.rename_columns({"node": "iid", "label": "cluster_id"})


def _cluster_driver_side(edges) -> "ray.data.Dataset":
    """Union-find with path compression over a driver-resident edge
    list (numpy label contraction to fixpoint)."""
    df = edges.to_pandas()
    lo = df["lo"].to_numpy(dtype=np.int64)
    hi = df["hi"].to_numpy(dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([lo, hi]), return_inverse=True)
    a, b = inv[: len(lo)], inv[len(lo):]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        la = np.minimum(label[a], label[b])
        np.minimum.at(label, a, la)
        np.minimum.at(label, b, la)
        # pointer jumping to the current root
        changed = True
        while changed:
            nxt = label[label]
            changed = bool((nxt != label).any())
            label = nxt
        if (label[a] == label[b]).all():
            break
    return ray.data.from_arrow(pa.table({
        "iid": pa.array(nodes, pa.int64()),
        "cluster_id": pa.array(nodes[label], pa.int64()),
    }))


def assign_clusters(sketches_ds, pair_clusters,
                    num_partitions: int | None = None):
    """Full assignment (image_id, iid, cluster_id): nodes not in any
    accepted pair are singleton clusters of themselves.

    The pair-cluster table holds only nodes that appear in a verified
    dup pair; one left :func:`mhray.rayutil.attach_payload` (broadcast
    while it fits, else one shuffle) tags every row, and an untagged
    row keeps its own iid."""
    from mhray.rayutil import attach_payload

    joined = attach_payload(
        sketches_ds.select_columns(["image_id", "iid"]), "iid",
        pair_clusters, "iid", ("cluster_id",), "c", num_partitions,
        how="left",
        pairs_schema=pa.schema([("image_id", pa.string()),
                                ("iid", pa.int64())]),
        side_schema=pa.schema([("iid", pa.int64()),
                               ("cluster_id", pa.int64())]))

    def fill(batch: pa.Table) -> pa.Table:
        return pa.table({
            "image_id": batch.column("image_id"),
            "iid": batch.column("iid"),
            "cluster_id": pa.compute.coalesce(
                batch.column("cluster_id_c"), batch.column("iid")
            ),
        })

    return joined.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def triangle_counts(edges, num_parts: int | None = None,
                    lo_col: str = "lo", hi_col: str = "hi"):
    """Per-node triangle participation counts over an undirected edge
    list — the cluster-density / cohesion metric one step past
    connected components (a component whose members all share
    triangles is a genuine dup clique; a chain-shaped component with
    none is the θ-tail artifact the calibration curve characterizes).

    ``edges`` must be canonical (lo < hi, one row per undirected
    edge). Wedges are a groupby on the middle vertex whose emitter
    crosses each vertex's in-edges with its out-edges
    (``kernels.expand_spans``; id-orientation already spreads clique
    work: a member of an m-clique is the middle of rank·(m−rank)
    wedges, never m²), then an inner
    :func:`mhray.rayutil.attach_payload` on the composite key (a, c)
    against E closes each wedge. Exact — no caps; wedge volume is
    Σ_b deg⁻(b)·deg⁺(b), the same output-proportional bound the
    oracle's SQL joins pay. Returns (doc_id, n_tri) for every vertex
    in ≥1 triangle.

    Scale bound, stated plainly: triangle counting is Θ(Σ triangles)
    BY DEFINITION — a clique of size m holds C(m,3). Run it on
    per-cluster subgraphs or rep-collapsed graphs (the flagship's
    exact-dup collapse), not on a whole clique-heavy corpus graph: the
    sf0.1 dup graph holds ~1e9 triangles and no implementation makes
    that number cheap (hence it is excluded from the sf0.1 bench list;
    the driver witnesses it at sf0.01 — 1.88M triangles, ~8s)."""
    import pyarrow.compute as pc

    from mhray.kernels import expand_spans
    from mhray.rayutil import attach_payload, exchange, parts_for
    from mhray.stages.candidates import _part_of

    num_parts = parts_for(edges, num_parts)
    e = edges.map_batches(
        lambda b: pa.table({"a": b.column(lo_col).cast(pa.int64()),
                            "b": b.column(hi_col).cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    def by_middle(batch: pa.Table) -> pa.Table:
        # each edge (a, b) is an in-edge of b and an out-edge of a
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        mid = np.concatenate([b, a])
        return pa.table({
            "part": pa.array(_part_of(mid, num_parts), pa.int32()),
            "mid": pa.array(mid, pa.int64()),
            "end": pa.array(np.concatenate([a, b]), pa.int64()),
            "is_out": pa.array(np.arange(len(mid)) >= len(a)),
        })

    def emit_wedges(part: pa.Table) -> pa.Table:
        mid = np.asarray(part.column("mid"), dtype=np.int64)
        end = np.asarray(part.column("end"), dtype=np.int64)
        is_out = np.asarray(part.column("is_out"), dtype=bool)
        order = np.argsort(mid[is_out], kind="stable")
        out_mid, out_end = mid[is_out][order], end[is_out][order]
        in_mid, in_end = mid[~is_out], end[~is_out]
        r, j = expand_spans(np.searchsorted(out_mid, in_mid, "left"),
                            np.searchsorted(out_mid, in_mid, "right"))
        return pa.table({"a": pa.array(in_end[r], pa.int64()),
                         "b": pa.array(in_mid[r], pa.int64()),
                         "c": pa.array(out_end[j], pa.int64())})

    wedges = exchange(e.map_batches(by_middle, batch_format="pyarrow",
                                    zero_copy_batch=True),
                      "part", num_parts, emit_wedges)
    tri = attach_payload(
        wedges, ("a", "c"), e, ("a", "b"), (), "e", num_parts,
        pairs_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                ("c", pa.int64())]),
        side_schema=pa.schema([("a", pa.int64()), ("b", pa.int64())]))

    def explode_nodes(batch: pa.Table) -> pa.Table:
        cols = [np.asarray(batch.column(c), dtype=np.int64)
                for c in ("a", "b", "c")]
        return pa.table({"doc_id": pa.array(np.concatenate(cols),
                                            pa.int64())})

    counted = tri.map_batches(explode_nodes, batch_format="pyarrow") \
        .groupby("doc_id").count()
    return counted.map_batches(
        lambda t: pa.table({"doc_id": t.column("doc_id"),
                            "n_tri": pc.cast(t.column("count()"),
                                             pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
