"""Results must not depend on partitioning. Each pair generator, the
frequency table and both attach paths run on the same rows under
several layouts: input block counts 1, 2 and 7, one-row blocks,
``num_parts`` 1, 2 and 7, and an exchange that merges several ``part``
values into one partition. Every result must equal the one from a
single block and a single partition. The merged layout is the one an
emitter that assumes one ``part`` value (or one key) per call fails."""

import numpy as np
import pyarrow as pa
import pytest

# (input blocks, num_parts, merged exchange); "rows" = one-row blocks
LAYOUTS = [(1, 2, False), (2, 7, False), (7, 1, False), (7, 2, False),
           ("rows", 7, False), (2, 7, True)]


def _blocks(table: pa.Table, blocks):
    import ray.data

    n = 1 if blocks == "rows" else -(-table.num_rows // blocks)
    return ray.data.from_arrow([table.slice(i, n)
                                for i in range(0, table.num_rows, n)])


def _rows(ds, cols) -> list:
    import ray

    tables = [t for t in ray.get(ds.materialize().to_arrow_refs())
              if t.num_rows]
    if not tables:
        return []
    t = pa.concat_tables(tables).select(list(cols))
    return sorted(zip(*(t.column(c).to_pylist() for c in cols)))


@pytest.fixture(scope="module")
def sketches(ray_session, small_corpus):
    """Valid sketch rows of the first 120 corpus rows."""
    import ray.data

    from mhray.config import PRESETS
    from mhray.stages.sketch import sketch_dataset

    images = ray.data.read_parquet(small_corpus["images"]).limit(120)
    sk = sketch_dataset(images, PRESETS["captions"], decode_pixels=False) \
        .filter(expr="valid == True")
    return pa.Table.from_pylist(sk.select_columns(
        ["iid", "caption_len", "minhash"]).take_all())


def _minhash_self(tables, blocks, num_parts):
    from mhray.config import PRESETS
    from mhray.stages.candidates import minhash_candidates

    out = minhash_candidates(_blocks(tables["sk"], blocks),
                             PRESETS["captions"], num_parts)
    return _rows(out, ("lo", "hi", "shared_slots"))


def _minhash_index(tables, blocks, num_parts):
    from mhray.config import PRESETS
    from mhray.stages.candidates import minhash_candidates

    sk = tables["sk"]
    odd = pa.array(np.asarray(sk.column("iid")) % 2 == 1)
    query = _blocks(sk.filter(pa.compute.invert(odd)), blocks)
    index = _blocks(sk.filter(odd), blocks).materialize()
    out = minhash_candidates(query, PRESETS["captions"], num_parts,
                             index=index)
    return _rows(out, ("lo", "hi", "shared_slots"))


def _edit(tables, blocks, num_parts):
    from mhray.stages.editjoin import edit_distance_pairs

    out = edit_distance_pairs(_blocks(tables["planted"], blocks), k=4, q=8,
                              min_len=104, num_parts=num_parts)
    return _rows(out, ("lo", "hi", "dist"))


def _substring(tables, blocks, num_parts):
    from mhray.stages.substring import substring_pairs

    out = substring_pairs(_blocks(tables["quotes"], blocks), min_len=40,
                          num_parts=num_parts)
    return _rows(out, ("lo", "hi", "lcs_len"))


def _top_counts(tables, blocks, num_parts):
    from mhray.rayutil import top_counts

    keys, counts, total = top_counts(_blocks(tables["vals"], blocks), "k",
                                     25, num_parts)
    return keys.tolist(), counts.tolist(), total


def _attach(tables, blocks, num_parts):
    from mhray.rayutil import attach_payload

    side = _blocks(tables["side"], blocks).materialize()
    out = []
    for how in ("inner", "left"):
        got = attach_payload(_blocks(tables["pairs"], blocks), "lo", side,
                             "iid", ("w",), "lo", num_parts, how=how)
        out.append(_rows(got, ("lo", "hi", "w_lo")))
    return out


GENERATORS = {"minhash_self": _minhash_self,
              "minhash_index": _minhash_index, "edit": _edit,
              "substring": _substring, "top_counts": _top_counts,
              "attach_broadcast": _attach, "attach_exchange": _attach}


@pytest.fixture(scope="module")
def tables(sketches):
    import test_editjoin
    import test_substring

    rng = np.random.default_rng(3)
    planted, _ = test_editjoin._planted()
    lo = rng.integers(0, 60, 150)
    return {
        "sk": sketches,
        "planted": pa.Table.from_pylist(planted),
        "quotes": test_substring._quote_corpus(n_rows=60, seed=11),
        "vals": pa.table({"k": pa.array(rng.integers(0, 80, 400),
                                        pa.int64())}),
        "pairs": pa.table({"lo": pa.array(lo, pa.int64()),
                           "hi": pa.array(lo + 1000, pa.int64())}),
        "side": pa.table({"iid": pa.array(np.arange(0, 60, 2), pa.int64()),
                          "w": pa.array(rng.integers(0, 9, 30),
                                        pa.int64())}),
    }


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_result_independent_of_layout(tables, name, monkeypatch):
    import mhray.rayutil

    if name == "attach_exchange":
        monkeypatch.setattr(mhray.rayutil, "_broadcast_fits",
                            lambda *args, **kwargs: False)
    run = GENERATORS[name]
    want = run(tables, 1, 1)
    assert want and (not isinstance(want, list) or any(want)), name
    bounds = mhray.rayutil._boundaries
    for blocks, num_parts, merged in LAYOUTS:
        # merged: partition 0 holds part ids below num_parts // 2 and
        # partition 1 the rest, so each call sees several part values
        monkeypatch.setattr(
            mhray.rayutil, "_boundaries",
            (lambda n: [n // 2]) if merged else bounds)
        got = run(tables, blocks, num_parts)
        assert got == want, (name, blocks, num_parts, merged)
