"""The north-star exact-substring axis inside the flagship: planted
pairs that share ONLY a long verbatim caption segment (diluted far
below the MinHash stage-1 gate) must be found when substr_pass is on
and contribute to clusters."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from mhray.config import PRESETS


@pytest.fixture(scope="module")
def substr_corpus(tmp_path_factory):
    from mhray.synth import SynthSpec, write_corpus

    out = tmp_path_factory.mktemp("substrc")
    spec = SynthSpec(n_rows=400, dup_fraction=0.2, substring_fraction=0.15,
                     substring_seg_chars=48, seed=777)
    return write_corpus(str(out), spec, n_files=2)


def _planted_substring_pairs(corpus):
    """Truth pairs whose captions differ massively but share a segment."""
    images = pq.read_table(corpus["images"])
    caps = {r["image_id"]: r["caption"] for r in images.to_pylist()}
    tp = pq.read_table(corpus["truth_pairs"]).to_pylist()
    out = []
    for r in tp:
        a, b = caps[r["lo_id"]], caps[r["hi_id"]]
        if a != b and len(a) > 400 and len(b) > 400:
            out.append((r["lo_id"], r["hi_id"]))
    return out


def test_substring_pairs_planted(substr_corpus):
    assert len(_planted_substring_pairs(substr_corpus)) >= 20


def test_flagship_substring_axis(substr_corpus, ray_session, tmp_path_factory):
    from mhray.pipelines.dedup import pairs_with_ids, run_dedup

    planted = set(_planted_substring_pairs(substr_corpus))

    # OFF: the long-caption substring pairs are (mostly) invisible to
    # the MinHash gate
    cfg_off = PRESETS["captions"]
    out_off = str(tmp_path_factory.mktemp("off"))
    res_off = run_dedup(substr_corpus["images"], out_off, cfg_off, num_parts=4)
    found_off = {(p["lo_id"], p["hi_id"])
                 for p in pairs_with_ids(res_off, 4).take_all()}

    # ON: they must be found
    cfg_on = cfg_off.with_(substr_pass=True, substr_min_length=40,
                           substr_window=8)
    out_on = str(tmp_path_factory.mktemp("on"))
    res_on = run_dedup(substr_corpus["images"], out_on, cfg_on, num_parts=4)
    found_on = {(p["lo_id"], p["hi_id"])
                for p in pairs_with_ids(res_on, 4).take_all()}

    recall_on = len(planted & found_on) / len(planted)
    assert recall_on >= 0.95, f"substring recall {recall_on}"
    # the pass adds pairs, never removes
    assert found_off <= found_on

    # and the ordinary dup clusters still resolve
    truth = pq.read_table(substr_corpus["truth_pairs"])
    from mhray import oracle as O

    import pyarrow as pa

    got = pa.table({
        "lo_id": [p[0] for p in found_on],
        "hi_id": [p[1] for p in found_on],
    })
    assert O.recall_against(truth, got) >= 0.99


def test_lcs_survives_astral_chars():
    """Regression: the collision check sliced the PYTHON string with
    UTF-16 unit offsets, so any astral (non-BMP) char before or inside
    a match silently dropped it. Lengths are UTF-16 code units."""
    from mhray.stages.substring import longest_common_substring_len

    shared = "the quick brown fox jumps"
    a = "\U0001F600\U0001F600 " + shared + " tail one"
    b = "prefix two " + shared + " \U0001F680 end"
    got = longest_common_substring_len(a, b, at_least=len(shared))
    assert got >= len(shared)
    # emoji inside the shared run still matches (units compare equal)
    s2 = "abc \U0001F600 def shared run here"
    assert longest_common_substring_len("xx " + s2, s2 + " yy",
                                        at_least=10) >= 10


def test_substring_pairs_short_min_len_guarantee(ray_session):
    """min_len below window+3 used to silently raise the winnowing
    guarantee; the window now shrinks so an exact min_len-char match
    is still guaranteed a candidate."""
    import pyarrow as pa

    import ray.data
    from mhray.stages.substring import substring_pairs

    shared = "ABCDEFGH"  # exactly 8 chars
    tbl = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["xxxx " + shared + " yyyy",
                          "qqqq " + shared + " rrrr"]),
    })
    out = substring_pairs(ray.data.from_arrow(tbl), min_len=8,
                          window=8).to_pandas()
    assert len(out) == 1 and int(out.iloc[0]["lcs_len"]) >= 8
