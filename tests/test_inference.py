"""Batched model-inference stage (pipelines/inference.py)."""

import numpy as np
import pyarrow as pa
import pytest


def test_linear_scorer_kernel_exact():
    """predict() equals the hand-computed integer dot product."""
    from p2pddsketch_ray.pipelines.inference import (
        LinearDocScorer, MODEL_WEIGHTS)
    t = pa.table({
        "text": pa.array(["alpha beta", "x", "ae ae ae"]),
        "lang": pa.array(["en", "en", "de"]),
        "n_chars": pa.array([10, 1, 8], type=pa.int64()),
    })
    s = LinearDocScorer(dict(MODEL_WEIGHTS))
    logits = s.predict(t)
    w = MODEL_WEIGHTS
    # "alpha beta": 2 toks, 2 'a' in alpha + 1 in beta = 3 a, 1 e
    want0 = (w["bias"] + w["w_chars"] * 10 + w["w_toks"] * 2
             + w["w_a"] * 3 + w["w_e"] * 1)
    # "x": 1 tok, 0 a, 0 e
    want1 = w["bias"] + w["w_chars"] * 1 + w["w_toks"] * 1
    # "ae ae ae": 3 toks, 3 a, 3 e
    want2 = (w["bias"] + w["w_chars"] * 8 + w["w_toks"] * 3
             + w["w_a"] * 3 + w["w_e"] * 3)
    assert logits.tolist() == [want0, want1, want2]
    assert logits.dtype == np.int64


def test_scorer_rows_per_document():
    """__call__ emits every document's lang, class and exact logit."""
    from p2pddsketch_ray.pipelines import inference as I
    t = pa.table({
        "text": pa.array(["a b", "c d", "e f"]),
        "lang": pa.array(["en", "en", "de"]),
        "n_chars": pa.array([3, 3, 3], type=pa.int64()),
    })
    s = I.LinearDocScorer(dict(I.MODEL_WEIGHTS))
    out = s(t).to_pydict()
    logits = s.predict(t)
    assert out["logit"] == logits.tolist()
    assert out["lang"] == ["en", "en", "de"]
    assert out["cls"] == [
        I.CLASS_NAMES[int(lg >= I.CLS_LO) + int(lg >= I.CLS_HI)].as_py()
        for lg in logits]


def test_model_score_stats_matches_duckdb(ray_session):
    duckdb = pytest.importorskip("duckdb")
    from p2pddsketch_ray.pipelines.inference import (
        MODEL_SCORE_SQL, model_score_stats)
    sf = "/root/testdata/sf0.001"
    got = (model_score_stats(sf).to_pandas()
           .sort_values(["lang", "cls"]).reset_index(drop=True))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = (con.execute(MODEL_SCORE_SQL).df()
            .sort_values(["lang", "cls"]).reset_index(drop=True))
    assert got.equals(want)
    # all three classes occur somewhere (thresholds are not degenerate)
    assert set(got["cls"]) == {"low", "mid", "high"}


def test_resize_stats_checksum_pins_thumbnails(ray_session):
    """The per-lang checksum equals a direct numpy replay of the Resize
    gather over the raw text bytes."""
    import pyarrow.parquet as pq
    import ray.data
    from p2pddsketch_ray.stages.multimodal import (Resize,
                                                   resize_stats_by_group)
    sf = "/root/testdata/sf0.001"
    ds = ray.data.read_parquet(f"{sf}/documents.parquet",
                               columns=["lang", "text"])
    out = resize_stats_by_group(ds, "text", "lang").to_pandas()
    tbl = pq.read_table(f"{sf}/documents.parquet",
                        columns=["lang", "text"])
    r = Resize(column="payload")
    payload = pa.table({"lang": tbl["lang"],
                        "payload": pa.compute.cast(tbl["text"],
                                                   pa.binary())})
    th = r(payload)
    flat = th["thumb"].combine_chunks().flatten().to_numpy(
        zero_copy_only=False).astype(np.int64).reshape(tbl.num_rows, 64)
    w = np.arange(1, 65, dtype=np.int64)
    cks = flat @ w
    langs = np.asarray(tbl["lang"].to_pylist())
    want = {}
    for lang in np.unique(langs):
        want[lang] = int(cks[langs == lang].sum())
    got = dict(zip(out["lang"], out["thumb_checksum"]))
    assert got == want
