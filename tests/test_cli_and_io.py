"""CLI surface, scalar fixtures, sketch-state sinks, generic sketch UDAF."""

import json
import subprocess
import sys

import numpy as np
import pyarrow.parquet as pq
import pytest

from p2pddsketch_ray.sketches.ddsketch import DDSketch
from p2pddsketch_ray.sources.scalars import (generate_scalars,
                                             jittered_boundaries,
                                             write_scalar_shards)
from p2pddsketch_ray.stages.sketch_io import (dump_sketch_csv,
                                              read_sketch_parquet,
                                              sketch_bins_table,
                                              write_sketch_parquet)


def test_generate_scalars_deterministic():
    a = generate_scalars("normal", 508, seed=1)
    b = generate_scalars("normal", 508, seed=1)
    assert np.array_equal(a, b)
    assert len(a) == 508
    with pytest.raises(ValueError):
        generate_scalars("zipf", 10)


def test_jittered_boundaries_cover_stream():
    bounds = jittered_boundaries(10_000, 7, seed=3)
    assert bounds[0] == 0 and bounds[-1] == 10_000
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_scalar_shards_sorted_regime(tmp_path):
    paths = write_scalar_shards(str(tmp_path), "exponential", 5000, 4,
                                sort_first=True)
    assert len(paths) == 4
    maxes = []
    for p in paths:
        vals = pq.read_table(p)["value"].to_numpy()
        assert (np.diff(vals) >= 0).all()      # sorted within shard
        if len(vals):
            maxes.append((vals.min(), vals.max()))
    for (lo1, hi1), (lo2, hi2) in zip(maxes, maxes[1:]):
        assert hi1 <= lo2                       # disjoint ranges


def test_sketch_io_roundtrip(tmp_path):
    s = DDSketch(alpha=0.01)
    s.add_batch(np.random.default_rng(1).lognormal(0, 2, 10_000))
    t = sketch_bins_table(s)
    assert t.num_rows == s.size
    assert t["count"].to_numpy().sum() == pytest.approx(s.n)
    csv = dump_sketch_csv(s, str(tmp_path / "bins.csv"))
    assert open(csv).readline().strip().replace('"', "") == \
        "key,count,kmax,kmin,length"
    pqp = write_sketch_parquet(s, str(tmp_path / "state.parquet"))
    s2 = read_sketch_parquet(pqp)
    assert s2.to_bytes() == s.to_bytes()


def test_cli_synthetic_normal(tmp_path):
    out_json = str(tmp_path / "res.json")
    proc = subprocess.run(
        [sys.executable, "-m", "p2pddsketch_ray.cli", "--normal",
         "--ni", "20000", "--alpha", "0.01", "--q", "0.5", "0.9",
         "--num-cpus", "4", "--out", out_json],
        capture_output=True, text=True, cwd="/root/repo", timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.load(open(out_json))
    assert [r["q"] for r in res["quantiles"]] == [0.5, 0.9]
    for r in res["quantiles"]:
        assert r["rel_error"] <= 0.06  # post-collapse alpha bound


def test_read_scalar_text_matches_reference_loader(ray_session, tmp_path):
    """The reference's text format (newline-delimited doubles,
    main.cpp:967-1000): blank lines skipped, values parsed exactly."""
    from p2pddsketch_ray.sources.scalars import read_scalar_text
    vals = generate_scalars("normal", 997, seed=5)
    p = tmp_path / "stream.txt"
    lines = [repr(float(v)) for v in vals]
    lines.insert(3, "")              # blank line the loader must skip
    p.write_text("\n".join(lines) + "\n")
    ds = read_scalar_text(str(p))
    got = np.sort(ds.to_pandas()["value"].to_numpy())
    assert np.array_equal(got, np.sort(vals))


def test_cli_text_dataset_accuracy_table(tmp_path):
    """CLI parity for the reference's native input (D5): the accuracy
    table runs on a newline-double file."""
    out_json = str(tmp_path / "res.json")
    vals = generate_scalars("exponential", 5000, seed=2)
    p = tmp_path / "stream.txt"
    p.write_text("\n".join(repr(float(v)) for v in vals) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "p2pddsketch_ray.cli", "--dataset", str(p),
         "--alpha", "0.01", "--q", "0.5", "0.99", "--accuracy",
         "--num-cpus", "4", "--out", out_json],
        capture_output=True, text=True, cwd="/root/repo", timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.load(open(out_json))
    assert [r["q"] for r in res["quantiles"]] == [0.5, 0.99]
    for r in res["quantiles"]:
        assert "real" in r and r["rel_error"] <= 0.06


def test_cli_conflicting_sources():
    proc = subprocess.run(
        [sys.executable, "-m", "p2pddsketch_ray.cli", "--normal",
         "--uniform"], capture_output=True, text=True, cwd="/root/repo")
    assert proc.returncode != 0
    assert "not allowed with" in proc.stderr


def test_read_scalar_csv_and_jsonl_match_text(ray_session, tmp_path):
    """All three scalar text formats produce the identical float column
    (and therefore the identical sketch)."""
    import numpy as np
    from p2pddsketch_ray.sources.scalars import (read_scalar_csv,
                                                 read_scalar_jsonl,
                                                 read_scalar_text)
    rng = np.random.default_rng(7)
    vals = rng.normal(50.0, 9.0, size=1000)
    txt = tmp_path / "v.txt"
    txt.write_text("\n".join(repr(v) for v in vals) + "\n")
    csvf = tmp_path / "v.csv"
    csvf.write_text("value\n" + "\n".join(repr(v) for v in vals) + "\n")
    jf = tmp_path / "v.jsonl"
    jf.write_text("\n".join('{"value": %s}' % repr(v) for v in vals))
    a = np.sort(read_scalar_text(str(txt)).to_pandas()["value"].to_numpy())
    b = np.sort(read_scalar_csv(str(csvf)).to_pandas()["value"].to_numpy())
    c = np.sort(read_scalar_jsonl(str(jf)).to_pandas()["value"].to_numpy())
    assert np.array_equal(a, b) and np.array_equal(b, c)
    assert np.array_equal(a, np.sort(vals))


def test_gen_sf_replicas_preserve_join_structure(tmp_path):
    """tools/gen_sf: replica r of each fact joins exactly within
    itself (same spans on both sides of every join key), replica 0 is
    byte-identical to the source, and document replicas are
    decorrelated at the shingle level."""
    import numpy as np
    import pyarrow.parquet as pq

    from tools.gen_sf import generate

    src = "/root/testdata/sf0.001"
    out = str(tmp_path / "scaled")
    generate(3, src, out)

    # replica 0 identical to source
    for t in ("orders", "documents", "events"):
        a = pq.read_table(f"{src}/{t}.parquet")
        b = pq.read_table(f"{out}/{t}.parquet/part-0.parquet")
        assert a.equals(b), t

    # per-replica join closure: every shifted l_orderkey has its
    # shifted o_orderkey in the SAME replica file
    o1 = pq.read_table(f"{out}/orders.parquet/part-1.parquet",
                       columns=["o_orderkey"])["o_orderkey"].to_numpy()
    l1 = pq.read_table(f"{out}/lineitem.parquet/part-1.parquet",
                       columns=["l_orderkey"])["l_orderkey"].to_numpy()
    assert np.isin(np.unique(l1), o1).all()
    o2 = pq.read_table(f"{out}/orders.parquet/part-2.parquet",
                       columns=["o_orderkey"])["o_orderkey"].to_numpy()
    assert not np.isin(np.unique(l1), o2).any()

    # determinism: regeneration is byte-for-byte stable
    out2 = str(tmp_path / "scaled2")
    generate(3, src, out2)
    for r in range(3):
        a = open(f"{out}/orders.parquet/part-{r}.parquet", "rb").read()
        b = open(f"{out2}/orders.parquet/part-{r}.parquet", "rb").read()
        assert a == b, r

    # text decorrelation: same doc across replicas is NOT a near-dup
    from p2pddsketch_ray.sketches.minhash import shingle_hashes
    d1 = pq.read_table(f"{out}/documents.parquet/part-1.parquet",
                       columns=["text"])["text"]
    d2 = pq.read_table(f"{out}/documents.parquet/part-2.parquet",
                       columns=["text"])["text"]
    h1, f1 = shingle_hashes(d1.slice(0, 10), 9)
    h2, f2 = shingle_hashes(d2.slice(0, 10), 9)
    for i in range(10):
        sa = set(h1[f1[i]:f1[i + 1]].tolist())
        sb = set(h2[f2[i]:f2[i + 1]].tolist())
        j = len(sa & sb) / max(len(sa | sb), 1)
        assert j < 0.5, (i, j)

    # documents of zero or one word are salted too (their word 0), so
    # no document is identical across replicas
    import pyarrow as pa

    from tools.gen_sf import _salt_texts
    docs = pa.array(["", "word", "two words", "a b c"])
    r1, r2 = (_salt_texts(docs, r).to_pylist() for r in (1, 2))
    assert r1 == ["x1", "wordx1", "two wordsx1", "a bx1 c"]
    assert all(a != b for a, b in zip(r1, r2))
