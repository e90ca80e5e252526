"""Checkpoint/resume with per-partition lineage, and IVF ANN recall."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from p2pddsketch_ray.sketches.ddsketch import DDSketch
from p2pddsketch_ray.state.checkpoint import CheckpointedSketchBuild


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    """Four parquet input shards of a scalar stream."""
    rng = np.random.default_rng(11)
    d = tmp_path_factory.mktemp("shards")
    paths, all_vals = [], []
    for i in range(4):
        vals = rng.lognormal(0, 2, 5000)
        all_vals.append(vals)
        p = str(d / f"shard-{i}.parquet")
        pq.write_table(pa.table({"value": vals,
                                 "grp": (["a", "b"] * 2500)}), p)
        paths.append(p)
    return paths, np.concatenate(all_vals)


def test_checkpoint_build_resume_identical(ray_session, shards, tmp_path):
    paths, all_vals = shards
    ck = CheckpointedSketchBuild(str(tmp_path / "ck"), "value", alpha=0.01)
    ck.build(paths)
    assert set(ck.built_inputs) == set(paths) and not ck.skipped_inputs
    merged1 = ck.merged(paths)

    # resume: nothing rebuilt, identical result
    ck2 = CheckpointedSketchBuild(str(tmp_path / "ck"), "value", alpha=0.01)
    ck2.build(paths)
    assert not ck2.built_inputs and set(ck2.skipped_inputs) == set(paths)
    assert ck2.merged(paths).to_bytes() == merged1.to_bytes()

    # equals the direct sequential build, bit for bit
    direct = DDSketch(alpha=0.01)
    direct.add_batch(all_vals)
    assert merged1.to_bytes() == direct.to_bytes()


def test_checkpoint_partial_failure_resume(ray_session, shards, tmp_path):
    paths, _ = shards
    ckdir = str(tmp_path / "ck2")
    ck = CheckpointedSketchBuild(ckdir, "value", alpha=0.01)
    ck.build(paths[:2])                  # "crash" after two inputs
    survivors = set(glob.glob(f"{ckdir}/partial-*.parquet"))
    assert len(survivors) == 2
    ck2 = CheckpointedSketchBuild(ckdir, "value", alpha=0.01)
    ck2.build(paths)                     # resume the full job
    assert set(ck2.skipped_inputs) == set(paths[:2])
    assert set(ck2.built_inputs) == set(paths[2:])
    assert ck2.merged(paths).n == 20000


def test_checkpoint_key_depends_on_params(ray_session, shards, tmp_path):
    paths, _ = shards
    ckdir = str(tmp_path / "ck3")
    a = CheckpointedSketchBuild(ckdir, "value", alpha=0.01)
    a.build(paths[:1])
    b = CheckpointedSketchBuild(ckdir, "value", alpha=0.02)
    b.build(paths[:1])
    assert b.built_inputs == paths[:1]   # different alpha -> rebuilt
    assert len(glob.glob(f"{ckdir}/partial-*.parquet")) == 2
    assert not glob.glob(f"{ckdir}/*.tmp")  # atomic publish left no temps


def test_checkpoint_grouped(ray_session, shards, tmp_path):
    paths, all_vals = shards
    ck = CheckpointedSketchBuild(str(tmp_path / "ck4"), "value",
                                 group_cols=["grp"], alpha=0.01)
    ck.build(paths)
    by_group = ck.merged_by_group(paths)
    assert set(by_group) == {"a", "b"}
    assert by_group["a"].n + by_group["b"].n == 20000


def test_checkpoint_merged_by_group_many_groups(ray_session, tmp_path):
    """Many groups (null among them) spread over shards, under a
    bin_limit some groups' unions exceed: every group equals the fold of
    its partial rows in checkpoint order, and a two-column build keys
    its groups by tuple."""
    from p2pddsketch_ray.stages.sketch_build import merge_sketch_table
    rng = np.random.default_rng(4)
    paths = []
    for i in range(3):
        n = 3000
        p = str(tmp_path / f"in-{i}.parquet")
        pq.write_table(pa.table({
            "value": rng.lognormal(0, 0.3 + i, n),
            "g": pa.array(rng.integers(0, 40, n).astype(str),
                          mask=rng.random(n) < 0.05),
            "h": rng.choice(["x", "y"], n)}), p)
        paths.append(p)
    for cols in (["g"], ["g", "h"]):
        ck = CheckpointedSketchBuild(str(tmp_path / f"ck-{len(cols)}"),
                                     "value", group_cols=cols, alpha=0.01,
                                     bin_limit=48)
        ck.build(paths)
        got = ck.merged_by_group(paths)
        table = pa.concat_tables(pq.read_table(ck._partial_path(p))
                                 for p in paths)
        rows: dict = {}
        for i, key in enumerate(zip(*[table[c].to_pylist()
                                      for c in cols])):
            rows.setdefault(key if len(cols) > 1 else key[0], []).append(i)
        assert len(rows) > 40 and None in {
            k if len(cols) == 1 else k[0] for k in rows}
        assert got.keys() == rows.keys()
        for key, idx in rows.items():
            assert got[key].to_bytes() == merge_sketch_table(
                table.take(idx)).to_bytes()
        assert max(s.generation for s in got.values()) > 0


def test_lineage_keys_unchanged():
    """Checkpoint partials and resumable shards are named by the same
    lineage key as before the two helpers were merged, so existing
    checkpoints and shards still resume."""
    from p2pddsketch_ray.state.checkpoint import STAGE_VERSION
    from p2pddsketch_ray.state.lineage import lineage_key
    params = {"value_col": "value", "group_cols": ["grp"], "alpha": 0.01,
              "bin_limit": 2048, "offset": 2**30, "mode": "uniform"}
    path = "/data/events/part-0.parquet"
    assert lineage_key(path, {"stage_version": STAGE_VERSION, **params}) \
        == "39af34698f30d9ada22573bb427b3e5f"
    assert lineage_key(path, {"stage": "tokenize", "lower": True,
                              "k": 9}) == "5bd9b931e55d50c91a9a6197c084aaa7"
    ck = CheckpointedSketchBuild.__new__(CheckpointedSketchBuild)
    ck.dir, ck.params = "/ck", params
    assert ck._partial_path(path) == \
        "/ck/partial-39af34698f30d9ada22573bb427b3e5f.parquet"
    from p2pddsketch_ray.state.resume_write import ResumableMapWrite
    rw = ResumableMapWrite.__new__(ResumableMapWrite)
    rw.out_dir, rw.stage, rw.params = "/out", "tokenize", {"lower": True,
                                                           "k": 9}
    assert rw._shard_dir(path) == \
        "/out/shard-5bd9b931e55d50c91a9a6197c084aaa7"


def test_checkpoint_empty_input_publishes_partial(ray_session, shards,
                                                  tmp_path):
    """An all-empty input parquet must still publish a (zero-row) partial
    so resume skips it, and the merge treats it as identity."""
    paths, all_vals = shards
    empty_p = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"value": pa.array([], type=pa.float64()),
                             "grp": pa.array([], type=pa.string())}),
                   empty_p)
    ckdir = str(tmp_path / "ck5")
    ck = CheckpointedSketchBuild(ckdir, "value", alpha=0.01)
    inputs = [empty_p] + list(paths)
    ck.build(inputs)
    assert empty_p in ck.built_inputs
    # resume: the empty input is now satisfied from checkpoint
    ck2 = CheckpointedSketchBuild(ckdir, "value", alpha=0.01)
    ck2.build(inputs)
    assert empty_p in ck2.skipped_inputs
    direct = DDSketch(alpha=0.01)
    direct.add_batch(all_vals)
    assert ck2.merged(inputs).to_bytes() == direct.to_bytes()


def test_ivf_recall_vs_brute_force(ray_session):
    import ray.data
    from p2pddsketch_ray.pipelines.knn import IVFIndex
    ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    emb = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    mat = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    ids = emb["vec_id"].to_numpy()
    query = mat[17]

    index = IVFIndex.build(ds, n_clusters=8, seed=42)
    got = index.search(query, k=10, n_probe=4).to_pandas()
    # brute-force truth
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1), 1e-12)[:, None]
    q = query / np.linalg.norm(query)
    truth_ids = set(ids[np.argsort(-(unit @ q))[:10]].tolist())
    recall = len(set(got["vec_id"]) & truth_ids) / 10
    assert recall >= 0.7, recall
    # probing all clusters must reproduce brute force exactly
    full = index.search(query, k=10, n_probe=8).to_pandas()
    assert set(full["vec_id"]) == truth_ids


def test_ivf_written_index_prunes_partitions(ray_session, tmp_path):
    import os

    import ray.data
    from p2pddsketch_ray.pipelines.knn import IVFIndex
    ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    built = IVFIndex.build(ds, n_clusters=8, seed=42)
    path = str(tmp_path / "ivf")
    index = built.write(path)
    assert index.index_path == path
    # hive layout: one directory per cluster
    cluster_dirs = sorted(d for d in os.listdir(path)
                          if d.startswith("cluster="))
    assert len(cluster_dirs) >= 2
    # the pruned search plans a read over exactly n_probe of the
    # n_clusters partition directories
    emb = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    query = np.asarray(emb["embedding"][17].as_py(), dtype=np.float64)
    probes = np.argsort(-(index.centroids @
                          (query / np.linalg.norm(query))))[:2].tolist()
    probe_paths = index._probe_paths(probes)
    assert len(probe_paths) == 2
    assert all(os.path.basename(p) in cluster_dirs for p in probe_paths)
    # full-probe search on the written index == the in-memory index's
    # exhaustive result (centroid/assignment round-trip is lossless)
    got = index.search(query, k=10, n_probe=8).to_pandas()
    want = built.search(query, k=10, n_probe=8).to_pandas()
    assert list(got["vec_id"]) == list(want["vec_id"])
    # pruned search returns only vectors from the probed clusters
    pruned = index.search(query, k=10, n_probe=2).to_pandas()
    assert len(pruned) == 10


def test_resumable_map_write(ray_session, shards, tmp_path):
    """Per-shard resumable output: crash after two shards, resume
    finishes only the rest; a stale .tmp from the crash is redone; the
    combined output equals a direct full transform."""
    import pyarrow.compute as pc
    from p2pddsketch_ray.state.resume_write import ResumableMapWrite
    paths, all_vals = shards

    def double(t: pa.Table) -> pa.Table:
        return pa.table({"value2": pc.multiply(t["value"], 2.0)})

    out = str(tmp_path / "out")
    w = ResumableMapWrite(out, "double", double, {"v": 1},
                          columns=["value"])
    w.run(paths[:2])                       # "crash" after two shards
    assert len(w.written) == 2
    # simulate a crash mid-write of shard 3: stale tmp dir
    stale = w._shard_dir(paths[2]) + ".tmp"
    os.makedirs(stale)
    w2 = ResumableMapWrite(out, "double", double, {"v": 1},
                           columns=["value"])
    dirs = w2.run(paths)
    assert set(w2.skipped) == set(paths[:2])
    assert set(w2.written) == set(paths[2:])
    assert not os.path.isdir(stale)
    assert len(dirs) == 4 and all(os.path.isdir(d) for d in dirs)
    got = np.sort(w2.output_dataset(paths).to_pandas()["value2"].to_numpy())
    assert np.array_equal(got, np.sort(all_vals * 2.0))
    # params are part of the lineage key: different params -> rebuilt
    w3 = ResumableMapWrite(out, "double", double, {"v": 2},
                           columns=["value"])
    w3.run(paths[:1])
    assert w3.written == paths[:1]


def test_resumable_write_metrics_manifest(ray_session, shards, tmp_path):
    """Every published shard carries a _METRICS.json manifest (lineage
    key, rows in/out, bytes, wall time); metrics survive a resume
    untouched and fail loudly for un-run shards."""
    import json

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import pytest
    from p2pddsketch_ray.state.resume_write import ResumableMapWrite
    paths, all_vals = shards

    def keep_positive(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["value"], 0.0))

    out = str(tmp_path / "out")
    w = ResumableMapWrite(out, "pos", keep_positive, {"v": 1},
                          columns=["value"])
    w.run(paths)
    metrics = w.metrics(paths)
    assert len(metrics) == len(paths)
    for path, m in zip(paths, metrics):
        assert m["rows_in"] == pq.ParquetFile(path).metadata.num_rows
        assert m["rows_out"] <= m["rows_in"]
        assert m["bytes_out"] > 0 and m["wall_sec"] >= 0
        assert m["stage"] == "pos" and m["params"] == {"v": 1}
    # total rows_out across manifests == the combined output's rows
    assert (sum(m["rows_out"] for m in metrics)
            == w.output_dataset(paths).count())
    # resume rewrites nothing: manifests byte-identical after a second run
    before = [json.dumps(m, sort_keys=True) for m in metrics]
    w2 = ResumableMapWrite(out, "pos", keep_positive, {"v": 1},
                           columns=["value"])
    w2.run(paths)
    assert set(w2.skipped) == set(paths) and not w2.written
    after = [json.dumps(m, sort_keys=True) for m in w2.metrics(paths)]
    assert before == after
    # un-run lineage (different params) has no metrics
    w3 = ResumableMapWrite(out, "pos", keep_positive, {"v": 9},
                           columns=["value"])
    with pytest.raises(FileNotFoundError):
        w3.metrics(paths)


def test_incremental_daily_revenue_reuses_base(ray_session):
    """Second refresh must NOT rebuild the base checkpoint (IVM
    contract: only the delta is rescanned) and must return the same
    maintained view."""
    import p2pddsketch_ray.pipelines.relational as R

    sf = "/root/testdata/sf0.001"
    first = R.incremental_daily_revenue(sf)
    root = R._incr_checkpoint_root(sf, 10592)  # 1999-01-01
    base = os.path.join(root, "base.parquet")
    assert os.path.exists(base) and os.path.exists(
        os.path.join(root, "_SUCCESS"))
    mtime = os.path.getmtime(base)
    second = R.incremental_daily_revenue(sf)
    assert os.path.getmtime(base) == mtime      # base untouched
    assert first.equals(second)
    # the maintained view == a fresh full aggregate (day count sanity)
    assert first.num_rows > 0
    assert first["revenue_cents"].to_pandas().gt(0).all()
