"""Similarity search over embedding columns.

* Brute-force cosine top-k (pipelines.relational.knn_cosine_topk): the
  correctness baseline -- one float64 matmul per batch against a broadcast
  query matrix.
* IVF (inverted-file) index here: the scale path.  Deterministic k-means
  (seeded init, fixed Lloyd iterations) fits centroids on a sample;
  vectors are bucketed by nearest centroid (one shuffle-free map_batches
  pass with the centroid matrix broadcast); a query probes only the
  n_probe nearest clusters.  At 10^12 rows the cluster id becomes the
  partition key of the written index, so a query touches
  n_probe/n_clusters of the data.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..hashing import splitmix64
from ..sources.tables import read_table
from ..stages.combine import combine_agg, named
from ..stages.sketch_build import collect


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def kmeans_fit(vectors: np.ndarray, n_clusters: int, n_iter: int = 10,
               seed: int = 42) -> np.ndarray:
    """Deterministic spherical k-means (unit vectors, cosine metric)."""
    unit = _unit_rows(np.asarray(vectors, dtype=np.float64))
    n = unit.shape[0]
    n_clusters = min(n_clusters, n)
    # seeded distinct init: rank rows by a per-index hash, take the first k
    order = np.argsort(splitmix64(np.arange(n, dtype=np.int64), seed=seed),
                       kind="mergesort")
    centroids = unit[order[:n_clusters]].copy()
    for _ in range(n_iter):
        assign = np.argmax(unit @ centroids.T, axis=1)
        for c in range(n_clusters):
            members = unit[assign == c]
            if members.shape[0]:
                v = members.sum(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    centroids[c] = v / nv
    return centroids


class IVFIndex:
    """Driver-held centroids + the assigned (vec_id, cluster, embedding)
    rows, either as an in-memory Dataset or as a cluster-partitioned
    Parquet index on disk.  ``search`` probes n_probe clusters; with a
    written index the read itself is pruned to the probed partitions
    (n_probe/n_clusters of the files ever leave storage)."""

    def __init__(self, centroids: np.ndarray,
                 assigned: "ray.data.Dataset | None" = None,
                 index_path: str | None = None):
        if assigned is None and index_path is None:
            raise ValueError("need an assigned dataset or an index path")
        self.centroids = centroids
        self.assigned = assigned
        self.index_path = index_path

    @staticmethod
    def build(ds: "ray.data.Dataset", n_clusters: int = 16,
              sample_size: int = 10_000, seed: int = 42) -> "IVFIndex":
        sample = ds.limit(sample_size).to_pandas()
        vectors = np.asarray(sample["embedding"].to_list(), dtype=np.float64)
        centroids = kmeans_fit(vectors, n_clusters, seed=seed)
        cref = ray.put(centroids)

        def assign(t: pa.Table) -> pa.Table:
            from ..functions.vectors import list_to_matrix
            cents = ray.get(cref)
            mat = _unit_rows(list_to_matrix(t["embedding"]))
            cluster = np.argmax(mat @ cents.T, axis=1).astype(np.int64)
            return t.append_column("cluster", pa.array(cluster))

        return IVFIndex(centroids,
                        ds.map_batches(assign, batch_format="pyarrow"))

    def write(self, path: str) -> "IVFIndex":
        """Persist as a cluster-partitioned Parquet index (hive layout,
        one directory per cluster) plus the centroid matrix; returns the
        reopened, partition-pruned index."""
        import os

        import pyarrow.parquet as pq
        self.assigned.write_parquet(path, partition_cols=["cluster"])
        cent = self.centroids
        pq.write_table(
            pa.table({"cluster": pa.array(np.arange(cent.shape[0],
                                                    dtype=np.int64)),
                      "centroid": pa.FixedSizeListArray.from_arrays(
                          cent.reshape(-1), cent.shape[1])}),
            os.path.join(path, "_centroids.parquet"))
        return IVFIndex.open(path)

    @staticmethod
    def open(path: str) -> "IVFIndex":
        import os

        import pyarrow.parquet as pq
        from ..functions.vectors import list_to_matrix
        cent_t = pq.read_table(os.path.join(path, "_centroids.parquet"))
        order = np.argsort(cent_t["cluster"].to_numpy())
        cents = list_to_matrix(cent_t["centroid"])[order]
        return IVFIndex(cents, index_path=path)

    def _probe_paths(self, probes: list[int]) -> list[str]:
        import os
        return [os.path.join(self.index_path, f"cluster={int(c)}")
                for c in probes]

    def search(self, query: np.ndarray, k: int = 10,
               n_probe: int = 4) -> pa.Table:
        q = np.asarray(query, dtype=np.float64)
        q = q / (np.linalg.norm(q) or 1.0)
        probes = np.argsort(-(self.centroids @ q))[:n_probe].tolist()
        qref = ray.put(q)

        if self.index_path is not None:
            # partition-pruned read: only the probed cluster directories'
            # files are listed/scanned -- no post-read cluster filter
            # needed (ray.data.read_parquet treats a path LIST as files,
            # so expand each probe directory explicitly)
            import glob
            import os
            files = [f for p in self._probe_paths(probes)
                     for f in sorted(glob.glob(os.path.join(p, "*.parquet")))]
            if not files:
                return pa.table({"vec_id": pa.array([], type=pa.int64()),
                                 "cos_sim": pa.array([], type=pa.float64())})
            src = ray.data.read_parquet(files,
                                        columns=["vec_id", "embedding"])
            prefiltered = True
        else:
            src = self.assigned
            prefiltered = False

        def score(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            from ..functions.vectors import list_to_matrix
            if not prefiltered:
                t = t.filter(pc.is_in(
                    t["cluster"], value_set=pa.array(probes, type=pa.int64())))
            if t.num_rows == 0:
                return pa.table({"vec_id": pa.array([], type=pa.int64()),
                                 "cos_sim": pa.array([], type=pa.float64())})
            qv = ray.get(qref)
            mat = _unit_rows(list_to_matrix(t["embedding"]))
            sims = mat @ qv
            return pa.table({
                "vec_id": pa.compute.cast(t["vec_id"], pa.int64()),
                "cos_sim": pa.array(np.round(sims, 6), type=pa.float64()),
            })

        from ..stages.topk import topk
        return topk(src.map_batches(score, batch_format="pyarrow"),
                    [("cos_sim", "descending"), ("vec_id", "ascending")], k)


def reciprocal_nn_pairs(sf_dir: str) -> pa.Table:
    """RECIPROCAL nearest-neighbor pairs (mutual top-1 matches) over the
    embedding table -- the classic high-precision entity-matching /
    translation-mining rule: emit (a, b) only when b is a's best match
    AND a is b's.

    Exactness contract: embeddings quantize to integer milli-units
    (floor(x*1000)), so every inner product is an exact int64 and the
    DuckDB ``list_inner_product`` oracle hash-matches bit-for-bit; ties
    break to the smaller vec_id on both sides.

    Scale shape: the quantized matrix is built once on the driver,
    ``ray.put`` ONCE and read per task (test scale: n*d*8 bytes; the
    10^12-row path swaps this stage for the IVF-bucketed variant in
    `embedding_near_dup_pairs` -- same contract, cluster-local matmuls).
    Each batch computes one int64 matmul against the broadcast, masks
    self, and argmax picks the smallest vec_id among ties because the
    broadcast columns are vec_id-sorted.  The reciprocity check is a
    vectorized pair-key groupby on the n-row best-match table, never a
    join of the raw vectors.
    """
    import pyarrow.parquet as pq
    from ..functions.vectors import list_to_matrix

    full = pq.read_table(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    order = pc.sort_indices(full["vec_id"])
    full = full.take(order)
    all_ids = full["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    qmat = np.floor(list_to_matrix(full["embedding"]) * 1000.0) \
        .astype(np.int64)
    bcast = ray.put((all_ids, qmat))

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding"])

    def best_match(t: pa.Table) -> pa.Table:
        ids, mat = ray.get(bcast)
        q = np.floor(list_to_matrix(t["embedding"]) * 1000.0) \
            .astype(np.int64)
        my = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        g = q @ mat.T                       # exact int64 inner products
        self_col = np.searchsorted(ids, my)
        g[np.arange(len(my)), self_col] = np.iinfo(np.int64).min
        best = np.argmax(g, axis=1)         # first max = smallest vec_id
        return pa.table({
            "vec_id": pa.array(my),
            "best_id": pa.array(ids[best]),
            "ip": pa.array(g[np.arange(len(my)), best]),
        })

    bests = ds.map_batches(best_match, batch_format="pyarrow",
                           zero_copy_batch=True)

    empty = pa.table({"vec_id_a": pa.array([], type=pa.int64()),
                      "vec_id_b": pa.array([], type=pa.int64()),
                      "ip": pa.array([], type=pa.int64())})

    def mutual(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False)
        b = t["best_id"].to_numpy(zero_copy_only=False)
        ip = t["ip"].to_numpy(zero_copy_only=False)
        lo = np.minimum(v, b)
        hi = np.maximum(v, b)
        key = lo * 2_000_003 + hi
        uk, inv, cnt = np.unique(key, return_inverse=True,
                                 return_counts=True)
        both = cnt[inv] == 2               # a->b and b->a present
        keep = both & (v < b)              # emit once, a < b
        return pa.table({"vec_id_a": pa.array(v[keep]),
                         "vec_id_b": pa.array(b[keep]),
                         "ip": pa.array(ip[keep])})

    from ..stages.partition import fit_partitions, partition_by

    def add_pairkey(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("pairkey",
                                   pa.array([], type=pa.int64()))
        v = t["vec_id"].to_numpy(zero_copy_only=False)
        b = t["best_id"].to_numpy(zero_copy_only=False)
        key = np.minimum(v, b) * 2_000_003 + np.maximum(v, b)
        return t.append_column("pairkey", pa.array(key))

    pairs = partition_by(
        bests.map_batches(add_pairkey, batch_format="pyarrow"),
        ["pairkey"], fit_partitions(16), mutual, empty).to_pandas()
    pairs = pairs.sort_values("vec_id_a").reset_index(drop=True)
    return pa.table({
        "vec_id_a": pa.array(pairs["vec_id_a"].astype(np.int64)),
        "vec_id_b": pa.array(pairs["vec_id_b"].astype(np.int64)),
        "ip": pa.array(pairs["ip"].astype(np.int64)),
    })


RECIPROCAL_NN_SQL = """
WITH q AS (
  SELECT vec_id,
         list_transform(embedding,
                        x -> CAST(floor(x * 1000.0) AS BIGINT)) AS qv
  FROM embeddings
), ip AS (
  SELECT a.vec_id AS va, b.vec_id AS vb,
         CAST(list_inner_product(a.qv, b.qv) AS BIGINT) AS ip
  FROM q a JOIN q b ON a.vec_id <> b.vec_id
), best AS (
  SELECT va, vb, ip,
         row_number() OVER (PARTITION BY va
                            ORDER BY ip DESC, vb ASC) AS rn
  FROM ip
)
SELECT b1.va AS vec_id_a, b1.vb AS vec_id_b, b1.ip
FROM best b1
JOIN best b2 ON b1.vb = b2.va AND b2.vb = b1.va
            AND b1.rn = 1 AND b2.rn = 1
WHERE b1.va < b1.vb
ORDER BY 1
"""


def matryoshka_truncation_hist(sf_dir: str, keep_dims: int = 32,
                               n_bins: int = 100) -> "pa.Table":
    """MATRYOSHKA / truncation-quality audit: for every embedding, the
    cosine between the full vector and its first ``keep_dims``
    dimensions (== sqrt(||x_head||^2 / ||x||^2)), binned to a
    ``n_bins``-cell histogram -- the go/no-go table before shipping
    truncated embeddings to a cheaper index.  Exact: milli-quantized
    integer norms (the reciprocal_nn contract), ONE mirrored
    sqrt-of-ratio double per vector, integer floor binning.

    Scale shape: pure streaming map (zero-copy list decode, vectorized
    per-block, one bin per vector), ``combine_agg`` count per bin,
    O(n_bins) exchange.
    """
    from ..functions.vectors import list_to_matrix

    ds = read_table(sf_dir, "embeddings", ["embedding"])

    def hist(t: pa.Table) -> pa.Table:
        q = np.floor(list_to_matrix(t["embedding"]) * 1000.0) \
            .astype(np.int64)
        num = (q[:, :keep_dims] ** 2).sum(axis=1)
        den = (q ** 2).sum(axis=1)
        cos = np.sqrt(num.astype(np.float64) / den.astype(np.float64))
        b = np.floor(cos * n_bins).astype(np.int64)
        b = np.minimum(b, n_bins - 1)      # cos == 1.0 joins last bin
        return pa.table({"bin": pa.array(b)})

    return collect(combine_agg(ds, ["bin"], hist, [("bin", "count")],
                               named("bin", "n"))).sort_by("bin")


MATRYOSHKA_HIST_SQL = """
WITH q AS (
  SELECT list_transform(embedding,
                        x -> CAST(floor(x * 1000.0) AS BIGINT)) AS qv
  FROM embeddings
), s AS (
  SELECT CAST(list_inner_product(qv[1:32], qv[1:32]) AS BIGINT)
           AS num,
         CAST(list_inner_product(qv, qv) AS BIGINT) AS den
  FROM q
), b AS (
  SELECT least(CAST(floor(sqrt(CAST(num AS DOUBLE)
                               / CAST(den AS DOUBLE)) * 100)
                    AS BIGINT), 99) AS bin
  FROM s
)
SELECT bin, CAST(count(*) AS BIGINT) AS n
FROM b GROUP BY 1 ORDER BY 1
"""


def centroid_distance_matrix(sf_dir: str) -> "pa.Table":
    """PAIRWISE LABEL-CENTROID DISTANCES over the embedding table: the
    class-separation matrix an ANN/classifier sanity check reads first
    (which labels are entangled?).  Centroids are kept RATIONAL --
    exact milli-quantized integer sum vectors plus counts -- so the
    squared distance numerator sum_i (s_a[i]*n_b - s_b[i]*n_a)^2 is an
    exact (big) integer on both sides, and only the final distance is
    ONE mirrored sqrt/divide double per pair.

    Scale shape: one (label, dim, value) row per vector dimension,
    folded by ``combine_agg`` to (label, dim) sums and counts (bounded by
    labels x dims per batch), O(labels^2 x dims) driver fold.
    """
    import math

    from ..functions.vectors import list_to_matrix

    ds = read_table(sf_dir, "embeddings", ["embedding", "label"])

    def cells(t: pa.Table) -> pa.Table:
        q = np.floor(list_to_matrix(t["embedding"]) * 1000.0) \
            .astype(np.int64)
        lab = t["label"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        n, d = q.shape
        return pa.table({
            "label": pa.array(np.repeat(lab, d)),
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
            "s": pa.array(q.reshape(-1)),
        })

    agg = (combine_agg(ds, ["label", "dim"], cells,
                       [("s", "sum"), ("s", "count")],
                       named("label", "dim", "s", "n"))
           .to_pandas().sort_values(["label", "dim"]))
    labels = np.sort(agg["label"].unique())
    d = int(agg["dim"].max()) + 1
    svec = {}
    nvec = {}
    for lb in labels:
        g = agg[agg["label"] == lb].sort_values("dim")
        svec[lb] = g["s"].to_numpy(dtype=np.int64)
        # every vector adds one row per dim, so any dim's count IS the
        # label's vector count
        nvec[lb] = int(g["n"].iloc[0])
    out = {c: [] for c in ("label_a", "label_b", "n_a", "n_b",
                           "dist_micro")}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = int(labels[i]), int(labels[j])
            sa, sb = svec[a].astype(object), svec[b].astype(object)
            na, nb = nvec[a], nvec[b]
            num = int(((sa * nb - sb * na) ** 2).sum())
            dist = math.floor(math.sqrt(float(num)) / (na * nb)
                              * 1000.0)
            out["label_a"].append(a)
            out["label_b"].append(b)
            out["n_a"].append(na)
            out["n_b"].append(nb)
            out["dist_micro"].append(dist)
    return pa.table({
        "label_a": pa.array(out["label_a"], type=pa.int64()),
        "label_b": pa.array(out["label_b"], type=pa.int64()),
        "n_a": pa.array(out["n_a"], type=pa.int64()),
        "n_b": pa.array(out["n_b"], type=pa.int64()),
        "dist_micro": pa.array(out["dist_micro"], type=pa.int64()),
    })


CENTROID_DISTANCE_SQL = """
WITH q AS (
  SELECT label,
         list_transform(embedding,
                        x -> CAST(floor(x * 1000.0) AS BIGINT)) AS qv
  FROM embeddings
), e AS (
  SELECT label, unnest(qv) AS v,
         unnest(generate_series(1, len(qv))) AS dim
  FROM q
), s AS (
  SELECT label, dim, CAST(sum(v) AS BIGINT) AS s
  FROM e GROUP BY 1, 2
), n AS (
  SELECT label, CAST(count(*) AS BIGINT) AS n FROM q GROUP BY 1
), pairs AS (
  SELECT sa.label AS label_a, sb.label AS label_b,
         na.n AS n_a, nb.n AS n_b,
         CAST(sum(CAST(sa.s * nb.n - sb.s * na.n AS HUGEINT)
                  * CAST(sa.s * nb.n - sb.s * na.n AS HUGEINT))
              AS HUGEINT) AS num
  FROM s sa
  JOIN s sb ON sa.dim = sb.dim AND sa.label < sb.label
  JOIN n na ON na.label = sa.label
  JOIN n nb ON nb.label = sb.label
  GROUP BY 1, 2, 3, 4
)
SELECT CAST(label_a AS BIGINT) AS label_a,
       CAST(label_b AS BIGINT) AS label_b, n_a, n_b,
       CAST(floor(sqrt(CAST(num AS DOUBLE)) / (n_a * n_b) * 1000.0)
            AS BIGINT) AS dist_micro
FROM pairs ORDER BY 1, 2
"""


def loo_1nn_accuracy(sf_dir: str) -> "pa.Table":
    """LEAVE-ONE-OUT 1-NN LABEL CONSISTENCY: for every embedding, the
    label of its nearest neighbor (max exact milli-quantized inner
    product, vec_id tiebreak, self excluded); per-label and overall
    accuracy -- the intrinsic separability score that predicts whether
    any kNN classifier can work on this space.

    Scale shape: the vectors broadcast once (bounded table by design,
    like the other embedding audits); each block computes its rows'
    argmax against the broadcast matrix -- O(n^2 d) split across
    blocks, the exact tier beside the IVF path.
    """
    import numpy as np
    import pyarrow as pa
    from ..functions.vectors import list_to_matrix

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    full = ds.to_pandas().sort_values("vec_id")
    qmat = np.floor(np.stack(full["embedding"].to_numpy())
                    .astype(np.float64) * 1000.0).astype(np.int64)
    labels = full["label"].to_numpy(dtype=np.int64)
    ref = ray.put((qmat, labels))

    def audit(t: pa.Table) -> pa.Table:
        mat, lab = ray.get(ref)
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        # (0, d) for a batch without rows
        q = np.floor(list_to_matrix(t["embedding"]) * 1000.0) \
            .astype(np.int64).reshape(len(vid), mat.shape[1])
        own = t["label"].to_numpy(zero_copy_only=False).astype(
            np.int64)
        dots = q @ mat.T                       # exact int64
        dots[np.arange(len(vid)), vid] = np.iinfo(np.int64).min
        # argmax with LOWEST vec_id tiebreak: np.argmax returns the
        # first maximum, and columns are vec_id-ordered
        nn = np.argmax(dots, axis=1)
        correct = lab[nn] == own
        return pa.table({"label": pa.array(own),
                         "correct": pa.array(correct.astype(np.int64))})

    agg = (combine_agg(ds, ["label"], audit,
                       [("correct", "count"), ("correct", "sum")],
                       named("label", "n", "n_correct"))
           .to_pandas().sort_values("label"))
    n = agg["n"].to_numpy(dtype=np.int64)
    nc = agg["n_correct"].to_numpy(dtype=np.int64)
    out = pa.table({
        "label": pa.array(agg["label"].to_numpy(dtype=np.int64)),
        "n": pa.array(n),
        "n_correct": pa.array(nc),
        "accuracy_ppm": pa.array(nc * 1_000_000 // n),
    })
    total = pa.table({
        "label": pa.array([-1], type=pa.int64()),
        "n": pa.array([int(n.sum())], type=pa.int64()),
        "n_correct": pa.array([int(nc.sum())], type=pa.int64()),
        "accuracy_ppm": pa.array(
            [int(nc.sum()) * 1_000_000 // int(n.sum())],
            type=pa.int64()),
    })
    return pa.concat_tables([total, out])


LOO_1NN_SQL = """
WITH q AS (
  SELECT vec_id, label,
         list_transform(embedding,
                        x -> CAST(floor(x * 1000.0) AS BIGINT)) AS qv
  FROM embeddings
), d AS (
  SELECT a.vec_id, a.label AS own, b.vec_id AS nb,
         b.label AS nb_label,
         CAST(list_inner_product(a.qv, b.qv) AS BIGINT) AS dot
  FROM q a JOIN q b ON b.vec_id != a.vec_id
), nn AS (
  SELECT vec_id, own, nb_label,
         row_number() OVER (PARTITION BY vec_id
                            ORDER BY dot DESC, nb) AS rn
  FROM d
), c AS (
  SELECT own AS label,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN nb_label = own THEN 1 ELSE 0 END)
              AS BIGINT) AS n_correct
  FROM nn WHERE rn = 1 GROUP BY 1
)
SELECT CAST(-1 AS BIGINT) AS label,
       CAST(sum(n) AS BIGINT) AS n,
       CAST(sum(n_correct) AS BIGINT) AS n_correct,
       CAST(sum(n_correct) * 1000000 // sum(n) AS BIGINT)
         AS accuracy_ppm
FROM c
UNION ALL
SELECT CAST(label AS BIGINT), n, n_correct,
       CAST(n_correct * 1000000 // n AS BIGINT)
FROM c ORDER BY 1
"""


def hard_negative_topk(sf_dir: str, n_anchors: int = 20,
                       k: int = 3) -> pa.Table:
    """HARD-NEGATIVE mining for contrastive training: for each anchor
    vector (vec_id < n_anchors), the k most-similar vectors whose label
    DIFFERS from the anchor's -- the negatives that actually teach the
    margin.  Similarities are rounded-to-4 cosine (the same
    DuckDB-parity contract as knn_cosine_topk) and ranked in integer
    1e4 units (floor(round4 * 1e4 + 0.5)) so the selection is
    hash-replicable end to end.

    Scale shape: the anchor matrix (n_anchors x d) + labels broadcast
    once; each block does one gemv per anchor (float64, same op order
    as the green knn path -- NOT one gemm, whose different summation
    order could flip a rounded 4th decimal) and keeps k partial rows
    per anchor, so the shuffle moves O(anchors x k x blocks) tiny rows;
    one single-partition pass ranks the partials.
    """
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    at = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding", "label"],
                       filters=[("vec_id", "<", n_anchors)])
    at = at.sort_by([("vec_id", "ascending")])
    from ..functions.vectors import list_to_matrix
    amat = list_to_matrix(at["embedding"]).astype(np.float64)
    anorm = np.linalg.norm(amat, axis=1)
    anorm[anorm == 0] = 1.0
    amat = amat / anorm[:, None]
    a_ids = at["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_lab = at["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_ref = ray.put((a_ids, a_lab, amat))

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    empty = pa.table({"anchor_id": pa.array([], type=pa.int64()),
                      "neg_id": pa.array([], type=pa.int64()),
                      "neg_label": pa.array([], type=pa.int64()),
                      "sim_units": pa.array([], type=pa.int64())})

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids, labs, A = ray.get(a_ref)
        mat = list_to_matrix(t["embedding"]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vlab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_a, out_n, out_l, out_s = [], [], [], []
        for j in range(ids.shape[0]):
            sims = (mat @ A[j]) / norms      # gemv: knn-parity op order
            units = np.floor(np.round(sims, 4) * 10000 + 0.5) \
                .astype(np.int64)
            mask = vlab != labs[j]
            if not mask.any():
                continue
            mi = np.nonzero(mask)[0]
            order = mi[np.lexsort((vid[mi], -units[mi]))[:k]]
            out_a.append(np.full(order.shape[0], ids[j], dtype=np.int64))
            out_n.append(vid[order])
            out_l.append(vlab[order])
            out_s.append(units[order])
        if not out_a:
            return empty
        return pa.table({
            "anchor_id": pa.array(np.concatenate(out_a)),
            "neg_id": pa.array(np.concatenate(out_n)),
            "neg_label": pa.array(np.concatenate(out_l)),
            "sim_units": pa.array(np.concatenate(out_s)),
        })

    def final_rank(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"anchor_id": pa.array([], type=pa.int64()),
                             "rnk": pa.array([], type=pa.int64()),
                             "neg_id": pa.array([], type=pa.int64()),
                             "neg_label": pa.array([], type=pa.int64()),
                             "sim_units": pa.array([], type=pa.int64())})
        aid = t["anchor_id"].to_numpy(zero_copy_only=False)
        nid = t["neg_id"].to_numpy(zero_copy_only=False)
        nlab = t["neg_label"].to_numpy(zero_copy_only=False)
        su = t["sim_units"].to_numpy(zero_copy_only=False)
        order = np.lexsort((nid, -su, aid))
        a_s = aid[order]
        new_grp = np.ones(order.shape[0], dtype=bool)
        new_grp[1:] = a_s[1:] != a_s[:-1]
        starts = np.nonzero(new_grp)[0]
        first = np.repeat(starts,
                          np.diff(np.append(starts, order.shape[0])))
        rank = np.arange(order.shape[0]) - first
        sel = rank < k
        keep = order[sel]
        return pa.table({
            "anchor_id": pa.array(a_s[sel]),
            "rnk": pa.array((rank[sel] + 1).astype(np.int64)),
            "neg_id": pa.array(nid[keep]),
            "neg_label": pa.array(nlab[keep]),
            "sim_units": pa.array(su[keep]),
        })

    out = (ds.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True)
           .repartition(1)
           .map_batches(final_rank, batch_format="pyarrow")
           .to_pandas().sort_values(["anchor_id", "rnk"])
           .reset_index(drop=True))
    return pa.table({
        "anchor_id": pa.array(out["anchor_id"].astype("int64")),
        "rnk": pa.array(out["rnk"].astype("int64")),
        "neg_id": pa.array(out["neg_id"].astype("int64")),
        "neg_label": pa.array(out["neg_label"].astype("int64")),
        "sim_units": pa.array(out["sim_units"].astype("int64")),
    })


HARD_NEGATIVE_SQL = """
WITH a AS (
  SELECT vec_id AS anchor_id, label AS alabel,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS av
  FROM embeddings WHERE vec_id < 20
), s AS (
  SELECT a.anchor_id, e.vec_id AS neg_id,
         CAST(e.label AS BIGINT) AS neg_label,
         CAST(FLOOR(round(list_cosine_similarity(
                list_transform(e.embedding, x -> CAST(x AS DOUBLE)),
                a.av), 4) * 10000 + 0.5e0) AS BIGINT) AS sim_units
  FROM embeddings e JOIN a ON e.label <> a.alabel
), r AS (
  SELECT *, row_number() OVER (PARTITION BY anchor_id
                               ORDER BY sim_units DESC, neg_id) AS rnk
  FROM s
)
SELECT anchor_id, CAST(rnk AS BIGINT) AS rnk, neg_id, neg_label,
       sim_units
FROM r WHERE rnk <= 3 ORDER BY anchor_id, rnk
"""


def contrastive_margin_report(sf_dir: str,
                              n_anchors: int = 20) -> pa.Table:
    """EMBEDDING-quality margin audit: for each anchor (vec_id <
    n_anchors), the best SAME-label similarity (its hardest positive,
    itself excluded) minus the best DIFFERENT-label similarity (its
    hardest negative) in integer 1e4 units -- negative margins flag
    anchors whose nearest neighbor crosses the class boundary, the
    per-sample readout contrastive training monitors.

    Scale shape: same broadcast + per-block gemv + O(anchors) partial
    rows as hard_negative_topk, except each block keeps ONE best
    positive and ONE best negative per anchor; a single-partition pass
    folds the partials (max by (units, -neg_id) composite per side).
    """
    import pyarrow.parquet as pq

    at = pq.read_table(f"{sf_dir}/embeddings.parquet",
                       columns=["vec_id", "embedding", "label"],
                       filters=[("vec_id", "<", n_anchors)])
    at = at.sort_by([("vec_id", "ascending")])
    from ..functions.vectors import list_to_matrix
    amat = list_to_matrix(at["embedding"]).astype(np.float64)
    anorm = np.linalg.norm(amat, axis=1)
    anorm[anorm == 0] = 1.0
    amat = amat / anorm[:, None]
    a_ids = at["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_lab = at["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    a_ref = ray.put((a_ids, a_lab, amat))

    ds = read_table(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    empty = pa.table({"anchor_id": pa.array([], type=pa.int64()),
                      "side": pa.array([], type=pa.int64()),
                      "cand_id": pa.array([], type=pa.int64()),
                      "sim_units": pa.array([], type=pa.int64())})

    def partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        ids, labs, A = ray.get(a_ref)
        mat = list_to_matrix(t["embedding"]).astype(np.float64)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        vid = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vlab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        out_a, out_side, out_c, out_s = [], [], [], []
        for j in range(ids.shape[0]):
            sims = (mat @ A[j]) / norms
            units = np.floor(np.round(sims, 4) * 10000 + 0.5) \
                .astype(np.int64)
            for side, mask in ((0, (vlab == labs[j]) & (vid != ids[j])),
                               (1, vlab != labs[j])):
                if not mask.any():
                    continue
                mi = np.nonzero(mask)[0]
                best = mi[np.lexsort((vid[mi], -units[mi]))[0]]
                out_a.append(ids[j])
                out_side.append(side)
                out_c.append(vid[best])
                out_s.append(units[best])
        if not out_a:
            return empty
        return pa.table({
            "anchor_id": pa.array(np.asarray(out_a, dtype=np.int64)),
            "side": pa.array(np.asarray(out_side, dtype=np.int64)),
            "cand_id": pa.array(np.asarray(out_c, dtype=np.int64)),
            "sim_units": pa.array(np.asarray(out_s, dtype=np.int64)),
        })

    def final(t: pa.Table) -> pa.Table:
        cols = {"anchor_id": pa.array([], type=pa.int64()),
                "pos_id": pa.array([], type=pa.int64()),
                "neg_id": pa.array([], type=pa.int64()),
                "pos_units": pa.array([], type=pa.int64()),
                "neg_units": pa.array([], type=pa.int64()),
                "margin_units": pa.array([], type=pa.int64())}
        if t.num_rows == 0:
            return pa.table(cols)
        aid = t["anchor_id"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        cid = t["cand_id"].to_numpy(zero_copy_only=False)
        su = t["sim_units"].to_numpy(zero_copy_only=False)
        res = {}
        for s_want in (0, 1):
            m = side == s_want
            a_m, c_m, u_m = aid[m], cid[m], su[m]
            order = np.lexsort((c_m, -u_m, a_m))
            a_s = a_m[order]
            first = np.ones(order.shape[0], dtype=bool)
            first[1:] = a_s[1:] != a_s[:-1]
            res[s_want] = dict(zip(a_s[first].tolist(),
                                   zip(c_m[order][first].tolist(),
                                       u_m[order][first].tolist())))
        common = sorted(set(res[0]) & set(res[1]))
        return pa.table({
            "anchor_id": pa.array(common, type=pa.int64()),
            "pos_id": pa.array([res[0][a][0] for a in common],
                               type=pa.int64()),
            "neg_id": pa.array([res[1][a][0] for a in common],
                               type=pa.int64()),
            "pos_units": pa.array([res[0][a][1] for a in common],
                                  type=pa.int64()),
            "neg_units": pa.array([res[1][a][1] for a in common],
                                  type=pa.int64()),
            "margin_units": pa.array(
                [res[0][a][1] - res[1][a][1] for a in common],
                type=pa.int64()),
        })

    out = (ds.map_batches(partials, batch_format="pyarrow",
                          zero_copy_batch=True)
           .repartition(1)
           .map_batches(final, batch_format="pyarrow")
           .to_pandas().sort_values("anchor_id").reset_index(drop=True))
    return pa.table({c: pa.array(out[c].astype("int64"))
                     for c in ("anchor_id", "pos_id", "neg_id",
                               "pos_units", "neg_units",
                               "margin_units")})


CONTRASTIVE_MARGIN_SQL = """
WITH a AS (
  SELECT vec_id AS anchor_id, label AS alabel,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS av
  FROM embeddings WHERE vec_id < 20
), s AS (
  SELECT a.anchor_id, a.alabel, e.vec_id AS cand_id, e.label,
         CAST(FLOOR(round(list_cosine_similarity(
                list_transform(e.embedding, x -> CAST(x AS DOUBLE)),
                a.av), 4) * 10000 + 0.5e0) AS BIGINT) AS sim_units
  FROM embeddings e JOIN a ON e.vec_id <> a.anchor_id
), pos AS (
  SELECT anchor_id, cand_id AS pos_id, sim_units AS pos_units,
         row_number() OVER (PARTITION BY anchor_id
                            ORDER BY sim_units DESC, cand_id) AS rn
  FROM s WHERE label = alabel
), neg AS (
  SELECT anchor_id, cand_id AS neg_id, sim_units AS neg_units,
         row_number() OVER (PARTITION BY anchor_id
                            ORDER BY sim_units DESC, cand_id) AS rn
  FROM s WHERE label <> alabel
)
SELECT p.anchor_id, p.pos_id, n.neg_id, p.pos_units, n.neg_units,
       p.pos_units - n.neg_units AS margin_units
FROM pos p JOIN neg n ON n.anchor_id = p.anchor_id
WHERE p.rn = 1 AND n.rn = 1
ORDER BY p.anchor_id
"""


def frequent_directions_embed(sf_dir: str, ell: int = 16,
                              top_k: int = 8) -> pa.Table:
    """FREQUENT-DIRECTIONS covariance sketch of the embedding table
    (Liberty KDD'13; Ghashami et al. SICOMP'16): per-block FD partials
    tree-merge (append + re-shrink -- the bound survives ANY merge
    order), then the sketched spectrum is audited against the exact
    Gram matrix: the published guarantee
    ||A^T A - B^T B||_2 <= ||A||_F^2 / ell is ASSERTED in-pipeline, so
    a green run certifies the sketch, not just produces it.

    Rows-only query (randomized-free but float-spectral: no
    deterministic SQL twin); the audit replaces the oracle, like
    KLL / t-digest.

    Scale shape: each partial is an (ell x d) float64 block --
    kilobytes -- regardless of input rows; the exact Gram used by the
    audit is a per-block d x d partial sum (exact at any scale, d^2
    floats through the shuffle), NOT a data pull.
    """
    from ..sketches.freqdirs import FrequentDirections
    from ..stages.generic_build import build_and_merge

    ds = read_table(sf_dir, "embeddings", ["embedding"])
    d = len(ds.take(1)[0]["embedding"])

    def add(s: FrequentDirections, t: pa.Table) -> None:
        emb = t["embedding"]
        if t.num_rows == 0:
            return
        flat = pc.list_flatten(emb).to_numpy(zero_copy_only=False)
        s.add_batch(flat.reshape(t.num_rows, d).astype(np.float64))

    fd = build_and_merge(ds, ["embedding"],
                         lambda: FrequentDirections(ell, d), add)

    gram_empty = pa.table({"g": pa.array([], type=pa.binary())})

    def gram_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return gram_empty
        x = pc.list_flatten(t["embedding"]).to_numpy(
            zero_copy_only=False).reshape(t.num_rows, d).astype(
            np.float64)
        return pa.table({"g": pa.array([(x.T @ x).tobytes()],
                                       type=pa.binary())})

    parts = ds.map_batches(gram_partial, batch_format="pyarrow",
                           zero_copy_batch=True).take_all()
    gram_exact = np.zeros((d, d))
    for row in parts:  # O(blocks) d x d partials -- kilobytes each
        gram_exact += np.frombuffer(row["g"], dtype=np.float64) \
            .reshape(d, d)

    err, bound = fd.cov_error_vs(gram_exact)
    assert err <= bound + 1e-9, \
        f"FD covariance guarantee violated: {err} > {bound}"

    eig_sk = np.sort(np.linalg.eigvalsh(fd.gram()))[::-1][:top_k]
    eig_ex = np.sort(np.linalg.eigvalsh(gram_exact))[::-1][:top_k]
    return pa.table({
        "component": pa.array(np.arange(top_k, dtype=np.int64)),
        "exact_eig": pa.array(np.round(eig_ex, 6)),
        "sketched_eig": pa.array(np.round(eig_sk, 6)),
        "n_rows": pa.array(np.full(top_k, fd.n_rows, dtype=np.int64)),
        "ell": pa.array(np.full(top_k, ell, dtype=np.int64)),
        "spectral_err": pa.array(np.full(top_k, round(err, 6))),
        "err_bound": pa.array(np.full(top_k, round(bound, 6))),
    })


def srp_cosine_hamming(sf_dir: str, n_planes: int = 64,
                       max_vec_id: int = 40) -> pa.Table:
    """SIGNED RANDOM PROJECTIONS (Charikar, STOC 2002 s3; the
    hyperplane-LSH estimator SimHash generalizes): each embedding is
    compressed to n_planes sign bits -- bit p is the sign of the dot
    product with a pseudo-random hyperplane whose +/-1 coordinates come
    from the murmur64 parity of (dim * 256 + plane), so the planes are
    a pure hash function both numpy and DuckDB evaluate identically.
    P(bits agree) = 1 - theta/pi, so the Hamming distance h between two
    signatures estimates the angle, and cos(pi * h / P) estimates the
    cosine.  Emitted per bounded pair: h, the SRP cosine estimate, and
    the exact cosine it approximates (both rounded to 4 decimals, the
    knn_cosine_topk float-compare tier).

    Embeddings are quantized to int64 micro-units BEFORE the sign dot
    products (floor(v * 1e6 + 0.5)), so every sign bit and the exact
    cosine's numerator/norms are integer-exact across engines -- the
    only floats are the two final cos/sqrt calls on identical doubles.

    Verification-tier pair query (vec_id < max_vec_id).  The scale
    path: the 64-bit signature IS the LSH key -- lsh_ann_topk buckets
    by signature prefix, and the estimator here prices its candidate
    pairs without touching the raw vectors (8 bytes vs 256 per row on
    the shuffle).
    """
    import pyarrow.dataset as pads

    from ..functions.vectors import list_to_matrix
    from ..hashing import murmur64

    P = n_planes
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        filter=(pads.field("vec_id") < max_vec_id))

    def encode(t: pa.Table) -> pa.Table:
        mat = list_to_matrix(t["embedding"])          # (n, d) float
        q = np.floor(mat.astype(np.float64) * 1e6 + 0.5).astype(np.int64)
        d = q.shape[1]
        # +/-1 planes from hash parity: signs[dim, plane]
        idx = (np.arange(d, dtype=np.int64)[:, None] * 256
               + np.arange(P, dtype=np.int64)[None, :])
        signs = (murmur64(idx.ravel()) % np.uint64(2)).astype(
            np.int64).reshape(d, P) * 2 - 1
        proj = q @ signs                               # int64 exact
        bits = (proj > 0).astype(np.int64)
        n2 = (q * q).sum(axis=1)                       # int64 exact
        return pa.table({
            "vec_id": pa.array(t["vec_id"].to_numpy(
                zero_copy_only=False).astype(np.int64)),
            **{f"b{i}": pa.array(bits[:, i]) for i in range(P)},
            "n2": pa.array(n2),
            "q": pa.array(list(q), type=pa.list_(pa.int64())),
        })

    rows = ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True).take_all()
    rows.sort(key=lambda r: r["vec_id"])               # bounded pull
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    bits = np.array([[r[f"b{i}"] for i in range(P)] for r in rows],
                    dtype=np.int64)
    n2 = np.array([r["n2"] for r in rows], dtype=np.int64)
    qm = np.array([r["q"] for r in rows], dtype=np.int64)

    n = ids.size
    ia, ib = np.triu_indices(n, k=1)
    h = (bits[ia] != bits[ib]).sum(axis=1).astype(np.int64)
    est = np.round(np.cos(np.pi * h / P), 4)
    dot = (qm[ia] * qm[ib]).sum(axis=1)                # int64 exact
    exact = np.round(dot / (np.sqrt(n2[ia].astype(np.float64))
                            * np.sqrt(n2[ib].astype(np.float64))), 4)
    return pa.table({
        "vec_a": pa.array(ids[ia]),
        "vec_b": pa.array(ids[ib]),
        "hamming": pa.array(h),
        "est_cos": pa.array(est, type=pa.float64()),
        "exact_cos": pa.array(exact, type=pa.float64()),
    })


def _srp_cosine_sql(n_planes: int = 64, max_vec_id: int = 40) -> str:
    """SQL twin builder parameterized on the same defaults as the
    Python kernel, so non-default args keep parity (ADVICE r4)."""
    return f"""
WITH e AS (
  SELECT vec_id, unnest(embedding) AS v,
         generate_subscripts(embedding, 1) - 1 AS d
  FROM embeddings WHERE vec_id < {max_vec_id}
), q AS (
  SELECT vec_id, d, CAST(floor(v * 1000000 + 0.5) AS BIGINT) AS qv
  FROM e
), planes AS (
  SELECT CAST(p.range AS BIGINT) AS p FROM range(0, {n_planes}) p
), proj AS (
  SELECT q.vec_id, planes.p,
         sum(q.qv * (CAST(hash(q.d * 256 + planes.p) % 2 AS BIGINT)
                     * 2 - 1)) AS s
  FROM q CROSS JOIN planes GROUP BY 1, 2
), bits AS (
  SELECT vec_id, p, CASE WHEN s > 0 THEN 1 ELSE 0 END AS bit FROM proj
), n2 AS (
  SELECT vec_id, sum(qv * qv) AS n2 FROM q GROUP BY 1
), ham AS (
  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
         CAST(sum(CASE WHEN a.bit <> b.bit THEN 1 ELSE 0 END) AS BIGINT)
           AS hamming
  FROM bits a JOIN bits b ON a.p = b.p AND a.vec_id < b.vec_id
  GROUP BY 1, 2
), dots AS (
  SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
         sum(a.qv * b.qv) AS dot
  FROM q a JOIN q b ON a.d = b.d AND a.vec_id < b.vec_id
  GROUP BY 1, 2
)
SELECT ham.vec_a, ham.vec_b, ham.hamming,
       round(cos(pi() * ham.hamming / {n_planes}), 4) AS est_cos,
       round(dots.dot / (sqrt(na.n2) * sqrt(nb.n2)), 4) AS exact_cos
FROM ham
JOIN dots ON dots.vec_a = ham.vec_a AND dots.vec_b = ham.vec_b
JOIN n2 na ON na.vec_id = ham.vec_a
JOIN n2 nb ON nb.vec_id = ham.vec_b
ORDER BY 1, 2
"""


SRP_COSINE_SQL = _srp_cosine_sql()
