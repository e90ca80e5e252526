"""Distributed connected components over an edge Dataset -- the cluster-
canonicalization step a production dedup pipeline runs AFTER candidate
pairs are found (near-dup pairs say "a ~ b"; keeping one doc per
duplicate CLUSTER needs the transitive closure).

Algorithm: alternating large-star / small-star (Kiveris, Lattanzi,
Mirrokni, Rastogi, Vassilvitskii, "Connected Components in MapReduce and
Beyond", SoCC 2014).  Each round is ONE coarse hash co-partition of the
(both-direction) edge list keyed on the center node with a fully
vectorized per-partition kernel -- no joins, no per-node Python -- and
the edge set provably converges to stars (every node linked to its
component minimum) in O(log n) rounds.  Shuffle traffic per round is
O(|E|) 16-byte rows and shrinks monotonically after the first small-star;
the only driver-side state is a (count, checksum) convergence scalar per
round.  This is the scale path for 10^12-document corpora where even the
candidate-pair graph can be billions of edges.

The reference has no graph operators (its igraph topologies,
/root/reference/graph.cpp:7-135, simulate gossip peers, not data); this
is a north-star addition in the same spirit as the dedup stack.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..sources.tables import read_table
from ..stages.combine import combine_agg, named
from ..stages.partition import fit_partitions, partition_by
from ..stages.sketch_build import collect

_EMPTY_EDGES = pa.table({"a": pa.array([], type=pa.int64()),
                         "b": pa.array([], type=pa.int64())})


def _canonical_dedup(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Drop self-loops, canonicalize lo<hi, sort + unique."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.shape[0] == 0:
        return _EMPTY_EDGES
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    uniq = np.ones(lo.shape[0], dtype=bool)
    uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return pa.table({"a": pa.array(lo[uniq]), "b": pa.array(hi[uniq])})


def _star_round(edges: "ray.data.Dataset", large: bool,
                nparts: int) -> "ray.data.Dataset":
    """One large-star (connect every v>u neighbor to min(N+(u))) or
    small-star (connect every v<=u neighbor, and u itself, to the min)
    round: both-direction expansion + center-keyed co-partition +
    vectorized run kernel."""

    def both(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"u": pa.array([], type=pa.int64()),
                             "v": pa.array([], type=pa.int64())})
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({"u": pa.array(np.concatenate([a, b])),
                         "v": pa.array(np.concatenate([b, a]))})

    def kernel(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        n = u.shape[0]
        new = np.ones(n, dtype=bool)
        new[1:] = u[1:] != u[:-1]
        starts = np.nonzero(new)[0]
        rlen = np.diff(np.append(starts, n))
        m_run = np.minimum(np.minimum.reduceat(v, starts), u[starts])
        m_row = np.repeat(m_run, rlen)
        if large:
            mask = v > u
            out_a, out_b = v[mask], m_row[mask]
        else:
            mask = v <= u
            out_a = np.concatenate([v[mask], u[starts]])
            out_b = np.concatenate([m_row[mask], m_run])
        return _canonical_dedup(out_a, out_b)

    # dedup happens within each partition only: a canonical pair can
    # survive in at most two partitions (its two centers), so the edge
    # multiset stays within 2x of the distinct set -- and because the
    # kernels and hash partitioning are deterministic, the multiset
    # still reaches a fixpoint the signature detects.  Skipping a
    # global-distinct exchange halves the executions per round.
    # coalesce=False: rounds are chained two-per-execution and the edge
    # multiset shrinks monotonically -- a mid-chain materialize would
    # cost more than the (few-block) sort it optimizes
    return partition_by(edges.map_batches(both, batch_format="pyarrow"),
                        ["u"], nparts, kernel, _EMPTY_EDGES,
                        coalesce=False)


def _edge_signature(edges: "ray.data.Dataset") -> tuple[int, int]:
    """(count, order-independent checksum) of the canonical edge set --
    the two scalars the driver keeps per round for convergence."""
    from ..hashing import splitmix64

    def cks(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"n": pa.array([0], type=pa.int64()),
                             "s": pa.array([0], type=pa.int64())})
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        h = splitmix64(a * np.int64(1_000_003) + b)
        s = int((h >> np.uint64(1)).astype(np.int64).sum() % (1 << 62))
        return pa.table({"n": pa.array([t.num_rows], type=pa.int64()),
                         "s": pa.array([s], type=pa.int64())})

    # small-graph fast path: the fixpoint loop calls this every round;
    # when the (materialized) edge set is tiny the checksum is cheaper
    # on the driver than one more distributed execution.  The pull is
    # BOUNDED (<= 64Ki 16-byte rows = 1 MiB); bigger graphs keep the
    # distributed aggregate.
    try:
        n_edges = edges.count()
    except Exception:
        n_edges = None
    if n_edges is not None and n_edges <= 65536:
        n_tot, s_tot = 0, 0
        for ref in edges.materialize().to_arrow_refs():
            t = ray.get(ref)
            if t.num_rows == 0:
                continue
            part = cks(t)
            n_tot += int(part["n"][0].as_py())
            s_tot += int(part["s"][0].as_py())
        return n_tot, s_tot % (1 << 62)

    from ray.data.aggregate import Sum
    agg = edges.map_batches(cks, batch_format="pyarrow").aggregate(
        Sum("n", alias_name="n"), Sum("s", alias_name="s"))
    return int(agg["n"] or 0), int((agg["s"] or 0) % (1 << 62))


def converged_star_edges(edges: "ray.data.Dataset",
                         max_rounds: int = 64) -> "ray.data.Dataset":
    """Run the alternating-star fixpoint to convergence and return the
    final MATERIALIZED edge set, which is a union of stars: every
    non-minimum node of a component appears exactly once as ``b`` with
    its component's minimum id as ``a`` (Kiveris et al. SoCC'14
    termination invariant)."""
    edges = edges.materialize()
    sig = _edge_signature(edges)
    # right-size the exchange to the LIVE edge count: a candidate graph
    # of billions of edges gets the full CPU-width exchange, a
    # post-filter graph of thousands doesn't pay 16-way shuffle
    # overhead (the edge multiset only shrinks across rounds)
    nparts = max(2, min(fit_partitions(16), (sig[0] >> 16) + 2))
    for _ in range(max_rounds):
        # chain large-star -> small-star in ONE streaming execution per
        # round (two sequential sort exchanges, one executor startup):
        # measured ~1/3 fewer Dataset executions across the fixpoint
        edges = _star_round(_star_round(edges, large=True, nparts=nparts),
                            large=False, nparts=nparts).materialize()
        new_sig = _edge_signature(edges)
        if new_sig == sig:
            return edges
        sig = new_sig
    raise RuntimeError(f"connected_components did not converge in "
                       f"{max_rounds} rounds")


def connected_components(edges: "ray.data.Dataset",
                         nodes: "ray.data.Dataset",
                         max_rounds: int = 64) -> "ray.data.Dataset":
    """Labels every node with the minimum node id of its connected
    component.  ``edges``: columns (a, b) int64, undirected, self-loops
    and duplicates tolerated.  ``nodes``: column (node) -- isolated
    nodes keep their own id.  Returns columns (node, component)."""
    edges = converged_star_edges(edges, max_rounds)

    def leaf_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["b"], "component": t["a"]})

    def self_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "component": t["node"]})

    lab = edges.map_batches(leaf_labels, batch_format="pyarrow").union(
        nodes.map_batches(self_labels, batch_format="pyarrow"))
    return combine_agg(lab, ["node"], lambda t: t, [("component", "min")],
                       named("node", "component"))


def neardup_components(sf_dir: str, k: int = 9, max_doc_id: int = 40,
                       jacc_den: int = 16) -> pa.Table:
    """Driver query: connected components of the exact n-gram Jaccard
    similarity graph (edge iff jacc_den * |inter| >= |union|, i.e.
    Jaccard >= 1/jacc_den) over documents with doc_id < max_doc_id --
    composing the verification-tier pair finder with the cluster
    canonicalizer.  Output: (doc_id, component) one row per document;
    oracle = the same pairs CTE + a recursive-CTE transitive closure."""
    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir, k=k, max_doc_id=max_doc_id)
    good = pa.compute.greater_equal(
        pa.compute.multiply(pairs["inter"], pa.scalar(jacc_den,
                                                      type=pa.int64())),
        pairs["uni"])
    sel = pairs.filter(good)
    edges = ray.data.from_arrow(pa.table({"a": sel["doc_a"],
                                          "b": sel["doc_b"]}))
    import pyarrow.dataset as pads
    nodes = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"],
        filter=(pads.field("doc_id") < max_doc_id)).map_batches(
        lambda t: pa.table({"node": t["doc_id"]}), batch_format="pyarrow")

    out = connected_components(edges, nodes).to_pandas()
    out = out.sort_values("node").reset_index(drop=True)
    return pa.table({
        "doc_id": pa.array(out["node"].to_numpy().astype(np.int64)),
        "component": pa.array(out["component"].to_numpy()
                              .astype(np.int64)),
    })


def neardup_keep_stats(sf_dir: str, k: int = 9, max_doc_id: int = 40,
                       jacc_den: int = 16) -> pa.Table:
    """The near-dup KEEP step: after clustering the similarity graph,
    keep exactly one document per connected component (the component's
    min doc_id) and report the surviving corpus per lang -- the
    composition that turns candidate pairs into an actual deduplicated
    training corpus (exact-dedup's dedup_exact_keep, near-dup edition).

    Keep rule: a doc survives iff it IS its component's label (the
    component id is already the min doc_id by construction) --
    equivalently, iff it is NOT a leaf of the converged star forest,
    which skips the per-node label aggregation entirely: the DROP set
    is exactly the final stars' ``b`` column (one row per dropped doc).
    The drop-set broadcast is bounded by this verification tier's
    ``max_doc_id`` cap; the unbounded-corpus path is the distributed
    semi-join used by dedup_exact_keep."""
    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir, k=k, max_doc_id=max_doc_id)
    good = pa.compute.greater_equal(
        pa.compute.multiply(pairs["inter"], pa.scalar(jacc_den,
                                                      type=pa.int64())),
        pairs["uni"])
    sel_p = pairs.filter(good)
    stars = collect(converged_star_edges(ray.data.from_arrow(
        pa.table({"a": sel_p["doc_a"], "b": sel_p["doc_b"]}))))
    drop = (np.unique(stars["b"].to_numpy(zero_copy_only=False)
                      .astype(np.int64)) if stars.num_rows
            else np.empty(0, dtype=np.int64))

    import pyarrow.dataset as pads
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
        filter=(pads.field("doc_id") < max_doc_id))
    ids_ref = ray.put(drop)

    def kept(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.filter(pa.array(~np.isin(ids, ray.get(ids_ref))))
        return pa.table({"lang": t["lang"],
                         "chars": pc.cast(t["n_chars"], pa.int64())})

    return collect(combine_agg(
        docs, ["lang"], kept, [("chars", "count"), ("chars", "sum")],
        named("lang", "n_kept", "sum_chars"))).sort_by("lang")


def pagerank_part_supplier(sf_dir: str, iters: int = 3,
                           top_k: int = 20) -> pa.Table:
    """Fixed-iteration PAGERANK over the part<->supplier bipartite graph
    (edges = distinct (l_partkey, l_suppkey) pairs of lineitem) -- the
    engine's iterative-numeric message-passing class, complementing the
    label-propagation class above.  All arithmetic is INTEGER
    (rank mass in parts-per-trillion, damping 85/100 applied as
    ``(r * 85) // (100 * deg)`` with per-edge flooring), so the result
    is bit-exact against a chained-CTE DuckDB replica -- no float
    summation order anywhere.

    Scale shape: the distinct-edge build is a composite-key groupby
    (O(|E|) 16-byte rows); node degrees attach to edges ONCE via a
    src-keyed co-partition (static across iterations, materialized).
    The node set here is DIMENSION-sized (parts + suppliers), so each
    round broadcasts the sorted (v, r) vector once via ray.put and every
    edge looks its source's rank up by searchsorted; ``combine_agg``
    folds the contributions per dst in each batch, and its
    O(|E|-combined) integer sum exchange is the only shuffle per round.
    For a corpus-sized node set (a web graph) swap the broadcast for
    the same src-keyed co-partition ``attach_deg`` uses; the iteration
    body is otherwise identical."""
    SCALE = np.int64(1_000_000_000_000)
    ds = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def edge_partial(t: pa.Table) -> pa.Table:
        p = pc.cast(t["l_partkey"], pa.int64()).to_numpy(
            zero_copy_only=False) * np.int64(2)
        s = pc.cast(t["l_suppkey"], pa.int64()).to_numpy(
            zero_copy_only=False) * np.int64(2) + np.int64(1)
        comp = np.unique((p << np.int64(32)) | s)
        return pa.table({"pair": pa.array(comp)})

    # distinct edges via the co-partition kernel: the pair key is
    # near-unique (~1 group/row), where Ray's aggregate pays ~6 us of
    # per-GROUP Python in the combine (measured 7.5 s on 1.2M groups)
    pair_empty = pa.table({"pair": pa.array([], type=pa.int64())})

    def pair_distinct(t: pa.Table) -> pa.Table:
        u = np.unique(t["pair"].to_numpy(zero_copy_only=False))
        return pa.table({"pair": pa.array(u)})

    pairs = partition_by(
        ds.map_batches(edge_partial, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["pair"], fit_partitions(16), pair_distinct, pair_empty)

    def expand(t: pa.Table) -> pa.Table:
        comp = t["pair"].to_numpy(zero_copy_only=False)
        a = comp >> np.int64(32)
        b = comp & np.int64((1 << 32) - 1)
        return pa.table({
            "src": pa.array(np.concatenate([a, b])),
            "dst": pa.array(np.concatenate([b, a])),
        })

    # edges and deg are each consumed by several stages -- pin them
    edges = pairs.map_batches(expand,
                              batch_format="pyarrow").materialize()
    deg = combine_agg(edges, ["src"], lambda t: t, [("src", "count")],
                      named("src", "d")).materialize()

    # attach static degree to edges once (src-keyed co-partition)
    ewd_empty = pa.table({"src": pa.array([], type=pa.int64()),
                          "dst": pa.array([], type=pa.int64()),
                          "d": pa.array([], type=pa.int64())})

    def attach_deg(t: pa.Table) -> pa.Table:
        flag = t["flag"].to_numpy(zero_copy_only=False)
        src = t["src"].to_numpy(zero_copy_only=False)
        val = t["dst"].to_numpy(zero_copy_only=False)  # deg rides dst col
        isd = flag == 1
        dv, dd = src[isd], val[isd]
        o = np.argsort(dv)
        pos = np.searchsorted(dv[o], src[~isd])
        return pa.table({
            "src": pa.array(src[~isd]),
            "dst": pa.array(val[~isd]),
            "d": pa.array(dd[o][pos]),
        })

    nparts = fit_partitions(16)
    deg_rows = deg.map_batches(lambda t: pa.table({
        "src": pc.cast(t["src"], pa.int64()),
        "dst": pc.cast(t["d"], pa.int64()),
        "flag": pa.array(np.ones(t.num_rows, np.int64)),
    }), batch_format="pyarrow")
    edge_rows = edges.map_batches(
        lambda t: t.append_column("flag",
                                  pa.array(np.zeros(t.num_rows, np.int64))),
        batch_format="pyarrow")
    ewd = partition_by(edge_rows.union(deg_rows), ["src"], nparts,
                       attach_deg, ewd_empty).materialize()

    # dimension-sized node vector, broadcast per round
    v_sorted = np.sort(deg.to_pandas()["src"].to_numpy(dtype=np.int64))
    n_nodes = v_sorted.shape[0]
    base = np.int64((int(SCALE) * 15) // (100 * n_nodes))
    ranks = np.full(n_nodes, np.int64(int(SCALE) // n_nodes), np.int64)

    for _ in range(iters):
        ref = ray.put((v_sorted, ranks))

        def contribute(t: pa.Table) -> pa.Table:
            vs, rs = ray.get(ref)
            src = t["src"].to_numpy(zero_copy_only=False)
            d = t["d"].to_numpy(zero_copy_only=False)
            r_of_src = rs[np.searchsorted(vs, src)]
            c = (r_of_src * np.int64(85)) // (np.int64(100) * d)
            return pa.table({"dst": t["dst"], "c": pa.array(c)})

        summed = combine_agg(ewd, ["dst"], contribute, [("c", "sum")],
                             named("dst", "c")).to_pandas()
        # every node of this undirected graph receives >= 1 contribution
        pos = np.searchsorted(v_sorted,
                              summed["dst"].to_numpy(dtype=np.int64))
        new_r = np.full(n_nodes, base, np.int64)
        new_r[pos] = base + summed["c"].to_numpy(dtype=np.int64)
        ranks = new_r

    o = np.lexsort((v_sorted, -ranks))[:top_k]
    return pa.table({
        "node_id": pa.array(v_sorted[o]),
        "rank_ppt": pa.array(ranks[o]),
    })


def _pagerank_sql(iters: int = 3, top_k: int = 20) -> str:
    prev = "r0"
    its = ""
    for i in range(1, iters + 1):
        its += f""", r{i} AS (
  SELECT e.dst AS v,
         CAST((SELECT b FROM base)
              + sum(({prev}.r * 85) // (100 * deg.d)) AS BIGINT) AS r
  FROM edges e JOIN {prev} ON {prev}.v = e.src
  JOIN deg ON deg.src = e.src
  GROUP BY 1
)"""
        prev = f"r{i}"
    return f"""
WITH pairs AS (
  SELECT DISTINCT l_partkey * 2 AS a, l_suppkey * 2 + 1 AS b FROM lineitem
), edges AS (
  SELECT a AS src, b AS dst FROM pairs
  UNION ALL SELECT b AS src, a AS dst FROM pairs
), deg AS (
  SELECT src, CAST(count(*) AS BIGINT) AS d FROM edges GROUP BY 1
), n AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM deg
), base AS (
  SELECT CAST((1000000000000 * 15) // (100 * n.n) AS BIGINT) AS b FROM n
), r0 AS (
  SELECT src AS v, CAST(1000000000000 // n.n AS BIGINT) AS r
  FROM deg CROSS JOIN n
){its}
SELECT v AS node_id, r AS rank_ppt FROM {prev}
QUALIFY row_number() OVER (ORDER BY r DESC, v) <= {top_k}
ORDER BY 2 DESC, 1
"""


PAGERANK_SQL = _pagerank_sql()


_TRI_SPAN = np.int64(1) << np.int64(31)  # composite (u, v) edge encoding


def _endpoints(t: pa.Table) -> pa.Table:
    """(node): both endpoints of every edge (a, b)."""
    return pa.table({"node": pa.array(np.concatenate([
        t["a"].to_numpy(zero_copy_only=False),
        t["b"].to_numpy(zero_copy_only=False)]).astype(np.int64))})


def _degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, d): every node of the undirected ``edges`` (a, b) with its
    degree."""
    return combine_agg(edges, ["node"], _endpoints, [("node", "count")],
                       named("node", "d"))


def triangle_stats(edges: "ray.data.Dataset") -> dict:
    """EXACT distributed triangle count + global clustering coefficient
    over an undirected edge dataset (columns ``a`` < ``b``, int64,
    distinct).  Degree-oriented wedge enumeration (Schank & Wagner 2005;
    the MapReduce form of Suri & Vassilvitskii WWW'11): orient every
    edge toward the higher-(degree, id) endpoint, enumerate the out-
    neighbor pairs of each vertex (sum out_deg^2 = O(E^1.5) work, never
    O(max_deg^2)), and close wedges against the edge set -- each
    triangle is counted exactly once, at its lowest-ordered vertex.

    Dataflow (all co-partitions, no driver-side adjacency):
      1. degree pass: ``_degrees``, an endpoint count per node;
      2. orientation: TWO degree-attach co-partition joins (edges by a,
         then by b) -- degrees are never broadcast (O(V) can be 10^9);
      3. wedge pass: src co-partition + the rank-arithmetic pair
         expansion over each vertex's sorted out-neighbors;
      4. closure: wedge/edge co-partition on the composite key,
         searchsorted membership, Sum of matched wedge multiplicities.

    Returns {n_vertices, n_edges, n_wedges, n_triangles} (wedges =
    sum d(d-1)/2 over UNDIRECTED degrees, for the clustering
    coefficient 3*tri/wedges)."""
    parts = fit_partitions(32)
    # the edge list is consumed by four downstream passes (degrees,
    # both orientation joins, closure) -- pin it once; O(E) rows is the
    # standard working set of any multi-pass graph algorithm
    edges = edges.materialize()

    # -- 1) undirected degrees ------------------------------------------
    degrees = _degrees(edges).materialize()  # totals + both joins

    # vertex / wedge totals (tiny scalar pass)
    def deg_stats(t: pa.Table) -> pa.Table:
        d = t["d"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_vertices": pa.array([t.num_rows], type=pa.int64()),
            "n_wedges": pa.array([int((d * (d - 1) // 2).sum())],
                                 type=pa.int64())})

    totals = (degrees.map_batches(deg_stats, batch_format="pyarrow")
              .sum(["n_vertices", "n_wedges"]))
    n_vertices = int(totals["sum(n_vertices)"])
    n_wedges = int(totals["sum(n_wedges)"])

    # -- 2) attach degrees to both endpoints (co-partition joins) -------
    def attach(col_key: str, deg_name: str, carry: list[str]):
        att_empty = pa.table(
            {**{c: pa.array([], type=pa.int64()) for c in carry},
             col_key: pa.array([], type=pa.int64()),
             deg_name: pa.array([], type=pa.int64())})

        def kernel(g: pa.Table) -> pa.Table:
            if g.num_rows == 0:
                return att_empty
            is_deg = g["_side"].to_numpy(zero_copy_only=False) == 1
            dn = g["_k"].to_numpy(zero_copy_only=False)[is_deg]
            dv = g["_v0"].to_numpy(zero_copy_only=False)[is_deg]
            order = np.argsort(dn)
            dn, dv = dn[order], dv[order]
            ek = g["_k"].to_numpy(zero_copy_only=False)[~is_deg]
            if ek.size == 0:
                return att_empty
            idx = np.searchsorted(dn, ek)
            cols = {}
            for i, c in enumerate(carry):
                cols[c] = pa.array(
                    g[f"_v{i}"].to_numpy(zero_copy_only=False)[~is_deg])
            cols[col_key] = pa.array(ek)
            cols[deg_name] = pa.array(dv[idx])
            return pa.table(cols)

        return att_empty, kernel

    # normalize both sides to (_k, _v0.., _side) and co-partition
    def tag_edges_a(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t["a"], "_v0": t["b"],
                         "_side": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t["node"], "_v0": t["d"],
                         "_side": pa.array(
                             np.ones(t.num_rows, dtype=np.int64))})

    e_a = edges.map_batches(tag_edges_a, batch_format="pyarrow",
                            zero_copy_batch=True)
    d_t = degrees.map_batches(tag_deg, batch_format="pyarrow")
    att_empty, kernel = attach("a", "da", ["b"])
    with_da = partition_by(e_a.union(d_t), ["_k"], parts, kernel,
                           att_empty)

    def tag_edges_b(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t["b"], "_v0": t["a"], "_v1": t["da"],
                         "_side": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    def tag_deg2(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t["node"], "_v0": t["d"],
                         "_v1": pa.array(np.zeros(t.num_rows,
                                                  dtype=np.int64)),
                         "_side": pa.array(
                             np.ones(t.num_rows, dtype=np.int64))})

    e_b = with_da.map_batches(tag_edges_b, batch_format="pyarrow")
    d_t2 = degrees.map_batches(tag_deg2, batch_format="pyarrow")
    att_empty2, kernel2 = attach("b", "db", ["a", "da"])
    full = partition_by(e_b.union(d_t2), ["_k"], parts, kernel2,
                        att_empty2)

    # -- 3) orient + wedge expansion ------------------------------------
    or_empty = pa.table({"src": pa.array([], type=pa.int64()),
                         "dst": pa.array([], type=pa.int64())})

    def orient(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return or_empty
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        da = t["da"].to_numpy(zero_copy_only=False)
        db = t["db"].to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        return pa.table({"src": pa.array(np.where(a_first, a, b)),
                         "dst": pa.array(np.where(a_first, b, a))})

    oriented = full.map_batches(orient, batch_format="pyarrow")

    wedge_empty = pa.table({"pair": pa.array([], type=pa.int64()),
                            "cnt": pa.array([], type=pa.int64())})

    def wedges(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return wedge_empty
        src = g["src"].to_numpy(zero_copy_only=False)
        dst = g["dst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((dst, src))
        s_s, d_s = src[order], dst[order]
        n = s_s.size
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = s_s[1:] != s_s[:-1]
        starts = np.nonzero(new_run)[0]
        rlen = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, rlen)
        cnt_a = np.repeat(rlen, rlen) - rank - 1
        total = int(cnt_a.sum())
        if total == 0:
            return wedge_empty
        a_idx = np.repeat(np.arange(n), cnt_a)
        excl = np.concatenate([[0], np.cumsum(cnt_a)[:-1]])
        b_idx = a_idx + (np.arange(total) - np.repeat(excl, cnt_a)) + 1
        x, y = d_s[a_idx], d_s[b_idx]
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        comp = lo * _TRI_SPAN + hi
        ucomp, c = np.unique(comp, return_counts=True)
        return pa.table({"pair": pa.array(ucomp),
                         "cnt": pa.array(c.astype(np.int64))})

    wedge_ds = partition_by(oriented, ["src"], parts, wedges, wedge_empty)

    # -- 4) close wedges against the edge set ---------------------------
    def tag_wedge(t: pa.Table) -> pa.Table:
        return pa.table({"_k": t["pair"], "_v0": t["cnt"],
                         "_side": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    def tag_edge_key(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table({"_k": pa.array(a * _TRI_SPAN + b),
                         "_v0": pa.array(np.ones(t.num_rows,
                                                 dtype=np.int64)),
                         "_side": pa.array(
                             np.ones(t.num_rows, dtype=np.int64))})

    closed_empty = pa.table({"tri": pa.array([], type=pa.int64())})

    def close(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return closed_empty
        side = g["_side"].to_numpy(zero_copy_only=False)
        ek = np.sort(g["_k"].to_numpy(zero_copy_only=False)[side == 1])
        wk = g["_k"].to_numpy(zero_copy_only=False)[side == 0]
        wc = g["_v0"].to_numpy(zero_copy_only=False)[side == 0]
        if ek.size == 0 or wk.size == 0:
            return closed_empty
        idx = np.searchsorted(ek, wk)
        idx[idx == ek.size] = 0
        hit = ek[idx] == wk
        return pa.table({"tri": pa.array([int(wc[hit].sum())],
                                         type=pa.int64())})

    w_t = wedge_ds.map_batches(tag_wedge, batch_format="pyarrow")
    e_t = edges.map_batches(tag_edge_key, batch_format="pyarrow",
                            zero_copy_batch=True)
    closed = partition_by(w_t.union(e_t), ["_k"], parts, close,
                          closed_empty)
    tri_sum = closed.sum("tri")
    n_triangles = int(tri_sum) if tri_sum is not None else 0
    n_edges = int(edges.count())
    return {"n_vertices": n_vertices, "n_edges": n_edges,
            "n_wedges": n_wedges, "n_triangles": n_triangles}


def copresence_edges(sf_dir: str,
                     user_mod: int = 3) -> "ray.data.Dataset":
    """Distinct-edge dataset (a < b) of the user co-presence graph
    (users adjacent iff they share >= 1 (event_type, hour) cell) --
    the shared distributed edge construction behind the triangle census
    and the assortativity audit.

    Edge construction is itself distributed: per-block distinct
    (cell, user) memberships, cell co-partition, within-cell sorted-run
    pair expansion, then a distinct-edge groupby -- the exchange moves
    O(memberships + candidate pairs) 16-byte rows.  The deterministic
    ``user_id % user_mod == 0`` panel bounds per-cell pair expansion
    (the synthetic co-presence rule makes the FULL graph near-complete
    at larger sf, which no triangle algorithm should be fed -- real
    graphs are sparse; the subsample keeps the gate query honest at
    every testdata scale)."""
    from .temporal import _as_int64

    parts = fit_partitions(32)
    events = read_table(sf_dir, "events", ["ts", "event_type", "user_id"])

    mem_empty = pa.table({"cell": pa.array([], type=pa.int64()),
                          "user": pa.array([], type=pa.int64())})

    def memberships(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mem_empty
        if user_mod > 1:
            uid_all = t["user_id"].to_numpy(zero_copy_only=False)
            t = t.filter(pa.array(uid_all % user_mod == 0))
            if t.num_rows == 0:
                return mem_empty
        hour = _as_int64(t["ts"]) // 3_600_000_000
        et = t["event_type"].to_numpy(zero_copy_only=False)
        ut, tinv = np.unique(et, return_inverse=True)
        # event types are a tiny global domain; per-block codes differ,
        # so key the cell by a type FINGERPRINT (order-free) + hour
        from ..functions.text import fingerprint64
        tf = fingerprint64(pa.array(ut.tolist(), type=pa.string()))
        tfv = tf.to_numpy(zero_copy_only=False).view(np.uint64)
        with np.errstate(over="ignore"):
            cell = (tfv[tinv] ^ (hour.view(np.uint64) *
                                 np.uint64(0x9E3779B97F4A7C15))
                    ).view(np.int64)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        comp = np.stack([cell, uid], axis=1)
        uniq = np.unique(comp, axis=0)
        return pa.table({"cell": pa.array(uniq[:, 0]),
                         "user": pa.array(uniq[:, 1])})

    mems = events.map_batches(memberships, batch_format="pyarrow",
                              zero_copy_batch=True)

    pair_empty = pa.table({"a": pa.array([], type=pa.int64()),
                           "b": pa.array([], type=pa.int64())})

    def cell_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return pair_empty
        cell = g["cell"].to_numpy(zero_copy_only=False)
        user = g["user"].to_numpy(zero_copy_only=False)
        order = np.lexsort((user, cell))
        c_s, u_s = cell[order], user[order]
        # drop duplicate (cell, user) memberships across blocks
        keep = np.ones(c_s.size, dtype=bool)
        keep[1:] = (c_s[1:] != c_s[:-1]) | (u_s[1:] != u_s[:-1])
        c_s, u_s = c_s[keep], u_s[keep]
        n = c_s.size
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = c_s[1:] != c_s[:-1]
        starts = np.nonzero(new_run)[0]
        rlen = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, rlen)
        cnt_a = np.repeat(rlen, rlen) - rank - 1
        total = int(cnt_a.sum())
        if total == 0:
            return pair_empty
        a_idx = np.repeat(np.arange(n), cnt_a)
        excl = np.concatenate([[0], np.cumsum(cnt_a)[:-1]])
        b_idx = a_idx + (np.arange(total) - np.repeat(excl, cnt_a)) + 1
        comp = u_s[a_idx] * _TRI_SPAN + u_s[b_idx]
        ucomp = np.unique(comp)
        return pa.table({"ab": pa.array(ucomp)})

    ab_empty = pa.table({"ab": pa.array([], type=pa.int64())})
    cand = partition_by(mems, ["cell"], parts, cell_pairs, ab_empty)

    # global distinct on the PACKED pair key via the co-partition
    # kernel: the pair key is near-unique, where Ray's aggregate pays
    # ~6 us of per-GROUP Python in the combine
    def dedup_ab(t: pa.Table) -> pa.Table:
        u = np.unique(t["ab"].to_numpy(zero_copy_only=False))
        return pa.table({"a": pa.array(u // _TRI_SPAN),
                         "b": pa.array(u % _TRI_SPAN)})

    return partition_by(cand, ["ab"], parts, dedup_ab, pair_empty)


def copresence_triangles(sf_dir: str, user_mod: int = 3) -> pa.Table:
    """Driver query: triangle census of the user co-presence graph --
    triangle count and global clustering coefficient, the third classic
    distributed graph primitive beside PageRank and connected
    components (edge construction in ``copresence_edges``)."""
    edges = copresence_edges(sf_dir, user_mod)
    s = triangle_stats(edges)
    clustering_ppm = (3 * s["n_triangles"] * 1_000_000 // s["n_wedges"]
                      if s["n_wedges"] else 0)
    return pa.table({
        "n_vertices": pa.array([s["n_vertices"]], type=pa.int64()),
        "n_edges": pa.array([s["n_edges"]], type=pa.int64()),
        "n_wedges": pa.array([s["n_wedges"]], type=pa.int64()),
        "n_triangles": pa.array([s["n_triangles"]], type=pa.int64()),
        "clustering_ppm": pa.array([clustering_ppm], type=pa.int64()),
    })


COPRESENCE_TRIANGLES_SQL = """
WITH cells AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         user_id
  FROM events WHERE user_id % 3 = 0
), edges AS (
  SELECT DISTINCT x.user_id AS a, y.user_id AS b
  FROM cells x JOIN cells y
    ON x.event_type = y.event_type AND x.hour = y.hour
   AND x.user_id < y.user_id
), deg AS (
  SELECT u, CAST(count(*) AS BIGINT) AS d FROM (
    SELECT a AS u FROM edges UNION ALL SELECT b FROM edges
  ) GROUP BY 1
), tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t
  FROM edges e1
  JOIN edges e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN edges e3 ON e3.a = e1.b AND e3.b = e2.b
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM deg) AS n_vertices,
       (SELECT CAST(count(*) AS BIGINT) FROM edges) AS n_edges,
       (SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) FROM deg)
         AS n_wedges,
       (SELECT t FROM tri) AS n_triangles,
       CAST(coalesce(3 * (SELECT t FROM tri) * 1000000 //
            nullif((SELECT sum(d * (d - 1) // 2) FROM deg), 0), 0)
         AS BIGINT) AS clustering_ppm
"""


def copresence_assortativity(sf_dir: str, user_mod: int = 3) -> pa.Table:
    """DEGREE ASSORTATIVITY of the user co-presence graph: the Pearson
    correlation of endpoint degrees over all edges (Newman 2002) --
    positive means hubs attach to hubs, negative means hub-and-spoke.
    Over the symmetric directed-edge multiset both marginals are equal,
    so r = (M*Sxy - Sx^2) / (M*Sxx - Sx^2) needs NO square root: all
    sums are exact integers and the single division is sign-safe ppm
    (HUGEINT intermediates in the SQL replica).

    Scale shape: degrees from one grouped count over edge endpoints
    (``_degrees``); each endpoint's degree is attached by a key
    co-partition join (two rounds, never a driver-side degree map); the
    moment fold is one streaming combiner.
    """

    edges = copresence_edges(sf_dir, user_mod)
    deg = _degrees(edges)

    parts = fit_partitions(16)

    def tag_deg(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["node"],
                         "other": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64)),
                         "d": pc.cast(t["d"], pa.int64()),
                         "side": pa.array(
                             np.zeros(t.num_rows, dtype=np.int64))})

    def _attach(key_col: str, other_col: str, carry: str | None):
        def tag_edge(t: pa.Table) -> pa.Table:
            cols = {"key": pc.cast(t[key_col], pa.int64()),
                    "other": pc.cast(t[other_col], pa.int64()),
                    "d": (pc.cast(t[carry], pa.int64()) if carry
                          else pa.array(np.zeros(t.num_rows,
                                                 dtype=np.int64))),
                    "side": pa.array(np.ones(t.num_rows,
                                             dtype=np.int64))}
            return pa.table(cols)
        return tag_edge

    join_empty = pa.table({"a": pa.array([], type=pa.int64()),
                           "b": pa.array([], type=pa.int64()),
                           "da": pa.array([], type=pa.int64())})

    def resolve_a(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        other = t["other"].to_numpy(zero_copy_only=False)
        dk = key[side == 0]
        dv = d[side == 0]
        order = np.argsort(dk)
        dk, dv = dk[order], dv[order]
        ek, eo = key[side == 1], other[side == 1]
        pos = np.searchsorted(dk, ek)
        return pa.table({"a": pa.array(ek.astype(np.int64)),
                         "b": pa.array(eo.astype(np.int64)),
                         "da": pa.array(dv[pos].astype(np.int64))})

    deg_tagged = deg.map_batches(tag_deg, batch_format="pyarrow")
    e_tagged = edges.map_batches(_attach("a", "b", None),
                                 batch_format="pyarrow")
    with_da = partition_by(deg_tagged.union(e_tagged), ["key"], parts,
                           resolve_a, join_empty)

    join_empty2 = pa.table({"da": pa.array([], type=pa.int64()),
                            "db": pa.array([], type=pa.int64())})

    def resolve_b(t: pa.Table) -> pa.Table:
        key = t["key"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        dk = key[side == 0]
        dv = d[side == 0]
        order = np.argsort(dk)
        dk, dv = dk[order], dv[order]
        ek = key[side == 1]
        da = d[side == 1]
        pos = np.searchsorted(dk, ek)
        return pa.table({"da": pa.array(da.astype(np.int64)),
                         "db": pa.array(dv[pos].astype(np.int64))})

    e2 = with_da.map_batches(_attach("b", "a", "da"),
                             batch_format="pyarrow")
    pairs = partition_by(deg_tagged.union(e2), ["key"], parts,
                         resolve_b, join_empty2)

    mom_empty = pa.table({c: pa.array([], type=pa.int64())
                          for c in ("m", "sx", "sxx", "sxy")})

    def moments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return mom_empty
        da = t["da"].to_numpy(zero_copy_only=False).astype(object)
        db = t["db"].to_numpy(zero_copy_only=False).astype(object)
        return pa.table({
            "m": pa.array([2 * t.num_rows], type=pa.int64()),
            "sx": pa.array([int((da + db).sum())], type=pa.int64()),
            "sxx": pa.array([int((da * da + db * db).sum())],
                            type=pa.int64()),
            "sxy": pa.array([int((2 * da * db).sum())],
                            type=pa.int64()),
        })

    f = pairs.map_batches(moments, batch_format="pyarrow").to_pandas()
    m = int(f["m"].sum()); sx = int(f["sx"].sum())
    sxx = int(f["sxx"].sum()); sxy = int(f["sxy"].sum())
    num = m * sxy - sx * sx
    den = m * sxx - sx * sx
    r = ((-((-num) * 1_000_000 // den) if num < 0
          else num * 1_000_000 // den) if den else 0)
    return pa.table({
        "n_directed_edges": pa.array([m], type=pa.int64()),
        "sum_deg": pa.array([sx], type=pa.int64()),
        "assortativity_ppm": pa.array([r], type=pa.int64()),
    })


COPRESENCE_ASSORTATIVITY_SQL = """
WITH cells AS (
  SELECT DISTINCT event_type,
         CAST(epoch_us(ts) AS BIGINT) // 3600000000 AS hour,
         user_id
  FROM events WHERE user_id % 3 = 0
), edges AS (
  SELECT DISTINCT x.user_id AS a, y.user_id AS b
  FROM cells x JOIN cells y
    ON x.event_type = y.event_type AND x.hour = y.hour
   AND x.user_id < y.user_id
), deg AS (
  SELECT u, CAST(count(*) AS BIGINT) AS d FROM (
    SELECT a AS u FROM edges UNION ALL SELECT b FROM edges
  ) GROUP BY 1
), dir AS (
  SELECT da.d AS x, db.d AS y
  FROM edges JOIN deg da ON da.u = edges.a
             JOIN deg db ON db.u = edges.b
  UNION ALL
  SELECT db.d, da.d
  FROM edges JOIN deg da ON da.u = edges.a
             JOIN deg db ON db.u = edges.b
), s AS (
  SELECT CAST(count(*) AS HUGEINT) AS m,
         CAST(sum(x) AS HUGEINT) AS sx,
         CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx,
         CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy
  FROM dir
)
SELECT CAST(m AS BIGINT) AS n_directed_edges,
       CAST(sx AS BIGINT) AS sum_deg,
       CAST(CASE WHEN m * sxx - sx * sx = 0 THEN 0
                 WHEN m * sxy - sx * sx < 0
                 THEN -((-(m * sxy - sx * sx)) * 1000000
                        // (m * sxx - sx * sx))
                 ELSE (m * sxy - sx * sx) * 1000000
                      // (m * sxx - sx * sx) END AS BIGINT)
  AS assortativity_ppm
FROM s
"""


def neardup_keep_best_quality(sf_dir: str, k: int = 9,
                              max_doc_id: int = 40,
                              jacc_den: int = 16) -> pa.Table:
    """Near-dup keep with a QUALITY rule: instead of keeping each
    similarity component's min doc_id (neardup_keep_stats), keep its
    highest-quality member -- longest n_chars, ties to the smaller
    doc_id -- which is what production curation actually does (drop
    the truncated scrape, keep the full page).  Output per lang:
    surviving docs and their characters.

    The winner comes out of ONE max over a composite int64
    ((n_chars * 1024 + (1023 - doc_id)) * 8 + lang_code), so the
    keeper's identity, quality and lang all ride the same aggregate --
    no join back.  Bounded to this verification tier's max_doc_id cap
    (the composite asserts its bases); the same composite works
    unbounded with wider bases.
    """
    from .dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(sf_dir, k=k, max_doc_id=max_doc_id)
    good = pa.compute.greater_equal(
        pa.compute.multiply(pairs["inter"], pa.scalar(jacc_den,
                                                      type=pa.int64())),
        pairs["uni"])
    sel = pairs.filter(good)
    edges = ray.data.from_arrow(pa.table({"a": sel["doc_a"],
                                          "b": sel["doc_b"]}))
    import pyarrow.dataset as pads
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "lang", "n_chars"],
        filter=(pads.field("doc_id") < max_doc_id))
    nodes = docs.map_batches(
        lambda t: pa.table({"node": t["doc_id"]}), batch_format="pyarrow")

    comp = connected_components(edges, nodes).to_pandas()
    comp_node = comp["node"].to_numpy().astype(np.int64)
    comp_lab = comp["component"].to_numpy().astype(np.int64)
    order = np.argsort(comp_node)
    comp_ref = ray.put((comp_node[order], comp_lab[order]))

    langs = np.sort(np.asarray(docs.unique("lang"), dtype=np.str_))
    langs_ref = ray.put(langs)

    empty = pa.table({"component": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.int64())})

    def score_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        nodes_s, labs_s = ray.get(comp_ref)
        lg = ray.get(langs_ref)
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        if int(did.max()) >= 1024 or int(nch.max()) * 1024 >= (1 << 60):
            raise ValueError("composite base overflow: widen the "
                             "score bases for this corpus")
        code = np.searchsorted(
            lg, t["lang"].to_numpy(zero_copy_only=False).astype(np.str_))
        lab = labs_s[np.searchsorted(nodes_s, did)]
        score = (nch * 1024 + (1023 - did)) * 8 + code
        return pa.table({"component": pa.array(lab),
                         "score": pa.array(score)})

    best = combine_agg(docs, ["component"], score_rows, [("score", "max")],
                       named("component", "score")).to_pandas()
    v = best["score"].to_numpy().astype(np.int64)
    code = v % 8
    rest = v // 8
    nch = rest // 1024
    lang = langs[code]
    ul, inv = np.unique(lang, return_inverse=True)
    n_kept = np.bincount(inv, minlength=ul.shape[0]).astype(np.int64)
    sum_chars = np.zeros(ul.shape[0], dtype=np.int64)
    np.add.at(sum_chars, inv, nch)
    return pa.table({
        "lang": pa.array(ul, type=pa.string()),
        "n_kept": pa.array(n_kept),
        "sum_chars": pa.array(sum_chars),
    })


def kcore_part_graph(sf_dir: str, k: int = 80,
                     rounds: int = 6) -> pa.Table:
    """K-CORE peeling trajectory of the part co-purchase graph
    (Seidman 1983; distributed peel per Montresor et al., TPDS 2013):
    repeatedly delete nodes with degree < k and the edges touching
    them.  Runs EXACTLY ``rounds`` peel rounds (a fixed unrolling, so
    the DuckDB twin replays the identical trajectory whether or not
    the fixpoint lands early) and reports (round, n_nodes, n_edges)
    after each -- the curve a graph-size/robustness audit reads.

    Scale shape: the distinct-edge build is the co-purchase
    co-partition kernel (pair expansion bounded by order fanout, never
    corpus-quadratic); each round is one O(|V|) grouped endpoint count
    (``_degrees``) -- the node set is CATALOG-bounded (parts), so the
    survivor set broadcasts via ray.put as a sorted int64 array probed
    with np.isin, the same dimension-broadcast contract as
    pagerank_part_supplier above.  Edges stay distributed throughout.
    """
    li = read_table(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def prep(t: pa.Table) -> pa.Table:
        staged = pa.table({
            "okey": pc.cast(t["l_orderkey"], pa.int64()),
            "part": pc.cast(t["l_partkey"], pa.int64()),
        })
        return staged.group_by(["okey", "part"]).aggregate([])

    def expand(t: pa.Table) -> pa.Table:
        okey = t["okey"].to_numpy(zero_copy_only=False)
        part = t["part"].to_numpy(zero_copy_only=False)
        order = np.lexsort((part, okey))
        o_s, p_s = okey[order], part[order]
        n = o_s.size
        new = np.ones(n, dtype=bool)
        new[1:] = o_s[1:] != o_s[:-1]
        starts = np.flatnonzero(new)
        rlen = np.diff(np.append(starts, n))
        rank = np.arange(n) - np.repeat(starts, rlen)
        cnt = np.repeat(rlen, rlen) - rank - 1
        total = int(cnt.sum())
        if total == 0:
            return _EMPTY_EDGES
        a_idx = np.repeat(np.arange(n), cnt)
        excl = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        b_idx = a_idx + (np.arange(total) - np.repeat(excl, cnt)) + 1
        return _canonical_dedup(p_s[a_idx], p_s[b_idx])

    def dedup_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_EDGES
        return _canonical_dedup(t["a"].to_numpy(zero_copy_only=False),
                                t["b"].to_numpy(zero_copy_only=False))

    edges = partition_by(
        li.map_batches(prep, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["okey"], fit_partitions(16), expand, _EMPTY_EDGES)
    # pair-keyed co-partition -> block-local unique is a global distinct
    edges = partition_by(edges, ["a", "b"], fit_partitions(16),
                         dedup_block, _EMPTY_EDGES).materialize()

    out_round, out_nodes, out_edges = [], [], []

    def record(r: int, ed) -> "pa.Table":
        # O(|V|): catalog-bounded (parts)
        deg = _degrees(ed).to_pandas()
        if "d" not in deg.columns:  # fully peeled: empty frame
            import pandas as pd
            deg = pd.DataFrame({"node": [], "d": []})
        out_round.append(r)
        out_nodes.append(len(deg))
        out_edges.append(ed.count())
        return deg

    deg = record(0, edges)
    for r in range(1, rounds + 1):
        surv = np.sort(deg.loc[deg["d"] >= k, "node"]
                       .to_numpy(dtype=np.int64))
        surv_ref = ray.put(surv)

        def keep(t: pa.Table, _ref=surv_ref) -> pa.Table:
            if t.num_rows == 0:
                return _EMPTY_EDGES
            s = ray.get(_ref)
            a = t["a"].to_numpy(zero_copy_only=False)
            b = t["b"].to_numpy(zero_copy_only=False)
            m = np.isin(a, s, assume_unique=False) \
                & np.isin(b, s, assume_unique=False)
            return pa.table({"a": pa.array(a[m]), "b": pa.array(b[m])})

        edges = edges.map_batches(keep, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
        deg = record(r, edges)

    return pa.table({
        "round": pa.array(out_round, type=pa.int64()),
        "n_nodes": pa.array(out_nodes, type=pa.int64()),
        "n_edges": pa.array(out_edges, type=pa.int64()),
    })


def _kcore_sql(k: int = 80, rounds: int = 6) -> str:
    cte = """
WITH m AS MATERIALIZED (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
), e0 AS MATERIALIZED (
  SELECT DISTINCT a.p AS a, b.p AS b
  FROM m a JOIN m b ON a.o = b.o AND a.p < b.p
)"""
    for r in range(1, rounds + 1):
        cte += f""", d{r} AS MATERIALIZED (
  SELECT v, count(*) AS c FROM (
    SELECT a AS v FROM e{r-1} UNION ALL SELECT b AS v FROM e{r-1}
  ) GROUP BY 1
), n{r} AS MATERIALIZED (
  SELECT v FROM d{r} WHERE c >= {k}
), e{r} AS MATERIALIZED (
  SELECT e.a, e.b FROM e{r-1} e
  JOIN n{r} x ON x.v = e.a JOIN n{r} y ON y.v = e.b
)"""
    rows = "\nUNION ALL\n".join(
        f"""SELECT CAST({r} AS BIGINT) AS round,
       (SELECT CAST(count(DISTINCT v) AS BIGINT) FROM
         (SELECT a AS v FROM e{r} UNION ALL SELECT b AS v FROM e{r}))
         AS n_nodes,
       (SELECT CAST(count(*) AS BIGINT) FROM e{r}) AS n_edges"""
        for r in range(0, rounds + 1))
    return cte + "\n" + rows + "\nORDER BY round"


KCORE_SQL = _kcore_sql()
