"""Tests for the training-data pipelines: dedup family, ANN, text analysis,
multimodal plumbing, relational/windowed ops."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_minhash_jaccard_properties():
    from rayld.pipelines.dedup import jaccard, minhash_signature

    a = "the quick brown fox jumps over the lazy dog again and again today"
    b = "the quick brown fox jumps over the lazy dog again and again tomorrow"
    c = "completely different words entirely unrelated content elsewhere"
    assert jaccard(a, a) == 1.0
    assert jaccard(a, b) > 0.5
    assert jaccard(a, c) < 0.1
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = float(np.mean(sa == sb))
    assert abs(est - jaccard(a, b)) < 0.35  # 64-hash estimator tolerance
    # determinism
    assert (minhash_signature(a) == sa).all()


def test_simhash_fixture_pinned():
    """Pin the crc32+multiply-mix signature values (the md5-per-token loop
    was vectorized away; these fixtures freeze the new function)."""
    from rayld.pipelines.dedup import simhash_signature

    assert simhash_signature("") == 0
    assert simhash_signature("the quick brown fox") == 8541772686786302353
    assert simhash_signature("hello world") == 6972155113867790160


def test_simhash_close_for_similar_text():
    from rayld.pipelines.dedup import simhash_signature

    a = "the quick brown fox jumps over the lazy dog near the river bank"
    b = "the quick brown fox jumps over the lazy dog near the river shore"
    c = "numeric tables parquet shuffle compute cluster resource scheduling"
    da = bin(simhash_signature(a) ^ simhash_signature(b)).count("1")
    dc = bin(simhash_signature(a) ^ simhash_signature(c)).count("1")
    assert da < dc
    assert da <= 16


def test_langid_heuristic():
    from rayld.pipelines.text import LangId

    li = LangId()
    assert li.predict("the cat and the dog went to the house") == "en"
    assert li.predict("der Hund und die Katze sind nicht da") == "de"
    assert li.predict("le chat est dans la maison avec les enfants") == "fr"
    assert li.predict("你好世界这是一个测试") == "zh"


def test_rolling_fingerprint_shift_invariance():
    """The polynomial window hash depends only on window CONTENT, not absolute
    position — prefix insertion keeps every original window hash, so the min
    can only move to a genuinely new window."""
    import re
    import zlib

    from rayld.pipelines.text import _rk_window_hashes

    def window_hashes(text, window=8):
        toks = re.findall(r"[A-Za-z0-9]+", text)
        h = np.fromiter((zlib.crc32(t.encode()) for t in toks),
                        dtype=np.uint64, count=len(toks))
        return set(int(x) for x in _rk_window_hashes(h, window))

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " \
           "lambda mu nu xi omicron pi rho sigma tau upsilon"
    shifted = "zzz " + base
    assert window_hashes(base) <= window_hashes(shifted)
    # identical content -> identical min fingerprint regardless of shift,
    # as long as no new window wins the min
    assert min(window_hashes(base)) == min(
        window_hashes(shifted) & window_hashes(base)
    )


def test_ann_ivf_recall(ray_session):
    from rayld.pipelines.ann import brute_force_topk, ivf_topk

    brute = brute_force_topk(SF, k=10).to_pandas()
    ivf = ivf_topk(SF, k=10, nprobe=8, n_clusters=8).to_pandas()
    recalls = []
    for qid in brute["query_id"].unique():
        b = set(brute[brute["query_id"] == qid]["vec_id"])
        i = set(ivf[ivf["query_id"] == qid]["vec_id"])
        recalls.append(len(b & i) / len(b))
    assert np.mean(recalls) >= 0.5, recalls


def test_ann_ivf_prunes_the_read(ray_session, tmp_path):
    """The IVF index is a materialized centroid-partitioned parquet layout and
    the probe selects a strict subset of partition directories — the read is
    actually pruned, not filtered after scanning everything."""
    import os

    from rayld.pipelines.ann import (
        _normalize, ivf_build, ivf_probe_paths, ivf_topk, query_vectors,
    )

    import glob

    index_dir = str(tmp_path / "ivf")
    ivf_build(SF, index_dir, n_clusters=8)
    part_dirs = [p for p in os.listdir(index_dir) if p.startswith("centroid=")]
    all_files = glob.glob(os.path.join(index_dir, "centroid=*", "*.parquet"))
    assert len(part_dirs) > 2
    q_ids, q_mat = query_vectors(SF)
    paths, probe_sets, cents = ivf_probe_paths(index_dir, _normalize(q_mat), 1)
    assert 0 < len(paths) < len(all_files)  # strict subset of the files
    assert all(len(s) == 1 for s in probe_sets)
    out = ivf_topk(SF, k=5, nprobe=1, n_clusters=8, index_dir=index_dir).to_pandas()
    # every query still finds itself: the self-vector is in the probed bucket
    for qid, grp in out.groupby("query_id"):
        assert qid in set(grp["vec_id"])


def test_ivf_scattered_sample_and_param_guard(ray_session, tmp_path):
    """Centroid training draws from the WHOLE table (not a biased prefix),
    and a finished index is reused only when build params match."""
    import json
    import os

    import pyarrow.parquet as pq

    from rayld.pipelines.ann import _ivf_training_sample, ivf_build

    n_rows = pq.ParquetFile(f"{SF}/embeddings.parquet").metadata.num_rows
    ids, mat = _ivf_training_sample(SF, 256)
    assert 64 <= len(ids) <= 1024  # near the requested size
    assert len(ids) == len(mat)
    # scattered: ids land in both halves of the table, far beyond a prefix
    assert (ids < n_rows // 2).any() and (ids >= n_rows // 2).any()
    assert ids.max() > 256

    index_dir = str(tmp_path / "ivf")
    ivf_build(SF, index_dir, n_clusters=4, seed=1)
    marker = os.path.join(index_dir, "_CENTROIDS.npy")
    mtime = os.path.getmtime(marker)
    ivf_build(SF, index_dir, n_clusters=4, seed=1)  # same params -> reused
    assert os.path.getmtime(marker) == mtime
    ivf_build(SF, index_dir, n_clusters=4, seed=2)  # new seed -> rebuilt
    assert json.load(open(os.path.join(index_dir, "_SUCCESS")))["seed"] == 2


def test_ann_brute_force_self_hit(ray_session):
    from rayld.pipelines.ann import brute_force_topk

    out = brute_force_topk(SF, k=5).to_pandas()
    for qid, grp in out.groupby("query_id"):
        assert qid in set(grp["vec_id"])  # a vector is its own nearest


def test_dedup_exact_survivors(ray_session):
    from rayld.pipelines.dedup import dedup_exact
    import duckdb

    got = sorted(dedup_exact(SF).to_pandas()["doc_id"].tolist())
    want = sorted(
        r[0]
        for r in duckdb.sql(
            "SELECT min(doc_id) FROM read_parquet("
            f"'{SF}/documents.parquet') GROUP BY md5(text)"
        ).fetchall()
    )
    assert got == want


def test_minhash_dedup_finds_known_near_dups(ray_session, tmp_path):
    """Plant near-duplicate docs and check the LSH pipeline surfaces them."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import minhash_dedup

    base = (
        "spark shuffle merge join window aggregate partition batch stream "
        "table scan hash sort key order compute cluster memory spill disk"
    )
    texts = [base, base + " extra", "totally different content here now",
             "unrelated words about nothing in particular at all today"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    pairs = minhash_dedup(str(d), threshold=0.5, num_partitions=2).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (0, 1) in got
    assert (2, 3) not in got


def test_minhash_verification_paths_parity(ray_session, tmp_path):
    """The cost-based verification switch (broadcast vs two-shuffle) must be
    value-identical: same planted corpus through both paths."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import minhash_dedup

    base = (
        "alpha beta gamma delta epsilon zeta eta theta iota kappa lam mu "
        "nu xi omicron pi rho sigma tau upsilon phi chi psi omega extra"
    )
    texts = [base, base + " one", base + " two tokens appended here",
             "completely different document content with other words",
             "another unrelated piece of text about something else"]
    tbl = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    def run(**kw):
        out = minhash_dedup(str(d), threshold=0.5, num_partitions=2,
                            **kw).to_pandas()
        return sorted(zip(out["doc_a"], out["doc_b"]))

    broadcast = run()                      # default: broadcast path
    shuffled = run(broadcast_pairs_max=0)  # forced two-shuffle path
    assert broadcast == shuffled
    assert (0, 1) in broadcast


def test_media_features_stub(ray_session):
    from rayld.pipelines.multimodal import (
        MediaDecoder,
        _png_encode,
        media_features,
    )

    out = media_features(SF).to_pandas()
    assert len(out) == 500
    assert set(out.columns) == {"media_id", "n_bytes", "width", "height", "feature"}
    assert (out["n_bytes"] > 0).all()
    # magic-byte dispatch: a real PNG payload routes to the real kernel
    # (true dimensions, pixel-derived features), non-PNG gets the
    # documented deterministic fake
    img = np.full((6, 9, 3), 200, np.uint8)
    meta = MediaDecoder()._decode(_png_encode(img), "image/png")
    assert (meta["width"], meta["height"]) == (9, 6)
    assert abs(meta["feature"][0] - 200 / 255.0) < 1e-6
    fake = MediaDecoder()._decode(b"x", "image/fake")
    assert 64 <= fake["width"] <= 319


def test_media_resize_and_frame_sample(ray_session):
    from rayld.pipelines.multimodal import media_frame_sample, media_resize

    rs = media_resize(SF, max_dim=100).to_pandas()
    assert len(rs) == 500
    assert (rs[["resized_w", "resized_h"]].max(axis=1) <= 100).all()
    # aspect preserved within integer truncation
    big = rs[rs[["width", "height"]].max(axis=1) > 100]
    assert (big[["resized_w", "resized_h"]].max(axis=1) == 100).all()

    fs = media_frame_sample(SF).to_pandas()
    assert (fs["frame_idx"] % 2 == 0).all()  # stride-2 sampling
    assert (fs.groupby("media_id")["frame_idx"].min() == 0).all()


def test_user_sessions_gap_logic(ray_session):
    from rayld.pipelines.relational import user_sessions

    out = user_sessions(SF).to_pandas()
    assert (out["session_id"] >= 1).all()
    assert (out["n_events"] >= 1).all()


def test_quality_score_bounds(ray_session):
    from rayld.pipelines.text import quality_score

    out = quality_score(SF).to_pandas()
    assert out["quality"].between(0, 1).all()


def test_dedup_clusters_transitive(ray_session, tmp_path):
    """a~b, b~c -> one cluster {a,b,c} even if a~c was never a pair."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import dedup_clusters

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon phi chi")
    texts = [base + " one", base + " two", base + " three",
             "completely different content in this document entirely"]
    tbl = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    out = dedup_clusters(str(d)).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster_id"]))
    assert clusters.get(0) == clusters.get(1) == clusters.get(2) == 0
    assert 3 not in clusters


def test_embedding_neardup_planted_pairs(ray_session, tmp_path):
    """Plant near-duplicate embeddings (cosine ~0.99) among random vectors and
    check the LSH-bucketed path surfaces exactly the planted pairs — the
    full-matrix broadcast is gone, so this exercises the bucket groupby."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import embedding_neardup

    rng = np.random.default_rng(3)
    dim, n = 32, 60
    mat = rng.standard_normal((n, dim))
    # three planted near-dup pairs: tiny perturbations of a base vector
    for a, b in ((0, 1), (10, 11), (20, 21)):
        mat[b] = mat[a] + 0.02 * rng.standard_normal(dim)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    tbl = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
        }
    )
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(tbl, d / "embeddings.parquet")
    out = embedding_neardup(str(d), threshold=0.95).to_pandas()
    got = set(zip(out["vec_a"], out["vec_b"]))
    assert {(0, 1), (10, 11), (20, 21)} <= got, got
    # no false positives among the random vectors
    assert got <= {(0, 1), (10, 11), (20, 21)}, got


def test_semdedup_planted_duplicates(ray_session, tmp_path):
    """SemDeDup parity: the distributed result equals a single-process
    recount using the same sample/k-means/greedy rule, planted semantic
    duplicates are dropped (min vec_id survives), and distinct vectors
    survive."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.functions.vectorized import l2_normalize_rows
    from rayld.pipelines.ann import _ivf_training_sample, _kmeans_lite
    from rayld.pipelines.dedup import semdedup

    rng = np.random.default_rng(5)
    dim, n = 16, 48
    mat = rng.standard_normal((n, dim))
    # two planted near-dup groups: 7~8 (pair) and 20~21~22 (triple)
    for a, b in ((7, 8), (20, 21), (20, 22)):
        mat[b] = mat[a] + 0.02 * rng.standard_normal(dim)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(
        pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float64())),
        }),
        d / "embeddings.parquet",
    )
    out = semdedup(str(d), n_clusters=4, threshold=0.95).to_pandas()
    got = dict(zip(out["vec_id"], out["keep"]))
    assert len(got) == n

    # single-process reference with the identical training + greedy rule
    _, sample = _ivf_training_sample(str(d), 2048)
    cents = _kmeans_lite(sample, 4)
    X = l2_normalize_rows(mat)
    cl = np.argmax(X @ cents.T, axis=1)
    want = {}
    for c in np.unique(cl):
        ids = np.nonzero(cl == c)[0]
        kept = []
        for i in ids:
            dup = any(float(X[i] @ X[j]) >= 0.95 for j in kept)
            want[int(i)] = 0 if dup else 1
            if not dup:
                kept.append(i)
    assert got == want
    # the planted later twins are dropped, their originals kept
    assert got[7] == 1 and got[8] == 0
    assert got[20] == 1 and got[21] == 0 and got[22] == 0
    # cluster ids in output match the assignment
    cmap = dict(zip(out["vec_id"], out["cluster"]))
    assert all(cmap[i] == cl[i] for i in range(n))


def test_user_first_last(ray_session):
    """First/last event per user equals a pandas idxmin/idxmax recount on
    the (ts, event_id) order."""
    from rayld.pipelines.relational import user_first_last

    got = user_first_last(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    ).sort_values(["user_id", "ts", "event_id"])
    g = ev.groupby("user_id")
    f, l = g.head(1).set_index("user_id"), g.tail(1).set_index("user_id")
    m = got.set_index("user_id").sort_index()
    assert len(m) == ev["user_id"].nunique()
    assert (m["first_event_id"] == f["event_id"].sort_index()).all()
    assert (m["last_event_id"] == l["event_id"].sort_index()).all()
    assert (m["first_type"] == f["event_type"].sort_index()).all()
    assert (m["last_value"] == l["value"].sort_index()).all()


def test_market_basket_pairs(ray_session):
    """Pair supports equal a brute-force per-order recount; pairs below
    min_support are absent and keys are canonically ordered."""
    from collections import Counter

    from rayld.pipelines.relational import market_basket_pairs

    got = market_basket_pairs(SF, min_support=2,
                              num_partitions=4).to_pandas()
    li = pd.read_parquet(f"{SF}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    want = Counter()
    for _, parts in li.groupby("l_orderkey")["l_partkey"]:
        ps = sorted(set(parts))
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                want[(ps[i], ps[j])] += 1
    want = {k: v for k, v in want.items() if v >= 2}
    m = {(int(r.part_a), int(r.part_b)): int(r.support)
         for r in got.itertuples()}
    assert m == want
    assert (got["part_a"] < got["part_b"]).all()


def test_dsir_weights_planted_target(ray_session, tmp_path):
    """DSIR log-weights equal a single-process recount of the smoothed
    unigram ratio model, and target-like docs outscore off-target docs."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.text import dsir_weights

    texts = ["alpha alpha beta", "alpha beta", "gamma gamma delta",
             "gamma delta delta", "alpha gamma"]
    langs = ["en", "en", "de", "de", "de"]
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "lang": pa.array(langs, pa.string()),
                  "text": pa.array(texts, pa.string())}),
        d / "documents.parquet",
    )
    got = dsir_weights(str(d), num_partitions=4).to_pandas()
    got = got.set_index("doc_id").sort_index()

    toks = [t.split() for t in texts]
    c, tc = {}, {}
    for ts, lang in zip(toks, langs):
        for t in ts:
            c[t] = c.get(t, 0) + 1
            if lang == "en":
                tc[t] = tc.get(t, 0) + 1
    tr, tt = sum(c.values()), sum(tc.values())
    lr = {
        t: int(np.floor(math.log(
            ((tc.get(t, 0) + 0.5) / (tt + 1.0)) / ((c[t] + 0.5) / (tr + 1.0))
        ) * 1000000.0 + 0.5))
        for t in c
    }
    for i, ts in enumerate(toks):
        assert got.loc[i, "logw_micro_nats"] == sum(lr[t] for t in ts)
        assert got.loc[i, "n_tokens"] == len(ts)
    # en-heavy docs weigh above the de-only docs
    assert got.loc[0, "logw_micro_nats"] > got.loc[2, "logw_micro_nats"]
    assert got.loc[1, "logw_micro_nats"] > got.loc[3, "logw_micro_nats"]


def test_rk_window_hashes_match_modular_definition():
    """The O(n) vectorized roll equals the per-window polynomial definition
    H_i = sum_j h[i+j] * B^(w-1-j) mod 2^64, for random inputs/windows."""
    from rayld.pipelines.text import _RK_BASE, _rk_window_hashes

    rng = np.random.default_rng(11)
    M = 1 << 64
    for trial in range(5):
        n = int(rng.integers(3, 60))
        w = int(rng.integers(1, min(9, n + 1)))
        h = rng.integers(0, 2**32, size=n).astype(np.uint64)
        got = _rk_window_hashes(h, w)
        for i in range(n - w + 1):
            acc = 0
            for j in range(w):
                acc = (acc + int(h[i + j]) * pow(_RK_BASE, w - 1 - j, M)) % M
            assert int(got[i]) == acc


def test_connected_components_random_graph(ray_session):
    """Label propagation matches a local union-find on a seeded random
    graph (multiple components, chains longer than one hop)."""
    import pyarrow as pa
    import ray.data as rd
    from rayld.pipelines.dedup import connected_components

    rng = np.random.default_rng(5)
    edges = set()
    while len(edges) < 60:
        a, b = sorted(rng.integers(0, 80, size=2).tolist())
        if a != b:
            edges.add((a, b))
    edges = sorted(edges)

    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {n: find(n) for n in parent}

    pairs = rd.from_arrow(
        pa.table({"doc_a": pa.array([a for a, _ in edges], pa.int64()),
                  "doc_b": pa.array([b for _, b in edges], pa.int64())})
    )
    out = connected_components(pairs, num_partitions=4).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    assert got == want


def test_connected_components_chain(ray_session):
    """Chain 5-6-7 plus pair 1-2 -> two components labeled by their minima."""
    import pyarrow as pa
    import ray.data as rd
    from rayld.pipelines.dedup import connected_components

    pairs = rd.from_arrow(
        pa.table({"doc_a": pa.array([5, 6, 1], pa.int64()),
                  "doc_b": pa.array([6, 7, 2], pa.int64())})
    )
    out = connected_components(pairs, num_partitions=2).to_pandas()
    labels = dict(zip(out["doc_id"], out["cluster_id"]))
    assert labels == {5: 5, 6: 5, 7: 5, 1: 1, 2: 1}


def _write_docs(tmp_path, texts, name="docs"):
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path / name
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        d / "documents.parquet",
    )
    return str(d)


def test_tfidf_top_terms(ray_session, tmp_path):
    """The corpus-wide term 'common' loses to each doc's distinctive term."""
    from rayld.pipelines.text import tfidf_top_terms

    sf = _write_docs(tmp_path, [
        "common apple apple",
        "common banana banana",
        "common cherry",
    ])
    out = tfidf_top_terms(sf, num_partitions=4).to_pandas()
    top = dict(zip(out["doc_id"], out["top_term"]))
    assert top == {0: "apple", 1: "banana", 2: "cherry"}
    assert (out["score"] > 0).all()


def test_doc_length_percentiles(ray_session, tmp_path):
    from rayld.pipelines.text import doc_length_percentiles

    # 100 docs with 1..100 tokens -> p50=50, p90=90, p99=99
    sf = _write_docs(tmp_path, [" ".join(["w"] * n) for n in range(1, 101)])
    out = doc_length_percentiles(sf)
    assert out.iloc[0].tolist() == [50, 90, 99]


def test_bigram_frequencies(ray_session, tmp_path):
    from rayld.pipelines.text import bigram_frequencies

    sf = _write_docs(tmp_path, ["a b c a b", "a b x"])
    out = bigram_frequencies(sf).to_pandas()
    counts = dict(zip(out["bigram"], out["n"]))
    assert counts["a b"] == 3  # never crosses the doc boundary
    assert counts["b c"] == 1 and counts["c a"] == 1 and counts["b x"] == 1


def test_dedup_exact_normalized(ray_session, tmp_path):
    from rayld.pipelines.dedup import dedup_exact, dedup_exact_normalized

    sf = _write_docs(tmp_path, [
        "Hello  World", "hello world", " HELLO\tWORLD ", "different",
    ])
    raw = dedup_exact(sf).to_pandas()
    norm = dedup_exact_normalized(sf).to_pandas()
    assert len(raw) == 4  # raw texts all distinct
    assert sorted(norm["doc_id"]) == [0, 3]  # reflows collapse to doc 0


def test_connected_components_large_ids_exact(ray_session):
    """Node ids above 2^53 survive label propagation exactly (the unioned
    label column must never pass through float64 — sentinels, not nulls)."""
    import pyarrow as pa
    import ray.data as rd

    from rayld.pipelines.dedup import connected_components

    big = 2 ** 53
    pairs = rd.from_arrow(
        pa.table({"doc_a": pa.array([big + 1, big + 3], pa.int64()),
                  "doc_b": pa.array([big + 3, big + 7], pa.int64())})
    )
    out = connected_components(pairs, num_partitions=2).to_pandas()
    labels = dict(zip(out["doc_id"], out["cluster_id"]))
    assert labels == {big + 1: big + 1, big + 3: big + 1, big + 7: big + 1}


def test_ngram_jaccard_dedup(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import ngram_jaccard_dedup

    base = ("one two three four five six seven eight nine ten eleven twelve "
            "thirteen fourteen fifteen sixteen seventeen eighteen nineteen")
    texts = [base, "prefix " + base, "other words that differ completely "
             "from the rest of the corpus in every way imaginable today"]
    tbl = pa.table({"doc_id": pa.array(range(3), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    d = tmp_path / "mini"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")
    out = ngram_jaccard_dedup(str(d)).to_pandas()
    got = set(zip(out["doc_a"], out["doc_b"]))
    assert (0, 1) in got
    assert all(2 not in p for p in got)


def test_ngram_jaccard_bucketed_stress(ray_session, tmp_path):
    """Thousands of near-unique fingerprints collapse into <= P Ray groups
    (the blocking shuffle groups on ``part``, never on the raw fingerprint),
    and the bucket count never changes the result set."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import ngram_jaccard_dedup

    n = 1500
    texts = [" ".join(f"t{i}x{j}" for j in range(12)) for i in range(n)]
    expected = set()
    for k in range(20):  # planted exact duplicates
        texts[1000 + k] = texts[k]
        expected.add((k, 1000 + k))
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    d = tmp_path / "stress"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    out8 = ngram_jaccard_dedup(str(d), num_partitions=8).to_pandas()
    got8 = set(zip(out8["doc_a"], out8["doc_b"]))
    assert got8 == expected
    out3 = ngram_jaccard_dedup(str(d), num_partitions=3).to_pandas()
    assert set(zip(out3["doc_a"], out3["doc_b"])) == got8


def test_simhash_neardup_matches_bruteforce(ray_session):
    """The 4x16-bit band blocking is EXACT for max_hamming <= 3 (pigeonhole:
    <= 3 flipped bits cannot touch all four bands), so the distributed
    pipeline must reproduce the all-pairs XOR-popcount computation."""
    import pyarrow.parquet as pq
    from rayld.pipelines.dedup import (
        _popcount64,
        simhash_neardup,
        simhash_signature,
    )

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_numpy()
    sigs = np.array(
        [simhash_signature(x) for x in t["text"].to_pylist()], dtype=np.uint64
    )
    ia, ib = np.triu_indices(len(ids), 1)
    ham = _popcount64(sigs[ia] ^ sigs[ib])
    ok = ham <= 3
    want = {
        (min(int(ids[a]), int(ids[b])), max(int(ids[a]), int(ids[b]))): int(h)
        for a, b, h in zip(ia[ok], ib[ok], ham[ok])
    }

    out = simhash_neardup(SF, num_partitions=4).to_pandas()
    got = {
        (int(a), int(b)): int(h)
        for a, b, h in zip(out["doc_a"], out["doc_b"], out["hamming"])
    }
    assert got == want and len(want) > 0
    assert not out.duplicated(["doc_a", "doc_b"]).any()


def test_corpus_clean_matches_oracle(ray_session):
    """End-to-end prep chain equals its own registered DuckDB oracle
    (single source of truth: the SQL string from __ray_entry__)."""
    import importlib.util

    import duckdb
    from rayld.pipelines.prep import corpus_clean

    spec = importlib.util.spec_from_file_location(
        "_entry_for_test", "/root/repo/__ray_entry__.py"
    )
    entry = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entry)
    sql = entry.oracle_sql()["corpus_clean"]

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{SF}/documents.parquet')"
    )
    want = (
        con.execute(sql).df().sort_values("doc_id").reset_index(drop=True)
    )
    got = (
        corpus_clean(SF, num_partitions=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(
        got.astype({"n_tokens": "int64"}), want.astype({"n_tokens": "int64"})
    )
    assert (got["quality"] >= 0.5).all() and len(got) > 0


def test_corpus_clean_filter_then_dedup(ray_session, tmp_path):
    """A low-quality doc must not act as dedup survivor: if the min-doc_id
    copy of a text fails the gate, the surviving copy is the smallest
    PASSING doc_id (filter-then-dedup, the order the oracle pins)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from rayld.pipelines.prep import corpus_clean

    rich = (
        "the quick brown fox jumps over the lazy dog and it is a fine day "
        "for running in the park with friends and the sun is out again "
        "so we walk to the lake and it is calm and the air is fresh today"
    )
    texts = ["!!! ??? ,,, ;;; :::", rich, "  " + rich + "  ", rich]
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
        }
    )
    d = tmp_path / "prep"
    d.mkdir()
    pq.write_table(tbl, d / "documents.parquet")

    out = corpus_clean(str(d), num_partitions=2).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [1]


def test_embedding_neardup_recall_gate(ray_session):
    """Planted perturbed copies must be recovered exactly: full recall and
    zero spurious pairs (the raw corpus has no near-dups, so this is the
    only verification with teeth for the LSH blocking)."""
    from rayld.pipelines.dedup import embedding_neardup_recall

    out = embedding_neardup_recall(SF)
    assert out["recall_ok"].tolist() == [1]
    assert out["n_found"].tolist() == out["n_expected"].tolist()
    assert out["n_expected"].iloc[0] > 0


def test_minhash_dedup_recall_gate(ray_session):
    """Exact planted copies have identical signatures, so the LSH pipeline
    must recover every planted pair deterministically."""
    from rayld.pipelines.dedup import minhash_dedup_recall

    out = minhash_dedup_recall(SF)
    assert out["recall_ok"].tolist() == [1]
    assert out["n_expected"].iloc[0] == 500


@pytest.mark.parametrize(
    "fn_name",
    ["simhash_neardup_recall", "ngram_jaccard_recall", "dedup_clusters_check"],
)
def test_planted_copy_gates(ray_session, fn_name):
    """Exact planted copies are deterministically recoverable by every
    sketch family; each gate must report full recall."""
    from rayld.pipelines import dedup

    out = getattr(dedup, fn_name)(SF)
    assert out["recall_ok"].tolist() == [1], out.to_dict("records")
    assert out["n_expected"].iloc[0] == 500


def test_jsonld_normalize_fixpoint(ray_session):
    """c14n is a fixpoint: normalize -> fromRDF -> normalize is
    byte-identical for every tool document."""
    from rayld.pipelines.jsonld_ops import op_normalize_check

    out = op_normalize_check(SF).to_pandas()
    assert len(out) > 0
    assert (out["c14n_stable"] == 1).all()


def test_kg_parity_gate(ray_session):
    from rayld.pipelines.kg import kg_parity_check

    out = kg_parity_check(20)
    assert out.to_dict("records") == [
        {"missing": 0, "extra": 0, "parity_ok": 1}
    ]


def test_asof_join_attribution(ray_session):
    """Bucketed merge_asof == DuckDB ASOF JOIN (backward-inclusive, by
    user), and the bucket count never changes the result."""
    import duckdb
    from rayld.pipelines.relational import asof_join_attribution

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{SF}/events.parquet')"
    )
    want = con.execute(
        "SELECT p.event_id AS purchase_id, p.user_id,"
        " epoch_us(p.ts)::BIGINT AS purchase_us,"
        " c.event_id AS click_id, epoch_us(c.ts)::BIGINT AS click_us"
        " FROM (SELECT * FROM events WHERE event_type = 'purchase') p"
        " ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c"
        " ON p.user_id = c.user_id AND p.ts >= c.ts"
    ).df().sort_values("purchase_id").reset_index(drop=True)

    got = (
        asof_join_attribution(SF, num_partitions=4)
        .to_pandas()
        .sort_values("purchase_id")
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64")
    )
    got3 = (
        asof_join_attribution(SF, num_partitions=3)
        .to_pandas()
        .sort_values("purchase_id")
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got3.astype("int64"), want.astype("int64"))


def test_range_join_signup_clicks(ray_session):
    """Bucketed searchsorted range-count == DuckDB interval LEFT JOIN,
    including zero-click signups; bucket count never changes the result."""
    import duckdb
    from rayld.pipelines.relational import range_join_signup_clicks

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{SF}/events.parquet')"
    )
    want = con.execute(
        "SELECT s.event_id AS signup_id, s.user_id,"
        " count(c.event_id)::BIGINT AS n_clicks"
        " FROM (SELECT * FROM events WHERE event_type = 'signup') s"
        " LEFT JOIN (SELECT * FROM events WHERE event_type = 'click') c"
        " ON s.user_id = c.user_id AND c.ts >= s.ts"
        " AND c.ts < s.ts + INTERVAL 30 MINUTE"
        " GROUP BY s.event_id, s.user_id"
    ).df().sort_values("signup_id").reset_index(drop=True)

    for p in (4, 3):
        got = (
            range_join_signup_clicks(SF, num_partitions=p)
            .to_pandas()
            .sort_values("signup_id")
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))
    assert (want["n_clicks"] == 0).any()  # the zero-count path is exercised


def test_q3_shipping_priority(ray_session):
    """Bucketed two-stage join + bucket-local top-N == DuckDB's Q3; the
    partition count never changes the global top-10."""
    import duckdb
    from rayld.pipelines.relational import q3_shipping_priority

    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
            f"'{SF}/{t}.parquet')"
        )
    want = con.execute(
        "WITH r AS ("
        " SELECT l_orderkey,"
        "  sum(floor(l_extendedprice * (1 - l_discount) * 100"
        "      + 0.5)::BIGINT) AS rev_c,"
        "  epoch_us(o_orderdate)::BIGINT AS order_date_us, o_orderpriority"
        " FROM customer JOIN orders ON c_custkey = o_custkey"
        " JOIN lineitem ON l_orderkey = o_orderkey"
        " WHERE c_mktsegment = 'BUILDING'"
        "  AND o_orderdate < TIMESTAMP '1998-01-01'"
        "  AND l_shipdate > TIMESTAMP '1998-01-01'"
        " GROUP BY l_orderkey, o_orderdate, o_orderpriority"
        ") SELECT l_orderkey, rev_c / 100.0 AS revenue, order_date_us,"
        " o_orderpriority FROM r ORDER BY rev_c DESC, l_orderkey LIMIT 10"
    ).df().reset_index(drop=True)

    for p in (4, 3):
        got = (
            q3_shipping_priority(SF, num_partitions=p)
            .to_pandas()
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, want)


def test_inactive_customers_anti_join(ray_session):
    """Bucketed anti-join == NOT IN subquery; partition-count invariant."""
    import duckdb
    from rayld.pipelines.relational import inactive_customers

    con = duckdb.connect()
    for t in ("customer", "orders"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
            f"'{SF}/{t}.parquet')"
        )
    want = con.execute(
        "SELECT c_custkey, c_mktsegment FROM customer"
        " WHERE c_custkey NOT IN (SELECT o_custkey FROM orders"
        "  WHERE o_orderdate >= TIMESTAMP '2001-01-01')"
        " ORDER BY c_custkey"
    ).df().reset_index(drop=True)
    assert 0 < len(want)  # non-trivial on the fixture

    for p in (4, 3):
        got = (
            inactive_customers(SF, num_partitions=p)
            .to_pandas()
            .sort_values("c_custkey")
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, want)
    n_cust = con.execute("SELECT count(*) FROM customer").fetchone()[0]
    assert len(want) < n_cust  # some customers ARE active


def test_latest_event_per_user(ray_session):
    """Keep-latest dedup == row_number()=1 over (ts DESC, event_id DESC)."""
    import duckdb
    from rayld.pipelines.relational import latest_event_per_user

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{SF}/events.parquet')"
    )
    want = con.execute(
        "SELECT user_id, event_id, epoch_us(ts)::BIGINT AS ts_us,"
        " event_type, value FROM events"
        " QUALIFY row_number() OVER (PARTITION BY user_id"
        "  ORDER BY ts DESC, event_id DESC) = 1 ORDER BY user_id"
    ).df().reset_index(drop=True)

    got = (
        latest_event_per_user(SF, num_partitions=4)
        .to_pandas()
        .sort_values("user_id")
        .reset_index(drop=True)[want.columns.tolist()]
    )
    pd.testing.assert_frame_equal(got, want)
    # exactly one row per user
    n_users = con.execute(
        "SELECT count(DISTINCT user_id) FROM events"
    ).fetchone()[0]
    assert len(got) == n_users


def test_events_quarantine_routing(ray_session):
    """First-failing-rule routing: every 'error' row lands under
    error_event even when its value also exceeds 100."""
    from rayld.pipelines.relational import events_quarantine

    got = events_quarantine(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    err_ids = set(ev.loc[ev["event_type"] == "error", "event_id"])
    big_ids = set(ev.loc[(ev["event_type"] != "error")
                         & (ev["value"] > 100.0), "event_id"])
    by_reason = {r: set(g["event_id"]) for r, g in got.groupby("reason")}
    assert by_reason.get("error_event", set()) == err_ids
    assert by_reason.get("value_out_of_range", set()) == big_ids
    assert len(got) == len(err_ids) + len(big_ids)


def test_duplicate_ngram_spans(ray_session):
    """Exact substring-duplication stats == the DuckDB full-expansion oracle,
    partition-count invariant; short docs report zero windows."""
    import duckdb
    from rayld.pipelines.dedup import duplicate_ngram_spans

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM read_parquet("
        f"'{SF}/documents.parquet')"
    )
    want = con.execute(
        "WITH t AS (SELECT doc_id,"
        "  regexp_extract_all(text, '[A-Za-z0-9]+') AS toks FROM documents),"
        " w AS (SELECT doc_id, greatest(len(toks) - 7, 0)::BIGINT"
        "  AS n_windows, toks FROM t),"
        " i AS (SELECT doc_id, toks,"
        "  unnest(generate_series(1, len(toks) - 7)) AS i"
        "  FROM w WHERE len(toks) >= 8),"
        " p AS (SELECT doc_id, array_to_string(toks[i:i+7], ' ') AS ng"
        "  FROM i),"
        " c AS (SELECT ng, count(*) AS tot FROM p GROUP BY ng),"
        " d AS (SELECT doc_id, count(*)::BIGINT AS n_dup FROM p"
        "  JOIN c USING (ng) WHERE tot > 1 GROUP BY doc_id)"
        " SELECT w.doc_id, w.n_windows,"
        " coalesce(d.n_dup, 0)::BIGINT AS n_dup_positions,"
        " CASE WHEN w.n_windows > 0 THEN"
        "  coalesce(d.n_dup, 0) / w.n_windows::DOUBLE ELSE 0.0 END"
        "  AS dup_fraction"
        " FROM w LEFT JOIN d USING (doc_id) ORDER BY doc_id"
    ).df().reset_index(drop=True)

    for p in (4, 3):
        got = (
            duplicate_ngram_spans(SF, num_partitions=p)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, want)
    # the fixture corpus contains real repeated 8-gram spans
    assert (want["n_dup_positions"] > 0).any()
    assert ((want["dup_fraction"] >= 0) & (want["dup_fraction"] <= 1)).all()


def test_funnel_conversion(ray_session):
    """Windowed funnel == DuckDB LEFT JOIN existence oracle; bucket count
    never changes the result; conversions are a strict subset of signups."""
    import duckdb
    from rayld.pipelines.relational import funnel_conversion

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW events AS SELECT * FROM read_parquet("
        f"'{SF}/events.parquet')"
    )
    want = con.execute(
        "WITH s AS (SELECT event_id, user_id, ts FROM events"
        "  WHERE event_type = 'signup'),"
        " p AS (SELECT user_id, ts FROM events"
        "  WHERE event_type = 'purchase'),"
        " flags AS (SELECT s.event_id, s.ts,"
        "  CASE WHEN count(p.user_id) > 0 THEN 1 ELSE 0 END AS conv"
        "  FROM s LEFT JOIN p ON p.user_id = s.user_id"
        "   AND p.ts >= s.ts AND p.ts < s.ts + INTERVAL 7 DAY"
        "  GROUP BY s.event_id, s.ts)"
        " SELECT epoch(date_trunc('day', ts))::BIGINT AS day_start,"
        " count(*)::BIGINT AS n_signups, sum(conv)::BIGINT AS n_converted"
        " FROM flags GROUP BY 1 ORDER BY 1"
    ).df().reset_index(drop=True)

    for p in (4, 3):
        got = (
            funnel_conversion(SF, num_partitions=p)
            .to_pandas()
            .sort_values("day_start")
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, want)
    assert (want["n_converted"] <= want["n_signups"]).all()
    assert want["n_converted"].sum() > 0  # the window actually converts


def test_top_tokens_sketch_exact(ray_session):
    """Heavy-hitter pruned top-k == the exact full-vocabulary path, and the
    pruning guarantee holds: the k-th count exceeds N/(capacity+1). A tiny
    capacity still yields a candidate SUPERSET of the true heavy hitters."""
    from rayld.pipelines.text import _TOKEN_RE, token_count, top_tokens_sketch

    # independent single-process recount (token_frequencies now IS the
    # sketch plan, so it can no longer serve as the reference here)
    toks = (pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
            ["text"].str.findall(_TOKEN_RE).explode().dropna())
    vc = toks.value_counts().reset_index()
    vc.columns = ["token", "n"]
    exact = (vc.sort_values(["n", "token"], ascending=[False, True])
             .head(20).reset_index(drop=True))
    exact["n"] = exact["n"].astype("int64")
    got = top_tokens_sketch(SF, k=20).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["token", "n"]], exact[["token", "n"]])

    n_total = int(token_count(SF).to_pandas()["n_tokens"].sum())
    assert got["n"].min() > n_total / (4096 + 1)

    # small capacity: per-batch top-64 must still capture tokens with corpus
    # frequency > N/65 (pigeonhole superset property)
    small = top_tokens_sketch(SF, k=5, capacity=64).to_pandas()
    heavy = exact[exact["n"] > n_total / 65]
    assert set(heavy["token"].head(5)) <= set(small["token"])


def _toy_edges_ds():
    import ray.data as rd

    # two communities + a dangling sink + a multi-edge
    df = pd.DataFrame({
        "src": ["a", "b", "c", "a", "d", "e", "e", "a"],
        "dst": ["b", "c", "a", "c", "e", "d", "f", "b"],
    })
    return rd.from_pandas(df)


def test_pagerank_paths_parity(ray_session):
    """Broadcast and join paths are value-identical to each other and to the
    single-process numpy reference (dangling node f redistributes mass)."""
    from rayld.pipelines.graph import pagerank, pagerank_reference

    edges = _toy_edges_ds().materialize()
    want = pagerank_reference(
        edges.to_pandas(), n_iter=8
    ).sort_values("node").reset_index(drop=True)
    for path in ("broadcast", "join"):
        got = (
            pagerank(edges, n_iter=8, num_partitions=3, force_path=path)
            .to_pandas().sort_values("node").reset_index(drop=True)
        )
        assert got["node"].tolist() == want["node"].tolist(), path
        np.testing.assert_allclose(
            got["rank"].to_numpy(), want["rank"].to_numpy(),
            rtol=0, atol=1e-12, err_msg=path,
        )
        assert abs(got["rank"].sum() - 1.0) < 1e-12


def test_entity_degrees_and_histogram(ray_session):
    """Degrees over the KG edge list match a pandas recount; bnode entities
    stay conversation-scoped (qualified labels)."""
    from rayld.pipelines.graph import (
        degree_histogram,
        entity_degrees,
        triples_to_edges,
    )
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30)).materialize()
    edges = triples_to_edges(triples).to_pandas()
    got = entity_degrees(triples).to_pandas().set_index("entity")

    out = edges["src"].value_counts()
    inn = edges["dst"].value_counts()
    want = pd.concat(
        [out.rename("out_degree"), inn.rename("in_degree")], axis=1
    ).fillna(0).astype("int64")
    assert len(got) == len(want)
    got = got.sort_index()
    want = want.sort_index()
    assert (got["out_degree"].to_numpy()
            == want["out_degree"].to_numpy()).all()
    assert (got["in_degree"].to_numpy()
            == want["in_degree"].to_numpy()).all()

    hist = degree_histogram(triples).to_pandas()
    assert hist["n_entities"].sum() == len(want)
    total = (want["out_degree"] + want["in_degree"]).value_counts()
    hw = hist.set_index("degree")["n_entities"].sort_index()
    assert (hw == total.sort_index()).all()

    # conversation scoping: any bnode entity carries its conv qualifier
    bnodes = [e for e in want.index if "_:" in e]
    assert all("|_:" in e for e in bnodes)


def test_kg_pagerank_gate(ray_session):
    from rayld.pipelines.graph import pagerank_check

    out = pagerank_check(n_conversations=40)
    assert out["parity_ok"].iloc[0] == 1
    assert out["rank_sums_to_one"].iloc[0] == 1


def test_vocab_coverage(ray_session):
    """Coverage equals the exact top-V mass over the exact total; a larger
    vocabulary never lowers coverage."""
    from rayld.pipelines.text import token_count, token_frequencies, vocab_coverage

    out = vocab_coverage(SF, vocab_size=100)
    total = int(token_count(SF).to_pandas()["n_tokens"].sum())
    top = token_frequencies(SF, top_n=100).to_pandas()
    assert out["total_tokens"].iloc[0] == total
    assert out["covered"].iloc[0] == int(top["n"].sum())
    big = vocab_coverage(SF, vocab_size=500)
    assert big["coverage"].iloc[0] >= out["coverage"].iloc[0]
    assert 0 < out["coverage"].iloc[0] <= 1


def test_doc_surprisal(ray_session):
    """Distributed unigram surprisal == a direct single-process recount;
    partition-count invariant (the integer micro-nat contract makes sums
    order-free); rare-token docs score higher mean surprisal."""
    from rayld.pipelines.text import doc_surprisal

    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    import re as _re

    tok_re = _re.compile(r"[A-Za-z0-9]+")
    all_toks = docs["text"].map(tok_re.findall)
    from collections import Counter

    corpus = Counter()
    for ts in all_toks:
        corpus.update(ts)
    total = sum(corpus.values())
    sur = {t: int(np.floor(-np.log(n / total) * 1_000_000 + 0.5))
           for t, n in corpus.items()}
    want = {}
    for d, ts in zip(docs["doc_id"], all_toks):
        if ts:
            want[int(d)] = (sum(sur[t] for t in ts), len(ts))

    for p in (4, 3):
        got = doc_surprisal(SF, num_partitions=p).to_pandas()
        assert len(got) == len(want)
        for _, r in got.iterrows():
            w = want[int(r["doc_id"])]
            assert (int(r["surprisal_micro_nats"]), int(r["n_tokens"])) == w


def test_events_anomaly(ray_session):
    """Z-score flags match a single-process integer-cents recount, and every
    flagged value really is > 3 sigma from its type mean."""
    from rayld.pipelines.relational import events_anomaly

    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    ev = ev.assign(vc=vc)
    flags = []
    for t, g in ev.groupby("event_type"):
        n = float(len(g)); s = float(g["vc"].sum())
        ss = float((g["vc"] * g["vc"]).sum())
        lhs = (n * g["vc"].to_numpy(np.int64) - s) ** 2
        flags.append(g[lhs > 9.0 * (n * ss - s * s)])
    want = pd.concat(flags).sort_values("event_id")

    got = events_anomaly(SF).to_pandas().sort_values("event_id")
    assert got["event_id"].tolist() == want["event_id"].tolist()
    assert len(got) > 0
    # semantic check against plain float z-scores (tolerant band)
    z = ev.groupby("event_type")["value"].transform(
        lambda v: (v - v.mean()) / v.std(ddof=0)
    )
    assert (z[ev["event_id"].isin(got["event_id"])].abs() > 2.9).all()


def test_kmeans_train_parity_and_inertia(ray_session):
    """Distributed Lloyd's == single-process Lloyd's from the same seedless
    init; inertia is non-increasing across iterations; partition count never
    changes the result."""
    from rayld.pipelines.ann import (
        _assign_clusters,
        _kmeans_seeds,
        kmeans_check,
        kmeans_train,
    )

    out = kmeans_check(SF, n_clusters=6, n_iter=4)
    assert out["parity_ok"].iloc[0] == 1
    assert out["counts_ok"].iloc[0] == 1
    assert out["all_points_assigned"].iloc[0] == 1

    a = kmeans_train(SF, n_clusters=6, n_iter=4, num_partitions=4)
    b = kmeans_train(SF, n_clusters=6, n_iter=4, num_partitions=3)
    pd.testing.assert_frame_equal(a, b)

    # inertia decreases with more Lloyd's iterations
    emb = pd.read_parquet(f"{SF}/embeddings.parquet", columns=["embedding"])
    X = np.stack([np.asarray(e, dtype=np.float64) for e in emb["embedding"]])

    def inertia(res, k=6):
        dim = res["dim_idx"].max() + 1
        C = np.zeros((k, dim))
        C[res["cluster"].to_numpy(np.int64),
          res["dim_idx"].to_numpy(np.int64)] = res["value"].to_numpy()
        asg = _assign_clusters(X, C)
        return float(((X - C[asg]) ** 2).sum())

    i1 = inertia(kmeans_train(SF, n_clusters=6, n_iter=1))
    i4 = inertia(a)
    assert i4 <= i1 + 1e-9
    seeds = _kmeans_seeds(SF, 6)
    assert seeds.shape[0] == 6


def test_pq_topk_recall(ray_session):
    """PQ ADC scan + exact re-rank clears the 0.9 recall gate vs exact
    brute force, and returns exactly k deterministic rows per query."""
    from rayld.pipelines.ann import pq_recall_check, pq_topk

    out = pq_recall_check(SF, k=5)
    assert out["recall_ge_090"].iloc[0] == 1
    assert out["rows_per_query_ok"].iloc[0] == 1
    a = pq_topk(SF, k=5)
    b = pq_topk(SF, k=5)
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )  # deterministic: seedless scattered sample + stable tie-breaks


def test_hard_negatives(ray_session):
    """Mined negatives equal a numpy recount, never share the query's
    label, and never include the query itself."""
    from rayld.pipelines.ann import hard_negatives

    got = hard_negatives(SF, k=5).to_pandas()
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    mat = np.stack([np.asarray(e, np.float64) for e in emb["embedding"]])
    mat = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    ids = emb["vec_id"].to_numpy(np.int64)
    lbl = emb.set_index("vec_id")["label"]
    for qid in (0, 1, 2, 3):
        qrow = mat[np.where(ids == qid)[0][0]]
        sims = mat @ qrow
        valid = (lbl.reindex(ids).to_numpy(np.int64) != lbl[qid])
        order = np.lexsort((ids[valid], -sims[valid]))[:5]
        want = ids[valid][order].tolist()
        g = got[got["query_id"] == qid]["vec_id"].tolist()
        assert g == want, (qid, g, want)
        assert qid not in g
        assert (lbl.reindex(g).to_numpy(np.int64) != lbl[qid]).all()


def test_logreg_train_parity(ray_session):
    """Distributed full-batch GD == single-process GD from the same zero
    init; the loss trace improves with more steps; partition count never
    changes the result."""
    from rayld.pipelines.ann import logreg_check, logreg_train

    out = logreg_check(SF, n_iter=4)
    assert out["parity_ok"].iloc[0] == 1
    assert out["loss_improved"].iloc[0] == 1
    assert out["all_rows_counted"].iloc[0] == 1

    a = logreg_train(SF, n_iter=4, num_partitions=4)
    b = logreg_train(SF, n_iter=4, num_partitions=3)
    pd.testing.assert_frame_equal(a, b)

    l1 = logreg_train(SF, n_iter=1)["final_loss"].iloc[0]
    l4 = a["final_loss"].iloc[0]
    assert l4 < l1  # GD makes progress between step 1 and step 4


def test_bgp_match_user_mentions(ray_session):
    """BGP join == a pandas recount of the same pattern on the same triples;
    partition-count invariant; capture cartesian semantics hold (a turn with
    two mentions yields two rows)."""
    from rayld.pipelines.graph import bgp_match, kg_user_turn_mentions
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    df = triples.to_pandas()
    typ = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    turns = set(df.loc[
        (df["pred"] == typ)
        & (df["obj_value"] == "https://rayld.dev/vocab#Turn"), "subj"
    ])
    users = set(df.loc[
        (df["pred"] == "https://rayld.dev/vocab#role")
        & (df["obj_value"] == "user"), "subj"
    ])
    about = df[df["pred"] == "http://schema.org/about"]
    want = about[about["subj"].isin(turns & users)][
        ["conv_id", "subj", "obj_value"]
    ].rename(columns={"subj": "turn", "obj_value": "entity"})
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    assert len(want) > 0

    for p in (4, 3):
        got = (
            kg_user_turn_mentions(triples, num_partitions=p)
            .to_pandas()
            .sort_values(["conv_id", "turn", "entity"])
            .reset_index(drop=True)[want.columns.tolist()]
        )
        pd.testing.assert_frame_equal(got, want)

    # a turn with >1 mention produces one row per mention (cartesian leg)
    per_turn = want.groupby("turn").size()
    assert (per_turn > 1).any()

    # generic matcher: constant-object pattern alone selects exact subjects
    only_turns = bgp_match(triples, [
        {"pred": typ, "obj": "https://rayld.dev/vocab#Turn"},
    ]).to_pandas()
    assert set(only_turns["subj"]) == turns


def test_ppm_decode_real(ray_session):
    """The PPM path performs a REAL byte-level decode: features match a
    direct numpy decode of the same payloads; malformed payloads route to
    the decode_error side instead of failing the stage."""
    import pyarrow as pa
    from rayld.pipelines.multimodal import (
        PpmDecoder,
        media_ppm_features,
        ppm_media_dataset,
    )

    got = media_ppm_features(SF).to_pandas().sort_values("media_id")
    raw = ppm_media_dataset(SF).to_pandas()
    assert len(got) == len(raw)
    # direct decode of one payload
    row = raw.iloc[7]
    payload = bytes(row["payload"])
    assert payload.startswith(b"P6\n32 24\n255\n")
    img = np.frombuffer(
        payload, dtype=np.uint8, offset=len(b"P6\n32 24\n255\n")
    ).reshape(24, 32, 3)
    want_r = int(img[:, :, 0].astype(np.int64).sum()) * 1_000_000 // (32 * 24)
    g = got[got["media_id"] == row["media_id"]].iloc[0]
    assert int(g["mean_r_micro"]) == want_r
    assert int(g["width"]) == 32 and int(g["height"]) == 24
    assert int(g["mean_g_micro"]) == 15_500_000  # analytic gradient mean

    # malformed payloads quarantine
    dec = PpmDecoder()
    out = dec(pa.table({
        "media_id": pa.array([1, 2, 3], pa.int64()),
        "payload": pa.array(
            [b"nonsense", b"P6\n2 2\n255\n" + b"\x00" * 12,
             b"P6\n2 2\n255\n" + b"\x00" * 5],  # truncated
            pa.binary()),
        "media_type": pa.array(["x"] * 3, pa.string()),
    })).to_pandas()
    assert out.set_index("media_id")["decode_error"].to_dict() == {
        1: "not a P6 ppm", 2: "", 3: "truncated or non-8-bit ppm",
    }


def test_wav_decode_real(ray_session):
    """The WAV path walks real RIFF chunks: features match the stdlib wave
    module's read of the same payloads; malformed payloads quarantine."""
    import io
    import wave

    import pyarrow as pa
    from rayld.pipelines.multimodal import (
        WavDecoder,
        media_wav_features,
        wav_media_dataset,
    )

    got = media_wav_features(SF).to_pandas().sort_values("media_id")
    raw = wav_media_dataset(SF).to_pandas()
    assert len(got) == len(raw)
    row = raw.iloc[3]
    with wave.open(io.BytesIO(bytes(row["payload"]))) as w:
        assert w.getframerate() == 8000
        assert w.getnchannels() == 1 and w.getsampwidth() == 2
        pcm = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    g = got[got["media_id"] == row["media_id"]].iloc[0]
    assert int(g["n_samples"]) == len(pcm) == 1024
    assert int(g["mean_milli"]) == int(pcm.astype(np.int64).sum()) * 1000 // len(pcm)

    dec = WavDecoder()
    out = dec(pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([b"RIFFxxxxNOPE", bytes(raw.iloc[0]["payload"])],
                            pa.binary()),
        "media_type": pa.array(["x", "x"], pa.string()),
    })).to_pandas().set_index("media_id")
    assert out.loc[1, "decode_error"] != ""
    assert out.loc[2, "decode_error"] == ""


def test_events_rollup_levels(ray_session):
    """ROLLUP invariants: each level's totals agree, and level-2 equals the
    full row count."""
    from rayld.pipelines.relational import events_rollup

    out = events_rollup(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type"])
    l0, l1, l2 = (out[out["level"] == k] for k in (0, 1, 2))
    assert l2["n_events"].iloc[0] == len(ev)
    assert l0["n_events"].sum() == l1["n_events"].sum() == len(ev)
    assert abs(l0["sum_value"].sum() - l2["sum_value"].iloc[0]) < 1e-6
    assert set(l1["event_type"]) == set(ev["event_type"].unique())
    assert (l1["window_start"] == -1).all() and (l2["event_type"] == "").all()


def test_user_running_value(ray_session):
    """Running totals match a pandas window recount exactly (integer
    cents); the last running value per user equals the user's total."""
    from rayld.pipelines.relational import user_running_value

    got = user_running_value(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).sort_values(["user_id", "ts", "event_id"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    want = ev.assign(rv=vc.groupby(ev["user_id"]).cumsum() / 100.0)
    m = got.set_index("event_id")["running_value"]
    assert np.allclose(
        m.reindex(want["event_id"]).to_numpy(), want["rv"].to_numpy(),
        rtol=0, atol=0,
    )
    last = want.groupby("user_id").tail(1)
    total = vc.groupby(ev["user_id"]).sum() / 100.0
    assert np.allclose(last.set_index("user_id")["rv"], total, rtol=0, atol=0)


def test_events_lead_lag(ray_session):
    """Per-user LAG matches a pandas shift recount; first event per user is
    sentinel-flagged and gaps are non-negative."""
    from rayld.pipelines.relational import events_lead_lag

    got = events_lead_lag(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).sort_values(["user_id", "ts", "event_id"])
    ts_us = ev["ts"].astype("datetime64[us]").astype("int64")
    vc = pd.Series(
        np.floor(ev["value"] * 100 + 0.5).astype("int64"), index=ev.index
    )
    want = pd.DataFrame({
        "event_id": ev["event_id"],
        "gap_us": (ts_us - ts_us.groupby(ev["user_id"]).shift())
        .fillna(-1).astype("int64"),
        "value_delta": (vc - vc.groupby(ev["user_id"]).shift())
        .fillna(0).astype("int64") / 100.0,
    })
    m = got.set_index("event_id").reindex(want["event_id"])
    assert (m["gap_us"].to_numpy() == want["gap_us"].to_numpy()).all()
    assert np.allclose(
        m["value_delta"].to_numpy(), want["value_delta"].to_numpy(),
        rtol=0, atol=0,
    )
    firsts = got[got["gap_us"] == -1]
    assert len(firsts) == ev["user_id"].nunique()
    assert (got["gap_us"] >= -1).all()


def test_user_event_pivot(ray_session):
    """Pivot row sums equal per-user event counts; column sums equal the
    corpus type distribution; totals are exact cents."""
    from rayld.pipelines.relational import user_event_pivot, _EVENT_TYPES

    got = user_event_pivot(SF).to_pandas().set_index("user_id")
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["user_id", "event_type", "value"]
    )
    cols = [f"n_{t}" for t in _EVENT_TYPES]
    assert got[cols].sum(axis=1).equals(
        ev.groupby("user_id").size().reindex(got.index)
    )
    by_type = ev.groupby("event_type").size()
    for t in _EVENT_TYPES:
        assert got[f"n_{t}"].sum() == by_type.get(t, 0)
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    want_total = vc.groupby(ev["user_id"]).sum() / 100.0
    assert np.allclose(
        got["total_value"].sort_index(), want_total.sort_index(),
        rtol=0, atol=0,
    )


def test_grouped_median(ray_session):
    """Exact percentile_disc parity with DuckDB per event type."""
    import duckdb

    from rayld.pipelines.relational import grouped_median

    got = grouped_median(SF).to_pandas().set_index("event_type").sort_index()
    want = duckdb.sql(
        "SELECT event_type, count(*)::BIGINT AS n_events,"
        " (percentile_disc(0.5) WITHIN GROUP ("
        "   ORDER BY floor(value*100+0.5)::BIGINT))/100.0 AS median_value,"
        " (percentile_disc(0.9) WITHIN GROUP ("
        "   ORDER BY floor(value*100+0.5)::BIGINT))/100.0 AS p90_value"
        f" FROM '{SF}/events.parquet' GROUP BY 1 ORDER BY 1"
    ).df().set_index("event_type")
    assert (got["n_events"] == want["n_events"]).all()
    assert np.allclose(got["median_value"], want["median_value"], rtol=0,
                       atol=0)
    assert np.allclose(got["p90_value"], want["p90_value"], rtol=0, atol=0)


def test_user_spend_rank(ray_session):
    """Distributed range-bucket rank equals a single-process recount (RANK
    and CUME_DIST semantics, ties share both), at a shift that forces many
    range buckets."""
    from rayld.pipelines.relational import user_spend_rank

    got = user_spend_rank(SF, range_shift=12).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    spend = vc.groupby(ev["user_id"]).sum()
    order = np.sort(spend.to_numpy())
    left = np.searchsorted(order, spend.to_numpy(), side="left")
    right = np.searchsorted(order, spend.to_numpy(), side="right")
    want = pd.DataFrame({
        "user_id": spend.index,
        "spend_rank": left + 1,
        "spend_cume": right / len(order),
    }).set_index("user_id")
    m = got.set_index("user_id").reindex(want.index)
    assert (m["spend_rank"].to_numpy() == want["spend_rank"].to_numpy()).all()
    assert np.allclose(m["spend_cume"], want["spend_cume"], rtol=0, atol=0)
    # the shift must actually have split the spend range
    assert len(got) == len(want)

    # the DEFAULT data-derived shift (~128 buckets over the observed max)
    # must give identical ranks — and actually split the range
    dflt = user_spend_rank(SF).to_pandas().set_index("user_id")
    dflt = dflt.reindex(want.index)
    assert (dflt["spend_rank"].to_numpy()
            == want["spend_rank"].to_numpy()).all()
    shift = max(0, int(spend.max()).bit_length() - 7)
    assert (spend.to_numpy() >> shift).max() > 0  # >1 range bucket


def test_user_spend_ntile(ray_session):
    """Distributed NTILE equals the single-process recount under the
    deterministic (spend_c, user_id) order, and tile sizes differ by at
    most one with the big tiles first."""
    from rayld.pipelines.relational import user_spend_ntile

    got = user_spend_ntile(SF, n_tiles=7, range_shift=12).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    spend = vc.groupby(ev["user_id"]).sum().sort_index()
    order = np.lexsort((spend.index.to_numpy(), spend.to_numpy()))
    n = len(spend)
    rn = np.empty(n, dtype=np.int64)
    rn[order] = np.arange(1, n + 1)
    big, small, n_big = n // 7 + 1, max(n // 7, 1), n % 7
    cut = n_big * big
    want_tile = np.where(rn <= cut, (rn - 1) // big + 1,
                         n_big + (rn - cut - 1) // small + 1)
    m = got.set_index("user_id").reindex(spend.index)
    assert (m["tile"].to_numpy() == want_tile).all()
    sizes = m["tile"].value_counts().sort_index().to_numpy()
    assert sizes.max() - sizes.min() <= 1
    assert (np.diff(sizes) <= 0).all()  # big tiles first


def test_bloom_semi_join(ray_session):
    """Bloom-prefiltered semi-join equals the pandas recount, including
    with a deliberately tiny bitmap that forces false positives — the
    exact pass must remove every one (and the Bloom pass can never drop a
    true member)."""
    from rayld.pipelines.relational import bloom_semi_join

    cust = pd.read_parquet(f"{SF}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    orders = pd.read_parquet(
        f"{SF}/orders.parquet",
        columns=["o_custkey", "o_orderstatus", "o_totalprice"])
    seg = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    kept = orders[orders["o_custkey"].isin(seg)].copy()
    kept["price_c"] = np.floor(
        kept["o_totalprice"] * 100 + 0.5).astype("int64")
    want = kept.groupby("o_orderstatus").agg(
        n_orders=("o_custkey", "size"), revenue_c=("price_c", "sum"))

    for m_bits in (1 << 20, 1 << 8):  # 2^8 bits << #keys => many FPs
        got = bloom_semi_join(
            SF, m_bits=m_bits, num_partitions=4
        ).to_pandas().set_index("o_orderstatus").sort_index()
        assert (got["n_orders"] == want["n_orders"]).all(), m_bits
        assert (got["revenue_c"] == want["revenue_c"]).all(), m_bits


def test_bloom_incremental_dedup(ray_session, tmp_path):
    """Two-sided Bloom incremental dedup equals the pandas recount on the
    real corpus (also with a tiny FP-forcing bitmap), and recovers a
    planted cross-split duplicate exactly."""
    import hashlib

    from rayld.pipelines.dedup import bloom_incremental_dedup

    def split_is_old(doc_id) -> bool:
        b = int(hashlib.md5(str(doc_id).encode()).hexdigest()[:8], 16) % 100
        return b < 50

    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    docs["h"] = [hashlib.md5(t[:80].encode()).hexdigest()
                 for t in docs["text"]]
    docs["is_old"] = [split_is_old(i) for i in docs["doc_id"]]
    old_h = set(docs.loc[docs["is_old"], "h"])
    new = docs[~docs["is_old"]]
    want = new.set_index("doc_id")["h"].isin(old_h).astype("int64")
    for m_bits in (1 << 20, 1 << 8):
        got = bloom_incremental_dedup(
            SF, m_bits=m_bits, num_partitions=4
        ).to_pandas().set_index("doc_id")
        assert len(got) == len(want), m_bits
        assert (got["dup_of_existing"].reindex(want.index)
                == want).all(), m_bits

    # planted cross-split duplicate: one old id and one new id share text.
    # _write_docs always assigns doc_id 0..n-1, so both planted ids must
    # fall inside that range for texts to land on the intended docs
    old_id = next(i for i in range(6) if split_is_old(i))
    new_id = next(i for i in range(6) if not split_is_old(i))
    texts = {old_id: "the planted duplicate body " * 8,
             new_id: "the planted duplicate body " * 8}
    ids = list(range(6))
    sf = _write_docs(tmp_path, [texts.get(i, f"unique body {i} " * 8)
                                for i in ids])
    got = bloom_incremental_dedup(
        sf, num_partitions=4
    ).to_pandas().set_index("doc_id")
    assert got.loc[new_id, "dup_of_existing"] == 1
    assert got["dup_of_existing"].sum() == 1  # the unique bodies are unique


def test_edit_distance_pairs(ray_session, tmp_path):
    """Pass-Join blocking + banded DP equals a brute-force recount on a
    planted fixture mixing exact copies, 1-2-edit variants, >k variants,
    differing lengths, and sub-min_len short strings."""
    from rayld.pipelines.dedup import _banded_levenshtein, edit_distance_pairs

    base = "abcabcabcabcabcabcabcabcabcabcabcabcabcd"[:40]
    texts = [
        base,                      # 0
        base,                      # 1: dist 0
        "x" + base[1:],            # 2: dist 1 (substitution)
        base[1:],                  # 3: dist 1 (deletion -> len 39)
        "zz" + base[2:],           # 4: dist 2
        "zzz" + base[3:],          # 5: dist 3 (excluded at k=2)
        "completely different body of text here!",  # 6
        "ab", "ac", "a", "",       # 7-10: short-block strings
        "abcdef", "abcdefg",       # 11-12: around min_len
    ]
    sf = _write_docs(tmp_path, texts)
    got = edit_distance_pairs(sf, k=2, num_partitions=4).to_pandas()
    got_set = (
        set(zip(got["doc_a"], got["doc_b"], got["dist"]))
        if "doc_a" in got.columns else set()
    )
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            d = _banded_levenshtein(texts[i][:40], texts[j][:40], 2)
            if d <= 2:
                want.add((i, j, d))
    assert got_set == want
    assert (0, 1, 0) in want and (0, 2, 1) in want and (0, 4, 2) in want
    assert not any(a == 0 and b == 5 for a, b, _ in want)  # dist 3 excluded


def test_edit_distance_pairs_hub_split(ray_session, tmp_path):
    """A planted hub (many strings sharing every segment) with a tiny
    max_block_pairs forces the 2-D grid salting path; the result must
    still equal the brute-force recount (verdict-r3 item 2: bounded
    per-task pair fan-out with zero effect on exactness)."""
    from rayld.pipelines.dedup import _banded_levenshtein, edit_distance_pairs

    base = "qwertyuiopasdfghjklzxcvbnmqwertyuiopasdf"[:40]
    # 60 exact copies of the hub string -> one (slot, content) block per
    # segment with 60x(60*5)-scale fan-out >> max_block_pairs=500
    texts = [base] * 60
    texts += ["x" + base[1:], base[2:] + "zz", "short", "sh"]
    rng = np.random.default_rng(11)
    alpha = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    texts += ["".join(rng.choice(alpha, 40)) for _ in range(20)]
    sf = _write_docs(tmp_path, texts)
    got = edit_distance_pairs(
        sf, k=2, num_partitions=4, max_block_pairs=500
    ).to_pandas()
    got_set = set(zip(got["doc_a"], got["doc_b"], got["dist"]))
    want = set()
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            d = _banded_levenshtein(texts[i][:40], texts[j][:40], 2)
            if d <= 2:
                want.add((i, j, d))
    assert got_set == want
    # the hub's 60 copies produce all C(60,2) zero-distance pairs exactly
    assert sum(1 for a, b, d in got_set if a < 60 and b < 60) == 60 * 59 // 2
    assert len(got) == len(got.drop_duplicates(["doc_a", "doc_b"]))


def test_segment_active_customers(ray_session):
    """Semi-join counts equal a pandas isin recount and never exceed the
    per-segment customer counts."""
    from rayld.pipelines.relational import segment_active_customers

    got = segment_active_customers(SF, num_partitions=4).to_pandas()
    cust = pd.read_parquet(f"{SF}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    okeys = pd.read_parquet(f"{SF}/orders.parquet",
                            columns=["o_custkey"])["o_custkey"].unique()
    want = (
        cust[cust["c_custkey"].isin(okeys)]
        .groupby("c_mktsegment").size()
    )
    m = got.set_index("c_mktsegment")["n_customers"]
    assert m.sort_index().equals(want.sort_index().astype("int64"))
    totals = cust.groupby("c_mktsegment").size()
    assert (m <= totals.reindex(m.index)).all()


def test_clickers_no_purchase(ray_session):
    """One-scan EXCEPT equals the two-scan set difference."""
    from rayld.pipelines.relational import clickers_no_purchase

    got = clickers_no_purchase(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    day = ev["ts"].dt.floor("d").astype("datetime64[s]").astype("int64")
    key = list(zip(ev["user_id"], day))
    clicks = {k for k, t in zip(key, ev["event_type"]) if t == "click"}
    buys = {k for k, t in zip(key, ev["event_type"]) if t == "purchase"}
    want = clicks - buys
    assert set(zip(got["user_id"], got["day_start"])) == want
    assert len(got) == len(want)  # no duplicate pairs


def test_clickers_and_purchasers(ray_session):
    """One-scan INTERSECT equals the two-scan set intersection, and it
    partitions the click set against the EXCEPT result."""
    from rayld.pipelines.relational import (
        clickers_and_purchasers,
        clickers_no_purchase,
    )

    got = clickers_and_purchasers(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "event_type"])
    day = ev["ts"].dt.floor("d").astype("datetime64[s]").astype("int64")
    key = list(zip(ev["user_id"], day))
    clicks = {k for k, t in zip(key, ev["event_type"]) if t == "click"}
    buys = {k for k, t in zip(key, ev["event_type"]) if t == "purchase"}
    want = clicks & buys
    pairs = set(zip(got["user_id"], got["day_start"]))
    assert pairs == want
    assert len(got) == len(want)
    exc = clickers_no_purchase(SF).to_pandas()
    exc_pairs = set(zip(exc["user_id"], exc["day_start"]))
    assert pairs | exc_pairs == clicks and not pairs & exc_pairs


def test_event_transitions(ray_session):
    """Distributed transition counts equal a pandas LAG recount, and each
    user's transitions sum to their event count minus one."""
    from rayld.pipelines.relational import event_transitions

    got = event_transitions(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = ev.groupby("user_id")["event_type"].shift()
    want = (
        pd.DataFrame({"prev_type": prev, "next_type": ev["event_type"]})
        .dropna().groupby(["prev_type", "next_type"]).size()
    )
    m = got.set_index(["prev_type", "next_type"])["n"].sort_index()
    assert m.equals(want.sort_index().astype("int64"))
    n_users = ev["user_id"].nunique()
    assert got["n"].sum() == len(ev) - n_users


def test_user_trailing_window(ray_session):
    """RANGE-frame trailing sum equals a per-row pandas recount including
    timestamp peers on both frame ends."""
    from rayld.pipelines.relational import user_trailing_window

    got = user_trailing_window(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_id", "ts", "user_id", "value"])
    ts_us = ev["ts"].astype("datetime64[us]").astype("int64")
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    m = got.set_index("event_id")
    for _, row in ev.sample(60, random_state=1).iterrows():
        t = ts_us[ev.index[ev["event_id"] == row["event_id"]][0]]
        sel = ev[(ev["user_id"] == row["user_id"])
                 & (ts_us >= t - 3_600_000_000) & (ts_us <= t)]
        want_sum = vc[sel.index].sum() / 100.0
        assert m.loc[row["event_id"], "trailing_sum"] == want_sum
        assert m.loc[row["event_id"], "trailing_n"] == len(sel)


def test_table_profile(ray_session, tmp_path):
    """Profile equals a pandas recount on the real corpus; planted nulls
    in every column are counted and excluded from min/max/distinct."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import table_profile

    got = table_profile(SF, num_partitions=4).set_index("col")
    ev = pd.read_parquet(f"{SF}/events.parquet")
    assert (got["n_rows"] == len(ev)).all()
    assert (got["n_nulls"] == 0).all()
    assert got.loc["user_id", "n_distinct"] == ev["user_id"].nunique()
    assert got.loc["event_id", "min_i"] == ev["event_id"].min()
    assert got.loc["value", "max_i"] == int(
        np.floor(ev["value"] * 100 + 0.5).max())
    assert got.loc["event_type", "min_s"] == ev["event_type"].min()
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    assert got.loc["value", "n_distinct"] == vc.nunique()
    ts_us = ev["ts"].astype("datetime64[us]").astype("int64")
    assert got.loc["ts", "max_i"] == ts_us.max()

    d = tmp_path / "nulls"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([0, 1, None, 3], pa.int64()),
        "ts": pa.array([1_704_067_200_000_000, None, 0, 0],
                       pa.timestamp("us")),
        "user_id": pa.array([None, None, 5, 5], pa.int64()),
        "event_type": pa.array(["a", None, "b", "a"], pa.string()),
        "value": pa.array([1.0, 2.005, None, None], pa.float64()),
        "props": pa.array([None, None, None, None], pa.string()),
    }), d / "events.parquet")
    p = table_profile(str(d), num_partitions=4).set_index("col")
    assert p["n_rows"].eq(4).all()
    assert p["n_nulls"].to_dict() == {
        "event_id": 1, "ts": 1, "user_id": 2, "event_type": 1,
        "value": 2, "props": 4,
    }
    assert p["n_distinct"].to_dict() == {
        "event_id": 3, "ts": 2, "user_id": 1, "event_type": 2,
        "value": 2, "props": 0,
    }
    assert p.loc["value", "max_i"] == 201  # floor(2.005*100+0.5) half-up
    assert pd.isna(p.loc["props", "min_s"])


def test_power_users(ray_session):
    """HAVING filter matches a pandas recount at a non-trivial threshold
    (some users kept, some dropped)."""
    from rayld.pipelines.relational import power_users

    got = power_users(SF, min_events=60, min_spend=100.0).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    agg = pd.DataFrame({"user_id": ev["user_id"], "vc": vc}).groupby(
        "user_id"
    ).agg(n_events=("vc", "size"), spend_c=("vc", "sum"))
    want = agg[(agg["n_events"] >= 60) & (agg["spend_c"] >= 10000)]
    assert 0 < len(want) < len(agg)
    m = got.set_index("user_id").sort_index()
    assert (m.index == want.sort_index().index).all()
    assert (m["n_events"].to_numpy()
            == want.sort_index()["n_events"].to_numpy()).all()
    assert np.allclose(
        m["spend"], want.sort_index()["spend_c"] / 100.0, rtol=0, atol=0
    )


def test_token_cms_gate(ray_session):
    """Distributed CMS merge is value-identical to a single-process sketch
    over the whole corpus (merge parity), the guarantee holds for EVERY
    token (not just the gated top-20), and all gate flags pass."""
    from rayld.pipelines.text import (
        _TOKEN_RE, _cms_cols, _cms_merged_cells, _cms_partial,
        documents, token_cms_gate,
    )
    import zlib

    got = token_cms_gate(SF)
    assert (got["cms_ok"] == 1).all() and len(got) == 20

    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    local = _cms_partial(docs).to_pandas()
    lcells = np.zeros((4, 2048), dtype=np.int64)
    lcells[local["row"], local["col"]] = local["cnt"]

    dist = _cms_merged_cells(
        documents(SF).map_batches(_cms_partial, batch_format="pandas")
    )
    assert (dist == lcells).all()

    toks = docs["text"].str.findall(_TOKEN_RE).explode().dropna()
    counts = toks.value_counts()
    hashes = np.fromiter(
        (zlib.crc32(t.encode()) for t in counts.index),
        dtype=np.uint64, count=len(counts),
    )
    cols = _cms_cols(hashes)
    est = np.min(dist[np.arange(4)[:, None], cols], axis=0)
    exact = counts.to_numpy(np.int64)
    assert (est >= exact).all()  # CMS never underestimates
    n_total = int(exact.sum())
    assert (est <= exact + np.ceil(3 * np.e / 2048 * n_total)).all()


def test_user_triangles(ray_session):
    """Distributed degree-ordered triangle census equals an itertools
    recount of the same projection graph, and the partition count never
    changes the result."""
    import itertools
    import json

    from rayld.pipelines.graph import user_triangles

    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    # null/missing props carry no key (matches the pipeline + SQL oracle)
    ks = sel["props"].map(lambda p: json.loads(p).get("k") if p else None)
    sel = sel[ks.notna()]
    edges = set()
    for _, us in sel.assign(k=ks.dropna()).groupby("k")["user_id"]:
        for a, b in itertools.combinations(sorted(set(us)), 2):
            edges.add((a, b))
    deg = pd.Series([n for e in edges for n in e]).value_counts()
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = sum(
        1 for a, b in edges for c in (adj[a] & adj[b]) if c > b
    )  # each triangle once via its max vertex
    want = {
        "n_nodes": len(deg), "n_edges": len(edges),
        "n_wedges": int((deg * (deg - 1) // 2).sum()), "n_triangles": tri,
    }
    for P in (4, 3):
        got = user_triangles(SF, num_partitions=P).iloc[0].to_dict()
        assert got == want, (P, got, want)


def test_user_kcore(ray_session, tmp_path):
    """Peel recovers a planted clique: 5 users sharing one key form a
    4-clique core; chain users (pairwise shared keys) peel away at k=4.
    Parity gate holds on the real corpus at a partial-peeling k."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayld.pipelines.graph import user_kcore, user_kcore_check

    # clique: users 0-4 all share key 1; chain: 10-11, 11-12 share keys
    rows = [(u, 1) for u in range(5)] + [(10, 2), (11, 2), (11, 3), (12, 3)]
    d = tmp_path / "g"
    d.mkdir()
    pq.write_table(pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "event_type": pa.array(["purchase"] * len(rows), pa.string()),
        "props": pa.array([f'{{"k": {k}}}' for _, k in rows], pa.string()),
    }), d / "events.parquet")
    core = user_kcore(str(d), k=4, num_partitions=4).to_pandas()
    assert set(core["node"]) == {0, 1, 2, 3, 4}
    assert (core["core_degree"] == 4).all()

    out = user_kcore_check(SF, k=12)
    assert out["parity_ok"].iloc[0] == 1
    assert out["all_degrees_ge_k"].iloc[0] == 1


def test_entity_cooccurrence(ray_session):
    """Distributed co-occurrence equals a single-process pandas recount
    over the same triples, and weights are symmetric-by-construction
    (e1 < e2, each unordered pair exactly once)."""
    from rayld.pipelines.graph import entity_cooccurrence
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = entity_cooccurrence(triples, num_partitions=4).to_pandas()

    t = triples.to_pandas()
    m = t[(t["pred"] == "http://schema.org/about")
          & (t["obj_kind"] == "IRI")][["conv_id", "obj_value"]]
    m = m.drop_duplicates()
    j = m.merge(m, on="conv_id", suffixes=("_1", "_2"))
    j = j[j["obj_value_1"] < j["obj_value_2"]]
    want = j.groupby(["obj_value_1", "obj_value_2"]).size()

    assert len(got) == len(want) > 0
    assert (got["e1"] < got["e2"]).all()
    got_map = got.set_index(["e1", "e2"])["n_convs"]
    assert got_map.sort_index().equals(
        want.sort_index().astype("int64")
    )


def test_value_quantile_sketch(ray_session):
    """All gate flags pass at default k; with k = corpus size the sample is
    the whole table so the estimate's rank must be within 1/N of q (exact
    up to the <= / < boundary), proving the bottom-k merge loses nothing."""
    from rayld.pipelines.relational import value_quantile_sketch

    got = value_quantile_sketch(SF).to_pandas()
    assert (got["rank_ok"] == 1).all() and len(got) == 4
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["value"])
    assert (got["n_total"] == len(ev)).all()

    # with the full table as the sample the estimate's rank is within a few
    # 1/N of q, so a 0.2-sigma band (~10/N here) must pass — it would not
    # survive any real sampling or merge loss
    full = value_quantile_sketch(SF, k=len(ev), n_sigma=0.2).to_pandas()
    assert (full["rank_ok"] == 1).all()
    vals = np.sort(ev["value"].to_numpy(np.float64))
    for q in (250, 500, 900, 990):
        i = min(len(vals) - 1, max(0, int(np.ceil(q / 1000 * len(vals))) - 1))
        rank = (ev["value"] <= vals[i]).sum() / len(ev)
        assert abs(rank - q / 1000) <= 2 / len(ev) + 1e-12


def test_grouped_corr(ray_session):
    """Exact-moment correlation/regression matches numpy's corrcoef/polyfit
    per language, and r is within [-1, 1]."""
    from rayld.pipelines.text import grouped_corr

    got = grouped_corr(SF).to_pandas().set_index("lang")
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["text", "lang"])
    x = docs["text"].str.len().astype("int64")
    y = docs["text"].str.findall(r"[A-Za-z0-9]+").str.len().astype("int64")
    assert (got["corr_r"].abs() <= 1).all()
    for lang, g in docs.assign(x=x, y=y).groupby("lang"):
        want_r = np.corrcoef(g["x"], g["y"])[0, 1]
        slope, intercept = np.polyfit(g["x"], g["y"], 1)
        assert abs(got.loc[lang, "corr_r"] - want_r) < 1e-9
        assert abs(got.loc[lang, "slope"] - slope) < 1e-9
        assert abs(got.loc[lang, "intercept"] - intercept) < 1e-6
        assert got.loc[lang, "n_docs"] == len(g)


def _write_docs(tmpdir: str, texts: list, start_id: int = 0) -> str:
    """Write a minimal documents.parquet a pipeline + its DuckDB oracle can
    both read (edge-case fixtures the synthetic corpus doesn't contain)."""
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array(range(start_id, start_id + len(texts)),
                           pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s0"] * len(texts), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    pq.write_table(t, f"{tmpdir}/documents.parquet")
    return tmpdir


def _oracle_on_dir(name: str, sf_dir: str) -> pd.DataFrame:
    """Run a registered oracle_sql() entry against one directory's tables
    (the check_queries harness in miniature)."""
    import importlib.util

    import duckdb

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", str(Path(__file__).resolve().parents[1]
                             / "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS"
        f" SELECT * FROM '{sf_dir}/documents.parquet'"
    )
    return con.execute(mod.oracle_sql()[name]).df()


def test_pack_sequences_zero_token_edge(ray_session, tmp_path):
    """The packing recurrence matches the oracle on the inputs the fixtures
    lack: a zero-token doc at a chunk start followed by an oversize doc
    (which must open a NEW bin, like the oracle's recurrence), plus an
    oversize FIRST doc (which must stay in bin 0)."""
    from rayld.pipelines.curation import pack_sequences

    texts = ["", " ".join(f"t{i}" for i in range(300)),
             " ".join(f"u{i}" for i in range(300)), "small doc here"]
    d = _write_docs(str(tmp_path), texts)
    got = pack_sequences(d).to_pandas().sort_values("doc_id")
    want = _oracle_on_dir("pack_sequences", d).sort_values("doc_id")
    got = got.reset_index(drop=True)
    want = want.reset_index(drop=True)
    for c in ["doc_id", "bin_id", "n_tokens", "token_offset"]:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
    # doc 0 (0 tokens) shares chunk 0 bin 0; doc 1 (300 tokens, does not
    # fit) opens bin 1 exactly as the oracle's recurrence does
    assert got.loc[0, "bin_id"] == 0 and got.loc[1, "bin_id"] == 1


def test_normalized_dedup_unicode_ws_parity(ray_session, tmp_path):
    """ASCII-only whitespace contract: \\xa0 must NOT collapse (RE2 \\s
    parity), so the Ray-side hash matches the DuckDB oracle on non-ASCII
    whitespace the fixtures lack."""
    from rayld.pipelines.dedup import dedup_exact_normalized

    texts = ["hello\xa0world", "hello world", "hello  world",
             " hello world "]
    d = _write_docs(str(tmp_path), texts)
    got = set(dedup_exact_normalized(d).to_pandas()["doc_id"])
    want = set(_oracle_on_dir("dedup_exact_normalized", d)["doc_id"])
    assert got == want
    # ASCII-normalized variants (1,2,3) collapse to survivor 1; the \xa0
    # doc does NOT collapse with them (RE2 \s parity) and survives alone
    assert got == {0, 1}


def test_ivf_sample_threshold_scale():
    """The scatter threshold never collapses to zero — including above
    2^32 rows, where the old integer-division order emptied the sample."""
    from rayld.pipelines.ann import _sample_threshold

    assert int(_sample_threshold(10**10, 2048)) >= 1
    assert int(_sample_threshold(1 << 40, 2048)) >= 1
    # and it still approximates sample/n * 2^32 at moderate sizes
    t = int(_sample_threshold(10**6, 2048))
    assert abs(t - 2048 / 10**6 * (1 << 32)) < 2
    # full-table sampling keeps everything
    assert int(_sample_threshold(100, 2048)) == 1 << 32


def test_asof_tie_break_pinned(ray_session, tmp_path):
    """Two clicks sharing (user_id, ts): the attribution must pick the max
    event_id on both the Ray side and the (window-form) oracle — the tie
    the fixtures never contain."""
    import duckdb
    import importlib.util
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import asof_join_attribution

    ts = pd.Timestamp("2024-01-01 12:00:00")
    ev = pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([ts, ts, ts + pd.Timedelta(minutes=5),
                        ts - pd.Timedelta(minutes=1)],
                       pa.timestamp("us")),
        "user_id": pa.array([7, 7, 7, 7], pa.int64()),
        "event_type": pa.array(
            ["click", "click", "purchase", "click"], pa.string()
        ),
        "value": pa.array([1.0, 1.0, 5.0, 1.0], pa.float64()),
        "props": pa.array(["{}"] * 4, pa.string()),
    })
    pq.write_table(ev, f"{tmp_path}/events.parquet")

    got = asof_join_attribution(str(tmp_path)).to_pandas()
    assert len(got) == 1
    assert got.loc[0, "click_id"] == 2  # max event_id among the ts ties

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", str(Path(__file__).resolve().parents[1]
                             / "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS"
                f" SELECT * FROM '{tmp_path}/events.parquet'")
    want = con.execute(mod.oracle_sql()["asof_join_attribution"]).df()
    assert len(want) == 1 and want.loc[0, "click_id"] == 2


def test_pack_sequences_randomized_oracle_parity(ray_session, tmp_path):
    """Seeded randomized packing inputs rich in the hard classes (zero-token
    docs, exactly-capacity docs, oversize docs) must match the recursive-CTE
    oracle doc-for-doc across multiple draws."""
    from rayld.pipelines.curation import pack_sequences

    pool = [0, 0, 1, 3, 50, 100, 200, 255, 256, 257, 300, 520]
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        ns = rng.choice(pool, size=150)
        texts = [" ".join(f"w{j}" for j in range(n)) for n in ns]
        d = str(tmp_path / f"s{seed}")
        import os
        os.makedirs(d, exist_ok=True)
        _write_docs(d, texts)
        got = pack_sequences(d).to_pandas().sort_values("doc_id")
        want = _oracle_on_dir("pack_sequences", d).sort_values("doc_id")
        for c in ["bin_id", "n_tokens", "token_offset"]:
            assert (got[c].to_numpy() == want[c].to_numpy()).all(), (
                seed, c
            )


def test_user_spend_rank_heavy_ties(ray_session, tmp_path):
    """RANK/CUME_DIST with many exact spend ties across users (every tie
    class shares both outputs), recounted locally."""
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import user_spend_rank

    rng = np.random.default_rng(7)
    n_users, per_user = 60, 5
    # draw per-event values from a tiny set so many USERS tie on totals
    vals = rng.choice([1.0, 2.0], size=n_users * per_user)
    ev = pa.table({
        "event_id": pa.array(range(n_users * per_user), pa.int64()),
        "ts": pa.array(
            pd.date_range("2024-01-01", periods=n_users * per_user,
                          freq="min"),
            pa.timestamp("us"),
        ),
        "user_id": pa.array(
            np.repeat(np.arange(n_users, dtype=np.int64), per_user)
        ),
        "event_type": pa.array(["click"] * (n_users * per_user),
                               pa.string()),
        "value": pa.array(vals, pa.float64()),
        "props": pa.array(["{}"] * (n_users * per_user), pa.string()),
    })
    pq.write_table(ev, f"{tmp_path}/events.parquet")

    got = user_spend_rank(str(tmp_path)).to_pandas().set_index("user_id")
    spend = pd.Series(
        np.floor(vals * 100 + 0.5).astype("int64")
    ).groupby(np.repeat(np.arange(n_users), per_user)).sum()
    order = np.sort(spend.to_numpy())
    want_rank = np.searchsorted(order, spend.to_numpy(), "left") + 1
    want_cume = np.searchsorted(order, spend.to_numpy(), "right") / n_users
    got = got.reindex(spend.index)
    assert (got["spend_rank"].to_numpy() == want_rank).all()
    assert np.allclose(got["spend_cume"], want_cume, rtol=0, atol=0)
    # ties exist by construction and share rank
    assert spend.duplicated().any()


def test_events_cube_levels(ray_session):
    """CUBE invariants: every grouping level folds to the same totals and
    the cross level (day only) is present — the level ROLLUP omits."""
    from rayld.pipelines.relational import events_cube

    out = events_cube(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type", "ts"])
    l0, l1, l2, l3 = (out[out["level"] == k] for k in range(4))
    assert l3["n_events"].iloc[0] == len(ev)
    assert (l0["n_events"].sum() == l1["n_events"].sum()
            == l2["n_events"].sum() == len(ev))
    for part in (l0, l1, l2):
        assert abs(part["sum_value"].sum() - l3["sum_value"].iloc[0]) < 1e-6
    days = ev["ts"].dt.floor("D").astype("datetime64[s]").astype("int64")
    assert set(l2["day_start"]) == set(days.unique())
    assert (l2["event_type"] == "").all() and (l1["day_start"] == -1).all()


def test_user_rows_window(ray_session):
    """ROWS-frame trailing sum equals a pandas rolling(3) recount in
    integer cents; frame counts saturate at the frame size."""
    from rayld.pipelines.relational import user_rows_window

    got = user_rows_window(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).sort_values(["user_id", "ts", "event_id"])
    vc = pd.Series(
        np.floor(ev["value"] * 100 + 0.5).astype("int64"), index=ev.index
    )
    want_sum = (
        vc.groupby(ev["user_id"])
        .rolling(3, min_periods=1).sum().reset_index(level=0, drop=True)
        .sort_index() / 100.0
    )
    want_n = (
        vc.groupby(ev["user_id"])
        .rolling(3, min_periods=1).count().reset_index(level=0, drop=True)
        .sort_index()
    )
    m = got.set_index("event_id").reindex(ev["event_id"])
    assert np.allclose(m["frame_sum"].to_numpy(),
                       want_sum[ev.index].to_numpy(), rtol=0, atol=0)
    assert (m["n_in_frame"].to_numpy()
            == want_n[ev.index].to_numpy().astype("int64")).all()
    assert got["n_in_frame"].max() == 3


def test_cohort_retention(ray_session):
    """Retention cells equal a pandas recount over Monday-anchored weeks;
    offset-0 cells partition all users into cohorts."""
    from rayld.pipelines.relational import cohort_retention

    got = cohort_retention(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts"])
    week = (
        (ev["ts"].dt.normalize()
         - pd.to_timedelta(ev["ts"].dt.dayofweek, unit="D"))
        .astype("datetime64[s]").astype("int64")
    )
    uw = pd.DataFrame({"user_id": ev["user_id"], "week": week}
                      ).drop_duplicates()
    first = uw.groupby("user_id")["week"].transform("min")
    want = (
        pd.DataFrame({
            "cohort_week": first,
            "week_offset": (uw["week"] - first) // 604800,
        }).groupby(["cohort_week", "week_offset"]).size()
    )
    m = got.set_index(["cohort_week", "week_offset"])["n_users"].sort_index()
    assert m.equals(want.sort_index().astype("int64"))
    zero = got[got["week_offset"] == 0]
    assert zero["n_users"].sum() == ev["user_id"].nunique()
    assert got["n_users"].sum() == len(uw)


def test_daily_orders_purchases_balance(ray_session):
    """FULL OUTER day balance equals a pandas recount, and the outer-ness
    is real: both one-sided kinds of day are present."""
    from rayld.pipelines.relational import daily_orders_purchases_balance

    got = daily_orders_purchases_balance(SF, num_partitions=4).to_pandas()
    od = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderdate"])
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "ts"])
    o_days = (od["o_orderdate"].dt.floor("D").astype("datetime64[s]")
              .astype("int64")).value_counts()
    p_days = (ev.loc[ev["event_type"] == "purchase", "ts"].dt.floor("D")
              .astype("datetime64[s]").astype("int64")).value_counts()
    want = pd.DataFrame({"n_orders": o_days, "n_purchases": p_days}
                        ).fillna(0).astype("int64")
    m = got.set_index("day_start").sort_index()
    assert m.equals(want.sort_index())
    assert ((m["n_orders"] > 0) & (m["n_purchases"] == 0)).any()
    assert ((m["n_orders"] == 0) & (m["n_purchases"] > 0)).any()


def test_grouped_p90_cont(ray_session):
    """Interpolated p90 equals numpy's linear-interpolation percentile on
    integer cents (same percentile_cont semantics), per event type."""
    from rayld.pipelines.relational import grouped_p90_cont

    got = grouped_p90_cont(SF).to_pandas().set_index("event_type")
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    for t, grp in vc.groupby(ev["event_type"]):
        want = float(np.percentile(grp.to_numpy(), 90,
                                   method="linear")) / 100.0
        assert abs(got.loc[t, "p90_cont"] - want) < 1e-9
        assert got.loc[t, "n_events"] == len(grp)


def test_user_common_neighbors(ray_session):
    """Common-neighbor counts equal a brute-force set recount over the
    shared-k projection graph; adjacent pairs are excluded."""
    import json as _json
    from collections import defaultdict

    from rayld.pipelines.graph import user_common_neighbors

    got = user_common_neighbors(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    by_k = defaultdict(set)
    for _, r in sel.iterrows():
        k = _json.loads(r["props"]).get("k") if r["props"] else None
        if k is not None:
            by_k[int(k)].add(int(r["user_id"]))
    edges = set()
    for users in by_k.values():
        us = sorted(users)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                edges.add((us[i], us[j]))
    nbr = defaultdict(set)
    for p, q in edges:
        nbr[p].add(q)
        nbr[q].add(p)
    want = {}
    nodes = sorted(nbr)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) in edges:
                continue
            n = len(nbr[u] & nbr[v])
            if n:
                want[(u, v)] = n
    m = {(int(r.u), int(r.v)): int(r.n_common) for r in got.itertuples()}
    assert m == want


def test_user_resource_allocation(ray_session):
    """RA micro-scores equal a brute-force recount: per common neighbor w,
    floor(1e6/deg(w) + 0.5) summed; adjacent pairs are excluded."""
    import json as _json
    from collections import defaultdict

    from rayld.pipelines.graph import user_resource_allocation

    got = user_resource_allocation(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    by_k = defaultdict(set)
    for _, r in sel.iterrows():
        k = _json.loads(r["props"]).get("k") if r["props"] else None
        if k is not None:
            by_k[int(k)].add(int(r["user_id"]))
    edges = set()
    for users in by_k.values():
        us = sorted(users)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                edges.add((us[i], us[j]))
    nbr = defaultdict(set)
    for p, q in edges:
        nbr[p].add(q)
        nbr[q].add(p)
    want = {}
    nodes = sorted(nbr)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) in edges:
                continue
            s = sum((2_000_000 + len(nbr[w])) // (2 * len(nbr[w]))
                    for w in nbr[u] & nbr[v])
            if s:
                want[(u, v)] = s
    m = {(int(r.u), int(r.v)): int(r.ra_micro) for r in got.itertuples()}
    assert m == want


def test_q5_local_supplier_volume(ray_session):
    """Q5 revenue per nation equals a pandas recount of the six-table
    join with the same integer-cents money contract."""
    from rayld.pipelines.relational import q5_local_supplier_volume

    got = q5_local_supplier_volume(SF, num_partitions=4).to_pandas()
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    su = pd.read_parquet(f"{SF}/supplier.parquet")
    na = pd.read_parquet(f"{SF}/nation.parquet")
    re = pd.read_parquet(f"{SF}/region.parquet")
    od = od[(od["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (od["o_orderdate"] < pd.Timestamp("1998-01-01"))]
    m = (li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cu, left_on="o_custkey", right_on="c_custkey")
           .merge(su, left_on="l_suppkey", right_on="s_suppkey")
           .merge(na, left_on="s_nationkey", right_on="n_nationkey")
           .merge(re, left_on="n_regionkey", right_on="r_regionkey"))
    m = m[(m["r_name"] == "ASIA") & (m["c_nationkey"] == m["s_nationkey"])]
    cents = np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64")
    want = m.assign(revenue_c=cents).groupby("n_name")["revenue_c"].sum()
    gm = got.set_index("n_name")["revenue_c"].sort_index()
    assert gm.to_dict() == want.sort_index().to_dict()


def test_user_status_intervals(ray_session):
    """Intervals equal a per-user run-length compression of the ordered
    stream; runs abut exactly and the open tail carries -1."""
    from rayld.pipelines.relational import user_status_intervals

    got = user_status_intervals(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"],
    ).sort_values(["user_id", "ts", "event_id"])
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    want = []
    for uid, g in ev.groupby("user_id"):
        types = g["event_type"].tolist()
        tss = g["ts_us"].tolist()
        starts = [i for i in range(len(types))
                  if i == 0 or types[i] != types[i - 1]]
        for si, i in enumerate(starts):
            to = tss[starts[si + 1]] if si + 1 < len(starts) else -1
            want.append((uid, types[i], tss[i], to))
    gs = sorted(map(tuple, got[["user_id", "event_type", "valid_from_us",
                                "valid_to_us"]].itertuples(index=False)))
    assert gs == sorted(want)
    # runs abut: within a user, next valid_from == previous valid_to
    for uid, g in got.sort_values(["user_id", "valid_from_us"]).groupby(
            "user_id"):
        vt = g["valid_to_us"].to_numpy()
        vf = g["valid_from_us"].to_numpy()
        assert (vt[:-1] == vf[1:]).all()
        assert vt[-1] == -1


def test_events_gap_fill(ray_session):
    """Dense hourly grid covers [first, last] per user with zero fills;
    nonzero cells equal a pandas recount."""
    from rayld.pipelines.relational import events_gap_fill

    got = events_gap_fill(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts"])
    ev["hour_us"] = (ev["ts"].dt.floor("h").astype("datetime64[us]")
                     .astype("int64"))
    cnt = ev.groupby(["user_id", "hour_us"]).size()
    HOUR = 3_600_000_000
    for uid, g in got.groupby("user_id"):
        hrs = g.sort_values("hour_us")["hour_us"].to_numpy()
        lo = cnt.loc[uid].index.min()
        hi = cnt.loc[uid].index.max()
        assert hrs[0] == lo and hrs[-1] == hi
        assert (np.diff(hrs) == HOUR).all()
    nz = got[got["n"] > 0].set_index(["user_id", "hour_us"])["n"]
    assert nz.sort_index().to_dict() == cnt.sort_index().to_dict()
    assert int(got["n"].sum()) == len(ev)


def test_customer_rfm(ray_session):
    """RFM tiles equal pandas qcut-free NTILE recounts with the
    (metric, user_id) deterministic order; rfm composes the three."""
    from rayld.pipelines.relational import customer_rfm

    got = customer_rfm(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "ts", "value"])
    ev["spend_c"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    u = ev.groupby("user_id").agg(
        last_us=("ts_us", "max"), n_events=("ts_us", "size"),
        spend_c=("spend_c", "sum"),
    ).reset_index()
    n = len(u)

    def ntile(col):
        order = u.sort_values([col, "user_id"])["user_id"].to_numpy()
        big, n_big = n // 5 + 1, n % 5
        tiles = {}
        for i, uid in enumerate(order):
            rn = i + 1
            cut = n_big * big
            tiles[uid] = ((rn - 1) // big + 1 if rn <= cut
                          else n_big + (rn - cut - 1) // max(n // 5, 1) + 1)
        return tiles

    r, f, m = ntile("last_us"), ntile("n_events"), ntile("spend_c")
    got = got.set_index("user_id").sort_index()
    assert len(got) == n
    for uid in u["user_id"]:
        row = got.loc[uid]
        assert (row["r_tile"], row["f_tile"], row["m_tile"]) == \
            (r[uid], f[uid], m[uid])
        assert row["rfm"] == 100 * r[uid] + 10 * f[uid] + m[uid]


def test_above_nation_avg_customers(ray_session):
    """Survivors equal a pandas recount with the exact cross-multiplied
    integer comparison."""
    from rayld.pipelines.relational import above_nation_avg_customers

    got = above_nation_avg_customers(SF).to_pandas()
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    cu["bal_c"] = np.floor(cu["c_acctbal"] * 100 + 0.5).astype("int64")
    g = cu.groupby("c_nationkey")["bal_c"].agg(["sum", "count"])
    keep = cu.apply(
        lambda r: r["bal_c"] * g.loc[r["c_nationkey"], "count"]
        > g.loc[r["c_nationkey"], "sum"], axis=1)
    assert set(got["c_custkey"]) == set(cu[keep]["c_custkey"])


def test_monthly_revenue_growth(ray_session):
    """Monthly sums equal a pandas recount; prev_c is the previous
    month's value with -1 on the first month."""
    from rayld.pipelines.relational import monthly_revenue_growth

    got = monthly_revenue_growth(SF).to_pandas().sort_values("month_us")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    od["rev_c"] = np.floor(od["o_totalprice"] * 100 + 0.5).astype("int64")
    od["month_us"] = (od["o_orderdate"].dt.to_period("M").dt.start_time
                      .astype("datetime64[us]").astype("int64"))
    want = od.groupby("month_us")["rev_c"].sum().sort_index()
    assert got["month_us"].tolist() == want.index.tolist()
    assert got["rev_c"].tolist() == want.tolist()
    assert got["prev_c"].iloc[0] == -1
    assert got["prev_c"].iloc[1:].tolist() == want.tolist()[:-1]


def test_pca_parity_gate(ray_session):
    """Distributed moment-PCA matches single-process numpy PCA (covariance,
    mean, projection, orthonormality) and explained variance descends."""
    from rayld.pipelines.ann import pca_check

    flags = pca_check(SF).iloc[0]
    assert all(flags[c] == 1 for c in flags.index), flags.to_dict()


def test_pca_project_variance_order(ray_session):
    """Projected coordinates carry descending per-column variance (pc_0
    explains the most) and preserve row count."""
    from rayld.pipelines.ann import pca_project

    got = pca_project(SF, k=4).to_pandas()
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    assert len(got) == len(emb)
    var = [got[f"pc_{i}"].var() for i in range(4)]
    assert all(var[i] >= var[i + 1] - 1e-12 for i in range(3))


def test_embedding_unpivot(ray_session):
    """Long form equals a numpy reshape of the full matrix, exactly."""
    from rayld.pipelines.ann import embedding_unpivot

    got = embedding_unpivot(SF).to_pandas().sort_values(
        ["vec_id", "dim_idx"]
    )
    emb = pd.read_parquet(f"{SF}/embeddings.parquet").sort_values("vec_id")
    X = np.stack([np.asarray(e, dtype=np.float64)
                  for e in emb["embedding"]])
    n, d = X.shape
    assert len(got) == n * d
    assert (got["vec_id"].to_numpy()
            == np.repeat(emb["vec_id"].to_numpy(), d)).all()
    assert (got["dim_idx"].to_numpy() == np.tile(np.arange(d), n)).all()
    assert (got["val"].to_numpy() == X.ravel()).all()


def test_customer_skyline(ray_session):
    """Skyline equals a brute-force dominance recount; equal points
    both survive, dominated points never do."""
    from rayld.pipelines.relational import customer_skyline

    got = customer_skyline(SF, num_partitions=4).to_pandas()
    cu = pd.read_parquet(f"{SF}/customer.parquet",
                         columns=["c_custkey", "c_acctbal"])
    od = pd.read_parquet(f"{SF}/orders.parquet",
                         columns=["o_custkey", "o_totalprice"])
    sp = (np.floor(od["o_totalprice"] * 100 + 0.5).astype("int64")
          .groupby(od["o_custkey"]).sum())
    pts = pd.DataFrame({
        "key": cu["c_custkey"],
        "bal": np.floor(cu["c_acctbal"] * 100 + 0.5).astype("int64"),
        "sp": cu["c_custkey"].map(sp).fillna(0).astype("int64"),
    })
    want = set()
    arr = pts[["bal", "sp"]].to_numpy()
    for i, (b, s) in enumerate(arr):
        dominated = ((arr[:, 0] >= b) & (arr[:, 1] >= s)
                     & ((arr[:, 0] > b) | (arr[:, 1] > s))).any()
        if not dominated:
            want.add(int(pts["key"].iloc[i]))
    assert set(got["c_custkey"]) == want


def test_customer_skyline_pareto_ties(ray_session):
    """Pure-function check on the sweep: duplicate points both survive,
    anti-correlated chains fully survive, dominated interiors drop."""
    from rayld.pipelines.relational import _pareto_sweep

    df = pd.DataFrame({
        "c_custkey": [1, 2, 3, 4, 5, 6],
        "bal_c":   [10, 10, 5, 8, 1, 10],
        "spend_c": [1, 1, 9, 2, 20, 0],
    })
    out = _pareto_sweep(df)
    # (10,1)x2 tie both survive; (5,9) and (1,20) survive (chain);
    # (8,2) survives (beats 1 at higher bal is 1 < 2); (10,0) dominated
    assert set(out["c_custkey"]) == {1, 2, 3, 4, 5}


def test_user_bfs_depth(ray_session):
    """Depths equal a single-process BFS from the smallest node over the
    recomputed projection graph."""
    import json as _json
    from collections import defaultdict, deque

    from rayld.pipelines.graph import user_bfs_depth

    got = user_bfs_depth(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    by_k = defaultdict(set)
    for _, r in sel.iterrows():
        k = _json.loads(r["props"]).get("k") if r["props"] else None
        if k is not None:
            by_k[int(k)].add(int(r["user_id"]))
    nbr = defaultdict(set)
    for users in by_k.values():
        us = sorted(users)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                nbr[us[i]].add(us[j])
                nbr[us[j]].add(us[i])
    src = min(nbr)
    want = {src: 0}
    dq = deque([src])
    while dq:
        u = dq.popleft()
        for v in nbr[u]:
            if v not in want:
                want[v] = want[u] + 1
                dq.append(v)
    m = dict(zip(got["user_id"].astype(int), got["depth"].astype(int)))
    assert m == want


def test_user_nth_event(ray_session):
    """The n-th event per user equals a pandas recount; users with fewer
    than n events are absent."""
    from rayld.pipelines.relational import user_nth_event

    got = user_nth_event(SF, n=2, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    ).sort_values(["user_id", "ts", "event_id"])
    want = ev.groupby("user_id").nth(1)
    m = got.set_index("user_id").sort_index()
    w = want.set_index("user_id").sort_index()
    assert m.index.tolist() == w.index.tolist()
    assert (m["nth_event_id"] == w["event_id"]).all()
    assert (m["nth_type"] == w["event_type"]).all()
    assert (m["nth_value"] == w["value"]).all()


def test_user_spend_dense_rank(ray_session):
    """Dense ranks equal pandas rank(method='dense') on exact cents."""
    from rayld.pipelines.relational import user_spend_dense_rank

    got = user_spend_dense_rank(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "value"])
    spend = (np.floor(ev["value"] * 100 + 0.5).astype("int64")
             .groupby(ev["user_id"]).sum())
    want = spend.rank(method="dense").astype("int64")
    m = got.set_index("user_id")["dense_rank"].sort_index()
    assert m.to_dict() == want.sort_index().to_dict()


def test_boolean_and_search(ray_session):
    """Conjunctive search equals a token-set recount; a doc containing a
    term only as a substring of a longer token does not match."""
    import re

    from rayld.pipelines.text import boolean_and_search

    terms = ("scan", "merge", "sort")
    got = boolean_and_search(SF, terms=terms).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    tok = docs["text"].map(lambda t: set(re.findall(r"[A-Za-z0-9]+", t)))
    want = set(docs.loc[
        tok.map(lambda s: all(t in s for t in terms)), "doc_id"
    ])
    assert set(got["doc_id"]) == want
    # word-boundary check: "scans" alone must not satisfy "scan"
    assert "scan" not in {"scans"}


def test_sliding_distinct_users(ray_session):
    """Trailing-24h distinct counts equal a brute-force recount per
    active hour, including hours whose window spans quiet gaps."""
    from rayld.pipelines.relational import sliding_distinct_users

    got = sliding_distinct_users(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts"])
    ev["h"] = (ev["ts"].dt.floor("h").astype("datetime64[us]")
               .astype("int64"))
    HOUR = 3_600_000_000
    want = {}
    for h in ev["h"].unique():
        sel = ev[(ev["h"] <= h) & (ev["h"] >= h - 23 * HOUR)]
        want[int(h)] = sel["user_id"].nunique()
    m = dict(zip(got["hour_us"].astype(int), got["n_users"].astype(int)))
    assert m == want


def test_merge_upsert(ray_session):
    """Update-wins on matched keys, pass-through elsewhere, inserts
    appended — equals a pandas replay of the same changelog."""
    from rayld.pipelines.relational import merge_upsert

    got = merge_upsert(SF, num_partitions=4).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    want = docs.set_index("doc_id")["text"].to_dict()
    for did, txt in list(want.items()):
        if did % 7 == 0:
            want[did] = txt.upper()
    for did in docs["doc_id"]:
        if did % 13 == 0:
            want[did + 10_000_000] = f"ins-{did}"
    m = dict(zip(got["doc_id"].astype(int), got["text"]))
    assert m == want
    assert len(got) == len(want)


def test_bpe_reference_known_merges():
    """Hand-checkable corpus: 'aaab' x3 + 'aab' x1 merges (a,a) first
    (count 7), then the tie-break picks lexicographically smallest."""
    from rayld.pipelines.bpe import bpe_reference

    merges = bpe_reference({"aaab": 3, "aab": 1}, 2)
    # pairs: (a,a): 3*2+1=7, (a,b): 4 -> first merge (a,a)
    assert merges[0] == ("a", "a")
    # then 'aaab' = (aa,a,b), 'aab' = (aa,b): (aa,a)=3, (a,b)=3, (aa,b)=1
    # tie 3 vs 3 -> lexicographically smallest pair ('a','b')
    assert merges[1] == ("a", "b")


def test_bpe_distributed_parity(ray_session, tmp_path):
    """Forced-distributed training equals the reference on a planted
    corpus large enough to exercise multi-block pair combines."""
    from rayld.pipelines import bpe

    rng = np.random.RandomState(7)
    vocab = ["stream", "streams", "streaming", "batch", "batches",
             "shuffle", "shuffles", "reduce", "reducer", "mapper"]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(400)]
    pd.DataFrame({"doc_id": range(400), "text": texts}).to_parquet(
        tmp_path / "documents.parquet")
    dist = bpe.bpe_train(str(tmp_path), n_merges=8, driver_vocab_max=0,
                         num_partitions=4)
    local = bpe.bpe_train(str(tmp_path), n_merges=8,
                          driver_vocab_max=10**6, num_partitions=4)
    assert dist.to_pandas().values.tolist() == \
        local.to_pandas().values.tolist()


def test_bpe_check_gate(ray_session):
    """All gate flags green on the real corpus."""
    from rayld.pipelines.bpe import bpe_check

    flags = bpe_check(SF).iloc[0]
    assert all(flags[c] == 1 for c in
               ["merges_parity_ok", "tokens_le_chars_ok",
                "merges_reduce_ok"]), flags.to_dict()


def test_bpe_segment_count_invariants(ray_session):
    """Per-doc BPE token counts: bounded above by char count of tokens,
    below by word count, and a zero-merge tokenizer counts chars."""
    from rayld.pipelines import bpe

    got = bpe.bpe_segment_count(SF, n_merges=10).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet",
                           columns=["doc_id", "text"])
    import re
    toks = docs.set_index("doc_id")["text"].map(
        lambda t: re.findall(r"[A-Za-z0-9]+", t))
    m = got.set_index("doc_id")["n_bpe_tokens"]
    for did, words in toks.items():
        assert len(words) <= m[did] <= sum(len(w) for w in words)


def test_market_basket_bounded_stress(ray_session, tmp_path):
    """50k orders with unique-ish baskets: the pair exchange stays
    bounded by distinct pairs (never one Ray group per order or per
    pair) and partition count doesn't change the result."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import market_basket_pairs

    rng = np.random.RandomState(11)
    n_orders = 50_000
    # 3-item baskets over 100 parts: mean pair support ~30
    ords = np.repeat(np.arange(n_orders, dtype=np.int64), 3)
    parts = rng.randint(0, 100, size=3 * n_orders).astype(np.int64)
    d = tmp_path / "mb"
    d.mkdir()
    pq.write_table(
        pa.table({"l_orderkey": pa.array(ords),
                  "l_partkey": pa.array(parts)}),
        d / "lineitem.parquet",
    )
    out4 = market_basket_pairs(str(d), min_support=20,
                               num_partitions=4).to_pandas()
    out9 = market_basket_pairs(str(d), min_support=20,
                               num_partitions=9).to_pandas()
    k4 = set(zip(out4["part_a"], out4["part_b"], out4["support"]))
    k9 = set(zip(out9["part_a"], out9["part_b"], out9["support"]))
    assert k4 == k9 and len(k4) > 0
    # spot-exactness on the heaviest pair
    top = out4.sort_values("support").iloc[-1]
    li = pd.DataFrame({"o": ords, "p": parts}).drop_duplicates()
    byo = li.groupby("o")["p"].agg(frozenset)
    want = sum(1 for s in byo
               if {int(top["part_a"]), int(top["part_b"])} <= s)
    assert int(top["support"]) == want


def test_sliding_distinct_bounded_stress(ray_session, tmp_path):
    """300k events over a 90-day span: the fan-out is bounded by
    24 x |distinct (hour, user)| and window counts are exact at two
    partition counts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import sliding_distinct_users

    rng = np.random.RandomState(13)
    n = 300_000
    HOUR = 3_600_000_000
    base = 1_700_000_000_000_000
    ts_us = base + rng.randint(0, 90 * 24, size=n).astype(np.int64) * HOUR \
        + rng.randint(0, HOUR, size=n).astype(np.int64)
    users = rng.randint(0, 2_000, size=n).astype(np.int64)
    d = tmp_path / "sw"
    d.mkdir()
    pq.write_table(
        pa.table({
            "user_id": pa.array(users),
            "ts": pa.array(ts_us, pa.timestamp("us")),
        }),
        d / "events.parquet",
    )
    out = sliding_distinct_users(str(d), num_partitions=6).to_pandas()
    # exact recount on 5 sampled hours
    ev = pd.DataFrame({"u": users, "h": (ts_us // HOUR) * HOUR})
    hours = np.sort(ev["h"].unique())
    m = dict(zip(out["hour_us"].astype(int), out["n_users"].astype(int)))
    assert len(out) == len(hours)
    for h in hours[[0, len(hours) // 3, len(hours) // 2,
                    2 * len(hours) // 3, -1]]:
        sel = ev[(ev["h"] <= h) & (ev["h"] >= h - 23 * HOUR)]
        assert m[int(h)] == sel["u"].nunique()


def test_grouped_mode(ray_session):
    """Per-type mode equals a pandas value_counts recount with the
    smallest-value tie rule."""
    from rayld.pipelines.relational import grouped_mode

    got = grouped_mode(SF).to_pandas().set_index("event_type")
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "value"])
    ev["v"] = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    for t, g in ev.groupby("event_type"):
        vc = g["v"].value_counts()
        top = vc.max()
        want_v = min(vc[vc == top].index)
        assert int(got.loc[t, "mode_value_c"]) == want_v
        assert int(got.loc[t, "n_occurrences"]) == top


def test_user_event_type_agg(ray_session):
    """Sorted-distinct string agg equals a pandas recount."""
    from rayld.pipelines.relational import user_event_type_agg

    got = user_event_type_agg(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type"])
    want = ev.groupby("user_id")["event_type"].agg(
        lambda s: ",".join(sorted(set(s))))
    m = got.set_index("user_id").sort_index()
    assert m["types"].to_dict() == want.sort_index().to_dict()
    assert (m["n_types"] ==
            m["types"].str.count(",") + 1).all()


def test_bigram_pmi(ray_session):
    """Micro-ratio PMI equals an exact integer recount; ranking is by
    the ratio (monotone in PMI) with the bigram tiebreak."""
    import re
    from collections import Counter

    from rayld.pipelines.text import bigram_pmi

    got = bigram_pmi(SF, min_count=5, top_n=50).to_pandas()
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    uni, bi = Counter(), Counter()
    for t in docs["text"]:
        toks = re.findall(r"[A-Za-z0-9]+", t)
        uni.update(toks)
        bi.update(zip(toks, toks[1:]))
    N = sum(uni.values())
    rows = []
    for (x, y), nxy in bi.items():
        if nxy < 5:
            continue
        ratio = (2_000_000 * N * nxy + uni[x] * uni[y]) \
            // (2 * uni[x] * uni[y])
        rows.append((f"{x} {y}", nxy, uni[x], uni[y], ratio))
    rows.sort(key=lambda r: (-r[4], r[0]))
    want = rows[:50]
    assert [tuple(r) for r in got.itertuples(index=False)] == want


def test_token_entropy(ray_session):
    """Corpus entropy matches an in-process Counter recount exactly
    (identical integer micro-nat contract) and sits in [0, ln(n_types)]."""
    import math
    import re
    from collections import Counter

    from rayld.pipelines.text import token_entropy

    got = token_entropy(SF, num_partitions=4)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    uni = Counter()
    for t in docs["text"]:
        uni.update(re.findall(r"[A-Za-z0-9]+", t))
    total = sum(uni.values())
    s = sum(
        int(np.floor(n * np.log(float(n)) * 1000000.0 + 0.5))
        for n in uni.values()
    )
    assert int(got["n_types"].iloc[0]) == len(uni)
    assert int(got["n_tokens"].iloc[0]) == total
    assert int(got["s_nlogn_micro"].iloc[0]) == s
    h = float(got["entropy_nats"].iloc[0])
    assert h == math.log(total) - (s / total) / 1000000.0
    assert 0.0 <= h <= math.log(len(uni)) + 1e-9


def test_zipf_slope(ray_session):
    """Zipf OLS matches an independent Counter recount exactly and the
    slope is negative (frequencies decay with rank)."""
    import re
    from collections import Counter

    from rayld.pipelines.text import zipf_slope

    got = zipf_slope(SF, top_k=256)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    uni = Counter()
    for t in docs["text"]:
        uni.update(re.findall(r"[A-Za-z0-9]+", t))
    top = sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))[:256]
    k = len(top)
    x = [int(np.floor(np.log(float(r)) * 1000000.0 + 0.5))
         for r in range(1, k + 1)]
    y = [int(np.floor(np.log(float(n)) * 1000000.0 + 0.5))
         for _, n in top]
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    slope = float(k * sxy - sx * sy) / float(k * sxx - sx * sx)
    assert int(got["n_ranks"].iloc[0]) == k
    assert float(got["zipf_slope"].iloc[0]) == slope
    assert slope < 0


def test_mad_length_outliers(ray_session):
    """Median/MAD/outlier counts match a direct per-lang recount with
    percentile_disc (left-search) semantics."""
    from rayld.pipelines.text import mad_length_outliers

    got = mad_length_outliers(SF).set_index("lang").sort_index()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["lang", "n_chars"]
    )

    def disc(a: np.ndarray) -> int:
        a = np.sort(a)
        return int(a[(len(a) - 1) // 2])  # first idx with 2*(i+1) >= n

    for lang, grp in docs.groupby("lang"):
        x = grp["n_chars"].to_numpy(np.int64)
        med = disc(x)
        dev = np.abs(x - med)
        mad = disc(dev)
        row = got.loc[lang]
        assert int(row["n_docs"]) == len(x)
        assert int(row["median_chars"]) == med
        assert int(row["mad_chars"]) == mad
        assert int(row["n_outliers"]) == int((dev > 3 * mad).sum())


def test_events_grouping_sets(ray_session):
    """GROUPING SETS invariants: the three levels each total the full
    event count, isodow keys are ISO (Mon=1..Sun=7), and rolled-up keys
    carry the sentinels."""
    from rayld.pipelines.relational import events_grouping_sets

    out = events_grouping_sets(SF).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type"])
    l0, l1, l2 = (out[out["level"] == k] for k in (0, 1, 2))
    assert l2["n_events"].iloc[0] == len(ev)
    assert l0["n_events"].sum() == l1["n_events"].sum() == len(ev)
    assert abs(l0["sum_value"].sum() - l2["sum_value"].iloc[0]) < 1e-6
    assert set(l0["event_type"]) == set(ev["event_type"].unique())
    assert (l0["isodow"] == -1).all() and (l1["event_type"] == "").all()
    assert set(l1["isodow"]) <= set(range(1, 8))


def test_last_touch_attribution(ray_session):
    """Attribution matches a per-user sequential recount (last preceding
    non-purchase event type), and credited purchases total all purchases."""
    from collections import Counter
    from rayld.pipelines.relational import last_touch_attribution

    got = last_touch_attribution(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"], kind="mergesort"
    )
    want_n, want_c = Counter(), Counter()
    for _, grp in ev.groupby("user_id", sort=False):
        last = None
        for r in grp.itertuples(index=False):
            if r.event_type == "purchase":
                ch = last if last is not None else "(none)"
                want_n[ch] += 1
                want_c[ch] += int(np.floor(r.value * 100 + 0.5))
            else:
                last = r.event_type
    m = got.set_index("channel")
    assert set(m.index) == set(want_n)
    for ch in want_n:
        assert int(m.loc[ch, "n_purchases"]) == want_n[ch]
        assert float(m.loc[ch, "sum_value"]) == want_c[ch] / 100.0
    assert int(got["n_purchases"].sum()) == int(
        (ev["event_type"] == "purchase").sum()
    )


def test_grouped_skew(ray_session):
    """Skewness/kurtosis match an INDEPENDENT float central-moment
    recount (m3/m2^1.5, m4/m2^2 - 3 over centered cents) — not a replica
    of the pipeline's integer closed forms, so a formula bug in the
    pipeline cannot self-certify here."""
    from rayld.pipelines.relational import grouped_skew

    got = grouped_skew(SF).set_index("event_type").sort_index()
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["event_type", "value"]
    )
    for etype, grp in ev.groupby("event_type"):
        vc = np.floor(grp["value"].to_numpy(np.float64) * 100 + 0.5)
        n = len(vc)
        d = vc - vc.mean()
        m2 = float((d * d).mean())
        m3 = float((d ** 3).mean())
        m4 = float((d ** 4).mean())
        skew = m3 / m2 ** 1.5
        kurt = m4 / (m2 * m2) - 3.0
        row = got.loc[etype]
        assert int(row["n_events"]) == n
        assert abs(float(row["skewness"]) - skew) < 1e-6 * max(
            1.0, abs(skew))
        assert abs(float(row["kurtosis_excess"]) - kurt) < 1e-6 * max(
            1.0, abs(kurt))


def test_time_to_conversion(ray_session):
    """Conversion latencies match a per-user sequential recount; only
    users with a purchase at/after their first signup appear."""
    from rayld.pipelines.relational import time_to_conversion

    got = time_to_conversion(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["ts", "user_id", "event_type"]
    )
    t_us = ev["ts"].astype("datetime64[us]").astype("int64")
    want = {}
    for uid, grp in ev.assign(t=t_us).groupby("user_id"):
        sign = grp.loc[grp["event_type"] == "signup", "t"]
        if sign.empty:
            continue
        s0 = int(sign.min())
        purch = grp.loc[
            (grp["event_type"] == "purchase") & (grp["t"] >= s0), "t"
        ]
        if purch.empty:
            continue
        want[int(uid)] = (s0, (int(purch.min()) - s0) // 1_000_000)
    assert len(got) == len(want)
    for r in got.itertuples(index=False):
        s0, dt = want[int(r.user_id)]
        assert int(r.signup_ts) == s0 and int(r.conversion_s) == dt


def test_doc_top_terms(ray_session):
    """Per-doc TF-IDF top-3 matches an exact integer recount (idf rounded
    half-up once; ties break on the token string)."""
    import re
    from collections import Counter

    from rayld.pipelines.text import doc_top_terms

    got = doc_top_terms(SF, k=3, num_partitions=4).to_pandas()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    per_doc = {
        int(d): Counter(re.findall(r"[A-Za-z0-9]+", t))
        for d, t in zip(docs["doc_id"], docs["text"])
    }
    dfreq = Counter()
    for c in per_doc.values():
        dfreq.update(c.keys())
    n_docs = len(per_doc)
    want = []
    for d, c in per_doc.items():
        scored = [
            (tok,
             cnt * int(np.floor(np.log(n_docs / dfreq[tok]) * 1e6 + 0.5)))
            for tok, cnt in c.items()
        ]
        scored.sort(key=lambda r: (-r[1], r[0]))
        for i, (tok, s) in enumerate(scored[:3], 1):
            want.append((d, tok, s, i))
    got_rows = sorted(
        (int(r.doc_id), str(r.token), int(r.tfidf_micro), int(r.rank))
        for r in got.itertuples(index=False)
    )
    assert got_rows == sorted(want)


def test_rrf_fusion(ray_session):
    """RRF output matches a pandas recount that ranks the FULL bm25 and
    quality score tables (exercises the distributed sort/limit heads and
    the fixed-order fusion arithmetic)."""
    from rayld.pipelines.indexing import rrf_fusion
    from rayld.pipelines.indexing import bm25_scores
    from rayld.pipelines.text import quality_score

    got = rrf_fusion(SF, list_n=100, top_n=20)
    bm = bm25_scores(SF).to_pandas().sort_values(
        ["bm25", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(100)
    qual = quality_score(SF).to_pandas().sort_values(
        ["quality", "doc_id"], ascending=[False, True], kind="mergesort"
    ).head(100)
    rb = {int(d): i + 1 for i, d in enumerate(bm["doc_id"])}
    rq = {int(d): i + 1 for i, d in enumerate(qual["doc_id"])}
    rows = []
    for d in sorted(set(rb) | set(rq)):
        s = (1.0 / (60 + rb[d]) if d in rb else 0.0) + (
            1.0 / (60 + rq[d]) if d in rq else 0.0
        )
        rows.append((d, s, rb.get(d, -1), rq.get(d, -1)))
    rows.sort(key=lambda r: (-r[1], r[0]))
    want = rows[:20]
    assert [
        (int(r.doc_id), float(r.rrf), int(r.rank_bm25),
         int(r.rank_quality))
        for r in got.itertuples(index=False)
    ] == want


def test_q18_large_orders(ray_session):
    """Q18 matches a pandas recount: orders over the quantity threshold,
    joined to their order and customer rows."""
    from rayld.pipelines.relational import q18_large_orders

    got = q18_large_orders(SF, qty_threshold=200, num_partitions=4)
    got = got.to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_quantity"]
    )
    qc = (
        pd.Series(
            np.floor(li["l_quantity"] * 100 + 0.5).astype("int64"),
            index=li.index,
        ).groupby(li["l_orderkey"]).sum()
    )
    qc = qc[qc > 20000]
    orders = pd.read_parquet(
        f"{SF}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )
    cust = pd.read_parquet(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    want = (
        orders[orders["o_orderkey"].isin(qc.index)]
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
        .assign(total_qty=lambda d: d["o_orderkey"].map(qc) / 100.0)
        .sort_values("o_orderkey").reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert (got["o_orderkey"] == want["o_orderkey"]).all()
    assert (got["c_custkey"] == want["c_custkey"]).all()
    assert (got["c_name"] == want["c_name"]).all()
    assert (got["o_totalprice"] == want["o_totalprice"]).all()
    assert (got["total_qty"] == want["total_qty"]).all()


def test_source_vocab_overlap(ray_session):
    """Pairwise source-vocabulary Jaccard matches a set recount, and the
    set identities hold (inter <= min size, union >= max size)."""
    import re
    from collections import defaultdict

    from rayld.pipelines.text import source_vocab_overlap

    got = source_vocab_overlap(SF, num_partitions=4)
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["source", "text"]
    )
    vocab = defaultdict(set)
    for s, t in zip(docs["source"], docs["text"]):
        vocab[s].update(re.findall(r"[A-Za-z0-9]+", t))
    srcs = sorted(vocab)
    want = {}
    for i in range(len(srcs)):
        for j in range(i + 1, len(srcs)):
            a, b = srcs[i], srcs[j]
            inter = len(vocab[a] & vocab[b])
            if inter:
                want[(a, b)] = (inter, len(vocab[a] | vocab[b]))
    assert len(got) == len(want)
    for r in got.itertuples(index=False):
        inter, uni = want[(str(r.source_a), str(r.source_b))]
        assert int(r.n_inter) == inter and int(r.n_union) == uni
        assert float(r.jaccard) == inter / uni
        assert inter <= min(len(vocab[r.source_a]), len(vocab[r.source_b]))
        assert uni >= max(len(vocab[r.source_a]), len(vocab[r.source_b]))


def test_quality_deciles_by_lang(ray_session):
    """Grouped NTILE matches a per-lang pandas recount (SQL NTILE
    semantics: first N % n tiles take the extra row) over the shared
    quality contract."""
    from rayld.pipelines.text import quality_cols, quality_deciles_by_lang

    got = quality_deciles_by_lang(SF, num_partitions=4).to_pandas()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    _, q = quality_cols(docs["text"])
    docs = docs.assign(quality=q)
    m = got.set_index("doc_id")
    for lang, grp in docs.groupby("lang"):
        grp = grp.sort_values(["quality", "doc_id"], kind="mergesort")
        n = len(grp)
        big, small = n // 10 + 1, max(n // 10, 1)
        n_big = n % 10
        cut = n_big * big
        for pos, r in enumerate(grp.itertuples(index=False), 1):
            tile = ((pos - 1) // big + 1 if pos <= cut
                    else n_big + (pos - cut - 1) // small + 1)
            row = m.loc[int(r.doc_id)]
            assert str(row["lang"]) == lang
            assert float(row["quality"]) == float(r.quality)
            assert int(row["tile"]) == tile


def test_table_checksum(ray_session):
    """Bucketed checksum matches a direct recount, is invariant to
    partitioning (4 vs 2 buckets of work), and detects a one-char change."""
    import hashlib

    from rayld.pipelines.text import table_checksum

    got = table_checksum(SF).set_index("bucket").sort_index()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    want = {}
    for d, t in zip(docs["doc_id"], docs["text"]):
        b = int(d) % 16
        low = int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little")
        n, s = want.get(b, (0, 0))
        want[b] = (n + 1, (s + low) % (1 << 64))
    assert len(got) == len(want)
    for b, (n, s) in want.items():
        assert int(got.loc[b, "n_docs"]) == n
        assert got.loc[b, "checksum"] == str(s)


def test_session_concurrency(ray_session):
    """Hourly active-session counts match a pandas sweep recount, and the
    total session-hours equal the sum of per-session hour spans."""
    from rayld.pipelines.relational import session_concurrency

    got = session_concurrency(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "ts"])
    ev = ev.sort_values(["user_id", "ts"], kind="mergesort")
    gaps = ev.groupby("user_id")["ts"].diff()
    new_s = gaps.isna() | (gaps > pd.Timedelta(minutes=30))
    sid = new_s.groupby(ev["user_id"]).cumsum()
    spans = ev.assign(session_id=sid).groupby(["user_id", "session_id"])[
        "ts"
    ].agg(["min", "max"])
    want = {}
    for t0, t1 in zip(spans["min"], spans["max"]):
        h0 = int(pd.Timestamp(t0).floor("h").timestamp())
        h1 = int(pd.Timestamp(t1).floor("h").timestamp())
        for h in range(h0, h1 + 3600, 3600):
            want[h] = want.get(h, 0) + 1
    m = got.set_index("window_start")["n_active"]
    assert len(m) == len(want)
    for h, n in want.items():
        assert int(m.loc[h]) == n
    assert int(got["n_active"].sum()) == sum(want.values())


def test_gap_percentiles_by_type(ray_session):
    """Per-type gap percentiles match a pandas LAG recount with
    percentile_disc (left-search) semantics."""
    from rayld.pipelines.relational import gap_percentiles_by_type

    got = gap_percentiles_by_type(SF, num_partitions=4).to_pandas()
    got = got.set_index("event_type").sort_index()
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
    )
    t_us = ev["ts"].astype("datetime64[us]").astype("int64")
    prev = t_us.groupby([ev["user_id"], ev["event_type"]]).shift()
    ok = prev.notna()
    gaps = pd.DataFrame({
        "event_type": ev.loc[ok, "event_type"],
        "gap_s": (t_us[ok] - prev[ok].astype("int64")) // 1_000_000,
    })

    def disc(a: np.ndarray, num: int, den: int) -> int:
        a = np.sort(a)
        cum = np.arange(1, len(a) + 1)
        return int(a[np.searchsorted(den * cum, num * len(a), "left")])

    for etype, grp in gaps.groupby("event_type"):
        a = grp["gap_s"].to_numpy(np.int64)
        row = got.loc[etype]
        assert int(row["n_gaps"]) == len(a)
        assert int(row["median_gap_s"]) == disc(a, 1, 2)
        assert int(row["p90_gap_s"]) == disc(a, 9, 10)


def test_late_event_stats(ray_session):
    """On the (in-order) corpus every type reports zero late events; on a
    crafted out-of-order feed the lateness counts and max match a
    sequential recount."""
    import os
    import tempfile

    from rayld.pipelines.relational import late_event_stats

    got = late_event_stats(SF, num_partitions=4)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["event_type"])
    assert int(got["n_events"].sum()) == len(ev)
    assert (got["n_late"] == 0).all() and (got["late_rate"] == 0.0).all()

    # user 1: arrival order 1..4 with ts 10:00, 10:10, 10:03, 10:20
    # -> event 3 is 7 min late; user 2 in order
    with tempfile.TemporaryDirectory() as d:
        ts = pd.to_datetime([
            "2024-01-01 10:00", "2024-01-01 10:10", "2024-01-01 10:03",
            "2024-01-01 10:20", "2024-01-01 11:00", "2024-01-01 11:30",
        ])
        pd.DataFrame({
            "event_id": [1, 2, 3, 4, 5, 6],
            "ts": ts.astype("datetime64[us]"),
            "user_id": [1, 1, 1, 1, 2, 2],
            "event_type": ["click"] * 4 + ["view"] * 2,
            "value": [1.0] * 6,
            "props": ["{}"] * 6,
        }).to_parquet(os.path.join(d, "events.parquet"))
        out = late_event_stats(d, num_partitions=2)
        m = out.set_index("event_type")
        assert int(m.loc["click", "n_late"]) == 1
        assert int(m.loc["click", "max_late_s"]) == 420
        assert float(m.loc["click", "late_rate"]) == 0.25
        assert int(m.loc["view", "n_late"]) == 0


def test_embedding_norm_stats(ray_session):
    """Integer-micro squared norms match a numpy recount; the synthetic
    embeddings are unit-normalized so every vector passes the unit band."""
    from rayld.pipelines.ann import embedding_norm_stats

    got = embedding_norm_stats(SF).to_pandas().set_index("vec_id")
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    mat = np.asarray(emb["embedding"].to_list(), dtype=np.float64)
    q = np.floor(mat * 1_000_000.0 + 0.5).astype(np.int64)
    want = (q * q).sum(axis=1)
    g = got.reindex(emb["vec_id"].to_numpy())
    assert (g["norm2_micro2"].to_numpy() == want).all()
    assert (g["n_dims"] == mat.shape[1]).all()
    assert (g["is_unit"] == 1).all()


def test_embedding_norm_stats_ragged():
    """A ragged/truncated/empty vector is REPORTED with its true length
    (advice-r3: the rectangular np.asarray crashed on these); norms come
    from the list offsets so no row is silently padded."""
    import pyarrow as pa
    from rayld.pipelines.ann import _norm_stats_batch

    sch = pa.schema([
        ("vec_id", pa.int64()), ("n_dims", pa.int64()),
        ("norm2_micro2", pa.int64()), ("is_unit", pa.int64()),
    ])
    lo = int((0.99 * 1_000_000) ** 2)
    hi = int((1.01 * 1_000_000) ** 2)
    batch = pa.table({
        "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
        "embedding": pa.array(
            [[1.0], [0.6, 0.8], [], [0.5, 0.5, 0.5]],
            pa.list_(pa.float64()),
        ),
    })
    out = _norm_stats_batch(batch, sch, lo, hi).to_pandas()
    assert out["n_dims"].tolist() == [1, 2, 0, 3]
    assert out["norm2_micro2"].tolist() == [
        10 ** 12, 600000 ** 2 + 800000 ** 2, 0, 3 * 500000 ** 2,
    ]
    assert out["is_unit"].tolist() == [1, 1, 0, 0]


def test_semdedup_check_gate(ray_session):
    """All SemDeDup parity flags green on the real corpus (the driver's
    hash-checked constant oracle depends on exactly this)."""
    from rayld.pipelines.dedup import semdedup_check

    flags = semdedup_check(SF).iloc[0]
    assert all(int(flags[c]) == 1 for c in
               ["parity_ok", "clusters_ok", "all_tagged_once"]), \
        flags.to_dict()


def test_conversion_rate_by_signup_day(ray_session):
    """Daily activation rates match a sequential per-user recount, and
    signup totals reconcile with the distinct signup-user count."""
    from rayld.pipelines.relational import conversion_rate_by_signup_day

    got = conversion_rate_by_signup_day(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["ts", "user_id", "event_type"]
    )
    t_us = ev["ts"].astype("datetime64[us]").astype("int64")
    want = {}
    for uid, grp in ev.assign(t=t_us).groupby("user_id"):
        sign = grp.loc[grp["event_type"] == "signup", "t"]
        if sign.empty:
            continue
        s0 = int(sign.min())
        day = (s0 // 86_400_000_000) * 86_400
        purch = grp.loc[
            (grp["event_type"] == "purchase") & (grp["t"] >= s0), "t"
        ]
        conv = int(
            not purch.empty and int(purch.min()) - s0 <= 86_400_000_000
        )
        n, c = want.get(day, (0, 0))
        want[day] = (n + 1, c + conv)
    assert len(got) == len(want)
    for r in got.itertuples(index=False):
        n, c = want[int(r.day_start)]
        assert int(r.n_signups) == n and int(r.n_converted) == c
        assert float(r.conversion_rate) == c / n
    n_signup_users = ev.loc[ev["event_type"] == "signup", "user_id"].nunique()
    assert int(got["n_signups"].sum()) == n_signup_users


def test_event_path_trigrams(ray_session):
    """Top trigram paths match a sequential per-user recount with the
    (count desc, path asc) ordering."""
    from collections import Counter

    from rayld.pipelines.relational import event_path_trigrams

    got = event_path_trigrams(SF, top_n=20, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet").sort_values(
        ["user_id", "ts", "event_id"], kind="mergesort"
    )
    want = Counter()
    for _, grp in ev.groupby("user_id", sort=False):
        ts = grp["event_type"].tolist()
        for a, b, c in zip(ts, ts[1:], ts[2:]):
            want[f"{a} > {b} > {c}"] += 1
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
    assert [(str(r.path), int(r.n))
            for r in got.itertuples(index=False)] == top


def test_nation_revenue_share(ray_session):
    """Revenue shares match an exact integer-cents recount and sum to 1."""
    from rayld.pipelines.relational import nation_revenue_share

    got = nation_revenue_share(SF, num_partitions=4)
    orders = pd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    cust = pd.read_parquet(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nat = pd.read_parquet(
        f"{SF}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    j = orders.merge(
        cust, left_on="o_custkey", right_on="c_custkey"
    ).merge(nat, left_on="c_nationkey", right_on="n_nationkey")
    rc = np.floor(j["o_totalprice"] * 100 + 0.5).astype("int64")
    want = rc.groupby(j["n_name"]).sum()
    total = int(want.sum())
    m = got.set_index("n_name")
    assert len(m) == len(want)
    for name, c in want.items():
        assert float(m.loc[name, "revenue"]) == int(c) / 100.0
        assert float(m.loc[name, "revenue_share"]) == int(c) / total
    assert abs(got["revenue_share"].sum() - 1.0) < 1e-9


def test_q14_promo_revenue(ray_session):
    """Q14 matches an exact integer-cents recount; promo <= total and
    shares sit in [0, 1]."""
    from rayld.pipelines.relational import q14_promo_revenue

    got = q14_promo_revenue(SF).to_pandas().set_index("month_start")
    li = pd.read_parquet(
        f"{SF}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice",
                 "l_discount"],
    )
    part = pd.read_parquet(
        f"{SF}/part.parquet", columns=["p_partkey", "p_type"]
    )
    promo = set(part.loc[part["p_type"] == "PROMO", "p_partkey"])
    rc = np.floor(
        li["l_extendedprice"] * (1 - li["l_discount"]) * 100 + 0.5
    ).astype("int64")
    month = (
        li["l_shipdate"].dt.to_period("M").dt.start_time
        .astype("datetime64[s]").astype("int64")
    )
    j = pd.DataFrame({
        "m": month, "rc": rc,
        "pc": np.where(li["l_partkey"].isin(promo), rc, 0),
    }).groupby("m").sum()
    assert len(got) == len(j)
    for m, row in j.iterrows():
        assert float(got.loc[m, "total_revenue"]) == int(row["rc"]) / 100.0
        assert float(got.loc[m, "promo_revenue"]) == int(row["pc"]) / 100.0
        assert float(got.loc[m, "promo_share"]) == int(row["pc"]) / int(
            row["rc"]
        )
    assert ((got["promo_share"] >= 0) & (got["promo_share"] <= 1)).all()


def test_token_weighted_quality(ray_session):
    """Weighted and doc medians match a direct recount (weighted
    percentile_disc: smallest value with 2*cumweight >= total)."""
    from rayld.pipelines.text import quality_cols, token_weighted_quality

    got = token_weighted_quality(SF)
    docs = pd.read_parquet(f"{SF}/documents.parquet", columns=["text"])
    n_tokens, q = quality_cols(docs["text"])
    qm = np.floor(np.asarray(q) * 1e6 + 0.5).astype(np.int64)
    w = n_tokens.to_numpy(np.int64)

    def disc(vals, weights):
        order = np.argsort(vals, kind="mergesort")
        vals, weights = vals[order], weights[order]
        cum = weights.cumsum()
        return int(vals[np.searchsorted(2 * cum, int(cum[-1]), "left")])

    assert int(got["n_docs"].iloc[0]) == len(docs)
    assert int(got["total_weight"].iloc[0]) == int(w.sum())
    assert float(got["weighted_median_quality"].iloc[0]) == disc(qm, w) / 1e6
    assert float(got["doc_median_quality"].iloc[0]) == disc(
        qm, np.ones(len(qm), dtype=np.int64)
    ) / 1e6


def test_spend_concentration(ray_session):
    """Gini and top-1% share match an exact sorted recount; Gini sits in
    [0, 1) and the top slice holds at least its proportional share."""
    import math

    from rayld.pipelines.relational import spend_concentration

    got = spend_concentration(SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    u = vc.groupby(ev["user_id"]).sum().reset_index()
    u.columns = ["user_id", "c"]
    u = u.sort_values(["c", "user_id"], kind="mergesort").reset_index(
        drop=True
    )
    n = len(u)
    s = int(u["c"].sum())
    rn = np.arange(1, n + 1, dtype=np.int64)
    sr = int((rn * u["c"].to_numpy(np.int64)).sum())
    k = math.ceil(n * 1 / 100)
    top_c = int(u["c"].to_numpy(np.int64)[n - k:].sum())
    assert int(got["n_users"].iloc[0]) == n
    assert float(got["total_spend"].iloc[0]) == s / 100.0
    assert int(got["top_users"].iloc[0]) == k
    assert float(got["top_share"].iloc[0]) == top_c / s
    gini = float(2 * sr - (n + 1) * s) / float(n * s)
    assert float(got["gini"].iloc[0]) == gini
    assert 0.0 <= gini < 1.0
    assert top_c / s >= k / n


def test_lang_confusion(ray_session):
    """Confusion-matrix cells match a direct predict() recount, total to
    the corpus size, and every stored lang appears as a row."""
    from rayld.pipelines.text import LangId, lang_confusion

    got = lang_confusion(SF).to_pandas()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["lang", "text"]
    )
    lid = LangId()
    want = (
        pd.DataFrame({
            "lang": docs["lang"],
            "lang_pred": [lid.predict(t) for t in docs["text"]],
            "n": 1,
        }).groupby(["lang", "lang_pred"])["n"].sum()
    )
    assert int(got["n"].sum()) == len(docs)
    assert len(got) == len(want)
    for r in got.itertuples(index=False):
        assert int(r.n) == int(want.loc[(str(r.lang), str(r.lang_pred))])
    assert set(got["lang"]) == set(docs["lang"].unique())


def test_dup_rate_by_source(ray_session):
    """Per-source duplicate counts match a direct survivor recount and
    reconcile with the global exact-dedup survivor count."""
    import hashlib

    from rayld.pipelines.dedup import dup_rate_by_source

    got = dup_rate_by_source(SF, num_partitions=4).to_pandas()
    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    h = docs["text"].map(lambda t: hashlib.md5(t.encode()).hexdigest())
    surv = docs.groupby(h)["doc_id"].transform("min")
    dup = docs["doc_id"] != surv
    want = pd.DataFrame({
        "source": docs["source"], "n": 1, "d": dup.astype("int64")
    }).groupby("source").sum()
    m = got.set_index("source")
    assert len(m) == len(want)
    for src_name, row in want.iterrows():
        assert int(m.loc[src_name, "n_docs"]) == int(row["n"])
        assert int(m.loc[src_name, "n_dups"]) == int(row["d"])
        assert float(m.loc[src_name, "dup_rate"]) == int(row["d"]) / int(
            row["n"]
        )
    n_survivors = docs.groupby(h)["doc_id"].min().nunique()
    assert int(got["n_docs"].sum() - got["n_dups"].sum()) == n_survivors


def test_order_dow_chisq(ray_session):
    """Chi-square statistic matches the direct definition sum((o-e)^2/e)
    within float tolerance and the closed form exactly."""
    from rayld.pipelines.relational import order_dow_chisq

    got = order_dow_chisq(SF)
    od = pd.read_parquet(f"{SF}/orders.parquet", columns=["o_orderdate"])
    dow = (od["o_orderdate"].dt.dayofweek + 1).astype("int64")
    counts = dow.value_counts()
    n = len(od)
    s2 = sum(int(c) ** 2 for c in counts)
    assert int(got["n_orders"].iloc[0]) == n
    assert int(got["n_days_seen"].iloc[0]) == len(counts)
    assert float(got["chi2_uniform"].iloc[0]) == float(7 * s2 - n * n) / n
    e = n / 7.0
    direct = sum(
        (counts.get(d, 0) - e) ** 2 / e for d in range(1, 8)
    )
    assert abs(float(got["chi2_uniform"].iloc[0]) - direct) < 1e-6


def test_brand_price_cv(ray_session):
    """Per-brand mean and CV match an exact integer-moment recount."""
    import math

    from rayld.pipelines.relational import brand_price_cv

    got = brand_price_cv(SF).to_pandas().set_index("p_brand")
    part = pd.read_parquet(
        f"{SF}/part.parquet", columns=["p_brand", "p_retailprice"]
    )
    pc = np.floor(part["p_retailprice"] * 100 + 0.5).astype("int64")
    for brand, grp in pc.groupby(part["p_brand"]):
        n, s1 = len(grp), int(grp.sum())
        s2 = sum(int(v) ** 2 for v in grp)
        row = got.loc[brand]
        assert int(row["n_parts"]) == n
        assert float(row["mean_price"]) == float(s1) / float(n) / 100.0
        assert float(row["price_cv"]) == math.sqrt(
            float(n * s2 - s1 * s1)
        ) / float(s1)


def test_benford_value_digits(ray_session):
    """Per-digit counts match a direct recount; probabilities sum to 1
    and each chi-square contribution matches its row-local formula."""
    import math

    from rayld.pipelines.relational import benford_value_digits

    got = benford_value_digits(SF)
    ev = pd.read_parquet(f"{SF}/events.parquet", columns=["value"])
    vc = np.floor(ev["value"] * 100 + 0.5).astype("int64")
    vc = vc[vc > 0]
    digits = vc.astype(str).str[0].astype("int64")
    want = digits.value_counts().sort_index()
    total = int(want.sum())
    assert got["digit"].tolist() == want.index.tolist()
    assert got["n_obs"].tolist() == want.tolist()
    assert abs(sum(math.log10(1 + 1 / d) for d in range(1, 10)) - 1.0) < 1e-12
    for r in got.itertuples(index=False):
        p = math.log10(1.0 + 1.0 / int(r.digit))
        e = total * p
        assert float(r.benford_p) == p
        assert float(r.chi2_contrib) == (int(r.n_obs) - e) ** 2 / e


def test_order_size_histogram(ray_session):
    """Order-size histogram matches a direct recount and totals to the
    order and lineitem counts."""
    from rayld.pipelines.relational import order_size_histogram

    got = order_size_histogram(SF).to_pandas().sort_values("n_items")
    li = pd.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey"])
    sizes = li["l_orderkey"].value_counts()
    want = sizes.value_counts().sort_index()
    assert got["n_items"].tolist() == want.index.tolist()
    assert got["n_orders"].tolist() == want.tolist()
    assert int((got["n_items"] * got["n_orders"]).sum()) == len(li)
    assert int(got["n_orders"].sum()) == li["l_orderkey"].nunique()


def test_segment_priority_independence(ray_session):
    """Contingency cells match a pandas crosstab recount; margins
    reconcile and each chi-square contribution matches its formula."""
    from rayld.pipelines.relational import segment_priority_independence

    got = segment_priority_independence(SF, num_partitions=4)
    orders = pd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_custkey", "o_orderpriority"]
    )
    cust = pd.read_parquet(
        f"{SF}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    j = orders.merge(cust, left_on="o_custkey", right_on="c_custkey")
    want = j.groupby(
        ["c_mktsegment", "o_orderpriority"]
    ).size()
    n = len(j)
    rt = j.groupby("c_mktsegment").size()
    ct = j.groupby("o_orderpriority").size()
    assert len(got) == len(want)
    assert int(got["n_obs"].sum()) == n
    for r in got.itertuples(index=False):
        o = int(want.loc[(str(r.c_mktsegment), str(r.o_orderpriority))])
        assert int(r.n_obs) == o
        e = float(int(rt[r.c_mktsegment]) * int(ct[r.o_orderpriority])) / n
        assert float(r.expected) == e
        assert float(r.chi2_contrib) == (o - e) * (o - e) / e


def test_q7_volume_shipping(ray_session):
    """Q7 pair-nation shipping revenue equals a pandas recount of the
    five-table join (both directions, cents contract)."""
    from rayld.pipelines.relational import q7_volume_shipping

    got = q7_volume_shipping(SF, num_partitions=4).to_pandas()
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    su = pd.read_parquet(f"{SF}/supplier.parquet")
    na = pd.read_parquet(f"{SF}/nation.parquet")
    li = li[(li["l_shipdate"] >= pd.Timestamp("1996-01-01"))
            & (li["l_shipdate"] < pd.Timestamp("1998-01-01"))]
    m = (li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cu, left_on="o_custkey", right_on="c_custkey")
           .merge(su, left_on="l_suppkey", right_on="s_suppkey")
           .merge(na.rename(columns=lambda c: "s1_" + c),
                  left_on="s_nationkey", right_on="s1_n_nationkey")
           .merge(na.rename(columns=lambda c: "c2_" + c),
                  left_on="c_nationkey", right_on="c2_n_nationkey"))
    pair = {"NATION_1", "NATION_2"}
    m = m[m["s1_n_name"].isin(pair) & m["c2_n_name"].isin(pair)
          & (m["s1_n_name"] != m["c2_n_name"])]
    cents = np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64")
    want = (
        m.assign(revenue_c=cents, l_year=m["l_shipdate"].dt.year)
        .groupby(["s1_n_name", "c2_n_name", "l_year"])["revenue_c"].sum()
    )
    gm = {(r.supp_nation, r.cust_nation, int(r.l_year)): int(r.revenue_c)
          for r in got.itertuples()}
    assert gm == {(a, b, int(y)): int(v)
                  for (a, b, y), v in want.items()}


def test_q7_volume_shipping_schema_zero_rows(ray_session, tmp_path):
    """Q7 keeps its declared 4-column schema when its result is empty: on
    zero-row copies of the sf0.001 tables, and on sf0.001 itself, where no
    lineitem in the date range ships between the two nations."""
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import q7_volume_shipping

    for f in Path(SF).glob("*.parquet"):
        pq.write_table(pq.read_schema(f).empty_table(), tmp_path / f.name)
    want = pa.schema([
        ("supp_nation", pa.string()), ("cust_nation", pa.string()),
        ("l_year", pa.int64()), ("revenue_c", pa.int64()),
    ])
    for sf in (str(tmp_path), SF):
        ds = q7_volume_shipping(sf, num_partitions=4)
        assert ds.count() == 0
        assert ds.schema().base_schema == want, sf


def test_q8_market_share(ray_session):
    """Q8 market share equals a pandas recount (cents volumes, one
    division at the end)."""
    from rayld.pipelines.relational import q8_market_share

    got = q8_market_share(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    su = pd.read_parquet(f"{SF}/supplier.parquet")
    na = pd.read_parquet(f"{SF}/nation.parquet")
    re = pd.read_parquet(f"{SF}/region.parquet")
    pa_ = pd.read_parquet(f"{SF}/part.parquet")
    od = od[(od["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (od["o_orderdate"] < pd.Timestamp("1998-01-01"))]
    m = (li.merge(pa_[pa_["p_type"] == "ECONOMY"],
                  left_on="l_partkey", right_on="p_partkey")
           .merge(od, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cu, left_on="o_custkey", right_on="c_custkey")
           .merge(su, left_on="l_suppkey", right_on="s_suppkey")
           .merge(na.rename(columns=lambda c: "c2_" + c),
                  left_on="c_nationkey", right_on="c2_n_nationkey")
           .merge(re, left_on="c2_n_regionkey", right_on="r_regionkey")
           .merge(na.rename(columns=lambda c: "s1_" + c),
                  left_on="s_nationkey", right_on="s1_n_nationkey"))
    m = m[m["r_name"] == "AMERICA"]
    cents = np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64")
    m = m.assign(vol_c=cents, o_year=m["o_orderdate"].dt.year)
    tot = m.groupby("o_year")["vol_c"].sum()
    tgt = m[m["s1_n_name"] == "NATION_6"].groupby("o_year")["vol_c"].sum()
    want = (tgt.reindex(tot.index).fillna(0) / tot).to_dict()
    gm = {int(r.o_year): float(r.mkt_share) for r in got.itertuples()}
    assert set(gm) == {int(k) for k in want}
    for y in gm:
        assert abs(gm[y] - float(want[y])) < 1e-12


def test_q10_returned_items(ray_session):
    """Q10 top-20 returned-revenue customers equal a pandas recount with
    the same deterministic (revenue desc, custkey) cut."""
    from rayld.pipelines.relational import q10_returned_items

    got = q10_returned_items(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    na = pd.read_parquet(f"{SF}/nation.parquet")
    od = od[(od["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (od["o_orderdate"] < pd.Timestamp("1996-04-01"))]
    m = (li[li["l_returnflag"] == "R"]
         .merge(od, left_on="l_orderkey", right_on="o_orderkey")
         .merge(cu, left_on="o_custkey", right_on="c_custkey")
         .merge(na, left_on="c_nationkey", right_on="n_nationkey"))
    cents = np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64")
    want = (
        m.assign(revenue_c=cents)
        .groupby(["c_custkey", "c_name", "c_acctbal", "n_name"],
                 as_index=False)["revenue_c"].sum()
        .sort_values(["revenue_c", "c_custkey"], ascending=[False, True],
                     kind="mergesort")
        .head(20).reset_index(drop=True)
    )
    assert len(got) == len(want)
    assert got["c_custkey"].tolist() == want["c_custkey"].tolist()
    assert got["revenue_c"].tolist() == want["revenue_c"].tolist()
    assert got["n_name"].tolist() == want["n_name"].tolist()


def test_q13_customer_distribution(ray_session):
    """Q13 distribution equals a pandas recount and covers the zero-order
    bucket."""
    from rayld.pipelines.relational import q13_customer_distribution

    got = q13_customer_distribution(SF, num_partitions=4).to_pandas()
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    per = od.groupby("o_custkey").size()
    counts = per.reindex(cu["c_custkey"]).fillna(0).astype(int)
    want = counts.value_counts().to_dict()
    gm = {int(r.c_count): int(r.custdist) for r in got.itertuples()}
    assert gm == {int(k): int(v) for k, v in want.items()}


def test_q13_zero_order_customers(ray_session, tmp_path):
    """The LEFT-JOIN semantics: customers with no orders land in the
    k=0 bucket (sf0.001 happens to have none, so synthesize some)."""
    from rayld.pipelines.relational import q13_customer_distribution

    pd.DataFrame({"c_custkey": [1, 2, 3, 4, 5]}).to_parquet(
        tmp_path / "customer.parquet")
    pd.DataFrame({"o_custkey": [1, 1, 2, 9]}).to_parquet(
        tmp_path / "orders.parquet")
    got = q13_customer_distribution(
        str(tmp_path), num_partitions=2).to_pandas()
    gm = {int(r.c_count): int(r.custdist) for r in got.itertuples()}
    # custkey 9 has no customer row (dropped, LEFT JOIN), 3/4/5 have no
    # orders (k=0), 1 has two, 2 has one
    assert gm == {0: 3, 1: 1, 2: 1}


def test_q6_forecast_revenue(ray_session):
    """Q6 equals a pandas recount of the filtered scan."""
    from rayld.pipelines.relational import q6_forecast_revenue

    got = q6_forecast_revenue(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    m = li[(li["l_shipdate"] >= pd.Timestamp("1996-01-01"))
           & (li["l_shipdate"] < pd.Timestamp("1997-01-01"))
           & (li["l_discount"] >= 0.05 - 1e-9)
           & (li["l_discount"] <= 0.07 + 1e-9)
           & (li["l_quantity"] < 24.0)]
    want = int(np.floor(
        m["l_extendedprice"] * m["l_discount"] * 100 + 0.5
    ).astype("int64").sum())
    assert int(got["revenue_c"].iloc[0]) == want
    assert want > 0  # the filter must select something to mean anything


def test_q15_top_supplier(ray_session):
    """Q15 returns ALL suppliers tied at the max quarterly revenue."""
    from rayld.pipelines.relational import q15_top_supplier

    got = q15_top_supplier(SF, num_partitions=4)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    m = li[(li["l_shipdate"] >= pd.Timestamp("1996-01-01"))
           & (li["l_shipdate"] < pd.Timestamp("1996-04-01"))]
    cents = np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64")
    rev = m.assign(rev_c=cents).groupby("l_suppkey")["rev_c"].sum()
    want_keys = sorted(rev[rev == rev.max()].index.astype(int))
    assert got["s_suppkey"].tolist() == want_keys
    assert (got["revenue_c"] == int(rev.max())).all()


def test_q17_small_quantity_revenue(ray_session):
    """Q17's decorrelated per-part threshold equals the naive per-part
    recount (exact integer cross-multiplication)."""
    from rayld.pipelines.relational import q17_small_quantity_revenue

    got = q17_small_quantity_revenue(SF, num_partitions=4)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    qty_u = np.floor(
        li["l_quantity"].to_numpy(np.float64) * 1e6 + 0.5
    ).astype("int64")
    price_c = np.floor(
        li["l_extendedprice"].to_numpy(np.float64) * 100 + 0.5
    ).astype("int64")
    df = pd.DataFrame({
        "k": li["l_partkey"].to_numpy(np.int64),
        "q": qty_u, "p": price_c,
    })
    s = df.groupby("k")["q"].transform("sum").to_numpy("int64")
    n = df.groupby("k")["q"].transform("size").to_numpy("int64")
    want = int(df["p"].to_numpy()[df["q"].to_numpy() * n * 2 < s].sum())
    assert int(got["revenue_c"].iloc[0]) == want
    assert want > 0


def test_user_jaccard_similarity(ray_session):
    """Jaccard micro-scores equal a brute-force set recount (integer
    half-up) over the shared-k projection graph; adjacent pairs excluded."""
    import json as _json
    from collections import defaultdict

    from rayld.pipelines.graph import user_jaccard_similarity

    got = user_jaccard_similarity(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    by_k = defaultdict(set)
    for _, r in sel.iterrows():
        k = _json.loads(r["props"]).get("k") if r["props"] else None
        if k is not None:
            by_k[int(k)].add(int(r["user_id"]))
    edges = set()
    for users in by_k.values():
        us = sorted(users)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                edges.add((us[i], us[j]))
    nbr = defaultdict(set)
    for p, q in edges:
        nbr[p].add(q)
        nbr[q].add(p)
    want = {}
    nodes = sorted(nbr)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if (u, v) in edges:
                continue
            cn = len(nbr[u] & nbr[v])
            if cn:
                den = len(nbr[u]) + len(nbr[v]) - cn
                want[(u, v)] = (2_000_000 * cn + den) // (2 * den)
    m = {(int(r.u), int(r.v)): int(r.jac_micro) for r in got.itertuples()}
    assert m == want


def test_wedge_pair_sums_hub_chunked(monkeypatch):
    """Planted-hub fixture (verdict-r4 item 2): a center whose C(deg, 2)
    pair set exceeds chunk_pairs must emit in bounded row strips — peak
    allocation O(chunk_pairs + deg), never the full triangle — while
    staying bit-identical to the unchunked emission. np.triu_indices is
    the unchunked fast path's only allocator of a full C(deg,2) array;
    asserting it is never called for the hub proves the strip path ran."""
    import rayld.pipelines.graph as G

    rng = np.random.default_rng(7)
    hub_deg = 800  # C(800,2) = 319,600 pairs >> chunk_pairs below
    w = np.concatenate([
        np.full(hub_deg, 1, np.int64),           # the hub center
        rng.integers(2, 40, size=500),           # small background centers
    ])
    x = np.concatenate([
        np.arange(100, 100 + hub_deg, dtype=np.int64),
        rng.integers(100, 200, size=500),
    ])

    want = G._wedge_pair_sums(w, x, chunk_pairs=10**9)  # one-shot emission

    triu_calls = []
    real_triu = np.triu_indices

    def spy_triu(n, k=0, m=None):
        triu_calls.append(n)
        return real_triu(n, k) if m is None else real_triu(n, k, m)

    monkeypatch.setattr(G.np, "triu_indices", spy_triu)
    got = G._wedge_pair_sums(w, x, chunk_pairs=5_000)

    for a, b in zip(want, got):
        assert np.array_equal(a, b)
    # every triu allocation stayed under the chunk bound: the hub (deg
    # 800 -> 319,600 pairs) went through the strip path, small centers
    # through the bounded fast path
    assert all(n * (n - 1) // 2 <= 5_000 for n in triu_calls)
    assert max(triu_calls, default=0) < hub_deg
    # weighted variant (the RA family) chunks identically
    wfn = G._wedge_pair_sums(w, x, weight_fn=lambda d: 3, chunk_pairs=4_096)
    monkeypatch.undo()
    wfn_ref = G._wedge_pair_sums(
        w, x, weight_fn=lambda d: 3, chunk_pairs=10**9)
    for a, b in zip(wfn_ref, wfn):
        assert np.array_equal(a, b)


def test_top_tokens_flat_corpus_fallback(ray_session, tmp_path):
    """ADVICE-r4 medium: on a flat (non-zipfian) corpus the heavy-hitter
    pigeonhole certificate fails (k-th count <= N/(capacity+1)); the
    sketch must detect that at runtime and fall back to the exact
    full-vocabulary plan instead of silently returning a wrong top-k."""
    from rayld.pipelines.text import _TOKEN_RE, top_tokens_sketch

    # 300 docs x 10 tokens, all counts flat (1 or 2): no token can clear
    # N/(capacity+1) = 3000/5 with capacity=4
    rng = np.random.default_rng(11)
    vocab = [f"tok{i:05d}" for i in range(1500)]
    texts = [
        " ".join(rng.choice(vocab, size=10, replace=False))
        for _ in range(300)
    ]
    d = tmp_path / "flat"
    d.mkdir()
    pd.DataFrame(
        {"doc_id": np.arange(300, dtype=np.int64), "text": texts}
    ).to_parquet(d / "documents.parquet")

    got = top_tokens_sketch(str(d), k=25, capacity=4).to_pandas()
    toks = pd.Series(texts).str.findall(_TOKEN_RE).explode()
    vc = toks.value_counts()
    want = (
        vc.rename_axis("token").reset_index(name="n")
        .sort_values(["n", "token"], ascending=[False, True])
        .head(25).reset_index(drop=True)
    )
    got = got.reset_index(drop=True)
    assert list(got["token"]) == list(want["token"])
    assert list(got["n"].astype(int)) == list(want["n"].astype(int))


def test_png_codec_roundtrip():
    """The pure PNG kernel: encode (all five row filters) -> decode
    recovers the exact pixels; every malformed-input guard raises
    ValueError (bad signature, corrupted chunk CRC, truncated IDAT,
    unsupported variant)."""
    import struct
    import zlib

    import pytest as _pytest

    from rayld.pipelines.multimodal import _png_decode, _png_encode

    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
    for fts in ([0] * 24, [1] * 24, [2] * 24, [3] * 24, [4] * 24,
                [r % 5 for r in range(24)], [(r * 3 + 1) % 5 for r in range(24)]):
        assert np.array_equal(_png_decode(_png_encode(img, fts)), img)
    # non-square + tiny images
    for shape in ((1, 1, 3), (5, 2, 3), (2, 7, 3)):
        small = rng.integers(0, 256, size=shape).astype(np.uint8)
        assert np.array_equal(_png_decode(_png_encode(small)), small)

    good = _png_encode(img)
    with _pytest.raises(ValueError, match="signature"):
        _png_decode(b"notapng" + good)
    # flip one IDAT byte: chunk CRC must catch it
    bad = bytearray(good)
    idat_at = good.index(b"IDAT")
    bad[idat_at + 8] ^= 0xFF
    with _pytest.raises(ValueError, match="CRC"):
        _png_decode(bytes(bad))
    # 16-bit depth is an unsupported variant, not a crash
    ihdr = struct.pack(">IIBBBBB", 32, 24, 16, 2, 0, 0, 0)
    chunk = (struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
             + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr)))
    sig = good[:8]
    rest = good[8 + 12 + 13:]  # skip original IHDR chunk (12 + 13 bytes)
    with _pytest.raises(ValueError, match="variant"):
        _png_decode(sig + chunk + rest)


def test_media_png_features(ray_session):
    """Distributed PNG decode over synthesized images: channel means are
    analytic in doc_id (the PPM oracle pattern), verified exactly."""
    from rayld.pipelines.multimodal import media_png_features

    got = media_png_features(SF).to_pandas().sort_values("media_id")
    assert len(got) == 500
    ids = got["media_id"].to_numpy(np.int64)
    assert (got["width"] == 32).all() and (got["height"] == 24).all()
    assert np.array_equal(got["mean_r_micro"], (ids % 256) * 1_000_000)
    assert (got["mean_g_micro"] == 15_500_000).all()  # mean(0..31) = 15.5
    assert np.array_equal(got["mean_b_micro"], (ids * 7 % 256) * 1_000_000)


def test_q4_order_priority(ray_session):
    """Q4's Bloom-pruned EXISTS semi-join equals the pandas recount."""
    from rayld.pipelines.relational import q4_order_priority

    got = q4_order_priority(SF, num_partitions=4).to_pandas()
    od = pd.read_parquet(f"{SF}/orders.parquet")
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    od = od[(od["o_orderdate"] >= pd.Timestamp("1996-01-01"))
            & (od["o_orderdate"] < pd.Timestamp("1996-04-01"))]
    mx = li.groupby("l_orderkey")["l_shipdate"].max()
    j = od.assign(mx=od["o_orderkey"].map(mx))
    late = j[j["mx"] > j["o_orderdate"] + pd.Timedelta(days=60)]
    want = late.groupby("o_orderpriority").size().to_dict()
    gm = {r.o_orderpriority: int(r.order_count) for r in got.itertuples()}
    assert gm == {k: int(v) for k, v in want.items()}
    assert sum(gm.values()) > 0


def test_q12_shipping_lateness(ray_session):
    """Q12's late-line priority split equals the pandas recount."""
    from rayld.pipelines.relational import q12_shipping_lateness

    got = q12_shipping_lateness(SF, num_partitions=4).to_pandas()
    od = pd.read_parquet(f"{SF}/orders.parquet")
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    j = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
    m = j[(j["l_shipdate"] >= pd.Timestamp("1996-01-01"))
          & (j["l_shipdate"] < pd.Timestamp("1997-01-01"))
          & (j["l_shipdate"] > j["o_orderdate"] + pd.Timedelta(days=60))]
    hi = m["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
    want_hi = m[hi].groupby("l_returnflag").size().to_dict()
    want_lo = m[~hi].groupby("l_returnflag").size().to_dict()
    for r in got.itertuples():
        assert int(r.high_line_count) == int(want_hi.get(r.l_returnflag, 0))
        assert int(r.low_line_count) == int(want_lo.get(r.l_returnflag, 0))
    assert set(got["l_returnflag"]) == set(want_hi) | set(want_lo)
    assert int(got["high_line_count"].sum()) > 0


def test_q19_discounted_revenue(ray_session):
    """Q19's broadcast-dim disjunctive filter equals the pandas recount."""
    from rayld.pipelines.relational import (Q19_BRANCHES,
                                            q19_discounted_revenue)

    got = q19_discounted_revenue(SF)
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    pt = pd.read_parquet(f"{SF}/part.parquet")
    j = li.merge(pt, left_on="l_partkey", right_on="p_partkey")
    keep = np.zeros(len(j), dtype=bool)
    for b, qlo, qhi, slo, shi in Q19_BRANCHES:
        keep |= ((j["p_brand"] == b) & (j["l_quantity"] >= qlo)
                 & (j["l_quantity"] <= qhi) & (j["p_size"] >= slo)
                 & (j["p_size"] <= shi)).to_numpy()
    m = j[keep]
    want = int(np.floor(
        m["l_extendedprice"] * (1 - m["l_discount"]) * 100 + 0.5
    ).astype("int64").sum())
    assert int(got["revenue_c"].iloc[0]) == want
    assert want > 0


def test_q21_waiting_suppliers(ray_session):
    """Q21's unique-latest-supplier count equals the pandas recount."""
    from rayld.pipelines.relational import q21_waiting_suppliers

    got = q21_waiting_suppliers(SF, num_partitions=4)
    od = pd.read_parquet(f"{SF}/orders.parquet")
    li = pd.read_parquet(f"{SF}/lineitem.parquet")
    fk = set(od.loc[od["o_orderstatus"] == "F", "o_orderkey"])
    sm = li[li["l_orderkey"].isin(fk)].groupby(
        ["l_orderkey", "l_suppkey"], as_index=False
    ).agg(mx=("l_shipdate", "max"))
    want: dict[int, int] = {}
    for ok, grp in sm.groupby("l_orderkey"):
        if len(grp) < 2:
            continue
        at_max = grp[grp["mx"] == grp["mx"].max()]
        if len(at_max) == 1:
            s = int(at_max["l_suppkey"].iloc[0])
            want[s] = want.get(s, 0) + 1
    gm = {int(r.s_suppkey): int(r.numwait) for r in got.itertuples()}
    assert gm == want
    assert len(gm) > 0
    # ordered by numwait desc then suppkey
    nw = got["numwait"].to_numpy()
    assert (nw[:-1] >= nw[1:]).all()


def test_q21_semantics(ray_session, tmp_path):
    """Synthetic edge cases: a tie at the max is NOT waiting; a
    single-supplier order is excluded; 'O' orders are excluded."""
    from rayld.pipelines.relational import q21_waiting_suppliers

    d = pd.Timestamp("1996-01-01")
    pd.DataFrame({
        "o_orderkey": [1, 2, 3, 4],
        "o_orderstatus": ["F", "F", "F", "O"],
    }).to_parquet(tmp_path / "orders.parquet")
    pd.DataFrame({
        # order 1: supp 7 ships last alone -> counts
        # order 2: supps 7 and 8 tie at the max -> nobody counts
        # order 3: single supplier -> excluded
        # order 4: would count but status 'O'
        "l_orderkey": [1, 1, 2, 2, 3, 4, 4],
        "l_suppkey": [7, 8, 7, 8, 7, 9, 8],
        "l_shipdate": [d + pd.Timedelta(days=x)
                       for x in (9, 1, 5, 5, 3, 9, 1)],
    }).to_parquet(tmp_path / "lineitem.parquet")
    pd.DataFrame({
        "s_suppkey": [7, 8, 9],
        "s_name": ["s7", "s8", "s9"],
    }).to_parquet(tmp_path / "supplier.parquet")
    got = q21_waiting_suppliers(str(tmp_path), num_partitions=2)
    assert {int(r.s_suppkey): int(r.numwait)
            for r in got.itertuples()} == {7: 1}


def test_q22_sales_opportunity(ray_session):
    """Q22's dormant above-average-balance anti-join equals the pandas
    recount (exact integer-cents average threshold)."""
    from rayld.pipelines.relational import (Q22_NATIONS,
                                            q22_sales_opportunity)

    got = q22_sales_opportunity(SF, num_partitions=4).to_pandas()
    cu = pd.read_parquet(f"{SF}/customer.parquet")
    od = pd.read_parquet(f"{SF}/orders.parquet")
    cu = cu[cu["c_nationkey"].isin(Q22_NATIONS)]
    bal_c = np.floor(cu["c_acctbal"] * 100 + 0.5).astype("int64")
    pos = bal_c[bal_c > 0]
    s, n = int(pos.sum()), int(len(pos))
    recent = set(od.loc[
        od["o_orderdate"] >= pd.Timestamp("2000-01-01"), "o_custkey"])
    keep = cu[(bal_c * n > s) & ~cu["c_custkey"].isin(recent)]
    kb = np.floor(keep["c_acctbal"] * 100 + 0.5).astype("int64")
    want = keep.assign(b=kb).groupby("c_nationkey").agg(
        numcust=("c_custkey", "size"), tot=("b", "sum"))
    gm = {int(r.c_nationkey): (int(r.numcust), int(r.totacctbal_c))
          for r in got.itertuples()}
    assert gm == {int(k): (int(v["numcust"]), int(v["tot"]))
                  for k, v in want.iterrows()}


def _projection_brute(sf: str):
    """Brute-force shared-k projection graph: (edges set, neighbor map)."""
    import json as _json
    from collections import defaultdict

    ev = pd.read_parquet(f"{sf}/events.parquet",
                         columns=["user_id", "event_type", "props"])
    sel = ev[ev["event_type"] == "purchase"]
    by_k = defaultdict(set)
    for _, r in sel.iterrows():
        k = _json.loads(r["props"]).get("k") if r["props"] else None
        if k is not None:
            by_k[int(k)].add(int(r["user_id"]))
    edges = set()
    for users in by_k.values():
        us = sorted(users)
        for i in range(len(us)):
            for j in range(i + 1, len(us)):
                edges.add((us[i], us[j]))
    nbr = defaultdict(set)
    for p, q in edges:
        nbr[p].add(q)
        nbr[q].add(p)
    return edges, nbr


def test_user_clustering_coefficient(ray_session):
    """Per-node lcc_micro equals a brute-force triangle recount: twice_t(u)
    sums |N(u) ∩ N(v)| over u's incident edges; zero-triangle nodes with
    d >= 2 still appear with lcc_micro = 0."""
    from rayld.pipelines.graph import user_clustering_coefficient

    got = user_clustering_coefficient(SF, num_partitions=4).to_pandas()
    edges, nbr = _projection_brute(SF)
    want = {}
    for u, ns in nbr.items():
        d = len(ns)
        if d < 2:
            continue
        t2 = sum(len(ns & nbr[v]) for v in ns)
        want[u] = (d, t2 // 2, (1_000_000 * t2) // (d * (d - 1)))
    m = {int(r.node): (int(r.d), int(r.tri), int(r.lcc_micro))
         for r in got.itertuples()}
    assert m == want
    assert any(v[2] == 0 for v in m.values()) or all(
        v[1] > 0 for v in m.values()
    )


def test_user_degree_assortativity(ray_session):
    """Integer moments over the directed-both edge list match a brute
    recount, and assort_micro uses truncation toward zero (the DuckDB //
    semantics) on the exact rational."""
    from rayld.pipelines.graph import user_degree_assortativity

    got = user_degree_assortativity(SF, num_partitions=4)
    edges, nbr = _projection_brute(SF)
    deg = {u: len(ns) for u, ns in nbr.items()}
    xs, ys = [], []
    for p, q in edges:
        xs += [deg[p], deg[q]]
        ys += [deg[q], deg[p]]
    n = len(xs)
    sx = sum(xs)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    num, den = n * sxy - sx * sx, n * sxx - sx * sx
    micro = 0 if den == 0 else (
        (abs(1_000_000 * num) // den) * (1 if num >= 0 else -1)
    )
    r = got.iloc[0]
    assert (int(r.n_pairs), int(r.s_x), int(r.s_xx), int(r.s_xy),
            int(r.assort_micro)) == (n, sx, sxx, sxy, micro)


def test_event_type_transitions(ray_session):
    """Transition counts equal a single-frame pandas recount under the
    same (ts, event_id) total order; rows never cross users."""
    from rayld.pipelines.relational import event_type_transitions

    got = event_type_transitions(SF, num_partitions=4).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["user_id", "event_type", "ts", "event_id"],
    ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = ev["event_type"].shift(1)
    same = ev["user_id"].eq(ev["user_id"].shift(1))
    sel = ev.assign(prev_type=prev)[same]
    want = sel.groupby(["prev_type", "event_type"]).size().to_dict()
    m = {(r.prev_type, r.next_type): int(r.n) for r in got.itertuples()}
    assert m == want
    assert sum(m.values()) == int(same.sum())


def test_events_pivot_by_type(ray_session):
    """Pivoted per-day type counts equal a single-frame crosstab; the
    column set is the closed EVENT_TYPES universe plus the row total."""
    from rayld.pipelines.relational import EVENT_TYPES, events_pivot_by_type

    got = events_pivot_by_type(SF, num_partitions=4)
    ev = pd.read_parquet(f"{SF}/events.parquet",
                         columns=["event_type", "ts"])
    day = (ev["ts"].dt.floor("D").astype("datetime64[us]")
           .astype("int64") // 1_000_000)
    ct = pd.crosstab(day, ev["event_type"])
    assert list(got.columns) == (
        ["day_start"] + [f"n_{t}" for t in EVENT_TYPES] + ["n_total"]
    )
    g = got.set_index("day_start").sort_index()
    assert (g.index == ct.sort_index().index).all()
    for t in EVENT_TYPES:
        want = ct[t] if t in ct.columns else pd.Series(0, index=ct.index)
        assert (g[f"n_{t}"].to_numpy() ==
                want.sort_index().to_numpy()).all()
    assert int(g["n_total"].sum()) == len(ev)


def test_events_pivot_unknown_type_is_loud(ray_session, tmp_path):
    """An event type outside the closed universe must fail the PIVOT
    pipeline loudly (through Ray's task-error wrapping), not silently
    drop rows — driven end-to-end on a planted corpus."""
    import pytest as _pytest

    from rayld.pipelines.relational import EVENT_TYPES, events_pivot_by_type

    assert "refund" not in EVENT_TYPES
    pd.DataFrame({
        "event_type": ["click", "refund"],
        "ts": pd.to_datetime(["2024-01-01", "2024-01-02"]),
    }).to_parquet(tmp_path / "events.parquet")
    with _pytest.raises(Exception, match="unknown event types"):
        events_pivot_by_type(str(tmp_path), num_partitions=4)


def test_event_value_autocorr(ray_session):
    """Exact integer-cent lag-1 moments equal a single-frame recount
    under the same (ts, event_id) total order."""
    from rayld.pipelines.relational import event_value_autocorr

    got = event_value_autocorr(SF, num_partitions=4)
    ev = pd.read_parquet(
        f"{SF}/events.parquet",
        columns=["user_id", "value", "ts", "event_id"],
    ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    v = np.floor(ev["value"].to_numpy(np.float64) * 100 + 0.5).astype(
        np.int64)
    same = ev["user_id"].eq(ev["user_id"].shift(-1)).to_numpy()[:-1]
    x, y = v[:-1][same], v[1:][same]
    r = got.iloc[0]
    assert (int(r.n_pairs), int(r.s_x), int(r.s_y), int(r.s_xx),
            int(r.s_yy), int(r.s_xy)) == (
        len(x), int(x.sum()), int(y.sum()), int((x * x).sum()),
        int((y * y).sum()), int((x * y).sum()))


def test_kg_adjacent_turn_entities(ray_session):
    """The path BGP's pair counts equal a pandas five-way merge over the
    same triples (conv-scoped joins through the rdf list cons chain)."""
    from rayld.pipelines.graph import kg_adjacent_turn_entities
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30)).materialize()
    got = kg_adjacent_turn_entities(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    F = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
    R = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
    A = "http://schema.org/about"
    f = df[df["pred"] == F][["conv_id", "subj", "obj_value"]]
    r = df[df["pred"] == R][["conv_id", "subj", "obj_value"]]
    a = df[df["pred"] == A][["conv_id", "subj", "obj_value"]]
    adj = r.merge(
        f.rename(columns={"subj": "c", "obj_value": "t1"}),
        left_on=["conv_id", "subj"], right_on=["conv_id", "c"],
    ).merge(
        f.rename(columns={"subj": "c2", "obj_value": "t2"}),
        left_on=["conv_id", "obj_value"], right_on=["conv_id", "c2"],
    )[["conv_id", "t1", "t2"]]
    pairs = adj.merge(
        a.rename(columns={"subj": "t1", "obj_value": "e1"}),
        on=["conv_id", "t1"],
    ).merge(
        a.rename(columns={"subj": "t2", "obj_value": "e2"}),
        on=["conv_id", "t2"],
    )
    want = pairs.groupby(["e1", "e2"]).size().to_dict()
    m = {(x.e1, x.e2): int(x.n) for x in got.itertuples()}
    assert m == want and len(m) > 0


def test_kg_turn_depth_entities(ray_session):
    """The property-path BGP's (depth, entity) counts equal a per-
    conversation Python chain walk over the same triples — the pointer-
    doubling depths match a sequential rdf:rest* traversal exactly."""
    from rayld.pipelines.graph import kg_turn_depth_entities
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30)).materialize()
    got = kg_turn_depth_entities(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    F = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first"
    R = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest"
    A = "http://schema.org/about"
    f = df[df["pred"] == F]
    r = df[df["pred"] == R]
    a = df[df["pred"] == A]
    about = {}
    for row in a.itertuples():
        about.setdefault((row.conv_id, row.subj), []).append(row.obj_value)
    nxt = {(x.conv_id, x.subj): (x.conv_id, x.obj_value)
           for x in r.itertuples()}
    first = {(x.conv_id, x.subj): x.obj_value for x in f.itertuples()}
    tails = {v for v in nxt.values()}
    want: dict = {}
    for head in first:
        if head in tails:
            continue
        cell, depth = head, 0
        while cell in first:
            for e in about.get((cell[0], first[cell]), []):
                k = (depth, e)
                want[k] = want.get(k, 0) + 1
            cell = nxt.get(cell)
            depth += 1
            if cell is None:
                break
    m = {(int(x.depth), x.e): int(x.n) for x in got.itertuples()}
    assert m == want and len(m) > 0 and max(d for d, _ in m) > 1


def test_kg_bgp_optional_tool_labels(ray_session):
    """The OPTIONAL BGP's per-kind counts equal pandas left merges
    (unmatched optionals keep the row; count() counts bound rows only)."""
    from rayld.pipelines.graph import kg_bgp_optional_tool_labels
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_bgp_optional_tool_labels(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    tr = df[df["pred"] == "https://rayld.dev/vocab#toolResult"]
    lbl = df[df["pred"] == "http://www.w3.org/2000/01/rdf-schema#label"]
    rat = df[df["pred"] == "http://schema.org/ratingValue"]
    j = tr[["conv_id", "obj_value", "obj_kind"]].merge(
        lbl[["conv_id", "subj", "obj_value"]].rename(
            columns={"subj": "obj_value", "obj_value": "l"}),
        on=["conv_id", "obj_value"], how="left",
    ).merge(
        rat[["conv_id", "subj", "obj_value"]].rename(
            columns={"subj": "obj_value", "obj_value": "v"}),
        on=["conv_id", "obj_value"], how="left",
    )
    g = j.groupby("obj_kind")
    want = {
        k: (len(v), int(v["l"].notna().sum()), int(v["v"].notna().sum()))
        for k, v in g
    }
    m = {x.r_kind: (int(x.n_results), int(x.n_labeled), int(x.n_rated))
         for x in got.itertuples()}
    assert m == want and len(m) > 0
    # the pattern is genuinely OPTIONAL on this corpus: some results
    # match, some don't
    assert any(nl < nr for nr, nl, _ in m.values())
    assert any(nl > 0 for _, nl, _ in m.values())


def test_kg_construct_comention(ray_session):
    """CONSTRUCT emits exactly the distinct same-turn entity pairs, each
    serialized as the canonical N-Quad line the kernel writer produces."""
    from rayld.kernel.nquads import parse_nquads
    from rayld.pipelines.graph import kg_construct_comention
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30)).materialize()
    got = kg_construct_comention(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    a = df[df["pred"] == "http://schema.org/about"]
    p = a.merge(a, on=["conv_id", "subj"])
    want = {
        (x, y)
        for x, y in zip(p["obj_value_x"], p["obj_value_y"]) if x < y
    }
    assert set(zip(got["e1"], got["e2"])) == want and len(want) > 0
    # every emitted line round-trips through the kernel N-Quads parser
    # back to the constructed triple
    doc = "\n".join(got["nquad"]) + "\n"
    ds = parse_nquads(doc)
    quads = ds["@default"]
    assert len(quads) == len(got)
    assert {
        (q["subject"]["value"], q["object"]["value"]) for q in quads
    } == want
    assert all(
        q["predicate"]["value"] == "https://rayld.dev/vocab#comentionedWith"
        for q in quads
    )


def test_ann_hamming_range(ray_session):
    """Range search returns exactly the vectors within the Hamming radius
    of each query's sign signature (numpy brute-force recount)."""
    import numpy as np
    import pyarrow.parquet as pq

    from rayld.pipelines.ann import ann_hamming_range

    got = ann_hamming_range(SF, radius=24).to_pandas()

    tbl = pq.read_table(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    sig = mat > 0.0
    want = {}
    for q in (0, 1, 2, 3):
        qs = sig[ids == q][0]
        ham = (sig != qs).sum(axis=1)
        for vid, h in zip(ids[ham <= 24], ham[ham <= 24]):
            want[(q, int(vid))] = int(h)
    m = {(int(x.query_id), int(x.vec_id)): int(x.hamming)
         for x in got.itertuples()}
    assert m == want and len(m) > 4
    # every query is within radius 0 of itself
    assert all(m[(q, q)] == 0 for q in (0, 1, 2, 3))


def test_kg_bgp_union_labels(ray_session):
    """UNION is a bag: the result equals the concatenation of the two
    branch scans, branch-tagged, with multiplicity preserved."""
    from rayld.pipelines.graph import kg_bgp_union_labels
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30)).materialize()
    got = kg_bgp_union_labels(triples).to_pandas()

    df = triples.to_pandas()
    want = []
    for pred, tag in (
        ("http://www.w3.org/2000/01/rdf-schema#label", "rdfs:label"),
        ("http://schema.org/name", "schema:name"),
    ):
        leg = df[df["pred"] == pred]
        want += list(zip(leg["subj"], leg["obj_value"], [tag] * len(leg)))
    assert sorted(zip(got["x"], got["l"], got["src"])) == sorted(want)
    assert len({s for _, _, s in want}) == 2  # both branches non-empty


def test_kg_bgp_minus_mentions(ray_session):
    """MINUS keeps exactly the mention solutions whose turn has no
    toolResult binding (pandas NOT-IN recount)."""
    from rayld.pipelines.graph import kg_bgp_minus_mentions
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_bgp_minus_mentions(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    a = df[df["pred"] == "http://schema.org/about"]
    tr = df[df["pred"] == "https://rayld.dev/vocab#toolResult"]
    tr_keys = set(zip(tr["conv_id"], tr["subj"]))
    kept = a[[k not in tr_keys for k in zip(a["conv_id"], a["subj"])]]
    want = kept.groupby("obj_value").size().to_dict()
    assert dict(zip(got["e"], got["n"])) == want and len(want) > 0
    # the negation is non-trivial on this corpus: some mention turns DO
    # carry tool results and are removed
    assert len(kept) < len(a)


def test_kg_bgp_filter_questions(ray_session):
    """FILTER regex keeps exactly the joined solutions whose text matches
    (pandas str.contains recount), counted per role."""
    from rayld.pipelines.graph import kg_bgp_filter_questions
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_bgp_filter_questions(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    x = df[df["pred"] == "http://schema.org/text"]
    r = df[df["pred"] == "https://rayld.dev/vocab#role"]
    j = x[["conv_id", "subj", "obj_value"]].merge(
        r[["conv_id", "subj", "obj_value"]].rename(
            columns={"obj_value": "role"}),
        on=["conv_id", "subj"],
    )
    j = j[j["obj_value"].str.contains(r"\?", regex=True)]
    want = j.groupby("role").size().to_dict()
    assert dict(zip(got["role"], got["n"])) == want and len(want) > 0
    # the filter is selective: strictly fewer matches than solutions
    assert sum(want.values()) < len(x)


def test_kg_ask(ray_session):
    """ASK flags equal the pandas existence recounts, and the fixture
    exercises BOTH truth values (unknown_pred false, the rest true)."""
    from rayld.pipelines.graph import kg_ask
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = dict(zip(*(lambda d: (d["ask"], d["flag"]))(
        kg_ask(triples, num_partitions=4).to_pandas())))

    df = triples.to_pandas()
    rat = df[df["pred"] == "http://schema.org/ratingValue"]
    import pandas as pd
    want = {
        "ask_high_rating": int(
            (pd.to_numeric(rat["obj_value"], errors="coerce") > 4.5).any()),
        "ask_tool_turns": int((
            (df["pred"] == "https://rayld.dev/vocab#role")
            & (df["obj_value"] == "tool")).any()),
        "ask_unknown_pred": 0,
        "ask_cross_conv_entity": int((
            df[df["pred"] == "http://schema.org/about"]
            .groupby("obj_value")["conv_id"].nunique() >= 2).any()),
    }
    assert got == want
    assert got["ask_unknown_pred"] == 0 and got["ask_tool_turns"] == 1


def test_kg_describe_top_entity(ray_session):
    """DESCRIBE returns every triple touching the argmax-mention entity
    (subject or IRI object), with the oracle's tie-break rule."""
    from rayld.pipelines.graph import kg_describe_top_entity
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_describe_top_entity(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    a = df[df["pred"] == "http://schema.org/about"]
    counts = a.groupby("obj_value").size().reset_index(name="n")
    counts = counts.sort_values(["n", "obj_value"],
                                ascending=[False, True], kind="mergesort")
    e = counts["obj_value"].iloc[0]
    want = df[(df["subj"] == e)
              | ((df["obj_kind"] == "IRI") & (df["obj_value"] == e))]
    assert len(got) == len(want) > 0
    assert set(zip(got["subj"], got["pred"], got["obj_value"])) == set(
        zip(want["subj"], want["pred"], want["obj_value"]))
    # nulls coalesce to '' (the oracle's comparison contract)
    assert got["obj_datatype"].notna().all()
    assert got["obj_lang"].notna().all()


def test_hits_matches_reference(ray_session):
    """Distributed HITS equals single-process numpy HITS bit-near
    (<1e-9), vectors L2-normalized, on the real KG edge list."""
    import numpy as np

    from rayld.pipelines.graph import hits, hits_reference, triples_to_edges
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30))
    edges = triples_to_edges(triples).materialize()
    got = hits(edges, n_iter=4, num_partitions=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    want = hits_reference(edges.to_pandas(), n_iter=4) \
        .sort_values("node").reset_index(drop=True)
    assert list(got["node"]) == list(want["node"]) and len(got) > 0
    assert np.abs(got["hub"] - want["hub"]).max() < 1e-9
    assert np.abs(got["authority"] - want["authority"]).max() < 1e-9
    assert abs(np.linalg.norm(got["hub"]) - 1.0) < 1e-9
    assert abs(np.linalg.norm(got["authority"]) - 1.0) < 1e-9
    # the graph is genuinely bipartite-ish: hubs and authorities differ
    assert np.abs(got["hub"] - got["authority"]).max() > 1e-6


def test_personalized_pagerank_matches_reference(ray_session):
    """Distributed PPR equals single-process numpy PPR bit-near (<1e-9)
    on the real KG edge list with the shared deterministic seed rule;
    mass conserves and genuinely concentrates on the seeds."""
    import numpy as np

    from rayld.pipelines.graph import (
        default_ppr_seeds, personalized_pagerank, ppr_reference,
        triples_to_edges,
    )
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(30))
    edges = triples_to_edges(triples).materialize()
    edges_df = edges.to_pandas()
    seeds = default_ppr_seeds(edges_df)
    assert len(seeds) == 5 and all("/entity/" in s for s in seeds)
    got = personalized_pagerank(
        edges, seeds, n_iter=4, num_partitions=4
    ).to_pandas().sort_values("node").reset_index(drop=True)
    want = ppr_reference(edges_df, seeds, n_iter=4) \
        .sort_values("node").reset_index(drop=True)
    assert list(got["node"]) == list(want["node"]) and len(got) > 0
    assert np.abs(got["rank"] - want["rank"]).max() < 1e-9
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    seed_mass = float(got[got["node"].isin(seeds)]["rank"].sum())
    assert seed_mass > len(seeds) / len(got)
    # personalization differs from the uniform-teleport ranking
    from rayld.pipelines.graph import pagerank_reference

    uni = pagerank_reference(edges_df, n_iter=4) \
        .sort_values("node").reset_index(drop=True)
    assert np.abs(got["rank"] - uni["rank"]).max() > 1e-6


def test_kg_bgp_values(ray_session):
    """VALUES joins inline data to the mention pattern: counts equal the
    pandas recount, and the no-solution VALUES row produces nothing."""
    from rayld.pipelines.graph import _DEFAULT_VALUES_ENTITIES, kg_bgp_values
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_bgp_values(triples).to_pandas()

    df = triples.to_pandas()
    a = df[(df["pred"] == "http://schema.org/about")
           & df["obj_value"].isin(_DEFAULT_VALUES_ENTITIES)]
    want = a.groupby("obj_value").size().to_dict()
    assert dict(zip(got["e"], got["n"])) == want and len(want) > 0
    assert "https://rayld.dev/entity/org/nonexistent_org" not in set(
        got["e"])


def test_kg_graph_clause(ray_session):
    """GRAPH-clause kinds carry exact quad counts and exact distinct
    graph-name counts (pandas recount), incl. the @error quarantine."""
    from rayld.pipelines.graph import kg_graph_clause
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(
        transcripts_dataset(40), max_turns=3,
    ).materialize()
    got = kg_graph_clause(triples).to_pandas()

    df = triples.to_pandas()
    kind = df["graph"].map(
        lambda g: "default" if g == "@default"
        else ("error" if g == "@error" else "named"))
    want = df.assign(k=kind).groupby("k").agg(
        n_quads=("graph", "size"), n_graphs=("graph", "nunique"))
    m = {r.g_kind: (int(r.n_quads), int(r.n_graphs))
         for r in got.itertuples()}
    assert m == {k: (int(v.n_quads), int(v.n_graphs))
                 for k, v in want.iterrows()}
    assert "default" in m and m["default"][1] == 1
    # the turn cap quarantines long conversations into @error here, so
    # the error kind is exercised too
    assert "error" in m


def test_kg_entity_components(ray_session):
    """Entity co-mention components equal a union-find recount: every
    co-mentioned entity labeled with its component's lexicographic min."""
    from rayld.pipelines.graph import kg_entity_components
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_entity_components(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    a = df[df["pred"] == "http://schema.org/about"]
    p = a.merge(a, on=["conv_id", "subj"])
    edges = {(x, y) for x, y in zip(p["obj_value_x"], p["obj_value_y"])
             if x < y}
    parent = {}

    def find(u):
        parent.setdefault(u, u)
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    want = {u: find(u) for u in parent}
    assert dict(zip(got["e"], got["comp"])) == want and len(want) > 0
    # non-trivial structure: more than one component, at least one
    # component with >= 3 members
    import pandas as pd
    sizes = pd.Series(list(want.values())).value_counts()
    assert len(sizes) >= 2 and sizes.iloc[0] >= 3


def test_media_spectral_peak(ray_session):
    """The batched-FFT dominant bin equals the synthesized tone's exact
    bin N/period for every clip (numpy per-clip recount), in Hz too."""
    import numpy as np
    import pyarrow.parquet as pq

    from rayld.pipelines.multimodal import (
        _SINE_PERIODS, _WAV_N, _WAV_RATE, media_spectral_peak,
    )

    got = media_spectral_peak(SF, concurrency=2).to_pandas()
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_pylist()
    assert len(got) == len(ids) > 0
    for mid, n, k, f in zip(got["media_id"], got["n_samples"],
                            got["peak_bin"], got["peak_freq_milli_hz"]):
        p = _SINE_PERIODS[mid % 4]
        assert n == _WAV_N and k == _WAV_N // p
        assert f == _WAV_RATE * 1000 * k // _WAV_N
    # all four periods appear
    assert set(got["peak_bin"]) == {_WAV_N // p for p in _SINE_PERIODS}


def test_spectral_peak_quarantines_malformed(ray_session):
    """A non-RIFF payload routes to the decode_error side, not a crash."""
    import pyarrow as pa

    from rayld.pipelines.multimodal import SpectralPeakExtractor

    out = SpectralPeakExtractor()(pa.table({
        "media_id": pa.array([7], pa.int64()),
        "payload": pa.array([b"not a wav"], pa.binary()),
        "media_type": pa.array(["audio/wav"], pa.string()),
    })).to_pandas()
    assert len(out) == 1 and out["decode_error"][0] != ""


def test_dedup_exact_keep_best(ray_session):
    """Quality-aware survivor selection: over a planted corpus of raw
    variants sharing one normalized key, the survivor is the copy with
    the highest raw quality (tie -> min doc_id) — recounted via the same
    quality_cols contract."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayld.pipelines.dedup import _WS_RE, dedup_exact_keep_best
    from rayld.pipelines.text import quality_cols

    # three normalized-equal variants with DIFFERENT raw quality (extra
    # whitespace raises n_chars -> same punct count -> higher punct_ratio
    # denominator... quality differs), plus an unrelated singleton and an
    # exact-duplicate pair (quality tie -> min doc_id)
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 10, 20, 21],
        "text": [
            "the cat sat on the mat, it is a fine day!",
            "The   cat  sat   on the mat,   it is a fine day!",
            "THE CAT SAT ON THE MAT, IT IS A FINE DAY!",
            "a completely different document with words",
            "twin text with the same bytes in it",
            "twin text with the same bytes in it",
        ],
    })
    tmp = f"/tmp/rayld_keepbest_{os.getpid()}"
    os.makedirs(tmp, exist_ok=True)
    pq.write_table(pa.Table.from_pandas(docs), f"{tmp}/documents.parquet")

    got = dedup_exact_keep_best(tmp, num_partitions=4).to_pandas()

    _, score = quality_cols(docs["text"])
    q6 = (score * 1e6).round().astype("int64")
    key = docs["text"].map(lambda t: _WS_RE.sub(" ", t.lower()).strip(" "))
    ref = pd.DataFrame({"doc_id": docs["doc_id"], "h": key, "q6": q6})
    ref = ref.sort_values(["h", "q6", "doc_id"],
                          ascending=[True, False, True])
    want = ref.groupby("h").first()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    assert dict(zip(got["doc_id"], got["quality_micro"])) == dict(
        zip(want["doc_id"], want["q6"]))
    # the quality path genuinely decided the variant group (the three
    # variants have at least two distinct scores), and the tie path
    # picked the lower twin id
    assert ref[ref["doc_id"].isin([1, 2, 3])]["q6"].nunique() >= 2
    assert 20 in set(got["doc_id"]) and 21 not in set(got["doc_id"])


def test_kg_sample_neighborhood(ray_session):
    """The two-hop md5-ranked sample equals a pandas recount: per
    frontier node exactly min(fanout, degree) neighbors, ranked by
    md5(src|dst); hop-2 frontier = hop-1 dsts minus seeds."""
    import hashlib

    from rayld.pipelines.graph import kg_sample_neighborhood
    from rayld.pipelines.kg import build_triples
    from rayld.sources.transcripts import transcripts_dataset

    triples = build_triples(transcripts_dataset(40)).materialize()
    got = kg_sample_neighborhood(triples, num_partitions=4).to_pandas()

    df = triples.to_pandas()
    a = df[df["pred"] == "http://schema.org/about"]
    p = a.merge(a, on=["conv_id", "subj"])
    ed = {(x, y) for x, y in zip(p["obj_value_x"], p["obj_value_y"])
          if x != y}
    cnts = a.groupby("obj_value").size().reset_index(name="n")
    cnts = cnts.sort_values(["n", "obj_value"], ascending=[False, True],
                            kind="mergesort")
    seeds = list(cnts["obj_value"].iloc[:3])

    def pick(frontier, hop):
        out = []
        for u in frontier:
            nb = sorted(
                (hashlib.md5(f"{u}|{v}".encode()).hexdigest(), v)
                for x, v in ed if x == u
            )[:4]
            out += [(hop, u, v) for _, v in nb]
        return out

    w1 = pick(seeds, 1)
    f2 = sorted({d for _, _, d in w1} - set(seeds))
    want = w1 + pick(f2, 2)
    assert sorted(zip(got["hop"], got["src"], got["dst"])) == sorted(want)
    assert len(want) > 12  # hop 2 genuinely expands
    # every sampled src at hop 1 is a seed; hop-2 srcs are not
    h = got[got["hop"] == 1]
    assert set(h["src"]) == set(seeds)
    assert set(got[got["hop"] == 2]["src"]).isdisjoint(seeds)


def test_user_spend_percent_rank(ray_session):
    """PERCENT_RANK equals the numpy recount ((rank-1)/(N-1), micro
    units): min value -> 0, max (untied) -> 1e6, ties share a value."""
    import numpy as np

    from rayld.pipelines.relational import user_spend_percent_rank

    got = user_spend_percent_rank(SF).to_pandas()
    spend_c = (got["spend"] * 100).round().astype("int64").to_numpy()
    order = np.sort(spend_c)
    n = len(spend_c)
    left = np.searchsorted(order, spend_c, side="left")
    want = np.floor(left / (n - 1) * 1e6 + 0.5).astype("int64")
    assert (got["pct_rank_micro"].to_numpy() == want).all() and n > 1
    assert got["pct_rank_micro"].min() == 0
    assert got["pct_rank_micro"].max() == 1_000_000


def test_user_value_ewma(ray_session):
    """Bounded-horizon EWMA equals a per-user pandas recount with binary
    weights over the last 8 lags (renormalized for short prefixes)."""
    import numpy as np
    import pyarrow.parquet as pq

    from rayld.pipelines.relational import user_value_ewma

    got = user_value_ewma(SF, num_partitions=4).to_pandas()
    ev = pq.read_table(
        f"{SF}/events.parquet",
        columns=["event_id", "ts", "user_id", "value"],
    ).to_pandas().sort_values(["user_id", "ts", "event_id"],
                              kind="mergesort")
    vc = np.floor(ev["value"].to_numpy() * 100 + 0.5).astype("int64")
    want = {}
    hist: dict = {}
    for eid, uid, v in zip(ev["event_id"], ev["user_id"], vc):
        h = hist.setdefault(uid, [])
        h.append(int(v))
        lags = h[-8:][::-1]  # most recent first
        num = sum((1 << (7 - k)) * x for k, x in enumerate(lags))
        den = sum((1 << (7 - k)) for k in range(len(lags)))
        want[eid] = num * 1000 // den
    assert dict(zip(got["event_id"], got["ewma_milli_cents"])) == want
    assert len(want) > 0


def test_source_overlap_matrix(ray_session):
    """Cross-source overlap counts equal a pandas recount; exact-text
    sharing is a subset of prefix sharing by construction."""
    import hashlib
    from itertools import combinations

    import pandas as pd
    import pyarrow.parquet as pq

    from rayld.pipelines.dedup import source_overlap_matrix

    got = source_overlap_matrix(SF, num_partitions=4).to_pandas()
    docs = pq.read_table(
        f"{SF}/documents.parquet", columns=["text", "source"]
    ).to_pandas()

    def pair_counts(keys):
        g = pd.DataFrame({"h": keys, "source": docs["source"]}) \
            .drop_duplicates()
        out: dict = {}
        for _h, grp in g.groupby("h"):
            for a, b in combinations(sorted(set(grp["source"])), 2):
                out[(a, b)] = out.get((a, b), 0) + 1
        return out

    wp = pair_counts([hashlib.md5(t[:40].encode()).hexdigest()
                      for t in docs["text"]])
    wt = pair_counts([hashlib.md5(t.encode()).hexdigest()
                      for t in docs["text"]])
    m = {(a, b): (int(np_), int(nt_)) for a, b, np_, nt_ in zip(
        got["source_a"], got["source_b"],
        got["n_shared_prefixes"], got["n_shared_texts"])}
    assert m == {k: (v, wt.get(k, 0)) for k, v in wp.items()}
    assert len(m) > 0
    assert all(nt <= np_ for np_, nt in m.values())
