"""Stage-level tests: textops, dedup, similarity, multimodal, stats."""

import numpy as np
import pyarrow as pa
import pytest

from zparse_ray.stages.dedup import (
    MinHasher,
    SimHasher,
    content_hash_batch,
    jaccard,
    shingles,
)
from zparse_ray.stages.multimodal import MediaFeatureExtractor, media_spans_of
from zparse_ray.stages.similarity import TopKScorer, _to_matrix, merge_topk
from zparse_ray.stages.stats import (
    column_stats_partial,
    merge_column_stats,
)
from zparse_ray.stages.textops import (
    BpeishTokenCounter,
    LangId,
    QualityScorer,
    fingerprint_batch,
    token_count_batch,
)


def _doc_batch(texts, ids=None):
    return pa.table(
        {
            "doc_id": pa.array(ids or list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )


# -- textops ---------------------------------------------------------------

def test_token_count():
    out = token_count_batch(_doc_batch(["a b  c", "", "  x "]))
    assert out["n_tokens"].to_pylist() == [3, 0, 1]


def test_bpeish_tokens():
    c = BpeishTokenCounter()
    out = c(_doc_batch(["hello, world! it's 42"]))
    # hello , world ! it's 42
    assert out["n_bpeish_tokens"].to_pylist() == [6]


def test_quality_scorer_ranges():
    q = QualityScorer()
    out = q(_doc_batch(["the cat and the dog sat on the mat with a hat", "!!!???"]))
    scores = out["quality_score"].to_pylist()
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] > scores[1]  # stopword-rich prose beats punctuation soup
    assert out["stop_ratio"].to_pylist()[0] > 0.3


def test_lang_id():
    li = LangId()
    out = li(
        _doc_batch(
            [
                "the cat and the dog in the house",
                "der Hund und die Katze ist nicht hier",
                "le chat et le chien est pour la vie",
                "xyzzy plugh",
            ]
        )
    )
    assert out["predicted_lang"].to_pylist() == ["en", "de", "fr", "unknown"]


def test_fingerprint_deterministic():
    b = _doc_batch(["some longish text that will be winnowed into grams"] * 2)
    out1, out2 = fingerprint_batch(b), fingerprint_batch(b)
    assert out1["fingerprint"].to_pylist() == out2["fingerprint"].to_pylist()
    assert out1["content_hash"].to_pylist()[0] == out1["content_hash"].to_pylist()[1]


# -- dedup -----------------------------------------------------------------

def test_content_hash_normalizes():
    out = content_hash_batch(_doc_batch(["  Hello World ", "hello world"]))
    h = out["content_hash"].to_pylist()
    assert h[0] == h[1]


def test_shingles_and_jaccard():
    a = shingles("the quick brown fox jumps over the lazy dog", 3)
    b = shingles("the quick brown fox leaps over the lazy dog", 3)
    assert 0.3 < jaccard(a, b) < 0.9
    assert jaccard(a, a) == 1.0
    assert jaccard(set(), set()) == 1.0


def test_minhash_similar_docs_collide():
    mh = MinHasher(n_perm=64, n_bands=16)
    t1 = "the quick brown fox jumps over the lazy dog again and again every day"
    t2 = "the quick brown fox jumps over the lazy dog again and again every night"
    t3 = "completely different content about data pipelines and arrow batches"
    out = mh(_doc_batch([t1, t2, t3]))
    df = out.to_pandas()
    collisions = df.groupby(["band_id", "band_hash"])["doc_id"].apply(set)
    joint = [s for s in collisions if len(s) > 1]
    assert any({0, 1} == s for s in joint)
    assert not any(2 in s and len(s) > 1 for s in joint)


def test_simhash_close_for_similar():
    sh = SimHasher()
    a = sh.simhash("the quick brown fox jumps over the lazy dog")
    b = sh.simhash("the quick brown fox jumps over the lazy cat")
    c = sh.simhash("totally unrelated words about spark and ray")
    assert bin(a ^ b).count("1") < bin(a ^ c).count("1")


# -- similarity ------------------------------------------------------------

def _emb_batch(n, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([list(r) for r in m.astype(np.float32)], pa.list_(pa.float32())),
        }
    ), m


def test_topk_scorer_exact():
    batch, m = _emb_batch(100)
    q = m[7]
    scorer = TopKScorer(np.asarray(q), k=5)
    out = scorer(batch).to_pylist()
    top = merge_topk(out, 5)
    assert top[0]["vec_id"] == 7  # self is most similar
    assert abs(top[0]["cosine_sim"] - 1.0) < 1e-9
    # brute-force check of the rest
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = mn @ (q / np.linalg.norm(q))
    expect = set(np.argsort(-sims)[:5].tolist())
    assert {r["vec_id"] for r in top} == expect


def test_to_matrix_shape():
    batch, m = _emb_batch(10, dim=4)
    mm = _to_matrix(batch["embedding"])
    assert mm.shape == (10, 4)
    assert np.allclose(mm, m.astype(np.float32), atol=1e-6)


# -- multimodal ------------------------------------------------------------

def test_media_projection():
    spans_type = pa.list_(
        pa.struct(
            [("kind", pa.string()), ("text", pa.string()), ("media_ref", pa.string()), ("offset", pa.int32())]
        )
    )
    batch = pa.table(
        {
            "doc_id": pa.array(["d1"]),
            "spans": pa.array(
                [
                    [
                        {"kind": "text", "text": "x", "media_ref": "", "offset": 0},
                        {"kind": "image", "text": "cap", "media_ref": "asset-1", "offset": 2},
                        {"kind": "audio", "text": "", "media_ref": "asset-2", "offset": 6},
                    ]
                ],
                spans_type,
            ),
        }
    )
    out = media_spans_of(batch)
    assert out["asset_id"].to_pylist() == ["asset-1", "asset-2"]
    assert out["kind"].to_pylist() == ["image", "audio"]


def test_media_extractor_stub_raises():
    ex = MediaFeatureExtractor(decoder=None)
    b = pa.table({"asset_id": pa.array(["a"]), "kind": pa.array(["image"])})
    with pytest.raises(NotImplementedError):
        ex(b)


def test_media_extractor_fake_deterministic():
    ex = MediaFeatureExtractor(decoder="fake", feat_dim=16)
    b = pa.table({"asset_id": pa.array(["a", "b"]), "kind": pa.array(["image", "audio"])})
    o1, o2 = ex(b), ex(b)
    assert o1.equals(o2)
    assert o1["n_frames"].to_pylist()[1] >= 1
    f = np.array(o1["feature"].to_pylist()[0])
    assert abs(np.linalg.norm(f) - 1.0) < 1e-5


# -- stats partials --------------------------------------------------------

def test_column_stats_partial_merge():
    b1 = pa.table({"x": pa.array([1.0, 2.0, None])})
    b2 = pa.table({"x": pa.array([10.0, None, None])})
    m = merge_column_stats(column_stats_partial(b1, ["x"]), column_stats_partial(b2, ["x"]))
    assert m["x"]["count"] == 6
    assert m["x"]["nulls"] == 3
    assert m["x"]["min"] == 1.0
    assert m["x"]["max"] == 10.0
    assert m["x"]["sum"] == 13.0


# -- hot-bucket cap --------------------------------------------------------

def test_cosine_neardup_hot_bucket_capped():
    # a degenerate LSH bucket of identical vectors must be truncated at
    # the cap so pair emission stays O(cap^2), not O(n^2)
    import pandas as pd

    from zparse_ray.stages.similarity import cosine_neardup_pairs

    n, cap = 2000, 64
    g = pd.DataFrame(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": [np.ones(8) for _ in range(n)],
        }
    )
    out = cosine_neardup_pairs(g, threshold=0.9, cap=cap)
    assert len(out) == cap * (cap - 1) // 2
    assert out["a"].max() < cap and out["b"].max() < cap  # deterministic: lowest ids kept


# -- exact distributed quantiles -------------------------------------------

def test_exact_quantiles_match_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from zparse_ray.stages.stats import exact_quantiles

    rng = np.random.default_rng(3)
    # lognormal + heavy duplicate mass to stress both tails and ties
    vals = np.concatenate(
        [rng.lognormal(3, 1.5, 20_000), np.full(5_000, 42.0), rng.integers(0, 50, 5_000)]
    ).astype(np.float64)
    qs = [0.01, 0.1, 0.5, 0.9, 0.99]
    ds = rd.from_arrow(pa.table({"x": vals}))
    # max_collect=100 forces several histogram refinement levels
    got = exact_quantiles(ds, "x", qs, n_bins=32, max_collect=100)
    con = duckdb.connect()
    con.register("t", pa.table({"x": vals}))
    expect = con.execute(f"SELECT quantile_disc(x, {qs}) FROM t").fetchone()[0]
    for q, e in zip(qs, expect):
        assert got[q] == e, (q, got[q], e)


# -- persisted IVF index ---------------------------------------------------

def test_ivf_persisted_probe_reads_subset(ray_session, tmp_path):
    import ray.data as rd

    from zparse_ray.stages.similarity import (
        build_ivf_index,
        ivf_probe_paths,
        ivf_topk_persisted,
    )

    rng = np.random.default_rng(5)
    n, dim = 4000, 16
    emb = rng.standard_normal((n, dim))
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(t)
    idx_dir = str(tmp_path / "ivf")
    build_ivf_index(ds, idx_dir, n_list=8, seed=1)
    q = emb[7]
    paths = ivf_probe_paths(idx_dir, q, n_probe=2)
    import glob
    total = glob.glob(idx_dir + "/ivf_list=*")
    assert 0 < len(paths) < len(total)  # strict subset of the index files

    top = ivf_topk_persisted(idx_dir, q, n_probe=2, k=5)
    assert len(top) == 5
    assert top[0][0] == 7  # the vector itself is its own nearest neighbor
    # probing more lists can only improve similarity of the kth result
    top_all = ivf_topk_persisted(idx_dir, q, n_probe=8, k=5)
    assert top_all[-1][1] >= top[-1][1] - 1e-12


def test_ivf_centroid_sample_unbiased_on_sorted_corpus(ray_session, tmp_path):
    """Centroid training must sample UNIFORMLY (VERDICT r4 item 3): on
    a corpus sorted/sharded by cluster, a block-prefix sample
    (`ds.limit`) trains every centroid on the first cluster and
    assignment collapses; the hash sample must keep the per-list
    assignment counts balanced within 2x of each other."""
    import ray.data as rd

    from zparse_ray.stages.similarity import IvfIndex, build_ivf_index

    rng = np.random.default_rng(9)
    n_per, dim, n_clusters = 600, 16, 4
    centers = rng.standard_normal((n_clusters, dim)) * 6
    # SORTED by cluster: cluster 0 fills the first blocks entirely
    emb = np.concatenate(
        [centers[c] + 0.05 * rng.standard_normal((n_per, dim)) for c in range(n_clusters)]
    )
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(emb)), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float64())),
        }
    )
    ds = rd.from_arrow(t).repartition(8)
    idx_dir = str(tmp_path / "ivf_sorted")
    build_ivf_index(ds, idx_dir, n_list=n_clusters, sample_size=256, seed=3)

    # biased reference: the old block-prefix sample really is degenerate
    # on this layout (all training rows from cluster 0)
    prefix = np.stack(
        [np.asarray(r["embedding"]) for r in ds.limit(256).take_all()]
    )
    biased = IvfIndex.train(prefix, n_list=n_clusters, seed=3)
    mn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    biased_counts = np.bincount(
        (mn @ biased.centroids.T).argmax(axis=1), minlength=n_clusters
    )
    assert biased_counts.max() > 2 * max(1, biased_counts[biased_counts > 0].min()) or (
        (biased_counts > 0).sum() < n_clusters
    )

    import glob as _glob

    counts = []
    for d in sorted(_glob.glob(idx_dir + "/ivf_list=*")):
        files = _glob.glob(d + "/*.parquet")
        counts.append(sum(_pq_meta_rows(f) for f in files))
    counts = [c for c in counts if c > 0]
    assert len(counts) == n_clusters  # every true cluster got a centroid
    assert max(counts) <= 2 * min(counts), counts


def _pq_meta_rows(path):
    import pyarrow.parquet as pq

    return pq.ParquetFile(path).metadata.num_rows


def test_ivf_train_fewer_directions_than_lists():
    """k-means++ seeding on a sample with fewer distinct directions than
    n_list: once no residual distance mass is left, seeding stops with
    the seeds found so far instead of raising."""
    from zparse_ray.stages.similarity import IvfIndex

    v = np.random.default_rng(0).standard_normal(8)
    IvfIndex.train(np.tile(v, (40, 1)), n_list=16)
    axis = np.eye(8)[0]
    idx = IvfIndex.train(np.tile(axis, (40, 1)), n_list=16)
    assert np.allclose(idx.centroids, axis)


# -- simhash hamming-<=k band search ---------------------------------------

def test_simhash_band_search_finds_close_fingerprints():
    import pandas as pd

    from zparse_ray.stages.dedup import simhash_band_explode, simhash_candidate_pairs

    base = 0xDEADBEEFCAFEBABE
    flip = lambda v, *bits: v ^ sum(1 << b for b in bits)
    sims = np.array(
        [base, flip(base, 3), flip(base, 3, 17, 40), flip(base, 1, 9, 22, 33, 47), 0x42],
        dtype=np.uint64,
    ).astype(np.int64)
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()), "simhash": pa.array(sims, pa.int64())})
    exploded = simhash_band_explode(t).to_pandas()
    pairs = {}
    for _, g in exploded.groupby(["band_id", "band_bits"]):
        for r in simhash_candidate_pairs(g).to_dict("records"):
            pairs[(r["a"], r["b"])] = r["hamming"]
    # hamming(0,1)=1, hamming(0,2)=3, hamming(1,2)=2 — all <=3, all found
    assert pairs[(0, 1)] == 1 and pairs[(0, 2)] == 3 and pairs[(1, 2)] == 2
    # doc 3 (hamming 5 from base) and doc 4 (far) never pair with 0
    assert (0, 3) not in pairs and (0, 4) not in pairs


def test_simhash_pigeonhole_recall_guarantee():
    """Property: ANY two 64-bit fingerprints with hamming distance <= 3
    land in the same (band_id, band_bits) bucket for at least one of
    the 4 16-bit bands (pigeonhole: 3 flipped bits cannot dirty 4
    bands), so the banded search has 100% recall at hamming<=3 — this
    is the theorem the driver query simhash_neardup relies on."""
    import itertools

    import pandas as pd

    from zparse_ray.stages.dedup import simhash_band_explode, simhash_candidate_pairs

    rng = np.random.default_rng(0x51A4)
    bases = rng.integers(0, 2**63, 40, dtype=np.int64)
    mutants, truth = [], []
    for i, b in enumerate(bases):
        nbits = int(rng.integers(0, 4))  # 0..3 flips — all must be recalled
        bits = rng.choice(64, size=nbits, replace=False)
        m = np.int64(np.uint64(b) ^ np.bitwise_xor.reduce(
            np.uint64(1) << bits.astype(np.uint64)) if nbits else np.uint64(b))
        mutants.append(m)
        truth.append((i, i + 1000))
    t = pa.table(
        {
            "doc_id": pa.array(
                list(range(40)) + [i + 1000 for i in range(40)], pa.int64()
            ),
            "simhash": pa.array(np.concatenate([bases, np.array(mutants)]), pa.int64()),
        }
    )
    exploded = simhash_band_explode(t).to_pandas()
    found = set()
    for _, g in exploded.groupby(["band_id", "band_bits"]):
        for r in simhash_candidate_pairs(g).to_dict("records"):
            if r["a"] >= 0:
                found.add((r["a"], r["b"]))
    missing = [p for p in truth if p not in found]
    assert not missing, f"pigeonhole recall violated: {missing}"


def test_minhash_lsh_pipeline_recalls_planted_neardups():
    """End-to-end recall over the exact prep the driver query
    minhash_lsh_neardup uses: a corpus where the first K docs get a
    word-drop mutant planted (same mutation rule as _augmented_docs).
    Every planted pair whose EXACT shingle Jaccard is >= 0.8 must
    surface as an LSH candidate (16 bands x 8 rows at j>=0.8 has a
    miss probability < 1e-6 per pair, and the permutations are
    fixed-seed, so this is deterministic, not flaky)."""
    import pandas as pd

    from zparse_ray.stages.dedup import (
        MinHasher,
        jaccard,
        lsh_candidate_pairs,
        shingles,
    )

    rng = np.random.default_rng(0xFACE)
    vocab = [f"w{i}" for i in range(500)]
    # a 1-word drop from an n-token doc keeps ~ (n-9)/n of the 5-token
    # shingle set, so j >= 0.8 needs n >= ~45 tokens — use 60..120
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(60, 120))))
        for _ in range(120)
    ]
    k_planted = 25
    mutants = []
    for t in texts[:k_planted]:
        words = t.split()
        del words[len(words) // 2]  # the _augmented_docs mutation rule
        mutants.append(" ".join(words))
    all_texts = texts + mutants
    ids = list(range(120)) + [i + 1_000_000 for i in range(k_planted)]
    truth = [
        (i, i + 1_000_000)
        for i in range(k_planted)
        if jaccard(shingles(texts[i]), shingles(mutants[i])) >= 0.8
    ]
    assert len(truth) >= 10  # the corpus must actually plant real near-dups
    batch = pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "text": pa.array(all_texts, pa.string())}
    )
    bands = MinHasher()(batch).to_pandas()
    found = set()
    for _, g in bands.groupby(["band_id", "band_hash"]):
        for r in lsh_candidate_pairs(g).to_dict("records"):
            if r["a"] >= 0:
                found.add((int(r["a"]), int(r["b"])))
    missing = [p for p in truth if p not in found]
    assert not missing, f"LSH missed planted near-dups: {missing}"


# -- bucketed shuffle join ---------------------------------------------------

def test_bucketed_shuffle_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_shuffle_join

    rng = np.random.default_rng(8)
    left = pd.DataFrame(
        {"k": rng.integers(0, 50, 300), "lv": rng.standard_normal(300)}
    )
    right = pd.DataFrame(
        {"rk": rng.integers(0, 60, 400), "rv": rng.integers(0, 9, 400)}
    )
    out = bucketed_shuffle_join(
        rd.from_pandas(left), rd.from_pandas(right), left_on="k", right_on="rk",
        n_buckets=8,
    )
    got = (
        pd.DataFrame(out.take_all())[["k", "lv", "rv"]]
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="k", right_on="rk")[["k", "lv", "rv"]]
        .sort_values(["k", "lv", "rv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_broadcast_lookup_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import broadcast_lookup_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame(
        {"k": rng.integers(0, 40, 300), "lv": rng.standard_normal(300)}
    )
    # unique-key dimension with a string value column (the shape the
    # dimension queries feed it) and some keys absent from the left side
    dim = pa.table(
        {
            "dk": pa.array(range(0, 60, 2), pa.int64()),
            "name": pa.array([f"n{i}" for i in range(0, 60, 2)], pa.string()),
        }
    )
    out = broadcast_lookup_join(rd.from_pandas(left), dim, left_on="k", right_on="dk")
    got = (
        pd.DataFrame(out.take_all())[["k", "lv", "name"]]
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(dim.to_pandas(), left_on="k", right_on="dk")[["k", "lv", "name"]]
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    import pytest

    with pytest.raises(ValueError):
        broadcast_lookup_join(
            rd.from_pandas(left),
            pa.table({"dk": pa.array([1, None], pa.int64()), "v": pa.array([1, 2])}),
            left_on="k",
            right_on="dk",
        )
    with pytest.raises(ValueError):  # duplicate dimension keys: loud, not silent
        broadcast_lookup_join(
            rd.from_pandas(left),
            pa.table({"dk": pa.array([1, 1], pa.int64()), "v": pa.array([1, 2])}),
            left_on="k",
            right_on="dk",
        )


def test_top_customers_shuffle_fallback_matches_broadcast(ray_session):
    from zparse_ray.pipelines.driver_queries import top_customers

    a = top_customers("/root/testdata/sf0.001")
    b = top_customers("/root/testdata/sf0.001", broadcast_limit=0)  # force shuffle path
    assert a.equals(b)


def test_exact_quantiles_edge_distributions(ray_session):
    import duckdb
    import ray.data as rd

    from zparse_ray.stages.stats import exact_quantiles

    rng = np.random.default_rng(11)
    cases = {
        "all_equal": np.full(5000, 7.25),
        "two_values": np.where(rng.random(5000) < 0.3, -1.5, 2.5),
        "negatives": -rng.lognormal(2, 1, 5000),
        "huge_range": np.concatenate([rng.random(2000) * 1e-9, rng.random(2000) * 1e12]),
        "tiny": np.array([3.0, 1.0, 2.0]),
        "single": np.array([42.0]),
        "integers_with_ties": rng.integers(0, 10, 5000).astype(np.float64),
    }
    qs = [0.01, 0.5, 0.99]
    con = duckdb.connect()
    for name, vals in cases.items():
        ds = rd.from_arrow(pa.table({"x": vals}))
        got = exact_quantiles(ds, "x", qs, n_bins=16, max_collect=50)
        con.execute("DROP VIEW IF EXISTS t")
        con.register("tt", pa.table({"x": vals}))
        expect = con.execute(f"SELECT quantile_disc(x, {qs}) FROM tt").fetchone()[0]
        con.unregister("tt")
        for q, e in zip(qs, expect):
            assert got[q] == e, (name, q, got[q], e)


def test_split_assignment_deterministic_and_balanced():
    from zparse_ray.stages.textops import split_assign_batch

    ids = np.arange(100_000, dtype=np.int64)
    b = pa.table({"doc_id": pa.array(ids)})
    s1 = split_assign_batch(b)["split"].to_pylist()
    s2 = split_assign_batch(b)["split"].to_pylist()
    assert s1 == s2  # pure function of the id
    frac = s1.count("eval") / len(s1)
    assert 0.03 < frac < 0.07  # ~5% with multiplicative-hash mixing
    # order independence: shuffled input assigns identically per id
    perm = np.random.default_rng(0).permutation(len(ids))
    s3 = split_assign_batch(pa.table({"doc_id": pa.array(ids[perm])}))["split"].to_pylist()
    assert all(s3[i] == s1[perm[i]] for i in range(0, len(ids), 997))


def test_range_count_join_matches_bruteforce(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import range_count_join

    rng = np.random.default_rng(13)
    W = 1000  # interval width in "us"
    starts = rng.integers(0, 20_000, 300)
    groups = (starts % 7).astype(str)
    pts = rng.integers(0, 21_000, 5000)
    intervals = rd.from_arrow(pa.table({
        "s": pa.array(starts, pa.int64()), "g": pa.array(groups, pa.string()),
    }))
    points = rd.from_arrow(pa.table({"t": pa.array(pts, pa.int64())}))
    out = range_count_join(
        intervals, points, start_col="s", ts_col="t", group_col="g", width_us=W
    )
    got = {r["group"]: r["n_hits"] for r in out.take_all()}
    want: dict[str, int] = {}
    spts = np.sort(pts)
    for s, g in zip(starts, groups):
        c = int(np.searchsorted(spts, s + W) - np.searchsorted(spts, s))
        if c:
            want[g] = want.get(g, 0) + c
    assert got == want


def test_grouped_exact_ranks_match_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from zparse_ray.stages.stats import grouped_exact_ranks

    rng = np.random.default_rng(7)
    # three skewed groups: lognormal, heavy ties, integer lattice
    gs = np.repeat(["a", "b", "c"], [12_000, 6_000, 3_000])
    vals = np.concatenate(
        [
            rng.lognormal(3, 1.5, 12_000),
            np.where(rng.random(6_000) < 0.5, 42.0, rng.integers(0, 20, 6_000)),
            rng.integers(-50, 50, 3_000).astype(np.float64),
        ]
    )
    ds = rd.from_arrow(pa.table({"g": gs, "x": vals}))
    import math

    qs = [0.1, 0.5, 0.9]
    # max_collect=100 forces several shared narrowing passes per group
    values, group_n = grouped_exact_ranks(
        ds,
        "x",
        "g",
        lambda n: sorted({max(0, math.ceil(q * n) - 1) for q in qs}),
        n_bins=32,
        max_collect=100,
    )
    con = duckdb.connect()
    con.register("t", pa.table({"g": gs, "x": vals}))
    rows = con.execute(
        f"SELECT g, quantile_disc(x, {qs}) FROM t GROUP BY g"
    ).fetchall()
    assert set(group_n) == {"a", "b", "c"}
    for g, expect in rows:
        n = group_n[g]
        for q, e in zip(qs, expect):
            rank = max(0, math.ceil(q * n) - 1)
            assert values[(g, rank)] == e, (g, q, values[(g, rank)], e)


def test_grouped_exact_ranks_median_interpolation(ray_session):
    import ray.data as rd

    from zparse_ray.stages.stats import grouped_exact_ranks

    # even-count group needs two middle ranks (np.median interpolation)
    ds = rd.from_arrow(
        pa.table({"g": ["e"] * 4 + ["o"] * 3, "x": [1.0, 2.0, 10.0, 3.0, 5.0, 7.0, 6.0]})
    )
    values, group_n = grouped_exact_ranks(
        ds, "x", "g", lambda n: sorted({(n - 1) // 2, n // 2}), n_bins=8, max_collect=1
    )
    med_e = (values[("e", 1)] + values[("e", 2)]) / 2
    med_o = values[("o", 1)]
    assert med_e == 2.5 and med_o == 6.0


def test_bucketed_semi_mark_matches_isin(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_semi_mark

    rng = np.random.default_rng(11)
    left_keys = rng.integers(0, 500, 400)
    brands = rng.integers(0, 5, 400)
    right = rng.integers(250, 750, 2_000)  # half-overlapping, with dups
    lds = rd.from_arrow(
        pa.table({"k": pa.array(left_keys, pa.int64()), "b": pa.array(brands, pa.int64())})
    )
    kds = rd.from_arrow(pa.table({"rk": pa.array(right, pa.int64())}))
    out = bucketed_semi_mark(lds, kds, left_on="k", key_col="rk", n_buckets=8)
    df = pd.DataFrame(out.take_all()).sort_values(["k", "b"]).reset_index(drop=True)
    expect = pd.DataFrame({"k": left_keys, "b": brands})
    expect["__hit"] = np.isin(left_keys, right).astype(np.int64)
    expect = expect.sort_values(["k", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(df[["k", "b", "__hit"]], expect)


def test_part_semi_anti_shuffle_fallback_matches_broadcast(ray_session):
    import pandas as pd

    from zparse_ray.pipelines.driver_queries import part_semi_anti_join

    sf = "/root/testdata/sf0.001"
    bc = part_semi_anti_join(sf).to_pandas().sort_values("p_brand").reset_index(drop=True)
    sh = (
        part_semi_anti_join(sf, broadcast_limit=0)
        .to_pandas()
        .sort_values("p_brand")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(bc, sh)


def test_resolve_n_buckets_scales():
    from zparse_ray.stages.joins import resolve_n_buckets

    assert resolve_n_buckets(None) == 64
    assert resolve_n_buckets(1_000, None) == 64
    assert resolve_n_buckets(1_000_000_000, None) == 501
    assert resolve_n_buckets(10**13, None) == 4096  # capped
    assert resolve_n_buckets(10**13, 128) == 128  # explicit wins


def test_candidate_pair_caps_emit_truncation_markers():
    import pandas as pd

    from zparse_ray.stages.dedup import lsh_candidate_pairs, simhash_candidate_pairs

    g = pd.DataFrame({"doc_id": np.arange(100)})
    out = lsh_candidate_pairs(g)
    markers = out[out["a"] < 0]
    assert len(markers) == 1 and int(markers["n_dropped"].iloc[0]) == 36
    assert (out[out["a"] >= 0]["n_dropped"] == 0).all()
    # uncapped bucket: no marker
    small = lsh_candidate_pairs(pd.DataFrame({"doc_id": np.arange(10)}))
    assert (small["a"] >= 0).all() and (small["n_dropped"] == 0).all()

    g2 = pd.DataFrame({"doc_id": np.arange(70), "simhash": np.zeros(70, dtype=np.int64)})
    out2 = simhash_candidate_pairs(g2)
    m2 = out2[out2["a"] < 0]
    assert len(m2) == 1 and int(m2["n_dropped"].iloc[0]) == 6


def test_bucketed_asof_join_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_asof_join

    rng = np.random.default_rng(21)
    n_l, n_r = 600, 200
    left = pd.DataFrame(
        {
            "ts": rng.integers(0, 10_000, n_l).astype(np.int64),
            "user": rng.integers(0, 25, n_l).astype(np.int64),
            "val": rng.random(n_l),
        }
    )
    right = pd.DataFrame(
        {
            "ts": rng.integers(0, 10_000, n_r).astype(np.int64),
            "user": rng.integers(0, 25, n_r).astype(np.int64),
            "ref": rng.random(n_r),
        }
    )
    lds = rd.from_arrow(pa.Table.from_pandas(left, preserve_index=False))
    rds = rd.from_arrow(pa.Table.from_pandas(right, preserve_index=False))
    out = bucketed_asof_join(
        lds, rds, on="ts", by="user", right_cols=["ref"], n_buckets=8
    )
    got = (
        pd.DataFrame(out.take_all())
        .sort_values(["user", "ts", "val"])
        .reset_index(drop=True)[["ts", "user", "val", "ref"]]
        .astype({"ref": "float64"})
    )
    expect = pd.merge_asof(
        left.sort_values(["ts", "user"], kind="mergesort"),
        right.sort_values(["ts", "user"], kind="mergesort"),
        on="ts",
        by="user",
        allow_exact_matches=False,
        direction="backward",
    ).sort_values(["user", "ts", "val"]).reset_index(drop=True)[["ts", "user", "val", "ref"]]
    pd.testing.assert_frame_equal(got, expect)


def test_grouped_exact_ranks_edge_distributions(ray_session):
    import math

    import duckdb
    import ray.data as rd

    from zparse_ray.stages.stats import grouped_exact_ranks

    rng = np.random.default_rng(13)
    # one table, every edge shape as its own group, narrowing forced
    groups = {
        "all_equal": np.full(3000, 7.25),
        "two_values": np.where(rng.random(3000) < 0.3, -1.5, 2.5),
        "negatives": -rng.lognormal(2, 1, 3000),
        "huge_range": np.concatenate([rng.random(1500) * 1e-9, rng.random(1500) * 1e12]),
        "tiny": np.array([3.0, 1.0, 2.0]),
        "single": np.array([42.0]),
        "ties": rng.integers(0, 10, 3000).astype(np.float64),
    }
    g = np.concatenate([[k] * len(v) for k, v in groups.items()])
    x = np.concatenate(list(groups.values()))
    ds = rd.from_arrow(pa.table({"g": g, "x": x}))
    qs = [0.01, 0.5, 0.99]
    values, group_n = grouped_exact_ranks(
        ds,
        "x",
        "g",
        lambda n: sorted({max(0, math.ceil(q * n) - 1) for q in qs}),
        n_bins=16,
        max_collect=50,
    )
    con = duckdb.connect()
    con.register("tt", pa.table({"g": g, "x": x}))
    for name, expect in con.execute(
        f"SELECT g, quantile_disc(x, {qs}) FROM tt GROUP BY g"
    ).fetchall():
        n = group_n[name]
        for q, e in zip(qs, expect):
            rank = max(0, math.ceil(q * n) - 1)
            assert values[(name, rank)] == e, (name, q, values[(name, rank)], e)


# -- vectorized-path equivalence vs per-row references (ADVICE r3) ---------


def _poly_window_hash(th, start, length):
    """Independent per-window reference: direct polynomial sum in Python
    ints mod 2^64 (the batch path uses prefix sums + inverse powers)."""
    from zparse_ray.functions.sketches import hash64

    P = 1099511628211  # FNV prime, textops._FNV_P
    T = sum(int(th[start + i]) * pow(P, i, 1 << 64) for i in range(length)) % (1 << 64)
    return int(hash64(np.array([T], dtype=np.uint64))[0])


_EQ_CORPUS = [
    "the quick brown fox jumps over the lazy dog again and again",
    "",
    "one",
    "two words",
    "exactly five tokens are right here",
    "Ünïcode tökens with Ümlauts and ümlauts repeated ümlauts",
    "a b c d e f g h i j k l m n o p q r s t u v w x y z " * 3,
    "   leading and trailing whitespace   ",
]


def test_minhash_signatures_match_per_doc_reference():
    import re

    from zparse_ray.functions.sketches import hash64

    mh = MinHasher(n_perm=32, n_bands=8, shingle_k=5)
    import pandas as pd

    sigs = mh._signatures(pd.Series(_EQ_CORPUS))
    for d, text in enumerate(_EQ_CORPUS):
        toks = re.findall(r"\w+", text.lower())
        if not toks:
            expect = np.full(mh.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        else:
            th = hash64(np.array(toks, dtype=object))
            k = mh.shingle_k
            if len(toks) < k:
                wins = [(0, len(toks))]
            else:
                wins = [(s, k) for s in range(len(toks) - k + 1)]
            sh = np.array(
                [_poly_window_hash(th, s, n) for s, n in wins], dtype=np.uint64
            )
            with np.errstate(over="ignore"):
                expect = np.array(
                    [(mh.a[p] * sh + mh.b[p]).min() for p in range(mh.n_perm)],
                    dtype=np.uint64,
                )
        assert (sigs[:, d] == expect).all(), f"doc {d}: {text[:30]!r}"


def test_simhash_batch_matches_per_row_reference():
    sh = SimHasher()
    out = sh(_doc_batch(_EQ_CORPUS))["simhash"].to_pylist()
    expect = [
        int(np.uint64(sh.simhash(t)).astype(np.int64)) for t in _EQ_CORPUS
    ]
    assert out == expect


def test_fingerprint_batch_matches_per_row_reference():
    from zparse_ray.functions.sketches import hash64

    window = 16
    out = fingerprint_batch(_doc_batch(_EQ_CORPUS), window=window)
    got = out["fingerprint"].to_pylist()
    for d, text in enumerate(_EQ_CORPUS):
        buf = text.encode("utf-8")
        if len(buf) >= window:
            th = np.frombuffer(buf, dtype=np.uint8)
            expect = min(
                _poly_window_hash(th, s, window)
                for s in range(len(buf) - window + 1)
            )
        else:
            expect = int(hash64(np.array([text], dtype=object))[0])
        assert got[d] == int(np.uint64(expect).astype(np.int64)), f"doc {d}"


def test_token_regex_ascii_matches_re2_oracle_semantics():
    """Python \\S defaults to Unicode (would match around U+00A0 /
    U+2003 differently than DuckDB's RE2 ASCII classes); the token
    stages use the explicit RE2 whitespace class [\\t\\n\\f\\r ] so
    cross-engine token counts agree on ALL whitespace (even Python's
    ASCII \\s includes U+000B vertical tab; RE2's does not)."""
    import duckdb

    texts = ["a b c", "héllo wörld", "x y", "", "  plain ascii  ",
             "a\x0bb c", "f\x0cf"]  # U+000B: Python ASCII \s has it, RE2 does not
    got = token_count_batch(_doc_batch(texts))["n_tokens"].to_pylist()
    con = duckdb.connect()
    want = [
        con.execute("SELECT len(regexp_extract_all(?, '\\S+'))", [t]).fetchone()[0]
        for t in texts
    ]
    assert got == want


def test_connected_components_matches_union_find(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.dedup import connected_components

    rng = np.random.default_rng(13)
    # random sparse graph: chains, cliques and singleton-free pairs
    a = rng.integers(0, 120, 150).astype(np.int64)
    b = rng.integers(0, 120, 150).astype(np.int64)
    keep = a != b
    edges = pd.DataFrame({"a": a[keep], "b": b[keep]})

    out = connected_components(rd.from_pandas(edges), n_buckets=4)
    got = {r["node"]: r["component"] for r in out.take_all()}

    # union-find reference
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(edges["a"], edges["b"]):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    want = {}
    for v in set(edges["a"]) | set(edges["b"]):
        # component label = min node id in the component
        want[int(v)] = min(u for u in parent if find(u) == find(int(v)))
    assert got == want


def test_connected_components_empty(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.dedup import connected_components

    empty = pd.DataFrame({"a": pd.array([], dtype="int64"), "b": pd.array([], dtype="int64")})
    assert connected_components(rd.from_pandas(empty)).count() == 0


def test_grouped_topk_matches_pandas(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.stats import grouped_topk

    rng = np.random.default_rng(17)
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 7, 500).astype(str),
            "v": rng.integers(0, 50, 500),      # many ties
            "id": np.arange(500, dtype=np.int64),
        }
    )
    # null group keys must form their own partition (SQL ROW_NUMBER
    # semantics), not be silently dropped by pandas groupby
    df.loc[df.index[:30], "g"] = None
    out = grouped_topk(
        rd.from_pandas(df), group_col="g", order_col="v", k=4, tie_cols=["id"]
    )
    got = (
        pd.DataFrame(out.take_all())
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)[["g", "v", "id"]]
    )
    want = (
        df.sort_values(["v", "id"], ascending=[False, True], kind="mergesort")
        .groupby("g", sort=False, dropna=False)
        .head(4)
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)[["g", "v", "id"]]
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_bucketed_shuffle_left_join_null_marks(ray_session):
    """how='left' must keep zero-match left rows, and the downstream
    is_valid marking (customer_order_count_hist's shape) must see their
    right keys as NULL — the pandas NaN round-trip may not silently
    turn them into valid floats."""
    import pandas as pd
    import pyarrow.compute as _pc
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_shuffle_join

    left = pd.DataFrame({"k": np.array([1, 2, 3, 4], np.int64)})
    right = pd.DataFrame(
        {"rk": np.array([1, 1, 3], np.int64), "rv": np.array([10, 11, 30], np.int64)}
    )
    out = bucketed_shuffle_join(
        rd.from_pandas(left), rd.from_pandas(right),
        left_on="k", right_on="rk", n_buckets=2, how="left",
    )
    rows = []
    for b in out.iter_batches(batch_format="pyarrow"):
        hit = _pc.cast(_pc.is_valid(b["rv"]), pa.int64())
        rows.extend(zip(b["k"].to_pylist(), hit.to_pylist()))
    got = {}
    for k, h in rows:
        got[k] = got.get(k, 0) + h
    # k=1 matches twice, k=3 once, k=2/k=4 keep one row each with NULL rv
    assert got == {1: 2, 2: 0, 3: 1, 4: 0}
    assert sorted(k for k, _ in rows) == [1, 1, 2, 3, 4]


def test_range_bucket_monotone_no_overflow():
    """Width-based range bucketing must stay monotone and in-range on a
    2^60-wide key span (multiply-then-divide would overflow int64)."""
    from zparse_ray.stages.scan import _range_bucket

    lo, hi = -(2**59), 2**59
    keys = np.array([lo, lo + 1, -17, 0, 2**40, hi - 1, hi], np.int64)
    b = _range_bucket(keys, lo, hi, 4096)
    assert (np.diff(b) >= 0).all()
    assert b[0] == 0 and 0 <= b[-1] <= 4096


def test_global_running_sum_matches_numpy_cumsum(ray_session):
    """Two-phase parallel scan == single-process cumsum in key order,
    across many blocks and buckets, with non-dense shuffled keys."""
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.scan import global_running_sum

    rng = np.random.default_rng(31)
    keys = rng.permutation(np.arange(0, 6000, 3, dtype=np.int64))  # sparse, shuffled
    vals = rng.integers(0, 100, len(keys)).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": vals})

    def make_kv():
        return rd.from_pandas(df, override_num_blocks=7)

    out = global_running_sum(
        make_kv, key_col="k", value_col="v",
        key_lo=0, key_hi=int(keys.max()), n_buckets=16,
    )
    got = pd.DataFrame(out.take_all()).sort_values("k").reset_index(drop=True)
    want = df.sort_values("k").reset_index(drop=True)
    want["run"] = want["v"].cumsum()
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["run"].to_numpy() == want["run"].to_numpy()).all()


def test_bucketed_shuffle_join_outer_coalesces_key(ray_session):
    """how='outer' with DIFFERENT key names: right-only rows carry the
    key only in right_on — the helper must coalesce it into left_on
    before dropping, or those rows come back keyless."""
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.joins import bucketed_shuffle_join

    left = pd.DataFrame(
        {"k": np.array([1, 2, 3], np.int64), "lv": np.array([10, 20, 30], np.int64)}
    )
    right = pd.DataFrame(
        {"rk": np.array([2, 3, 4, 5], np.int64), "rv": np.array([-2, -3, -4, -5], np.int64)}
    )
    out = bucketed_shuffle_join(
        rd.from_pandas(left), rd.from_pandas(right),
        left_on="k", right_on="rk", n_buckets=2, how="outer",
    )
    rows = {}
    for r in out.take_all():
        assert r["k"] is not None and not np.isnan(r["k"])
        rows[int(r["k"])] = (r["lv"], r["rv"])
    assert set(rows) == {1, 2, 3, 4, 5}
    assert rows[1][1] is None or np.isnan(rows[1][1])  # left-only
    assert int(rows[2][0]) == 20 and int(rows[2][1]) == -2  # matched
    assert rows[4][0] is None or np.isnan(rows[4][0])  # right-only kept its key
    assert int(rows[5][1]) == -5


def test_connected_components_raises_on_round_exhaustion(ray_session):
    import pandas as pd
    import ray.data as rd

    from zparse_ray.stages.dedup import connected_components

    # chain 0-1-2-3-4 has diameter 4: min-label needs ~4 rounds
    chain = pd.DataFrame({"a": np.arange(4, dtype=np.int64),
                          "b": np.arange(1, 5, dtype=np.int64)})
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(rd.from_pandas(chain), max_rounds=2, n_buckets=2)
    # enough rounds: one component labeled 0
    out = connected_components(rd.from_pandas(chain), max_rounds=8, n_buckets=2)
    assert {r["component"] for r in out.take_all()} == {0}


def test_repetition_batch_matches_per_row_reference():
    from zparse_ray.stages.textops import repetition_batch

    texts = [
        "a a a b",            # dup 0.5, top 0.75
        "x y z",              # dup 0, top 1/3
        "w  w",               # space run -> empty token dropped
        "",                   # zero words -> row dropped
        "   ",
        "solo",
    ]
    out = repetition_batch(_doc_batch(texts))
    by_id = {
        i: (d, t)
        for i, d, t in zip(
            out["doc_id"].to_pylist(),
            out["dup_word_frac"].to_pylist(),
            out["top_word_frac"].to_pylist(),
        )
    }
    # brute-force per-row reference over the same split semantics
    expect = {}
    for i, txt in enumerate(texts):
        words = [w for w in txt.split(" ") if w]
        if not words:
            continue
        counts = {}
        for w in words:
            counts[w] = counts.get(w, 0) + 1
        total = len(words)
        expect[i] = (1.0 - len(counts) / total, max(counts.values()) / total)
    assert set(by_id) == set(expect)
    for i in expect:
        assert by_id[i][0] == pytest.approx(expect[i][0])
        assert by_id[i][1] == pytest.approx(expect[i][1])


def test_ngram_repetition_batch_matches_per_row_reference():
    """ngram_repetition_batch == a dict-counting per-row reference over
    the SAME token semantics (_TOKEN lowercased), for every emitted n;
    rows with fewer than n tokens must be null for that n."""
    import re

    from zparse_ray.stages.dedup import _TOKEN
    from zparse_ray.stages.textops import ngram_repetition_batch

    rng = np.random.default_rng(0xA11CE)
    vocab = ["Alpha", "beta", "GAMMA", "delta", "eps"]
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(0, 30))))
        for _ in range(40)
    ] + [
        "a b a b a b a b a b",   # heavy 2-gram repetition
        "one two three",          # 3 tokens: 3-gram frac defined, 5-gram null
        "",                       # no tokens: all null
        "short",                  # 1 token
    ]
    top_ns, dup_ns = (2, 3), (5, 7)
    out = ngram_repetition_batch(_doc_batch(texts), top_ns=top_ns, dup_ns=dup_ns)
    for n in top_ns + dup_ns:
        is_top = n in top_ns
        col = out[f"top_{n}gram_frac" if is_top else f"dup_{n}gram_frac"].to_pylist()
        for i, txt in enumerate(texts):
            toks = _TOKEN.findall(txt.lower())
            wins = [tuple(toks[j : j + n]) for j in range(len(toks) - n + 1)]
            if not wins:
                assert col[i] is None, (n, i)
                continue
            counts = {}
            for w in wins:
                counts[w] = counts.get(w, 0) + 1
            ref = (
                max(counts.values()) / len(wins)
                if is_top
                else 1.0 - len(counts) / len(wins)
            )
            assert col[i] == pytest.approx(ref), (n, i, txt)


def test_snippet_matcher_counts_distinct_snippets():
    from zparse_ray.stages.decontam import SnippetMatcher

    m = SnippetMatcher(["needle", "pin", "needle"])  # dup must not double-count
    out = m(
        _doc_batch(
            [
                "a needle in a haystack",
                "pin and needle and pin again",
                "nothing here",
                None,
            ]
        )
    )
    assert out["n_hits"].to_pylist() == [1, 2, 0, 0]


def test_mark_contaminated_streams_hits_only(ray_session):
    import ray.data as rd

    from zparse_ray.stages.decontam import mark_contaminated

    texts = ["clean doc one", "contains BADSNIP here", "also BADSNIP and OTHERSNIP", "clean"]
    ds = rd.from_arrow(_doc_batch(texts))
    rows = sorted(
        (r["doc_id"], r["n_hits"])
        for r in mark_contaminated(ds, ["BADSNIP", "OTHERSNIP"], concurrency=1).take_all()
    )
    assert rows == [(1, 1), (2, 2)]


def test_redact_batch_matches_duckdb_re2():
    import duckdb

    from zparse_ray.stages.redact import PII_PATTERNS, redact_batch

    texts = [
        "mail me at jo.do+spam@ex-ample.co.uk or root@10.0.0.1 now",
        "server 192.168.001.254 rebooted; call +14155550123 today",
        "no pii here, just 1234567 and a.b@c (not an email)",
        "",
        None,
        "edge +123456 too short, +1234567 ok, 999.999.999.999 ip-ish",
    ]
    t = _doc_batch([x if x is not None else None for x in texts])
    out = redact_batch(t)

    con = duckdb.connect()
    con.execute("CREATE TABLE d AS SELECT * FROM t")
    expr = "text"
    for _n, pat, tok in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pat}', '{tok}', 'g')"
    oracle = con.execute(f"SELECT {expr} AS red FROM d ORDER BY doc_id").df()
    assert out["text"].to_pylist() == [
        None if v is None or (isinstance(v, float)) else v
        for v in oracle["red"].tolist()
    ]
    # counts: distinct-pattern hits, sequential semantics
    # (root@10.0.0.1 is NOT an email — numeric TLD — so its dotted
    # quad falls through to the ipv4 pattern)
    row0 = out.to_pylist()[0]
    assert (row0["n_email"], row0["n_ipv4"], row0["n_phone"]) == (1, 1, 0)
    row1 = out.to_pylist()[1]
    assert (row1["n_email"], row1["n_ipv4"], row1["n_phone"]) == (0, 1, 1)
    assert out["n_redactions"].to_pylist() == [2, 2, 0, 0, 0, 2]


def test_redact_placeholders_never_cascade():
    from zparse_ray.stages.redact import redact_batch

    # an email whose redaction must not later match ip/phone patterns
    out = redact_batch(_doc_batch(["x 1.2.3.4@example.com +12345678 y"]))
    assert out["text"].to_pylist() == ["x <EMAIL> <PHONE> y"]


def test_hashed_trigram_embed_deterministic_and_normalized():
    from zparse_ray.stages.embed import hashed_trigram_embed

    texts = pa.array(["the quick brown fox", "the quick brown fox", "xy", "", None], pa.string())
    M = hashed_trigram_embed(texts, 32)
    assert M.shape == (5, 32)
    np.testing.assert_array_equal(M[0], M[1])          # deterministic
    np.testing.assert_allclose(np.linalg.norm(M[0]), 1.0)
    np.testing.assert_allclose(np.linalg.norm(M[2]), 1.0)  # short row: whole-text bucket
    np.testing.assert_array_equal(M[3], 0.0)           # empty -> zero vector
    np.testing.assert_array_equal(M[4], 0.0)           # null -> zero vector
    # batch-size invariance: same text alone embeds identically
    alone = hashed_trigram_embed(pa.array(["the quick brown fox"]), 32)
    np.testing.assert_array_equal(alone[0], M[0])


def test_embedder_schema_and_model_seam():
    from zparse_ray.stages.embed import Embedder

    b = _doc_batch(["alpha beta", "gamma"])
    out = Embedder(dim=16)(b)
    assert out.schema.field("embedding").type == pa.list_(pa.float64())
    assert all(len(v) == 16 for v in out["embedding"].to_pylist())

    # real-model seam: factory called once, output shape enforced
    calls = []

    def factory():
        calls.append(1)
        return lambda texts: np.ones((len(texts), 16)) / 4.0

    out2 = Embedder(dim=16, model_factory=factory)(b)
    assert calls == [1]
    assert out2["embedding"].to_pylist()[0][0] == 0.25
    with pytest.raises(ValueError, match="expected"):
        Embedder(dim=8, model_factory=lambda: (lambda t: np.ones((len(t), 16))))(b)


def test_embed_feeds_similarity_topk(ray_session):
    import ray.data as rd

    from zparse_ray.stages.embed import embed, hashed_trigram_embed
    from zparse_ray.stages.similarity import TopKScorer, merge_topk

    texts = [
        "the cat sat on the mat",
        "the cat sat on the mat!",   # near-dup of 0
        "completely different words here about spaceships",
        "another unrelated document regarding cooking recipes",
    ]
    ds = embed(rd.from_arrow(_doc_batch(texts)), dim=64, concurrency=1)
    q = hashed_trigram_embed(pa.array([texts[0]]), 64)
    scorer = TopKScorer(q, k=2, id_column="doc_id")
    # drive the scorer directly over the embedded batches (unit seam)
    parts = [scorer(b) for b in ds.iter_batches(batch_format="pyarrow")]
    top = merge_topk([r for p in parts for r in (p if isinstance(p, list) else p.to_pylist())],
                     k=2, id_column="doc_id")
    ids = [r["doc_id"] for r in top]
    assert ids[0] == 0 and ids[1] == 1  # itself, then the near-dup


# -- n-gram LM perplexity --------------------------------------------------

_LM_TRAIN = [
    "the cat sat on the mat and the dog sat on the rug",
    "the quick brown fox jumps over the lazy dog",
    "a cat and a dog and a fox live in the house",
    "the dog and the cat play on the mat in the house",
]
_LM_EVAL = [
    "the cat sat on the rug",          # in-domain
    "zyx qwv jkl pqr mno stu",         # gibberish
    "",                                # zero tokens -> null
    "the dog",
]


def _lm_ref(train_texts, eval_texts, k=1.0):
    import re as _re
    from collections import Counter

    from zparse_ray.stages.lm_score import _WORD

    tri, bi, uni = Counter(), Counter(), Counter()
    for t in train_texts:
        toks = _WORD.findall(t.lower())
        if not toks:
            continue
        uni.update(toks)
        p = ["<b>", "<b>"] + toks
        for i in range(len(toks)):
            tri[(p[i], p[i + 1], p[i + 2])] += 1
            bi[(p[i], p[i + 1])] += 1
    V = len(uni)
    out = []
    for t in eval_texts:
        toks = _WORD.findall(t.lower())
        if not toks:
            out.append(None)
            continue
        p = ["<b>", "<b>"] + toks
        lps = [
            np.log(tri[(p[i], p[i + 1], p[i + 2])] + k)
            - np.log(bi[(p[i], p[i + 1])] + k * V)
            for i in range(len(toks))
        ]
        out.append(float(np.mean(lps)))
    return tri, bi, uni, out


def test_ngram_lm_train_and_score_match_reference(ray_session):
    import ray
    import ray.data as rd

    from zparse_ray.stages.lm_score import (
        PerplexityScorer,
        score_perplexity,
        train_ngram_lm,
    )

    model = train_ngram_lm(rd.from_arrow(_doc_batch(_LM_TRAIN)))
    tri, bi, uni, ref_avg = _lm_ref(_LM_TRAIN, _LM_EVAL)
    # count-table parity (tiny corpus: no 64-bit collisions)
    assert model.vocab_size == len(uni)
    assert len(model.tri_h) == len(tri)
    assert int(model.tri_c.sum()) == sum(tri.values())
    assert len(model.bi_h) == len(bi)
    assert int(model.bi_c.sum()) == sum(bi.values())

    # distributed scoring vs the per-row reference
    scored = score_perplexity(
        rd.from_arrow(_doc_batch(_LM_EVAL)), model, concurrency=1
    )
    rows = {r["doc_id"]: r for r in scored.take_all()}
    for i, expect in enumerate(ref_avg):
        got = rows[i]["lm_logprob_avg"]
        if expect is None:
            assert got is None and rows[i]["perplexity"] is None
        else:
            assert got == pytest.approx(expect, abs=1e-9)
            assert rows[i]["perplexity"] == pytest.approx(np.exp(-expect), rel=1e-9)

    # in-domain text must beat gibberish; local callable == dataset path
    assert rows[0]["perplexity"] < rows[1]["perplexity"]
    local = PerplexityScorer(model)(_doc_batch(_LM_EVAL))
    assert local["perplexity"].to_pylist()[0] == pytest.approx(rows[0]["perplexity"])


def test_ngram_lm_min_count_prunes(ray_session):
    import ray.data as rd

    from zparse_ray.stages.lm_score import train_ngram_lm

    full = train_ngram_lm(rd.from_arrow(_doc_batch(_LM_TRAIN)))
    pruned = train_ngram_lm(rd.from_arrow(_doc_batch(_LM_TRAIN)), min_count=2)
    assert len(pruned.tri_h) < len(full.tri_h)
    assert pruned.vocab_size == full.vocab_size  # vocab is never pruned


# -- line-level dedup (boilerplate removal) --------------------------------

def test_line_dedup_matches_bruteforce(ray_session):
    import ray.data as rd

    from zparse_ray.stages.line_dedup import line_dedup

    boiler = "Subscribe to our newsletter!"
    texts = [
        f"unique first doc\n{boiler}\nmore unique content",
        f"{boiler}\nsecond doc body",
        "third doc\nno boilerplate at all",
        f"   {boiler}   \nfourth doc",       # whitespace-variant still matches
        "",                                   # empty -> one ws-only line, kept
        None,
        "only\n\nstructure\n\nhere",          # blank lines preserved
    ]
    out = line_dedup(rd.from_arrow(_doc_batch(texts)), min_docs=2, concurrency=1)
    rows = {r["doc_id"]: r for r in out.take_all()}

    # brute force: count distinct docs per stripped line, drop >= 2
    from collections import Counter
    counts = Counter()
    for t in texts:
        if t is None:
            continue
        counts.update({ln.strip("\t\n\f\r ") for ln in t.split("\n")} - {""})
    dup = {ln for ln, c in counts.items() if c >= 2}
    for i, t in enumerate(texts):
        if t is None:
            assert rows[i]["text"] is None and rows[i]["n_lines_dropped"] == 0
            continue
        kept = [ln for ln in t.split("\n") if ln.strip("\t\n\f\r ") not in dup]
        assert rows[i]["text"] == "\n".join(kept), f"doc {i}"
        assert rows[i]["n_lines_dropped"] == len(t.split("\n")) - len(kept)
    # sanity: the boilerplate actually got dropped somewhere
    assert sum(r["n_lines_dropped"] for r in rows.values()) >= 3


def test_line_dedup_min_docs_threshold(ray_session):
    import ray.data as rd

    from zparse_ray.stages.line_dedup import boilerplate_line_hashes

    texts = ["shared line\na", "shared line\nb", "shared line\nc", "solo\nd"]
    ds = rd.from_arrow(_doc_batch(texts))
    assert len(boilerplate_line_hashes(ds, min_docs=2)) == 1
    assert len(boilerplate_line_hashes(ds, min_docs=4)) == 0
    # within-doc repetition does not count as cross-doc boilerplate
    ds2 = rd.from_arrow(_doc_batch(["same\nsame\nsame", "other"]))
    assert len(boilerplate_line_hashes(ds2, min_docs=2)) == 0


def test_ngram_lm_empty_corpus_raises(ray_session):
    import ray.data as rd

    from zparse_ray.stages.lm_score import train_ngram_lm

    with pytest.raises(ValueError, match="no tokens"):
        train_ngram_lm(rd.from_arrow(_doc_batch(["", "   ", None])))


def test_pair_jaccard_matches_per_row_reference():
    """pair_jaccard (the distributed minhash-verify kernel) must agree
    with the per-row shingles()/jaccard() reference on every pair,
    including empty/short/unicode edge rows."""
    import numpy as np

    from zparse_ray.stages.dedup import jaccard, pair_jaccard, shingles

    rng = np.random.default_rng(5)
    vocab = [f"w{j}" for j in range(60)] + ["héllo", "naïve", "日本語"]
    texts_a, texts_b = [], []
    for _ in range(30):
        a = list(rng.choice(vocab, rng.integers(0, 30)))
        # mutate a into b: drop/keep/extend so jaccard spans (0, 1)
        b = [w for w in a if rng.random() > 0.2] + list(
            rng.choice(vocab, rng.integers(0, 5))
        )
        texts_a.append(" ".join(a))
        texts_b.append(" ".join(b))
    # edge rows: both empty, one empty, identical, shorter than k
    texts_a += ["", "", "same exact text here ok", "one two"]
    texts_b += ["", "not empty", "same exact text here ok", "one two three"]
    got = pair_jaccard(texts_a, texts_b, k=5)
    want = [jaccard(shingles(a, 5), shingles(b, 5)) for a, b in zip(texts_a, texts_b)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert pair_jaccard([], []).shape == (0,)


def _components(pairs):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups = {}
    for x in parent:
        groups.setdefault(find(x), set()).add(x)
    return sorted(sorted(g) for g in groups.values())


def test_verified_neardup_pairs_matches_bruteforce(ray_session):
    """The near-dup chain against brute-force jaccard(shingles(...)) on
    a planted corpus. Each family holds a base doc, two one-word drops
    (Jaccard >= 0.9 to the base and to each other) and a rewrite of 30
    words in a row, of a higher id (Jaccard about 0.7, so an LSH
    candidate about half of the time). All-pairs mode must return every
    pair at or above the threshold exactly once and no other; star mode
    a duplicate-free subset with the same connected components. Some
    candidates must fail the verify, or the threshold goes untested."""
    import ray.data as rd

    from zparse_ray.stages.dedup import verified_neardup_pairs

    rng = np.random.default_rng(37)
    ids, texts = [], []
    for fam in range(12):
        vocab = [f"f{fam}w{j}" for j in range(400)]
        base = list(rng.choice(vocab, 200, replace=False))
        near = [base[:i] + base[i + 1:] for i in (60, 140)]
        far = base[:80] + [f"x{fam}_{i}" for i in range(30)] + base[110:]
        for k, words in enumerate([base, *near, far]):
            ids.append(100 * k + fam)  # the rewrite has the family's largest id
            texts.append(" ".join(words))
    sh = [shingles(t) for t in texts]
    want = sorted(
        (min(ids[i], ids[j]), max(ids[i], ids[j]))
        for i in range(len(ids)) for j in range(i + 1, len(ids))
        if jaccard(sh[i], sh[j]) >= 0.8
    )
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.int64()), "text": texts}))
    for star in (False, True):
        edges, n_truncated, n_cand = verified_neardup_pairs(docs, threshold=0.8, star=star)
        got = sorted((r["a"], r["b"]) for r in edges.take_all())
        assert n_truncated == 0
        assert len(got) == len(set(got)), star
        if star:
            assert set(got) <= set(want)
            assert _components(got) == _components(want)
        else:
            assert got == want
            assert n_cand > len(want)


def test_lsh_candidate_pairs_batched_matches_per_bucket_kernel():
    """The coarse-bucket batched kernel must emit exactly the union of
    lsh_candidate_pairs over the contained (band_id, band_hash)
    buckets — pairs AND truncation markers — in both star and
    all-pairs modes, including past-cap buckets and duplicate rows."""
    import pandas as pd

    from zparse_ray.stages.dedup import lsh_candidate_pairs, lsh_candidate_pairs_batched

    rng = np.random.default_rng(13)
    rows = []
    for band in range(4):
        for bucket in range(12):
            k = int(rng.integers(1, 10))
            if bucket == 0:
                k = 9  # plus duplicates below
            ids = rng.choice(2000, k, replace=False)
            for i in ids:
                rows.append((int(i), band, bucket * 7919 + band))
            rows.append((int(ids[0]), band, bucket * 7919 + band))  # dup row
    df = pd.DataFrame(rows, columns=["doc_id", "band_id", "band_hash"])
    for star in (False, True):
        cap = 5  # small cap so truncation markers appear
        got = lsh_candidate_pairs_batched(df, star=star, cap=cap)
        want_pairs, want_drops = set(), []
        for _, g in df.groupby(["band_id", "band_hash"]):
            out = lsh_candidate_pairs(g, star=star, cap=cap)
            for r in out.itertuples():
                if r.a < 0:
                    want_drops.append(int(r.n_dropped))
                else:
                    want_pairs.add((int(r.a), int(r.b)))
        got_pairs = {(int(r.a), int(r.b)) for r in got.itertuples() if r.a >= 0}
        got_drops = sorted(int(r.n_dropped) for r in got.itertuples() if r.a < 0)
        assert got_pairs == want_pairs, star
        assert got_drops == sorted(want_drops), star


def test_simhash_candidate_pairs_batched_matches_per_bucket_kernel():
    import pandas as pd

    from zparse_ray.stages.dedup import (
        simhash_candidate_pairs,
        simhash_candidate_pairs_batched,
    )

    rng = np.random.default_rng(29)
    rows = []
    for band in range(4):
        for bucket in range(8):
            k = int(rng.integers(1, 9))
            ids = rng.choice(500, k, replace=False)
            base = int(rng.integers(0, 2**63 - 1))
            for i in ids:
                # cluster simhashes around base so some pairs pass <=3
                sim = base ^ int(rng.integers(0, 16))
                rows.append((int(i), band, bucket * 131 + band, sim))
    df = pd.DataFrame(rows, columns=["doc_id", "band_id", "band_bits", "simhash"])
    cap = 4
    got = simhash_candidate_pairs_batched(df, max_hamming=3, cap=cap)
    want_pairs, want_drops = {}, []
    for _, g in df.groupby(["band_id", "band_bits"]):
        out = simhash_candidate_pairs(g.drop_duplicates("doc_id"), 3)
        # reproduce the cap with the per-bucket kernel's own semantics
        sub = g.drop_duplicates("doc_id").sort_values("doc_id")
        if len(sub) > cap:
            want_drops.append(len(sub) - cap)
            sub = sub.iloc[:cap]
        out = simhash_candidate_pairs(sub, 3)
        for r in out.itertuples():
            if r.a >= 0:
                want_pairs[(int(r.a), int(r.b))] = int(r.hamming)
    got_pairs = {
        (int(r.a), int(r.b)): int(r.hamming) for r in got.itertuples() if r.a >= 0
    }
    got_drops = sorted(int(r.n_dropped) for r in got.itertuples() if r.a < 0)
    assert got_pairs == want_pairs
    assert got_drops == sorted(want_drops)
