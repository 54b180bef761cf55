"""Sketch correctness: accuracy bounds, merge associativity, serde."""

import numpy as np

from zparse_ray.functions.sketches import BloomFilter, HyperLogLog, TDigest, hash64


def test_hash64_stability_and_spread():
    a = np.array(["x", "y", "z"], dtype=object)
    h1, h2 = hash64(a), hash64(a.copy())
    assert (h1 == h2).all()
    assert len(set(h1.tolist())) == 3
    assert (hash64(a, seed=1) != h1).any()


def test_tdigest_quantiles_accuracy():
    rng = np.random.default_rng(0)
    vals = rng.normal(0, 1, 100_000)
    d = TDigest()
    d.add(vals)
    for q in (0.1, 0.5, 0.9):
        assert abs(d.quantile(q) - np.quantile(vals, q)) < 0.02


def test_tdigest_merge_equals_whole():
    rng = np.random.default_rng(1)
    vals = rng.exponential(5, 50_000)
    parts = np.array_split(vals, 7)
    merged = TDigest()
    for p in parts:
        d = TDigest()
        d.add(p)
        merged = merged.merge(d)
    whole = TDigest()
    whole.add(vals)
    for q in (0.25, 0.5, 0.75, 0.95):
        assert abs(merged.quantile(q) - whole.quantile(q)) < 0.15 * max(1, whole.quantile(q))
    assert merged.count == len(vals)


def test_tdigest_serde_roundtrip():
    d = TDigest()
    d.add(np.arange(1000, dtype=float))
    d2 = TDigest.from_bytes(d.to_bytes())
    assert d2.quantile(0.5) == d.quantile(0.5)
    assert d2.count == d.count


def test_tdigest_non_finite_dropped():
    d = TDigest()
    d.add(np.array([1.0, np.nan, np.inf, 2.0]))
    assert d.count == 2


def test_hll_estimate_within_2pct():
    ids = np.array([f"id-{i}" for i in range(50_000)], dtype=object)
    h = HyperLogLog()
    h.add(ids)
    h.add(ids[:10_000])  # re-adds change nothing
    est = h.estimate()
    assert abs(est - 50_000) / 50_000 < 0.02


def test_hll_merge_is_union():
    a_ids = np.array([f"a-{i}" for i in range(20_000)], dtype=object)
    b_ids = np.array([f"b-{i}" for i in range(20_000)], dtype=object)
    ha, hb = HyperLogLog(), HyperLogLog()
    ha.add(a_ids)
    hb.add(b_ids)
    m = ha.merge(hb)
    assert abs(m.estimate() - 40_000) / 40_000 < 0.05
    m2 = HyperLogLog.from_bytes(m.to_bytes())
    assert m2.estimate() == m.estimate()


def test_bloom_no_false_negatives():
    keys = np.array([f"k{i}" for i in range(10_000)], dtype=object)
    bf = BloomFilter.for_capacity(10_000, 0.01)
    bf.add(keys)
    assert bf.contains(keys).all()
    other = np.array([f"absent-{i}" for i in range(10_000)], dtype=object)
    assert bf.contains(other).mean() < 0.03  # ~target fpr


def test_bloom_merge():
    a = BloomFilter(1 << 14)
    b = BloomFilter(1 << 14)
    ka = np.array(["x1", "x2"], dtype=object)
    kb = np.array(["y1"], dtype=object)
    a.add(ka)
    b.add(kb)
    m = a.merge(b)
    assert m.contains(np.array(["x1", "y1"], dtype=object)).all()
    m2 = BloomFilter.from_bytes(m.to_bytes())
    assert m2.contains(ka).all()


def test_count_min_sketch_properties():
    import numpy as np

    from zparse_ray.functions.sketches import CountMinSketch

    rng = np.random.default_rng(0)
    items = np.array([f"tok{i}" for i in rng.integers(0, 500, 20_000)], dtype=object)
    a, b = CountMinSketch(), CountMinSketch()
    a.add(items[:10_000])
    b.add(items[10_000:])
    m = a.merge(b)
    uniq, true = np.unique(items, return_counts=True)
    est = m.estimate(uniq.astype(object))
    # CMS never underestimates; merge == single-pass build
    assert (est >= true).all()
    whole = CountMinSketch()
    whole.add(items)
    assert (whole.estimate(uniq.astype(object)) == est).all()
    # serialization round-trip
    rt = CountMinSketch.from_bytes(m.to_bytes())
    assert (rt.estimate(uniq.astype(object)) == est).all()
    # weighted add equals repeated add
    w = CountMinSketch()
    w.add(uniq.astype(object), true.astype(np.int64))
    assert (w.estimate(uniq.astype(object)) == est).all()


def test_grouped_hll_partials_merge_close_to_exact():
    import numpy as np
    import pyarrow as pa

    from zparse_ray.stages.stats import GroupedHllPartial, merge_grouped_hlls

    rng = np.random.default_rng(29)
    n = 30_000
    groups = rng.choice(["a", "b", "c"], n)
    vals = rng.integers(0, 5_000, n)
    stage = GroupedHllPartial("g", "v")
    rows = []
    # several batches so the per-group tree merge is exercised
    for lo in range(0, n, 7_000):
        b = pa.table({"g": pa.array(groups[lo:lo+7000]), "v": pa.array(vals[lo:lo+7000])})
        rows.extend(stage(b).to_pylist())
    est = merge_grouped_hlls(rows)
    import pandas as pd

    exact = pd.DataFrame({"g": groups, "v": vals}).groupby("g")["v"].nunique()
    for g in ("a", "b", "c"):
        assert abs(est[g] - exact[g]) / exact[g] <= 0.02, (g, est[g], exact[g])


def _loop_compress(self) -> None:
    """Reference: the greedy merge over numpy scalars, one value at a time."""
    if len(self.means) == 0:
        return
    order = np.argsort(self.means, kind="stable")
    means, weights = self.means[order], self.weights[order]
    total = weights.sum()
    limit = total / self.compression
    new_m, new_w = [], []
    cur_m, cur_w = means[0], weights[0]
    for m, w in zip(means[1:], weights[1:]):
        if cur_w + w <= limit:
            cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
            cur_w += w
        else:
            new_m.append(cur_m)
            new_w.append(cur_w)
            cur_m, cur_w = m, w
    new_m.append(cur_m)
    new_w.append(cur_w)
    self.means = np.array(new_m)
    self.weights = np.array(new_w)


def _tdigest_cases():
    rng = np.random.default_rng(7)
    cases = {}
    for n in (1, 199, 200, 201, 1_600, 1_601, 7_946, 100_000):
        cases[f"normal-{n}"] = [rng.normal(50, 20, n)]
        cases[f"lengths-{n}"] = [rng.integers(0, 4_000, n).astype(float)]
    cases["ties-few-values"] = [rng.integers(0, 5, 5_000).astype(float)]
    cases["ties-one-value"] = [np.full(3_333, 7.0)]
    cases["non-finite"] = [
        np.concatenate([rng.exponential(3, 2_500), [np.nan, np.inf, -np.inf] * 40])
    ]
    cases["huge-magnitudes"] = [rng.choice([-1.0, 1.0], 2_000) * 10.0 ** rng.uniform(290, 308, 2_000)]
    cases["two-adds"] = [rng.normal(0, 1, 2_000), rng.normal(3, 1, 900)]
    return cases


def _digest_bytes(adds) -> bytes:
    d = TDigest()
    for v in adds:
        d.add(v)
    return d.to_bytes()


def _merge_chain_bytes() -> list[bytes]:
    rng = np.random.default_rng(11)
    parts = []
    for n in (1, 150, 1_250, 1_601, 7_946):
        d = TDigest()
        d.add(rng.integers(0, 900, n).astype(float))
        parts.append(d)
    out, acc = [], TDigest()
    for d in parts:
        acc = acc.merge(d)
        out.append(acc.to_bytes())
    whole = parts[0]
    for d in reversed(parts[1:]):
        whole = d.merge(whole)
    out.append(whole.to_bytes())
    return out


@np.errstate(over="ignore")  # the huge-magnitude case overflows to inf on both sides
def test_tdigest_bytes_equal_the_scalar_loop(monkeypatch):
    cases = _tdigest_cases()
    new = {name: _digest_bytes(adds) for name, adds in cases.items()}
    new_chain = _merge_chain_bytes()
    monkeypatch.setattr(TDigest, "_compress", _loop_compress)
    ref = {name: _digest_bytes(adds) for name, adds in cases.items()}
    ref_chain = _merge_chain_bytes()
    for name in cases:
        assert new[name] == ref[name], name
    assert new_chain == ref_chain
