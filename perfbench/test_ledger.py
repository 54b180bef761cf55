"""Tests of the benchmark's own helpers (no Ray session needed).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.dirname(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_quartiles_match_statistics_and_spread():
    vals = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5, 13.5]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    assert ledger.quartiles(vals) == (q1, q2, q3)
    assert ledger.spread(vals) == pytest.approx((q3 - q1) / q2)
    assert ledger.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert ledger.spread([7.0]) == 0.0
    assert ledger.median([3.0, 1.0, 2.0]) == 2.0


def test_eff_1to4():
    assert ledger.eff_1to4(1000.0, 4000.0) == pytest.approx(1.0)
    assert ledger.eff_1to4(6000.0, 15200.0) == pytest.approx(0.633, abs=1e-3)
    assert ledger.eff_1to4(100.0, 300.0, n=3) == pytest.approx(1.0)


def test_cpu_window_shares():
    before = [100, 0, 50, 800, 0, 0, 0, 50]
    after = [300, 0, 150, 1300, 0, 0, 0, 100]  # +200 user +100 sys +500 idle +50 steal
    w = ledger.cpu_window(before, after)
    assert w["cpu_s"] == pytest.approx(300 / ledger.CLK_TCK)
    assert w["busy_frac"] == pytest.approx(300 / 850)
    assert w["steal_frac"] == pytest.approx(50 / 850)


def test_peak_rss_reset_and_read():
    ledger.reset_peak_rss()
    before = ledger.peak_rss_mb()
    blob = np.ones(64 * 1024 * 1024 // 8)  # 64 MB touched
    assert ledger.peak_rss_mb() >= before + 48
    del blob


def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "parent": parent, "run_id": "r", "start": start, "end": end}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 5.0),  # overlaps span 1: union 1..5
        _span(3, 0, 9.0, 12.0),  # sticks out of the parent: only 9..10 counts
        _span(4, 1, 1.5, 2.0),  # grandchild: not subtracted from span 0
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 0.5)
    assert st[2] == pytest.approx(2.0)
    assert st[4] == pytest.approx(0.5)


def test_tracer_nesting_and_disabled(tmp_path):
    t = Tracer("run-1")
    with t.span("outer"):
        with t.span("inner", kind="json"):
            pass
    assert [s["name"] for s in t.spans] == ["outer", "inner"]
    assert t.spans[1]["parent"] == 0 and t.spans[1]["kind"] == "json"
    assert all(s["run_id"] == "run-1" and s["end"] >= s["start"] for s in t.spans)
    t.write(str(tmp_path / "spans.jsonl"))
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2
    off = Tracer("run-2", enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []


@pytest.fixture(scope="module")
def oracle_outputs(tmp_path_factory):
    d = inputs.build_spans(
        "validate_dupskew", 3, str(tmp_path_factory.mktemp("spans")), n_docs=400, n_partitions=2
    )
    return inputs.build_oracle(d)


def test_validate_check_rejects_corrupted_outputs(oracle_outputs):
    want = oracle_outputs
    assert want[0] and want[1]
    assert ledger.check_validate(copy.deepcopy(want), want) is None

    dropped = copy.deepcopy(want)
    dropped[0].pop()
    assert ledger.check_validate(dropped, want) is not None

    flipped = copy.deepcopy(want)
    flipped[1][0]["passed"] = not flipped[1][0]["passed"]
    assert ledger.check_validate(flipped, want) is not None

    moved = copy.deepcopy(want)
    moved[0][0]["check_id"] = "SpanOrder" if moved[0][0]["check_id"] != "SpanOrder" else "Expected"
    assert ledger.check_validate(moved, want) is not None

    shifted = copy.deepcopy(want)
    shifted[0][0]["offset"] += 1
    assert ledger.check_validate(shifted, want) is not None


def test_validate_check_accepts_tied_rows_in_either_order():
    # a repeated doc_id with the same error at two offsets: equal sort keys
    row = {"partition_id": 7, "doc_id": "doc-1", "span_index": 8, "check_id": "Expected",
           "detail": "expected ','", "offset": 291, "line": 1, "col": 8}
    want = ([row, {**row, "offset": 838}], [{"partition_id": 7, "passed": False}])
    got = ([want[0][1], want[0][0]], want[1])
    assert ledger.check_validate(got, want) is None


def test_dedup_check_rejects_corrupted_outputs():
    in_ids = np.arange(10, dtype=np.int64)
    out_ids = np.array([0, 2, 4, 6, 8], dtype=np.int64)
    ref = ledger.ids_digest(out_ids)
    stats = {"n_docs_in": 10, "n_docs_out": 5, "n_dropped": 5}
    assert ledger.check_dedup(stats, in_ids, out_ids[::-1], ref) is None
    # counts that do not add up
    assert ledger.check_dedup({**stats, "n_dropped": 4}, in_ids, out_ids, ref) is not None
    # an id that is not an input id
    assert ledger.check_dedup(stats, in_ids, np.array([0, 2, 4, 6, 99]), ref) is not None
    # a duplicated survivor
    assert ledger.check_dedup(stats, in_ids, np.array([0, 2, 4, 6, 6]), ref) is not None
    # a different survivor set
    assert ledger.check_dedup(stats, in_ids, np.array([0, 2, 4, 6, 7]), ref) is not None
    # a lost row
    assert ledger.check_dedup(stats, in_ids, out_ids[:4], ref) is not None


def test_corpus_is_a_function_of_the_seed():
    a = inputs.corpus_texts(5, n_base=50)
    assert a == inputs.corpus_texts(5, n_base=50)
    assert a != inputs.corpus_texts(6, n_base=50)
    assert len(a) == 50 * inputs.CORPUS_REPLICAS + inputs.CORPUS_HOT_FAMILIES * inputs.CORPUS_HOT_COPIES


def test_phase_metrics_take_medians_and_plan_from_wall():
    def res(p1, p2a, p2b):
        return {"timings": {"plan": 0.001, "phase1": p1, "phase2a_dups": p2a, "phase2b_verdicts": p2b}}

    runs = [(2.0, res(1.5, 0.3, 0.1)), (3.0, res(2.5, 0.3, 0.1)), (2.5, res(2.0, 0.4, 0.05))]
    m = layers.phase_metrics(runs)
    assert m["validate.phase1_s"] == 2.0
    assert m["validate.phase2a_s"] == 0.3
    assert m["validate.phase2b_s"] == 0.1
    assert m["validate.plan_s"] == pytest.approx(0.1)
