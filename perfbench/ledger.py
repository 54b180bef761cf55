"""Measurement helpers of the layer-ledger benchmark: order statistics,
host counters from /proc, the benchmark process's peak RSS, scaling efficiency and
the output checks. Pure functions (plus /proc reads), so the tests in
this directory exercise them without Ray."""

from __future__ import annotations

import hashlib
import os
import statistics

import numpy as np

CLK_TCK = os.sysconf("SC_CLK_TCK")


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def eff_1to4(docs_per_s_1: float, docs_per_s_4: float, n: int = 4) -> float:
    """Scaling efficiency from 1 to ``n`` CPUs: 1.0 is linear."""
    return docs_per_s_4 / (n * docs_per_s_1)


# -- host counters ----------------------------------------------------------
# /proc/stat "cpu" columns: user nice system idle iowait irq softirq steal
def cpu_jiffies() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def cpu_window(before: list[int], after: list[int]) -> dict:
    """Host CPU use between two ``cpu_jiffies`` samples: user+system
    CPU-seconds, the busy share of all CPU time and the steal share."""
    d = [b - a for a, b in zip(before, after)]
    user, nice, system, idle, iowait, irq, softirq, steal = d
    total = sum(d)
    busy = user + nice + system + irq + softirq
    return {
        "cpu_s": (user + nice + system) / CLK_TCK,
        "busy_frac": busy / total if total else 0.0,
        "steal_frac": steal / total if total else 0.0,
    }


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


# -- output checks ------------------------------------------------------------
def _total_order(rows: list[dict]) -> list[tuple]:
    return sorted(tuple(sorted(r.items())) for r in rows)


def check_validate(got: tuple[list, list], want: tuple[list, list]) -> str | None:
    """Compare a run's (violations, verdicts), read with
    ``oracle.read_pipeline_outputs``, with the oracle's. Returns None when
    they match, else the reason. Violations compare as multisets: their sort
    key leaves ties (a repeated doc_id with the same error at two offsets),
    and tied rows come back in the order the run's files are read."""
    gv, gd = got
    wv, wd = want
    if gd != wd:
        return f"verdicts differ ({len(gd)} rows vs {len(wd)} from the oracle)"
    gv, wv = _total_order(gv), _total_order(wv)
    if gv != wv:
        i = next((i for i, (a, b) in enumerate(zip(gv, wv)) if a != b), min(len(gv), len(wv)))
        return (f"violations differ ({len(gv)} rows vs {len(wv)} from the oracle); "
                f"first difference at sorted row {i}")
    return None


def ids_digest(ids) -> str:
    """Order-free digest of an int64 id set."""
    arr = np.sort(np.asarray(ids, dtype=np.int64))
    return hashlib.sha256(arr.tobytes()).hexdigest()


def check_dedup(stats: dict, in_ids, out_ids, ref_digest: str) -> str | None:
    """Output check of one ``dedup_corpus`` run: counts add up, survivors
    are unique input ids, and the survivor set equals the reference run's.
    Returns None when all hold, else the reason."""
    n_in, n_out, n_drop = stats["n_docs_in"], stats["n_docs_out"], stats["n_dropped"]
    if n_in != n_out + n_drop:
        return f"n_in {n_in} != n_out {n_out} + n_dropped {n_drop}"
    if n_in != len(in_ids):
        return f"n_in {n_in} != {len(in_ids)} input rows"
    out = np.asarray(out_ids, dtype=np.int64)
    if len(out) != n_out:
        return f"{len(out)} output rows, stats say {n_out}"
    if len(np.unique(out)) != len(out):
        return "duplicate ids in the output"
    if not np.isin(out, np.asarray(in_ids, dtype=np.int64)).all():
        return "output ids that are not input ids"
    if ids_digest(out) != ref_digest:
        return "survivor set differs from the reference run"
    return None
